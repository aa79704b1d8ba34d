"""The two-state decomposition of a noncommuting qubit pair.

Two density matrices with non-parallel Bloch vectors define a unique line;
that line meets the unit sphere in exactly two points. The corresponding
pure states are the only non-orthogonal pair through which both inputs
decompose as two-term convex mixtures, and their mixing weights are the
positions of each input along the chord.
"""

import numpy as np

from qteleport.linalg import frobenius
from qteleport.states import (
    bloch_from_density,
    commutator_norm,
    density_from_bloch,
    extreme_decomposition,
    pure_density,
)

rho1 = density_from_bloch([0, 0, 0.5])
rho2 = density_from_bloch([0.5, 0, 0])

print("inputs:  r1 = (0, 0, 0.5)   r2 = (0.5, 0, 0)")
print(f"commutator norm: {commutator_norm(rho1, rho2):.6f} (noncommuting)")

dec = extreme_decomposition(rho1, rho2)
u = bloch_from_density(pure_density(dec.psi))
v = bloch_from_density(pure_density(dec.phi))

print("\nchord-sphere intersections (the extreme states):")
print(f"  psi at Bloch {np.round(u, 6)}")
print(f"  phi at Bloch {np.round(v, 6)}")
print(f"  closed form: x-coordinates (1 +- sqrt 7)/4 = "
      f"{(1 + np.sqrt(7)) / 4:.6f}, {(1 - np.sqrt(7)) / 4:.6f}")

print("\nmixing weights (weights differ, which is the whole point):")
print(f"  lambda_1 = {dec.lam1:.10f}   (= (7 - sqrt 7)/14)")
print(f"  lambda_2 = {dec.lam2:.10f}   (= (7 + sqrt 7)/14)")
print(f"  overlap |<psi|phi>| = {dec.overlap():.10f}  (never orthogonal)")

print("\nreconstruction residuals:")
print(f"  rho1: {frobenius(dec.reconstruct(1) - rho1):.3e}")
print(f"  rho2: {frobenius(dec.reconstruct(2) - rho2):.3e}")

print("\nBecause the weights differ, any linear protocol that sends both")
print("inputs through exactly must also send psi and phi through exactly;")
print("and exact teleportation of a non-orthogonal pure pair needs a")
print("maximally entangled resource.")
