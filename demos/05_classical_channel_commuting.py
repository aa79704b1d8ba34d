"""Commuting inputs don't need entanglement at all.

If the possible inputs are diagonal in one known basis, measure-and-
reprepare in that basis sends every one of them through exactly, over a
channel holding zero entanglement. The same map butchers anything with
coherence across the basis: |+> comes out maximally mixed.
"""

import numpy as np

from qteleport.entanglement import concurrence
from qteleport.linalg import partial_trace
from qteleport.states import density_from_bloch, pure_density
from qteleport.teleport import classical_commuting_protocol, product_channel, run_teleport

ket0 = np.array([1, 0], dtype=complex)
ket1 = np.array([0, 1], dtype=complex)
protocol = classical_commuting_protocol((ket0, ket1))
channel = product_channel()

pair = partial_trace(channel, [4, 2], keep={0})
print(f"channel concurrence: {concurrence(pair):.1e} (separable)")

print("\nbasis-diagonal (commuting) inputs:")
for z in (0.9, 0.5, -0.3, -1.0):
    rho = density_from_bloch([0, 0, z])
    outcome = run_teleport(rho, channel, protocol, rho)
    print(f"  z = {z:+.1f}: fidelity = {outcome.fidelity:.15f}  exact = {outcome.exact}")

print("\na coherent input:")
plus = pure_density(np.array([1, 1], dtype=complex) / np.sqrt(2))
outcome = run_teleport(plus, channel, protocol, plus)
print(f"  |+>: fidelity = {outcome.fidelity:.15f} (dephased to I/2)")

print("\nnoncommuting pairs are exactly where classical channels stop working.")
