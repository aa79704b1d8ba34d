"""Teleporting qubits with the standard Bell-measurement protocol.

The sender measures the input together with her half of a shared pair in
the Bell basis; the receiver applies the matching Pauli correction. Over a
maximally entangled resource the output is an exact copy, whatever the
input. Thin the resource down and exactness dies immediately.
"""

import numpy as np

from qteleport.channels import angle_channel
from qteleport.states import haar_random_pure, pure_density
from qteleport.teleport import bbcjpw_protocol, run_teleport

protocol = bbcjpw_protocol()
bell = angle_channel(np.pi / 4)

print("Maximally entangled resource (angle pi/4):")
for seed in range(5):
    chi = haar_random_pure(2, seed)
    rho = pure_density(chi)
    outcome = run_teleport(rho, bell, protocol, rho)
    print(f"  random state #{seed}: fidelity = {outcome.fidelity:.15f}  exact = {outcome.exact}")

print("\nSame protocol, thinner resources, input |+>:")
plus = pure_density(np.array([1, 1], dtype=complex) / np.sqrt(2))
for theta in (np.pi / 4, 3 * np.pi / 16, np.pi / 8, np.pi / 16):
    outcome = run_teleport(plus, angle_channel(theta), protocol, plus)
    predicted = (1 + np.sin(2 * theta)) / 2
    print(f"  angle {theta:.4f}: fidelity = {outcome.fidelity:.12f}"
          f"  (closed form {predicted:.12f})")

print("\nEquatorial states lose exactly (1 - sin 2 theta)/2; nothing is exact")
print("below the maximal angle.")
