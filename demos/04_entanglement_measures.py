"""How much entanglement does a resource hold, and when is it one ebit?

Entropy of entanglement, Wootters concurrence, entanglement of formation
and the fully entangled fraction, evaluated along the cos/sin resource
family. The package's "one ebit" verdict is entanglement of formation
within tolerance of 1, which in two qubits pins a maximally entangled
pure state.
"""

import numpy as np

from qteleport.channels import entangled_pair_ket
from qteleport.entanglement import entanglement_report
from qteleport.states import pure_density

print(f"{'angle':>8} {'entropy':>10} {'concurrence':>12} {'eof':>10} "
      f"{'fef':>10} {'maximal':>8}")
for frac in (1 / 16, 1 / 8, 3 / 16, 7 / 32, 1 / 4):
    theta = np.pi * frac
    rho = pure_density(entangled_pair_ket(theta))
    r = entanglement_report(rho)
    print(f"{frac:>7.4f}p {r.entropy:>10.6f} {r.concurrence:>12.6f} "
          f"{r.eof:>10.6f} {r.fef:>10.6f} {str(r.is_maximal):>8}")

print("\nwerner-style mixtures p * bell + (1 - p) * I/4:")
bell = pure_density(entangled_pair_ket(np.pi / 4))
eye4 = np.eye(4, dtype=complex) / 4
print(f"{'p':>8} {'concurrence':>12} {'eof':>10} {'fef':>10} {'maximal':>8}")
for p in (1.0, 0.9, 0.6, 0.4, 0.2):
    r = entanglement_report(p * bell + (1 - p) * eye4)
    print(f"{p:>8.2f} {r.concurrence:>12.6f} {r.eof:>10.6f} "
          f"{r.fef:>10.6f} {str(r.is_maximal):>8}")

print("\nOnly the undiluted Bell state carries the full ebit.")
