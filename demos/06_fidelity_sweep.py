"""Sweep: best worst-case fidelity for a fixed pair vs channel entanglement.

For the fixed pair |0>, |+> and a resource cos(t)|00> + sin(t)|11>, a
multistart simplex search over one-round protocols (orthogonal measurement
by the sender, outcome-conditioned correction by the receiver) finds the
best achievable worst-case fidelity. It reaches 1 only at the maximal
angle; every thinner resource caps strictly below 1.

This demo uses reduced settings for speed; the full 32-start grid runs in
the acceptance suite and via `qteleport sweep`.
"""

import numpy as np

from qteleport.channels import angle_channel
from qteleport.entanglement import is_maximally_entangled
from qteleport.linalg import partial_trace
from qteleport.optimize import sweep_channel_angle, sweep_to_csv

ket0 = np.array([1, 0], dtype=complex)
plus = np.array([1, 1], dtype=complex) / np.sqrt(2)

grid = [np.pi / 16, np.pi / 8, np.pi / 4]
rows = sweep_channel_angle(grid, ket0, plus, starts=4, seed=0, max_evals=6000)

print(f"{'theta':>10} {'entropy':>10} {'best min fidelity':>18} {'1 ebit?':>8}")
for row in rows:
    marginal = partial_trace(angle_channel(row.theta), [4, 2], keep={0})
    maximal = is_maximally_entangled(marginal, 1e-6)
    print(f"{row.theta:>10.6f} {row.channel_entropy:>10.6f} "
          f"{row.best_min_fidelity:>18.12f} {str(maximal):>8}")

print("\nCSV form (17 significant digits):")
print(sweep_to_csv(rows))
print("Exactness appears exactly where the verdict flips to True.")
