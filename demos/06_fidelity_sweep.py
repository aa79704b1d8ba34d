"""Sweep: best worst-case fidelity for a fixed pair vs channel entanglement.

For the fixed pair |0>, |+> and a resource cos(t)|00> + sin(t)|11>, a
multistart simplex search over one-round protocols (orthogonal measurement
by the sender, outcome-conditioned correction by the receiver) finds the
best achievable worst-case fidelity. It reaches 1 only at the maximal
angle; every thinner resource caps strictly below 1. The one-ebit verdict
is judged on the A:B resource state itself, as `qteleport sweep` judges it.

This demo uses reduced settings for speed; the full 32-start grid runs in
the acceptance suite and via `qteleport sweep`, which also writes the rows
as JSON or, with `--output-format csv`, as CSV with 17 significant digits.
"""

import numpy as np

from qteleport.channels import entangled_pair_ket
from qteleport.entanglement import is_maximally_entangled
from qteleport.optimize import sweep_channel_angle
from qteleport.states import pure_density

ket0 = np.array([1, 0], dtype=complex)
plus = np.array([1, 1], dtype=complex) / np.sqrt(2)

grid = [np.pi / 16, np.pi / 8, np.pi / 4]
rows = sweep_channel_angle(grid, ket0, plus, starts=4, seed=0, max_evals=6000)

print(f"{'theta':>10} {'entropy':>10} {'best min fidelity':>18} {'1 ebit?':>8}")
for row in rows:
    maximal = is_maximally_entangled(pure_density(entangled_pair_ket(row.theta)), 1e-6)
    print(f"{row.theta:>10.6f} {row.channel_entropy:>10.6f} "
          f"{row.best_min_fidelity:>18.12f} {str(maximal):>8}")

print("\nExactness appears exactly where the verdict flips to True.")
