"""Kraus pairs, completeness, purification, and the environment unitary.

A local protocol is a list of operator pairs (A_i, B_i) applied as a
sandwich sum; trace preservation is the completeness condition on
sum (A_i^t A_i) (x) (B_i^t B_i). Any mixed channel state is the shadow of
a pure state on a bigger space (purification), and any protocol is a slice
of a unitary on system (x) environment (dilation).
"""

import numpy as np

from qteleport.channels import (
    apply_kraus,
    dilate,
    protocol_from_json,
    protocol_to_json,
    purify,
    random_local_protocol,
)
from qteleport.linalg import frobenius
from qteleport.states import random_density_matrix
from qteleport.teleport import bbcjpw_protocol

protocol = bbcjpw_protocol()
print(f"Bell protocol: {len(protocol)} Kraus pairs, completeness residual "
      f"{protocol.completeness_residual:.2e}")

text = protocol_to_json(protocol)
again = protocol_from_json(text)
print(f"serialization round-trip: {len(text)} bytes, exact = "
      f"{all(np.array_equal(a, c) and np.array_equal(b, d) for (a, b), (c, d) in zip(protocol.pairs, again.pairs))}")

print("\npurification of mixed channel states:")
for rank in (1, 2, 3, 4):
    rho = random_density_matrix(4, seed=rank, rank=rank)
    pur = purify(rho)
    print(f"  rank {rank}: ancilla dim {pur.ancilla_dim}, "
          f"round-trip residual {frobenius(pur.reduce() - rho):.2e}")

print("\ndilation of random local protocols:")
rng = np.random.default_rng(0)
for k in range(4):
    p = random_local_protocol(rng, n_pairs=int(rng.integers(1, 6)))
    dil = dilate(p)
    eye = np.eye(dil.u.shape[0])
    rho = random_density_matrix(4, rng)
    match = frobenius(dil.apply(rho) - apply_kraus(p, rho))
    print(f"  protocol #{k}: {len(p)} pairs -> env dim {dil.env_dim}, "
          f"unitarity {frobenius(dil.u.conj().T @ dil.u - eye):.2e}, "
          f"channel match {match:.2e}")
