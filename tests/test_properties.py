"""Invariants of the Kraus kernel checked over generated seeds."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qteleport.channels import (
    apply_kraus,
    apply_protocol,
    dilate,
    protocol_from_json,
    protocol_to_json,
    random_local_protocol,
    resource_channel,
)
from qteleport.linalg import frobenius, kron
from qteleport.states import random_density_matrix

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
FACTOR_DIMS = st.sampled_from([2, 4])
N_PAIRS = st.integers(min_value=1, max_value=5)
PROPERTY = settings(max_examples=50, deadline=None)


@PROPERTY
@given(seed=SEEDS, n_pairs=N_PAIRS, input_rank=st.integers(min_value=1, max_value=2))
def test_apply_protocol_is_the_kraus_kernel_and_preserves_trace(seed, n_pairs, input_rank):
    rng = np.random.default_rng(seed)
    p = random_local_protocol(rng, alice_dim=4, bob_dim=4, n_pairs=n_pairs)
    rho = random_density_matrix(2, rng, rank=input_rank)
    channel = resource_channel(random_density_matrix(4, rng))
    out = apply_protocol(rho, channel, p)
    assert np.array_equal(out, apply_kraus(p, kron(rho, channel)))
    assert abs(np.trace(out) - 1.0) < 1e-12


@PROPERTY
@given(seed=SEEDS, alice_dim=FACTOR_DIMS, bob_dim=FACTOR_DIMS, n_pairs=N_PAIRS)
def test_protocol_json_round_trip_is_bit_exact(seed, alice_dim, bob_dim, n_pairs):
    p = random_local_protocol(seed, alice_dim, bob_dim, n_pairs)
    q = protocol_from_json(protocol_to_json(p))
    assert (q.alice_dim, q.bob_dim, len(q)) == (p.alice_dim, p.bob_dim, len(p))
    for (a1, b1), (a2, b2) in zip(p.pairs, q.pairs):
        assert a1.tobytes() == a2.tobytes() and b1.tobytes() == b2.tobytes()
    assert q.kraus.tobytes() == p.kraus.tobytes()
    assert q.completeness_residual == p.completeness_residual


@PROPERTY
@given(seed=SEEDS, alice_dim=FACTOR_DIMS, bob_dim=FACTOR_DIMS, n_pairs=N_PAIRS)
def test_dilation_reproduces_the_kraus_kernel(seed, alice_dim, bob_dim, n_pairs):
    rng = np.random.default_rng(seed)
    p = random_local_protocol(rng, alice_dim, bob_dim, n_pairs)
    rho = random_density_matrix(alice_dim * bob_dim, rng)
    assert frobenius(dilate(p).apply(rho) - apply_kraus(p, rho)) < 1e-9
