"""Invariants of the Kraus kernel, the entanglement measures, the chord
decomposition and the qubit fidelity, checked over generated seeds."""

import numpy as np
from hypothesis import assume, given, settings
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
from qteleport.entanglement import concurrence, entanglement_of_formation, fully_entangled_fraction
from qteleport.linalg import frobenius, kron
from qteleport.states import (
    commutator_norm,
    extreme_decomposition,
    haar_random_pure,
    pure_density,
    random_density_matrix,
    random_unitary,
    state_fidelity,
)

from oracles import uhlmann_fidelity

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


@PROPERTY
@given(seed=SEEDS, rank=st.integers(min_value=1, max_value=4))
def test_entanglement_measures_are_local_unitary_invariant(seed, rank):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(4, rng, rank=rank)
    w = kron(random_unitary(2, rng), random_unitary(2, rng))
    moved = w @ rho @ w.conj().T
    for measure in (concurrence, entanglement_of_formation, fully_entangled_fraction):
        assert abs(measure(moved) - measure(rho)) < 1e-9


@PROPERTY
@given(seed=SEEDS, rank1=st.integers(min_value=1, max_value=2))
def test_chord_decomposition_is_unitarily_covariant(seed, rank1):
    rng = np.random.default_rng(seed)
    rho1 = random_density_matrix(2, rng, rank=rank1)
    rho2 = random_density_matrix(2, rng)
    assume(commutator_norm(rho1, rho2) > 1e-3)
    u = random_unitary(2, rng)
    dec = extreme_decomposition(rho1, rho2)
    rot = extreme_decomposition(u @ rho1 @ u.conj().T, u @ rho2 @ u.conj().T)
    assert abs(rot.lam1 - dec.lam1) < 1e-9
    assert abs(rot.lam2 - dec.lam2) < 1e-9
    # the chord states move with u, up to a global phase
    assert abs(abs(np.vdot(rot.psi, u @ dec.psi)) - 1) < 1e-9
    assert abs(abs(np.vdot(rot.phi, u @ dec.phi)) - 1) < 1e-9


QUBIT_RANKS = st.integers(min_value=1, max_value=2)


@PROPERTY
@given(seed=SEEDS, rank1=QUBIT_RANKS, rank2=QUBIT_RANKS)
def test_qubit_fidelity_matches_the_uhlmann_formula(seed, rank1, rank2):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(2, rng, rank=rank1)
    sigma = random_density_matrix(2, rng, rank=rank2)
    assert abs(state_fidelity(rho, sigma) - uhlmann_fidelity(rho, sigma)) < 1e-12


@PROPERTY
@given(seed=SEEDS, rank=QUBIT_RANKS)
def test_fidelity_with_a_pure_state_is_its_expectation(seed, rank):
    rng = np.random.default_rng(seed)
    psi = haar_random_pure(2, rng)
    sigma = random_density_matrix(2, rng, rank=rank)
    expectation = np.vdot(psi, sigma @ psi).real
    assert abs(state_fidelity(pure_density(psi), sigma) - expectation) < 1e-12
