"""Invariants of the Kraus kernel, the entanglement measures, the chord
decomposition, the qubit fidelity, the qubit density check and the simplex
lockstep, checked over generated seeds."""

import numpy as np
import pytest
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
from qteleport.optimize import _RESTART_LADDER, _lockstep
from qteleport.states import (
    _clearly_valid_qubit,
    check_density_matrix,
    commutator_norm,
    extreme_decomposition,
    haar_random_pure,
    pure_density,
    random_density_matrix,
    random_unitary,
    state_fidelity,
)

from oracles import general_density_check, lockstep_reference, opt_result_key, uhlmann_fidelity

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


# ---------------------------------------------------------------------------
# the closed-form qubit certificate against the general density checks

# Signed distance of a check's value from its threshold, positive on the
# passing side.
CLEARANCES = (-1e-9, -1e-11, -1e-12, -1e-14, 1e-14, 1e-12, 1e-11, 1e-9)
THRESHOLD_FAMILIES = ("lowest-eigenvalue", "skew-off-diagonal", "imaginary-diagonal",
                      "trace-above", "trace-below")
ABOVE_TWO = np.nextafter(2.0, 3.0)


def _rotated(eigenvalues, seed) -> np.ndarray:
    u = random_unitary(2, seed)
    return (u * np.asarray(eigenvalues, dtype=float)) @ u.conj().T


def _at_threshold(family: str, clearance: float, seed: int) -> np.ndarray:
    """A 2x2 whose value for one check sits `clearance` inside its threshold
    (outside when negative) while every other check passes clearly."""
    if family == "lowest-eigenvalue":
        low = -1e-10 + clearance
        return _rotated([low, 1.0 - low], seed)
    m = _rotated([0.3, 0.7], seed)
    # a defect or trace error is at least 0, so 1e-10 is the largest clearance
    excess = max(1e-10 - clearance, 0.0)
    if family == "skew-off-diagonal":  # defect sqrt(2) |t|
        m[0, 1] += excess / np.sqrt(2.0) * np.exp(1j * seed)
    elif family == "imaginary-diagonal":  # defect 2 |s|
        m[1, 1] += 0.5j * excess
    else:
        m[0, 0] += excess if family == "trace-above" else -excess
    return m


def _with_entry(part: int, value: float, seed: int) -> np.ndarray:
    """A valid mixed state with real or imaginary part `part` (0-7) set to `value`."""
    m = _rotated([0.3, 0.7], seed)
    m.view(float).reshape(-1)[part] = value
    return m


_NEG_ZERO = complex(-0.0, -0.0)
NEGATIVE_ZEROS = {
    "pure-ket0": [[complex(1.0, -0.0), _NEG_ZERO], [_NEG_ZERO, _NEG_ZERO]],
    "diagonal-mixed": [[complex(0.25, -0.0), _NEG_ZERO],
                       [complex(-0.0, 0.0), complex(0.75, -0.0)]],
    "plus": [[complex(0.5, -0.0), complex(0.5, -0.0)], [complex(0.5, 0.0), complex(0.5, -0.0)]],
}


def _verdict(check, m):
    try:
        return check(m)
    except Exception as exc:  # the verdict is the exception itself
        return type(exc), str(exc)


def assert_same_verdict(m: np.ndarray) -> None:
    want = _verdict(general_density_check, m)
    got = _verdict(check_density_matrix, m)
    if isinstance(want, np.ndarray):
        assert got is want
    else:
        assert not isinstance(got, np.ndarray), want
        assert got == want


QUBIT_CASES = st.one_of(
    st.builds(lambda seed, rank: random_density_matrix(2, seed, rank=rank), SEEDS, QUBIT_RANKS),
    st.builds(_at_threshold, st.sampled_from(THRESHOLD_FAMILIES), st.sampled_from(CLEARANCES),
              SEEDS),
    st.builds(_with_entry, st.integers(0, 7),
              st.sampled_from([2.0, -2.0, ABOVE_TWO, -ABOVE_TWO, 2.0 + 1e-9]), SEEDS),
    st.builds(_with_entry, st.integers(0, 7), st.sampled_from([np.nan, np.inf, -np.inf]), SEEDS),
    st.sampled_from(list(NEGATIVE_ZEROS.values())).map(lambda rows: np.array(rows)),
)


@settings(max_examples=300, deadline=None)
@given(m=QUBIT_CASES)
def test_qubit_check_matches_the_general_checks(m):
    assert_same_verdict(m)


@pytest.mark.parametrize("clearance", CLEARANCES)
@pytest.mark.parametrize("family", THRESHOLD_FAMILIES)
def test_qubit_check_at_each_threshold(family, clearance):
    m = _at_threshold(family, clearance, seed=0)
    assert_same_verdict(m)
    # within the margin the certificate defers; clear passes it accepts itself
    if abs(clearance) < 1e-12:
        assert not _clearly_valid_qubit(m)
    elif clearance > 1e-12:
        assert _clearly_valid_qubit(m)


@pytest.mark.parametrize(
    "part, value",
    [(0, 2.0), (0, -2.0), (1, ABOVE_TWO), (2, -ABOVE_TWO), (7, 2.0 + 1e-9),
     (0, np.nan), (3, np.nan), (5, np.inf), (6, -np.inf)],
)
def test_qubit_check_on_bounding_entries(part, value):
    assert_same_verdict(_with_entry(part, value, seed=0))


@pytest.mark.parametrize("name", list(NEGATIVE_ZEROS))
def test_qubit_check_on_negative_zero_entries(name):
    m = np.array(NEGATIVE_ZEROS[name])
    assert_same_verdict(m)
    assert _clearly_valid_qubit(m)


# ---------------------------------------------------------------------------
# the array-backed simplex lockstep against the generator lockstep it replaced


def _egg_crate(x, c, x0):
    """Maxima on a lattice of pitch 0.1 around c: rejected contractions shrink."""
    y = (x - c) / 0.1
    return -0.1 * float(np.abs(y - np.round(y)).sum()) - 0.01 * float((x - c) @ (x - c))


# Each takes a point x, the start's own center c and its initial point x0.
LOCKSTEP_OBJECTIVES = {
    "quadratic": lambda x, c, x0: -float((x - c) @ (x - c)),
    "constant": lambda x, c, x0: 3.25,  # the objective-spread exit
    # NaN at every initial vertex but x0, so finite newcomers land ahead of NaNs
    "nan-region": lambda x, c, x0: (np.nan if (x - x0).sum() > 0.05
                                    else -float((x - c) @ (x - c))),
    "ceiling": lambda x, c, x0: min(1.0, 1.5 - float((x - c) @ (x - c))),  # stops the ladder
    "kink": lambda x, c, x0: -float(np.abs(x - c).sum()),  # the diameter exit
    "egg-crate": _egg_crate,
}


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 6), budget=st.integers(1, 400),
       ladder=st.sampled_from([_RESTART_LADDER, ((0.1, 1.0),)]),
       kinds=st.lists(st.sampled_from(sorted(LOCKSTEP_OBJECTIVES)), min_size=1, max_size=5))
def test_lockstep_follows_the_generator_lockstep(seed, n, budget, ladder, kinds):
    rng = np.random.default_rng(seed)
    inits = rng.uniform(-1.0, 1.0, (len(kinds), n))
    centers = rng.uniform(-1.0, 1.0, (len(kinds), n))

    def evaluate(points, owners):
        return np.array([LOCKSTEP_OBJECTIVES[kinds[o]](x, centers[o], inits[o])
                         for x, o in zip(points, owners)])

    want = lockstep_reference(evaluate, inits, budget, ladder)
    got = _lockstep(evaluate, inits, budget, ladder)
    assert [opt_result_key(r) for r in got] == [opt_result_key(r) for r in want]
