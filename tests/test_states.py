import numpy as np
import pytest

from qteleport.errors import (
    CommutingInputError,
    DegenerateChordError,
    DimensionError,
    NotPositiveError,
)
from qteleport.linalg import frobenius
from qteleport.states import (
    SIGMA_X,
    bloch_from_density,
    check_density_matrix,
    check_pure_state,
    commutator_norm,
    density_from_bloch,
    extreme_decomposition,
    haar_random_pure,
    pure_density,
    pure_state_from_bloch,
    random_density_matrix,
    random_unitary,
    state_fidelity,
)

from oracles import bloch_of, chord_sphere_points, haar_draw, random_bloch_in_ball

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


# ---------------------------------------------------------------------------
# Bloch geometry


@pytest.mark.parametrize(
    "rho, expected",
    [
        (np.diag([1.0, 0.0]), (0, 0, 1)),
        (np.eye(2) / 2, (0, 0, 0)),
        ((np.eye(2) + 0.5 * SIGMA_X) / 2, (0.5, 0, 0)),
    ],
)
def test_bloch_from_density(rho, expected):
    assert np.allclose(bloch_from_density(np.asarray(rho, dtype=complex)), expected)


@pytest.mark.parametrize(
    "r, expected",
    [
        ((0, 0, -1), np.diag([0.0, 1.0])),
        ((0, 0, 0), np.eye(2) / 2),
        ((1, 0, 0), np.full((2, 2), 0.5)),
    ],
)
def test_density_from_bloch(r, expected):
    assert np.allclose(density_from_bloch(r), expected)


def test_bloch_round_trip():
    rng = np.random.default_rng(21)
    for _ in range(50):
        r = random_bloch_in_ball(rng)
        assert np.allclose(bloch_from_density(density_from_bloch(r)), r, atol=1e-12)


def test_bloch_rejects_outside_ball():
    with pytest.raises(ValueError):
        density_from_bloch([1.0, 1.0, 0.0])


def test_density_from_bloch_rejects_complex_vector():
    # casting would keep only the real part, the maximally mixed state
    with pytest.raises(ValueError, match="real"):
        density_from_bloch(np.array([0, 0, 0.5j]))


def test_pure_state_from_bloch_rejects_complex_vector():
    with pytest.raises(ValueError, match="real"):
        pure_state_from_bloch(np.array([0, 0, 1 + 0.5j]))


def test_bloch_from_density_rejects_wrong_dim():
    with pytest.raises(DimensionError):
        bloch_from_density(np.eye(4, dtype=complex) / 4)


# ---------------------------------------------------------------------------
# commutator norm


def test_commutator_with_self_is_zero():
    rho = density_from_bloch([0.3, 0.1, -0.4])
    assert commutator_norm(rho, rho) == 0.0


def test_commutator_diagonal_states_commute():
    assert commutator_norm(np.diag([0.2, 0.8]).astype(complex),
                           np.diag([0.7, 0.3]).astype(complex)) == 0.0


def test_commutator_matches_direct_product():
    rho1 = density_from_bloch([0, 0, 0.5])
    rho2 = density_from_bloch([0.5, 0, 0])
    direct = rho1 @ rho2 - rho2 @ rho1
    assert abs(commutator_norm(rho1, rho2) - frobenius(direct)) < 1e-15


def test_commutator_cross_product_identity():
    # |[rho1, rho2]|_F = |r1 x r2| / sqrt(2) for qubits
    rng = np.random.default_rng(22)
    for _ in range(50):
        r1, r2 = random_bloch_in_ball(rng), random_bloch_in_ball(rng)
        got = commutator_norm(density_from_bloch(r1), density_from_bloch(r2))
        want = np.linalg.norm(np.cross(r1, r2)) / np.sqrt(2)
        assert abs(got - want) < 1e-12


# ---------------------------------------------------------------------------
# extreme decomposition


def test_worked_example_against_quadratic_oracle():
    r1, r2 = np.array([0, 0, 0.5]), np.array([0.5, 0, 0])
    dec = extreme_decomposition(density_from_bloch(r1), density_from_bloch(r2))
    far, near = chord_sphere_points(r1, r2)
    # closed forms: intersection x-coordinates are (1 +- sqrt 7)/4
    assert abs(far[0] - (1 + np.sqrt(7)) / 4) < 1e-12
    assert abs(near[0] - (1 - np.sqrt(7)) / 4) < 1e-12
    assert np.allclose(bloch_of(pure_density(dec.psi)), far, atol=1e-12)
    assert np.allclose(bloch_of(pure_density(dec.phi)), near, atol=1e-12)
    assert abs(dec.lam1 - (7 - np.sqrt(7)) / 14) < 1e-12
    assert abs(dec.lam2 - (7 + np.sqrt(7)) / 14) < 1e-12


def test_extreme_decomposition_reconstructs():
    rng = np.random.default_rng(23)
    done = 0
    while done < 300:
        r1, r2 = random_bloch_in_ball(rng), random_bloch_in_ball(rng)
        rho1, rho2 = density_from_bloch(r1), density_from_bloch(r2)
        if commutator_norm(rho1, rho2) <= 1e-4:
            continue
        dec = extreme_decomposition(rho1, rho2)
        assert frobenius(dec.reconstruct(1) - rho1) < 1e-10
        assert frobenius(dec.reconstruct(2) - rho2) < 1e-10
        assert 1e-10 < dec.overlap() < 1 - 1e-10
        assert abs(dec.lam1 - dec.lam2) > 1e-10
        done += 1


def test_extreme_decomposition_pure_pair_sits_at_endpoints():
    psi = pure_state_from_bloch(np.array([0, 0, 1.0]))
    phi = pure_state_from_bloch(np.array([1.0, 0, 0]))
    dec = extreme_decomposition(pure_density(psi), pure_density(phi))
    assert dec.boundary
    # far point along psi -> phi is phi itself, so the weights are 0 and 1
    assert abs(dec.lam1 - 0.0) < 1e-9
    assert abs(dec.lam2 - 1.0) < 1e-9
    assert abs(abs(np.vdot(dec.psi, phi)) - 1) < 1e-9
    assert abs(abs(np.vdot(dec.phi, psi)) - 1) < 1e-9


def test_extreme_decomposition_unitary_covariance():
    rng = np.random.default_rng(24)
    done = 0
    while done < 60:
        r1, r2 = random_bloch_in_ball(rng), random_bloch_in_ball(rng)
        rho1, rho2 = density_from_bloch(r1), density_from_bloch(r2)
        if commutator_norm(rho1, rho2) <= 1e-3:
            continue
        u = random_unitary(2, rng)
        dec = extreme_decomposition(rho1, rho2)
        rot = extreme_decomposition(u @ rho1 @ u.conj().T, u @ rho2 @ u.conj().T)
        assert abs(rot.lam1 - dec.lam1) < 1e-9
        assert abs(rot.lam2 - dec.lam2) < 1e-9
        assert abs(abs(np.vdot(rot.psi, u @ dec.psi)) - 1) < 1e-9
        assert abs(abs(np.vdot(rot.phi, u @ dec.phi)) - 1) < 1e-9
        done += 1


def test_extreme_decomposition_rejects_commuting():
    with pytest.raises(CommutingInputError) as info:
        extreme_decomposition(density_from_bloch([0, 0, 0.2]), density_from_bloch([0, 0, 0.7]))
    assert info.value.commutator_norm <= 1e-8
    # Coinciding states commute too: the norm is at most |r2 - r1| / sqrt(2),
    # so no pair reaches the chord construction with r1 == r2.
    rho = density_from_bloch([0.3, -0.4, 0.5])
    near = density_from_bloch([0.3, -0.4, 0.5 + 1e-11])
    for rho2 in (rho, near):
        with pytest.raises(CommutingInputError):
            extreme_decomposition(rho, rho2)


def test_extreme_decomposition_rejects_a_degenerate_chord():
    # Two pure states 2.9e-8 apart pass the commutator gate (norm 2.05e-8),
    # but rounding merges the two sphere points of their chord, which used to
    # give NaN weights.
    rho1 = density_from_bloch([0.8103474193131788, -0.17710262590261314, 0.5585442864365102])
    rho2 = density_from_bloch([0.81034740613072, -0.1771026139498519, 0.5585443093518577])
    assert commutator_norm(rho1, rho2) > 1e-8
    with pytest.raises(DegenerateChordError, match="sphere points coincide"):
        extreme_decomposition(rho1, rho2)


# ---------------------------------------------------------------------------
# Haar sampling


def test_haar_dim1_is_trivial():
    assert np.allclose(haar_random_pure(1, 5), [1.0])


def test_haar_deterministic_per_seed():
    a = haar_random_pure(4, 123)
    b = haar_random_pure(4, 123)
    assert np.array_equal(a, b)
    assert not np.allclose(a, haar_random_pure(4, 124))


def test_haar_draws_are_the_per_spawn_oracle_draws_phase_fixed():
    # the oracle behind the average-fidelity tests draws its states the same way
    for child in np.random.SeedSequence(79).spawn(200):
        chi, ref = haar_random_pure(2, child), haar_draw(child)
        assert np.allclose(chi, ref * (abs(ref[0]) / ref[0]), rtol=0.0, atol=1e-15)


def test_haar_mean_bloch_vanishes():
    total = np.zeros(3)
    n = 10_000
    seeds = np.random.SeedSequence(77).spawn(n)
    for s in seeds:
        total += bloch_of(pure_density(haar_random_pure(2, s)))
    assert np.all(np.abs(total / n) < 0.05)


def test_haar_rotation_invariance_statistical():
    # mean Bloch vector of rotated samples also vanishes
    u = random_unitary(2, 99)
    total = np.zeros(3)
    n = 4000
    for s in np.random.SeedSequence(78).spawn(n):
        chi = u @ haar_random_pure(2, s)
        total += bloch_of(pure_density(chi))
    assert np.all(np.abs(total / n) < 0.08)


# ---------------------------------------------------------------------------
# fidelity


def test_fidelity_identical_states():
    rng = np.random.default_rng(25)
    for rank in (1, 2):
        rho = random_density_matrix(2, rng, rank=rank)
        assert abs(state_fidelity(rho, rho) - 1) < 1e-12


def test_fidelity_orthogonal_pure():
    assert state_fidelity(pure_density(KET0), pure_density(KET1)) < 1e-12


def test_fidelity_pure_vs_mixed():
    assert abs(state_fidelity(pure_density(KET0), np.eye(2, dtype=complex) / 2) - 0.5) < 1e-12


def test_fidelity_pure_reduces_to_expectation():
    rng = np.random.default_rng(26)
    for _ in range(20):
        chi = haar_random_pure(2, rng)
        sigma = random_density_matrix(2, rng)
        want = float(np.real(np.vdot(chi, sigma @ chi)))
        assert abs(state_fidelity(pure_density(chi), sigma) - want) < 1e-10


def test_fidelity_symmetric_and_bounded():
    rng = np.random.default_rng(27)
    for _ in range(20):
        a = random_density_matrix(2, rng)
        b = random_density_matrix(2, rng)
        f1, f2 = state_fidelity(a, b), state_fidelity(b, a)
        assert abs(f1 - f2) < 1e-10
        assert 0.0 <= f1 <= 1.0 + 1e-10


def test_fidelity_dimension_mismatch():
    with pytest.raises(DimensionError):
        state_fidelity(np.eye(2, dtype=complex) / 2, np.eye(4, dtype=complex) / 4)


def test_fidelity_rejects_two_qubit_states():
    # the closed form is qubit-only, so a 4x4 pair is refused, not scored
    rho = np.eye(4, dtype=complex) / 4
    with pytest.raises(DimensionError):
        state_fidelity(rho, rho)


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[0.5, 0.5], [0.0, 0.5]]),
        np.diag([1.1, -0.1]),
        np.array([[np.nan, 0.0], [0.0, 0.5]]),
        np.diag([0.6, 0.6]),
    ],
    ids=["non-hermitian", "negative", "non-finite", "trace-not-1"],
)
def test_fidelity_rejects_invalid_states(bad):
    good = np.eye(2, dtype=complex) / 2
    for args in ((bad, good), (good, bad)):
        with pytest.raises(ValueError):
            state_fidelity(*args)


# ---------------------------------------------------------------------------
# validation


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_check_pure_state_rejects_non_finite(bad):
    # abs(nan - 1) > tol is False, so the norm test alone lets NaN through
    with pytest.raises(ValueError, match="non-finite"):
        check_pure_state([bad, 0], dim=2)


def test_check_density_matrix_rejects_non_finite():
    rho = np.eye(2, dtype=complex) / 2
    rho[0, 1] = rho[1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        check_density_matrix(rho)


def test_check_density_matrix_positivity_threshold():
    # trace 1 and Hermitian: only the lowest eigenvalue decides
    with pytest.raises(NotPositiveError, match="below the -1e-10 clamp threshold"):
        check_density_matrix(np.diag([1.0 + 1e-9, -1e-9]))
    roundoff = np.diag([1.0 + 1e-11, -1e-11]).astype(complex)
    assert check_density_matrix(roundoff) is not None
