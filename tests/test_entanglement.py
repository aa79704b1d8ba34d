import numpy as np
import pytest

from qteleport.entanglement import (
    binary_entropy,
    concurrence,
    entanglement_of_formation,
    entanglement_report,
    entropy_of_entanglement,
    fully_entangled_fraction,
    is_maximally_entangled,
    schmidt,
)
from qteleport.errors import DimensionError
from qteleport.linalg import kron
from qteleport.states import haar_random_pure, pure_density, random_density_matrix, random_unitary

from oracles import fef_sampling, pure_concurrence_from_schmidt, wootters_concurrence_eigvals

KET00 = np.array([1, 0, 0, 0], dtype=complex)
PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def angle_ket(theta):
    v = np.zeros(4, dtype=complex)
    v[0], v[3] = np.cos(theta), np.sin(theta)
    return v


# ---------------------------------------------------------------------------
# Schmidt decomposition


def test_schmidt_product_state():
    dec = schmidt(KET00, (2, 2))
    assert np.allclose(dec.coefficients, [1, 0], atol=1e-12)


def test_schmidt_bell():
    dec = schmidt(PHI_PLUS, (2, 2))
    assert np.allclose(dec.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_schmidt_angle_state_already_diagonal():
    dec = schmidt(angle_ket(np.pi / 8), (2, 2))
    assert np.allclose(dec.coefficients, [np.cos(np.pi / 8), np.sin(np.pi / 8)], atol=1e-12)


def test_schmidt_reconstructs_and_is_orthonormal():
    rng = np.random.default_rng(61)
    for da, db in ((2, 2), (2, 4), (4, 2)):
        for _ in range(20):
            psi = haar_random_pure(da * db, rng)
            dec = schmidt(psi, (da, db))
            assert abs(np.sum(dec.coefficients**2) - 1) < 1e-10
            assert np.allclose(dec.reconstruct(), psi, atol=1e-9)
            k = dec.coefficients.size
            assert np.allclose(dec.left_basis.conj().T @ dec.left_basis, np.eye(k), atol=1e-10)
            assert np.allclose(dec.right_basis.conj().T @ dec.right_basis, np.eye(k), atol=1e-10)


def test_schmidt_left_basis_vectors_lead_with_a_real_positive_amplitude():
    # the phase rule eig_hermitian applies to its eigenvectors; zeroed
    # leading amplitudes move the pivot below the first entry
    rng = np.random.default_rng(63)
    for da, db in ((2, 2), (2, 4), (4, 2)):
        for trial in range(30):
            psi = haar_random_pure(da * db, rng).reshape(da, db)
            psi[: trial % da] = 0.0
            left = schmidt(psi.reshape(-1) / np.linalg.norm(psi), (da, db)).left_basis
            for col in left.T:
                pivot = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
                assert pivot.real > 0 and abs(pivot.imag) <= 1e-15 * pivot.real


def test_schmidt_coefficients_match_reduced_eigenvalues():
    rng = np.random.default_rng(62)
    psi = haar_random_pure(4, rng)
    dec = schmidt(psi, (2, 2))
    rho_a = np.outer(psi, psi.conj()).reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
    evals = np.sort(np.linalg.eigvalsh(rho_a))[::-1]
    assert np.allclose(dec.coefficients**2, evals, atol=1e-10)


def test_schmidt_rejects_bad_dims():
    with pytest.raises(DimensionError):
        schmidt(PHI_PLUS, (2, 3))


# ---------------------------------------------------------------------------
# entropy of entanglement


def test_entropy_product_zero():
    assert entropy_of_entanglement(KET00, (2, 2)) == 0.0


def test_entropy_bell_one():
    assert abs(entropy_of_entanglement(PHI_PLUS, (2, 2)) - 1.0) < 1e-12


def test_entropy_angle_state_closed_form():
    c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
    want = -(c**2) * np.log2(c**2) - (s**2) * np.log2(s**2)
    got = entropy_of_entanglement(angle_ket(np.pi / 8), (2, 2))
    assert abs(got - want) < 1e-12
    assert abs(want - 0.6008760366928562) < 1e-12


# ---------------------------------------------------------------------------
# concurrence


def test_concurrence_bell_is_one():
    assert abs(concurrence(pure_density(PHI_PLUS)) - 1.0) < 1e-9


def test_concurrence_product_is_zero():
    assert concurrence(pure_density(KET00)) < 1e-9


def test_concurrence_angle_state():
    got = concurrence(pure_density(angle_ket(np.pi / 8)))
    assert abs(got - np.sin(np.pi / 4)) < 1e-9


def test_concurrence_pure_matches_schmidt_form():
    rng = np.random.default_rng(63)
    for _ in range(30):
        psi = haar_random_pure(4, rng)
        got = concurrence(pure_density(psi))
        want = pure_concurrence_from_schmidt(psi)
        assert abs(got - want) < 1e-9


def test_concurrence_mixed_matches_eigval_oracle():
    rng = np.random.default_rng(64)
    for _ in range(30):
        rho = random_density_matrix(4, rng)
        assert abs(concurrence(rho) - wootters_concurrence_eigvals(rho)) < 1e-9


# ---------------------------------------------------------------------------
# entanglement of formation


def test_eof_bell_is_one_bit():
    assert abs(entanglement_of_formation(pure_density(PHI_PLUS)) - 1.0) < 1e-9


def test_eof_matches_entropy_for_pure():
    rng = np.random.default_rng(65)
    for _ in range(20):
        psi = haar_random_pure(4, rng)
        eof = entanglement_of_formation(pure_density(psi))
        entropy = entropy_of_entanglement(psi, (2, 2))
        assert abs(eof - entropy) < 1e-9


def test_eof_monotone_in_concurrence():
    cs = np.linspace(0.0, 1.0, 41)
    values = [binary_entropy((1 + np.sqrt(1 - c * c)) / 2) for c in cs]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# fully entangled fraction


def test_fef_bell_is_one():
    assert abs(fully_entangled_fraction(pure_density(PHI_PLUS)) - 1.0) < 1e-10


def test_fef_maximally_mixed_quarter():
    assert abs(fully_entangled_fraction(np.eye(4, dtype=complex) / 4) - 0.25) < 1e-12


def test_fef_angle_state_closed_form():
    theta = np.pi / 8
    got = fully_entangled_fraction(pure_density(angle_ket(theta)))
    assert abs(got - (1 + np.sin(2 * theta)) / 2) < 1e-10


def test_fef_dominates_sampling_oracle():
    rng = np.random.default_rng(66)
    for _ in range(5):
        rho = random_density_matrix(4, rng)
        exact = fully_entangled_fraction(rho)
        sampled = fef_sampling(rho, 4000, seed=int(rng.integers(1 << 31)))
        assert sampled <= exact + 1e-9
        assert exact - sampled < 0.02  # dense sampling gets close


def test_fef_in_range():
    rng = np.random.default_rng(67)
    for _ in range(20):
        f = fully_entangled_fraction(random_density_matrix(4, rng))
        assert 0.25 - 1e-12 <= f <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# maximality decision


def test_maximal_bell_states():
    assert is_maximally_entangled(pure_density(PSI_MINUS), 1e-6)
    assert is_maximally_entangled(pure_density(PHI_PLUS), 1e-6)


def test_maximal_rejects_product():
    assert not is_maximally_entangled(pure_density(KET00), 1e-6)


def test_maximal_rejects_partially_entangled():
    assert not is_maximally_entangled(pure_density(angle_ket(np.pi / 8)), 1e-6)


def test_maximal_tol_validation():
    with pytest.raises(ValueError):
        is_maximally_entangled(pure_density(PHI_PLUS), 0.5)


def test_maximal_implies_pure_and_balanced():
    # accept only states that are pure with balanced Schmidt coefficients
    rng = np.random.default_rng(68)
    for _ in range(40):
        u = kron(random_unitary(2, rng), random_unitary(2, rng))
        rho = u @ pure_density(PHI_PLUS) @ u.conj().T
        assert is_maximally_entangled(rho, 1e-9)
        purity = float(np.trace(rho @ rho).real)
        assert purity >= 1 - 1e-6
        top = np.linalg.eigh(rho)[1][:, -1]
        coeffs = np.linalg.svd(top.reshape(2, 2), compute_uv=False)
        assert np.allclose(coeffs, [1 / np.sqrt(2)] * 2, atol=1e-4)


# ---------------------------------------------------------------------------
# local-unitary invariance and the report


def test_measures_local_unitary_invariant():
    rng = np.random.default_rng(69)
    rho = random_density_matrix(4, rng)
    base = (
        concurrence(rho),
        entanglement_of_formation(rho),
        fully_entangled_fraction(rho),
    )
    for _ in range(100):
        u = kron(random_unitary(2, rng), random_unitary(2, rng))
        rotated = u @ rho @ u.conj().T
        assert abs(concurrence(rotated) - base[0]) < 1e-9
        assert abs(entanglement_of_formation(rotated) - base[1]) < 1e-9
        assert abs(fully_entangled_fraction(rotated) - base[2]) < 1e-9


def test_report_consistency():
    report = entanglement_report(pure_density(angle_ket(np.pi / 8)))
    c = report.concurrence
    assert abs(report.eof - binary_entropy((1 + np.sqrt(1 - c * c)) / 2)) < 1e-9
    assert abs(report.entropy - report.eof) < 1e-9  # pure state
    assert not report.is_maximal
    report = entanglement_report(pure_density(PHI_PLUS))
    assert report.is_maximal and abs(report.entropy - 1) < 1e-9
