import numpy as np
import pytest

from qteleport.errors import DimensionError, NonHermitianError, NotPositiveError
from qteleport.linalg import (
    as_operator,
    dagger,
    eig_hermitian,
    fix_phase,
    frobenius,
    kron,
    partial_trace,
    psd_sqrt,
)
from qteleport.states import SIGMA_X, SIGMA_Y, SIGMA_Z, density_from_bloch

from oracles import naive_kron, naive_partial_trace, nested_trace, qubit_eigvals_charpoly

I2 = np.eye(2, dtype=complex)


def random_matrix(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def random_hermitian(rng, dim):
    m = random_matrix(rng, dim, dim)
    return (m + m.conj().T) / 2


# ---------------------------------------------------------------------------
# kron


def test_kron_identity():
    assert np.array_equal(kron(I2, I2), np.eye(4))


def test_kron_sigma_z_identity():
    assert np.allclose(kron(SIGMA_Z, I2), np.diag([1, 1, -1, -1]))


def test_kron_flips_both_qubits():
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    ket11 = np.array([0, 0, 0, 1], dtype=complex)
    assert np.allclose(kron(SIGMA_X, SIGMA_X) @ ket00, ket11)


def test_kron_matches_index_formula():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = random_matrix(rng, 3, 2)
        b = random_matrix(rng, 2, 4)
        assert np.allclose(kron(a, b), naive_kron(a, b), atol=1e-13)


def test_kron_trace_multiplicative():
    rng = np.random.default_rng(12)
    for dim in (2, 4):
        a = random_matrix(rng, dim, dim)
        b = random_matrix(rng, dim, dim)
        assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12


def _entries(rng, kind, shape):
    """Random entries of one dtype; negative ones make np.kron's complex
    products carry -0.0 parts."""
    if kind == "int":
        return rng.integers(-3, 4, size=shape)
    if kind == "float":
        return rng.normal(size=shape)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("kind", ["complex", "float", "int"])
@pytest.mark.parametrize(
    "shape_a, shape_b",
    [((1, 3), (1, 2)), ((3, 1), (2, 1)), ((1, 4), (4, 1)), ((3, 2), (2, 4)), ((2, 2), (8, 8))],
)
def test_kron_equals_np_kron_bit_for_bit(kind, shape_a, shape_b):
    rng = np.random.default_rng(18)
    for _ in range(20):
        a, b = _entries(rng, kind, shape_a), _entries(rng, kind, shape_b)
        got = kron(a, b)
        want = np.kron(a.astype(complex), b.astype(complex))
        assert got.dtype == np.complex128 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape_a, shape_b", [((2,), (2, 2)), ((2, 2), (3,)), ((2,), (2,)),
                                              ((2, 2, 2), (2, 2)), ((), (2, 2))])
def test_kron_rejects_non_matrices(shape_a, shape_b):
    with pytest.raises(DimensionError, match="kron needs two matrices"):
        kron(np.ones(shape_a), np.ones(shape_b))


# ---------------------------------------------------------------------------
# dagger


def test_dagger_identity():
    assert np.array_equal(dagger(I2), I2)


def test_dagger_sigma_y_hermitian():
    assert np.array_equal(dagger(SIGMA_Y), SIGMA_Y)


def test_dagger_entrywise_and_involutive():
    rng = np.random.default_rng(14)
    m = random_matrix(rng, 3, 2)
    d = dagger(m)
    for i in range(3):
        for j in range(2):
            assert d[j, i] == np.conj(m[i, j])
    assert np.array_equal(dagger(d), m)


# ---------------------------------------------------------------------------
# partial trace


def test_partial_trace_product_state():
    ket00 = np.zeros(4, dtype=complex)
    ket00[0] = 1
    rho = np.outer(ket00, ket00.conj())
    out = partial_trace(rho, [2, 2], keep={0})
    assert np.allclose(out, np.diag([1, 0]))


def test_partial_trace_bell_gives_mixed():
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(phi, phi.conj())
    assert np.allclose(partial_trace(rho, [2, 2], keep={0}), I2 / 2)


def test_partial_trace_matches_index_summation():
    rng = np.random.default_rng(15)
    m = random_matrix(rng, 8, 8)
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    for keep in ({2}, {0}, {0, 2}, {1, 2}):
        got = partial_trace(rho, [2, 2, 2], keep=keep)
        want = naive_partial_trace(rho, [2, 2, 2], keep=keep)
        assert np.allclose(got, want, atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(16)
    m = random_matrix(rng, 12, 12)
    rho = m @ m.conj().T
    out = partial_trace(rho, [3, 2, 2], keep={1})
    assert abs(np.trace(out) - np.trace(rho)) < 1e-12


def test_partial_trace_sequential_equals_joint():
    rng = np.random.default_rng(17)
    m = random_matrix(rng, 16, 16)
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    joint = partial_trace(rho, [2, 2, 2, 2], keep={1})
    step1 = partial_trace(rho, [2, 2, 2, 2], keep={0, 1, 3})
    step2 = partial_trace(step1, [2, 2, 2], keep={1})
    assert np.allclose(step2, joint, atol=1e-12)
    # and in another elimination order
    alt1 = partial_trace(rho, [2, 2, 2, 2], keep={1, 2, 3})
    alt2 = partial_trace(alt1, [2, 2, 2], keep={0, 2})
    alt3 = partial_trace(alt2, [2, 2], keep={0})
    assert np.allclose(alt3, joint, atol=1e-12)


def _keep_sets(n):
    return [{k for k in range(n) if mask >> k & 1} for mask in range(1, 1 << n)]


@pytest.mark.parametrize("dims", [[2, 2, 2, 2], [2, 4], [4, 2], [2, 8]])
def test_partial_trace_equals_nested_np_trace_bit_for_bit(dims):
    # the elimination order sets the rounding; [2, 2, 2, 2] shows a reordered one
    rng = np.random.default_rng(19)
    d = int(np.prod(dims))
    for _ in range(10):
        rho = random_matrix(rng, d, d)
        for keep in _keep_sets(len(dims)):
            got = partial_trace(rho, dims, keep)
            assert got.tobytes() == nested_trace(rho, dims, keep).tobytes(), keep


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1, np.nan),
                                 complex(1, np.inf), complex(np.nan, 1)],
                         ids=["nan", "inf", "-inf", "1+nanj", "1+infj", "nan+1j"])
def test_non_finite_entries_are_rejected(bad):
    rho = np.eye(4, dtype=complex) / 4
    rho[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        as_operator(rho)
    with pytest.raises(ValueError, match="non-finite"):
        partial_trace(rho, [2, 2], keep={0})


def test_partial_trace_rejects_bad_dims():
    rho = np.eye(6, dtype=complex) / 6
    with pytest.raises(DimensionError):
        partial_trace(rho, [2, 2], keep={0})


def test_partial_trace_rejects_empty_keep():
    rho = np.eye(4, dtype=complex) / 4
    with pytest.raises(DimensionError):
        partial_trace(rho, [2, 2], keep=set())


# ---------------------------------------------------------------------------
# Hermitian eigendecomposition


def test_eig_sigma_z():
    vals, _ = eig_hermitian(SIGMA_Z)
    assert np.allclose(vals, [-1, 1])


def test_eig_identity4():
    vals, _ = eig_hermitian(np.eye(4, dtype=complex))
    assert np.allclose(vals, np.ones(4))


def test_eig_bloch_half_x():
    rho = density_from_bloch([0.5, 0, 0])
    vals, _ = eig_hermitian(rho)
    assert np.allclose(vals, qubit_eigvals_charpoly(rho), atol=1e-12)
    assert np.allclose(vals, [0.25, 0.75])


def test_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(18)
    for dim in (2, 4, 8):
        for _ in range(40):
            h = random_hermitian(rng, dim)
            vals, v = eig_hermitian(h)
            assert np.all(np.diff(vals) >= -1e-12)
            assert frobenius(v.conj().T @ v - np.eye(dim)) < 1e-10
            rebuilt = (v * vals) @ v.conj().T
            assert frobenius(rebuilt - h) < 1e-10 * max(1.0, frobenius(h))


def test_eig_phases_equal_the_per_column_fix_phase_loop_bit_for_bit():
    # the per-column fix_phase loop is the reference; zeroed leading rows
    # move the pivot below the first entry
    rng = np.random.default_rng(19)
    for dim in (2, 4, 8):
        for trial in range(60):
            h = random_hermitian(rng, dim)
            zeroed = trial % dim
            h[:zeroed], h[:, :zeroed] = 0.0, 0.0
            vecs = np.linalg.eigh((h + dagger(h)) / 2.0)[1]
            loop = np.column_stack([fix_phase(vecs[:, k]) for k in range(dim)])
            assert eig_hermitian(h)[1].tobytes() == loop.tobytes()


def test_eig_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


# ---------------------------------------------------------------------------
# PSD square root


def test_psd_sqrt_identity():
    assert np.allclose(psd_sqrt(np.eye(3, dtype=complex)), np.eye(3))


def test_psd_sqrt_diagonal():
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0]).astype(complex)), np.diag([2.0, 3.0]))


def test_psd_sqrt_scaled_identity():
    assert np.allclose(psd_sqrt(I2 / 2), np.diag([1 / np.sqrt(2)] * 2))


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(19)
    for dim in (2, 4, 8):
        m = random_matrix(rng, dim, dim)
        p = m @ m.conj().T
        p /= np.trace(p).real
        root = psd_sqrt(p)
        assert frobenius(root @ root - p) < 1e-9
        assert frobenius(root - dagger(root)) < 1e-12


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPositiveError):
        psd_sqrt(np.diag([1.0, -1e-6]).astype(complex))
