"""Bipartite entanglement measures for the resource shared by the parties.

The decision this module exists for: does a two-qubit resource carry one
full ebit? Operationally we take entanglement of formation >= 1 - tol,
which in 2x2 forces a maximally entangled pure state. Schmidt data,
entropy of entanglement, Wootters concurrence and the fully entangled
fraction are all exposed because the sweep and the reports use them.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import _column_phases, dagger, eig_hermitian, psd_sqrt
from .states import SIGMA_Y, check_density_matrix, check_pure_state

DEFAULT_MAXIMAL_TOL = 1e-6

# Magic basis: the set of maximally entangled two-qubit states is exactly
# the real unit span of these four vectors, up to a global phase.
_MAGIC_BASIS = np.array(
    [
        [1, 0, 0, 1],            # |00> + |11>
        [1j, 0, 0, -1j],         # i(|00> - |11>)
        [0, 1j, 1j, 0],          # i(|01> + |10>)
        [0, 1, -1, 0],           # |01> - |10>
    ],
    dtype=np.complex128,
).T / np.sqrt(2.0)

_YY = np.kron(SIGMA_Y, SIGMA_Y)


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x), with h(0) = h(1) = 0."""
    x = float(x)
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


@dataclass(frozen=True)
class SchmidtDecomposition:
    """psi = sum_k c_k |l_k> (x) |r_k| with c_k >= 0 descending."""

    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray

    def reconstruct(self) -> np.ndarray:
        terms = [
            c * np.kron(self.left_basis[:, k], self.right_basis[:, k])
            for k, c in enumerate(self.coefficients)
        ]
        return np.sum(terms, axis=0)


def schmidt(psi, dims: tuple[int, int]) -> SchmidtDecomposition:
    """Schmidt decomposition across the (dA, dB) split, via SVD."""
    da, db = dims
    v = check_pure_state(psi, dim=da * db)
    m = v.reshape(da, db)
    left, coeffs, right_h = np.linalg.svd(m)
    k = min(da, db)
    phases = _column_phases(left[:, :k])
    # the right factor takes the conjugate phase, so each product is unchanged
    return SchmidtDecomposition(
        coefficients=coeffs[:k],
        left_basis=left[:, :k] * phases,
        right_basis=right_h[:k].T * phases.conj(),
    )


def entropy_of_entanglement(psi, dims: tuple[int, int]) -> float:
    """Shannon entropy (bits) of the squared Schmidt coefficients.

    Clamped at 0.0: a coefficient rounded just above 1 would otherwise make
    a product state's entropy slightly negative, or -0.0.
    """
    coeffs = schmidt(psi, dims).coefficients
    probs = coeffs**2
    probs = probs[probs > 1e-15]
    return max(0.0, float(-np.sum(probs * np.log2(probs))))


def concurrence(rho) -> float:
    """Wootters concurrence of a two-qubit state.

    C = max(0, m1 - m2 - m3 - m4) where the m_k are the descending square
    roots of the eigenvalues of rho (sy(x)sy) rho* (sy(x)sy), conjugation
    entrywise in the computational basis (Wootters, PRL 80, 2245 (1998)).
    They are the singular values of sqrt(rho) (sy(x)sy) sqrt(rho)*, so one
    square root and one SVD give them.
    """
    root = psd_sqrt(check_density_matrix(rho, dim=4))
    m = np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)
    return float(max(0.0, m[0] - m[1] - m[2] - m[3]))


def _eof_from_concurrence(c: float) -> float:
    return binary_entropy((1.0 + np.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


def entanglement_of_formation(rho) -> float:
    """EoF in bits from the concurrence, h((1 + sqrt(1 - C^2)) / 2)."""
    return _eof_from_concurrence(concurrence(rho))


def fully_entangled_fraction(rho) -> float:
    """Largest overlap of rho with any maximally entangled two-qubit state.

    In the magic basis the maximally entangled states are the real unit
    vectors, so the maximum of <e|rho|e> is the top eigenvalue of the real
    part of rho expressed in that basis.
    """
    m = check_density_matrix(rho, dim=4)
    in_magic = dagger(_MAGIC_BASIS) @ m @ _MAGIC_BASIS
    sym = (in_magic.real + in_magic.real.T) / 2.0
    return float(np.linalg.eigvalsh(sym)[-1])


def check_tol(tol: float) -> None:
    """Raise ValueError unless a maximality or exactness tolerance lies in (0, 0.1)."""
    if not 0.0 < tol < 0.1:
        raise ValueError(f"tol must lie in (0, 0.1), got {tol}")


def is_maximally_entangled(rho, tol: float = DEFAULT_MAXIMAL_TOL) -> bool:
    """Does the state hold one ebit, up to tol, by entanglement of formation?"""
    check_tol(tol)
    return entanglement_of_formation(rho) >= 1.0 - tol


@dataclass(frozen=True)
class EntanglementReport:
    """All the two-qubit measures in one place, plus the ebit verdict."""

    entropy: float
    concurrence: float
    eof: float
    fef: float
    is_maximal: bool


def entanglement_report(rho, tol: float = DEFAULT_MAXIMAL_TOL) -> EntanglementReport:
    """Assemble the measures for a two-qubit density matrix.

    For a (numerically) pure input the entropy field is the entropy of
    entanglement of its dominant eigenvector; for mixed inputs it falls
    back to the entanglement of formation, which the pure case equals
    anyway.
    """
    check_tol(tol)
    m = check_density_matrix(rho, dim=4)
    c = concurrence(m)
    eof = _eof_from_concurrence(c)
    purity = float(np.trace(m @ m).real)
    if purity >= 1.0 - 1e-10:
        top = eig_hermitian(m)[1][:, -1]
        entropy = entropy_of_entanglement(top, (2, 2))
    else:
        entropy = eof
    return EntanglementReport(
        entropy=entropy,
        concurrence=c,
        eof=eof,
        fef=fully_entangled_fraction(m),
        is_maximal=eof >= 1.0 - tol,
    )
