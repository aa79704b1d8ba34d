"""Qubit states, Bloch geometry, and the chord decomposition of a
noncommuting pair.

A qubit density matrix is identified with its Bloch vector r through
rho = (I + r.sigma)/2. Two qubits commute exactly when their Bloch vectors
are parallel, so for a noncommuting pair the line through r1 and r2 meets
the unit sphere in exactly two points. The pure states sitting at those
two points are the unique non-orthogonal pair through which both inputs
decompose as binary convex mixtures with distinct weights; that
decomposition is what `extreme_decomposition` returns.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CommutingInputError, DegenerateChordError, DimensionError, NotPositiveError
from .linalg import PSD_CLAMP_TOL, dagger, fix_phase, frobenius

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

STATE_ATOL = 1e-10
# Frobenius commutator norms below this count as commuting; near-parallel
# Bloch vectors make the chord geometry ill-conditioned.
COMMUTING_TOL = 1e-8
ORTHOGONAL_TOL = 1e-8
_DET_BAND = 2.0 * np.finfo(float).eps
# How far a 2x2 must clear every threshold of `check_density_matrix` to be
# accepted in closed form; far above the ~1e-15 the closed forms can be off.
_CERTIFY_MARGIN = 1e-12


def _check_entries(a: np.ndarray, what: str) -> None:
    """Reject non-finite entries, and real or imaginary parts above 2 in
    magnitude, in one pass over the parts.

    No valid amplitude, Bloch component or density-matrix entry comes near
    2, so the bound rejects only input the later checks reject too; it keeps
    their norms from overflowing, and nearly valid input still gets the
    message that names its fault.
    """
    peak = np.abs(np.ascontiguousarray(a).view(float)).max(initial=0.0)
    if not peak <= 2.0:  # NaN fails this comparison too
        if not np.isfinite(peak):
            raise ValueError(f"{what} has non-finite entries")
        raise ValueError(f"{what} has an entry of magnitude above 2")


def check_pure_state(psi, dim: int | None = None) -> np.ndarray:
    """Validate a unit-norm state vector and return it as complex128."""
    v = np.asarray(psi, dtype=np.complex128).reshape(-1)
    if dim is not None and v.size != dim:
        raise DimensionError(f"expected a state of dim {dim}, got {v.size}")
    _check_entries(v, "state vector")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > STATE_ATOL:
        raise ValueError(f"state vector norm {norm:.12g} is not 1 within {STATE_ATOL:.0e}")
    return v


def check_nonorthogonal_pair(chi1, chi2) -> tuple[np.ndarray, np.ndarray]:
    """Validate two qubit kets; reject them if |<chi1|chi2>| <= ORTHOGONAL_TOL."""
    v1, v2 = check_pure_state(chi1, dim=2), check_pure_state(chi2, dim=2)
    overlap = abs(np.vdot(v1, v2))
    if overlap <= ORTHOGONAL_TOL:
        raise ValueError(f"state pair must be non-orthogonal (|<chi1|chi2>| = {overlap:.3e})")
    return v1, v2


def _clearly_valid_qubit(m: np.ndarray) -> bool:
    """True when the 2x2 ``m`` passes each check of `check_density_matrix`
    by at least _CERTIFY_MARGIN, judged from closed forms on its entries.

    Every entry must have modulus at most 2 - margin, which bounds each real
    and imaginary part as `_check_entries` does; NaN and inf fail it. With
    entries that small, the Hermiticity defect
    sqrt(4 Im(a)^2 + 4 Im(d)^2 + 2 |b - conj(c)|^2), the trace and the lowest
    eigenvalue of the Hermitian part stay within about 1e-15 of the values
    the general checks compute, so True is their verdict too. False decides
    nothing: the general checks run and alone raise.
    """
    (a, b), (c, d) = m.tolist()
    bound = 2.0 - _CERTIFY_MARGIN
    if not (abs(a) <= bound and abs(b) <= bound and abs(c) <= bound and abs(d) <= bound):
        return False
    skew, off = b - c.conjugate(), b + c.conjugate()
    defect = math.sqrt(4.0 * (a.imag * a.imag + d.imag * d.imag) + 2.0 * abs(skew) ** 2)
    tr = a.real + d.real
    lowest = tr / 2.0 - math.hypot((a.real - d.real) / 2.0, abs(off) / 2.0)
    tol = STATE_ATOL - _CERTIFY_MARGIN
    return defect <= tol and abs(tr - 1.0) <= tol and lowest >= _CERTIFY_MARGIN - PSD_CLAMP_TOL


def check_density_matrix(rho, dim: int | None = None) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity; return complex128.

    A 2x2 that clearly passes is accepted in closed form
    (`_clearly_valid_qubit`); every other input takes the general checks.
    """
    m = np.asarray(rho, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"density matrix must be square, got shape {m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise DimensionError(f"expected dim {dim}, got {m.shape[0]}")
    if m.shape[0] == 2 and _clearly_valid_qubit(m):
        return m
    _check_entries(m, "matrix")
    adjoint = m.conj().T
    if frobenius(m - adjoint) > STATE_ATOL:
        raise ValueError("density matrix is not Hermitian within 1e-10")
    tr = float(m.trace().real)
    if abs(tr - 1.0) > STATE_ATOL:
        raise ValueError(f"density matrix trace {tr:.12g} is not 1 within {STATE_ATOL:.0e}")
    # Hermiticity is settled above, so the eigenvalues alone decide positivity.
    lowest = np.linalg.eigvalsh((m + adjoint) / 2.0)[0]
    if lowest < -PSD_CLAMP_TOL:
        raise NotPositiveError(
            f"eigenvalue {lowest:.3e} below the -{PSD_CLAMP_TOL:.0e} clamp threshold"
        )
    return m


def pure_density(psi) -> np.ndarray:
    """|psi><psi| for a unit vector."""
    v = check_pure_state(psi)
    return np.outer(v, v.conj())


def bloch_from_density(rho) -> np.ndarray:
    """Bloch vector r_k = Tr(rho sigma_k) of a qubit density matrix."""
    return _bloch(check_density_matrix(rho, dim=2))


def _bloch(m: np.ndarray) -> np.ndarray:
    """bloch_from_density for an already-checked 2x2 complex128 array."""
    return np.array([np.trace(m @ s).real for s in PAULIS])


def density_from_bloch(r) -> np.ndarray:
    """rho = (I + r.sigma)/2 for a Bloch vector inside the unit ball."""
    if np.iscomplexobj(r):
        raise ValueError("Bloch vector must be real")
    r = np.asarray(r, dtype=float).reshape(-1)
    if r.size != 3:
        raise DimensionError(f"Bloch vector needs 3 components, got {r.size}")
    _check_entries(r, "Bloch vector")
    norm = float(np.linalg.norm(r))
    if norm > 1.0 + STATE_ATOL:
        raise ValueError(f"Bloch vector norm {norm:.12g} lies outside the unit ball")
    rho = np.eye(2, dtype=complex)
    for ri, s in zip(r, PAULIS):
        rho = rho + ri * s
    return rho / 2.0


def pure_state_from_bloch(r) -> np.ndarray:
    """Unit-sphere Bloch vector -> state vector, phase-fixed."""
    if np.iscomplexobj(r):
        raise ValueError("Bloch vector must be real")
    r = np.asarray(r, dtype=float)
    if abs(np.linalg.norm(r) - 1.0) > 1e-9:
        raise ValueError("Bloch vector must lie on the unit sphere for a pure state")
    # Eigenvector of r.sigma with eigenvalue +1, written in half angles.
    theta = np.arccos(np.clip(r[2], -1.0, 1.0))
    phi = np.arctan2(r[1], r[0])
    v = np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])
    return fix_phase(v)


def commutator_norm(rho1, rho2) -> float:
    """Frobenius norm of [rho1, rho2]; zero exactly for commuting states.

    For qubits this equals |r1 x r2| / sqrt(2) in Bloch coordinates.
    """
    a = np.asarray(rho1, dtype=np.complex128)
    b = np.asarray(rho2, dtype=np.complex128)
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return frobenius(a @ b - b @ a)


@dataclass(frozen=True)
class ExtremeDecomposition:
    """Shared two-state convex decomposition of a noncommuting qubit pair.

    rho_j = lam_j |psi><psi| + (1 - lam_j) |phi><phi| for j in {1, 2},
    with psi and phi non-orthogonal pure qubits and lam1 != lam2.
    ``boundary`` is True when at least one input was itself pure, in which
    case that input sits at a chord endpoint and its weight is 0 or 1.
    """

    psi: np.ndarray
    phi: np.ndarray
    lam1: float
    lam2: float
    boundary: bool

    def overlap(self) -> float:
        return float(abs(np.vdot(self.psi, self.phi)))

    def reconstruct(self, which: int) -> np.ndarray:
        lam = {1: self.lam1, 2: self.lam2}[which]
        return lam * np.outer(self.psi, self.psi.conj()) + (1.0 - lam) * np.outer(
            self.phi, self.phi.conj()
        )


def _chord_weight(r: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Solve r = lam*u + (1-lam)*v, checking consistency across coordinates."""
    d = u - v
    length_sq = float(d @ d)
    if length_sq == 0.0:
        raise DegenerateChordError("states too close: their chord's sphere points coincide")
    lam = float((r - v) @ d / length_sq)
    residual = np.max(np.abs(r - (lam * u + (1.0 - lam) * v)))
    if not residual <= 1e-10:  # a NaN residual fails too
        raise DegenerateChordError(
            f"chord weight inconsistent across coordinates (residual {residual:.3e})"
        )
    return lam


def extreme_decomposition(rho1, rho2) -> ExtremeDecomposition:
    """Decompose a noncommuting qubit pair through its two chord states.

    Geometry: the line through the Bloch vectors r1, r2 pierces the unit
    sphere where |r1 + t (r2 - r1)|^2 = 1; the two quadratic roots give the
    pure states psi (larger t, i.e. the far intersection along r1 -> r2)
    and phi (smaller t). The weights lam_j place each rho_j on that chord.

    Raises CommutingInputError when the commutator norm is at most 1e-8.
    That covers coinciding states too: the norm is
    |r1 x r2| / sqrt(2) <= |r2 - r1| / sqrt(2), so the chord direction of
    an accepted pair is longer than 1e-8, though rounding can still merge the
    sphere points of nearly coincident pure states (DegenerateChordError).
    """
    m1 = check_density_matrix(rho1, dim=2)
    m2 = check_density_matrix(rho2, dim=2)
    cnorm = commutator_norm(m1, m2)
    if cnorm <= COMMUTING_TOL:
        raise CommutingInputError(
            f"inputs commute within tolerance (commutator norm {cnorm:.3e} <= "
            f"{COMMUTING_TOL:.0e}); the two-state decomposition is not unique",
            commutator_norm=cnorm,
        )
    r1 = _bloch(m1)
    r2 = _bloch(m2)
    d = r2 - r1

    # |r1 + t d|^2 = 1, guaranteed to have two real roots since r1 is inside
    # (or on) the unit ball and d is nonzero.
    a = float(d @ d)
    b = 2.0 * float(r1 @ d)
    c = float(r1 @ r1) - 1.0
    disc = b * b - 4.0 * a * c
    sq = np.sqrt(max(disc, 0.0))
    t_hi = (-b + sq) / (2.0 * a)
    t_lo = (-b - sq) / (2.0 * a)

    u = r1 + t_hi * d
    v = r1 + t_lo * d
    # Project exactly onto the sphere to keep the pure-state constructor happy.
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)

    psi = pure_state_from_bloch(u)
    phi = pure_state_from_bloch(v)
    lam1 = _chord_weight(r1, u, v)
    lam2 = _chord_weight(r2, u, v)
    purity1 = float(np.trace(m1 @ m1).real)
    purity2 = float(np.trace(m2 @ m2).real)
    boundary = purity1 > 1.0 - 1e-12 or purity2 > 1.0 - 1e-12
    return ExtremeDecomposition(psi=psi, phi=phi, lam1=lam1, lam2=lam2, boundary=boundary)


def haar_random_pure(dim: int, seed) -> np.ndarray:
    """Haar-distributed pure state of the given dimension, phase-fixed.

    ``seed`` may be an int or a numpy SeedSequence/Generator; equal seeds
    give identical states.
    """
    if dim < 1:
        raise DimensionError(f"dimension must be >= 1, got {dim}")
    v = _gaussian_draw(dim, seed)
    return fix_phase(v / np.linalg.norm(v))


def _gaussian_draw(dim: int, seed) -> np.ndarray:
    """The Haar draw before normalization: a standard complex Gaussian
    vector from ``default_rng(seed)``, real parts drawn first."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=dim) + 1j * rng.normal(size=dim)


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density_matrix(dim: int, seed, rank: int | None = None) -> np.ndarray:
    """Random mixed state from a normalized Ginibre product G G^dagger."""
    if rank is None:
        rank = dim
    if not 1 <= rank <= dim:
        raise DimensionError(f"rank must be in [1, {dim}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def state_fidelity(rho, sigma) -> float:
    """Uhlmann fidelity of two qubit states, F = Tr(rho sigma) + 2 sqrt(det rho det sigma).

    For 2x2 states this closed form equals (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2
    (Jozsa, J. Mod. Opt. 41, 2315 (1994)). Both arguments are checked as
    qubit density matrices; `qubit_fidelity` is the unchecked core.
    """
    return qubit_fidelity(check_density_matrix(rho, dim=2), check_density_matrix(sigma, dim=2))


def qubit_fidelity(rho, sigma) -> float:
    """state_fidelity for already-checked 2x2 arrays, returned as a Python float.

    A determinant inside the roundoff band det <= 2 eps tr^2, the qubit form
    of the zero band psd_sqrt applies, counts as 0. So for a pure argument
    |psi><psi| F is exactly <psi|sigma|psi>.
    """
    (a, b), (c, d) = rho.tolist()
    (e, f), (g, h) = sigma.tolist()
    fidelity = (a * e + b * g + c * f + d * h).real
    det_rho, det_sigma = (a * d - b * c).real, (e * h - f * g).real
    if det_rho > _DET_BAND * (a + d).real ** 2 and det_sigma > _DET_BAND * (e + h).real ** 2:
        fidelity += 2.0 * math.sqrt(det_rho * det_sigma)
    return min(fidelity, 1.0 + 1e-10)
