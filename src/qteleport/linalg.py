"""Dense complex linear algebra for small Hilbert spaces (dimension <= 32).

All operators and states in this package are plain numpy arrays of
``complex128`` in row-major order. The helpers here are the substrate for
everything else: Kronecker products, adjoints, partial traces, Hermitian
eigendecompositions and PSD square roots.
"""

import math

import numpy as np

from .errors import DimensionError, NonHermitianError, NotPositiveError

# Relative tolerance for accepting a matrix as Hermitian.
HERMITIAN_RTOL = 1e-8
# Eigenvalues in [-PSD_CLAMP_TOL, 0) are treated as roundoff and clamped to 0;
# anything below is an error, not a silent clamp.
PSD_CLAMP_TOL = 1e-10


def as_operator(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got array of ndim {m.ndim}")
    if not np.isfinite(m).all():  # a complex entry is finite when both parts are
        raise ValueError("matrix has non-finite entries")
    return m


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, left factor on the slower-varying
    index, as complex128.

    One broadcast multiply: the same products, in the same layout, as
    ``np.kron``, without its shape bookkeeping. Raises DimensionError
    unless both factors are matrices.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"kron needs two matrices, got arrays of ndim {a.ndim} and {b.ndim}")
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[:, None, :]).reshape(m * p, n * q)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a), "fro"))


def partial_trace(rho: np.ndarray, dims: list[int], keep) -> np.ndarray:
    """Trace out every subsystem of ``rho`` not listed in ``keep``.

    ``dims`` lists the subsystem dimensions in tensor order (left factor
    first); ``keep`` is a set of subsystem indices. Kept subsystems retain
    their relative order. The trace of the result equals the trace of the
    input.
    """
    rho = as_operator(rho)
    n_sub = len(dims)
    total = math.prod(dims)
    if rho.shape[0] != rho.shape[1]:
        raise DimensionError(f"partial_trace needs a square matrix, got {rho.shape}")
    if rho.shape[0] != total:
        raise DimensionError(
            f"subsystem dims {dims} multiply to {total}, matrix dim is {rho.shape[0]}"
        )
    keep = sorted(set(keep))
    if not keep:
        raise DimensionError("keep-set is empty; at least one subsystem must remain")
    if keep[0] < 0 or keep[-1] >= n_sub:
        raise DimensionError(f"keep indices {keep} out of range for {n_sub} subsystems")

    # View rho as a rank-2n tensor (row indices then column indices) and
    # contract each traced subsystem's row index against its column index.
    t = rho.reshape(dims + dims)
    traced = 0
    for sub in range(n_sub):
        if sub in keep:
            continue
        pos = sub - traced
        n_left = n_sub - traced
        t = t.trace(axis1=pos, axis2=pos + n_left)
        traced += 1
    d_keep = math.prod(dims[k] for k in keep)
    return np.ascontiguousarray(t.reshape(d_keep, d_keep))


def fix_phase(vec: np.ndarray) -> np.ndarray:
    """Rescale a vector so its first amplitude of magnitude > 1e-12 is real positive."""
    v = np.asarray(vec, dtype=np.complex128)
    idx = np.flatnonzero(np.abs(v) > 1e-12)
    if idx.size == 0:
        return v
    pivot = v[idx[0]]
    return v * (abs(pivot) / pivot)


def _column_phases(vecs: np.ndarray) -> np.ndarray:
    """Unit factors making each column's first amplitude of magnitude > 1e-12
    real positive, the rule of ``fix_phase``; every column must have one.
    Array division can round differently from fix_phase's scalar one."""
    pivots = vecs[(np.abs(vecs) > 1e-12).argmax(axis=0), np.arange(vecs.shape[1])]
    return np.abs(pivots) / pivots


def eig_hermitian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix as ``(values, vectors)``,
    like ``np.linalg.eigh``: real values ascending, and orthonormal
    eigenvector columns, each with its first amplitude of magnitude > 1e-12
    made real positive.

    Raises NonHermitianError when the relative Hermiticity defect exceeds
    1e-8. Degenerate eigenspaces come back in an arbitrary orthonormal
    basis; callers must not rely on a particular choice.
    """
    h = as_operator(h)
    if h.shape[0] != h.shape[1]:
        raise DimensionError(f"eigendecomposition needs a square matrix, got {h.shape}")
    scale = frobenius(h)
    defect = frobenius(h - dagger(h)) / scale if scale else 0.0
    if defect > HERMITIAN_RTOL:
        raise NonHermitianError(
            f"matrix is not Hermitian (relative defect {defect:.3e} > {HERMITIAN_RTOL:.0e})"
        )
    vals, vecs = np.linalg.eigh((h + dagger(h)) / 2.0)
    return vals, vecs * _column_phases(vecs)


def psd_sqrt(p: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root: result @ result == p.

    Eigenvalues in [-1e-10, 0) are roundoff and clamp to zero; anything more
    negative raises NotPositiveError. Eigenvalues inside the solver's
    numerical-zero band (dim * eps * max) are snapped to exact zeros so that
    rank-deficient inputs don't leak sqrt(eps)-sized noise into the root.
    """
    vals, v = eig_hermitian(p)
    if vals[0] < -PSD_CLAMP_TOL:
        raise NotPositiveError(
            f"eigenvalue {vals[0]:.3e} below the -{PSD_CLAMP_TOL:.0e} clamp threshold"
        )
    np.clip(vals, 0.0, None, out=vals)
    vals[vals < vals[-1] * vals.size * np.finfo(float).eps] = 0.0
    root = (v * np.sqrt(vals)) @ dagger(v)
    return (root + dagger(root)) / 2.0
