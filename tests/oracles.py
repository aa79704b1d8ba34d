"""Independent reference implementations used as test oracles.

Everything here is written the slow, obvious way (index summation, closed
forms, exhaustive sampling) so it shares no code path with the package.
"""

import numpy as np


def naive_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product by the index formula, no numpy.kron."""
    (m, n), (p, q) = a.shape, b.shape
    out = np.zeros((m * p, n * q), dtype=complex)
    for i in range(m):
        for j in range(n):
            for k in range(p):
                for l in range(q):
                    out[i * p + k, j * q + l] = a[i, j] * b[k, l]
    return out


def naive_partial_trace(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace by explicit summation over multi-indices."""
    keep = sorted(set(keep))
    traced = [i for i in range(len(dims)) if i not in keep]
    d_keep = int(np.prod([dims[k] for k in keep]))
    out = np.zeros((d_keep, d_keep), dtype=complex)

    def flat(multi):
        idx = 0
        for d, m in zip(dims, multi):
            idx = idx * d + m
        return idx

    def kept_flat(multi):
        idx = 0
        for k in keep:
            idx = idx * dims[k] + multi[k]
        return idx

    n = len(dims)
    multis = [[]]
    for d in dims:
        multis = [m + [v] for m in multis for v in range(d)]
    for row in multis:
        for col in multis:
            if all(row[t] == col[t] for t in traced):
                out[kept_flat(row), kept_flat(col)] += rho[flat(row), flat(col)]
    return out


def qubit_eigvals_charpoly(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 2x2 Hermitian matrix from its characteristic polynomial."""
    tr = float(np.trace(rho).real)
    det = float(np.linalg.det(rho).real)
    disc = np.sqrt(max(tr * tr - 4.0 * det, 0.0))
    return np.array([(tr - disc) / 2.0, (tr + disc) / 2.0])


def uhlmann_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 as the squared nuclear norm of
    sqrt(sigma) sqrt(rho), for states of any dimension.

    Eigenvalues below dim * eps * max are zeroed before the square roots, so
    a rank-deficient state adds no sqrt(eps)-sized singular values.
    """

    def root(m):
        vals, vecs = np.linalg.eigh(m)
        vals = np.clip(vals, 0.0, None)
        vals[vals < vals[-1] * vals.size * np.finfo(float).eps] = 0.0
        return (vecs * np.sqrt(vals)) @ vecs.conj().T

    return float(np.sum(np.linalg.svd(root(sigma) @ root(rho), compute_uv=False)) ** 2)


def chord_sphere_points(r1, r2):
    """Both unit-sphere intersections of the line through r1 and r2.

    Solved with numpy's polynomial root finder rather than the quadratic
    formula, returned as (far, near) along the r1 -> r2 direction.
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    d = r2 - r1
    coeffs = [d @ d, 2.0 * (r1 @ d), r1 @ r1 - 1.0]
    roots = sorted(np.roots(coeffs).real)
    lo, hi = roots
    return r1 + hi * d, r1 + lo * d


def bloch_of(rho: np.ndarray) -> np.ndarray:
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return np.array([np.trace(rho @ s).real for s in (sx, sy, sz)])


def pure_concurrence_from_schmidt(psi: np.ndarray) -> float:
    """C = 2 c1 c2 from the singular values of the 2x2 amplitude matrix."""
    c = np.linalg.svd(psi.reshape(2, 2), compute_uv=False)
    return float(2.0 * c[0] * c[1])


def fef_sampling(rho: np.ndarray, n_samples: int, seed: int = 0) -> float:
    """Lower bound on the fully entangled fraction by dense sampling.

    Maximally entangled states are exactly (U (x) V)|phi+>, so sampling
    local unitaries explores the whole family.
    """
    rng = np.random.default_rng(seed)
    phi_plus = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    best = 0.0

    def haar_u2():
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(g)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    for _ in range(n_samples):
        e = np.kron(haar_u2(), haar_u2()) @ phi_plus
        best = max(best, float(np.real(np.vdot(e, rho @ e))))
    return best


def wootters_concurrence_eigvals(rho: np.ndarray) -> float:
    """Concurrence via the non-Hermitian product rho rho~, general eigvals."""
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    yy = np.kron(sy, sy)
    product = rho @ yy @ rho.conj() @ yy
    mu = np.sqrt(np.abs(np.sort(np.linalg.eigvals(product).real)[::-1]))
    return float(max(0.0, mu[0] - mu[1] - mu[2] - mu[3]))


def haar_average_fidelity(theta: float) -> float:
    """Closed form (2 + sin 2 theta) / 3 for the Bell protocol on the
    cos/sin resource, from integrating (pc+qs)^2 + (ps+qc)^2 over p~U[0,1]."""
    return (2.0 + np.sin(2.0 * theta)) / 3.0


def random_bloch_in_ball(rng: np.random.Generator, max_radius: float = 1.0) -> np.ndarray:
    while True:
        r = rng.uniform(-1.0, 1.0, 3)
        if np.linalg.norm(r) < max_radius:
            return r
