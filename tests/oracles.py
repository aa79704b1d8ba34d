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


def nested_trace(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace as a chain of np.trace calls, one per traced subsystem
    from the left, on the rank-2n tensor view of ``rho``."""
    dims = list(dims)
    t = np.asarray(rho).reshape(dims + dims)
    pos, n_left = 0, len(dims)  # axis of subsystem `sub`; subsystems left
    for sub in range(len(dims)):
        if sub in keep:
            pos += 1
        else:
            t = np.trace(t, axis1=pos, axis2=pos + n_left)
            n_left -= 1
    d_keep = int(np.prod([dims[k] for k in sorted(keep)]))
    return t.reshape(d_keep, d_keep)


def kraus_loop(kraus, rho: np.ndarray) -> np.ndarray:
    """sum_i K_i rho K_i^dagger, one operator at a time, from a zero matrix."""
    out = np.zeros(rho.shape, dtype=complex)
    for k in kraus:
        out += k @ rho @ k.conj().T
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


def _particle2_output(kraus, joint: np.ndarray) -> np.ndarray:
    """Apply the joint Kraus operators to a (1, A, B, 2) operator and trace
    out (1, A, B) by reshaping to eight qubit indices."""
    evolved = sum(k @ joint @ k.conj().T for k in kraus)
    return np.einsum("ijkaijkb->ab", evolved.reshape([2] * 8))


def haar_draw(seed) -> np.ndarray:
    """Normalized complex Gaussian 2-vector from default_rng(seed), real
    parts first; its global phase is left as drawn."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def haar_sample_fidelities(protocol, channel: np.ndarray, samples: int, seed) -> np.ndarray:
    """Per-sample fidelities of the Monte Carlo average, one full 16x16 run each.

    Sample k is drawn from the k-th spawn of SeedSequence(seed) as a
    normalized complex Gaussian 2-vector (real parts first). Its global
    phase does not change the fidelity, so no phase convention is needed.
    """
    out = []
    for child in np.random.SeedSequence(seed).spawn(samples):
        chi = haar_draw(child)
        reduced = _particle2_output(protocol.kraus, np.kron(np.outer(chi, chi.conj()), channel))
        out.append(float(np.real(chi.conj() @ reduced @ chi)))
    return np.array(out)


def monte_carlo_average_fidelity_reference(protocol, channel: np.ndarray, samples: int,
                                           seed) -> float:
    """The per-sample loop: mean of `haar_sample_fidelities`."""
    return float(np.mean(haar_sample_fidelities(protocol, channel, samples, seed)))


def exact_average_fidelity(protocol, channel: np.ndarray) -> float:
    """Haar-average fidelity (2 F_e + 1) / 3 of the input-to-output qubit map.

    F_e = 1/4 sum_ij <i| L(|i><j|) |j> is the entanglement fidelity, from
    four Kraus applications (Horodecki et al., PRA 60, 1888 (1999)).
    """
    basis = np.eye(2, dtype=complex)
    f_e = sum(
        _particle2_output(protocol.kraus, np.kron(np.outer(basis[i], basis[j]), channel))[i, j]
        for i in range(2)
        for j in range(2)
    ) / 4.0
    return float((2.0 * f_e.real + 1.0) / 3.0)


def random_bloch_in_ball(rng: np.random.Generator, max_radius: float = 1.0) -> np.ndarray:
    while True:
        r = rng.uniform(-1.0, 1.0, 3)
        if np.linalg.norm(r) < max_radius:
            return r


def general_density_check(rho, dim=None) -> np.ndarray:
    """`states.check_density_matrix` as it was before 2x2 inputs got a
    closed-form certificate: the general checks alone, kept verbatim (with
    the helpers it calls) so the package's verdicts can be compared with it."""
    from qteleport.errors import DimensionError, NotPositiveError

    STATE_ATOL, PSD_CLAMP_TOL = 1e-10, 1e-10

    def frobenius(a):
        return float(np.linalg.norm(np.asarray(a), "fro"))

    def _check_entries(a, what):
        peak = np.abs(np.ascontiguousarray(a).view(float)).max(initial=0.0)
        if not peak <= 2.0:  # NaN fails this comparison too
            if not np.isfinite(peak):
                raise ValueError(f"{what} has non-finite entries")
            raise ValueError(f"{what} has an entry of magnitude above 2")

    m = np.asarray(rho, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"density matrix must be square, got shape {m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise DimensionError(f"expected dim {dim}, got {m.shape[0]}")
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
