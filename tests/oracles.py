"""Independent reference implementations used as test oracles.

Everything here is written the slow, obvious way (index summation, closed
forms, exhaustive sampling) so it shares no code path with the package, or
is an earlier version of a package function kept verbatim, so that a faster
rewrite can be compared with it bit for bit.
"""

from bisect import bisect_right

import numpy as np

from qteleport.linalg import dagger, kron, partial_trace
from qteleport.optimize import N_ALICE_PARAMS, TOL_F, TOL_X, OptResult


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


def lifted_dilation_apply(dilation, rho) -> np.ndarray:
    """The earlier ``Dilation.apply``: conjugate rho (x) |0><0|_E by the whole
    of u, then trace out the environment."""
    rho = np.asarray(rho, dtype=np.complex128)
    d = dilation.u.shape[0] // dilation.env_dim
    env0 = np.zeros((dilation.env_dim, dilation.env_dim), dtype=np.complex128)
    env0[0, 0] = 1.0
    lifted = dilation.u @ kron(rho, env0) @ dagger(dilation.u)
    return partial_trace(lifted, [d, dilation.env_dim], keep={0})


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


# ---------------------------------------------------------------------------
# The sweep's simplex search and batched objective as they were before the
# search ran over arrays and the receiver factors came from one gather, kept
# verbatim so the package's trajectories and values can be compared with
# them bit for bit.

# Row/column index pairs for the six independent off-diagonal entries of a
# 4x4 Hermitian generator.
_OFF_I, _OFF_J = np.triu_indices(4, 1)
_DIAG = np.arange(4)


def _hermitian_from_params(a: np.ndarray) -> np.ndarray:
    h = np.zeros(a.shape[:-1] + (4, 4), dtype=np.complex128)
    h[..., _DIAG, _DIAG] = a[..., :4]
    off = a[..., 4::2] + 1j * a[..., 5::2]
    h[..., _OFF_I, _OFF_J] = off
    h[..., _OFF_J, _OFF_I] = off.conj()
    return h


def decode_alice_unitary(alice_params) -> np.ndarray:
    """exp(iH) through the eigendecomposition of the Hermitian generator.

    Takes one parameter vector of 16 or a stack of shape (..., 16).
    """
    h = _hermitian_from_params(np.asarray(alice_params, dtype=float))
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def decode_bob_unitaries(bob_params) -> np.ndarray:
    """Axis-angle triples (..., 3) -> 2x2 special unitaries (..., 2, 2), smooth at zero."""
    w = np.asarray(bob_params, dtype=float)
    batch = w.shape[:-1]
    w = w.reshape(-1, 3)
    alpha = np.sqrt((w * w).sum(axis=1))
    half = alpha / 2.0
    # sin(alpha/2)/alpha, continued through alpha = 0
    safe = np.maximum(alpha, 1e-300)
    coeff = np.where(alpha > 1e-12, np.sin(half) / safe, 0.5)
    out = np.empty((len(w), 2, 2), dtype=np.complex128)
    cos = np.cos(half)
    cz = coeff * w[:, 2]
    cx = coeff * w[:, 0]
    cy = coeff * w[:, 1]
    out[:, 0, 0] = cos - 1j * cz
    out[:, 1, 1] = cos + 1j * cz
    out[:, 0, 1] = -cy - 1j * cx
    out[:, 1, 0] = cy - 1j * cx
    return out.reshape(batch + (2, 2))


def receiver_factor(correction) -> np.ndarray:
    """Receiver operator on (B, 2): route B into 2, then correct 2.

    This is kron(I, U) @ SWAP, built by placement: U fills rows 0-1 at
    columns 0, 2 and rows 2-3 at columns 1, 3. Takes one 2x2 U or a stack
    of shape (..., 2, 2).
    """
    u = np.asarray(correction, dtype=np.complex128) + 0.0  # -0.0 (as in -1j) -> 0.0
    out = np.zeros(u.shape[:-2] + (4, 4), dtype=np.complex128)
    out[..., 0:2, 0::2] = u
    out[..., 2:4, 1::2] = u
    return out


def _split_params(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sender unitaries (..., 4, 4) and receiver factors (..., 4, 4, 4) of
    parameter vectors (..., 28).

    The first 16 entries are the coefficients of the Hermitian generator H
    in the orthogonal basis {E_ii; E_ij + E_ji; i(E_ij - E_ji)}: the four
    diagonal ones, then one pair per i < j in row order. The sender measures
    onto the columns of exp(iH). The last 12 are four axis-angle triples w,
    one unitary exp(-i w.sigma/2) per measurement outcome, each routed
    B -> 2 by ``receiver_factor``.
    """
    u = decode_alice_unitary(params[..., :N_ALICE_PARAMS])
    bob = params[..., N_ALICE_PARAMS:].reshape(params.shape[:-1] + (4, 3))
    return u, receiver_factor(decode_bob_unitaries(bob))


def pair_objective_evaluate(self, points, channel_index) -> np.ndarray:
    """Objective of each row of ``points`` (B, 28) on channel
    ``channel_index[b]``; every row equals its own evaluation in a batch
    of one, bit for bit."""
    u, bstack = _split_params(np.asarray(points, dtype=float))
    u_dag = u.conj().swapaxes(-1, -2)

    # axes (state j, channel term k, row b, ...)
    rows = u_dag @ self.v4[:, :, channel_index]     # row i: <c_i| V4
    imgs = bstack @ rows[..., None]
    m = (imgs.reshape(rows.shape[:3] + (4, 2, 2)) @ self._chi_conj).reshape(
        rows.shape[:3] + (1, 8))
    # this product form reproduces np.vdot(m, m) bit for bit; einsum or
    # a sum of squares can differ by one ulp
    terms = self.weights[channel_index].T * (m.conj() @ m.swapaxes(-1, -2))[..., 0, 0].real
    fids = terms[:, 0]
    for k in range(1, terms.shape[1]):
        fids = fids + terms[:, k]
    return np.maximum(np.fmin(np.fmin(1.0, fids[0]), fids[1]), 0.0)


def _simplex_search(init, max_evals, ladder):
    """A ladder of Nelder-Mead simplexes within one budget, as a generator.

    ``ladder`` lists (initial step, budget share) legs; every leg after the
    first restarts from the best point seen so far, and the ladder stops
    early when the budget is gone or the objective has hit its ceiling of 1.
    Yields each (k, n) array of points it needs (an initial simplex,
    k = n + 1; a reflection, expansion or contraction, k = 1; a shrink,
    k = n), receives their k objective values, and returns the OptResult of
    the best leg, with the evaluations of all legs. Ties keep the earlier leg.

    The vertices stay in the order a stable sort of their values gives,
    NaNs last: a step that replaces only the worst vertex inserts its
    successor where that sort would put it, and only the initial simplex
    and a shrink are sorted whole.
    """
    best_params = np.asarray(init, dtype=float).reshape(-1)
    n = best_params.size
    if n < 1:
        raise ValueError("need at least one parameter")
    if max_evals < 1:
        raise ValueError("max_evals must be >= 1")
    # The step direction d = c - w, from the worst vertex w to the centroid
    # c of the others, has ||d|| <= 2 * diameter, so ||d|| >= 4 * TOL_X
    # shows the simplex too wide to converge without measuring it. The
    # second term covers the rounding of c, at most about n * eps * ||c||.
    far_sq = (4.0 * TOL_X) ** 2
    rounding_sq = (4.0 * n * np.finfo(float).eps) ** 2

    remaining = max_evals
    total = 0
    best_objective = None
    for step, share in ladder:
        if remaining <= 0:
            break
        budget = min(remaining, max(1, int(max_evals * share)))
        # Each leg minimizes the negated objective.
        simplex = np.tile(best_params, (n + 1, 1))
        simplex[1:] += np.eye(n) * step
        simplex, values = _sorted(simplex, -np.asarray((yield simplex), dtype=float))
        evals = n + 1

        converged = False
        while evals < budget:
            if values[-1] - values[0] < TOL_F:
                converged = True
                break
            centroid = simplex[:-1].sum(axis=0) / n  # the mean, without its call overhead
            d = centroid - simplex[-1]
            if d.dot(d) < far_sq + rounding_sq * centroid.dot(centroid):
                diff = simplex[1:] - simplex[0]
                if np.sqrt((diff * diff).sum(axis=1).max()) < TOL_X:
                    converged = True
                    break

            reflected = centroid + d
            fr = -float((yield reflected[None])[0])
            evals += 1
            if fr < values[0]:
                expanded = centroid + 2.0 * d
                fe = -float((yield expanded[None])[0])
                evals += 1
                point, f = (expanded, fe) if fe < fr else (reflected, fr)
            elif fr < values[-2]:
                point, f = reflected, fr
            else:
                if fr < values[-1]:
                    point = centroid + 0.5 * (reflected - centroid)
                    f = -float((yield point[None])[0])
                    accept = f <= fr
                else:
                    point = centroid - 0.5 * d  # c + (w - c) / 2, bit for bit
                    f = -float((yield point[None])[0])
                    accept = f < values[-1]
                evals += 1
                if not accept:
                    simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
                    shrunk = -np.asarray((yield simplex[1:]), dtype=float)
                    evals += n
                    simplex, values = _sorted(simplex, np.concatenate(([values[0]], shrunk)))
                    continue

            # Replace the worst vertex: the stable sort puts the newcomer
            # after every value it does not undercut, and ahead of the NaNs.
            del values[-1]
            finite = n
            while finite and values[finite - 1] != values[finite - 1]:
                finite -= 1
            at = bisect_right(values, f, 0, finite) if f == f else n
            values.insert(at, f)
            if at < n:
                simplex[at + 1:] = simplex[at:-1]
            simplex[at] = point

        total += evals
        remaining -= evals
        leg_best = -values[0]  # the sorted order puts the leg's best first, NaNs last
        if best_objective is None or leg_best > best_objective:
            best_params, best_objective = simplex[0].copy(), leg_best
            best_converged = converged
        if best_objective >= 1.0 - 1e-12:
            break
    return OptResult(
        best_params=best_params,
        best_objective=best_objective,
        evaluations=total,
        converged=best_converged,
    )


def _sorted(simplex, values):
    """The vertices and their values (as a list) in stable-sorted order."""
    order = values.argsort(kind="stable")
    return simplex[order], values[order].tolist()


def _lockstep(evaluate, searches) -> list[OptResult]:
    """Step every search together; return their results in order.

    Each round concatenates the points every unfinished search asked for
    into one call ``evaluate(points, owners)``, where ``owners[r]`` is the
    index of the search that asked for row r, and sends each search its
    slice of the values as a list of floats. Every search asks for points
    at least once. When ``evaluate`` scores each row on its own, a search's
    trajectory does not depend on which others share the batch.
    """
    results = [None] * len(searches)
    pending = [(i, search, next(search)) for i, search in enumerate(searches)]
    while pending:
        owners = [i for i, _, points in pending for _ in range(len(points))]
        values = evaluate(np.concatenate([points for _, _, points in pending]), owners).tolist()
        asking, end = [], 0
        for i, search, points in pending:
            start, end = end, end + len(points)
            try:
                asking.append((i, search, search.send(values[start:end])))
            except StopIteration as stop:
                results[i] = stop.value
        pending = asking
    return results


def lockstep_reference(evaluate, inits, max_evals, ladder) -> list[OptResult]:
    """The lockstep above over one ladder per row of ``inits``, called the way
    the package's array-backed ``optimize._lockstep`` is."""
    return _lockstep(evaluate, [_simplex_search(p, max_evals, ladder) for p in inits])


def opt_result_key(result: OptResult) -> tuple:
    """An OptResult as a tuple that compares bit for bit, NaN equal to NaN."""
    objective = result.best_objective
    return (result.best_params.tobytes(), "nan" if objective != objective else objective,
            result.evaluations, result.converged)
