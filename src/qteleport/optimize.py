"""Derivative-free search over a one-round protocol family, swept against
channel entanglement.

The family: the sender performs a complete orthogonal measurement on
particles (1, A) — rank-1 projectors onto the columns of a 4x4 unitary
decoded from a Hermitian generator — and the receiver, conditioned on the
outcome, routes B into 2 and applies an outcome-indexed single-qubit
unitary (axis-angle encoded). This contains the standard Bell-measurement
protocol and always satisfies the completeness condition by construction.
A member of the family is a float vector of shape (28,); ``_split_params``
documents the layout.
It is one round of LOCC, not the full separable-pair class, so sweep
numbers are lower bounds achieved by explicit protocols rather than upper
bounds over all protocols.

The headline use: fix a non-orthogonal state pair, sweep the resource
angle, and watch the best worst-case fidelity reach 1 only where the
resource is maximally entangled.

The sweep steps every start of every angle in lockstep. Each start's
restart ladder is a generator that yields the points its simplex needs
next; one scheduler gathers the pending points of all unfinished starts
into a single batched objective call per round, each row tagged with its
angle, and sends each start its slice of the values. The batched kernel
scores each row as it would in a batch of one, bit for bit, so every start
follows the trajectory it would follow alone.
"""

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .channels import LocalKrausProtocol, angle_channel, entangled_pair_ket
from .entanglement import entropy_of_entanglement
from .errors import DimensionError
from .linalg import eig_hermitian
from .states import check_density_matrix, check_nonorthogonal_pair
from .teleport import receiver_factor

N_ALICE_PARAMS = 16
N_BOB_PARAMS = 12
N_PARAMS = N_ALICE_PARAMS + N_BOB_PARAMS

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


def _checked_params(params) -> np.ndarray:
    """``params`` as a finite (28,) float vector, or DimensionError/ValueError."""
    vec = np.asarray(params, dtype=float)
    if vec.shape != (N_PARAMS,):
        raise DimensionError(f"expected {N_PARAMS} parameters, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise ValueError("protocol parameters contain non-finite values")
    return vec


def decode_protocol(params) -> LocalKrausProtocol:
    """Materialize the Kraus pairs of a (28,) parameter vector: column
    projectors and routed corrections."""
    u, bobs = _split_params(_checked_params(params))
    pairs = tuple((np.outer(col, col.conj()), b) for col, b in zip(u.T, bobs))
    return LocalKrausProtocol(pairs=pairs, alice_dim=4, bob_dim=4)


# Sender parameters of the Bell measurement: the Hermitian logarithm of the
# unitary whose columns are bell_states(), taken once through a complex Schur
# form. The ~1e-16 entries are that factorization's roundoff, kept so that
# every sweep trajectory from the Bell start stays bit-identical and no LAPACK
# build can shift it.
_BELL_ALICE_PARAMS = (
    -1.3877787807814457e-16, -2.498001805406602e-16, -5.551115123125783e-17,
    1.6653345369377348e-15, 2.498001805406602e-16, -0.6045997880780722,
    -4.3021142204224816e-16, 0.18079837531937498, -3.0531133177191805e-16,
    0.6045997880780718, 2.636779683484747e-16, -0.6045997880780718,
    0.0, -1.3899979514755183, 5.273559366969494e-16, 0.6045997880780719,
)


def bbcjpw_equivalent_params() -> np.ndarray:
    """A fresh parameter vector decoding to the Bell measurement with Pauli
    corrections: identity, then z, x and y rotations by pi."""
    pi = np.pi
    return np.array(_BELL_ALICE_PARAMS + (0.0, 0.0, 0.0, 0.0, 0.0, pi, pi, 0.0, 0.0, 0.0, pi, 0.0))


class _PairObjective:
    """min-fidelity objective for a fixed state pair, on one or more channels.

    Precomputes each channel's spectral mixture and evaluates protocols
    without materializing 16x16 operators: with a rank-one sender projector
    the joint Kraus image of a product vector factorizes, so each term
    costs a handful of 4x4 products. ``evaluate`` scores a batch of
    parameter vectors, each row on its own channel of the list.
    """

    def __init__(self, channels, chi1, chi2):
        chis = check_nonorthogonal_pair(chi1, chi2)
        eigs = [eig_hermitian(check_density_matrix(rho, dim=8)) for rho in channels]
        keeps = [vals > 1e-12 for vals, _ in eigs]
        rank = max(int(keep.sum()) for keep in keeps)
        # Channels of lower rank are padded with zero weights and zero
        # vectors: each padded term adds 0.0 * x, which is exact.
        self.weights = np.zeros((len(eigs), rank))
        # v4[j, k, c]: kron(chi_j, w_k of channel c) viewed as
        # (sender 1A) x (receiver B2)
        self.v4 = np.zeros((2, rank, len(eigs), 4, 4), dtype=np.complex128)
        for c, ((vals, vecs), keep) in enumerate(zip(eigs, keeps)):
            self.weights[c, : keep.sum()] = vals[keep]
            vecs = vecs[:, keep]
            for j, chi in enumerate(chis):
                for k in range(vecs.shape[1]):
                    self.v4[j, k, c] = np.kron(chi, vecs[:, k]).reshape(4, 4)
        # conj(chi_j) as a column, broadcast over (k, b, outcome)
        self._chi_conj = np.array(chis).conj()[:, None, None, None, :, None]

    def evaluate(self, points, channel_index) -> np.ndarray:
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


def pair_objective(params, channel_rho, chi1, chi2) -> float:
    """Worst teleportation fidelity over the two states, for one (28,)
    parameter vector."""
    objective = _PairObjective([channel_rho], chi1, chi2)
    return float(objective.evaluate(_checked_params(params)[None], [0])[0])


@dataclass(frozen=True)
class OptResult:
    """Outcome of one simplex run (maximization)."""

    best_params: np.ndarray
    best_objective: float
    evaluations: int
    converged: bool


# Convergence thresholds: simplex diameter and objective spread.
TOL_X = 1e-8
TOL_F = 1e-10

# Restart ladder for each sweep start: (initial step, evaluation share).
# After the first convergence, a wide simplex restart hops out of shallow
# local basins and the tighter steps polish whatever it lands in; the final
# leg gets the rest of the per-start budget.
_RESTART_LADDER = ((0.1, 0.4), (0.7, 0.2), (0.1, 0.2), (0.02, 1.0))


def nelder_mead(objective, init, max_evals: int = 20000) -> OptResult:
    """Maximize ``objective`` with the Nelder-Mead simplex.

    Coefficients are the classic (reflect 1, expand 2, contract 0.5,
    shrink 0.5) and the initial step is 0.1. The run converges when the
    simplex diameter drops below ``TOL_X`` or the objective spread below
    ``TOL_F``; hitting ``max_evals`` first reports converged=False rather
    than raising.
    """
    def evaluate(points, _owners):
        return np.array([float(objective(x)) for x in points])

    [result] = _lockstep(evaluate, [_simplex_search(init, max_evals, ((0.1, 1.0),))])
    return result


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


@dataclass(frozen=True)
class StartRecord:
    """What one start of a sweep angle spent and found."""

    evaluations: int
    converged: bool
    best_objective: float


@dataclass(frozen=True)
class SweepRow:
    """One resource angle of the sweep, with the winning protocol kept.

    ``best_params`` is the winning (28,) vector; ``decode_protocol`` turns
    it into the protocol. ``start_records`` holds one record per start,
    Bell start first; it is diagnostic only and left out of repr. Rows are
    equal when every field is, ``best_params`` by value.
    """

    theta: float
    channel_entropy: float
    best_min_fidelity: float
    starts: int
    evaluations: int
    best_params: np.ndarray
    start_records: tuple[StartRecord, ...] = field(default=(), repr=False)

    def _key(self) -> tuple:
        return (self.theta, self.channel_entropy, self.best_min_fidelity, self.starts,
                self.evaluations, tuple(self.best_params.tolist()), self.start_records)

    def __eq__(self, other):
        if not isinstance(other, SweepRow):
            return NotImplemented
        return self._key() == other._key()


def stratified_starts(n_starts: int, rng: np.random.Generator) -> np.ndarray:
    """Latin-hypercube points in [-pi, pi]^28, one coordinate stratum each."""
    if n_starts < 1:
        return np.zeros((0, N_PARAMS))
    strata = rng.permuted(np.tile(np.arange(n_starts), (N_PARAMS, 1)), axis=1).T
    u = (strata + rng.random((n_starts, N_PARAMS))) / n_starts
    return (u * 2.0 - 1.0) * np.pi


def sweep_channel_angle(
    thetas,
    chi1,
    chi2,
    starts: int = 32,
    seed=0,
    max_evals: int = 20000,
) -> list[SweepRow]:
    """Best worst-case pair fidelity per resource angle, multistart simplex.

    Each angle in (0, pi/4] gets ``starts`` restart ladders of simplex runs,
    each with ``max_evals`` evaluations: one seeded at the Bell-measurement
    parameters and the rest at stratified random points.
    All runs of all angles step in lockstep through one batched objective.
    Ties keep the earliest start. Rows come back sorted by angle and are
    bit-reproducible for a fixed seed and grid.
    """
    thetas = [float(t) for t in thetas]
    for t in thetas:
        if not 0.0 < t <= np.pi / 4.0 + 1e-12:
            raise ValueError(f"theta {t!r} outside (0, pi/4]")
    if starts < 1:
        raise ValueError("starts must be >= 1")

    order = np.argsort(thetas)
    objective = _PairObjective([angle_channel(thetas[i]) for i in order], chi1, chi2)
    theta_seeds = np.random.SeedSequence(seed).spawn(len(thetas))
    searches = []
    for idx in order:
        rng = np.random.default_rng(theta_seeds[idx])
        start_points = [bbcjpw_equivalent_params()]
        start_points.extend(stratified_starts(starts - 1, rng))
        searches.extend(_simplex_search(p, max_evals, _RESTART_LADDER) for p in start_points)
    channel_index = np.repeat(np.arange(len(order)), starts)
    results = _lockstep(
        lambda points, owners: objective.evaluate(points, channel_index[owners]), searches
    )

    rows = []
    for a, idx in enumerate(order):
        theta = thetas[idx]
        runs = results[a * starts:(a + 1) * starts]
        best = max(runs, key=lambda r: r.best_objective)  # ties keep the earliest start
        rows.append(
            SweepRow(
                theta=theta,
                channel_entropy=entropy_of_entanglement(entangled_pair_ket(theta), (2, 2)),
                best_min_fidelity=best.best_objective,
                starts=starts,
                evaluations=sum(r.evaluations for r in runs),
                best_params=best.best_params,
                start_records=tuple(
                    StartRecord(r.evaluations, r.converged, r.best_objective) for r in runs
                ),
            )
        )
    return rows

