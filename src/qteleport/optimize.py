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

The sweep steps every start of every angle in lockstep. The simplexes of
all starts live in one array, each kept in sorted order. Each round takes
the centroids and reflections of all starts in one batched step, gathers
the points every unfinished start needs into a single batched objective
call, each row tagged with its angle, and hands each start its values. The
batched kernel scores each row as it would in a batch of one, bit for bit,
so every start follows the trajectory it would follow alone.
"""

import numbers
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .channels import LocalKrausProtocol, angle_channel, entangled_pair_ket
from .entanglement import entropy_of_entanglement
from .errors import DimensionError
from .linalg import eig_hermitian
from .states import check_density_matrix, check_nonorthogonal_pair

N_ALICE_PARAMS = 16
N_BOB_PARAMS = 12
N_PARAMS = N_ALICE_PARAMS + N_BOB_PARAMS

# Row/column index pairs for the six independent off-diagonal entries of a
# 4x4 Hermitian generator.
_OFF_I, _OFF_J = np.triu_indices(4, 1)
_DIAG = np.arange(4)


def _hermitian_from_params(a: np.ndarray) -> np.ndarray:
    """The diagonal and lower triangle of H; ``eigh`` reads nothing else."""
    h = np.zeros(a.shape[:-1] + (4, 4), dtype=np.complex128)
    h[..., _DIAG, _DIAG] = a[..., :4]
    h[..., _OFF_J, _OFF_I] = (a[..., 4::2] + 1j * a[..., 5::2]).conj()
    return h


def decode_alice_unitary(alice_params) -> np.ndarray:
    """exp(iH) through the eigendecomposition of the Hermitian generator.

    Takes one parameter vector of 16 or a stack of shape (..., 16).
    """
    h = _hermitian_from_params(np.asarray(alice_params, dtype=float))
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


# A receiver factor kron(I, U) @ SWAP, with U = exp(-i w.sigma/2) =
# [[cos - i cz, -cy - i cx], [cy - i cx, cos + i cz]] in rows 0-1 at columns
# 0, 2 and in rows 2-3 at columns 1, 3, as its 32 floats (real, imaginary
# interleaved): each an index into the columns [cos, cx, cy, cz, -cx, -cy,
# -cz, 0].
_FACTOR_SLOTS = np.array([
    0, 6, 7, 7, 5, 4, 7, 7,
    2, 4, 7, 7, 0, 3, 7, 7,
    7, 7, 0, 6, 7, 7, 5, 4,
    7, 7, 2, 4, 7, 7, 0, 3,
])


def _receiver_factors(bob_params) -> np.ndarray:
    """Axis-angle triples (..., 3) -> receiver factors (..., 4, 4), smooth at
    zero: the special unitary exp(-i w.sigma/2) on particle 2 after routing
    B into it, the same bits as ``teleport.receiver_factor`` of that unitary."""
    w = np.asarray(bob_params, dtype=float)
    batch = w.shape[:-1]
    w = w.reshape(-1, 3)
    alpha = np.sqrt((w * w).sum(axis=1))
    half = alpha / 2.0
    # sin(alpha/2)/alpha, continued through alpha = 0
    safe = np.maximum(alpha, 1e-300)
    coeff = np.where(alpha > 1e-12, np.sin(half) / safe, 0.5)
    cols = np.empty((len(w), 8))
    cols[:, 0] = np.cos(half)
    np.multiply(coeff[:, None], w, out=cols[:, 1:4])
    np.negative(cols[:, 1:4], out=cols[:, 4:7])
    cols[:, 7] = 0.0
    out = cols.take(_FACTOR_SLOTS, axis=1)
    out += 0.0  # -0.0 -> 0.0, as receiver_factor does
    return out.view(np.complex128).reshape(batch + (4, 4))


def decode_bob_unitaries(bob_params) -> np.ndarray:
    """Axis-angle triples (..., 3) -> 2x2 special unitaries (..., 2, 2), smooth at zero."""
    return _receiver_factors(bob_params)[..., 0:2, 0::2]


def _split_params(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sender unitaries (..., 4, 4) and receiver factors (..., 4, 4, 4) of
    parameter vectors (..., 28).

    The first 16 entries are the coefficients of the Hermitian generator H
    in the orthogonal basis {E_ii; E_ij + E_ji; i(E_ij - E_ji)}: the four
    diagonal ones, then one pair per i < j in row order. The sender measures
    onto the columns of exp(iH). The last 12 are four axis-angle triples w,
    one unitary exp(-i w.sigma/2) per measurement outcome, each applied
    after routing B -> 2.
    """
    u = decode_alice_unitary(params[..., :N_ALICE_PARAMS])
    bob = params[..., N_ALICE_PARAMS:].reshape(params.shape[:-1] + (4, 3))
    return u, _receiver_factors(bob)


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
    max_evals = _positive_int(max_evals, "max_evals")

    def evaluate(points, _owners):
        return np.array([float(objective(x)) for x in points])

    init = np.asarray(init, dtype=float).reshape(1, -1)
    [result] = _lockstep(evaluate, init, max_evals, ((0.1, 1.0),))
    return result


def _positive_int(value, name: str) -> int:
    """``value`` as an int >= 1; a bool or a non-integer is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")
    return int(value)


# Requests a start can have pending besides a reflection.
_INIT, _EXPAND, _INSIDE, _OUTSIDE, _SHRINK = range(5)


def _lockstep(evaluate, inits, max_evals, ladder) -> list[OptResult]:
    """A ladder of Nelder-Mead simplexes from each row of ``inits`` (starts,
    n), all stepped together; returns one OptResult per start, in order.

    ``ladder`` lists (initial step, budget share) legs within each start's
    budget of ``max_evals``; every leg after the first restarts from the
    best point seen so far, and a start stops early when its budget is gone
    or its objective has hit its ceiling of 1. A start's result is its best
    leg, with the evaluations of all legs. Ties keep the earlier leg.

    Each round makes one call ``evaluate(points, owners)`` on the points all
    unfinished starts need next (an initial simplex, n + 1 rows; a
    reflection, expansion or contraction, one row; a shrink, n rows), where
    ``owners[r]`` is the start that asked for row r. When ``evaluate`` scores
    each row on its own, a start's trajectory does not depend on which
    others share the batch.

    The vertices of start i are ``simplex[i]``, kept in the order a stable
    sort of their values gives, NaNs last: a step that replaces only the
    worst vertex inserts its successor where that sort would put it, and
    only an initial simplex and a shrink are sorted whole.
    """
    n_starts, n = inits.shape
    if n < 1:
        raise ValueError("need at least one parameter")
    # The step direction d = c - w, from the worst vertex w to the centroid
    # c of the others, has ||d|| <= 2 * diameter, so ||d|| >= 4 * TOL_X
    # shows the simplex too wide to converge without measuring it. The
    # second term covers the rounding of c, at most about n * eps * ||c||.
    far_sq = (4.0 * TOL_X) ** 2
    rounding_sq = (4.0 * n * np.finfo(float).eps) ** 2

    simplex = np.repeat(inits[:, None], n + 1, axis=1)
    values = [None] * n_starts  # each simplex's values, negated (each leg minimizes)
    legs = [0] * n_starts       # the ladder leg each start is on
    evals = [0] * n_starts      # evaluations the current leg has asked for
    budgets = [0] * n_starts    # and may ask for
    totals = [0] * n_starts     # evaluations of the finished legs
    best = [(inits[i], None, False) for i in range(n_starts)]  # params, objective, converged
    results = [None] * n_starts
    asks = []  # (start, request, points, reflected point, reflected value) to evaluate

    def start_leg(i):
        step, share = ladder[legs[i]]
        budgets[i] = min(max_evals - totals[i], max(1, int(max_evals * share)))
        evals[i] = n + 1
        simplex[i] = best[i][0]
        simplex[i, 1:] += np.eye(n) * step
        asks.append((i, _INIT, simplex[i], None, None))

    def end_leg(i, converged):
        totals[i] += evals[i]
        leg_best = -values[i][0]  # the sorted order puts the leg's best first, NaNs last
        if best[i][1] is None or leg_best > best[i][1]:
            best[i] = (simplex[i, 0].copy(), leg_best, converged)
        legs[i] += 1
        if best[i][1] >= 1.0 - 1e-12 or legs[i] == len(ladder) or totals[i] >= max_evals:
            params, objective, best_converged = best[i]
            results[i] = OptResult(best_params=params, best_objective=objective,
                                   evaluations=totals[i], converged=best_converged)
        else:
            start_leg(i)

    def insert(i, point, f):
        # Replace the worst vertex: the stable sort puts the newcomer after
        # every value it does not undercut, and ahead of the NaNs. f is never
        # NaN, as every newcomer has won a comparison.
        vals = values[i]
        del vals[-1]
        finite = n
        while finite and vals[finite - 1] != vals[finite - 1]:
            finite -= 1
        at = bisect_right(vals, f, 0, finite)
        vals.insert(at, f)
        s = simplex[i]
        if at < n:
            s[at + 1:] = s[at:-1]
        s[at] = point

    for i in range(n_starts):
        start_leg(i)
    stepping = []  # starts at the head of their simplex loop
    while True:
        reflecting = []
        for i in stepping:
            vals = values[i]
            if evals[i] >= budgets[i]:
                end_leg(i, False)
            elif vals[-1] - vals[0] < TOL_F:
                end_leg(i, True)
            else:
                reflecting.append(i)
        if reflecting:
            centroid = simplex[:, :-1].sum(axis=1) / n  # the mean, without its call overhead
            d = centroid - simplex[:, -1]
            near = (np.matmul(d[:, None], d[:, :, None]) < far_sq + rounding_sq
                    * np.matmul(centroid[:, None], centroid[:, :, None])).ravel().tolist()
            reflected = centroid + d
            kept = []
            for i in reflecting:
                if near[i]:
                    diff = simplex[i, 1:] - simplex[i, 0]
                    if np.sqrt((diff * diff).sum(axis=1).max()) < TOL_X:
                        end_leg(i, True)
                        continue
                kept.append(i)
            reflecting = kept

        parts = [reflected[reflecting]] if reflecting else []
        owners = list(reflecting)
        for i, _, points, _, _ in asks:
            parts.append(points.reshape(-1, n))
            owners.extend([i] * len(parts[-1]))
        if not parts:
            return results
        out = evaluate(np.concatenate(parts) if len(parts) > 1 else parts[0], owners).tolist()

        stepping, pending, asks = [], asks, []
        for k, i in enumerate(reflecting):
            fr = -out[k]
            vals = values[i]
            evals[i] += 1
            if fr < vals[0]:
                asks.append((i, _EXPAND, centroid[i] + 2.0 * d[i], reflected[i], fr))
                evals[i] += 1
            elif fr < vals[-2]:
                insert(i, reflected[i], fr)
                stepping.append(i)
            else:
                if fr < vals[-1]:
                    point = centroid[i] + 0.5 * (reflected[i] - centroid[i])
                    asks.append((i, _INSIDE, point, None, fr))
                else:
                    point = centroid[i] - 0.5 * d[i]  # c + (w - c) / 2, bit for bit
                    asks.append((i, _OUTSIDE, point, None, None))
                evals[i] += 1
        at = len(reflecting)
        for i, request, points, reflected_point, fr in pending:
            if request == _INIT or request == _SHRINK:
                new = -np.asarray(out[at:at + len(points)])
                at += len(points)
                if request == _SHRINK:
                    new = np.concatenate(([values[i][0]], new))
                order = new.argsort(kind="stable")
                simplex[i] = simplex[i][order]
                values[i] = new[order].tolist()
            else:
                f = -out[at]
                at += 1
                if request == _EXPAND:
                    insert(i, *((points, f) if f < fr else (reflected_point, fr)))
                elif f <= fr if request == _INSIDE else f < values[i][-1]:
                    insert(i, points, f)
                else:
                    s = simplex[i]
                    s[1:] = s[0] + 0.5 * (s[1:] - s[0])
                    asks.append((i, _SHRINK, s[1:], None, None))
                    evals[i] += n
                    continue
            stepping.append(i)


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
    The runs of all angles share one array of simplexes and step in
    lockstep, one batched objective call per round.
    Ties keep the earliest start. Rows come back sorted by angle and are
    bit-reproducible for a fixed seed and grid.
    """
    thetas = [float(t) for t in thetas]
    if not thetas:
        raise ValueError("need at least one theta")
    for t in thetas:
        if not 0.0 < t <= np.pi / 4.0 + 1e-12:
            raise ValueError(f"theta {t!r} outside (0, pi/4]")
    starts = _positive_int(starts, "starts")
    max_evals = _positive_int(max_evals, "max_evals")

    order = np.argsort(thetas)
    objective = _PairObjective([angle_channel(thetas[i]) for i in order], chi1, chi2)
    theta_seeds = np.random.SeedSequence(seed).spawn(len(thetas))
    inits = []
    for idx in order:
        rng = np.random.default_rng(theta_seeds[idx])
        inits.append(bbcjpw_equivalent_params()[None])
        inits.append(stratified_starts(starts - 1, rng))
    channel_index = np.repeat(np.arange(len(order)), starts)
    results = _lockstep(
        lambda points, owners: objective.evaluate(points, channel_index[owners]),
        np.concatenate(inits), max_evals, _RESTART_LADDER,
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

