"""Derivative-free search over a one-round protocol family, swept against
channel entanglement.

The family: the sender performs a complete orthogonal measurement on
particles (1, A) — rank-1 projectors onto the columns of a 4x4 unitary
decoded from a Hermitian generator — and the receiver, conditioned on the
outcome, routes B into 2 and applies an outcome-indexed single-qubit
unitary (axis-angle encoded). This contains the standard Bell-measurement
protocol and always satisfies the completeness condition by construction.
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
reproduces the scalar evaluation bit for bit, so every start follows the
trajectory it would follow alone.
"""

from dataclasses import dataclass, field

import numpy as np

from . import jsonio
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


@dataclass(frozen=True)
class ProtocolParams:
    """Flat real parameterization of one protocol in the family.

    ``alice_params``: 16 coefficients of the Hermitian generator H in the
    orthogonal basis {E_ii; E_ij + E_ji; i(E_ij - E_ji)}; the measurement
    unitary is exp(iH). ``bob_params``: four axis-angle triples, one
    two-by-two special unitary per measurement outcome.
    """

    alice_params: np.ndarray
    bob_params: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alice_params, dtype=float).reshape(-1)
        b = np.asarray(self.bob_params, dtype=float).reshape(4, 3)
        if a.size != N_ALICE_PARAMS:
            raise DimensionError(f"expected {N_ALICE_PARAMS} sender parameters, got {a.size}")
        object.__setattr__(self, "alice_params", a)
        object.__setattr__(self, "bob_params", b)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.alice_params, self.bob_params.reshape(-1)])

    @classmethod
    def from_vector(cls, vec) -> "ProtocolParams":
        v = np.asarray(vec, dtype=float).reshape(-1)
        if v.size != N_PARAMS:
            raise DimensionError(f"expected {N_PARAMS} parameters, got {v.size}")
        return cls(alice_params=v[:N_ALICE_PARAMS], bob_params=v[N_ALICE_PARAMS:].reshape(4, 3))


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


def decode_protocol(params: ProtocolParams) -> LocalKrausProtocol:
    """Materialize the Kraus pairs: column projectors and routed corrections."""
    vec = params.as_vector()
    if not np.all(np.isfinite(vec)):
        raise ValueError("protocol parameters contain non-finite values")
    u = decode_alice_unitary(params.alice_params)
    bobs = receiver_factor(decode_bob_unitaries(params.bob_params))
    pairs = tuple((np.outer(col, col.conj()), b) for col, b in zip(u.T, bobs))
    return LocalKrausProtocol(pairs=pairs, alice_dim=4, bob_dim=4)


# Sender parameters of the Bell measurement: the Hermitian logarithm of
# bell_unitary() taken once through a complex Schur form. The ~1e-16 entries
# are that factorization's roundoff, kept so that every sweep trajectory from
# the Bell start stays bit-identical and no LAPACK build can shift it.
_BELL_ALICE_PARAMS = (
    -1.3877787807814457e-16, -2.498001805406602e-16, -5.551115123125783e-17,
    1.6653345369377348e-15, 2.498001805406602e-16, -0.6045997880780722,
    -4.3021142204224816e-16, 0.18079837531937498, -3.0531133177191805e-16,
    0.6045997880780718, 2.636779683484747e-16, -0.6045997880780718,
    0.0, -1.3899979514755183, 5.273559366969494e-16, 0.6045997880780719,
)


def bbcjpw_equivalent_params() -> ProtocolParams:
    """Parameters decoding to the Bell measurement with Pauli corrections."""
    alice = np.array(_BELL_ALICE_PARAMS)
    bob = np.array(
        [
            [0.0, 0.0, 0.0],       # identity
            [0.0, 0.0, np.pi],     # z correction
            [np.pi, 0.0, 0.0],     # x correction
            [0.0, np.pi, 0.0],     # y correction
        ]
    )
    return ProtocolParams(alice_params=alice, bob_params=bob)


class _PairObjective:
    """min-fidelity objective for a fixed state pair, on one or more channels.

    Precomputes each channel's spectral mixture and evaluates protocols
    without materializing 16x16 operators: with a rank-one sender projector
    the joint Kraus image of a product vector factorizes, so each term
    costs a handful of 4x4 products. ``evaluate`` scores a batch of
    parameter vectors, each row on its own channel; the scalar call is a
    batch of one on the first channel, through the same kernel.
    """

    def __init__(self, channel_rho, chi1, chi2):
        rhos = np.asarray(channel_rho)
        if rhos.ndim == 2:
            rhos = rhos[None]
        chis = check_nonorthogonal_pair(chi1, chi2)
        eigs = [eig_hermitian(check_density_matrix(rho, dim=8)) for rho in rhos]
        keeps = [eig.eigenvalues > 1e-12 for eig in eigs]
        rank = max(int(keep.sum()) for keep in keeps)
        # Channels of lower rank are padded with zero weights and zero
        # vectors: each padded term adds 0.0 * x, which is exact.
        self.weights = np.zeros((len(eigs), rank))
        # v4[j, k, c]: kron(chi_j, w_k of channel c) viewed as
        # (sender 1A) x (receiver B2)
        self.v4 = np.zeros((2, rank, len(eigs), 4, 4), dtype=np.complex128)
        for c, (eig, keep) in enumerate(zip(eigs, keeps)):
            self.weights[c, : keep.sum()] = eig.eigenvalues[keep]
            vecs = eig.eigenvectors[:, keep]
            for j, chi in enumerate(chis):
                for k in range(vecs.shape[1]):
                    self.v4[j, k, c] = np.kron(chi, vecs[:, k]).reshape(4, 4)
        # conj(chi_j) as a column, broadcast over (k, b, outcome)
        self._chi_conj = np.array(chis).conj()[:, None, None, None, :, None]

    def __call__(self, vec) -> float:
        return float(self.evaluate(np.reshape(vec, (1, N_PARAMS)), _FIRST_CHANNEL)[0])

    def evaluate(self, points, channel_index) -> np.ndarray:
        """Objective of each row of ``points`` (B, 28) on channel
        ``channel_index[b]``; every row equals its own scalar evaluation
        bit for bit."""
        points = np.asarray(points, dtype=float)
        u_dag = decode_alice_unitary(points[:, :N_ALICE_PARAMS]).conj().swapaxes(-1, -2)
        bobs = decode_bob_unitaries(points[:, N_ALICE_PARAMS:].reshape(-1, 4, 3))
        bstack = receiver_factor(bobs)

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


_FIRST_CHANNEL = np.zeros(1, dtype=int)


def pair_objective(params: ProtocolParams, channel_rho, chi1, chi2) -> float:
    """Worst teleportation fidelity over the two states, for one protocol."""
    return _PairObjective(channel_rho, chi1, chi2)(params.as_vector())


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


def nelder_mead(
    objective,
    init,
    tol_x: float = TOL_X,
    tol_f: float = TOL_F,
    max_evals: int = 20000,
    initial_step: float = 0.1,
) -> OptResult:
    """Maximize ``objective`` with the Nelder-Mead simplex.

    Coefficients are the classic (reflect 1, expand 2, contract 0.5,
    shrink 0.5). The run converges when the simplex diameter drops below
    ``tol_x`` or the objective spread below ``tol_f``; hitting
    ``max_evals`` first reports converged=False rather than raising.
    """
    def evaluate(points, _owners):
        return np.array([float(objective(x)) for x in points])

    [result] = _lockstep(evaluate, [_simplex_search(init, tol_x, tol_f, max_evals, initial_step)])
    return result


def _simplex_search(init, tol_x, tol_f, max_evals, initial_step):
    """The simplex of ``nelder_mead`` as a generator.

    Yields each (k, n) array of points it needs (the initial simplex,
    k = n + 1; a reflection, expansion or contraction, k = 1; a shrink,
    k = n), receives their k objective values, and returns the OptResult.
    """
    x0 = np.asarray(init, dtype=float).reshape(-1)
    n = x0.size
    if n < 1:
        raise ValueError("need at least one parameter")

    # The search minimizes the negated objective.
    simplex = np.tile(x0, (n + 1, 1))
    simplex[1:] += np.eye(n) * initial_step
    values = -np.asarray((yield simplex), dtype=float)
    evals = n + 1

    converged = False
    while evals < max_evals:
        order = values.argsort(kind="stable")
        simplex = simplex[order]
        values = values[order]

        diff = simplex[1:] - simplex[0]
        diameter = float(np.sqrt((diff * diff).sum(axis=1).max()))
        spread = float(values[-1] - values[0])
        if diameter < tol_x or spread < tol_f:
            converged = True
            break

        centroid = simplex[:-1].sum(axis=0) / n  # the mean, without its call overhead
        reflected = centroid + (centroid - simplex[-1])
        fr = -float((yield reflected[None])[0])
        evals += 1
        if fr < values[0]:
            expanded = centroid + 2.0 * (centroid - simplex[-1])
            fe = -float((yield expanded[None])[0])
            evals += 1
            if fe < fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
        elif fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
        else:
            if fr < values[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
                fc = -float((yield contracted[None])[0])
                accept = fc <= fr
            else:
                contracted = centroid + 0.5 * (simplex[-1] - centroid)
                fc = -float((yield contracted[None])[0])
                accept = fc < values[-1]
            evals += 1
            if accept:
                simplex[-1], values[-1] = contracted, fc
            else:
                simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
                values[1:] = -np.asarray((yield simplex[1:]), dtype=float)
                evals += n

    best_idx = int(np.argmin(values))
    return OptResult(
        best_params=simplex[best_idx].copy(),
        best_objective=-float(values[best_idx]),
        evaluations=evals,
        converged=converged,
    )


# Restart ladder for each sweep start: (initial step, evaluation share).
# After the first convergence, a wide simplex restart hops out of shallow
# local basins and the tighter steps polish whatever it lands in; the final
# leg gets the rest of the per-start budget.
_RESTART_LADDER = ((0.1, 0.4), (0.7, 0.2), (0.1, 0.2), (0.02, 1.0))


def _polished_run(start, max_evals):
    """One multistart leg: a ladder of simplex searches within a shared
    budget, as a generator of point requests like ``_simplex_search``.

    Every search after the first restarts from the best point seen so far.
    Stops early when the budget is gone or the objective has hit its
    ceiling of 1.
    """
    remaining = max_evals
    point = np.asarray(start, dtype=float)
    best = None
    total = 0
    for step, share in _RESTART_LADDER:
        if remaining <= 0:
            break
        budget = min(remaining, max(1, int(max_evals * share)))
        result = yield from _simplex_search(point, TOL_X, TOL_F, budget, step)
        total += result.evaluations
        remaining -= result.evaluations
        if best is None or result.best_objective > best.best_objective:
            best = result
        point = best.best_params
        if best.best_objective >= 1.0 - 1e-12:
            break
    return OptResult(
        best_params=best.best_params,
        best_objective=best.best_objective,
        evaluations=total,
        converged=best.converged,
    )


def _lockstep(evaluate, searches) -> list[OptResult]:
    """Step every search together; return their results in order.

    Each round concatenates the points every unfinished search asked for
    into one call ``evaluate(points, owners)``, where ``owners[r]`` is the
    index of the search that asked for row r, and sends each search its
    slice of the values. When ``evaluate`` scores each row on its own, a
    search's trajectory does not depend on which others share the batch.
    """
    results = [None] * len(searches)
    requests = {}

    def advance(i, values):
        try:
            requests[i] = searches[i].send(values)
        except StopIteration as stop:
            results[i] = stop.value
            requests.pop(i, None)

    for i in range(len(searches)):
        advance(i, None)
    while requests:
        ids = list(requests)
        batch = [requests[i] for i in ids]
        sizes = [len(points) for points in batch]
        values = evaluate(np.concatenate(batch), np.repeat(ids, sizes))
        end = 0
        for i, size in zip(ids, sizes):
            advance(i, values[end:end + size])
            end += size
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

    ``start_records`` holds one record per start, Bell start first; it is
    diagnostic only and left out of comparisons, repr and the CSV.
    """

    theta: float
    channel_entropy: float
    best_min_fidelity: float
    starts: int
    evaluations: int
    best_params: ProtocolParams
    start_records: tuple[StartRecord, ...] = field(default=(), compare=False, repr=False)


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

    Each angle in (0, pi/4] gets ``starts`` simplex runs: one seeded at the
    Bell-measurement parameters and the rest at stratified random points.
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
    objective = _PairObjective(np.array([angle_channel(thetas[i]) for i in order]), chi1, chi2)
    theta_seeds = np.random.SeedSequence(seed).spawn(len(thetas))
    searches = []
    for idx in order:
        rng = np.random.default_rng(theta_seeds[idx])
        start_points = [bbcjpw_equivalent_params().as_vector()]
        start_points.extend(stratified_starts(starts - 1, rng))
        searches.extend(_polished_run(p, max_evals) for p in start_points)
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
                best_params=ProtocolParams.from_vector(best.best_params),
                start_records=tuple(
                    StartRecord(r.evaluations, r.converged, r.best_objective) for r in runs
                ),
            )
        )
    return rows


SWEEP_CSV_COLUMNS = ("theta", "channel_entropy", "best_min_fidelity", "starts", "evaluations")


def sweep_to_csv(rows) -> str:
    """Fixed-column CSV with 17-significant-digit floats."""
    lines = [",".join(SWEEP_CSV_COLUMNS)]
    for row in rows:
        lines.append(
            ",".join(
                [
                    jsonio.format_float(row.theta),
                    jsonio.format_float(row.channel_entropy),
                    jsonio.format_float(row.best_min_fidelity),
                    str(row.starts),
                    str(row.evaluations),
                ]
            )
        )
    return "\n".join(lines) + "\n"
