import dataclasses
import hashlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from qteleport.cli import main
from qteleport.channels import angle_channel, resource_channel, teleported_output, apply_protocol
from qteleport.errors import DimensionError
from qteleport import optimize
from qteleport.optimize import (
    N_ALICE_PARAMS,
    N_PARAMS,
    OptResult,
    _PairObjective,
    _lockstep,
    _receiver_factors,
    bbcjpw_equivalent_params,
    decode_alice_unitary,
    decode_bob_unitaries,
    decode_protocol,
    nelder_mead,
    pair_objective,
    stratified_starts,
    sweep_channel_angle,
)
from qteleport.states import (
    haar_random_pure,
    pure_density,
    random_density_matrix,
)
from qteleport.teleport import bbcjpw_protocol, bell_states, run_teleport

import oracles

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
BELL = angle_channel(np.pi / 4)


# ---------------------------------------------------------------------------
# parameter encoding / decoding


def test_zero_generator_decodes_to_identity():
    u = decode_alice_unitary(np.zeros(16))
    assert np.allclose(u, np.eye(4), atol=1e-12)


def test_decoded_alice_always_unitary():
    rng = np.random.default_rng(80)
    for _ in range(20):
        u = decode_alice_unitary(rng.uniform(-np.pi, np.pi, 16))
        assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-9)


def test_decoded_bob_always_unitary():
    rng = np.random.default_rng(81)
    for _ in range(20):
        us = decode_bob_unitaries(rng.uniform(-np.pi, np.pi, (4, 3)))
        for u in us:
            assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)


def test_bob_axis_angle_closed_forms():
    us = decode_bob_unitaries(np.array([[0, 0, 0], [np.pi, 0, 0],
                                        [0, np.pi, 0], [0, 0, np.pi]]))
    sx = np.array([[0, 1], [1, 0]])
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]])
    assert np.allclose(us[0], np.eye(2), atol=1e-12)
    assert np.allclose(us[1], -1j * sx, atol=1e-12)
    assert np.allclose(us[2], -1j * sy, atol=1e-12)
    assert np.allclose(us[3], -1j * sz, atol=1e-12)


def test_decode_rejects_wrong_shape():
    # the public objective shares the check
    for shape in [(27,), (29,), (4, 7)]:
        with pytest.raises(DimensionError):
            decode_protocol(np.zeros(shape))
        with pytest.raises(DimensionError):
            pair_objective(np.zeros(shape), BELL, KET0, PLUS)


# ---------------------------------------------------------------------------
# protocol decoding


def test_random_params_always_complete():
    rng = np.random.default_rng(84)
    for _ in range(20):
        p = decode_protocol(rng.uniform(-np.pi, np.pi, N_PARAMS))
        assert p.completeness_residual <= 1e-9


def test_decode_rejects_non_finite():
    vec = np.zeros(N_PARAMS)
    vec[3] = np.nan
    with pytest.raises(ValueError):
        decode_protocol(vec)
    for bad in (vec, np.full(N_PARAMS, np.nan), np.full(N_PARAMS, np.inf)):
        with pytest.raises(ValueError, match="non-finite"):
            pair_objective(bad, BELL, KET0, PLUS)


def _complex_bell_params():
    # casting to float would drop the 1j and leave the Bell protocol
    params = bbcjpw_equivalent_params().astype(complex)
    params[20] += 1j
    return params


def test_decode_rejects_complex_params():
    with pytest.raises(ValueError, match="real"):
        decode_protocol(_complex_bell_params())


def test_pair_objective_rejects_complex_params():
    with pytest.raises(ValueError, match="real"):
        pair_objective(_complex_bell_params(), BELL, KET0, PLUS)


def test_bbcjpw_equivalent_params_match_protocol_action():
    decoded = decode_protocol(bbcjpw_equivalent_params())
    reference = bbcjpw_protocol()
    assert np.allclose(decode_alice_unitary(bbcjpw_equivalent_params()[:N_ALICE_PARAMS]),
                       np.column_stack(bell_states()), atol=1e-10)
    rng = np.random.default_rng(85)
    for _ in range(10):
        rho = random_density_matrix(2, rng)
        channel = resource_channel(random_density_matrix(4, rng))
        out1 = teleported_output(apply_protocol(rho, channel, decoded))
        out2 = teleported_output(apply_protocol(rho, channel, reference))
        assert np.allclose(out1, out2, atol=1e-9)


def test_bbcjpw_equivalent_params_fresh_on_each_call():
    expected = bbcjpw_equivalent_params().copy()
    bbcjpw_equivalent_params()[:] = 0.0
    assert np.array_equal(bbcjpw_equivalent_params(), expected)


def test_identity_measurement_params_decohere():
    value = pair_objective(np.zeros(N_PARAMS), BELL, KET0, PLUS)
    assert value < 1 - 1e-3


# ---------------------------------------------------------------------------
# pair objective


def test_pair_objective_bbcjpw_on_bell_is_one():
    value = pair_objective(bbcjpw_equivalent_params(), BELL, KET0, PLUS)
    assert value >= 1 - 1e-9


def test_pair_objective_matches_general_path():
    rng = np.random.default_rng(86)
    for _ in range(5):
        params = rng.uniform(-np.pi, np.pi, N_PARAMS)
        protocol = decode_protocol(params)
        for channel in (BELL, angle_channel(np.pi / 8),
                        resource_channel(random_density_matrix(4, rng))):
            fast = pair_objective(params, channel, KET0, PLUS)
            slow = min(
                run_teleport(pure_density(KET0), channel, protocol, pure_density(KET0)).fidelity,
                run_teleport(pure_density(PLUS), channel, protocol, pure_density(PLUS)).fidelity,
            )
            assert abs(fast - slow) < 1e-12


def test_pair_objective_decohered_channel_is_half():
    # with the A:B resource fully decohered, the receiver only ever sees I/2
    channel = resource_channel(np.eye(4, dtype=complex) / 4)
    rng = np.random.default_rng(87)
    for _ in range(10):
        params = rng.uniform(-np.pi, np.pi, N_PARAMS)
        assert abs(pair_objective(params, channel, KET0, PLUS) - 0.5) < 1e-12


def test_pair_objective_rejects_orthogonal_pair():
    ket1 = np.array([0, 1], dtype=complex)
    with pytest.raises(ValueError):
        pair_objective(bbcjpw_equivalent_params(), BELL, KET0, ket1)
    # the sweep shares the objective's check
    with pytest.raises(ValueError, match="non-orthogonal"):
        sweep_channel_angle([np.pi / 8], KET0, ket1, starts=1)


def test_sweep_rejects_non_finite_state():
    # np.fmin would otherwise drop the NaN fidelity and report 1.0
    with pytest.raises(ValueError, match="non-finite"):
        sweep_channel_angle([np.pi / 4], [np.nan, 0], KET0, starts=1)


def test_batched_objective_equals_scalar_call_bit_for_bit():
    # mixed angles plus a full-rank channel, so lower ranks are zero-padded
    rng = np.random.default_rng(89)
    channels = [angle_channel(t) for t in (np.pi / 16, np.pi / 8, 3 * np.pi / 16, np.pi / 4)]
    channels.append(resource_channel(random_density_matrix(4, rng)))
    batched = _PairObjective(channels, KET0, PLUS)
    scalar = [_PairObjective([channel], KET0, PLUS) for channel in channels]
    points = rng.uniform(-np.pi, np.pi, (200, N_PARAMS))
    points[0] = bbcjpw_equivalent_params()
    tags = rng.integers(0, len(channels), len(points))
    values = batched.evaluate(points, tags)
    for point, tag, value in zip(points, tags, values):
        assert value == scalar[tag].evaluate(point[None], [0])[0]
        assert batched.evaluate(point[None], [tag])[0] == value


def _objective_oracle_rows(rng) -> np.ndarray:
    """Seeded parameter rows with the edge cases of the decoders mixed in."""
    points = rng.uniform(-np.pi, np.pi, (20000, N_PARAMS))
    points[0] = bbcjpw_equivalent_params()
    points[1] = 0.0
    points[2] = -0.0
    # scattered -0.0, tiny and large entries
    mask = rng.random(points.shape) < 0.05
    points[mask] = rng.choice([0.0, -0.0, 1e-13, -1e-13, 1e6, -1e6 + 0.25], mask.sum())
    # axis-angle triples with alpha = 0 and 0 < alpha <= 1e-12
    tiny = [[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [1e-12, 0.0, 0.0], [3e-13, -4e-13, 0.0],
            [-5e-13, 5e-13, 5e-13], [1e-300, 0.0, 0.0]]
    for b in range(3, 3000):
        k = b % 4
        points[b, N_ALICE_PARAMS + 3 * k:N_ALICE_PARAMS + 3 * k + 3] = tiny[b % len(tiny)]
    return points


def test_objective_equals_the_previous_evaluate_bit_for_bit():
    # four angle channels plus a full-rank channel, against the evaluate
    # (and decoders) the one-gather receiver factors replaced
    rng = np.random.default_rng(90)
    channels = [angle_channel(t) for t in (np.pi / 16, np.pi / 8, 3 * np.pi / 16, np.pi / 4)]
    channels.append(resource_channel(random_density_matrix(4, rng)))
    objective = _PairObjective(channels, KET0, PLUS)
    points = _objective_oracle_rows(rng)
    tags = rng.integers(0, len(channels), len(points))
    want = oracles.pair_objective_evaluate(objective, points, tags)
    assert objective.evaluate(points, tags).tobytes() == want.tobytes()


def test_factor_slots_derived_from_receiver_factor_keep_their_entries():
    # the table as it stood when written out by hand
    assert optimize._FACTOR_SLOTS.tolist() == [
        0, 6, 7, 7, 5, 4, 7, 7,
        2, 4, 7, 7, 0, 3, 7, 7,
        7, 7, 0, 6, 7, 7, 5, 4,
        7, 7, 2, 4, 7, 7, 0, 3,
    ]


def test_receiver_factors_equal_routed_unitaries_bit_for_bit():
    w = _objective_oracle_rows(np.random.default_rng(91))[:, N_ALICE_PARAMS:].reshape(-1, 4, 3)
    want = oracles.receiver_factor(oracles.decode_bob_unitaries(w))
    assert _receiver_factors(w).tobytes() == want.tobytes()
    assert _receiver_factors(w[7, 2]).tobytes() == want[7, 2].tobytes()


# ---------------------------------------------------------------------------
# Nelder-Mead


def test_nelder_mead_quadratic():
    result = nelder_mead(lambda x: -np.sum((x - 1.0) ** 2), np.zeros(4))
    assert result.converged
    assert abs(result.best_objective) < 1e-6
    assert np.allclose(result.best_params, np.ones(4), atol=1e-3)


def test_nelder_mead_constant_objective():
    result = nelder_mead(lambda x: 3.25, np.zeros(3))
    assert result.converged
    assert result.best_objective == 3.25


def test_nelder_mead_rosenbrock():
    def neg_rosenbrock(x):
        return -((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)

    result = nelder_mead(neg_rosenbrock, [-1.2, 1.0], max_evals=5000)
    assert abs(result.best_objective) < 1e-4
    assert np.allclose(result.best_params, [1, 1], atol=0.05)
    # pinned bit for bit, so any change to the simplex or its ladder shows here
    assert result.best_objective == -1.4087013863978232e-10
    assert result.evaluations == 181
    assert result.converged is True
    assert result.best_params.tobytes().hex() == "a51c151d0c00f03f4b3a1ff11700f03f"


def test_nelder_mead_keeps_nan_vertices_last():
    # Two of the three initial vertices score NaN, and the first expansion
    # is inserted ahead of them: a plain bisection would put it after the
    # NaN it lands on, and the run would stop at once with a NaN best.
    def objective(x):
        if x[0] + x[1] > 0.05:
            return math.nan
        return -((x[0] - 1.0) ** 2 + (x[1] + 1.0) ** 2)

    result = nelder_mead(objective, [0.0, 0.0], max_evals=2000)
    assert result.best_objective == -5.0601866472852423e-11
    assert result.evaluations == 86
    assert result.converged is True
    assert result.best_params.tobytes().hex() == "9c4d79d9fcffef3f6aa7724a0700f0bf"


def test_nelder_mead_best_is_never_a_nan_vertex():
    # The initial simplex scores (-2, nan, nan) and the budget ends there:
    # the leg's best is its first sorted vertex, not the first NaN.
    def objective(x):
        if x[0] + x[1] > 0.05:
            return math.nan
        return -((x[0] - 1.0) ** 2 + (x[1] + 1.0) ** 2)

    result = nelder_mead(objective, [0.0, 0.0], max_evals=3)
    assert result.best_objective == -2.0
    assert result.best_params.tolist() == [0.0, 0.0]
    assert result.evaluations == 3
    assert result.converged is False


def test_nelder_mead_converges_by_diameter():
    # At a kink the objective spread stays near the diameter (~5e-9, above
    # TOL_F) while the diameter falls below TOL_X, so this run stops by the
    # diameter rule; pinned bit for bit.
    target = np.array([0.3, -0.2, 0.7])
    result = nelder_mead(lambda x: -float(np.abs(x - target).sum()), np.zeros(3))
    assert result.best_objective == -4.972942557746052e-09
    assert result.evaluations == 239
    assert result.converged is True
    assert result.best_params.tobytes().hex() == (
        "4d2f1a333333d33fe0e517a29999c9bf3ecbe5666666e63f")


def test_nelder_mead_budget_exhaustion_flags_not_converged():
    result = nelder_mead(lambda x: -np.sum((x - 1.0) ** 2), np.zeros(8), max_evals=30)
    assert not result.converged
    assert result.evaluations <= 30 + 10  # allowed to finish the current step


def _egg_crate(x):
    """Maxima on a lattice of pitch 0.1: the first outside contraction from
    a simplex of lattice points lands between them and is rejected."""
    return -0.1 * float(np.abs(x / 0.1 - np.round(x / 0.1)).sum()) - 0.01 * float(x @ x)


def _kink(x):
    return -float(np.abs(x - np.array([0.3, -0.2, 0.7])).sum())


def _rows_per_owner(batches):
    return [sorted({o: owners.count(o) for o in owners}.items()) for owners in batches]


def _recording(objectives, batches):
    def evaluate(points, owners):
        batches.append(list(owners))
        return np.array([objectives[o](x) for x, o in zip(points, owners)])
    return evaluate


def test_nelder_mead_shrink_follows_the_reference():
    ladder = ((0.1, 1.0),)
    batches = []
    got = _lockstep(_recording([_egg_crate], batches), np.zeros((1, 3)), 400, ladder)
    assert [(0, 3)] in _rows_per_owner(batches[1:])  # n rows after the initial simplex: a shrink
    want = oracles.lockstep_reference(_recording([_egg_crate], []), np.zeros((1, 3)), 400, ladder)
    assert [oracles.opt_result_key(r) for r in got] == [oracles.opt_result_key(r) for r in want]
    assert oracles.opt_result_key(nelder_mead(_egg_crate, np.zeros(3), max_evals=400)) == (
        oracles.opt_result_key(want[0]))


def test_lockstep_shrink_and_diameter_exit_follow_the_reference(monkeypatch):
    # With the objective-spread exit switched off, converged=True can only
    # come from the diameter exit.
    monkeypatch.setattr(optimize, "TOL_F", -np.inf)
    monkeypatch.setattr(oracles, "TOL_F", -np.inf)
    objectives = [_egg_crate, _kink, lambda x: -float((x - 0.5) @ (x - 0.5))]
    inits = np.zeros((3, 3))
    batches = []
    got = _lockstep(_recording(objectives, batches), inits, 3000, optimize._RESTART_LADDER)
    want = oracles.lockstep_reference(_recording(objectives, []), inits, 3000,
                                      optimize._RESTART_LADDER)
    assert any((0, 3) in counts for counts in _rows_per_owner(batches[1:]))
    assert got[1].converged is True
    assert [oracles.opt_result_key(r) for r in got] == [oracles.opt_result_key(r) for r in want]
    # the same diameter exit through nelder_mead
    [leg] = oracles.lockstep_reference(_recording([_kink], []), np.zeros((1, 3)), 20000,
                                       ((0.1, 1.0),))
    result = nelder_mead(_kink, np.zeros(3))
    assert result.converged is True
    assert oracles.opt_result_key(result) == oracles.opt_result_key(leg)


def test_max_evals_below_one_rejected():
    with pytest.raises(ValueError, match="max_evals must be >= 1"):
        nelder_mead(lambda x: 0.0, np.zeros(3), max_evals=0)
    with pytest.raises(ValueError, match="max_evals must be >= 1"):
        sweep_channel_angle([np.pi / 4], KET0, PLUS, starts=1, max_evals=0)


def _never_called(x):
    raise AssertionError("the objective ran before the arguments were checked")


@pytest.mark.parametrize("call, error, message", [
    (lambda: sweep_channel_angle([], KET0, KET1, starts=1), ValueError, "at least one theta"),
    (lambda: sweep_channel_angle([np.pi / 4], KET0, KET1, starts=1.5), TypeError,
     "starts must be an integer"),
    (lambda: sweep_channel_angle([np.pi / 4], KET0, KET1, starts=True), TypeError,
     "starts must be an integer"),
    (lambda: sweep_channel_angle([np.pi / 4], KET0, KET1, starts=1, max_evals=2.5), TypeError,
     "max_evals must be an integer"),
    (lambda: nelder_mead(_never_called, np.zeros(3), max_evals=2.5), TypeError,
     "max_evals must be an integer"),
    (lambda: nelder_mead(_never_called, np.zeros(3), max_evals=False), TypeError,
     "max_evals must be an integer"),
], ids=["empty-thetas", "fractional-starts", "bool-starts", "fractional-max-evals",
        "nelder-mead-fractional-max-evals", "nelder-mead-bool-max-evals"])
def test_bad_counts_rejected_before_any_work(call, error, message):
    # KET0, KET1 is an orthogonal pair: had the sweep built its objective
    # first, it would have raised about the pair instead
    with pytest.raises(error, match=message):
        call()


def test_integer_counts_of_any_integer_type_accepted():
    row, = sweep_channel_angle([np.pi / 4], KET0, PLUS, starts=np.int64(1),
                               max_evals=np.int64(500))
    assert row == sweep_channel_angle([np.pi / 4], KET0, PLUS, starts=1, max_evals=500)[0]


def test_nelder_mead_best_objective_reproducible():
    objective = lambda x: -np.sum((x - 0.5) ** 2)
    result = nelder_mead(objective, np.zeros(3))
    assert abs(result.best_objective - objective(result.best_params)) < 1e-12


# ---------------------------------------------------------------------------
# sweep plumbing (small configurations; the full grid lives in acceptance)


def test_stratified_starts_cover_each_dimension():
    rng = np.random.default_rng(88)
    pts = stratified_starts(8, rng)
    assert pts.shape == (8, N_PARAMS)
    # one point per stratum along every coordinate
    bins = ((pts / np.pi + 1.0) / 2.0 * 8).astype(int)
    for d in range(N_PARAMS):
        assert sorted(bins[:, d]) == list(range(8))


QUARTER_GRID = [np.pi / 16, np.pi / 8, 3 * np.pi / 16, np.pi / 4]


def test_sweep_rows_pinned_bit_for_bit():
    # values of the sequential sweep that preceded lockstep batching
    rows = sweep_channel_angle(QUARTER_GRID, KET0, PLUS, starts=3, seed=0, max_evals=2000)
    assert [r.best_min_fidelity for r in rows] == [
        0.9676359849745843, 0.9912338202404989, 0.999031272079646, 1.0]
    assert [r.evaluations for r in rows] == [6000, 6000, 6000, 4800]
    assert [hashlib.sha256(r.best_params.tobytes()).hexdigest() for r in rows] == [
        "5d713447edad38d713630f6a757af8b37e973a7a9769362a1836e9ea7dc2255d",
        "0b13a51e434b5f4e78ad20558328676e21a6f2ec6bb7f1e214381e87f8ee6cf4",
        "d4cf3919e542a51c606e9805d76c22627d7b23175327cf4bcc4f4396cb752eec",
        "6a59911301362fc1344d5b36d9ae72dd8095370b3b07ef64bcebce0fb8c00f79",
    ]
    assert [[(s.evaluations, s.converged, s.best_objective) for s in r.start_records]
            for r in rows] == [
        [(2000, False, 0.9676359849745843), (2000, False, 0.9508107398563724),
         (2000, False, 0.9569324600840081)],
        [(2000, False, 0.9912338202404989), (2000, False, 0.9557185072098322),
         (2000, False, 0.974441266766092)],
        [(2000, False, 0.999031272079646), (2000, False, 0.9934327491572058),
         (2000, False, 0.9668400502448387)],
        [(800, False, 1.0), (2000, False, 0.9986413265981382),
         (2000, False, 0.9966439831635983)],
    ]


def test_sweep_row_independent_of_batch_composition():
    # an angle listed first draws its starts from the same seed child as
    # when swept alone, so each rotation of the grid isolates one row
    for i, theta in enumerate(QUARTER_GRID):
        grid = QUARTER_GRID[i:] + QUARTER_GRID[:i]
        rows = sweep_channel_angle(grid, KET0, PLUS, starts=2, seed=4, max_evals=600)
        row = next(r for r in rows if r.theta == theta)
        alone, = sweep_channel_angle([theta], KET0, PLUS, starts=2, seed=4, max_evals=600)
        assert row.best_min_fidelity == alone.best_min_fidelity
        assert row.evaluations == alone.evaluations
        assert np.array_equal(row.best_params, alone.best_params)
        key = oracles.opt_result_key
        assert list(map(key, row.start_records)) == list(map(key, alone.start_records))


def test_sweep_start_records_show_budget_use():
    max_evals = 700
    row, = sweep_channel_angle([np.pi / 8], KET0, PLUS, starts=3, seed=1, max_evals=max_evals)
    assert len(row.start_records) == 3
    assert sum(r.evaluations for r in row.start_records) == row.evaluations
    assert max(r.best_objective for r in row.start_records) == row.best_min_fidelity
    for record in row.start_records[1:]:  # the stratified starts
        assert record.converged is False
        assert record.evaluations >= max_evals


def test_sweep_start_records_replay_exactly():
    # each start keeps its best point, and the one-row objective scores it
    # exactly as the batched sweep did
    rows = sweep_channel_angle([np.pi / 8, np.pi / 16], KET0, PLUS, starts=3, seed=3,
                               max_evals=400)
    for row in rows:
        channel = angle_channel(row.theta)
        assert len(row.start_records) == 3
        for r in row.start_records:
            assert pair_objective(r.best_params, channel, KET0, PLUS) == r.best_objective


def test_sweep_rejects_bad_theta():
    with pytest.raises(ValueError):
        sweep_channel_angle([0.0], KET0, PLUS, starts=1, seed=0)
    with pytest.raises(ValueError):
        sweep_channel_angle([np.pi / 2], KET0, PLUS, starts=1, seed=0)


def test_sweep_single_start_bell_angle_exact():
    rows = sweep_channel_angle([np.pi / 4], KET0, PLUS, starts=1, seed=0, max_evals=4000)
    assert rows[0].best_min_fidelity >= 1 - 1e-9
    assert abs(rows[0].channel_entropy - 1.0) < 1e-10


def test_sweep_deterministic_and_sorted():
    thetas = [np.pi / 4, np.pi / 8]
    a = sweep_channel_angle(thetas, KET0, PLUS, starts=2, seed=9, max_evals=800)
    b = sweep_channel_angle(thetas, KET0, PLUS, starts=2, seed=9, max_evals=800)
    assert [r.theta for r in a] == sorted(thetas)
    # rows compare by value, best_params included
    assert a == b
    row = a[1]
    nudged = row.best_params.copy()
    nudged[5] = np.nextafter(nudged[5], np.inf)
    for changed in (dataclasses.replace(row, best_params=nudged),
                    dataclasses.replace(row, evaluations=row.evaluations + 1),
                    dataclasses.replace(row, start_records=row.start_records[:1])):
        assert changed != row


def test_sweep_row_reproducible_from_best_params():
    rows = sweep_channel_angle([np.pi / 8], KET0, PLUS, starts=2, seed=10, max_evals=2000)
    row = rows[0]
    re_evaluated = pair_objective(row.best_params, angle_channel(row.theta), KET0, PLUS)
    assert abs(re_evaluated - row.best_min_fidelity) < 1e-12


def test_sweep_entropy_matches_resource():
    rows = sweep_channel_angle([np.pi / 8], KET0, PLUS, starts=1, seed=0, max_evals=500)
    c, s = np.cos(np.pi / 8) ** 2, np.sin(np.pi / 8) ** 2
    want = -c * np.log2(c) - s * np.log2(s)
    assert abs(rows[0].channel_entropy - want) < 1e-10


def test_sweep_csv_format(capsys):
    # the CLI renders sweep rows; each CSV field reads back as the row's value
    rows = sweep_channel_angle([np.pi / 4], KET0, PLUS, starts=1, seed=0)
    plus = repr(float(PLUS[0].real))  # the same bits as PLUS, not the CLI default
    assert main(["sweep", "--thetas", "pi/4", "--starts", "1", "--seed", "0",
                 "--chi1", "1,0", "--chi2", f"{plus},{plus}", "--output-format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "theta,channel_entropy,best_min_fidelity,starts,evaluations,is_maximal"
    fields = lines[1].split(",")
    assert len(fields) == 6
    assert float(fields[0]) == rows[0].theta
    assert float(fields[1]) == rows[0].channel_entropy
    assert float(fields[2]) == rows[0].best_min_fidelity
    assert int(fields[3]) == rows[0].starts == 1
    assert int(fields[4]) == rows[0].evaluations


def test_sweep_reference_script_certifies_the_bell_start():
    # imports the script, scores the Bell start through its general path and
    # checks its objective against pair_objective; no reference search runs
    pytest.importorskip("scipy")
    path = Path(__file__).resolve().parents[1] / "scripts" / "compute_sweep_reference.py"
    spec = importlib.util.spec_from_file_location("compute_sweep_reference", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    bell = bbcjpw_equivalent_params()
    value = script.general_path_min_fidelity(bell, BELL)
    assert value >= 1 - 1e-12
    assert script.scalar_objective(BELL)(bell) == pair_objective(bell, BELL, KET0, PLUS) == 1.0
    rng = np.random.default_rng(97)
    for theta in (np.pi / 16, np.pi / 8, 3 * np.pi / 16):
        channel = angle_channel(theta)
        objective = script.scalar_objective(channel)
        for vec in rng.uniform(-np.pi, np.pi, (3, N_PARAMS)):
            assert objective(vec) == pair_objective(vec, channel, KET0, PLUS)
