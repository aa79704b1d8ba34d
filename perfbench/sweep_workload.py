"""`sweep`: the theorem-signature sweep on the acceptance grid.

One pass calls `sweep_channel_angle` on {pi/16, pi/8, 3pi/16, pi/4} for the
pair |0>, |+> with the default tolerances and 20,000-evaluation budget per
start, then replays each row's winning protocol through the general
density-matrix path (`decode_protocol` + `run_teleport`). The pass ends at
a checked solution. The seed picks the stratified starts.
"""

import math
import time

import numpy as np

from checks import GRID, Tally, replay_ok, sweep_rows_ok

IMPORTS = "qteleport"
# Bell start plus two stratified starts per angle: about 2.2e5 objective
# evaluations, tens of seconds on one core.
STARTS = 3
# Layers this workload does not reach; their per-layer figures come from
# the probes of the same names.
PROBES = ("kernels", "suites", "cli")
# One pass is a single long call, so machine speed is sampled from a timer.
SAMPLE_PERIOD_S = 0.05


def channel_state(theta: float) -> np.ndarray:
    """cos|00> + sin|11> on A:B with particle 2 in |0>, as an 8x8 matrix."""
    ket = np.zeros(8, dtype=complex)
    ket[0] = math.cos(theta)
    ket[6] = math.sin(theta)
    return np.outer(ket, ket.conj())


def make_inputs(seed: int) -> dict:
    chi1 = np.array([1.0, 0.0], dtype=complex)
    chi2 = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    return {
        "seed": seed,
        "chi": (chi1, chi2),
        "rho": tuple(np.outer(c, c.conj()) for c in (chi1, chi2)),
    }


def one_pass(inputs: dict, tally: Tally, thetas=GRID, starts: int = STARTS) -> int:
    """Sweep, replay and check every row; returns the evaluations used."""
    from qteleport import optimize, teleport

    rows = optimize.sweep_channel_angle(list(thetas), *inputs["chi"], starts=starts,
                                        seed=inputs["seed"])
    verdicts = sweep_rows_ok([r.theta for r in rows], [r.best_min_fidelity for r in rows])
    for row, ok in zip(rows, verdicts):
        protocol = optimize.decode_protocol(row.best_params)
        channel = channel_state(row.theta)
        replayed = min(
            teleport.run_teleport(rho, channel, protocol, rho).fidelity for rho in inputs["rho"]
        )
        tally.record(ok and replay_ok(row.best_min_fidelity, replayed),
                     f"sweep row theta={row.theta!r} fidelity={row.best_min_fidelity!r}")
    for theta in thetas[len(rows):]:
        tally.record(False, f"sweep row theta={theta!r} missing")
    return sum(r.evaluations for r in rows)


def timed_run(inputs: dict, seconds: float, tally: Tally, sampler):
    """Whole passes while the next one fits in `seconds`; at least one."""
    raw, passes, evaluations = [], [], []
    start = time.perf_counter()
    while not raw or time.perf_counter() - start + float(np.median(raw)) <= seconds:
        first, spent = len(sampler.speeds), sampler.spent
        with sampler.periodic(SAMPLE_PERIOD_S):
            t0 = time.perf_counter()
            evaluations.append(one_pass(inputs, tally))
            elapsed = time.perf_counter() - t0
            sampling = sampler.spent - spent
        if len(sampler.speeds) == first:
            sampler.sample()
        raw.append(elapsed)
        passes.append((elapsed - sampling) * sampler.mean(first))
    metrics = {
        "wall_s": (float(np.median(passes)), "s"),
        "ops_per_s": (len(GRID) * len(passes) / sum(passes), "1/s"),
    }
    details = {"passes": len(passes), "raw_pass_s": raw, "evaluations_per_pass": evaluations,
               "starts_per_angle": STARTS}
    return metrics, details


def unit(inputs: dict, tally: Tally) -> None:
    """A short sweep leg, for measuring the tracing overhead."""
    from qteleport import optimize

    optimize.sweep_channel_angle(
        [GRID[0]], *inputs["chi"], starts=1, seed=inputs["seed"], max_evals=2000
    )


def traced_pass(inputs: dict, tracer, tally: Tally) -> None:
    with tracer.operation("sweep.pass"):
        one_pass(inputs, tally)
