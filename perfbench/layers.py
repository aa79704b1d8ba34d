"""The traced run: per-layer metrics, layer probes and tracing overhead.

A traced run (`--trace 1`) first measures what tracing costs: the
workload's small `unit` alternates untraced and traced, and the ratio of
their median times is `trace.overhead_ratio`. It then runs one traced pass
of the workload and reduces its spans to the metrics in `PER_LAYER`.

Every traced run reports every per-layer metric. A workload that does not
reach a layer (the `sweep` never calls `dilate`; `kernels` never runs the
optimizer) takes that layer's figures from a fixed probe of the layer,
named in the workload's `PROBES` and run after its pass with its own
tracer. The details line says which metrics came from a probe, and which
targets were absent; a metric nothing measured reads 0.
"""

import math
import statistics
import time

import cli_workload
import kernels_workload
import sweep_workload
from checks import Tally
from tracing import Tracer, calls_within, patched, span_stats

LIGHT_MAIN = tuple(f"cli.main[{name}]" for name in cli_workload.LIGHT)
SUITES = {"linearity": "suites.linearity_s", "extreme-reduction": "suites.extreme_reduction_s",
          "dilation": "suites.dilation_s"}
OVERHEAD_MIN_PAIRS = 3
OVERHEAD_MIN_SECONDS = 2.0


def _mean(stats, names, scale, column=1):
    """Mean inclusive (column 1) or self (column 2) time per call, scaled."""
    calls = sum(stats[n][0] for n in names if n in stats)
    if not calls:
        return None
    return sum(stats[n][column] for n in names if n in stats) / calls / 1e9 * scale


def _self_us_per_eval(stats, name):
    evals = stats.get("optimize.objective", [0])[0]
    if name not in stats or not evals:
        return None
    return stats[name][2] / evals / 1e3


def _ratio(numerator, denominator):
    return numerator / denominator if numerator is not None and denominator else None


def _per_teleport(tracer, stats, name):
    teleports = stats.get("teleport.run_teleport", [0])[0]
    if not teleports:
        return None
    return calls_within(tracer.spans, "teleport.run_teleport", name) / teleports


def _count(stats, name):
    return stats[name][0] if name in stats else None


def _us(name):
    return ("us", lambda t, s: _mean(s, (name,), 1e6))


# name -> (unit, function of (tracer, span stats) giving the value or None)
PER_LAYER = {
    "optimize.evals": ("count", lambda t, s: _count(s, "optimize.objective")),
    "optimize.evals_per_s": ("1/s", lambda t, s: _ratio(
        _count(s, "optimize.objective"), s.get("optimize.nelder_mead", [0, 0])[1] / 1e9)),
    "optimize.objective_us": ("us", lambda t, s: _self_us_per_eval(s, "optimize.objective")),
    "optimize.simplex_us_per_eval": ("us", lambda t, s: _self_us_per_eval(s, "optimize.nelder_mead")),
    "optimize.budget_use": ("ratio", lambda t, s: _ratio(
        _count(s, "optimize.objective"), t.counts.get("optimize.budget"))),
    "optimize.legs": ("count", lambda t, s: _count(s, "optimize.nelder_mead")),
    "optimize.legs_converged": ("count", lambda t, s: t.counts.get("optimize.legs_converged")),
    "optimize.decode_protocol_us": _us("optimize.decode_protocol"),
    "channels.apply_protocol_us": _us("channels.apply_protocol"),
    "channels.require_complete_us": _us("channels.require_complete"),
    "channels.require_complete_calls_per_teleport": (
        "count", lambda t, s: _per_teleport(t, s, "channels.require_complete")),
    "channels.teleported_output_us": _us("channels.teleported_output"),
    "channels.apply_kraus_us": _us("channels.apply_kraus"),
    "channels.dilate_us": _us("channels.dilate"),
    "channels.dilation_apply_us": _us("channels.dilation_apply"),
    "states.check_density_matrix_us": _us("states.check_density_matrix"),
    "states.check_density_matrix_calls_per_teleport": (
        "count", lambda t, s: _per_teleport(t, s, "states.check_density_matrix")),
    "states.state_fidelity_us": _us("states.state_fidelity"),
    "states.extreme_decomposition_us": _us("states.extreme_decomposition"),
    "linalg.partial_trace_us": _us("linalg.partial_trace"),
    "linalg.eig_hermitian_us": _us("linalg.eig_hermitian"),
    "linalg.psd_sqrt_us": _us("linalg.psd_sqrt"),
    "teleport.run_teleport_self_us": (
        "us", lambda t, s: _mean(s, ("teleport.run_teleport",), 1e6, column=2)),
    "teleport.average_fidelity_us_per_sample": ("us", lambda t, s: _ratio(
        s.get("teleport.average_fidelity", [0, None])[1],
        t.counts.get("teleport.average_fidelity_samples", 0) * 1e3)),
    "teleport.extreme_reduction_check_us": _us("teleport.extreme_reduction_check"),
    "entanglement.entanglement_report_us": _us("entanglement.entanglement_report"),
    **{metric: ("s", lambda t, s, suite=suite: _mean(s, (f"suites.run_suite[{suite}]",), 1.0))
       for suite, metric in SUITES.items()},
    "cli.import_s": ("s", lambda t, s: t.values.get("cli.import_s")),
    "cli.interpreter_s": ("s", lambda t, s: t.values.get("cli.interpreter_s")),
    "cli.main_ms": ("ms", lambda t, s: _mean(s, LIGHT_MAIN, 1e3)),
    "trace.overhead_ratio": ("ratio", lambda t, s: t.values.get("trace.overhead_ratio")),
}


def layer_metrics(tracer: Tracer) -> dict:
    stats = span_stats(tracer.spans)
    return {name: fn(tracer, stats) for name, (_, fn) in PER_LAYER.items()}


# ---------------------------------------------------------------------------
# probes: a fixed, small use of each layer, for workloads that skip it


def probe_optimize(tracer, seed, tally):
    """The single Bell start at pi/4 (936 evaluations), replayed."""
    inputs = sweep_workload.make_inputs(seed)
    with tracer.operation("probe.optimize"):
        sweep_workload.one_pass(inputs, tally, thetas=(math.pi / 4,), starts=1)


def probe_kernels(tracer, seed, tally):
    """One cycle of the `kernels` mix."""
    inputs = kernels_workload.make_inputs(seed)
    with tracer.operation("probe.kernels"):
        kernels_workload.one_cycle(inputs, 0, tally)


def probe_suites(tracer, seed, tally):
    """Each verification suite once, in process."""
    from qteleport import suites

    for suite in SUITES:
        if suite not in getattr(suites, "SUITE_NAMES", ()):
            tracer.absent.append(f"suite {suite}")
            continue
        with tracer.operation("probe.suites"):
            checks = suites.run_suite(suite, seed)
        tally.record(all(c.passed for c in checks), f"suite {suite}")


def probe_cli(tracer, seed, tally):
    """`main()` on the light subcommands, and the cold import."""
    calls = cli_workload.make_inputs(seed)
    cli_workload.in_process(calls, tally, tracer, names=cli_workload.LIGHT)
    cli_workload.cold_import(tracer, tally)


PROBES = {"optimize": probe_optimize, "kernels": probe_kernels, "suites": probe_suites,
          "cli": probe_cli}


# ---------------------------------------------------------------------------


def tracing_overhead(workload, inputs, tally) -> float:
    """Median traced over median untraced time of the workload's unit."""
    plain, traced = [], []
    start = time.perf_counter()
    while len(plain) < OVERHEAD_MIN_PAIRS or time.perf_counter() - start < OVERHEAD_MIN_SECONDS:
        t0 = time.perf_counter()
        workload.unit(inputs, tally)
        plain.append(time.perf_counter() - t0)
        with patched(Tracer()):
            t0 = time.perf_counter()
            workload.unit(inputs, tally)
            traced.append(time.perf_counter() - t0)
    return statistics.median(traced) / statistics.median(plain)


def traced_run(workload, inputs, seed: int, tally: Tally):
    """Per-layer metrics of one traced pass, with probes filling the gaps."""
    tracer = Tracer()
    tracer.values["trace.overhead_ratio"] = tracing_overhead(workload, inputs, tally)
    with patched(tracer):
        workload.traced_pass(inputs, tracer, tally)
    own = layer_metrics(tracer)

    probe_tracer = Tracer()
    with patched(probe_tracer):
        for probe in workload.PROBES:
            PROBES[probe](probe_tracer, seed, tally)
    probed = layer_metrics(probe_tracer)

    metrics, from_probe, unmeasured = {}, [], []
    for name, (unit, _) in PER_LAYER.items():
        value = own[name]
        if value is None:
            value = probed[name]
            if value is not None:
                from_probe.append(name)
        if value is None:
            value = 0.0
            unmeasured.append(name)
        metrics[name] = (float(value), unit)
    details = {
        "spans": len(tracer.spans),
        "probe_spans": len(probe_tracer.spans),
        "probes": list(workload.PROBES),
        "from_probe": from_probe,
        "unmeasured": unmeasured,
        "absent": sorted(set(tracer.absent + probe_tracer.absent)),
    }
    return metrics, details
