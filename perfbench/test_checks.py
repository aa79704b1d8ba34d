"""Tests of the benchmark itself: its checkers and its tracer.

    python3 -m pytest perfbench
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import speed  # noqa: E402
import tracing  # noqa: E402
from checks import GRID, Tally, bbcjpw_ok, cli_call_ok, sweep_rows_ok  # noqa: E402


def score(verdicts) -> Tally:
    tally = Tally()
    for ok in verdicts:
        tally.record(ok, "case")
    return tally


def test_sweep_checker_counts_a_non_monotone_sweep():
    assert score(sweep_rows_ok(GRID, [0.97508, 0.994064, 0.999283, 1.0])).failed == 0
    # Every row is within 5e-3 of its reference, but 3pi/16 dips below pi/8.
    tally = score(sweep_rows_ok(GRID, [0.97508, 0.996, 0.995, 1.0]))
    assert (tally.attempted, tally.failed) == (4, 1)


def test_kernels_checker_counts_a_perturbed_fidelity():
    theta = math.pi / 8
    s = math.sin(2 * theta)
    x, y, z = 0.6, 0.0, 0.8
    output = 0.5 * np.array([[1 + z, s * x - 1j * s * y], [s * x + 1j * s * y, 1 - z]])
    fidelity = 1 - (1 - s) * (x * x + y * y) / 2
    assert score([bbcjpw_ok(theta, (x, y, z), True, output, fidelity)]).failed == 0
    tally = score([bbcjpw_ok(theta, (x, y, z), True, output, fidelity + 1e-9)])
    assert tally.failed == 1


def test_cli_checker_counts_a_nonzero_exit():
    out = b'{"fidelity": 1.0}\n'
    assert score([cli_call_ok("teleport", 0, out, out)]).failed == 0
    assert score([cli_call_ok("teleport", 2, out, out)]).failed == 1
    assert score([cli_call_ok("teleport", 0, out, b'{"fidelity": 0.5}\n')]).failed == 1
    assert score([cli_call_ok("verify", 0, b'{"pass": false}', b'{"pass": false}')]).failed == 1


def test_self_time_is_duration_minus_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: sum(range(10000)), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
    with tracer.operation("op"):
        outer()
    stats = tracing.span_stats(tracer.spans)
    calls, inclusive, own = stats["outer"]
    assert calls == 1 and stats["inner"][0] == 3
    assert own == inclusive - stats["inner"][1]
    assert tracing.calls_within(tracer.spans, "outer", "inner") == 3
    assert {rec[4] for rec in tracer.spans} == {1}


def test_patched_counts_validation_per_teleport_and_restores(monkeypatch):
    from qteleport import channels, states, teleport

    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("linalg", "gone", "linalg.gone"),))
    original = teleport.check_density_matrix
    rho = np.diag([1.0, 0.0]).astype(complex)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        assert states.check_density_matrix is not original
        teleport.run_teleport(rho, channels.angle_channel(math.pi / 4),
                              teleport.bbcjpw_protocol(), rho)
    assert teleport.check_density_matrix is original
    assert states.check_density_matrix is original
    assert tracer.absent == ["qteleport.linalg.gone"]
    assert tracing.calls_within(
        tracer.spans, "teleport.run_teleport", "states.check_density_matrix") == 3


def test_periodic_speed_samples_stop_and_restore_the_handler():
    import signal
    import time

    sampler = speed.SpeedSampler()
    previous = signal.getsignal(signal.SIGALRM)
    with sampler.periodic(0.01):
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    taken = len(sampler.speeds)
    assert taken >= 5 and sampler.spent > 0 and sampler.mean() > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    time.sleep(0.05)
    assert len(sampler.speeds) == taken


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
