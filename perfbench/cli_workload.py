"""`cli`: every subcommand in its own cold child process, one after another.

One pass runs `python -m qteleport.cli` six times with the checkout's
`src` first on PYTHONPATH: `decompose`, `teleport`, `entangle`, `dilate`
(the four light calls), `verify --suite all`, and
`sweep --thetas pi/4 --starts 1`. The seed draws the states, angles and
seeds passed on the command line; every pass repeats the same calls, so
their stdout must repeat byte for byte.
"""

import contextlib
import io
import math
import os
import subprocess
import sys
import time

import numpy as np

from checks import Tally, cli_call_ok

IMPORTS = "qteleport.cli"
LIGHT = ("decompose", "teleport", "entangle", "dilate")
MIN_PASSES = 2
CALL_TIMEOUT_S = 60
PROBES = ("kernels",)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QTELEPORT_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _bloch(rng) -> str:
    d = rng.normal(size=3)
    r = d / np.linalg.norm(d) * rng.uniform(0.1, 0.95)
    return ",".join(repr(float(x)) for x in r)


def make_inputs(seed: int) -> list:
    """(subcommand, argv) for each call of a pass, drawn from the seed."""
    rng = np.random.default_rng(seed)
    while True:
        b1, b2 = _bloch(rng), _bloch(rng)
        r1, r2 = (np.array([float(x) for x in b.split(",")]) for b in (b1, b2))
        if np.linalg.norm(np.cross(r1, r2)) > 1e-2:
            break
    return [
        ("decompose", ["decompose", f"--bloch1={b1}", f"--bloch2={b2}"]),
        ("teleport", ["teleport", f"--input={_bloch(rng)}",
                      f"--channel-angle={float(rng.uniform(0.05, math.pi / 4))!r}"]),
        ("entangle", ["entangle", f"--angle={float(rng.uniform(0.05, math.pi / 4))!r}"]),
        ("dilate", ["dilate", "--protocol=bbcjpw", f"--seed={int(rng.integers(2**31))}"]),
        ("verify", ["verify", "--suite=all", f"--seed={int(rng.integers(2**31))}"]),
        ("sweep", ["sweep", "--thetas=pi/4", "--starts=1", f"--seed={int(rng.integers(2**31))}"]),
    ]


def cold_call(argv: list) -> tuple:
    """(seconds, exit code, stdout) of one child interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=child_env(), capture_output=True,
                          timeout=CALL_TIMEOUT_S, check=False)
    return time.perf_counter() - t0, proc.returncode, proc.stdout


def timed_run(calls: list, seconds: float, tally: Tally, sampler):
    """Passes while the next fits in `seconds`; each call is scaled by the
    speed sampled around it."""
    passes, times, first = [], {name: [] for name, _ in calls}, {}
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start + float(np.median(passes)) <= seconds):
        total = 0.0
        for name, argv in calls:
            (_, code, out), scaled = sampler.child_seconds(
                lambda: cold_call(["-m", "qteleport.cli", *argv]))
            first.setdefault(name, out)
            times[name].append(scaled)
            total += scaled
            tally.record(cli_call_ok(name, code, out, first[name]), f"cli {name} exit={code}")
        passes.append(total)
    light = [t for name in LIGHT for t in times[name]]
    metrics = {
        "wall_s": (float(np.median(passes)), "s"),
        "ops_per_s": (len(calls) * len(passes) / sum(passes), "1/s"),
    }
    details = {
        "passes": len(passes),
        "cold_p50_s": {"value": float(np.median(light)), "unit": "s"},
        "cold_samples": len(light),
        "verify_s": {"value": float(np.median(times["verify"])), "unit": "s"},
        "sweep1_s": {"value": float(np.median(times["sweep"])), "unit": "s"},
    }
    return metrics, details


def in_process(calls: list, tally: Tally, tracer=None, names=None) -> None:
    """`main()` in this interpreter for each call (or those in `names`)."""
    from qteleport import cli

    for name, argv in calls:
        if names is not None and name not in names:
            continue
        buffer = io.StringIO()
        span = tracer.operation(f"cli.main[{name}]") if tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        out = buffer.getvalue().encode()
        tally.record(cli_call_ok(name, code, out, out), f"cli main {name} exit={code}")


def cold_import(tracer, tally: Tally, repeats: int = 3) -> None:
    """Bare interpreter start, and cold `import qteleport.cli` on top of it."""
    times = {}
    for code in ("pass", "import qteleport.cli"):
        times[code] = []
        for _ in range(repeats):
            elapsed, exit_code, _ = cold_call(["-c", code])
            tally.record(exit_code == 0, f"cold python -c {code!r} exit={exit_code}")
            times[code].append(elapsed)
    bare = float(np.median(times["pass"]))
    tracer.values["cli.interpreter_s"] = bare
    tracer.values["cli.import_s"] = float(np.median(times["import qteleport.cli"])) - bare


def unit(calls: list, tally: Tally) -> None:
    in_process(calls, tally, names=(*LIGHT, "sweep"))


def traced_pass(calls: list, tracer, tally: Tally) -> None:
    in_process(calls, tally, tracer)
    cold_import(tracer, tally)
