"""qteleport benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {sweep,kernels,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from `src/`.
With `--trace 0` the last stdout line carries the end-to-end metrics
(`wall_s`, `ops_per_s`, `setup_s`), with `--trace 1` the per-layer ones.
The line before it is a details object: the machine, the seed, sample
counts and the workload's own figures. See perfbench/README.md.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys

# One caller on one core: keep BLAS from spreading 4x4 products over threads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = {"sweep": "sweep_workload", "kernels": "kernels_workload", "cli": "cli_workload"}
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def setup_seconds(args, sampler) -> float:
    """Median time of fresh interpreters that import and make inputs, each
    at the speed sampled around it."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        _, seconds = sampler.child_seconds(lambda: subprocess.run(
            argv, check=True, timeout=SETUP_TIMEOUT_S, capture_output=True))
        times.append(seconds)
    return statistics.median(times)


def machine(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    package = os.path.join(SRC, "qteleport")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": args.seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qteleport", "__init__.py")):
        print(f"error: no package at {SRC}/qteleport; run from a qteleport checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and its children: see perfbench/speed.py.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = importlib.import_module(WORKLOADS[args.workload])
    importlib.import_module(workload.IMPORTS)
    if args.setup_only:
        workload.make_inputs(args.seed)
        return 0

    from checks import Tally

    tally = Tally()
    if args.trace:
        import layers

        inputs = workload.make_inputs(args.seed)
        metrics, details = layers.traced_run(workload, inputs, args.seed, tally)
    else:
        from speed import SpeedSampler

        sampler = SpeedSampler()
        setup = setup_seconds(args, sampler)
        inputs = workload.make_inputs(args.seed)
        metrics, details = workload.timed_run(inputs, args.seconds, tally, sampler)
        metrics["setup_s"] = (setup, "s")
        details.update(speed=sampler.summary())
    details.update(workload=args.workload, trace=args.trace, seconds=args.seconds,
                   machine=machine(args), fail_ratio=tally.failed / max(tally.attempted, 1),
                   failures=tally.failures)
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
