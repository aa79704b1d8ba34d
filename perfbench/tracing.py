"""Spans recorded around calls into the package's public functions.

The benchmark never edits the package. For a traced run it rebinds public
names: each function in `TARGETS` is replaced, in every `qteleport` module
that holds it, by a wrapper that records a span. Calls made inside the
package (for example `run_teleport` calling `apply_protocol`) go through
the calling module's name, so they are caught too. A target a later
version no longer has is listed in `Tracer.absent` and skipped.

A span is [name, start_ns, end_ns, parent index or -1, operation id].
Spans stay in memory; `span_stats` reduces them to call counts, inclusive
time and self time (duration minus the time covered by direct children).
"""

import contextlib
import functools
import importlib
import inspect
import sys
import time

# (module, attribute, span name). "Class.method" rebinds on the class.
TARGETS = (
    ("linalg", "partial_trace", "linalg.partial_trace"),
    ("linalg", "eig_hermitian", "linalg.eig_hermitian"),
    ("linalg", "psd_sqrt", "linalg.psd_sqrt"),
    ("states", "check_density_matrix", "states.check_density_matrix"),
    ("states", "state_fidelity", "states.state_fidelity"),
    ("states", "extreme_decomposition", "states.extreme_decomposition"),
    ("channels", "apply_protocol", "channels.apply_protocol"),
    ("channels", "require_complete", "channels.require_complete"),
    ("channels", "teleported_output", "channels.teleported_output"),
    ("channels", "apply_kraus", "channels.apply_kraus"),
    ("channels", "dilate", "channels.dilate"),
    ("channels", "Dilation.apply", "channels.dilation_apply"),
    ("teleport", "run_teleport", "teleport.run_teleport"),
    ("teleport", "average_fidelity", "teleport.average_fidelity"),
    ("teleport", "extreme_reduction_check", "teleport.extreme_reduction_check"),
    ("entanglement", "entanglement_report", "entanglement.entanglement_report"),
    ("optimize", "sweep_channel_angle", "optimize.sweep_channel_angle"),
    ("optimize", "nelder_mead", "optimize.nelder_mead"),
    ("optimize", "decode_protocol", "optimize.decode_protocol"),
    ("suites", "run_suite", "suites.run_suite"),
)


class Tracer:
    """In-memory spans, counters and measured values for one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.values = {}
        self.absent = []
        self.op = 0
        self._stack = []

    def count(self, key: str, n=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    @contextlib.contextmanager
    def operation(self, name: str):
        """A root span with a fresh operation id, shared by its children."""
        self.op += 1
        with self.span(name):
            yield

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced


def _bound_argument(fn, args, kwargs, name):
    """Value of parameter `name` in a call, defaults applied; None if unknown."""
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except (TypeError, ValueError):
        return None
    bound.apply_defaults()
    return bound.arguments.get(name)


def _make_wrapper(tracer: Tracer, attr: str, fn, name: str):
    if attr == "nelder_mead":
        # Each simplex run is one leg of a start's restart ladder; its
        # objective calls are the evaluations.
        def nelder_mead(objective, *args, **kwargs):
            result = fn(tracer.wrap(objective, "optimize.objective"), *args, **kwargs)
            tracer.count("optimize.legs_converged", int(bool(getattr(result, "converged", False))))
            return result

        return tracer.wrap(nelder_mead, name)
    if attr == "sweep_channel_angle":
        def sweep_channel_angle(*args, **kwargs):
            thetas = _bound_argument(fn, args, kwargs, "thetas")
            starts = _bound_argument(fn, args, kwargs, "starts")
            max_evals = _bound_argument(fn, args, kwargs, "max_evals")
            if None not in (thetas, starts, max_evals):
                tracer.count("optimize.budget", len(thetas) * starts * max_evals)
            return fn(*args, **kwargs)

        return tracer.wrap(sweep_channel_angle, name)
    if attr == "average_fidelity":
        def average_fidelity(*args, **kwargs):
            tracer.count("teleport.average_fidelity_samples",
                         _bound_argument(fn, args, kwargs, "samples") or 0)
            return fn(*args, **kwargs)

        return tracer.wrap(average_fidelity, name)
    if attr == "run_suite":
        def run_suite(suite, *args, **kwargs):
            with tracer.span(f"{name}[{suite}]"):
                return fn(suite, *args, **kwargs)

        return run_suite
    return tracer.wrap(fn, name)


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Rebind every target to a span-recording wrapper; restore on exit."""
    importlib.import_module("qteleport.cli")  # loads every module that calls a target
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "qteleport" or k.startswith("qteleport."))]
    saved = []
    try:
        for module_name, attr, span_name in TARGETS:
            path = f"qteleport.{module_name}.{attr}"
            try:
                owner = importlib.import_module(f"qteleport.{module_name}")
            except ImportError:
                tracer.absent.append(path)
                continue
            *owner_path, leaf = attr.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                tracer.absent.append(path)
                continue
            wrapper = _make_wrapper(tracer, leaf, fn, span_name)
            holders = [owner] if owner_path else [
                m for m in modules if getattr(m, leaf, None) is fn
            ]
            for holder in holders:
                saved.append((holder, leaf, fn))
                setattr(holder, leaf, wrapper)
        yield tracer
    finally:
        for holder, leaf, fn in reversed(saved):
            setattr(holder, leaf, fn)


def span_stats(spans) -> dict:
    """name -> [calls, inclusive ns, self ns]."""
    covered = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = stats.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - covered[i]
    return stats


def calls_within(spans, ancestor: str, name: str) -> int:
    """Spans called `name` that have a span called `ancestor` above them."""
    total = 0
    for rec in spans:
        if rec[0] != name:
            continue
        parent = rec[3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                total += 1
                break
            parent = spans[parent][3]
    return total
