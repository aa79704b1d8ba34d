"""How fast the machine runs while a measurement is taken.

The machine this benchmark was built on is shared: the same Python code
takes up to twice as long for stretches of seconds to minutes, in CPU time
as well as wall time, while other tenants load the host. Raw times of
whole runs spread by 20-26% (interquartile range over median) from that
alone. So every end-to-end time is reported at reference speed: the
measured time multiplied by the machine's relative speed during it.

In-process work is compared with a fixed reference loop of small complex
matrix operations, the same kind of work the package does but code the
package cannot change: speed = REFERENCE_S / (time of one loop). Samples
are taken between the workload's own operations or, for one long call,
from a periodic timer signal; the mean speed over the samples, times the
measured seconds without the sampling, gives the seconds the work would
take at reference speed. A child process is compared instead with a
reference child, an interpreter that imports numpy, timed before and
after it.

The slow stretches differ between the two CPUs, so a run keeps itself and
its child processes on one CPU; otherwise the work and the samples may run
on different CPUs.
"""

import contextlib
import signal
import subprocess
import sys
import time

import numpy as np

# Nominal duration of one reference loop; it only sets the scale.
REFERENCE_S = 5e-4
# A child process spends its time starting an interpreter and importing
# modules, which slows down differently from the loop above; a reference
# child doing the same kind of work (numpy's import, not the package's)
# tracks it better.
REFERENCE_CHILD = (sys.executable, "-c", "import numpy")
REFERENCE_CHILD_S = 0.1
_RNG = np.random.default_rng(20001218)
_A = _RNG.normal(size=(4, 4)) + 1j * _RNG.normal(size=(4, 4))
_H = np.kron(_A + _A.conj().T, np.eye(2))


def _reference_loop() -> None:
    for _ in range(10):
        np.linalg.eigh(_H)
        np.kron(_A @ _A.conj().T, _A[:2, :2])
        float(np.trace(_A).real)


class SpeedSampler:
    """Relative speed samples, and the seconds spent taking them."""

    def __init__(self):
        self.speeds = []
        self.child_speeds = []
        self.spent = 0.0
        _reference_loop()  # first calls pay numpy's lazy set-up

    def sample(self) -> float:
        """Relative speed from one reference loop."""
        t0 = time.perf_counter()
        _reference_loop()
        elapsed = time.perf_counter() - t0
        self.spent += elapsed
        self.speeds.append(REFERENCE_S / elapsed)
        return self.speeds[-1]

    def child_sample(self) -> float:
        """Relative speed from one reference child process."""
        t0 = time.perf_counter()
        # Pipes, not DEVNULL: with a timeout and no pipe to read, subprocess
        # polls for the exit with sleeps of up to 50 ms.
        subprocess.run(REFERENCE_CHILD, check=True, timeout=60, capture_output=True)
        elapsed = time.perf_counter() - t0
        self.child_speeds.append(REFERENCE_CHILD_S / elapsed)
        return self.child_speeds[-1]

    def child_seconds(self, run):
        """Call `run()` (which starts a child process) between two reference
        children; return its result and its seconds at reference speed."""
        before = self.child_speeds[-1] if self.child_speeds else self.child_sample()
        t0 = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - t0
        return result, elapsed * (before + self.child_sample()) / 2.0

    def mean(self, since: int = 0) -> float:
        return float(np.mean(self.speeds[since:]))

    def summary(self) -> dict:
        return {
            "loop_samples": len(self.speeds),
            "loop_mean_speed": float(np.mean(self.speeds)) if self.speeds else None,
            "child_samples": len(self.child_speeds),
            "child_mean_speed": float(np.mean(self.child_speeds)) if self.child_speeds else None,
        }

    @contextlib.contextmanager
    def periodic(self, period_s: float):
        """Sample every `period_s` seconds of wall time from SIGALRM."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, period_s, period_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
