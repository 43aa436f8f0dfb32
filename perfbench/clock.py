"""Wall time scaled by the host's speed at the moment of measurement.

On a shared host the same item can take twice as long from one minute
to the next, because other tenants slow the core down; a process's CPU
time slows with it.  So every timed call is bracketed by a fixed
calibration kernel of the benchmark's own (interpreter loops, small
numpy calls and small LAPACK calls, the mix intlab runs), and its wall
time is scaled by REFERENCE_S / (calibration time around the call).
The result reads as seconds on a host where the kernel takes
REFERENCE_S; the raw wall time is kept next to it in the run record.
"""

import signal
import statistics
import time

import numpy as np

# About the kernel's time on an uncontended 2-core x86_64 container
# (Python 3.11, numpy 2.4, one OpenBLAS thread).
REFERENCE_S = 6e-4

_A = np.linspace(0.1, 1.0, 16)
_M = np.cos(np.add.outer(_A, _A)) + np.diag(_A)


def _kernel():
    acc = 0.0
    for i in range(70):
        acc += float(np.sum(np.sin(_A + i)))
        for j in range(20):
            acc += (j * 0.5) ** 2
    for _ in range(7):
        acc += float(np.linalg.eigvalsh(_M)[0]) + float((_M @ _M)[0, 0])
    return acc


class Clock:
    """Times calls and scales them to the reference speed.

    Besides the calibrations before and after each call, a timer signal
    runs the kernel every SAMPLE_S seconds while a call is under way, so a
    long call is scaled by the speed over its whole length.  The time the
    samples take is subtracted from the call's wall time.
    """

    SAMPLE_S = 0.1

    def __init__(self):
        self._busy = True
        self._samples = []
        self.paused = 0.0  # seconds spent in timer samples so far
        self.last = self.calibrate()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_S, self.SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self._samples.append(end - start)
        self.paused += end - start
        self._busy = False

    def now(self):
        """perf_counter() minus the time taken by timer samples."""
        return time.perf_counter() - self.paused

    def calibrate(self):
        """Median of three kernel timings, in seconds."""
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            _kernel()
            runs.append(time.perf_counter() - start)
        return statistics.median(runs)

    def call(self, fn, *args, **kwargs):
        """Run fn; return (result or None, exception or None, wall s, scaled s).

        The calibration after the call also serves as the one before the
        next call.
        """
        self._samples = [self.last]
        result = error = None
        self._busy = False
        start = self.now()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the caller records it as a failed item
            error = exc
        wall = self.now() - start
        self._busy = True
        self.last = self.calibrate()
        speed = statistics.fmean(self._samples + [self.last])
        return result, error, wall, wall * REFERENCE_S / speed
