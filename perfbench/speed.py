"""Reference-speed normalisation of measured times.

On a shared machine the CPU speed seen by one process switches between two
levels about 1.6x apart, within seconds and for tens of seconds at a time, as
co-tenants come and go.  That is far more than the changes the benchmark must
resolve.  So every timing the benchmark reports is converted to *reference
seconds*: an operation's measured latency is multiplied by the mean of
``REF_KERNEL_S / k`` over samples ``k`` of the time of a fixed kernel, one
taken right before the operation and one every ``SAMPLE_PERIOD_S`` during it.
``REF_KERNEL_S`` is the kernel's time on the reference machine (2-core x86-64
VM at 2.1 GHz, Python 3.11, numpy 2.4, when uncontended).  The mean of the
sampled speeds, not a median, tracks the time taken when the speed switches
during an operation.  The kernel mixes interpreter work with small complex
numpy products, as qpd3's own evaluations do.  Raw times are kept in the run
record.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Kernel time on the reference machine, in seconds.
REF_KERNEL_S = 1.0e-3
#: Kernel samples taken by :func:`probe`.
PROBE_REPS = 25
#: Interval between samples taken during timed work.
SAMPLE_PERIOD_S = 0.1

_A = np.arange(64, dtype=complex).reshape(8, 8) / 64
_A4 = _A[:4, :4].copy()
_I2 = np.eye(2)
clock = time.perf_counter


def _kernel() -> float:
    acc = 0.0
    m = _A
    for _ in range(40):
        m = (m @ _A) * 0.5 + np.kron(_I2, _A4)
        acc += float(np.trace(m).real) * 1e-9 + sum(x * 0.5 for x in range(20))
    return acc


def sample() -> float:
    """Time of one run of the reference kernel, in seconds."""
    start = clock()
    _kernel()
    return clock() - start


def probe() -> list[float]:
    """Times of a few back-to-back runs of the reference kernel, in seconds."""
    return [sample() for _ in range(PROBE_REPS)]


def scale(times: list[float]) -> float:
    """Factor converting seconds measured alongside these kernel times to reference seconds."""
    return statistics.fmean(REF_KERNEL_S / t for t in times)


class Sampler:
    """Times the kernel every SAMPLE_PERIOD_S from a SIGALRM handler while ``active``.

    The handler runs in the main thread between bytecodes, so the process
    stays single-threaded; ``spent`` accumulates the handler's own time, which
    callers subtract from the work they time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.active = False

    def _handler(self, signum, frame) -> None:
        start = clock()
        if self.active:
            self.samples.append(sample())
        self.spent += clock() - start

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
