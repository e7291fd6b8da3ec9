"""A speed probe that runs beside the program, so that each timing can be
scaled to a reference speed of the machine.

The benchmark's machine is shared, and its speed drifts by tens of percent
over seconds to minutes.  Raw times of the same work on the same input
therefore move by more than the benchmark's bounds.  While a run measures,
``Sampler`` makes a short probe, a fixed piece of Python and numpy work,
every ``PERIOD_S`` seconds of wall time, from a ``SIGALRM`` handler: the
probes fall inside the program's own calls.  A timed operation's time
excludes the probes made during it, and is then scaled by
``REFERENCE_PROBE_S`` over the median probe made from ``WINDOW_S`` before
it to ``WINDOW_S`` after it: the time it would have taken with the machine
at the speed where a probe takes ``REFERENCE_PROBE_S``.

The probe uses only Python and numpy, never hyperrag, so a change to the
program cannot change the probe: it moves the scaled times by the same
share as the raw ones.  Its work is a mix like the program's: an
interpreted loop, interpreted code around tiny arrays (the scalar geometry
kernels, triplet embedding), elementwise numpy (Sinkhorn), and small dense
linear algebra (matrix products, the eigensolve).
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

import numpy as np

# Seconds a probe took, as a median, on the reference machine (a shared
# 2-vCPU VM, "Intel(R) Xeon(R) Processor" at 2.1 GHz, Python 3.11.7,
# numpy 2.4.6 with one OpenBLAS thread).  It is only a unit: it keeps
# scaled times near the raw times measured there.
REFERENCE_PROBE_S = 0.003
# One probe per this many seconds of wall time: about 1.5 % of the run.
PERIOD_S = 0.2
# A timing is scaled by the probes made this long before and after it too,
# so that a set-up or an answer, shorter than PERIOD_S, has about ten.
WINDOW_S = 1.0

_RNG = np.random.default_rng(0)
_VECS = _RNG.standard_normal((64, 8))
_LOGITS = _RNG.standard_normal((120, 160))
_MATRIX = _RNG.standard_normal((96, 96))
_SYM = _MATRIX + _MATRIX.T


def _work() -> float:
    """About 3 ms of five kinds of work, in roughly equal parts."""
    acc = 0.0
    for i in range(4_500):  # plain interpreted arithmetic
        acc += (i * 1.5 - acc * 0.5) % 7.0
    for i in range(250):  # interpreted code around tiny numpy arrays
        u = _VECS[i % 64]
        v = _VECS[(i * 7) % 64]
        inner = -u[0] * v[0] + float(np.dot(u[1:], v[1:]))
        acc += float(np.sqrt(1.0 + inner * inner))
    m = _LOGITS - _LOGITS.max(axis=1, keepdims=True)
    for _ in range(4):  # elementwise numpy, as in a Sinkhorn iteration
        p = np.exp(m)
        m = np.log(p / p.sum(axis=1, keepdims=True)) * 0.5
    acc += float(m.sum())
    for _ in range(15):  # small dense products
        acc += float((_MATRIX @ _MATRIX)[0, 0])
    acc += float(np.linalg.eigvalsh(_SYM)[0])  # a small symmetric eigensolve
    return acc


class Sampler:
    """Probes every ``PERIOD_S`` seconds between ``start`` and ``stop``.

    ``clock`` is ``time.perf_counter`` less the time spent in probes, so a
    difference of two readings is the program's time alone.  The garbage
    collector is held off during a probe, so that the program's garbage is
    not collected, and counted, inside it.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _probe(self, signum, frame) -> None:
        entered = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _work()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(t0)
        self.seconds.append(t1 - t0)
        self.spent += time.perf_counter() - entered

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_PROBE_S over the median probe made within WINDOW_S of
        the wall-time interval [start, end]; 1.0 if there was none."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if lo == hi:
            return 1.0
        return REFERENCE_PROBE_S / statistics.median(self.seconds[lo:hi])
