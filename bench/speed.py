"""The machine's speed, sampled inside the worker process while it works.

On a shared machine the same round can take twice as long when the other
core is busy: a second CPU-bound process on a 2-core machine halves the
speed of both, and other tenants slow it for seconds at a time.  A fixed
pure-Python reference slice slows down in the same proportion.  A
``Sampler`` runs one slice from a timer signal every ``PERIOD_S`` seconds
of wall time, so that the slices see the machine as the work did, and
keeps its own time out of the work's.  Times are then reported at
reference speed: the measured seconds times ``scale(slices)``.  A change
to polybox moves the work and not the reference, so it shows in full; a
busier machine moves both, so it cancels.

Nothing here imports polybox.  A slice allocates nothing, so it cannot
set off a garbage collection inside the work it interrupts.
"""

from __future__ import annotations

import itertools
import signal
import statistics
import time

WORDS = tuple(itertools.product(range(4), repeat=4))
OUTER = WORDS[:40]
PERIOD_S = 0.1
REFERENCE_SLICE_S = 0.0008  # about one slice on an idle 2-core Xeon VM, Python 3.11


def reference_slice() -> int:
    """Dichotomy tests of 40 words against all 256 words of length 4
    over two letter pairs."""
    hits = 0
    for v in OUTER:
        for w in WORDS:
            if v[0] == w[0] ^ 1 or v[1] == w[1] ^ 1 or v[2] == w[2] ^ 1 or v[3] == w[3] ^ 1:
                hits += 1
    return hits


class Sampler:
    """Times a reference slice every ``PERIOD_S`` seconds from ``SIGALRM``.
    ``slices`` holds their durations; ``spent`` is the seconds taken by the
    signal handler, to subtract from the work it interrupted."""

    def __init__(self) -> None:
        self.slices: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_slice()
        self.slices.append(time.perf_counter() - start)
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def scale(slices: list[float]) -> float:
    """What measured seconds are multiplied by to read at reference speed.
    The slices are spread evenly over wall time, so the mean speed over
    that time is the mean of their inverse durations: their harmonic mean
    is the slice time at that speed."""
    return REFERENCE_SLICE_S / statistics.harmonic_mean(slices)
