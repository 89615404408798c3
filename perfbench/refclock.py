"""A clock that runs in seconds at a fixed reference speed of the host.

On a shared host the same pure-Python work runs faster or slower from one
minute to the next, and a plain wall clock passes that drift into every
timing.  ``ReferenceClock`` samples the host's current speed with a fixed
piece of stdlib work, the reference kernel, and advances more slowly while
the host is slow, so a timing on it stays put when the host's speed drifts
and moves when the program's speed changes.
"""

from __future__ import annotations

import random
import signal
import statistics
from collections import deque
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

#: Wall seconds between two samples of the host's speed.
TICK_S = 0.05
#: Kernel times in the running median that stands for the host's speed.
TICK_WINDOW = 5
#: The reference speed: the clock runs at wall speed while the running
#: median kernel time is this.
REFERENCE_KERNEL_S = 0.0025

_KERNEL_RNG = random.Random(7)
_KERNEL_FACTORS = [
    {
        tuple(_KERNEL_RNG.randrange(4) for _ in range(3)):
            Fraction(_KERNEL_RNG.randrange(1, 9), _KERNEL_RNG.randrange(1, 5))
        for _ in range(30)
    }
    for _ in range(2)
]


def reference_kernel() -> dict:
    """Fixed stdlib work shaped like the program's own: the product of two
    sparse polynomials held as {exponent tuple: Fraction}.  It shares no
    code with the program, so a change to the program cannot move it."""
    left, right = _KERNEL_FACTORS
    out = {}
    for ka, ca in left.items():
        for kb, cb in right.items():
            key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            out[key] = out.get(key, 0) + ca * cb
    return out


class ReferenceClock:
    """Call it for the time in reference seconds; it runs inside
    ``running()``.

    Every ``TICK_S`` of wall time a SIGALRM handler times one run of the
    reference kernel on the main thread, so the kernel sees the speed the
    program sees.  Between ticks the clock runs at ``REFERENCE_KERNEL_S``
    over the median of the last ``TICK_WINDOW`` kernel times, and it stands
    still while the handler runs, so no timing is charged for the kernel.
    ``kernel_s`` keeps every kernel time."""

    def __init__(self):
        self.window = deque(maxlen=TICK_WINDOW)
        self.kernel_s = []
        self.reference = 0.0
        self.last = 0.0
        self.busy = False

    def _sample(self) -> None:
        start = perf_counter()
        reference_kernel()
        self.last = perf_counter()
        self.window.append(self.last - start)
        self.kernel_s.append(self.last - start)

    def _advance(self) -> None:
        now = perf_counter()
        self.reference += (now - self.last) * REFERENCE_KERNEL_S / statistics.median(self.window)
        self.last = now

    def __call__(self) -> float:
        # A tick that lands while the clock is read skips its sample.
        self.busy = True
        self._advance()
        self.busy = False
        return self.reference

    def _tick(self, signum, frame) -> None:
        if self.busy:
            return
        self.busy = True
        self._advance()
        self._sample()
        self.busy = False

    @contextmanager
    def running(self):
        """Fill the window, then tick until the block ends."""
        for _ in range(TICK_WINDOW):
            self._sample()
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
