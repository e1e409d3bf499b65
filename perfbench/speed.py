"""Machine speed, measured with a fixed pure-Python kernel.

On a shared virtual machine the CPU's speed can drift by tens of percent
within minutes, and a stublint call's CPU time drifts with it (README.md,
"Machine speed").  So every timing is taken together with kernel ticks
measured at the same time, and reported scaled to the reference speed: a
call that takes T seconds while a tick takes t seconds is reported as
T * (TICK_REFERENCE_S / t) ** exponent.
"""

from __future__ import annotations

import signal
from time import perf_counter

TICK_LOOPS = 20_000
TICK_INTERVAL_S = 0.05
# Duration of one tick at the reference speed: the typical tick on the
# 2-vCPU virtual machine of the README's baseline, so that reported times
# read close to the seconds measured there.
TICK_REFERENCE_S = 0.0015


def kernel(loops: int = TICK_LOOPS) -> float:
    """Seconds taken by a fixed integer loop; depends on the machine only."""
    start = perf_counter()
    total = 0
    for i in range(loops):
        total += i * i % 7
    return perf_counter() - start


# How much a timing slows when the kernel slows, as the slope of log time
# against log tick, measured over 60 runs of the three workloads: stublint
# calls had 1.28 to 1.51 (1.45 pooled), interpreter start-up 1.02.
CALL_EXPONENT = 1.4
SPAWN_EXPONENT = 1.0


def to_reference(seconds: float, ticks: list[float], exponent: float) -> float:
    """`seconds` measured alongside `ticks`, at the reference speed."""
    if not ticks:
        return seconds
    return seconds * (TICK_REFERENCE_S * len(ticks) / sum(ticks)) ** exponent


class Speedometer:
    """Runs the kernel from a timer signal every TICK_INTERVAL_S while
    active, so the machine's speed is sampled during the timed call itself.
    The handler runs in the main thread between bytecodes, so each tick's
    duration is part of the call's wall time and must be subtracted."""

    def __init__(self):
        self.ticks: list[float] = []

    def _tick(self, signum, frame):
        self.ticks.append(kernel())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
