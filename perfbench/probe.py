"""Speed probe: a fixed pure-Python loop, timed during the work it scales.

The benchmark runs on shared virtual machines whose speed swings by tens of
percent within a second and between seconds. Timing this loop during the work
gives the speed at that moment, and end-to-end times are reported scaled to
the speed at which the loop takes ``REFERENCE_S``:
``scaled = wall * REFERENCE_S / mean loop time``. The loop touches only a few
interpreter paths and no arrays, so what the interrupted program was doing
changes its time little; a loop with numpy calls tracked the machine slightly
better but read up to twice as slow inside some calls as inside others.
"""

from __future__ import annotations

import signal
import statistics
import time

LOOPS = 3000
REFERENCE_S = 0.0004  # about the loop's time, sampled from the handler, on a 2 GHz Xeon core
INTERVAL_S = 0.015


def loop() -> float:
    acc = 0.0
    for i in range(LOOPS):
        acc += (i * 0.5) % 7.0
    return acc


def sample() -> tuple[float, float]:
    """(start, duration) of one run of the loop."""
    start = time.perf_counter()
    loop()
    return start, time.perf_counter() - start


def scale(wall: float, samples: list[tuple[float, float]]) -> float:
    """Wall time at reference speed. The mean of the loop times, not the
    median, since a call's time adds up the slowness of every moment in it."""
    return wall * REFERENCE_S / statistics.fmean(d for _, d in samples)


class Sampler:
    """Samples the loop every INTERVAL_S from a SIGALRM handler.

    The handler runs in the main thread between bytecodes, so its time falls
    inside whatever call is running; callers subtract it using ``samples``.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _handler(self, signum, frame):
        self.samples.append(sample())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
