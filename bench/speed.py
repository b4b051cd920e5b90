"""The machine's speed, sampled while the benchmark times the program.

On a shared host the same work takes up to twice as long from one moment
to the next, for stretches of a fraction of a second to several minutes.
A sampler cancels that out: every ``PERIOD`` seconds an interval timer
interrupts the program and times a fixed probe (one 5 x 5 ``Fraction``
matrix product, computed by the benchmark's own code), and the time of an
operation is scaled by the speed those probes saw while it ran.

A time "at reference speed" is ``net * mean(REFERENCE / probe)``, with
``net`` the operation's elapsed time minus the time spent in the sampler,
and the mean taken over the probes from just before the operation to just
after it.  ``REFERENCE`` is the probe's time on an idle core of the
machine this was built on (Intel Xeon at 2.0 GHz, Python 3.11.7), so on
that machine a reference-speed time reads as the uncontended wall time.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

import gen

PERIOD = 0.025
REFERENCE = 0.4e-3

_A = [[Fraction(i + 2 * j + 1, j + 3) for j in range(5)] for i in range(5)]
_B = [[Fraction((i * j) % 7 - 3, i + 2) for j in range(5)] for i in range(5)]


def probe() -> float:
    """Seconds taken by the fixed probe, now."""
    start = perf_counter()
    gen.mat_mul(_A, _B)
    return perf_counter() - start


class Sampler:
    """Times the probe at a fixed period while it runs."""

    def __init__(self):
        probe()   # the first call in a process runs colder than the rest
        self.probes: list[float] = []
        self.spent = 0.0   # seconds spent in the sampler, probes included

    def sample(self, *_signal) -> None:
        start = perf_counter()
        self.probes.append(probe())
        self.spent += perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float, float]:
        """Take a sample; return where the next interval starts."""
        self.sample()
        return len(self.probes) - 1, self.spent, perf_counter()

    def since(self, mark: tuple[int, float, float]) -> tuple[float, float]:
        """(elapsed, reference-speed) seconds from ``mark`` to now, sampler excluded."""
        end, spent = perf_counter(), self.spent
        first, spent0, start = mark
        self.sample()
        elapsed = end - start - (spent - spent0)
        factor = statistics.fmean(REFERENCE / p for p in self.probes[first:])
        return elapsed, elapsed * factor


class Clock:
    """Plain elapsed time, for traced runs, where a sampler would be traced too."""

    def mark(self) -> float:
        return perf_counter()

    def since(self, mark: float) -> tuple[float, float]:
        elapsed = perf_counter() - mark
        return elapsed, elapsed
