"""A speed probe that puts timings on a drifting host on one scale.

On a shared VM the same pass can take twice as long one minute as the
next, with CPU time equal to wall time: the host, not this process,
sets the speed.  While a ``SpeedProbe`` is active, SIGALRM interrupts
the program every ``INTERVAL_S`` of wall time and runs a fixed piece of
interpreter and small-array numpy work, the mix the CLI itself runs,
twice.  Only the second run is timed: the first finds the caches full
of the program's data, so its duration would depend on the program and
not only on the machine.  The mean timed duration over a pass measures
how fast the machine ran during that pass.  A pass's times multiplied
by ``NOMINAL_S / mean`` are *normalized seconds*: the time the pass
would have taken on a machine where the timed probe takes 40 µs.  All
of the probe's time is subtracted from every latency it interrupted.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

NOMINAL_S = 4e-5
INTERVAL_S = 0.01

_X = np.linspace(0.0, 1.0, 64)


def probe_work() -> None:
    """Fixed work: dict updates in the interpreter, then small numpy calls."""
    counts: dict[int, float] = {}
    for i in range(150):
        counts[i & 15] = counts.get(i & 15, 0.0) + i * 0.5
    y = np.sqrt(_X * _X + 1.0)
    np.cumsum(y)
    np.diff(y)
    float(y @ y)


class SpeedProbe:
    """Runs ``probe_work`` on every SIGALRM while active; sums its time."""

    def __init__(self):
        self.busy = 0.0  # all time spent in the probe
        self.warm = 0.0  # time of the timed, warm-cache runs
        self.count = 0
        self._previous = None

    def sample(self, *_signal_args) -> None:
        t0 = perf_counter()
        probe_work()
        t1 = perf_counter()
        probe_work()
        t2 = perf_counter()
        self.busy += t2 - t0
        self.warm += t2 - t1
        self.count += 1

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()  # so that even a pass shorter than INTERVAL_S has a sample

    def factor(self) -> float:
        """Multiplier from measured to normalized seconds."""
        return NOMINAL_S * self.count / self.warm
