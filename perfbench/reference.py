"""The machine's speed, sampled all through a run with a fixed kernel.

On a shared VM the speed of a vCPU changes with what the host runs next to
it.  On the reference machine it flips between modes up to 2x apart, each
lasting from a fraction of a second to several seconds, and drifts by 40%
between two sets of runs minutes apart.  Wall times alone then measure the
host more than the program.

So while a run measures, an interval timer interrupts it every
``interval_s`` and a signal handler times one run of a small fixed kernel.
The benchmark reports each operation in *reference seconds*: its wall time
without the kernel runs inside it, times ``NOMINAL_S`` over the mean
kernel time sampled while operations of that kind ran.  The samples are
taken during the very operations they scale, evenly in time, so a paired
run of ten seconds gets some hundred of them.  On a machine at the
reference speed a reference second is a wall second; a program that does
twice the work takes twice as many.

Means, not medians: with two speed modes, the median of samples jumps from
one mode to the other as their shares cross one half, while the mean (of
kernel times as of operation times) moves with the shares.

The kernel does the kinds of work citysim does (tuple-keyed dict lookups
and updates, small objects with attributes, JSON round trips and number
formatting) on data built once at import, so it allocates almost nothing
and does not raise the peak memory.  It imports nothing from citysim: a
change to the program never changes the kernel.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
import time

# mean kernel time on the reference machine (2-vCPU Intel Xeon VM,
# Python 3.11.7); it only sets the unit, never the spread
NOMINAL_S = 0.0021

_KEYS = 6_000
# every key once, in a scattered order
_ORDER = [((i * 7919) % _KEYS % 313, (i * 7919) % _KEYS) for i in range(_KEYS)]
_TABLE = {key: key[1] * 0.5 for key in _ORDER}
_DOC = {"rows": [{"id": f"r{i}", "v": i * 0.37, "tags": [f"t{j}" for j in range(i % 5)],
                  "at": {"x": i % 97, "y": str(i)}} for i in range(60)]}


class _Cell:
    __slots__ = ("key", "state", "count")

    def __init__(self, key: int):
        self.key = key
        self.state = key % 5
        self.count = 0


_CELLS = [_Cell(i) for i in range(0, _KEYS, 4)]
_BY_STATE = [0] * 5


def kernel() -> float:
    """One fixed unit of work; returns a checksum so nothing is skipped.

    It creates no container objects, only numbers and strings, so it does
    not advance the cyclic collector's counts: sampling it does not make
    the program collect more often."""
    total = 0.0
    for key in _ORDER:
        total += _TABLE[key]
        _TABLE[key] = key[1] * 0.5
    for cell in _CELLS:
        cell.state = (cell.state * 3 + 1) % 5
        _BY_STATE[cell.state] += 1
    for cell in _CELLS:
        cell.count = _BY_STATE[cell.state]
    text = json.dumps(_DOC)
    for row in _DOC["rows"]:
        text += f"{row['id']},{row['v']:.6g},{len(row['tags'])}\n"
    return total + len(text)


def probe(runs: int = 1) -> float:
    """Mean wall seconds of ``runs`` kernel runs.  The collector is off
    meanwhile, so the size of the program's heap does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(runs):
            kernel()
        return (time.perf_counter() - start) / runs
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Samples the kernel every ``interval_s`` while it is entered.

    ``now()`` is ``perf_counter()`` minus the time spent in the handler,
    so differences of ``now()`` time the program alone.  ``samples`` holds
    the kernel times in order; ``len(samples)`` before and after an
    operation delimits those taken while it ran.
    """

    def __init__(self, interval_s: float):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self._spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(probe())
        self._spent += time.perf_counter() - start

    def __enter__(self) -> "Clock":
        kernel()  # the first run pays for warming up
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> float:
        return time.perf_counter() - self._spent


class Timings:
    """Program seconds of one kind of operation, with the kernel samples
    taken while those operations ran."""

    def __init__(self):
        self.wall: list[float] = []
        self.kernel: list[float] = []

    def add(self, clock: Clock, start: float, first_sample: int) -> None:
        """Records an operation that began at ``clock.now() == start`` when
        ``clock.samples`` had ``first_sample`` entries."""
        self.wall.append(clock.now() - start)
        self.kernel.extend(clock.samples[first_sample:])

    def reference(self, fallback: list[float]) -> list[float]:
        """The wall times in reference seconds.  Operations too short to
        have caught a sample are scaled by ``fallback`` samples."""
        factor = NOMINAL_S / statistics.fmean(self.kernel or fallback)
        return [t * factor for t in self.wall]
