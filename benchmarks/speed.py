"""The machine's speed, from a fixed pure-Python reference loop.

On a shared virtual machine the same code runs up to twice as slow at
times, switching within a fraction of a second or staying slow for
minutes, and the process's CPU time drifts with it. While the benchmark
times ops, a ``Sampler`` times one pass of the reference loop every
``PERIOD_S`` seconds from a timer signal, in the middle of the ops. Each
op's time is then scaled by the passes timed during it, so that it reads
what it would on a machine where one pass takes ``REFERENCE_PASS_S``.
The loop is the benchmark's own code, so a change to pbsgraph cannot
move it.

The loop is interpreter-bound like pbsgraph's hot paths: method calls on
a slotted object, attribute reads, list indexing and float comparisons,
as in the Monte Carlo's uniform stream.

Set-up is mostly importing, which a slow spell slows by more than it
slows the loop. So a set-up time is scaled instead by ``import_time()``,
the time a fresh interpreter takes to import numpy, timed just before
and after the set-up. numpy is most of pbsgraph's import and is not
pbsgraph's code.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time

# Seconds per reference pass on the reference machine (2-CPU shared
# virtual machine, CPython 3.11, in its faster state); scaled timings
# are in its seconds.
REFERENCE_PASS_S = 3.5e-4
ITERATIONS = 1500
# One pass every 25 ms costs about 1.4% of the machine. Ops shorter than
# the period are scaled by the passes nearest to them.
PERIOD_S = 0.025
NEIGHBOURS = 2
# Seconds a fresh interpreter takes to import numpy on the reference
# machine (median of 77 timings, in a slow spell); scaled set-up times
# are in its seconds.
REFERENCE_IMPORT_S = 0.17
_IMPORT_NUMPY = ("import time; t = time.perf_counter(); import numpy; "
                 "print(time.perf_counter() - t)")


class _Stream:
    __slots__ = ("buf", "pos")

    def __init__(self) -> None:
        self.buf = [(i * 2654435761 % 1000) / 1000.0 for i in range(512)]
        self.pos = 0

    def next(self) -> float:
        buf, pos = self.buf, self.pos
        if pos == len(buf):
            pos = 0
        self.pos = pos + 1
        return buf[pos]


def _reference_pass() -> int:
    stream, hits = _Stream(), 0
    for _ in range(ITERATIONS):
        if stream.next() < 0.7:
            hits += 1
        if stream.next() < 0.1:
            hits += 2
    return hits


class Sampler:
    """Times reference passes while active and measures calls with them.

    ``measure(fn)`` runs ``fn`` and records its time without the passes
    that interrupted it. ``scaled()`` gives each measured time at the
    reference speed: divided by the median of the passes timed during
    the call and the ``NEIGHBOURS`` nearest on each side, times
    ``REFERENCE_PASS_S``. The passes run from SIGALRM in the main
    thread, so measure only calls made there, and start no process
    while the sampler is active.
    """

    def __init__(self) -> None:
        self.passes: list[float] = []
        self.elapsed: list[float] = []
        self._windows: list[tuple[int, int]] = []
        self._spent = 0.0

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)
        for _ in range(NEIGHBOURS):
            self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(NEIGHBOURS):
            self._tick()

    def _tick(self, *_signal) -> None:
        begin = time.perf_counter()
        _reference_pass()
        self.passes.append(time.perf_counter() - begin)
        self._spent += time.perf_counter() - begin

    def measure(self, fn):
        first, spent, begin = len(self.passes), self._spent, time.perf_counter()
        result = fn()
        end = time.perf_counter()
        self.elapsed.append(end - begin - (self._spent - spent))
        self._windows.append((first, len(self.passes)))
        return result

    def scaled(self) -> list[float]:
        return [
            elapsed * REFERENCE_PASS_S
            / statistics.median(self.passes[max(0, first - NEIGHBOURS):last + NEIGHBOURS])
            for elapsed, (first, last) in zip(self.elapsed, self._windows)
        ]


def import_time() -> float:
    """Seconds a fresh interpreter takes to import numpy now."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_NUMPY], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout)


def scale_setups(setups: list[float], imports: list[float]) -> list[float]:
    """Each set-up time at the reference speed. ``imports[i]`` and
    ``imports[i + 1]`` are the import times timed just before and just
    after set-up ``i``; the set-up is scaled by their mean."""
    return [setup * REFERENCE_IMPORT_S * 2 / (imports[i] + imports[i + 1])
            for i, setup in enumerate(setups)]
