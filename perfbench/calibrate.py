"""Host speed, sampled on the CPUs the timed commands run on.

On a shared host a CPU's speed is not constant: as other tenants load
the physical cores, the same interpreter loop runs up to 1.8x slower,
switching within seconds, each virtual CPU on its own (measured on a
2-vCPU x86-64 VM, where it spread one command's wall time by 27%,
interquartile range over the median, from command to command).  No run
length averages that away.

So while a run is measured, a thread of the benchmark process wakes
every :data:`PERIOD_S` seconds, pins itself to the next of the commands'
CPUs, and times one pass of a fixed pure-Python kernel in its own thread
CPU time (so neither preemption by the command nor waiting for the GIL
counts).  A sample's *rate* is :data:`REFERENCE_S` over that time: the
reference-host seconds one host second is worth at that moment.  A time
measured over an interval is reported as a reference-host time, the host
time multiplied by the mean rate of the samples taken in the interval.
On that host the scaling cut the command-to-command spread of one
command's wall time from 27% to 7% of its median.

The kernel is benchmark code, so a change to the program moves the
scaled times exactly as it moves the raw ones.  The sampler takes about
2% of one CPU.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from typing import Iterable, List, Optional, Set, Tuple

#: Seconds between two samples.
PERIOD_S = 0.05

#: Thread CPU seconds one kernel pass takes on the reference host.
REFERENCE_S = 0.001

_MASK = (1 << 64) - 1
_SETS = 64
_WAYS = 8
_LINES = 1536
_STEPS = 1200


def kernel() -> int:
    """One pass: an 8-way set-associative LRU cache fed by a xorshift
    address stream, i.e. the list, dict and integer operations the
    program's simulation loops are made of.  Returns its hit count."""
    sets: List[List[int]] = [[] for _ in range(_SETS)]
    placed = {}
    x = 88172645463325252
    hits = 0
    for step in range(_STEPS):
        x ^= (x << 13) & _MASK
        x ^= x >> 7
        x ^= (x << 17) & _MASK
        line = (x >> 20) % _LINES
        ways = sets[line % _SETS]
        if line in ways:
            ways.remove(line)
            ways.append(line)
            hits += 1
        else:
            if len(ways) >= _WAYS:
                placed.pop(ways.pop(0), None)
            ways.append(line)
            placed[line] = step
    return hits


def command_cpus(workers: int) -> Set[int]:
    """The CPUs a command with ``workers`` busy processes is run on: the
    last ``workers`` this process may use.  A serial command is pinned to
    one CPU so the samples measure the CPU it runs on."""
    allowed = sorted(os.sched_getaffinity(0))
    return set(allowed[-max(1, workers):])


class HostSpeed:
    """Samples host speed from a background thread while in its ``with``
    block; :meth:`scale` turns an interval's host time into reference-host
    time."""

    def __init__(self, cpus: Iterable[int]) -> None:
        self.cpus = sorted(cpus)
        #: While set, the only CPU sampled (serial set-up on one of them).
        self.focus: Optional[int] = None
        #: ``(perf_counter at the end of the pass, CPU, rate)`` per sample.
        self.samples: List[Tuple[float, int, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True,
                                        name="perfbench-host-speed")

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        turn = 0
        while not self._stop.wait(PERIOD_S):
            focus = self.focus
            cpu = self.cpus[turn % len(self.cpus)] if focus is None \
                else focus
            turn += 1
            # Pins this thread only; the commands keep their own CPUs.
            os.sched_setaffinity(0, {cpu})
            started = time.thread_time()
            kernel()
            took = time.thread_time() - started
            if took > 0:
                self.samples.append((time.perf_counter(), cpu,
                                     REFERENCE_S / took))

    def scale(self, start: float, end: float,
              cpu: Optional[int] = None) -> float:
        """Mean rate of the samples (of ``cpu`` only, if given) taken
        between two ``perf_counter`` readings; with none in between, the
        rate of the sample nearest to the interval."""
        samples = [s for s in self.samples if cpu is None or s[1] == cpu]
        if not samples:
            raise RuntimeError("no host-speed sample was taken")
        rates = [rate for at, _cpu, rate in samples if start <= at <= end]
        if not rates:
            middle = (start + end) / 2
            rates = [min(samples, key=lambda s: abs(s[0] - middle))[2]]
        return statistics.fmean(rates)

    def pass_ms(self) -> float:
        """Median thread CPU milliseconds of one kernel pass so far."""
        return statistics.median(1000 * REFERENCE_S / rate
                                 for _at, _cpu, rate in self.samples)
