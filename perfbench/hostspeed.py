"""Host-speed calibration for the benchmark's time metrics.

The reference host (2 vCPUs of an Intel Xeon, family 6 model 207, under
KVM) shares its cores with other tenants.  The same deterministic
``net_a4`` cell ran there in 0.70 s or in 1.44 s depending on the minute,
in slow phases that outlast a benchmark run.  CPU time tracks wall time,
so the cause is slower execution, not descheduling, and no statistic over
one run removes a phase that covers the whole run: over ten runs of one
workload the interquartile range of the raw medians reached a third of the
median.

:class:`Calibration` times a fixed pure-Python workload -- a
set-associative LRU cache with room for ~0.5M lines, driven by a fixed
random address trace, which exercises the interpreter the way the
simulator does (dict lookups, attribute updates, object allocation) but
shares no code with it.  :class:`HostSpeed` runs it in a separate
interpreter that imports nothing of the simulator, so its speed does not
depend on what the benchmark process keeps in memory (a large heap slows
every garbage collection pass of the calibration about twofold).  The
benchmark asks for samples after every timed call, for a fixed share of
that call's duration, so they see the same phases.
:meth:`HostSpeed.factor` is :data:`REFERENCE_S` over the run's median
calibration time; a host time multiplied by it reads as that time at the
reference host's speed in a fast phase.  A change to the simulator cannot
move the calibration, so a real speed-up shows in full.

Run as a script, this module serves calibration requests: it reads one
number of seconds per line on standard input and answers each with a JSON
list of the sample times it took.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
from time import perf_counter
from typing import List

REFERENCE_S = 0.1
"""Roughly the seconds :meth:`Calibration.sample` takes on the reference
host in a fast phase; it only sets the scale of the reported times."""

_SETS = 32768
_WAYS = 16
_ACCESSES = 100_000


class _Line:
    __slots__ = ("tag", "lru", "dirty")

    def __init__(self, tag: int, lru: int) -> None:
        self.tag = tag
        self.lru = lru
        self.dirty = False


def _lru(line: _Line) -> int:
    return line.lru


class Calibration:
    """The calibration workload and the times it took."""

    def __init__(self) -> None:
        rng = random.Random(0xCA1)
        span = _SETS * _WAYS * 2
        self._trace = [rng.randrange(span) for _ in range(_ACCESSES)]
        self.samples: List[float] = []

    def sample(self) -> float:
        """Run the calibration workload once; returns and keeps its time."""
        table = [{} for _ in range(_SETS)]
        started = perf_counter()
        tick = 0
        for addr in self._trace:
            tick += 1
            ways = table[addr % _SETS]
            line = ways.get(addr)
            if line is None:
                if len(ways) >= _WAYS:
                    victim = min(ways.values(), key=_lru)
                    del ways[victim.tag]
                ways[addr] = _Line(addr, tick)
            else:
                line.lru = tick
                line.dirty = not line.dirty
        elapsed = perf_counter() - started
        self.samples.append(elapsed)
        return elapsed

    def sample_for(self, seconds: float) -> List[float]:
        """Take samples until they add up to ``seconds`` (at least one);
        returns their times."""
        taken: List[float] = []
        while sum(taken) < seconds or not taken:
            taken.append(self.sample())
        return taken


class HostSpeed:
    """Calibration samples taken during one benchmark run, in a child
    interpreter that lives as long as this object; use as a context
    manager so the child is always stopped."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._child = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop the child and wait until it has ended."""
        if self._child.poll() is None:
            self._child.stdin.close()
            try:
                self._child.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._child.kill()
                self._child.wait()
        self._child.stdout.close()

    def sample_for(self, seconds: float) -> None:
        """Have the child take samples until they add up to ``seconds``
        (at least one) and keep their times."""
        self._child.stdin.write(f"{seconds!r}\n")
        self._child.stdin.flush()
        answer = self._child.stdout.readline()
        if not answer:
            raise RuntimeError("the calibration process ended early")
        self.samples.extend(json.loads(answer))

    def factor(self) -> float:
        """Reference calibration time over this run's median one."""
        return REFERENCE_S / statistics.median(self.samples)


def serve() -> None:
    """Answer calibration requests on standard input until it closes."""
    calibration = Calibration()
    for line in sys.stdin:
        print(json.dumps(calibration.sample_for(float(line))), flush=True)


if __name__ == "__main__":
    serve()
