"""Reference kernel that measures how fast this box is *right now*.

The sandbox this benchmark runs in changes speed in steps: the same
deterministic simulation takes anything from 1.0x to 2.4x its best time
for phases of 10-40 s, with process CPU time moving in lockstep with
wall time and zero steal (README, "Noise").  No statistic of raw wall
times taken in one ten-second run survives that - medians, minima and
low quantiles of 8 minutes of identical runs all show an
inter-quartile spread of 25-55 % of the median.

So every timed slice is bracketed by this kernel, and times are reported
*at the reference speed*: ``raw_s * NOMINAL_S / kernel_s``.  The kernel
is owned by the benchmark and touches nothing under ``src/`` - a change
to the program cannot make the reference faster - and mixes what the
program's hot paths are made of: small-array NumPy calls, heap and dict
traffic, object creation, JSON and plain bytecode.
"""

from __future__ import annotations

import heapq
import json
import os
import subprocess
import sys
import time

import numpy as np

#: Median kernel time over ten minutes on the box the baseline was
#: recorded on.  Frozen: changing it rescales every timing metric.
NOMINAL_S = 0.0070

_GRID = np.arange(128, dtype=np.int64).reshape(4, 4, 8)
_MESSAGE = {"op": "submit", "id": 0, "size": 64, "runtime": 1e6, "tenant": "t0"}


def kernel(rounds: int = 320) -> int:
    """One fixed unit of reference work; the return value defeats
    dead-code elimination and is the same on every call."""
    heap: list[tuple[int, int]] = []
    seen: dict[int, int] = {}
    acc = 0
    for i in range(rounds):
        grid = (_GRID + i) % 7
        sums = grid.cumsum(axis=0).cumsum(axis=1).cumsum(axis=2)
        acc += int(np.argmin(sums[1:, 1:, 1:] - sums[:-1, :-1, :-1]))
        acc += int(np.flatnonzero(grid == 0).size)
        heapq.heappush(heap, ((i * 7919) % 1013, i))
        if i % 3 == 0:
            acc += heapq.heappop(heap)[1]
        seen[i % 64] = acc
        for j in range(40):
            acc += (j ^ i) & 7
        if i % 8 == 0:
            _MESSAGE["id"] = i
            acc += len(json.loads(json.dumps(_MESSAGE, sort_keys=True)))
    return acc + len(seen)


def sample() -> float:
    """Seconds one kernel call takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Companion:
    """A second process that runs the kernel whenever this one does.

    A workload that keeps two processes busy (load generator + server,
    two sweep workers) is calibrated with both cores loaded: ``sample``
    runs the kernel here and in the child at once and returns the mean
    of the two times (over repeated runs of one input that halves the
    spread a one-core sample leaves: 0.06 against 0.11 of the median on
    ``serve_overload``).  For the length of a sample the two processes
    sit on different CPUs - the child is woken by this process, the
    scheduler likes to run a woken task where its waker runs, and the
    pair then serialises and reads 1.6x slow; the caller's affinity is
    put back before ``sample`` returns, so the timed region is not
    pinned.
    """

    def __init__(self) -> None:
        self._cpus = sorted(os.sched_getaffinity(0))
        self._process = subprocess.Popen(
            [sys.executable, __file__, str(self._cpus[-1])],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self.sample()  # the child has imported NumPy once this returns

    def sample(self) -> float:
        if len(self._cpus) > 1:
            os.sched_setaffinity(0, self._cpus[:1])
        try:
            self._process.stdin.write(b"go\n")
            self._process.stdin.flush()
            own = sample()
            peer = float(self._process.stdout.readline())
        finally:
            os.sched_setaffinity(0, self._cpus)
        return (own + peer) / 2.0

    def close(self) -> None:
        """End the child (it exits when its stdin closes) and wait."""
        if self._process.poll() is None:
            self._process.stdin.close()
        self._process.wait()
        self._process.stdout.close()


def speed_factor(before_s: float, after_s: float) -> float:
    """How much slower than nominal the box ran between two samples
    (1.0 = nominal, 2.0 = everything takes twice as long)."""
    return (before_s + after_s) / (2.0 * NOMINAL_S)


class Slices:
    """Accumulates ``(raw seconds, speed factor)`` pairs of timed slices.

    ``timed(fn)`` brackets one call with two kernel samples; the sample
    after one slice doubles as the sample before the next, so a run of
    *n* slices costs *n + 1* samples.  ``sampler`` is :func:`sample`,
    or a :class:`Companion`'s for two-process workloads; one sample is
    the mean of ``kernels`` calls of it - long slices get more, so that
    the reference costs a few per cent of the time it calibrates.
    """

    def __init__(self, sampler=sample, kernels: int = 1) -> None:
        self.raw: list[float] = []
        self.factors: list[float] = []
        #: ``perf_counter`` at which each slice began.
        self.starts: list[float] = []
        self._sampler = sampler
        self._kernels = kernels
        self._last: float | None = None

    def _sample(self) -> float:
        return sum(self._sampler() for _ in range(self._kernels)) / self._kernels

    def timed(self, fn, *args):
        before = self._last if self._last is not None else self._sample()
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        after = self._sample()
        self._last = after
        self.raw.append(elapsed)
        self.factors.append(speed_factor(before, after))
        self.starts.append(start)
        return result

    def pause_s(self, first: int = 0) -> float:
        """Seconds between the slices from index ``first`` on - time the
        caller spent on reference samples and bookkeeping, not on the
        program."""
        span = self.starts[-1] + self.raw[-1] - self.starts[first]
        return span - sum(self.raw[first:])

    def break_chain(self) -> None:
        """Forget the trailing sample (untimed work ran since it)."""
        self._last = None

    @property
    def normalised(self) -> list[float]:
        """Each slice's seconds at the reference speed."""
        return [r / f for r, f in zip(self.raw, self.factors)]


if __name__ == "__main__":  # the companion child: one kernel per line
    os.sched_setaffinity(0, {int(sys.argv[1])})
    for _ in sys.stdin:
        sys.stdout.write(f"{sample()!r}\n")
        sys.stdout.flush()
