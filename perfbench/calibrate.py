"""A clock calibrated against this machine's drifting speed.

The vCPUs of a small shared VM change speed from second to second, each on
its own: the same program run can take 1.1 s or 2.1 s in one process, and
the speed seen on one vCPU says nothing about the other.  So the clock pins
this process, and with it every child it starts, to one CPU, and starts a
sampler process on the same CPU (``python3 calibrate.py CPU``, which runs
until its standard input closes).  Every PROBE_PERIOD_S the sampler runs a
fixed reference computation (``Reference``, PROBE_ROUNDS rounds) and
prints the CPU time it took; its wall time would count the time slices
the scheduler gave to the operation instead.  A timed operation's wall
time is rescaled by the reference's nominal duration over its median
measured duration in the probes from one period before the operation to
one period after it: the probes before and after it and those that ran,
time-sliced, during it.  Calibrated figures are seconds at reference
speed.

perfbench/README.md gives the alternatives that were measured.
"""

from __future__ import annotations

import os
import select
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from fieldmath import Field

# One probe is PROBE_ROUNDS rounds of the reference; NOMINAL_PROBE_S is the
# duration they are taken to have at reference speed.  Calibrated times
# scale with it; all three are fixed so two commits are measured alike.
PROBE_ROUNDS = 8
PROBE_PERIOD_S = 0.05
NOMINAL_PROBE_S = 0.004


class Reference:
    """Fixed calibration workload: Python loops around small table-lookup
    products and eliminations over invertible matrices (so no round
    degenerates), plus permutation composition in pure Python; the same
    mix as the program's kernels and group code."""

    def __init__(self):
        self.field = Field(2, (1, 1, 1))
        rng = np.random.default_rng(12345)
        self.A = self.field.random_invertible(12, rng)
        self.B = self.field.random_invertible(12, rng)
        self.perm = tuple((7 * x + 3) % 31 for x in range(31))
        self.acc = tuple(range(31))
        self.check = 0

    def run(self, rounds: int) -> int:
        """Returns a checksum so the work cannot be skipped."""
        for _ in range(rounds):
            C = self.field.matmul(self.A, self.B)
            for _ in range(8):
                self.acc = tuple(self.perm[self.acc[x]] for x in range(31))
            rank = self.field.rank(C)
            self.check = (self.check * 31 + rank + int(C.sum()) + self.acc[1]) % 1_000_003
            self.A, self.B = self.B, C
        return self.check


def _sample(cpu: int) -> None:
    """The sampler process: one line "start cpu_seconds" per probe on
    standard output, until standard input closes."""
    os.sched_setaffinity(0, {cpu})
    ref = Reference()
    ref.run(PROBE_ROUNDS)
    out = sys.stdout
    while not select.select([sys.stdin], [], [], PROBE_PERIOD_S)[0]:
        start, cpu_start = time.perf_counter(), time.process_time()
        ref.run(PROBE_ROUNDS)
        out.write(f"{start!r} {time.process_time() - cpu_start!r}\n")
        out.flush()


class Clock:
    """Use as a context manager; ``measure`` times one operation.  The
    sampler is a child process that stops when its standard input closes,
    so it ends with this process on every path out of it; ``__exit__``
    also waits for it."""

    def __enter__(self):
        self.cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})
        self._starts: list[float] = []
        self._durations: list[float] = []
        self._sampler = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self.cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.probes: list[float] = []  # every probe used, for the report
        try:
            self._wait_past(time.perf_counter() + PROBE_PERIOD_S)
        except BaseException:
            self.__exit__()
            raise
        return self

    def _read(self):
        for line in self._sampler.stdout:
            start, duration = map(float, line.split())
            self._durations.append(duration)
            self._starts.append(start)  # last, so a start always has its duration

    def __exit__(self, *exc):
        self._sampler.stdin.close()
        try:
            self._sampler.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._sampler.kill()
            self._sampler.wait()
        self._reader.join()
        self._sampler.stdout.close()

    def _wait_past(self, t: float):
        """Block until a probe that started after t has finished."""
        while not (self._starts and self._starts[-1] > t):
            if self._sampler.poll() is not None:
                raise RuntimeError(f"the calibration sampler exited with {self._sampler.returncode}")
            time.sleep(PROBE_PERIOD_S / 5)

    def measure(self, fn):
        """Run fn(); return (raw seconds, calibrated seconds, fn's result)."""
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        self._wait_past(end + PROBE_PERIOD_S)
        window = [
            d for s, d in zip(self._starts, self._durations)
            if start - PROBE_PERIOD_S <= s <= end + PROBE_PERIOD_S
        ]
        self.probes.extend(window)
        raw = end - start
        return raw, raw * NOMINAL_PROBE_S / statistics.median(window), result


if __name__ == "__main__":
    _sample(int(sys.argv[1]))
