"""The machine's speed, measured between jobs, to put timings on one scale.

The benchmark shares a few cores of a host with other work, and the time
of a fixed loop there swings by up to 2.7x within minutes.  So the run
process times a fixed reference loop between jobs (interpreter, argparse
and numpy work, no corruptlab code): at most every ``EVERY_S`` seconds before a job, and
once after the last.  A job's latency is then multiplied by
``REFERENCE_S`` over the median reference time measured within
``WINDOW_S`` of the job, which reports it in seconds at the reference
speed.  A change to corruptlab moves these times in full; a change in the
machine's speed moves the reference loop with them and largely cancels.
"""

from __future__ import annotations

import argparse
import statistics
from time import perf_counter

import numpy as np

#: A typical time of one ``reference_loop`` on the shared 2-vCPU machine the
#: benchmark was tuned on (Python 3.11, numpy 2.4, one OpenBLAS thread),
#: where its median ranged from 3.8 to 6.8 ms.  It only sets the scale.
REFERENCE_S = 0.005
#: Least time between two reference timings.
EVERY_S = 0.25
#: Reference timings within this many seconds of a job scale its latency.
WINDOW_S = 1.0
#: Loops per reference timing; the timing is their median.
REPEATS = 3

_VECTOR = np.random.default_rng(0).random(80_000)
_MATRIX = np.random.default_rng(1).random((160, 160))
_COLUMNS = np.random.default_rng(2).dirichlet(np.ones(40), size=40).T
_TABLE = {f"key{i}": i for i in range(50_000)}
_KEYS = [f"key{i}" for i in np.random.default_rng(3).integers(0, 50_000, 4_000)]


def reference_loop() -> None:
    """A little of each kind of work the workloads do, none of it corruptlab's.

    Interpreter loops, as in the planner's DP; building and running an
    argument parser, as every CLI call does; lookups scattered over a table
    larger than the core's caches, as in the CLI's many small objects; and
    numpy sorting, BLAS, a pairwise column difference, an SVD and random
    draws with counting, as in the analyze and simulate paths.
    """
    total = 0.0
    for i in range(12_000):
        total += i * 0.5
    for key in _KEYS:
        total += _TABLE[key]
    parser = argparse.ArgumentParser()
    for i in range(20):
        parser.add_argument(f"--option{i}", type=float, default=0.0)
    parser.parse_args(["--option3", "1.5", "--option7", "2"])
    np.sort(_VECTOR)
    _MATRIX @ _MATRIX
    np.abs(_COLUMNS[:, :, None] - _COLUMNS[:, None, :]).sum(axis=0).max()
    np.linalg.pinv(_COLUMNS)
    np.bincount(np.random.default_rng(4).integers(0, 40, 50_000), minlength=40)


def reference_time() -> float:
    """Median time of ``REPEATS`` reference loops."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        reference_loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Speed:
    """Reference timings of one process, and the scale they give each job."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []  # (when, reference time)

    def mark(self) -> None:
        taken = reference_time()
        self.marks.append((perf_counter(), taken))

    def before_job(self) -> None:
        if not self.marks or perf_counter() - self.marks[-1][0] >= EVERY_S:
            self.mark()

    def scale(self, start: float, end: float) -> float:
        """Factor that puts a job run from ``start`` to ``end`` at the reference speed."""
        near = [taken for when, taken in self.marks if start - WINDOW_S <= when <= end + WINDOW_S]
        return REFERENCE_S / statistics.median(near)

    def median_reference(self) -> float:
        return statistics.median(taken for _, taken in self.marks)
