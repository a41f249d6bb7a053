"""The host reference: a fixed task, run between requests, against whose
time the request times are read.

On a shared host the speed of one core swings by a third within seconds and
can stay low for half a minute, as other tenants load the same cores and
caches.  Wall-clock figures of one program then differ by that much between
runs.  The benchmark therefore reports request times in ``ref``: units of the
reference task's time, taken as the median of the samples within WINDOW_S of
the request.  The task stalls on what the program stalls on: its Python part
is a frozen copy of the scalar hypergeometric tail and the planner's scan as
they were when the benchmark was written (it never calls the package, so a
change to the package does not move it), and its numpy part gathers from a
log-factorial table and exponentiates, as the bulk kernel does.  Each
workload weights the two parts by its own mix.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics
from time import perf_counter

import numpy as np

#: Entries of the reference's own log-factorial table; small, so that the
#: reference adds well under 1 MB to the worker's peak memory.
TABLE_SIZE = 5_001
#: Period of the samples and half-width of the window a request is read in.
PERIOD_S = 0.05
WINDOW_S = 0.2


def _count(name: str, value) -> int:
    if isinstance(value, bool) or value != int(value):
        raise ValueError(f"{name} must be an integer")
    value = int(value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0")
    return value


def _tail(table: list, c: int, n: int, K: int, N: int) -> float:
    c, n, K, N = _count("c", c), _count("n", n), _count("K", K), _count("N", N)
    if c >= min(K, n):
        return 1.0
    x_lo = max(0, n - (N - K))
    if c < x_lo:
        return 0.0
    denominator = table[N] - table[n] - table[N - n]
    return math.fsum([
        math.exp(table[K] - table[x] - table[K - x] + table[N - K] - table[n - x]
                 - table[N - K - n + x] - denominator)
        for x in range(x_lo, c + 1)
    ])


class Reference:
    """Samples of the reference task; ``weights`` are (python, numpy)."""

    def __init__(self, weights: tuple):
        self.table = [math.lgamma(k + 1.0) for k in range(TABLE_SIZE)]
        self.lots = random.Random(0).sample(range(2_000, TABLE_SIZE), 2)
        self.array = np.array(self.table)
        self.gather = np.random.default_rng(0).integers(0, TABLE_SIZE, 50_000, dtype=np.int32)
        self.weights = weights
        self.at_s = []
        self.took_s = []
        self.due = 0.0
        self.sample()

    def _python(self) -> None:
        """The planner's upward scan over n < 60 for two lots."""
        for N in self.lots:
            k_alpha, k_beta, c = N // 100, -(-7 * N // 100), 0
            for n in range(1, 60):
                while c + 1 <= n and _tail(self.table, c + 1, n, k_beta, N) <= 0.05:
                    c += 1
                _tail(self.table, c, n, k_alpha, N)

    def _numpy(self) -> None:
        values = self.array[self.gather]
        np.exp(values * 1e-6, out=values)
        float(values.sum())

    def sample(self) -> None:
        start = perf_counter()
        took = 0.0
        for weight, part in zip(self.weights, (self._python, self._numpy)):
            if weight:
                begin = perf_counter()
                part()
                took += weight * (perf_counter() - begin)
        self.at_s.append(start)
        self.took_s.append(took)
        self.due = perf_counter() + PERIOD_S

    def time_once(self) -> float:
        """Take a sample and return its time."""
        self.sample()
        return self.took_s[-1]

    def poll(self) -> None:
        """Take a sample if one is due."""
        if perf_counter() >= self.due:
            self.sample()

    def seconds_at(self, t: float) -> float:
        """The reference task's time around moment ``t``."""
        lo = bisect.bisect_left(self.at_s, t - WINDOW_S)
        hi = bisect.bisect_right(self.at_s, t + WINDOW_S)
        if lo == hi:
            lo, hi = max(0, lo - 1), min(len(self.at_s), lo + 1)
        return statistics.median(self.took_s[lo:hi])

    def rate(self) -> float:
        """Reference tasks per second over the whole run."""
        return 1.0 / statistics.median(self.took_s)
