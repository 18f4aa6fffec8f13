"""Small statistics helpers shared by the workloads and ``compare``."""

from __future__ import annotations

import bisect
import math
import random
import statistics
from typing import Sequence

#: Percentiles considered for a latency tail, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)

#: A tail percentile is reported only with at least this many samples
#: beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (``p`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> "float | None":
    """The highest ladder percentile with at least ``MIN_BEYOND`` of
    ``count`` samples beyond it, or ``None`` when even the median has
    too few."""
    for p in TAIL_LADDER:
        if count - math.ceil(p / 100.0 * count) >= MIN_BEYOND:
            return p
    return None


def quartiles(values: Sequence[float]) -> "tuple[float, float, float]":
    """(first quartile, median, third quartile) as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class ZipfPicker:
    """Seeded Zipf(``exponent``) choice over ``keys``: rank ``k`` (from 1)
    is drawn with weight ``1 / k ** exponent``."""

    def __init__(self, keys: Sequence[object], exponent: float, rng: random.Random) -> None:
        if not keys:
            raise ValueError("ZipfPicker needs at least one key")
        self._keys = list(keys)
        self._rng = rng
        cumulative = []
        total = 0.0
        for rank in range(1, len(self._keys) + 1):
            total += rank ** -exponent
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total

    def pick(self) -> object:
        position = bisect.bisect_right(self._cumulative, self._rng.random() * self._total)
        return self._keys[min(position, len(self._keys) - 1)]
