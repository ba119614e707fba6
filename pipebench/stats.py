"""Small statistics helpers of the benchmark (no program imports)."""

from __future__ import annotations

import statistics
from typing import Sequence

#: Percentiles a latency summary may report, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)


def tail_percentile(num_samples: int, *, min_beyond: int = 10) -> float:
    """Highest of :data:`PERCENTILES` with at least ``min_beyond`` samples
    beyond it (the median when even that is not supported)."""
    best = PERCENTILES[0]
    for percentile in PERCENTILES:
        # Tolerance: 100 - 99.9 is not exactly 0.1 in binary floating point.
        if num_samples * (100.0 - percentile) / 100.0 >= min_beyond - 1e-9:
            best = percentile
    return best


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def block_percentile(values: Sequence[float], q: float, blocks: int) -> float:
    """Median over ``blocks`` consecutive, near-equal blocks of ``values``
    of each block's ``q``-th percentile."""
    if not 1 <= blocks <= len(values):
        raise ValueError(f"cannot split {len(values)} values into {blocks} "
                         f"blocks")
    bounds = [round(index * len(values) / blocks)
              for index in range(blocks + 1)]
    return median([percentile(values[low:high], q)
                   for low, high in zip(bounds, bounds[1:])])


def median(values: Sequence[float]) -> float:
    return statistics.median(values)

