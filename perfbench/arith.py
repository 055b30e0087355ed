"""The benchmark's own arithmetic: percentiles, spreads and self time.

Kept free of I/O and of ``repro`` imports so ``test_perfbench.py``
can check it in isolation.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it; with fewer, the tail is noise.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or ``None`` when unsupported.

    The nearest rank is ``ceil(q / 100 * n)``; the samples ranked
    after it are "beyond" the percentile.  ``p99`` therefore needs at
    least 1000 samples and ``p95`` at least 200.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    n = len(values)
    if n == 0:
        return None
    rank = math.ceil(q / 100.0 * n)
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def median(values: Sequence[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def covered(interval: Tuple[float, float],
            pieces: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``pieces``.

    Pieces are clipped to the interval first, so a child that started
    before or ended after its parent (clock skew between threads, a
    span closed late) can never cover more than the parent itself.
    """
    low, high = interval
    clipped = sorted(
        (max(low, a), min(high, b)) for a, b in pieces if b > low and a < high
    )
    total = 0.0
    cursor = low
    for a, b in clipped:
        a = max(a, cursor)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_time(interval: Tuple[float, float],
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part its children cover; never < 0."""
    low, high = interval
    return max(0.0, (high - low) - covered(interval, children))


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when there is nothing to divide."""
    return numerator / denominator if denominator else 0.0
