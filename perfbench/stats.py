"""Summary statistics shared by the runner and its tests."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10

#: The percentiles a tail may be reported at.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile, ``q`` in [0, 1]."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> Optional[float]:
    """The highest :data:`LADDER` percentile that leaves at least
    ``beyond`` of ``n`` samples above it (percentile p leaves
    ``n * (100 - p) / 100``), or None if none does."""
    fitting = [p for p in LADDER if n * (100.0 - p) / 100.0 >= beyond - 1e-9]
    return fitting[-1] if fitting else None


def blocks(steps: int, size: int) -> List[Tuple[int, int]]:
    """(first, last) mark of each block of ``size`` steps among
    ``steps``; a remainder joins no block."""
    return [(start, start + size)
            for start in range(0, steps - size + 1, size)]


def quieter_half(costs: Sequence[float]) -> List[int]:
    """Indices of the cheaper half of ``costs`` (at least one), in
    index order."""
    if not costs:
        raise ValueError("no blocks")
    ranked = sorted(range(len(costs)), key=lambda i: (costs[i], i))
    return sorted(ranked[:max(1, len(costs) // 2)])
