"""Order statistics and span arithmetic shared by the benchmark and its tests."""

from __future__ import annotations

# Candidate tail percentiles in per mille, highest first.
TAIL_LADDER = (999, 995, 990, 980, 950, 900, 750, 500)
TAIL_MIN_BEYOND = 10


def rank(per_mille: int, n: int) -> int:
    """Nearest-rank position (1-based) of a percentile in n sorted samples."""
    return -(-per_mille * n // 1000)


def tail_per_mille(n: int) -> int:
    """Highest ladder percentile that leaves at least ten of n samples
    beyond it."""
    for pm in TAIL_LADDER:
        if n - rank(pm, n) >= TAIL_MIN_BEYOND:
            return pm
    raise ValueError(f"{n} samples leave no percentile with "
                     f"{TAIL_MIN_BEYOND} samples beyond it")


def tail(samples: list[float], per_mille: int) -> tuple[float, int]:
    """(value at the percentile, number of samples ranked beyond it)."""
    ordered = sorted(samples)
    r = rank(per_mille, len(ordered))
    return ordered[r - 1], len(ordered) - r


def covered(start: float, end: float,
            intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_time(start: float, end: float,
              children: list[tuple[float, float]]) -> float:
    """A span's duration minus the part its child spans cover."""
    return (end - start) - covered(start, end, children)
