"""Order statistics shared by the workloads, the runner and ``compare``.

Percentiles are nearest-rank over the full sample (no histogram
buckets, no interpolation), so a reported value is always one that was
actually measured.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: Candidate tail levels, highest first; see :func:`tail`.
TAIL_LEVELS: Tuple[float, ...] = (99.9, 99.0, 95.0, 90.0)


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of level ``q`` in ``n`` samples (rounded
    first, so 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of a sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile level must be in (0, 100], got {q}")
    return sorted(values)[_rank(q, len(values)) - 1]


def tail(
    values: Sequence[float], min_beyond: int = 10
) -> Optional[Tuple[float, float, int]]:
    """The highest level in :data:`TAIL_LEVELS` that has at least
    ``min_beyond`` samples above its rank, as ``(level, value, beyond)``;
    ``None`` when even p90 has too few samples beyond it."""
    n = len(values)
    for level in TAIL_LEVELS:
        beyond = n - _rank(level, n)
        if beyond >= min_beyond:
            return level, percentile(values, level), beyond
    return None


def latency_summary(seconds: Sequence[float], prefix: str = "") -> Dict[str, dict]:
    """``p50_ms``/``p90_ms`` plus the ungated tail of a latency sample,
    as metric records ``{name: {"value", "unit", "n"}}``."""
    n = len(seconds)
    out = {
        f"{prefix}p50_ms": metric(percentile(seconds, 50) * 1e3, "ms", n),
        f"{prefix}p90_ms": metric(percentile(seconds, 90) * 1e3, "ms", n),
    }
    found = tail(seconds)
    if found is not None:
        level, value, beyond = found
        out[f"{prefix}tail_ms"] = metric(
            value * 1e3, "ms", n, level=level, beyond=beyond
        )
    return out


def metric(value: float, unit: str, n: int, **extra) -> dict:
    """One metric record: the measured value, its unit, its sample count."""
    return {"value": float(value), "unit": unit, "n": int(n), **extra}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them (a single value is its own quartiles)."""
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf
