"""Summary statistics shared by the ledger's runs and its span analysis."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple


def median(values: Sequence[float]) -> float:
    """The median, or 0.0 for an empty sample."""
    return statistics.median(values) if values else 0.0


def tail_percentile(
    values: Sequence[float], cap: float = 95.0, min_beyond: int = 10
) -> Tuple[float, float]:
    """``(percentile, value)``: the highest whole percentile up to ``cap``
    that still has at least ``min_beyond`` samples above it.

    Uses the nearest-rank definition.  From 200 samples on this is the
    p95 itself; smaller samples fall back to a lower percentile rather
    than reporting a tail that rests on a handful of observations.  Ten
    or fewer samples have no supported tail and report the median.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    ordered = sorted(values)
    if n <= min_beyond:
        return 50.0, median(ordered)
    pct = min(cap, math.floor(100.0 * (n - min_beyond) / n))
    rank = max(1, math.ceil(pct / 100.0 * n))
    return float(pct), ordered[rank - 1]


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of every span: its duration minus the part of its
    interval covered by its direct children.

    Each span is ``(name, start, end, parent, op_id)`` with ``parent`` the
    index of the enclosing span or ``None``.  Children of one parent never
    overlap on a single thread, but the union is taken anyway so a span
    recorded from another thread cannot drive a self time negative.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span[3]
        if parent is not None:
            children.setdefault(parent, []).append((span[1], span[2]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(max(0.0, (end - start) - covered))
    return out


def counter_delta(before: Dict[str, float], after: Dict[str, float], name: str,
                  label: str = "") -> float:
    """Change of one registry series between two ``metrics_snapshot()``
    dicts.  ``label`` selects one labelled sample (``'outcome="hit"'``);
    without it every sample of ``name`` (plain or labelled) is summed."""
    def total(snapshot: Dict[str, float]) -> float:
        if label:
            return snapshot.get(f"{name}{{{label}}}", 0.0)
        return sum(
            value
            for key, value in snapshot.items()
            if key == name or key.startswith(name + "{")
        )

    return total(after) - total(before)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0
