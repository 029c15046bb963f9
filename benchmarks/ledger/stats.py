"""Order statistics and the A/B comparison rule the ledger reports with."""

from __future__ import annotations

import statistics
from typing import Any, Sequence

__all__ = ["summary", "relative_iqr", "supports", "tail_percentile",
           "percentile", "compare"]

def summary(values: Sequence[float]) -> dict[str, float]:
    """median / q1 / q3 / n, quartiles as ``statistics.quantiles(n=4)``."""
    values = list(values)
    if len(values) < 2:
        q1 = q3 = median = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def relative_iqr(s: dict[str, float]) -> float:
    """A summary's interquartile range as a share of its median."""
    return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0


def supports(n: int, q: float, beyond: int = 10) -> bool:
    """Whether ``n`` samples leave at least ``beyond`` of them past
    percentile ``q`` -- the rule for which tail may be reported."""
    # Rounded: 100 - 99.9 is not exactly 0.1 in binary floating point.
    return round(n * (100.0 - q) / 100.0, 9) >= beyond


def tail_percentile(n: int) -> float:
    """The tail the ledger reports for ``n`` operations: the highest of
    p99 / p95 / p90 with ten samples beyond it (the median if none).

    Not p99.9: it moved +-17% between runs of the same code at these
    sample counts and is kept as a layer metric only.
    """
    return next((q for q in (99.0, 95.0, 90.0) if supports(n, q)), 50.0)


def percentile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of a sorted sample."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def compare(base: dict[str, Any], other: dict[str, Any],
            metrics: dict[str, dict[str, Any]]) -> list[dict[str, Any]]:
    """One verdict per (workload, end-to-end metric) row of two ledgers.

    ``base`` / ``other`` map workload -> metric -> :func:`summary`
    dicts; ``metrics`` maps metric name -> its ``BENCHMARK.json`` entry.
    A row is ``regression`` when ``other``'s median is worse than
    ``base``'s by more than the metric's bound, ``unresolved`` when
    either side's IQR is wider than the bound (so "unchanged" cannot be
    told from "changed"), ``improved`` when better by more than the
    bound, else ``ok``.  Every ratio is returned with its base.
    """
    rows = []
    for workload in base:
        for name, spec in metrics.items():
            a = base[workload].get(name)
            b = other.get(workload, {}).get(name)
            if a is None or b is None:
                continue
            bound = spec["bound"]
            ratio = b["median"] / a["median"] if a["median"] else float("nan")
            worse = 1.0 - ratio if spec["better"] == "higher" else ratio - 1.0
            widest = max(relative_iqr(a), relative_iqr(b))
            if worse > bound:
                verdict = "regression"
            elif widest > bound:
                verdict = "unresolved"
            elif -worse > bound:
                verdict = "improved"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": name, "unit": spec["unit"],
                "base": a["median"], "other": b["median"], "ratio": ratio,
                "worse_by": worse, "bound": bound, "spread": widest,
                "verdict": verdict,
            })
    return rows
