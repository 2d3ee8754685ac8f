"""Campaign measurements: completion time, speedups, efficiency, omission.

All ratios are pure arithmetic over collected statistics, so tests can
feed exact Fractions through them; nothing here rounds or coerces.
"""

from __future__ import annotations

import csv
from typing import Iterable, Sequence

from .engine import CostModel, estimate_seconds
from .optimizer import Campaign

REPORT_COLUMNS = [
    "N", "D", "sigma", "seed", "f",
    "length_q", "peak_mem", "est_seconds",
    "speedup", "mem_eff",
]

PROGRESS_COLUMNS = ["slice", "j", "n", "op_bound"]


def completion_time(per_slice_seconds: Iterable[float]) -> float:
    """A parallel campaign finishes when its slowest slice does."""
    values = list(per_slice_seconds)
    if not values:
        raise ValueError("completion time of an empty campaign set")
    return max(values)


def speedup(baseline_seconds: float, optimized_seconds: float) -> float:
    """How much faster than the single-state baseline: time(1) / time(sigma)."""
    return baseline_seconds / optimized_seconds


def memory_efficiency(unlimited_seconds: float, limited_seconds: float) -> float:
    """How much of the unlimited-memory performance survives the budget."""
    return unlimited_seconds / limited_seconds


def omission_probability(progress: Sequence[tuple[int, int]]) -> float:
    """Upper bound on the chance a failing trace is still unverified.

    With every slice in uniformly random order, a planted failure escapes
    the first j_i of n_i traces of its slice with probability 1 - j_i/n_i;
    the laggard slice dominates.  Clamped to [0, 1].
    """
    if not progress:
        raise ValueError("empty progress vector")
    worst = 1.0
    for done, size in progress:
        if size < 1:
            raise ValueError("slice size must be >= 1")
        worst = min(worst, done / size)
    return min(1.0, max(0.0, 1.0 - worst))


def inflation_table(
    optimized: Sequence[Campaign],
    baseline: Sequence[Campaign],
    cost: CostModel,
    f_grid: Sequence[float],
) -> list[tuple[float, float]]:
    """Speedup per checkpoint-cost inflation factor.

    Each f scales the Load and Store costs while Run cost stays fixed;
    the returned speedups compare completion times of the same two
    campaign sets under the inflated cost model.
    """
    rows = []
    for f in f_grid:
        inflated = cost.with_inflation(f)
        base_time = completion_time(
            estimate_seconds(c, inflated) for c in baseline
        )
        opt_time = completion_time(
            estimate_seconds(c, inflated) for c in optimized
        )
        rows.append((f, speedup(base_time, opt_time)))
    return rows


def write_report_csv(rows: Iterable[dict], path: str) -> None:
    """Rows keyed by (N, D, sigma, seed, f); seed "mean" marks averages."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def write_progress_csv(rows: Iterable[dict], path: str) -> None:
    """Per-slice verification progress; op_bound is that slice's 1 - j/n."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=PROGRESS_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
