"""Campaign measurements: the cost model, completion time, speedups,
efficiency, omission, and the report rows and CSV files made from them.

The report is computed on one path: ``estimate_seconds`` prices a
campaign summary (its length and command counts) under a ``CostModel``
with Load and Store inflated by a factor f, and ``report_rows`` turns the
per-slice summaries of one or more runs into rows over an f grid, which
``check_f_grid`` checks for the report and the command line alike.  The
ratios are pure arithmetic over collected statistics, so tests can feed
exact Fractions through them; nothing here rounds or coerces.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .traces import TraceFormatError, atomic_text_file

REPORT_COLUMNS = [
    "N", "D", "sigma", "seed", "f",
    "length_q", "peak_mem", "est_seconds",
    "speedup", "mem_eff",
]

PROGRESS_COLUMNS = ["slice", "j", "n", "op_bound"]


# ---------------------------------------------------------------------------
# Cost model
#
#   file format (whitespace-separated key=value pairs):
#     load=<s> store=<s> free=<s> out=<s> run_per_q=<s>
# ---------------------------------------------------------------------------


# The per-command costs; a cost file must give all five.
_COSTS = ("load", "store", "free", "out", "run_per_q")


@dataclass(frozen=True, slots=True)
class CostModel:
    """Per-command wall-clock costs in seconds, each finite and >= 0 (NaN
    is neither), and ``run_per_q`` > 0, so that every campaign, which runs
    at least one quantum, takes time.  The report inflates Load and Store
    by each factor of its f grid."""

    load: float
    store: float
    free: float = 0.0
    out: float = 0.0
    run_per_q: float = 1.0

    def __post_init__(self) -> None:
        for key in _COSTS:
            value = getattr(self, key)
            if not 0 <= value < math.inf:
                raise ValueError(f"cost {key} must be finite and >= 0, not {value:g}")
        if self.run_per_q == 0:
            raise ValueError("cost run_per_q must be > 0, not 0")


def parse_cost_model(text: str) -> CostModel:
    """Parse ``key=value`` cost entries, where ``#`` starts a comment that
    runs to the end of its line; unknown or repeated keys are errors."""
    values: dict[str, float] = {}
    for line in text.splitlines():
        for token in line.partition("#")[0].split():
            key, eq, raw = token.partition("=")
            if not eq:
                raise TraceFormatError(f"malformed cost entry {token!r}")
            if key not in _COSTS:
                raise TraceFormatError(f"unknown cost key {key!r}")
            if key in values:
                raise TraceFormatError(f"repeated cost key {key!r}")
            try:
                values[key] = float(raw)
            except ValueError as exc:
                raise TraceFormatError(f"malformed cost entry {token!r}") from exc
    missing = set(_COSTS) - values.keys()
    if missing:
        raise TraceFormatError(f"cost model missing keys: {sorted(missing)}")
    try:
        return CostModel(**values)
    except ValueError as exc:
        raise TraceFormatError(f"cost model: {exc}") from None


def read_cost_file(path: str) -> CostModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_cost_model(fh.read())


# Without a cost file a campaign costs its simulated quanta, so the report
# compares lengths; without an f grid, Load and Store are not inflated.
DEFAULT_COSTS = CostModel(load=0.0, store=0.0, free=0.0, out=0.0, run_per_q=1.0)
DEFAULT_F_GRID = (1.0,)


def check_f_grid(f_grid: Sequence[float]) -> None:
    """Refuse an empty f grid, or a factor that is below 1 or not finite:
    an infinite f times a zero cost would make an estimate NaN."""
    if not f_grid:
        raise ValueError("the f grid names no inflation factor")
    for f in f_grid:
        if not 1 <= f < math.inf:
            raise ValueError(
                f"inflation factor f must be >= 1 and finite, not {f:g}"
            )


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


def estimate_seconds(summary: dict, cost: CostModel, f: float) -> float:
    """Estimated wall-clock seconds of a campaign from its summary (its
    ``length_q`` and command ``counts``); Load and Store are inflated by
    ``f``."""
    counts = summary["counts"]
    return (
        summary["length_q"] * cost.run_per_q
        + counts.get("load", 0) * cost.load * f
        + counts.get("store", 0) * cost.store * f
        + counts.get("free", 0) * cost.free
        + counts.get("out", 0) * cost.out
    )


_KINDS = ("requested", "baseline", "unlimited")


def report_rows(
    runs: Sequence[tuple[dict, Sequence[dict]]],
    cost: CostModel,
    f_grid: Sequence[float],
) -> list[dict]:
    """The report rows of one or more runs, each a run's config and its
    per-slice results.

    A result holds the ``requested``, ``baseline`` (sigma=1) and
    ``unlimited`` campaign summaries of its slice.  Each run gets one row
    per f and campaign kind; with several runs (e.g. the same study at
    different master seeds), seed="mean" rows follow, grouped by (N, D,
    sigma, f).
    """
    check_f_grid(f_grid)
    rows: list[dict] = []
    for config, results in runs:
        sigma_label = {
            "requested": str(config["sigma"]),
            "baseline": "1",
            "unlimited": "unlimited",
        }
        for f in f_grid:
            times = {
                kind: completion_time(
                    estimate_seconds(r[kind], cost, f) for r in results
                )
                for kind in _KINDS
            }
            for kind in _KINDS:
                t = times[kind]
                rows.append(
                    {
                        "N": config["n_total"],
                        "D": config["slices"],
                        "sigma": sigma_label[kind],
                        "seed": config["seed"],
                        "f": f,
                        "length_q": max(r[kind]["length_q"] for r in results),
                        "peak_mem": max(r[kind]["peak_stored"] for r in results),
                        "est_seconds": t,
                        "speedup": speedup(times["baseline"], t),
                        "mem_eff": memory_efficiency(times["unlimited"], t),
                    }
                )
    if len(runs) > 1:
        groups: dict[tuple, list[dict]] = {}
        for row in rows:
            key = (row["N"], row["D"], row["sigma"], row["f"])
            groups.setdefault(key, []).append(row)
        for (n, d, sigma, f), group in groups.items():
            row = {"N": n, "D": d, "sigma": sigma, "seed": "mean", "f": f}
            for key in REPORT_COLUMNS[5:]:
                row[key] = sum(r[key] for r in group) / len(group)
            rows.append(row)
    return rows


def write_csv(rows: Iterable[dict], path: str, columns: Sequence[str]) -> None:
    """Write ``rows`` under a header of ``columns``, all or nothing: a
    failure part way keeps the file that was there."""
    with atomic_text_file(path) as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
