"""Per-layer metrics of one traced workload run, from its spans and outputs.

A span's self time is its duration minus the time its direct child spans
cover, so nested calls are charged to the innermost layer (for example, the
progress writes made from inside ``execute`` go to ``pipeline.json_s``).
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from workloads import Outcome

# name -> unit, in the order they are reported.
PER_LAYER = {
    "generator.table_s": "s",
    "generator.get_s": "s",
    "generator.get_calls": "count",
    "slicing.sort_s": "s",
    "slicing.sort_runs": "count",
    "traces.read_s": "s",
    "traces.write_s": "s",
    "traces.symbols_read": "count",
    "tree.build_s": "s",
    "tree.build_calls": "count",
    "tree.useful_ratio": "ratio",
    "tree.shared_prefixes": "count",
    "optimizer.optimize_s": "s",
    "optimizer.optimize_calls": "count",
    "optimizer.useful_ratio": "ratio",
    "optimizer.commands": "count",
    "optimizer.stores": "count",
    "optimizer.loads": "count",
    "optimizer.dead_frees": "count",
    "optimizer.evictions": "count",
    "optimizer.write_s": "s",
    "optimizer.read_s": "s",
    "engine.execute_s": "s",
    "engine.us_per_command": "us",
    "engine.external_s": "s",
    "engine.external_us_per_command": "us",
    "pipeline.slice_task_p50_s": "s",
    "pipeline.slice_task_max_s": "s",
    "pipeline.slice_imbalance": "ratio",
    "pipeline.progress_writes": "count",
    "pipeline.json_s": "s",
    "pipeline.analyze_s": "s",
    "pipeline.self_s": "s",
    "trace.overhead_s": "s",
}

# Spans that are orchestration, charged to pipeline.self_s.
ORCHESTRATION = {"cli.main", "prepare_slices", "_run_slice_task"}


class SpanSummary:
    def __init__(self, reports: list[list[list]]) -> None:
        """``reports``: the span lists of the run's processes."""
        self.self_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.attrs: dict[str, list[dict]] = defaultdict(list)
        for spans in reports:
            covered = [0.0] * len(spans)
            for name, start, end, parent, _run, _attrs in spans:
                if parent >= 0:
                    covered[parent] += end - start
            for (name, start, end, _parent, _run, attrs), inner in zip(spans, covered):
                self.self_s[name] += end - start - inner
                self.durations[name].append(end - start)
                if attrs is not None:
                    self.attrs[name].append(attrs)

    def calls(self, name: str) -> int:
        return len(self.durations[name])

    def attr_sum(self, name: str, key: str) -> int:
        return sum(a[key] for a in self.attrs[name])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(reports: list[list[list]], wall_s: float, outcome: Outcome) -> dict:
    """Every per-layer metric except ``trace.overhead_s``."""
    s = SpanSummary(reports)
    tasks = s.durations["_run_slice_task"]
    attributed = sum(v for name, v in s.self_s.items() if name not in ORCHESTRATION)
    local_commands = outcome.commands if s.calls("execute") else 0
    external_commands = outcome.commands if s.calls("run_external") else 0
    metrics = {
        "generator.table_s": s.self_s["GeneratorTable"],
        "generator.get_s": s.self_s["GeneratorTable.get"],
        "generator.get_calls": s.calls("GeneratorTable.get"),
        "slicing.sort_s": s.self_s["external_sort"],
        "slicing.sort_runs": s.attr_sum("external_sort", "runs"),
        "traces.read_s": s.self_s["read_trace_file"],
        "traces.write_s": s.self_s["write_trace_file"],
        "traces.symbols_read": s.attr_sum("read_trace_file", "symbols"),
        "tree.build_s": s.self_s["build_tree"],
        "tree.build_calls": s.calls("build_tree"),
        "tree.useful_ratio": _ratio(outcome.slices, s.calls("build_tree")),
        "optimizer.optimize_s": s.self_s["optimize_slice"],
        "optimizer.optimize_calls": s.calls("optimize_slice"),
        "optimizer.useful_ratio": _ratio(
            s.calls("write_campaign_file"), s.calls("optimize_slice")
        ),
        "optimizer.write_s": s.self_s["write_campaign_file"],
        "optimizer.read_s": s.self_s["read_campaign_file"],
        "engine.execute_s": s.self_s["execute"],
        "engine.us_per_command": _ratio(s.self_s["execute"] * 1e6, local_commands),
        "engine.external_s": s.self_s["run_external"],
        "engine.external_us_per_command": _ratio(
            s.self_s["run_external"] * 1e6, external_commands
        ),
        "pipeline.slice_task_p50_s": statistics.median(tasks) if tasks else 0.0,
        "pipeline.slice_task_max_s": max(tasks, default=0.0),
        "pipeline.slice_imbalance": _ratio(max(tasks, default=0.0),
                                           statistics.fmean(tasks) if tasks else 0.0),
        "pipeline.progress_writes": sum(
            a["progress"] for a in s.attrs["write_json_atomic"]
        ),
        "pipeline.json_s": s.self_s["write_json_atomic"],
        "pipeline.analyze_s": s.self_s["analyze_runs"],
        "pipeline.self_s": wall_s - attributed,
    }
    metrics.update(outcome.counters())
    return metrics
