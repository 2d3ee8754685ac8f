from __future__ import annotations

import csv
import math
from fractions import Fraction

import pytest

from simcamp.metrics import (
    PROGRESS_COLUMNS,
    REPORT_COLUMNS,
    CostModel,
    completion_time,
    memory_efficiency,
    omission_probability,
    report_rows,
    speedup,
    write_csv,
)
from simcamp.optimizer import optimize_slice
from simcamp.oracles import naive_campaign
from simcamp.pipeline import _campaign_summary
from simcamp.tree import build_tree
from util import ts


def test_completion_time_is_the_slowest_slice():
    assert completion_time([3.0, 9.5, 1.0]) == 9.5
    with pytest.raises(ValueError):
        completion_time([])


def test_speedup_and_efficiencies():
    assert speedup(12.0, 3.0) == 4.0
    assert memory_efficiency(4.0, 5.0) == 0.8
    with pytest.raises(ZeroDivisionError):
        speedup(1.0, 0.0)


def test_memory_efficiency_two_trace_example():
    # run-only costs: the sigma=1 replay of the pair costs 6 quanta vs 4
    ordered = ts("aab", "aac")
    tree = build_tree(ordered)
    best = optimize_slice(tree, None, 1.0)
    tight = optimize_slice(tree, 1, 1.0)
    eff = memory_efficiency(best.length_quanta, tight.length_quanta)
    assert eff == pytest.approx(4 / 6)


def test_omission_probability():
    assert omission_probability([(10, 10), (7, 7)]) == 0.0
    assert omission_probability([(0, 10)]) == 1.0
    assert omission_probability([(5, 10), (9, 10)]) == 0.5
    assert omission_probability([(12, 10)]) == 0.0  # clamped
    with pytest.raises(ValueError):
        omission_probability([])
    with pytest.raises(ValueError):
        omission_probability([(0, 0)])


def test_speedup_is_exact_with_fractions():
    got = speedup(Fraction(435, 4), Fraction(83, 4))
    assert got == Fraction(435, 83)
    assert isinstance(got, Fraction)


def test_inflation_table():
    ordered = ts("aab", "aac")
    optimized = _campaign_summary(optimize_slice(build_tree(ordered), None, 1.0))
    config = {"n_total": 2, "slices": 1, "seed": 0, "sigma": "capacity"}
    result = {
        "requested": optimized,
        "baseline": _campaign_summary(naive_campaign(ordered, 1.0)),
        "unlimited": optimized,
    }
    cost = CostModel(load=0.25, store=0.25, free=0.0, out=0.0, run_per_q=1.0)
    rows = report_rows([(config, [result])], cost, (1.0, 10.0, 100.0))
    requested = [r for r in rows if r["sigma"] == "capacity"]
    assert [r["f"] for r in requested] == [1.0, 10.0, 100.0]
    ups = [r["speedup"] for r in requested]
    assert ups == sorted(ups, reverse=True)
    # An infinite f times a zero cost would make an estimate NaN.
    for bad in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="f must be >= 1 and finite"):
            report_rows([(config, [result])], cost, (bad,))


def test_report_csv_columns(tmp_path):
    path = tmp_path / "report.csv"
    write_csv(
        [dict(zip(REPORT_COLUMNS, [10, 2, "4", 0, 1.0, 30, 4, 30.0, 1.5, 0.9]))],
        str(path),
        REPORT_COLUMNS,
    )
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == REPORT_COLUMNS
    assert rows[0] == ["N", "D", "sigma", "seed", "f", "length_q", "peak_mem",
                       "est_seconds", "speedup", "mem_eff"]
    assert len(rows) == 2


def test_progress_csv_columns(tmp_path):
    path = tmp_path / "progress.csv"
    write_csv(
        [dict(zip(PROGRESS_COLUMNS, [0, 5, 10, 0.5]))], str(path), PROGRESS_COLUMNS
    )
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["slice", "j", "n", "op_bound"]
    assert rows[1] == ["0", "5", "10", "0.5"]


@pytest.mark.parametrize(
    "columns", [REPORT_COLUMNS, PROGRESS_COLUMNS], ids=["report", "progress"]
)
def test_a_failed_csv_write_keeps_the_previous_file(tmp_path, columns):
    path = tmp_path / "out.csv"
    row = dict.fromkeys(columns, 1)
    write_csv([row, row], str(path), columns)
    before = path.read_bytes()

    def rows():
        yield row
        raise RuntimeError("analysis failed")

    with pytest.raises(RuntimeError, match="analysis failed"):
        write_csv(rows(), str(path), columns)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # no temp litter
