from __future__ import annotations

import csv
from fractions import Fraction

import pytest

from simcamp.engine import CostModel
from simcamp.metrics import (
    PROGRESS_COLUMNS,
    REPORT_COLUMNS,
    completion_time,
    inflation_table,
    memory_efficiency,
    omission_probability,
    speedup,
    write_progress_csv,
    write_report_csv,
)
from simcamp.optimizer import optimize_slice
from simcamp.oracles import naive_campaign
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
    best = optimize_slice(ordered, build_tree(sorted(ordered, key=lambda t: t.symbols)), None, 1.0)
    tight = optimize_slice(ordered, build_tree(sorted(ordered, key=lambda t: t.symbols)), 1, 1.0)
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
    optimized = optimize_slice(
        ordered, build_tree(sorted(ordered, key=lambda t: t.symbols)), None, 1.0
    )
    baseline = naive_campaign(ordered, 1.0)
    cost = CostModel(load=0.25, store=0.25, free=0.0, out=0.0, run_per_q=1.0)
    table = inflation_table([optimized], [baseline], cost, (1.0, 10.0, 100.0))
    fs = [f for f, _ in table]
    ups = [s for _, s in table]
    assert fs == [1.0, 10.0, 100.0]
    assert ups == sorted(ups, reverse=True)
    with pytest.raises(ValueError):
        inflation_table([optimized], [baseline], cost, (0.5,))


def test_report_csv_columns(tmp_path):
    path = tmp_path / "report.csv"
    write_report_csv(
        [dict(zip(REPORT_COLUMNS, [10, 2, "4", 0, 1.0, 30, 4, 30.0, 1.5, 0.9]))],
        str(path),
    )
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == REPORT_COLUMNS
    assert rows[0] == ["N", "D", "sigma", "seed", "f", "length_q", "peak_mem",
                       "est_seconds", "speedup", "mem_eff"]
    assert len(rows) == 2


def test_progress_csv_columns(tmp_path):
    path = tmp_path / "progress.csv"
    write_progress_csv(
        [dict(zip(PROGRESS_COLUMNS, [0, 5, 10, 0.5]))], str(path)
    )
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["slice", "j", "n", "op_bound"]
    assert rows[1] == ["0", "5", "10", "0.5"]
