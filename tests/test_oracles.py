from __future__ import annotations

import pytest

from simcamp.engine import execute, reference_model
from simcamp.oracles import (
    OracleBudgetError,
    edge_count,
    naive_campaign,
    optimal_campaign_length,
    shared_prefix_counts,
    shared_prefixes,
)
from util import ABCD, t, ts


def sym(text: str) -> tuple[int, ...]:
    return t(text).symbols


def test_shared_prefixes_examples():
    assert shared_prefixes(ts("aab", "aac")) == {sym("aa")}
    assert shared_prefixes(ts("aa", "ab", "ba")) == {(), sym("a")}
    assert shared_prefixes(ts("aab")) == set()
    assert shared_prefixes(ts("aa", "aab")) == {sym("aa")}
    assert shared_prefixes(ts("aa", "ab", "ac", "b")) == {(), sym("a")}


def test_shared_prefix_counts():
    assert shared_prefix_counts(ts("aa", "ab", "ba")) == {(): 3, sym("a"): 2}
    assert shared_prefix_counts(ts("aab", "aac")) == {sym("aa"): 2}
    assert shared_prefix_counts(ts("aa", "aab")) == {sym("aa"): 2}


def test_edge_count():
    # distinct non-empty prefixes: a, aa, aab, aac
    assert edge_count(ts("aab", "aac")) == 4
    # a, aa, ab, b, ba
    assert edge_count(ts("aa", "ab", "ba")) == 5
    assert edge_count(ts("a")) == 1


def test_budgets_guard_pathological_inputs():
    with pytest.raises(OracleBudgetError):
        edge_count(ts("aab", "aac"), budget=3)
    with pytest.raises(OracleBudgetError):
        shared_prefixes(ts("aa", "ab", "ba"), budget=2)


def test_optimal_campaign_length_examples():
    # sigma=1 holds only the initial state: every trace replays in full.
    ordered = ts("ab", "a", "abbb", "abb")
    assert [optimal_campaign_length(ordered, s) for s in (1, 2, 3, 4)] == [
        10, 5, 4, 4
    ]
    # Shared prefixes a, aa and b.  Three slots beside the root reach the
    # edge count; with two, "b" is held from bb to ba and "a" from aab to
    # aac, so aac replays its "a"; with one, "a" (or "aa") serves two of
    # aab's neighbours and ba replays in full.
    ordered = ts("bb", "aab", "ab", "aac", "ba")
    assert [optimal_campaign_length(ordered, s) for s in (1, 2, 3, 4)] == [
        12, 10, 9, 8
    ]
    assert edge_count(ordered) == 8
    assert optimal_campaign_length(ts("aab"), 1) == 3


def test_optimal_campaign_length_guards():
    ordered = ts("aab", "aac", "ab", "b")
    with pytest.raises(OracleBudgetError):
        optimal_campaign_length(ordered, 2, budget=1)
    with pytest.raises(ValueError):
        optimal_campaign_length(ordered, 0)


def test_naive_campaign_singleton():
    campaign = naive_campaign(ts("ab"), 1.0)
    assert campaign.lines == [
        "STORE 0",
        "LOAD 0",
        "RUN a 1",
        "RUN b 1",
        "OUT",
    ]


def test_naive_campaign_two_traces():
    campaign = naive_campaign(ts("aab", "aac"), 0.5)
    assert campaign.lines == [
        "STORE 0",
        "LOAD 0",
        "RUN a 2",
        "RUN b 1",
        "OUT",
        "LOAD 0",
        "RUN a 2",
        "RUN c 1",
        "OUT",
    ]
    assert campaign.length_quanta == 6
    assert campaign.peak_stored == 1


def test_naive_campaign_rejects_empty():
    with pytest.raises(ValueError):
        naive_campaign([], 1.0)


def test_naive_campaign_replays_the_slice():
    ordered = ts("ba", "aab", "a")
    result = execute(naive_campaign(ordered, 1.0), reference_model(ABCD, 3))
    assert result.executable
    assert [o.symbols for o in result.observations] == [x.symbols for x in ordered]
    assert result.peak_memory == 1
    assert result.length_quanta == 6
