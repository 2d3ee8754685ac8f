from __future__ import annotations

import hashlib
import random

import pytest

from simcamp.slicing import (
    DuplicateTraceError,
    external_sort,
    order_slice,
    slice_ranges,
)
from simcamp.traces import read_trace_file
from util import t, ts


def test_slice_ranges():
    assert slice_ranges(10, 3) == [(0, 4), (4, 7), (7, 10)]
    assert slice_ranges(6, 3) == [(0, 2), (2, 4), (4, 6)]
    assert slice_ranges(5, 1) == [(0, 5)]
    assert slice_ranges(3, 3) == [(0, 1), (1, 2), (2, 3)]
    with pytest.raises(ValueError):
        slice_ranges(2, 3)
    with pytest.raises(ValueError):
        slice_ranges(2, 0)


def test_order_slice_lex():
    shuffled = ts("ba", "aab", "a", "abc")
    ordered = order_slice(shuffled, "lex")
    assert [x.tokens() for x in ordered] == [
        ("a",), ("a", "a", "b"), ("a", "b", "c"), ("b", "a")
    ]
    assert shuffled[0].tokens() == ("b", "a")  # input untouched


def test_order_slice_random_is_seed_deterministic():
    traces = ts("a", "b", "ab", "ba", "aa")
    once = order_slice(traces, "random", seed=5)
    again = order_slice(traces, "random", seed=5)
    assert [x.symbols for x in once] == [x.symbols for x in again]
    assert sorted(x.symbols for x in once) == sorted(x.symbols for x in traces)


def test_order_slice_given_and_errors():
    traces = ts("b", "a")
    assert [x.symbols for x in order_slice(traces, "given")] == [(1,), (0,)]
    with pytest.raises(ValueError):
        order_slice([], "lex")
    with pytest.raises(ValueError):
        order_slice(traces, "sideways")


def write_corpus(path, rows, header="#alphabet=a,b,c,d;q=1"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def test_external_sort_small(tmp_path):
    src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
    write_corpus(src, ["b,a", "a,a,b", "a", "a,b,c"])
    report = external_sort(str(src), str(dst))
    assert report == {"traces_in": 4, "traces_out": 4, "duplicates": 0, "runs": 1}
    back = read_trace_file(str(dst))
    assert [x.tokens() for x in back.traces] == [
        ("a",), ("a", "a", "b"), ("a", "b", "c"), ("b", "a")
    ]
    assert back.quantum == 1.0


def test_external_sort_merges_many_runs(tmp_path):
    src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
    rows = [f"{x},{y},{z}" for x in "dcba" for y in "ab" for z in "abc"]
    write_corpus(src, rows)
    # a 4-symbol budget forces a run per one-or-two traces
    report = external_sort(str(src), str(dst), budget_symbols=4)
    assert report["runs"] > 4
    assert report["traces_out"] == len(rows)
    back = read_trace_file(str(dst))
    symbols = [x.symbols for x in back.traces]
    assert symbols == sorted(symbols)
    assert len(set(symbols)) == len(rows)


def test_external_sort_rejects_duplicates(tmp_path):
    src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
    write_corpus(src, ["b,a", "a,a", "b,a"])
    with pytest.raises(DuplicateTraceError, match="b,a"):
        external_sort(str(src), str(dst))
    assert not dst.exists()  # no partial output left behind


def test_external_sort_dedupe_keeps_first(tmp_path):
    src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
    write_corpus(src, ["b,a", "a,a", "b,a", "a,a", "c"])
    report = external_sort(str(src), str(dst), budget_symbols=3, dedupe=True)
    assert report["duplicates"] == 2
    assert report["traces_out"] == 3
    back = read_trace_file(str(dst))
    assert [x.tokens() for x in back.traces] == [("a", "a"), ("b", "a"), ("c",)]


# A corpus over multi-character tokens whose alphabet order differs from
# string order, with a comment, blank lines and stray whitespace.  The
# digest was recorded before the merge started writing run lines verbatim;
# it pins that the sorted output keeps its bytes, with and without
# duplicates to drop.
MULTI_RUN_HEADER = "#alphabet=b,aa,a,ccc;q=0.5"
MULTI_RUN_DIGEST = "27b5c7e806bcb634ef01b66e0972dcfaacd33968b228b0a8447686e72c8f266a"


def multi_run_rows(dedupe):
    rng = random.Random(11)
    tokens = ("b", "aa", "a", "ccc")
    seen, rows = set(), []
    while len(rows) < 300:
        row = ",".join(rng.choice(tokens) for _ in range(rng.randint(1, 6)))
        if row not in seen:
            seen.add(row)
            rows.append(row)
    if dedupe:
        rows += rows[::3]
        rng.shuffle(rows)
    rows[7] = "  " + rows[7] + " \t"
    return rows[:50] + ["", "# a comment"] + rows[50:]


@pytest.mark.parametrize("dedupe", [False, True])
def test_external_sort_over_many_runs_is_byte_identical(tmp_path, dedupe):
    src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
    write_corpus(src, multi_run_rows(dedupe), header=MULTI_RUN_HEADER)
    report = external_sort(str(src), str(dst), budget_symbols=64, dedupe=dedupe)
    assert report["runs"] >= 5
    assert report["traces_out"] == 300
    assert report["duplicates"] == (100 if dedupe else 0)
    assert hashlib.sha256(dst.read_bytes()).hexdigest() == MULTI_RUN_DIGEST
