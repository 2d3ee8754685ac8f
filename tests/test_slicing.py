from __future__ import annotations

import hashlib
import os
import random
import string

import pytest

import simcamp.slicing as slicing
from simcamp.slicing import (
    DuplicateTraceError,
    external_sort,
    order_slice,
    slice_ranges,
)
from simcamp.traces import Alphabet, TraceFormatError, read_trace_file
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
    assert [x.symbols for x in order_slice(traces, "given")] == [b"\x01", b"\x00"]
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


# Every printable ASCII character that can be a token.
ASCII_TOKENS = [c for c in string.printable if not c.isspace() and c not in ",;#"]


def random_sort_case(rng):
    """A corpus that meets each hazard of the sort's run records: symbol
    indices up to 255 (alphabets of up to 256 tokens, 256 itself drawn
    often), multi-byte tokens, alphabet order unlike string order, proper
    prefixes of other traces (planted last, so a small budget puts them
    in another run) and planted duplicates.  Some alphabets are single
    printable ASCII characters in an order unlike ASCII order, which the
    codec reads without splitting lines into tokens."""
    if rng.random() < 0.3:
        size = rng.choice((1, 2, 3, rng.randint(4, len(ASCII_TOKENS))))
        tokens = rng.sample(ASCII_TOKENS, size)
        if size > 1 and tokens == sorted(tokens):
            tokens.reverse()
    else:
        size = rng.choice((1, 2, 3, rng.randint(4, 256), 256))
        tokens = ["é", "日本", "a"] + [f"t{i}" for i in range(size)] + ["zé"]
        tokens = rng.sample(tokens, size)
    alphabet = Alphabet(tuple(tokens))
    traces = set()
    for _ in range(rng.randint(1, 40)):
        horizon = rng.randint(1, 8)
        traces.add(tuple(rng.randrange(size) for _ in range(horizon)))
    traces = list(traces)
    rng.shuffle(traces)
    for trace in traces[: rng.randint(0, 4)]:
        if len(trace) > 1:
            traces.append(trace[: rng.randint(1, len(trace) - 1)])
    lines = list(dict.fromkeys(alphabet.format_line(x) for x in traces))
    duplicates = rng.sample(lines, min(len(lines), rng.choice((0, 0, 1, 3))))
    for line in duplicates:
        lines.insert(rng.randint(0, len(lines)), line)
    return alphabet, lines, duplicates


@pytest.mark.parametrize("dedupe", [False, True])
def test_external_sort_matches_an_in_memory_sort(tmp_path, dedupe):
    rng = random.Random(1409 + dedupe)
    for case in range(150):
        alphabet, lines, duplicates = random_sort_case(rng)

        def index_key(line):
            return tuple(map(alphabet.index, line.split(",")))

        header = f"#alphabet={','.join(alphabet.tokens)};q=0.25"
        src, dst = tmp_path / f"in{case}.txt", tmp_path / f"out{case}.txt"
        rows = [
            " " + line + "\t" if rng.random() < 0.1 else line for line in lines
        ]
        src.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        total = sum(len(alphabet.parse_line(line)) for line in lines)
        budget = rng.randint(1, total)
        # The reference order: symbol indices compared as tuples.
        ordered = sorted(set(lines), key=index_key)
        if duplicates and not dedupe:
            first = min(duplicates, key=index_key)
            with pytest.raises(DuplicateTraceError) as err:
                external_sort(str(src), str(dst), budget_symbols=budget)
            assert str(err.value) == "duplicate trace " + first, case
            assert not dst.exists(), case
            continue
        report = external_sort(str(src), str(dst), budget_symbols=budget,
                               dedupe=dedupe)
        expected = header + "\n" + "".join(line + "\n" for line in ordered)
        assert dst.read_bytes() == expected.encode("utf-8"), case
        assert report["traces_in"] == len(lines)
        assert report["traces_out"] == len(ordered)
        assert report["duplicates"] == len(lines) - len(ordered)


@pytest.mark.parametrize("case", ["sorted", "duplicate", "bad token"])
def test_no_run_file_outlives_the_sort(tmp_path, monkeypatch, case):
    src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
    rows = [f"{x},{y}" for x in "dcba" for y in "abcd"]
    if case == "duplicate":
        rows.append("c,b")
    if case == "bad token":
        rows.insert(12, "a,z")
    write_corpus(src, rows)
    dst.write_text("left untouched\n")
    seen = []
    make_runs = slicing._run_files

    def spy(lines, tmp_dir, *args):
        try:
            return make_runs(lines, tmp_dir, *args)
        finally:
            seen.append((tmp_dir, os.listdir(tmp_dir)))

    monkeypatch.setattr(slicing, "_run_files", spy)
    # a 4-symbol budget writes a run for every two traces
    if case == "sorted":
        external_sort(str(src), str(dst), budget_symbols=4)
        assert dst.read_text().splitlines()[1:] == sorted(rows)
    else:
        error = DuplicateTraceError if case == "duplicate" else TraceFormatError
        with pytest.raises(error):
            external_sort(str(src), str(dst), budget_symbols=4)
        assert dst.read_text() == "left untouched\n"
    [(tmp_dir, run_files)] = seen
    assert len(run_files) == {"sorted": 8, "duplicate": 9, "bad token": 6}[case]
    assert not os.path.exists(tmp_dir)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.txt", "out.txt"]


def test_external_sort_needs_a_budget_of_one_symbol(tmp_path):
    src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
    write_corpus(src, ["a,b"])
    with pytest.raises(ValueError, match="^memory budget must be >= 1 symbol$"):
        external_sort(str(src), str(dst), budget_symbols=0)
    assert not dst.exists()

