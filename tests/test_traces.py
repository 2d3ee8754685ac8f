from __future__ import annotations

import os
import pickle
import stat

import pytest
from hypothesis import given, strategies as st

from simcamp.engine import CostModel, read_cost_file
from simcamp.optimizer import (
    parse_campaign_header,
    parse_command,
    read_campaign_file,
    write_campaign_file,
)
from simcamp.oracles import naive_campaign
from simcamp.slicing import external_sort
from simcamp.traces import (
    Alphabet,
    AlphabetMismatchError,
    InputTrace,
    TraceCorpus,
    TraceFormatError,
    atomic_text_file,
    format_number,
    format_trace_header,
    parse_trace_header,
    read_trace_file,
    read_trace_lines,
)
from util import AB, ABCD, t, ts, write_trace_file


def test_alphabet_rejects_bad_tokens():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet.of("a", "a")
    with pytest.raises(ValueError):
        Alphabet.of("a,b")
    with pytest.raises(ValueError):
        Alphabet.of("x y")
    with pytest.raises(ValueError):
        Alphabet.of("")


def test_alphabet_index():
    assert ABCD.index("c") == 2
    with pytest.raises(TraceFormatError):
        ABCD.index("z")


def test_alphabet_with_its_table_keeps_value_semantics():
    a, b = Alphabet.of("b", "aa", "a"), Alphabet(("b", "aa", "a"))
    assert a == b and hash(a) == hash(b)
    assert a != Alphabet.of("a", "aa", "b")
    assert repr(a) == "Alphabet(tokens=('b', 'aa', 'a'))"
    back = pickle.loads(pickle.dumps(a))
    assert back == a and hash(back) == hash(a)
    assert [back.index(tok) for tok in ("b", "aa", "a")] == [0, 1, 2]


def test_trace_validation():
    with pytest.raises(ValueError):
        InputTrace(AB, ())
    with pytest.raises(ValueError):
        InputTrace(AB, (0, 2))
    with pytest.raises(ValueError):
        InputTrace(AB, (-1, 0))
    with pytest.raises(ValueError):
        InputTrace(AB, (1, 0, len(AB)))
    tr = t("aab")
    assert tr.horizon == 3
    assert tr.tokens() == ("a", "a", "b")
    assert InputTrace(AB, AB.parse(["b", "a"])).symbols == (1, 0)


def test_corpus_sorted_flag_checked():
    # A corpus carries no sortedness flag: it keeps its traces in the order
    # given (external_sort orders files), and checks only its quantum.
    c = TraceCorpus(ABCD, 1.0, ts("ab", "aa", "aa"))
    assert [x.tokens() for x in c.traces] == [("a", "b"), ("a", "a"), ("a", "a")]
    with pytest.raises(ValueError):
        TraceCorpus(ABCD, 0.0, ts("aa"))


def test_corpus_horizons():
    c = TraceCorpus(ABCD, 1.0, ts("aa", "b", "abc"))
    horizons = [x.horizon for x in c.traces]
    assert (min(horizons), max(horizons)) == (1, 3)
    assert len(c) == 3


def test_corpus_rejects_a_trace_of_another_alphabet():
    with pytest.raises(AlphabetMismatchError):
        TraceCorpus(ABCD, 1.0, [t("a", ABCD), t("a", AB)])


def test_header_round_trip():
    line = format_trace_header(ABCD, 0.1)
    assert line == "#alphabet=a,b,c,d;q=0.1"
    alphabet, quantum = parse_trace_header(line)
    assert alphabet == ABCD and quantum == 0.1


def test_header_rejects_garbage():
    for bad in ("", "alphabet=a;q=1", "#alphabet=a,b", "#alphabet=a,b;q=0",
                "#alphabet=a,b;q=x", "#alphabet=;q=1"):
        with pytest.raises(TraceFormatError):
            parse_trace_header(bad)


@pytest.mark.parametrize("q", ["nan", "inf", "-inf", "0", "-1"])
def test_every_quantum_must_be_finite_and_positive(q):
    with pytest.raises(TraceFormatError):
        parse_trace_header(f"#alphabet=a,b;q={q}")
    with pytest.raises(TraceFormatError):
        parse_campaign_header(f"#q={q};slice=0")
    with pytest.raises(ValueError):
        TraceCorpus(ABCD, float(q), ts("aa"))


def test_both_readers_skip_comments_and_blanks(tmp_path):
    path = tmp_path / "traces.txt"
    path.write_text("#alphabet=a,b;q=0.5\n\na,b\n# note\nb,b\n\n")
    corpus = read_trace_file(str(path))
    assert (corpus.alphabet, corpus.quantum) == (AB, 0.5)
    assert [x.symbols for x in corpus.traces] == [(0, 1), (1, 1)]
    alphabet, quantum, lines = read_trace_lines(str(path))
    assert (alphabet, quantum) == (AB, 0.5)
    assert lines == ["a,b", "b,b"]
    assert [alphabet.parse_line(line) for line in lines] == [
        x.symbols for x in corpus.traces
    ]


def test_file_round_trip(tmp_path):
    corpus = TraceCorpus(ABCD, 0.25, ts("aab", "b", "cd"))
    path = tmp_path / "traces.txt"
    write_trace_file(corpus, str(path))
    back = read_trace_file(str(path))
    assert back.alphabet == ABCD
    assert back.quantum == 0.25
    assert [x.symbols for x in back.traces] == [x.symbols for x in corpus.traces]


def test_read_rejects_unknown_token(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("#alphabet=a,b;q=1\na,z\n")
    with pytest.raises(TraceFormatError):
        read_trace_file(str(path))


@given(
    st.lists(
        st.lists(st.integers(0, 2), min_size=1, max_size=6),
        min_size=1,
        max_size=20,
        unique_by=tuple,
    )
)
def test_round_trip_preserves_symbols(symbol_lists):
    alphabet = Alphabet.of("x", "y", "z")
    corpus = TraceCorpus(
        alphabet, 1.0, [InputTrace(alphabet, tuple(s)) for s in symbol_lists]
    )
    import tempfile, os

    fd, path = tempfile.mkstemp(suffix=".txt")
    os.close(fd)
    try:
        write_trace_file(corpus, path)
        back = read_trace_file(path)
    finally:
        os.unlink(path)
    assert [x.symbols for x in back.traces] == [tuple(s) for s in symbol_lists]


# The per-token definitions the alphabet codec replaced, as its reference.
def per_token_parse(alphabet, tokens):
    return tuple(alphabet.tokens.index(tok) for tok in tokens)


def per_token_format(alphabet, symbols):
    return ",".join(alphabet.tokens[s] for s in symbols)


@given(
    st.lists(
        st.text("abxy", min_size=1, max_size=3), min_size=1, max_size=6, unique=True
    ),
    st.data(),
)
def test_codec_matches_per_token_definitions(tokens, data):
    alphabet = Alphabet(tuple(tokens))
    symbols = tuple(
        data.draw(st.lists(st.integers(0, len(tokens) - 1), min_size=1, max_size=12))
    )
    line = per_token_format(alphabet, symbols)
    assert alphabet.format_line(symbols) == line
    assert alphabet.parse_line(line) == per_token_parse(alphabet, line.split(","))
    assert alphabet.parse_line(line) == symbols
    trace = InputTrace(alphabet, alphabet.parse(line.split(",")))
    assert trace.symbols == symbols
    assert trace.tokens() == tuple(line.split(","))
    assert [alphabet.index(tok) for tok in tokens] == list(range(len(tokens)))

    unknown = data.draw(
        st.text("abxyz", min_size=1, max_size=4).filter(lambda tok: tok not in tokens)
    )
    with pytest.raises(ValueError):
        per_token_parse(alphabet, [unknown])
    with pytest.raises(TraceFormatError, match=f"unknown symbol token {unknown!r}"):
        alphabet.parse_line(line + "," + unknown)


def test_codec_follows_alphabet_order_not_string_order():
    alphabet = Alphabet.of("b", "aa", "a")
    assert alphabet.parse_line("a,aa,b") == (2, 1, 0)
    assert alphabet.format_line((2, 1, 0)) == "a,aa,b"


@pytest.mark.parametrize("row, token", [("a,zz", "zz"), ("a,,b", "")])
def test_an_unknown_or_empty_token_is_named(tmp_path, row, token):
    named = f"unknown symbol token {token!r}"
    path = tmp_path / "bad.txt"
    path.write_text(f"#alphabet=a,b;q=1\nb,a\n{row}\n")
    with pytest.raises(TraceFormatError, match=named):
        read_trace_file(str(path))
    with pytest.raises(TraceFormatError, match=named):
        external_sort(str(path), str(tmp_path / "out.txt"), budget_symbols=2)
    assert not (tmp_path / "out.txt").exists()


def test_a_campaign_command_with_an_unknown_token_names_it():
    # Commands split on whitespace, so a RUN cannot carry an empty token.
    with pytest.raises(TraceFormatError, match="unknown symbol token 'zz'"):
        parse_command("RUN zz 3", AB)


@pytest.mark.parametrize("value", [1, 0.25, 0.1, 0.123456789, 1e-07, 123456789.0])
def test_a_quantum_or_cost_reads_back_equal(tmp_path, value):
    traces = ts("ab", "b")
    path = str(tmp_path / "traces.txt")
    write_trace_file(TraceCorpus(ABCD, value, traces), path)
    assert read_trace_file(path).quantum == value
    path = str(tmp_path / "campaign.txt")
    write_campaign_file(naive_campaign(traces, value), path)
    assert read_campaign_file(path, ABCD).quantum == value
    path = tmp_path / "costs.txt"
    path.write_text(
        " ".join(f"{key}={format_number(value)}"
                 for key in ("load", "store", "free", "out", "run_per_q"))
    )
    assert read_cost_file(str(path)) == CostModel(value, value, value, value, value)


# One-character ASCII tokens in an order unlike ASCII order: the byte path.
CBA = Alphabet.of("c", "a", "b")


@pytest.mark.parametrize(
    "line",
    ["", "a,,b", ",a", "a,", "a,bb", "ab", "abc", "a,z", "a,\u00e9", "a,b c", ","],
)
def test_a_malformed_line_gets_the_token_paths_error(line):
    with pytest.raises(TraceFormatError) as token_path:
        CBA.parse(line.split(","))
    with pytest.raises(TraceFormatError) as parsed:
        CBA.parse_line(line)
    with pytest.raises(TraceFormatError) as keyed:
        CBA.sort_key(line)
    assert str(parsed.value) == str(keyed.value) == str(token_path.value)


def test_one_character_tokens_never_take_the_token_path(tmp_path, monkeypatch):
    rows = ["a,c,b", "b", "c,c", "a,c"]
    src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_text("#alphabet=c,a,b;q=1\n" + "\n".join(rows) + "\n")
    calls = []
    parse = Alphabet.parse

    def spy(self, tokens):
        calls.append(tokens)
        return parse(self, tokens)

    monkeypatch.setattr(Alphabet, "parse", spy)
    external_sort(str(src), str(dst), budget_symbols=3)
    back = read_trace_file(str(dst))
    assert [",".join(x.tokens()) for x in back.traces] == ["c,c", "a,c", "a,c,b", "b"]
    assert calls == []
    assert CBA.sort_key("a,c,b") == (bytes([1, 0, 2]), 3)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_atomic_text_files_take_their_mode_from_the_umask(tmp_path, umask, mode):
    path = tmp_path / "out.txt"
    previous = os.umask(umask)
    try:
        with atomic_text_file(str(path)) as fh:
            fh.write("x\n")
    finally:
        os.umask(previous)
    assert stat.S_IMODE(os.stat(path).st_mode) == mode
    assert path.read_text() == "x\n"
    assert os.listdir(tmp_path) == ["out.txt"]
