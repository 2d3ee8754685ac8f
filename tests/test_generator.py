from __future__ import annotations

import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from simcamp.generator import (
    ConstraintSpec,
    Dfa,
    GeneratorTable,
    parse_constraint_spec,
    read_constraint_file,
    sample_indices,
)
from simcamp.oracles import dfa_accepts
from simcamp.traces import MAX_SYMBOLS, Alphabet, TraceFormatError

AB01 = Alphabet.of("0", "1")

# accepts words with no two consecutive 1s
NO_11 = Dfa(num_states=3, start=0, accepting=frozenset({0, 1}),
            step=((0, 1), (0, 2), (2, 2)))


def test_no_consecutive_ones_horizon_two():
    spec = ConstraintSpec(AB01, 2, (NO_11,))
    table = GeneratorTable(spec)
    assert table.count() == 3
    assert [table.get(j).symbols for j in range(3)] == [
        b"\x00\x00", b"\x00\x01", b"\x01\x00"
    ]
    with pytest.raises(IndexError, match=r"index 3 out of range \[0, 3\)"):
        table.get(3)
    assert GeneratorTable(spec).count() == 3
    assert GeneratorTable(spec).get(2).symbols == b"\x01\x00"


def test_unconstrained_spec_counts_all_words():
    spec = ConstraintSpec(AB01, 3)
    table = GeneratorTable(spec)
    assert table.count() == 8
    # plain mixed-radix enumeration in lexicographic order
    assert [table.get(j).symbols for j in range(8)] == [
        bytes(w) for w in itertools.product((0, 1), repeat=3)
    ]


def test_empty_language():
    dead = Dfa(num_states=1, start=0, accepting=frozenset(), step=((0, 0),))
    table = GeneratorTable(ConstraintSpec(AB01, 2, (dead,)))
    assert table.count() == 0
    with pytest.raises(IndexError):
        table.get(0)


def test_random_specs_match_brute_force():
    rng = random.Random(7)
    for _ in range(25):
        k = rng.randint(2, 3)
        alphabet = Alphabet(tuple("abc"[:k]))
        h = rng.randint(1, 6)
        monitors = []
        for _ in range(rng.randint(1, 2)):
            n = rng.randint(1, 3)
            step = tuple(
                tuple(rng.randrange(n) for _ in range(k)) for _ in range(n)
            )
            accepting = frozenset(
                s for s in range(n) if rng.random() < 0.6
            )
            monitors.append(Dfa(n, rng.randrange(n), accepting, step))
        spec = ConstraintSpec(alphabet, h, tuple(monitors))
        table = GeneratorTable(spec)
        brute = [
            w
            for w in map(bytes, itertools.product(range(k), repeat=h))
            if all(dfa_accepts(m, w) for m in monitors)
        ]
        assert table.count() == len(brute)
        assert [table.get(j).symbols for j in range(len(brute))] == brute


@st.composite
def small_specs(draw):
    """A random spec of 1-2 monitors over 2-3 symbols, horizon 1-6."""
    k = draw(st.integers(2, 3))
    h = draw(st.integers(1, 6))
    monitors = []
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(1, 3))
        step = tuple(
            tuple(draw(st.integers(0, n - 1)) for _ in range(k)) for _ in range(n)
        )
        accepting = frozenset(draw(st.sets(st.integers(0, n - 1))))
        monitors.append(Dfa(n, draw(st.integers(0, n - 1)), accepting, step))
    return ConstraintSpec(Alphabet(tuple("abc"[:k])), h, tuple(monitors))


@settings(max_examples=150, deadline=None)
@given(small_specs(), st.data())
def test_extract_matches_brute_force(spec, data):
    k = len(spec.alphabet)
    brute = [
        w
        for w in map(bytes, itertools.product(range(k), repeat=spec.horizon))
        if all(dfa_accepts(m, w) for m in spec.monitors)
    ]
    table = GeneratorTable(spec)
    assert table.count() == len(brute)
    if brute:
        everything = range(len(brute))
        picked = data.draw(st.lists(st.integers(0, len(brute) - 1), max_size=30))
        for indices in (everything, sorted(set(picked)), picked):
            got = [t.symbols for t in table.extract(indices)]
            assert got == [brute[j] for j in indices]
    bad = data.draw(st.sampled_from([-1, len(brute), len(brute) + 5]))
    with pytest.raises(IndexError, match=f"index {bad} out of range"):
        list(table.extract([0] * bool(brute) + [bad]))


def test_dfa_validation():
    with pytest.raises(ValueError):
        Dfa(2, 5, frozenset({0}), ((0, 0), (1, 1)))  # start out of range
    with pytest.raises(ValueError):
        Dfa(2, 0, frozenset({3}), ((0, 0), (1, 1)))  # accepting out of range
    with pytest.raises(ValueError):
        Dfa(2, 0, frozenset({0}), ((0, 2), (1, 1)))  # target out of range
    with pytest.raises(ValueError):
        ConstraintSpec(AB01, 0)
    with pytest.raises(ValueError):
        # transition width disagrees with the alphabet
        ConstraintSpec(AB01, 2, (Dfa(1, 0, frozenset({0}), ((0, 0, 0),)),))


def test_sample_indices():
    # floor(fraction*n + 0.5) distinct indices, sorted
    picked = sample_indices(10, 0.25, seed=1)
    assert len(picked) == 3
    assert picked == sorted(set(picked))
    assert all(0 <= j < 10 for j in picked)
    assert sample_indices(10, 0.25, seed=1) == picked
    assert len(sample_indices(10, 1.0, seed=0)) == 10
    assert len(sample_indices(3, 0.1, seed=0)) == 0
    with pytest.raises(ValueError):
        sample_indices(0, 0.5, seed=0)
    with pytest.raises(ValueError):
        sample_indices(10, 0.0, seed=0)
    with pytest.raises(ValueError):
        sample_indices(10, 1.5, seed=0)


def test_sample_indices_full_population_is_the_sorted_sample():
    for n in (1, 2, 7, 100, 1001):
        for seed in (0, 1, 42):
            assert list(sample_indices(n, 1.0, seed)) == sorted(
                random.Random(seed).sample(range(n), n)
            )
    # a fraction that rounds up to the whole population
    assert sample_indices(3, 0.9, seed=5) == range(3)


def test_a_full_sample_is_a_range():
    # A list of every index would hold 8 bytes or more per scenario.
    assert isinstance(sample_indices(1000, 1.0, 0), range)
    assert type(sample_indices(1000, 0.5, 0)) is list


def test_constraint_file_round_trip(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text(
        "alphabet=0,1\nhorizon=4\nstates=3\nstart=0\naccept=0,1\n"
        "0 0 -> 0\n0 1 -> 1\n1 0 -> 0\n1 1 -> 2\n2 0 -> 2\n2 1 -> 2\n"
    )
    assert read_constraint_file(str(path)) == ConstraintSpec(AB01, 4, (NO_11,))


def test_parse_errors():
    with pytest.raises(TraceFormatError):
        parse_constraint_spec(["horizon=2"])
    with pytest.raises(TraceFormatError):
        parse_constraint_spec(["alphabet=0,1"])
    with pytest.raises(TraceFormatError):
        parse_constraint_spec(
            ["alphabet=0,1", "horizon=2", "states=1", "start=0", "accept=0",
             "0 0 -> 0"]  # missing the transition for symbol 1
        )
    with pytest.raises(TraceFormatError):
        parse_constraint_spec(
            ["alphabet=0,1", "horizon=2", "states=1", "start=0", "accept=0",
             "0 0 -> 0", "0 1 -> 0", "0 1 -> 0"]  # duplicate
        )


def test_a_spec_of_more_than_256_tokens_is_refused():
    tokens = ",".join(f"t{i}" for i in range(MAX_SYMBOLS + 1))
    with pytest.raises(ValueError, match="257 tokens; at most 256"):
        parse_constraint_spec([f"alphabet={tokens}", "horizon=1"])


def exactly(message):
    return f"^{re.escape(message)}$"


@pytest.mark.parametrize("args,message", [
    ((0, 0, frozenset(), ()), "monitor needs at least one state"),
    ((2, 0, frozenset({0}), ((0, 0),)),
     "monitor transition table must cover every state"),
    ((2, 0, frozenset({0}), ((0, 0), (1,))),
     "monitor transition rows must have equal width"),
])
def test_a_malformed_dfa_is_refused_by_name(args, message):
    with pytest.raises(ValueError, match=exactly(message)):
        Dfa(*args)


HEAD = ["alphabet=a,b", "horizon=2"]
ONE_STATE = ["states=1", "start=0", "accept=0", "0 a -> 0", "0 b -> 0"]


@pytest.mark.parametrize("lines,message", [
    (["alphabet=a,b", "horizon=two"], "malformed horizon"),
    (HEAD + ["start=0"], "expected states= to open a monitor: 'start=0'"),
    (HEAD + ["states=x", "start=0", "accept=0"], "malformed monitor block header"),
    (HEAD + ["states=1", "begin=0", "accept=0"], "malformed monitor block header"),
    (HEAD + ["states=1", "start=x", "accept=0"], "malformed monitor block header"),
    (HEAD + ["states=1", "start=0", "reject=0"], "malformed monitor block header"),
    (HEAD + ["states=1", "start=0", "accept=0,y"], "malformed monitor block header"),
    (HEAD + ["states=1", "start=0"], "malformed monitor block header"),
    (HEAD + ONE_STATE[:3] + ["0 a 0"], "malformed transition line: '0 a 0'"),
    (HEAD + ONE_STATE[:3] + ["x a -> 0"], "malformed transition line: 'x a -> 0'"),
    (HEAD + ONE_STATE + ["1 a -> 0"],
     "monitor has transitions from out-of-range states"),
])
def test_a_malformed_spec_is_refused_by_name(lines, message):
    with pytest.raises(TraceFormatError, match=exactly(message)):
        parse_constraint_spec(lines)

