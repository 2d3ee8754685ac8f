from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from simcamp.oracles import shared_prefix_counts, shared_prefixes
from simcamp.traces import Alphabet, InputTrace
from simcamp.tree import TreeInvariantError, build_tree
from util import random_traces, t, ts


def sorted_ts(*texts: str):
    return sorted(ts(*texts), key=lambda x: x.symbols)


def sym(text: str) -> tuple[int, ...]:
    return t(text).symbols


def test_worked_examples():
    tree = build_tree(sorted_ts("aa", "ab", "ba"))
    assert tree.shared_prefix_map() == {(): 3, sym("a"): 2}
    assert tree.capacity == 2  # root doubles as the shared empty prefix

    tree = build_tree(sorted_ts("aab", "aac"))
    assert tree.shared_prefix_map() == {sym("aa"): 2}
    assert tree.capacity == 2  # root is materialized but not shared

    tree = build_tree(sorted_ts("aa", "ab", "ac", "b"))
    assert tree.shared_prefix_map() == {(): 4, sym("a"): 3}

    tree = build_tree(sorted_ts("aab", "aac", "ab", "ba", "bb"))
    assert tree.shared_prefix_count == 4  # "", "a", "aa" and "b"

    tree = build_tree(sorted_ts("aa", "ba"))
    assert tree.shared_prefix_count == 1  # the root alone


def test_full_trace_prefix_node():
    # "aa" is both a trace and the shared prefix of the pair
    tree = build_tree(sorted_ts("aa", "aab"))
    assert tree.shared_prefix_map() == {sym("aa"): 2}
    assert tree.capacity == 2


def test_insertion_reparents_deeper_node():
    # "aa" is discovered first, then "a" must be inserted above it
    tree = build_tree(sorted_ts("aab", "aac", "ab"))
    assert tree.shared_prefix_map() == {sym("a"): 3, sym("aa"): 2}
    deep = next(n for n in tree.shared_nodes() if n.depth == 2)
    mid = next(n for n in tree.shared_nodes() if n.depth == 1)
    assert deep.parent_id == mid.node_id
    assert deep.seg == (0,)  # segment rebased below the new parent


def test_build_rejects_unsorted_and_duplicates():
    with pytest.raises(TreeInvariantError):
        build_tree(ts("ab", "aa"))
    with pytest.raises(TreeInvariantError):
        build_tree(ts("aa", "aa"))


def test_chain_for_walks_materialized_prefixes():
    tree = build_tree(sorted_ts("aab", "aac", "ab"))
    chain = tree.chain_for(sym("aab"))
    assert [n.depth for n in chain] == [0, 1, 2]
    assert [tree.prefix_of(n.node_id) for n in chain] == [(), sym("a"), sym("aa")]
    # diverging input stops at the deepest matching node
    assert [n.depth for n in tree.chain_for(sym("b"))] == [0]
    assert [n.depth for n in tree.chain_for(sym("ab"))] == [0, 1]


def test_matches_pairwise_oracle_random():
    rng = random.Random(24601)
    for _ in range(150):
        _, traces = random_traces(rng, rng.randint(1, 40), rng.randint(2, 4), 6)
        tree = build_tree(sorted(traces, key=lambda x: x.symbols))
        counts = shared_prefix_counts(traces)
        assert tree.shared_prefix_map() == counts
        assert set(counts) == shared_prefixes(traces)
        root_shared = () in counts
        assert tree.capacity == len(counts) + (0 if root_shared else 1)
        assert list(tree.nodes) == list(range(tree.capacity))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 1), min_size=1, max_size=5),
        min_size=1,
        max_size=12,
        unique_by=tuple,
    )
)
def test_matches_pairwise_oracle_hypothesis(symbol_lists):
    alphabet = Alphabet.of("a", "b")
    traces = [InputTrace(alphabet, tuple(s)) for s in symbol_lists]
    tree = build_tree(sorted(traces, key=lambda x: x.symbols))
    assert tree.shared_prefix_map() == shared_prefix_counts(traces)
    assert list(tree.nodes) == list(range(tree.capacity))
