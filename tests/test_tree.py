from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from simcamp.oracles import shared_prefix_counts, shared_prefixes
from simcamp.traces import Alphabet, InputTrace
from simcamp.tree import TreeInvariantError, build_tree
from util import (
    chain_counts,
    node_prefixes,
    random_traces,
    shared_prefix_map,
    t,
    ts,
)


def sym(text: str) -> bytes:
    return t(text).symbols


def test_worked_examples():
    tree = build_tree(ts("aa", "ab", "ba"))
    assert shared_prefix_map(tree) == {b"": 3, sym("a"): 2}
    assert tree.capacity == 2  # root doubles as the shared empty prefix

    tree = build_tree(ts("aab", "aac"))
    assert shared_prefix_map(tree) == {sym("aa"): 2}
    assert tree.capacity == 2  # root is materialized but not shared

    tree = build_tree(ts("aa", "ab", "ac", "b"))
    assert shared_prefix_map(tree) == {b"": 4, sym("a"): 3}

    tree = build_tree(ts("aab", "aac", "ab", "ba", "bb"))
    assert tree.shared_prefix_count == 4  # "", "a", "aa" and "b"

    tree = build_tree(ts("aa", "ba"))
    assert tree.shared_prefix_count == 1  # the root alone


def test_full_trace_prefix_node():
    # "aa" is both a trace and the shared prefix of the pair
    tree = build_tree(ts("aa", "aab"))
    assert shared_prefix_map(tree) == {sym("aa"): 2}
    assert tree.capacity == 2


def test_insertion_reparents_deeper_node():
    # "aa" is discovered first, then "a" must be inserted above it
    tree = build_tree(ts("aab", "aac", "ab"))
    assert shared_prefix_map(tree) == {sym("a"): 3, sym("aa"): 2}
    # "aa" took id 1 when it was found, and "a", id 2, is its parent.
    assert tree.depth == [0, 2, 1]
    assert tree.chains[sym("aab")] == (0, 2, 1)


def test_build_rejects_a_duplicate_trace():
    with pytest.raises(TreeInvariantError, match="^duplicate trace a,b$"):
        build_tree(ts("ab", "aa", "ab"))


def test_chains_walk_materialized_prefixes():
    # The chain recorded for each trace holds its materialized prefixes,
    # root first: "a" and "aa" are shared, "aab" itself is not.
    tree = build_tree(ts("aab", "aac", "ab", "b"))
    chain = tree.chains[sym("aab")]
    assert [tree.depth[i] for i in chain] == [0, 1, 2]
    prefixes = node_prefixes(tree)
    assert [prefixes[i] for i in chain] == [b"", sym("a"), sym("aa")]
    assert [prefixes[i] for i in tree.chains[sym("ab")]] == [b"", sym("a")]
    assert [prefixes[i] for i in tree.chains[sym("b")]] == [b""]


def assert_chains_recorded(tree, traces):
    """Node ids run densely from 0, and the chain the build recorded for
    each of its traces holds the ids of the nodes whose prefixes are
    prefixes of the trace, by depth."""
    assert set(tree.chains) == {x.symbols for x in traces}
    prefixes = node_prefixes(tree)
    assert sorted(prefixes) == list(range(tree.capacity))
    for x in traces:
        expected = sorted(
            (nid for nid, p in prefixes.items() if x.symbols[:len(p)] == p),
            key=lambda nid: len(prefixes[nid]),
        )
        assert tree.chains[x.symbols] == tuple(expected)


def test_matches_pairwise_oracle_random():
    rng = random.Random(24601)
    for i in range(150):
        target = 1 if i % 10 == 0 else rng.randint(1, 40)
        alphabet, traces = random_traces(rng, target, rng.randint(2, 4), 6)
        # Some traces are proper prefixes of others.
        present = {x.symbols for x in traces}
        for x in list(traces):
            cut = x.symbols[:rng.randint(1, len(x.symbols))]
            if rng.random() < 0.3 and cut not in present:
                present.add(cut)
                traces.append(InputTrace(alphabet, cut))
        tree = build_tree(sorted(traces, key=lambda x: x.symbols))
        counts = shared_prefix_counts(traces)
        assert shared_prefix_map(tree) == counts
        assert set(counts) == shared_prefixes(traces)
        assert tree.root_shared == (b"" in counts)
        assert tree.shared_prefix_count == len(counts)
        assert tree.capacity == len(counts) + (0 if tree.root_shared else 1)
        assert_chains_recorded(tree, traces)
        # The build sorts its input itself.
        rng.shuffle(traces)
        assert build_tree(traces) == tree


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 1), min_size=1, max_size=5),
        min_size=1,
        max_size=12,
        unique_by=tuple,
    ),
    st.randoms(use_true_random=False),
)
def test_matches_pairwise_oracle_hypothesis(symbol_lists, rng):
    alphabet = Alphabet.of("a", "b")
    traces = [InputTrace(alphabet, tuple(s)) for s in symbol_lists]
    tree = build_tree(sorted(traces, key=lambda x: x.symbols))
    assert shared_prefix_map(tree) == shared_prefix_counts(traces)
    assert_chains_recorded(tree, traces)
    # The build sorts its input itself.
    rng.shuffle(traces)
    assert build_tree(traces) == tree


def test_nested_prefixes_longer_than_the_recursion_limit():
    # a, aa, ..., 1,500 a's: every trace but the longest is a shared
    # prefix, so the longest trace's chain holds 1,500 nodes.
    horizon = 1500
    assert horizon > sys.getrecursionlimit()
    alphabet = Alphabet.of("a")
    traces = [InputTrace(alphabet, (0,) * h) for h in range(1, horizon + 1)]
    tree = build_tree(traces[::-1])
    assert not tree.root_shared
    assert tree.capacity == horizon
    chain = tree.chains[b"\x00" * horizon]
    assert [tree.depth[i] for i in chain] == list(range(horizon))
    # Every trace's chain holds the root; the node at depth d is held by
    # the chains of the traces at least d long.
    held = chain_counts(tree)
    assert [held[i] for i in chain] == [horizon] + list(range(horizon, 1, -1))
    # Every shorter trace is a node, the last on its own chain.
    assert all(tree.chains[b"\x00" * h] == chain[:h + 1] for h in range(1, horizon))
