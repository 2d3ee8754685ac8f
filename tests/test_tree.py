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
    # The chain recorded for each trace holds its materialized prefixes,
    # root first: "a" and "aa" are shared, "aab" itself is not.
    tree = build_tree(sorted_ts("aab", "aac", "ab", "b"))
    chain = tree.chains[sym("aab")]
    assert [tree.nodes[i].depth for i in chain] == [0, 1, 2]
    assert [tree.prefix_of(i) for i in chain] == [(), sym("a"), sym("aa")]
    assert [tree.prefix_of(i) for i in tree.chains[sym("ab")]] == [(), sym("a")]
    assert [tree.prefix_of(i) for i in tree.chains[sym("b")]] == [()]


def assert_chains_recorded(tree, traces):
    """The chain the build recorded for each of its traces holds the ids
    of the nodes whose prefixes are prefixes of the trace, by depth."""
    assert set(tree.chains) == {x.symbols for x in traces}
    prefixes = {nid: tree.prefix_of(nid) for nid in tree.nodes}
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
        assert tree.shared_prefix_map() == counts
        assert set(counts) == shared_prefixes(traces)
        root_shared = () in counts
        assert tree.capacity == len(counts) + (0 if root_shared else 1)
        assert list(tree.nodes) == list(range(tree.capacity))
        assert_chains_recorded(tree, traces)


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
    assert_chains_recorded(tree, traces)
