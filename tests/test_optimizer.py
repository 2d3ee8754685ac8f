from __future__ import annotations

import itertools
import os
import random
import tempfile
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import simcamp.optimizer as optimizer
from simcamp.engine import execute, reference_model
from simcamp.oracles import edge_count, naive_campaign, optimal_campaign_length
from simcamp.optimizer import (
    Campaign,
    CheckpointIndex,
    optimize_slice,
    parse_command,
    read_campaign_file,
    write_campaign_file,
)
from simcamp.slicing import order_slice
from simcamp.traces import Alphabet, InputTrace, TraceFormatError
from simcamp.tree import ROOT_ID, build_tree
from util import ABCD, node_prefixes, random_traces, t, ts


def reference_next_load(prefixes, ordered, stored, node_id, j):
    """The position of the first trace after ``j`` in ``ordered`` that
    would load the node: its chain holds the node and none of the
    ``stored`` nodes below it.  Found by a linear search over the traces
    and the stored prefixes; ``len(ordered)`` if no trace would.
    ``prefixes`` holds every node's prefix."""
    prefix = prefixes[node_id]
    below = [prefixes[nid] for nid in stored if len(prefixes[nid]) > len(prefix)]
    for p in range(j + 1, len(ordered)):
        s = ordered[p].symbols
        if s[:len(prefix)] == prefix and not any(s[:len(b)] == b for b in below):
            return p
    return len(ordered)


def reference_gap(prefixes, stored, node_id):
    """The quanta between the node's prefix and its nearest ``stored``
    ancestor's, found by a search of every stored prefix."""
    prefix = prefixes[node_id]
    above = [prefixes[nid] for nid in stored if len(prefixes[nid]) < len(prefix)]
    return len(prefix) - max(len(a) for a in above if prefix[:len(a)] == a)


def reference_value(gap, next_load, j, n):
    """gap / (next load - j)^2, exactly; 0 if no later trace would load."""
    return Fraction(0) if next_load >= n else Fraction(gap, (next_load - j) ** 2)


def reference_decision(capacity, stored, node_id, shared, value):
    """The storage rule as a standalone function: ("skip" | "store" |
    "store_evicting", victim id).  ``stored`` maps each stored node id to
    its (value, store sequence).  Never for non-``shared`` or
    already-stored prefixes.  With free capacity, always.  At full
    capacity, only by evicting the stored node other than the root of
    least value (ties: the least recently stored), when that value is
    strictly below the candidate's ``value``."""
    if not shared or node_id in stored:
        return "skip", -1
    if capacity is None or len(stored) < capacity:
        return "store", -1
    keys = [(v, seq, nid) for nid, (v, seq) in stored.items() if nid != ROOT_ID]
    if keys:
        least, _, victim = min(keys)
        if least < value:
            return "store_evicting", victim
    return "skip", -1


def reference_chain(prefixes, symbols):
    """The ids of the nodes whose prefixes are prefixes of ``symbols``,
    root first, found by comparing ``symbols`` with every node's prefix in
    ``prefixes``."""
    return sorted(
        (nid for nid, prefix in prefixes.items()
         if symbols[:len(prefix)] == prefix),
        key=lambda nid: len(prefixes[nid]),
    )


def reference_optimize_slice(tree, capacity, quantum, slice_id=0):
    """``optimize_slice`` with an earlier run scan, one step per symbol
    and one ``reference_decision`` call per boundary, with every next load
    found by ``reference_next_load`` and every gap by ``reference_gap`` at
    each decision, and victims by a search of every stored node: the
    reference whose campaigns the run-by-run scan must reproduce.  Each shared node's pending uses, the
    traces whose ``reference_chain`` holds it, are counted down in a
    Counter; a node whose count reaches zero joins ``dead``, and chain
    walks stop above a dead node other than the root.  The root is freed
    only by the last trace."""
    ordered = tree.traces
    if not ordered:
        raise ValueError("cannot optimize an empty slice")
    prefixes = node_prefixes(tree)
    shared = {nid for nid in prefixes if nid != ROOT_ID or tree.root_shared}
    pending = Counter(
        nid
        for trace in ordered
        for nid in reference_chain(prefixes, trace.symbols)
        if nid in shared
    )
    dead = set()
    stored = {}  # node id -> store sequence
    sequence = itertools.count(1)
    peak = 0
    tokens = ordered[0].alphabet.tokens
    lines = []

    def value(node_id, j):
        return reference_value(
            reference_gap(prefixes, stored, node_id),
            reference_next_load(prefixes, ordered, stored, node_id, j),
            j, len(ordered),
        )

    def do_store(node_id):
        nonlocal peak
        stored[node_id] = next(sequence)
        peak = max(peak, len(stored))
        lines.append(f"STORE {node_id}")

    def do_free(node_id):
        del stored[node_id]
        lines.append(f"FREE {node_id}")

    do_store(ROOT_ID)
    for j, trace in enumerate(ordered):
        s = trace.symbols
        h = len(s)
        chain = list(itertools.takewhile(
            lambda nid: nid == ROOT_ID or nid not in dead,
            reference_chain(prefixes, s),
        ))
        load_id = next(nid for nid in reversed(chain) if nid in stored)
        if j > 0:
            lines.append(f"LOAD {load_id}")
        start = len(prefixes[load_id])
        by_depth = {len(prefixes[nid]): nid for nid in chain}
        for nid in reversed(chain):
            if len(prefixes[nid]) <= h and nid in shared and nid not in dead:
                pending[nid] -= 1
                if pending[nid] == 0:
                    if nid in stored and (nid != ROOT_ID or j == len(ordered) - 1):
                        do_free(nid)
                    dead.add(nid)

        def decide(boundary):
            if boundary is None or boundary in dead:
                return "skip", -1
            values = {nid: (None if nid == ROOT_ID else value(nid, j), seq)
                      for nid, seq in stored.items()}
            return reference_decision(
                capacity, values, boundary, boundary in shared, value(boundary, j)
            )

        while start < h:
            end = start
            while end + 1 <= h - 1 and s[end + 1] == s[start]:
                if decide(by_depth.get(end + 1))[0] != "skip":
                    break
                end += 1
            lines.append(f"RUN {tokens[s[start]]} {end - start + 1}")
            start = end + 1
            boundary = by_depth.get(start)
            action, victim = decide(boundary)
            if action == "store_evicting":
                do_free(victim)
                do_store(boundary)
            elif action == "store":
                do_store(boundary)
        lines.append("OUT")
    campaign = Campaign(lines, quantum, ordered[0].alphabet, slice_id)
    assert campaign.peak_stored == peak
    return campaign


def test_two_trace_campaign_with_reuse():
    ordered = ts("aab", "aac")
    campaign = optimize_slice(build_tree(ordered), 2, 0.5)
    assert campaign.lines == [
        "STORE 0",
        "RUN a 2",
        "STORE 1",
        "RUN b 1",
        "OUT",
        "LOAD 1",
        "FREE 1",
        "RUN c 1",
        "OUT",
    ]
    assert campaign.length_quanta == 4
    assert campaign.peak_stored == 2


def test_two_trace_campaign_at_minimum_memory():
    ordered = ts("aab", "aac")
    campaign = optimize_slice(build_tree(ordered), 1, 0.5)
    assert campaign.lines == [
        "STORE 0",
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


def test_full_trace_checkpoint_reused():
    ordered = ts("aaa", "aab")
    campaign = optimize_slice(build_tree(ordered), None, 1.0)
    assert campaign.lines == [
        "STORE 0",
        "RUN a 2",
        "STORE 1",
        "RUN a 1",
        "OUT",
        "LOAD 1",
        "FREE 1",
        "RUN b 1",
        "OUT",
    ]
    assert campaign.length_quanta == 4


def test_singleton_campaign():
    ordered = ts("aab")
    campaign = optimize_slice(build_tree(ordered), 4, 1.0)
    assert campaign.lines == [
        "STORE 0",
        "RUN a 2",
        "RUN b 1",
        "OUT",
    ]


def test_trace_equal_to_stored_prefix():
    # "aa" itself ends exactly at the shared prefix: store happens at full
    # depth.  The availability sweep counts trace "aa" as a use of its own
    # prefix, so "aab" is the checkpoint's last use and frees it once loaded.
    ordered = ts("aa", "aab")
    campaign = optimize_slice(build_tree(ordered), None, 1.0)
    assert campaign.lines == [
        "STORE 0",
        "RUN a 2",
        "STORE 1",
        "OUT",
        "LOAD 1",
        "FREE 1",
        "RUN b 1",
        "OUT",
    ]
    assert campaign.length_quanta == 3
    assert campaign.peak_stored == 2


def test_next_use_evicts_the_checkpoint_used_furthest_ahead():
    # When "bb" is reached, "a" and "ab" fill both free slots.  "a" is next
    # used by "aa" and "ab" by "abb", two traces later, so next use evicts
    # "ab": 10 quanta.  So does the least value: "ab"'s is 1/3², "a"'s 1/1²
    # and the candidate "bb"'s 2/2².  Always evicting the least recently
    # stored checkpoint takes 11.  "ab" needs the later use: since the
    # availability sweep counts a trace as a use of its own prefix, trace
    # "ab" would otherwise free it, and "bb" would find a free slot.
    ordered = ts("aba", "ab", "bb", "aa", "bbba", "abb")
    campaign = optimize_slice(build_tree(ordered), 3, 1.0)
    assert campaign.lines == [
        "STORE 0",
        "RUN a 1",
        "STORE 1",
        "RUN b 1",
        "STORE 2",
        "RUN a 1",
        "OUT",
        "LOAD 2",
        "OUT",
        "LOAD 0",
        "RUN b 2",
        "FREE 2",
        "STORE 3",
        "OUT",
        "LOAD 1",
        "RUN a 1",
        "OUT",
        "LOAD 3",
        "FREE 3",
        "RUN b 1",
        "RUN a 1",
        "OUT",
        "LOAD 1",
        "FREE 1",
        "FREE 0",
        "RUN b 2",
        "OUT",
    ]
    assert campaign.length_quanta == 10


def test_a_checkpoint_no_later_trace_would_load_is_evicted():
    # "abb" holds "a" on its chain, so "a" has a later use, but "abb" would
    # load "ab", stored below it: "a" has no next load, so its value is 0.
    # So "abbb" evicts "a" to store "abb", which "abb" then loads: 4 quanta,
    # the optimum.  Keyed by every chain use, "a" stays and "abb" is not
    # stored: 5 quanta.
    ordered = ts("ab", "a", "abbb", "abb")
    tree = build_tree(ordered)
    assert [node_prefixes(tree)[i] for i in (1, 2, 3)] == [
        t(x).symbols for x in ("a", "ab", "abb")
    ]
    campaign = optimize_slice(tree, 3, 1.0)
    assert campaign.lines == [
        "STORE 0",
        "RUN a 1",
        "STORE 1",
        "RUN b 1",
        "STORE 2",
        "OUT",
        "LOAD 1",
        "OUT",
        "LOAD 2",
        "RUN b 1",
        "FREE 1",
        "STORE 3",
        "RUN b 1",
        "OUT",
        "LOAD 3",
        "FREE 3",
        "FREE 2",
        "OUT",
    ]
    assert campaign.length_quanta == 4 == optimal_campaign_length(ordered, 3)
    assert campaign.peak_stored == 3


def test_the_checkpoint_whose_loss_costs_least_is_evicted():
    # At sigma 2 the root and one checkpoint fit.  Replaying "baab" stores
    # "b"; at "baa" both would next be loaded by trace "baa", one trace
    # ahead.  Losing "b" costs 1 quantum and losing "baa" 2, so "b"
    # (value 1/1²) is evicted for "baa" (value 2/1²): 5 quanta, the
    # optimum.  Furthest next use sees equal next uses, keeps "b" and
    # takes 6.
    ordered = ts("baab", "baa", "b")
    campaign = optimize_slice(build_tree(ordered), 2, 1.0)
    assert campaign.lines == [
        "STORE 0",
        "RUN b 1",
        "STORE 1",
        "RUN a 2",
        "FREE 1",
        "STORE 2",
        "RUN b 1",
        "OUT",
        "LOAD 2",
        "FREE 2",
        "OUT",
        "LOAD 0",
        "RUN b 1",
        "OUT",
    ]
    assert campaign.length_quanta == 5 == optimal_campaign_length(ordered, 2)


def test_checkpoint_equal_to_a_trace_is_freed_after_its_last_use():
    # "ab" is stored while replaying "aba" and last used by trace "ab",
    # which frees it, so the unlimited campaign holds at most 3 states.
    ordered = ts("aba", "ab", "bb", "aa", "bbba")
    campaign = optimize_slice(build_tree(ordered), None, 1.0)
    assert campaign.peak_stored == 3
    assert campaign.length_quanta == 8
    assert campaign.lines[7:10] == ["LOAD 2", "FREE 2", "OUT"]


def test_budgets_that_cannot_bind_build_no_next_use_table(monkeypatch):
    # Building the table at every budget emits the same campaigns, but on
    # the 8,192-trace binary corpus at capacity it adds about a quarter to
    # the wall time and 2 MB to the peak memory.
    calls = []
    build = optimizer._next_use_table

    def spy(chains, size):
        calls.append(len(chains))
        return build(chains, size)

    monkeypatch.setattr(optimizer, "_next_use_table", spy)
    ordered = ts("aba", "ab", "bb", "aa", "bbba")
    tree = build_tree(ordered)
    for sigma in (None, 1, tree.capacity, tree.capacity + 1):
        optimize_slice(tree, sigma, 1.0)
    assert calls == []
    optimize_slice(tree, tree.capacity - 1, 1.0)
    assert calls == [len(ordered)]


def test_budgets_that_cannot_bind_rekey_nothing(monkeypatch):
    # Unkeyed, every checkpoint's key is 0, so a re-key could change none.
    calls = []
    rekey = CheckpointIndex.rekey

    def spy(self, node_id, next_load, j):
        calls.append(node_id)
        return rekey(self, node_id, next_load, j)

    monkeypatch.setattr(CheckpointIndex, "rekey", spy)
    ordered = ts("aba", "ab", "bb", "aa", "bbba", "abab", "bbb")
    tree = build_tree(ordered)
    for sigma in (None, tree.capacity):
        optimize_slice(tree, sigma, 1.0)
    assert calls == []
    optimize_slice(tree, tree.capacity - 1, 1.0)
    assert calls


def test_rejects_empty_slice():
    with pytest.raises(ValueError):
        optimize_slice(build_tree([]), 1, 1.0)


def tree_snapshot(tree):
    return (
        tree.traces,
        list(tree.depth),
        list(tree.chains),
        tree.root_shared,
    )


def test_optimize_slice_leaves_its_tree_unchanged():
    ordered = ts("aab", "aac", "ab", "ba", "bb", "bba")
    tree = build_tree(ordered)
    before = tree_snapshot(tree)
    for sigma in (None, 1, 2, tree.capacity - 1):
        first = optimize_slice(tree, sigma, 1.0)
        assert tree_snapshot(tree) == before
        again = optimize_slice(tree, sigma, 1.0)
        assert again == first


def test_checkpoint_index_eviction_order():
    # Depths: node 1 at 2 with node 2 at 5 below it; nodes 3, 4 and 5 at
    # 3, 4 and 12 on branches of their own.  The slice has 30 traces.
    depth = [0, 2, 5, 3, 4, 12]
    index = CheckpointIndex(4, depth, 30)  # holds the root: never a victim
    index.store(1, 10, (0, 1), 1, 0)  # gap 2, next load 10: value 2/100
    index.store(2, 4, (0, 1, 2), 2, 0)  # gap 3 below node 1: 3/16
    index.store(3, 6, (0, 3), 1, 0)  # gap 3: 3/36
    # The least value is the victim, for a candidate of strictly more.
    assert index.victim(0, 1, 2) == 1  # the candidate's value: 1/4
    assert index.victim(0, 2, 10) is None  # 2/100, a tie
    assert index.victim(0, 5, 30) is None  # no later load: value 0
    # Re-keying every stored id, the root included, keeps the root out:
    # at trace 0 the root's next load would give it the least value.
    for node_id, use in ((0, 29), (1, 10), (2, 4), (3, 6)):
        index.rekey(node_id, use, 0)
    assert index.victim(0, 1, 2) == 1
    # Freed, node 1 hands node 2 and its next load to the root: gap 5.
    index.free(1)
    assert index.entries[2].up == 0 and sorted(index.entries[0].kids) == [2, 3]
    assert index.victim(0, 1, 1) == 3  # 3/36 < 5/16
    # Values grow as the next load nears: at trace 4 node 3's is 3/4 and
    # node 2's, re-keyed to trace 12, is 5/64.
    index.rekey(2, 12, 4)
    assert index.victim(4, 1, 5) == 2
    # Stored again, node 1 takes node 2 back: gap 3, value 3/64 < 2/25.
    index.store(1, 9, (0, 1), 1, 4)
    assert index.entries[2].up == 1 and index.entries[1].kids == [2]
    assert index.victim(4, 1, 5) == 2
    # A node no later trace would load has value 0.
    index.store(4, 30, (0, 4), 1, 4)
    assert index.victim(4, 1, 5) == 4
    index.free(4)
    # Node 5's 12/16² equals node 2's 3/64: the least recently stored goes.
    index.store(5, 20, (0, 5), 1, 4)
    assert index.victim(4, 1, 5) == 2
    # Freed, node 2 gives node 1 its next load if sooner: 9 stays.
    index.free(2)
    assert index.entries[1].next_load == 9 and index.entries[1].kids == []
    assert index.victim(4, 1, 5) == 5
    for node_id in (5, 1, 3):
        index.free(node_id)
    assert index.victim(4, 1, 5) is None
    assert list(index.entries) == [0]
    with pytest.raises(ValueError):
        CheckpointIndex(0, depth, 30)


def test_checkpoint_index_heap_stays_bounded_under_rekeys():
    # Nodes 1 to 4 hang from the root at depths 1 to 4, so each gap is its id.
    index = CheckpointIndex(5, [0, 1, 2, 3, 4, 5], 100_000)
    for node_id in range(1, 5):
        index.store(node_id, node_id, (0, node_id), 1, 0)
    for step in range(1, 1001):
        node_id = step % 4 + 1
        index.rekey(node_id, 10 * step + node_id, step)
        assert len(index._heap) <= 2 * len(index.entries) + 8
    # At trace 1000 the values are 1/9001², 2/8972², 3/8983² and 4/8994².
    for node_id in (1, 2, 3, 4):
        assert index.victim(1000, 1, 1001) == node_id
        index.free(node_id)
    assert index.victim(1000, 1, 1001) is None


@pytest.mark.parametrize("capacity", [None, 1, 5, 6])
def test_a_budget_that_cannot_evict_keeps_no_heap(capacity):
    index = CheckpointIndex(capacity, [0, 1, 2, 3, 4], 10)
    assert not index.evicts
    for node_id in range(1, 5):
        index.store(node_id, 0, (0, node_id), 1, 0)
    assert index._heap == [] and index.victim(0, 1, 1) is None
    assert set(index.entries.values()) == {None}
    assert CheckpointIndex(4, [0, 1, 2, 3, 4], 10).evicts


def test_random_corpora_reach_the_edge_bound():
    rng = random.Random(99)
    for _ in range(40):
        _, traces = random_traces(rng, rng.randint(2, 60), rng.randint(2, 4), 7)
        ordered = order_slice(traces, "random", seed=rng.randrange(1 << 20))
        tree = build_tree(ordered)
        campaign = optimize_slice(tree, tree.capacity, 1.0)
        assert campaign.length_quanta == edge_count(traces)
        result = execute(campaign, reference_model(traces[0].alphabet, 1))
        assert result.executable
        assert [o.symbols for o in result.observations] == [
            x.symbols for x in ordered
        ]
        assert result.peak_memory <= tree.capacity


def test_memory_bound_holds_under_pressure():
    rng = random.Random(123)
    for _ in range(30):
        _, traces = random_traces(rng, rng.randint(2, 50), 2, 8)
        ordered = order_slice(traces, "random", seed=rng.randrange(1 << 20))
        tree = build_tree(ordered)
        naive_len = naive_campaign(ordered, 1.0).length_quanta
        lengths = {}
        for sigma in (1, 2, max(1, tree.capacity // 2), tree.capacity):
            campaign = optimize_slice(tree, sigma, 1.0)
            result = execute(campaign, reference_model(traces[0].alphabet, 0))
            assert result.executable
            assert result.peak_memory <= sigma
            assert campaign.length_quanta <= naive_len
            lengths[sigma] = campaign.length_quanta
        assert lengths[tree.capacity] <= lengths[1]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 2), min_size=1, max_size=6),
        min_size=1,
        max_size=16,
        unique_by=tuple,
    ),
    st.integers(0, 1 << 20),
    st.integers(0, 2),
)
def test_budget_at_least_unlimited_peak_reproduces_unlimited(
    symbol_lists, order_seed, extra
):
    # The pipeline reuses the unlimited campaign for any such budget.
    alphabet = Alphabet.of("a", "b", "c")
    traces = [InputTrace(alphabet, tuple(s)) for s in symbol_lists]
    ordered = order_slice(traces, "random", seed=order_seed)
    tree = build_tree(ordered)
    unlimited = optimize_slice(tree, None, 1.0)
    sigma = unlimited.peak_stored + extra
    bounded = optimize_slice(tree, sigma, 1.0)
    assert bounded == unlimited


@st.composite
def run_slices(draw):
    """Distinct traces made of constant runs (up to 12 long) over a,b,c,
    with some proper prefixes of them added."""
    runs = st.lists(st.tuples(st.integers(0, 2), st.integers(1, 12)), min_size=1,
                    max_size=5)
    bodies = draw(st.lists(runs, min_size=1, max_size=12))
    symbols = {tuple(sym for sym, n in body for _ in range(n)) for body in bodies}
    for trace in sorted(symbols):
        if len(trace) > 1 and draw(st.booleans()):
            symbols.add(trace[:draw(st.integers(1, len(trace) - 1))])
    alphabet = Alphabet.of("a", "b", "c")
    return [InputTrace(alphabet, s) for s in sorted(symbols)]


@settings(max_examples=300, deadline=None)
@given(
    run_slices(),
    st.sampled_from([None, 1, 2, 3, 5, "half", "capacity-1"]),
    st.integers(0, 1 << 20),
)
def test_run_scan_matches_the_per_symbol_scan(traces, capacity, order_seed):
    ordered = order_slice(traces, "random", seed=order_seed)
    tree = build_tree(ordered)
    if capacity == "half":
        capacity = max(1, tree.capacity // 2)
    elif capacity == "capacity-1":
        capacity = max(1, tree.capacity - 1)

    campaign = optimize_slice(tree, capacity, 1.0)
    reference = reference_optimize_slice(tree, capacity, 1.0)
    assert campaign == reference


@settings(max_examples=150, deadline=None)
@given(run_slices(), st.integers(0, 1 << 20))
def test_a_checkpoint_is_freed_in_the_sweep_of_its_last_use(traces, order_seed):
    # A trace's segment runs from its LOAD (the first trace's from the
    # start) to its OUT.  A FREE before the segment's first RUN is the
    # availability sweep's; any later one is an eviction, just before the
    # STORE it makes room for.
    ordered = order_slice(traces, "random", seed=order_seed)
    tree = build_tree(ordered)
    prefixes = node_prefixes(tree)
    last = {}
    for j, trace in enumerate(ordered):
        for nid in reference_chain(prefixes, trace.symbols):
            last[nid] = j
    for capacity in (1, 2, tree.capacity, None):
        lines = optimize_slice(tree, capacity, 1.0).lines
        j, ran = 0, False
        for i, line in enumerate(lines):
            op, _, arg = line.partition(" ")
            if op == "OUT":
                j, ran = j + 1, False
            elif op == "RUN":
                ran = True
            elif op == "FREE" and not ran:
                assert last[int(arg)] == j
            elif op == "FREE":
                assert lines[i + 1].startswith("STORE ")
            elif op == "STORE" and i > 0:
                assert last[int(arg)] != j


@settings(max_examples=150, deadline=None)
@given(run_slices(), st.integers(0, 1 << 20))
def test_every_checkpoint_but_an_unshared_root_is_freed(traces, order_seed):
    # A checkpoint is freed once no trace left can load it, whether its
    # prefix is a proper prefix of the traces using it or one of them.
    # Only the root outlives the campaign, when it is not a shared prefix.
    ordered = order_slice(traces, "random", seed=order_seed)
    tree = build_tree(ordered)
    for capacity in (None, 1, 2, 3, tree.capacity):
        counts = optimize_slice(tree, capacity, 1.0).counts
        left = counts.get("store", 0) - counts.get("free", 0)
        assert left == (0 if tree.root_shared else 1)


def test_campaign_file_round_trip(tmp_path):
    ordered = ts("aab", "aac")
    campaign = optimize_slice(build_tree(ordered), 2, 0.5, slice_id=3)
    path = tmp_path / "campaign.txt"
    write_campaign_file(campaign, str(path))
    back = read_campaign_file(str(path), ABCD)
    assert back == campaign
    assert (back.quantum, back.slice_id, back.peak_stored) == (0.5, 3, 2)


# Canonical lines, and some with other spacing.
SPACED_LINES = [
    "STORE 0", "RUN a 2", "OUT", "LOAD 0", "RUN a 2", "RUN  a 2", "RUN b 1",
    "OUT", "  OUT", "STORE 1", "RUN a 2", "OUT", "FREE 1", "FREE 0",
]


def test_a_campaign_file_parses_like_its_lines(tmp_path):
    path = tmp_path / "campaign.txt"
    path.write_text("#q=1;slice=0\n" + "\n".join(SPACED_LINES) + "\n")
    back = read_campaign_file(str(path), ABCD)
    assert back.lines == [parse_command(x.strip(), ABCD) for x in SPACED_LINES]
    assert back.lines == [" ".join(x.split()) for x in SPACED_LINES]
    assert back.peak_stored == 2

    bad = "RUN a 0"
    with pytest.raises(TraceFormatError) as expected:
        parse_command(bad, ABCD)
    lines = SPACED_LINES[:3] + [bad] + SPACED_LINES[3:] + [bad]
    path.write_text("#q=1;slice=0\n" + "\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError) as raised:
        read_campaign_file(str(path), ABCD)
    assert str(raised.value) == str(expected.value)


def test_a_number_int_refuses_is_malformed_in_a_file(tmp_path):
    path = tmp_path / "campaign.txt"
    for line in ("LOAD " + "1" * 5000, "RUN a " + "1" * 5000):
        path.write_text(f"#q=1;slice=0\nSTORE 0\n{line}\nOUT\n")
        with pytest.raises(TraceFormatError, match="malformed campaign command"):
            read_campaign_file(str(path), ABCD)


def test_parse_command_errors():
    for bad in ("RUN a", "RUN a 0", "RUN z 1", "LOAD", "LOAD x", "OUT 1", "NOP"):
        with pytest.raises(TraceFormatError):
            parse_command(bad, ABCD)



def recount(lines):
    """(length in quanta, lines per op, peak stored), counted line by line."""
    length = live = peak = 0
    counts = {}
    for line in lines:
        op, *args = line.split(" ")
        counts[op.lower()] = counts.get(op.lower(), 0) + 1
        if op == "RUN":
            length += int(args[1])
        elif op == "STORE":
            live += 1
            peak = max(peak, live)
        elif op == "FREE":
            live -= 1
    return length, counts, peak


@settings(max_examples=150, deadline=None)
@given(
    run_slices(),
    st.sampled_from([None, 1, 2, "half", "capacity"]),
    st.integers(0, 1 << 20),
    st.sampled_from([("a", "b", "c"), ("x1", "RUN", "a.b")]),
)
def test_the_recorded_summary_is_a_recount_of_the_lines(
    traces, budget, order_seed, tokens
):
    # The scan keeps the summary as it emits; reading the written file
    # back recounts it from the lines.  Both must agree with a recount.
    alphabet = Alphabet(tokens)
    traces = [InputTrace(alphabet, x.symbols) for x in traces]
    ordered = order_slice(traces, "random", seed=order_seed)
    tree = build_tree(ordered)
    capacity = {"half": max(1, tree.capacity // 2), "capacity": tree.capacity}
    campaign = optimize_slice(tree, capacity.get(budget, budget), 0.5, slice_id=2)
    summary = (campaign.length_quanta, campaign.counts, campaign.peak_stored)
    assert summary == recount(campaign.lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "campaign.txt")
        write_campaign_file(campaign, path)
        assert read_campaign_file(path, alphabet) == campaign
