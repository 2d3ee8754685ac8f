from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from simcamp.engine import execute, reference_model
from simcamp.oracles import edge_count, naive_campaign
from simcamp.optimizer import (
    Campaign,
    CheckpointIndex,
    Command,
    campaign_lines,
    optimize_slice,
    parse_command,
    read_campaign_file,
    write_campaign_file,
)
from simcamp.slicing import order_slice
from simcamp.traces import Alphabet, InputTrace, TraceFormatError
from simcamp.tree import TreeInvariantError, build_tree
from util import ABCD, random_traces, t, ts


def tree_for(traces):
    return build_tree(sorted(traces, key=lambda x: x.symbols))


def reference_decision(tree, index, node):
    """The storage rule as a standalone function: ("skip" | "store" |
    "store_evicting", victim id).  Never for non-shared or already-stored
    prefixes.  With free capacity, always.  At full capacity, only by
    evicting a victim whose depth gap is strictly smaller."""
    if node is None or not node.is_shared_prefix or node.node_id in index.entries:
        return "skip", -1
    if index.capacity is None or len(index.entries) < index.capacity:
        return "store", -1
    found = index.victim()
    if found is not None and found[1] < tree.depth_gap(node):
        return "store_evicting", found[0]
    return "skip", -1


def reference_optimize_slice(ordered, tree, capacity, quantum, slice_id=0):
    """``optimize_slice`` with an earlier run scan, one step per symbol
    and one ``reference_decision`` call per boundary: the reference whose
    campaigns the run-by-run scan must reproduce."""
    if not ordered:
        raise ValueError("cannot optimize an empty slice")
    index = CheckpointIndex(capacity)
    commands = []

    def do_store(node):
        index.note_store(node.node_id, tree.depth_gap(node))
        commands.append(Command("store", node_id=node.node_id))

    def do_free(node):
        index.note_free(node.node_id)
        commands.append(Command("free", node_id=node.node_id))

    do_store(tree.root)
    for j, trace in enumerate(ordered):
        s = trace.symbols
        h = len(s)
        chain = tree.chain_for(s)
        load_node = next(n for n in reversed(chain) if n.node_id in index.entries)
        if j > 0:
            commands.append(Command("load", node_id=load_node.node_id))
        start = load_node.depth
        by_depth = {n.depth: n for n in chain}
        for node in reversed(chain):
            if node.depth <= h - 1 and node.is_shared_prefix:
                node.pending -= 1
                if node.pending < 0:
                    raise TreeInvariantError(
                        "slice does not match the tree it was built from"
                    )
                if node.pending == 0:
                    if node.node_id in index.entries:
                        do_free(node)
                    for child in tree.remove(node.node_id):
                        index.rekey(child.node_id, tree.depth_gap(child))
        while start < h:
            end = start
            while end + 1 <= h - 1 and s[end + 1] == s[start]:
                boundary = by_depth.get(end + 1)
                if (
                    boundary is not None
                    and reference_decision(tree, index, boundary)[0] != "skip"
                ):
                    break
                end += 1
            commands.append(Command("run", symbol=s[start], quanta=end - start + 1))
            start = end + 1
            boundary = by_depth.get(start)
            if boundary is not None:
                action, victim = reference_decision(tree, index, boundary)
                if action == "store_evicting":
                    do_free(tree.nodes[victim])
                    do_store(boundary)
                elif action == "store":
                    do_store(boundary)
        commands.append(Command("out"))
    return Campaign(commands, quantum, slice_id, index.peak, ordered[0].alphabet)


def test_two_trace_campaign_with_reuse():
    ordered = ts("aab", "aac")
    campaign = optimize_slice(ordered, tree_for(ordered), 2, 0.5)
    assert list(campaign_lines(campaign)) == [
        "#q=0.5;slice=0",
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
    campaign = optimize_slice(ordered, tree_for(ordered), 1, 0.5)
    assert list(campaign_lines(campaign)) == [
        "#q=0.5;slice=0",
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
    campaign = optimize_slice(ordered, tree_for(ordered), None, 1.0)
    assert list(campaign_lines(campaign)) == [
        "#q=1;slice=0",
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
    campaign = optimize_slice(ordered, tree_for(ordered), 4, 1.0)
    assert list(campaign_lines(campaign)) == [
        "#q=1;slice=0",
        "STORE 0",
        "RUN a 2",
        "RUN b 1",
        "OUT",
    ]


def test_trace_equal_to_stored_prefix():
    # "aa" itself ends exactly at the shared prefix: store happens at full
    # depth, and the checkpoint is never freed (the availability sweep only
    # counts down proper prefixes, and "aa" is not a proper prefix of itself).
    ordered = ts("aa", "aab")
    campaign = optimize_slice(ordered, tree_for(ordered), None, 1.0)
    assert list(campaign_lines(campaign)) == [
        "#q=1;slice=0",
        "STORE 0",
        "RUN a 2",
        "STORE 1",
        "OUT",
        "LOAD 1",
        "RUN b 1",
        "OUT",
    ]
    assert campaign.length_quanta == 3
    assert campaign.peak_stored == 2


def test_rejects_empty_slice():
    with pytest.raises(ValueError):
        optimize_slice([], build_tree([]), 1, 1.0)


def test_optimize_slice_leaves_its_tree_unchanged():
    ordered = ts("aab", "aac", "ab", "ba")
    tree = tree_for(ordered)
    before = tree.shared_prefix_map()
    first = optimize_slice(ordered, tree, None, 1.0)
    assert tree.shared_prefix_map() == before
    assert optimize_slice(ordered, tree, None, 1.0).commands == first.commands


def test_foreign_tree_still_replays_faithfully():
    # A tree built from a subset cannot break replay, only shorten reuse.
    ordered = ts("aab", "aac", "aad")
    campaign = optimize_slice(ordered, tree_for(ts("aab", "aac")), 2, 1.0)
    result = execute(campaign, reference_model(ABCD, 0))
    assert result.executable
    assert [o.symbols for o in result.observations] == [x.symbols for x in ordered]


def test_checkpoint_index_eviction_order():
    index = CheckpointIndex(3)
    index.note_store(0, 0)   # reserved slot: occupies capacity, never a victim
    index.note_store(5, 2)
    index.note_store(7, 2)
    index.note_store(9, 4)
    assert len(index.entries) == 4 and index.peak == 4
    # equal gaps tie-break toward the least recently stored
    assert index.victim() == (5, 2)
    index.note_free(5)
    assert index.victim() == (7, 2)  # stale heap head is skipped lazily
    index.rekey(9, 1)
    assert index.victim() == (9, 1)
    index.note_free(9)
    index.note_free(7)
    assert index.victim() is None
    with pytest.raises(ValueError):
        CheckpointIndex(0)


def test_random_corpora_reach_the_edge_bound():
    rng = random.Random(99)
    for _ in range(40):
        _, traces = random_traces(rng, rng.randint(2, 60), rng.randint(2, 4), 7)
        ordered = order_slice(traces, "random", seed=rng.randrange(1 << 20))
        tree = tree_for(traces)
        campaign = optimize_slice(ordered, tree, tree.capacity, 1.0)
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
        tree = tree_for(traces)
        naive_len = naive_campaign(ordered, 1.0).length_quanta
        lengths = {}
        for sigma in (1, 2, max(1, tree.capacity // 2), tree.capacity):
            campaign = optimize_slice(ordered, tree, sigma, 1.0)
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
    tree = tree_for(traces)
    unlimited = optimize_slice(ordered, tree, None, 1.0)
    sigma = unlimited.peak_stored + extra
    bounded = optimize_slice(ordered, tree, sigma, 1.0)
    assert bounded.commands == unlimited.commands
    assert bounded.peak_stored == unlimited.peak_stored


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
    st.sampled_from([None, 1, 2, 3, 5]),
    st.integers(0, 1 << 20),
    st.one_of(st.none(), st.lists(st.booleans(), min_size=1)),
)
def test_run_scan_matches_the_per_symbol_scan(traces, capacity, order_seed, subset):
    # ``subset`` builds the tree from part of the slice, as a foreign tree.
    ordered = order_slice(traces, "random", seed=order_seed)
    members = traces
    if subset is not None:
        members = [x for x, keep in zip(traces, subset + [False] * len(traces)) if keep]
    tree = build_tree(members)

    def outcome(optimize):
        try:
            campaign = optimize(ordered, tree.clone(), capacity, 1.0)
        except TreeInvariantError as exc:
            return str(exc)
        except StopIteration:
            # The reference's load search, when no prefix is stored at all.
            return "no stored prefix to resume the trace from"
        return campaign.commands, campaign.peak_stored

    assert outcome(optimize_slice) == outcome(reference_optimize_slice)


def test_campaign_file_round_trip(tmp_path):
    ordered = ts("aab", "aac")
    campaign = optimize_slice(ordered, tree_for(ordered), 2, 0.5, slice_id=3)
    path = tmp_path / "campaign.txt"
    write_campaign_file(campaign, str(path))
    back = read_campaign_file(str(path), ABCD)
    assert back.commands == campaign.commands
    assert back.quantum == campaign.quantum
    assert back.slice_id == 3
    assert back.peak_stored == 2


def test_parse_command_errors():
    for bad in ("RUN a", "RUN a 0", "RUN z 1", "LOAD", "LOAD x", "OUT 1", "NOP"):
        with pytest.raises(TraceFormatError):
            parse_command(bad, ABCD)


def test_campaign_lines_need_alphabet_for_runs():
    campaign = Campaign([Command("run", symbol=0, quanta=1)], 1.0)
    with pytest.raises(ValueError):
        list(campaign_lines(campaign))
