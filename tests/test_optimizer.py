from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import simcamp.optimizer as optimizer
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
from simcamp.tree import ROOT_ID, TreeInvariantError, build_tree
from util import ABCD, random_traces, t, ts


def tree_for(traces):
    return build_tree(sorted(traces, key=lambda x: x.symbols))


def reference_next_use(prefixes, ordered, node_id, j):
    """The position of the first trace after ``j`` in ``ordered`` whose
    chain holds the node, found by a linear search; ``len(ordered)`` if
    none does.  ``prefixes`` holds every node's prefix."""
    prefix = prefixes[node_id]
    for p in range(j + 1, len(ordered)):
        if ordered[p].symbols[:len(prefix)] == prefix:
            return p
    return len(ordered)


def reference_decision(capacity, stored, node, next_use):
    """The storage rule as a standalone function: ("skip" | "store" |
    "store_evicting", victim id).  ``stored`` maps each stored node id to
    its (next use, store sequence).  Never for non-shared or already-stored
    prefixes.  With free capacity, always.  At full capacity, only by
    evicting the stored node other than the root whose next use is
    furthest (ties: the least recently stored), when that use is strictly
    later than the candidate's ``next_use``."""
    if not node.is_shared_prefix or node.node_id in stored:
        return "skip", -1
    if capacity is None or len(stored) < capacity:
        return "store", -1
    keys = [(-use, seq, nid) for nid, (use, seq) in stored.items() if nid != ROOT_ID]
    if keys:
        neg_use, _, victim = min(keys)
        if -neg_use > next_use:
            return "store_evicting", victim
    return "skip", -1


def reference_optimize_slice(ordered, tree, capacity, quantum, slice_id=0):
    """``optimize_slice`` with an earlier run scan, one step per symbol
    and one ``reference_decision`` call per boundary, and with next uses
    found by linear search and victims by a search of every stored node:
    the reference whose campaigns the run-by-run scan must reproduce.
    Pending uses are counted down in a dict; a node whose count reaches
    zero joins ``dead``, and chain walks stop above a dead node other
    than the root."""
    if not ordered:
        raise ValueError("cannot optimize an empty slice")
    prefixes = {nid: tree.prefix_of(nid) for nid in tree.nodes}
    pending = {nid: node.pending for nid, node in tree.nodes.items()}
    dead = set()
    stored = {}
    sequence = itertools.count(1)
    peak = 0
    commands = []

    def next_use(node, j):
        return reference_next_use(prefixes, ordered, node.node_id, j)

    def do_store(node, j):
        nonlocal peak
        stored[node.node_id] = (next_use(node, j), next(sequence))
        peak = max(peak, len(stored))
        commands.append(Command("store", node_id=node.node_id))

    def do_free(node):
        del stored[node.node_id]
        commands.append(Command("free", node_id=node.node_id))

    do_store(tree.root, -1)
    for j, trace in enumerate(ordered):
        s = trace.symbols
        h = len(s)
        chain = list(itertools.takewhile(
            lambda n: n.node_id == ROOT_ID or n.node_id not in dead,
            tree.chain_for(s),
        ))
        load_node = next(n for n in reversed(chain) if n.node_id in stored)
        if j > 0:
            commands.append(Command("load", node_id=load_node.node_id))
        start = load_node.depth
        by_depth = {n.depth: n for n in chain}
        for node in reversed(chain):
            if node.depth <= h and node.is_shared_prefix and node.node_id not in dead:
                pending[node.node_id] -= 1
                if pending[node.node_id] == 0:
                    if node.node_id in stored:
                        do_free(node)
                    dead.add(node.node_id)

        def decide(boundary):
            if boundary is None or boundary.node_id in dead:
                return "skip", -1
            return reference_decision(capacity, stored, boundary, next_use(boundary, j))

        while start < h:
            end = start
            while end + 1 <= h - 1 and s[end + 1] == s[start]:
                if decide(by_depth.get(end + 1))[0] != "skip":
                    break
                end += 1
            commands.append(Command("run", symbol=s[start], quanta=end - start + 1))
            start = end + 1
            boundary = by_depth.get(start)
            action, victim = decide(boundary)
            if action == "store_evicting":
                do_free(tree.nodes[victim])
                do_store(boundary, j)
            elif action == "store":
                do_store(boundary, j)
        commands.append(Command("out"))
        for node in chain:
            if node.node_id in stored:
                stored[node.node_id] = (next_use(node, j), stored[node.node_id][1])
    return Campaign(commands, quantum, slice_id, peak, ordered[0].alphabet)


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
    # depth.  The availability sweep counts trace "aa" as a use of its own
    # prefix, so "aab" is the checkpoint's last use and frees it once loaded.
    ordered = ts("aa", "aab")
    campaign = optimize_slice(ordered, tree_for(ordered), None, 1.0)
    assert list(campaign_lines(campaign)) == [
        "#q=1;slice=0",
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
    # used by "aa" and "ab" by "abb", one trace later, so next use evicts
    # "ab": 10 quanta.  Always evicting the least recently stored checkpoint
    # takes 11.  "ab" needs the later use: since the availability sweep
    # counts a trace as a use of its own prefix, trace "ab" would otherwise
    # free it, and "bb" would find a free slot.
    ordered = ts("aba", "ab", "bb", "aa", "bbba", "abb")
    campaign = optimize_slice(ordered, tree_for(ordered), 3, 1.0)
    assert list(campaign_lines(campaign)) == [
        "#q=1;slice=0",
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


def test_checkpoint_equal_to_a_trace_is_freed_after_its_last_use():
    # "ab" is stored while replaying "aba" and last used by trace "ab",
    # which frees it, so the unlimited campaign holds at most 3 states.
    ordered = ts("aba", "ab", "bb", "aa", "bbba")
    campaign = optimize_slice(ordered, tree_for(ordered), None, 1.0)
    assert campaign.peak_stored == 3
    assert campaign.length_quanta == 8
    lines = list(campaign_lines(campaign))
    assert lines[8:11] == ["LOAD 2", "FREE 2", "OUT"]


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
    tree = tree_for(ordered)
    for sigma in (None, 1, tree.capacity, tree.capacity + 1):
        optimize_slice(ordered, tree, sigma, 1.0)
    assert calls == []
    optimize_slice(ordered, tree, tree.capacity - 1, 1.0)
    assert calls == [len(ordered)]


def test_budgets_that_cannot_bind_rekey_nothing(monkeypatch):
    # Unkeyed, every checkpoint's key is 0, so a re-key could change none.
    calls = []
    rekey = CheckpointIndex.rekey

    def spy(self, node_id, next_use):
        calls.append(node_id)
        return rekey(self, node_id, next_use)

    monkeypatch.setattr(CheckpointIndex, "rekey", spy)
    ordered = ts("aba", "ab", "bb", "aa", "bbba", "abab", "bbb")
    tree = tree_for(ordered)
    for sigma in (None, tree.capacity):
        optimize_slice(ordered, tree, sigma, 1.0)
    assert calls == []
    optimize_slice(ordered, tree, tree.capacity - 1, 1.0)
    assert calls


def test_rejects_empty_slice():
    with pytest.raises(ValueError):
        optimize_slice([], build_tree([]), 1, 1.0)


def tree_snapshot(tree):
    return {
        node_id: (
            node.parent_id,
            node.seg,
            node.depth,
            node.pending,
            node.is_shared_prefix,
            dict(node.child_by_symbol),
        )
        for node_id, node in tree.nodes.items()
    }


def test_optimize_slice_leaves_its_tree_unchanged():
    native = ts("aab", "aac", "ab", "ba", "bb", "bba")
    # A foreign tree whose node "a" dies, after "ab", "ac" and "ad", while
    # its child "aa" is still in the tree.
    foreign = tree_for(ts("aab", "aac", "ab"))
    node_a = foreign.chain_for(t("aab").symbols)[1]
    assert node_a.pending == 3 and node_a.child_by_symbol
    for ordered, tree in (
        (native, tree_for(native)),
        (ts("ab", "ac", "ad", "aab"), foreign),
    ):
        before = tree_snapshot(tree)
        for sigma in (None, 1, 2, tree.capacity - 1):
            first = optimize_slice(ordered, tree, sigma, 1.0)
            assert tree_snapshot(tree) == before
            again = optimize_slice(ordered, tree, sigma, 1.0)
            assert again.commands == first.commands


def test_foreign_tree_still_replays_faithfully():
    # A tree built from a subset cannot break replay, only shorten reuse.
    ordered = ts("aab", "aac", "aad")
    campaign = optimize_slice(ordered, tree_for(ts("aab", "aac")), 2, 1.0)
    result = execute(campaign, reference_model(ABCD, 0))
    assert result.executable
    assert [o.symbols for o in result.observations] == [x.symbols for x in ordered]


def test_checkpoint_index_eviction_order():
    index = CheckpointIndex(3, 10)
    index.note_store(0, 99)  # reserved slot: occupies capacity, never a victim
    index.note_store(5, 6)
    index.note_store(7, 6)
    index.note_store(9, 4)
    assert len(index.entries) == 4 and index.peak == 4
    # the furthest next use is the victim; equal next uses tie-break
    # toward the least recently stored
    assert index.victim() == (5, 6)
    index.note_free(5)
    assert index.victim() == (7, 6)  # stale heap head is skipped lazily
    index.rekey(9, 8)
    assert index.victim() == (9, 8)
    # Re-keying every stored id, the root included, keeps the root out:
    # on equal keys it would win the tie as the least recently stored.
    for node_id in list(index.entries):
        index.rekey(node_id, 1000)
    assert index.entries[0] == (99, 1)
    assert index.victim() == (7, 1000)
    index.note_free(7)
    assert index.victim() == (9, 1000)
    index.note_free(9)
    assert index.victim() is None
    assert list(index.entries) == [0]
    with pytest.raises(ValueError):
        CheckpointIndex(0, 10)


def test_checkpoint_index_heap_stays_bounded_under_rekeys():
    index = CheckpointIndex(5, 10)
    index.note_store(0, 0)
    for node_id in range(1, 5):
        index.note_store(node_id, node_id)
    for step in range(1, 1001):
        node_id = step % 4 + 1
        index.rekey(node_id, 10 * step + node_id)
        assert len(index._heap) <= 2 * len(index.entries) + 8
    # The last re-keys gave node 1 the furthest next use, then 4, 3, 2.
    for node_id in (1, 4, 3, 2):
        assert index.victim() == (node_id, index.entries[node_id][0])
        index.note_free(node_id)
    assert index.victim() is None


@pytest.mark.parametrize("capacity", [None, 1, 5, 6])
def test_a_budget_that_cannot_evict_keeps_no_heap(capacity):
    index = CheckpointIndex(capacity, 5)
    assert not index.evicts
    for node_id in range(5):
        index.note_store(node_id, 0)
    assert index._heap == [] and index.victim() is None
    assert CheckpointIndex(4, 5).evicts


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
    st.sampled_from([None, 1, 2, 3, 5, "half", "capacity-1"]),
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
    if capacity == "half":
        capacity = max(1, tree.capacity // 2)
    elif capacity == "capacity-1":
        capacity = max(1, tree.capacity - 1)

    def outcome(optimize):
        try:
            campaign = optimize(ordered, tree, capacity, 1.0)
        except TreeInvariantError as exc:
            return str(exc)
        except StopIteration:
            # The reference's load search, when no prefix is stored at all.
            return "no stored prefix to resume the trace from"
        return campaign.commands, campaign.peak_stored

    assert outcome(optimize_slice) == outcome(reference_optimize_slice)


@settings(max_examples=150, deadline=None)
@given(run_slices(), st.integers(0, 1 << 20))
def test_every_checkpoint_but_an_unshared_root_is_freed(traces, order_seed):
    # A checkpoint is freed once no trace left can load it, whether its
    # prefix is a proper prefix of the traces using it or one of them.
    # Only the root outlives the campaign, when it is not a shared prefix.
    ordered = order_slice(traces, "random", seed=order_seed)
    tree = tree_for(traces)
    for capacity in (None, 1, 2, 3, tree.capacity):
        counts = optimize_slice(ordered, tree, capacity, 1.0).command_counts()
        left = counts.get("store", 0) - counts.get("free", 0)
        assert left == (0 if tree.root.is_shared_prefix else 1)


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


# RUN and OUT lines repeat, some with other spacing; id lines do not.
REPEATING_LINES = [
    "STORE 0", "RUN a 2", "OUT", "LOAD 0", "RUN a 2", "RUN  a 2", "RUN b 1",
    "OUT", "  OUT", "STORE 1", "RUN a 2", "OUT", "FREE 1", "FREE 0",
]


def test_a_campaign_file_parses_like_its_lines(tmp_path):
    path = tmp_path / "campaign.txt"
    path.write_text("#q=1;slice=0\n" + "\n".join(REPEATING_LINES) + "\n")
    back = read_campaign_file(str(path), ABCD)
    assert back.commands == [parse_command(x.strip(), ABCD) for x in REPEATING_LINES]
    assert back.peak_stored == 2

    bad = "RUN a 0"
    with pytest.raises(TraceFormatError) as expected:
        parse_command(bad, ABCD)
    lines = REPEATING_LINES[:3] + [bad] + REPEATING_LINES[3:] + [bad]
    path.write_text("#q=1;slice=0\n" + "\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError) as raised:
        read_campaign_file(str(path), ABCD)
    assert str(raised.value) == str(expected.value)


def test_parse_command_errors():
    for bad in ("RUN a", "RUN a 0", "RUN z 1", "LOAD", "LOAD x", "OUT 1", "NOP"):
        with pytest.raises(TraceFormatError):
            parse_command(bad, ABCD)


def test_campaign_lines_need_alphabet_for_runs():
    campaign = Campaign([Command("run", symbol=0, quanta=1)], 1.0)
    with pytest.raises(ValueError):
        list(campaign_lines(campaign))
