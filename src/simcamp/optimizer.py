"""Memory-bounded campaign generation.

Given a slice in its verification order and the slice's shared-prefix
tree, emit the Load/Store/Free/Run/Out command sequence that replays every
trace while holding at most ``capacity`` simulator states at once.  Each
trace resumes from its deepest stored prefix; runs break at prefixes worth
checkpointing; checkpoints are freed as soon as no remaining trace can
reuse them, or evicted by the depth-gap heuristic when memory is full.

The work per trace is per checkpoint candidate and per run, not per
symbol: storage is decided once for each tree node on the trace's chain
below its load point, and the trace's constant runs (from
``itertools.groupby``) are cut only where a node is stored.  When the
index is full and holds no victim, nothing can be stored before the
trace's Out, so its runs are emitted without consulting any node.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from typing import Iterator, NamedTuple, Sequence

from .traces import Alphabet, InputTrace, TraceFormatError, atomic_text_file
from .tree import ROOT_ID, BranchNode, BranchTree, TreeInvariantError


class Command(NamedTuple):
    """One campaign step; unused fields keep their defaults."""

    op: str  # load | store | free | run | out
    node_id: int = -1
    symbol: int = -1
    quanta: int = 0


@dataclass(slots=True)
class Campaign:
    commands: list[Command]
    quantum: float
    slice_id: int = 0
    peak_stored: int = 0
    alphabet: Alphabet | None = None

    @property
    def length_quanta(self) -> int:
        """Total simulated quanta: the sum of all Run lengths."""
        return sum(c.quanta for c in self.commands if c.op == "run")

    def command_counts(self) -> dict[str, int]:
        return dict(Counter(c.op for c in self.commands))


class CheckpointIndex:
    """Bookkeeping for stored states and the depth-gap eviction policy.

    The victim candidate is the stored node with the smallest gap to its
    parent (a small gap is cheap to recompute), ties broken toward the
    least recently stored.  The reserved initial-state slot is never a
    victim but does occupy capacity.  Implemented as a lazy min-heap over
    (gap, store-sequence, id) with a dict as ground truth.
    """

    def __init__(self, capacity: int | None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("state capacity must be >= 1")
        self.capacity = capacity
        self.live = 0
        self.peak = 0
        self._entries: dict[int, tuple[int, int]] = {}
        self._heap: list[tuple[int, int, int]] = []
        self._seq = 0

    def note_store(self, node_id: int, gap: int) -> None:
        self.live += 1
        if self.live > self.peak:
            self.peak = self.live
        if node_id != ROOT_ID:
            self._seq += 1
            self._entries[node_id] = (gap, self._seq)
            heapq.heappush(self._heap, (gap, self._seq, node_id))

    def note_free(self, node_id: int) -> None:
        self.live -= 1
        self._entries.pop(node_id, None)

    def rekey(self, node_id: int, gap: int) -> None:
        entry = self._entries.get(node_id)
        if entry is not None:
            self._entries[node_id] = (gap, entry[1])
            heapq.heappush(self._heap, (gap, entry[1], node_id))

    def victim(self) -> tuple[int, int] | None:
        """Current eviction candidate as (node_id, gap), or None."""
        while self._heap:
            gap, seq, node_id = self._heap[0]
            if self._entries.get(node_id) == (gap, seq):
                return node_id, gap
            heapq.heappop(self._heap)
        return None


class StorageDecision(NamedTuple):
    action: str  # store | store_evicting | skip
    victim: int = -1


def storage_decision(
    tree: BranchTree, index: CheckpointIndex, node: BranchNode | None
) -> StorageDecision:
    """Whether the state at ``node`` is worth checkpointing right now.

    Never for non-shared or already-stored prefixes.  With free capacity,
    always.  At full capacity, only by evicting a victim whose depth gap
    is strictly smaller than the candidate's.
    """
    if node is None or not node.is_shared_prefix or node.stored:
        return StorageDecision("skip")
    if index.capacity is None or index.live < index.capacity:
        return StorageDecision("store")
    found = index.victim()
    if found is None:
        return StorageDecision("skip")
    victim_id, victim_gap = found
    if victim_gap < tree.depth_gap(node):
        return StorageDecision("store_evicting", victim_id)
    return StorageDecision("skip")


def optimize_slice(
    ordered: Sequence[InputTrace],
    tree: BranchTree,
    capacity: int | None,
    quantum: float,
    slice_id: int = 0,
) -> Campaign:
    """Emit the campaign replaying ``ordered`` under the given state budget.

    ``ordered`` may be any permutation of the trace set the tree was built
    from; the tree's pending counts are consumed in place, so pass a clone
    (``tree.clone()``) to keep one built tree for several calls.
    ``capacity=None`` means unlimited storage (the resulting peak is the
    least capacity that loses nothing).
    """
    if not ordered:
        raise ValueError("cannot optimize an empty slice")
    index = CheckpointIndex(capacity)
    commands: list[Command] = []

    def do_store(node: BranchNode) -> None:
        node.stored = True
        index.note_store(node.node_id, tree.depth_gap(node))
        commands.append(Command("store", node_id=node.node_id))

    def do_free(node: BranchNode) -> None:
        node.stored = False
        index.note_free(node.node_id)
        commands.append(Command("free", node_id=node.node_id))

    def emit_runs(symbols: tuple[int, ...]) -> None:
        for symbol, group in groupby(symbols):
            commands.append(Command("run", symbol=symbol, quanta=len(list(group))))

    # The campaign begins by checkpointing the initial state under id 0.
    do_store(tree.root)

    for j, trace in enumerate(ordered):
        s = trace.symbols
        h = len(s)
        chain = tree.chain_for(s)
        k = len(chain) - 1
        while k >= 0 and not chain[k].stored:
            k -= 1
        if k < 0:
            raise TreeInvariantError("no stored prefix to resume the trace from")
        load_node = chain[k]
        if j > 0:
            commands.append(Command("load", node_id=load_node.node_id))
        start = load_node.depth

        # Availability sweep: every proper prefix of this trace has one
        # fewer pending use; prefixes reaching zero can never be reused.
        for node in reversed(chain):
            if node.depth <= h - 1 and node.is_shared_prefix:
                node.pending -= 1
                if node.pending < 0:
                    raise TreeInvariantError(
                        "slice does not match the tree it was built from"
                    )
                if node.pending == 0:
                    if node.stored:
                        do_free(node)
                    for child in tree.remove(node.node_id):
                        index.rekey(child.node_id, tree.depth_gap(child))

        # Run scan: storage is decided once per chain node below the load
        # node, and the trace's constant runs are cut where a node is
        # stored.  A full index with no victim stays so until this trace's
        # Out, since nothing is stored, so then no node is consulted.
        if (
            index.capacity is not None
            and index.live >= index.capacity
            and index.victim() is None
        ):
            candidates: Sequence[BranchNode] = ()
        else:
            candidates = chain[k + 1:]
        pos = start
        for node in candidates:
            decision = storage_decision(tree, index, node)
            if decision.action == "skip":
                continue
            emit_runs(s[pos:node.depth])
            pos = node.depth
            if decision.action == "store_evicting":
                do_free(tree.nodes[decision.victim])
            do_store(node)
        emit_runs(s[pos:])
        commands.append(Command("out"))

    return Campaign(
        commands=commands,
        quantum=quantum,
        slice_id=slice_id,
        peak_stored=index.peak,
        alphabet=ordered[0].alphabet,
    )


# ---------------------------------------------------------------------------
# Campaign file format
#
#   line 1:  #q=<decimal>;slice=<i>
#   then one command per line:
#     LOAD <id> | STORE <id> | FREE <id> | RUN <token> <k> | OUT
# ---------------------------------------------------------------------------


def campaign_lines(campaign: Campaign) -> Iterator[str]:
    """The campaign's file/protocol lines, header first."""
    yield f"#q={campaign.quantum:g};slice={campaign.slice_id}"
    for cmd in campaign.commands:
        yield format_command(cmd, campaign.alphabet)


def format_command(cmd: Command, alphabet: Alphabet | None) -> str:
    if cmd.op == "run":
        if alphabet is None:
            raise ValueError("cannot format Run commands without an alphabet")
        return f"RUN {alphabet.tokens[cmd.symbol]} {cmd.quanta}"
    if cmd.op == "out":
        return "OUT"
    if cmd.op in ("load", "store", "free"):
        return f"{cmd.op.upper()} {cmd.node_id}"
    raise ValueError(f"unknown command op {cmd.op!r}")


def parse_campaign_header(line: str) -> tuple[float, int]:
    line = line.strip()
    if not line.startswith("#q="):
        raise TraceFormatError("missing #q= header on line 1 of campaign file")
    try:
        q_part, slice_part = line[1:].split(";", 1)
        quantum = float(q_part[len("q="):])
        if not slice_part.startswith("slice="):
            raise ValueError
        slice_id = int(slice_part[len("slice="):])
    except ValueError as exc:
        raise TraceFormatError(f"malformed campaign header: {line!r}") from exc
    if quantum <= 0:
        raise TraceFormatError("campaign quantum must be > 0")
    return quantum, slice_id


def parse_command(line: str, alphabet: Alphabet) -> Command:
    parts = line.split()
    try:
        if parts[0] == "OUT" and len(parts) == 1:
            return Command("out")
        if parts[0] in ("LOAD", "STORE", "FREE") and len(parts) == 2:
            return Command(parts[0].lower(), node_id=int(parts[1]))
        if parts[0] == "RUN" and len(parts) == 3:
            quanta = int(parts[2])
            if quanta < 1:
                raise ValueError
            return Command("run", symbol=alphabet.index(parts[1]), quanta=quanta)
    except TraceFormatError as exc:
        raise TraceFormatError(f"malformed campaign command: {line!r} ({exc})") from exc
    except (ValueError, IndexError) as exc:
        raise TraceFormatError(f"malformed campaign command: {line!r}") from exc
    raise TraceFormatError(f"malformed campaign command: {line!r}")


def write_campaign_file(campaign: Campaign, path: str) -> None:
    with atomic_text_file(path) as fh:
        for line in campaign_lines(campaign):
            fh.write(line + "\n")


def read_campaign_file(path: str, alphabet: Alphabet) -> Campaign:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise TraceFormatError("empty campaign file")
        quantum, slice_id = parse_campaign_header(header)
        commands = []
        live = peak = 0
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            cmd = parse_command(line, alphabet)
            commands.append(cmd)
            if cmd.op == "store":
                live += 1
                peak = max(peak, live)
            elif cmd.op == "free":
                live -= 1
    return Campaign(
        commands=commands,
        quantum=quantum,
        slice_id=slice_id,
        peak_stored=peak,
        alphabet=alphabet,
    )
