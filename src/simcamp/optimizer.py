"""Memory-bounded campaign generation.

Given a slice in its verification order and the slice's shared-prefix
tree, emit the Load/Store/Free/Run/Out command sequence that replays every
trace while holding at most ``capacity`` simulator states at once.  Each
trace resumes from its deepest stored prefix; runs break at prefixes worth
checkpointing; checkpoints are freed as soon as no remaining trace can
reuse them, or evicted by the depth-gap heuristic when memory is full.

``CheckpointIndex`` is the one record of which nodes hold a checkpoint,
the reserved root included; the tree only knows prefixes and their
pending uses.  The storage rule lives in one place, the run scan of
``optimize_slice``: its work per trace is per checkpoint candidate and
per run, not per symbol.  Storage is decided once for each tree node on
the trace's chain below its load point, and the trace's constant runs
(from ``itertools.groupby``) are cut only where a node is stored.
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
    """The stored states and the depth-gap eviction policy.

    ``entries`` maps every stored node id, the reserved root included, to
    its (gap, store-sequence) key; membership in it is what "stored" means.
    The victim candidate is the stored node with the smallest gap to its
    parent (a small gap is cheap to recompute), ties broken toward the
    least recently stored.  The root occupies capacity but is never a
    victim: its key never enters the lazy min-heap over (gap, seq, id).
    """

    def __init__(self, capacity: int | None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("state capacity must be >= 1")
        self.capacity = capacity
        self.peak = 0
        self.entries: dict[int, tuple[int, int]] = {}
        self._heap: list[tuple[int, int, int]] = []
        self._seq = 0

    def note_store(self, node_id: int, gap: int) -> None:
        self._seq += 1
        self.entries[node_id] = (gap, self._seq)
        if node_id != ROOT_ID:
            heapq.heappush(self._heap, (gap, self._seq, node_id))
        if len(self.entries) > self.peak:
            self.peak = len(self.entries)

    def note_free(self, node_id: int) -> None:
        del self.entries[node_id]

    def rekey(self, node_id: int, gap: int) -> None:
        """Give a stored node its new gap; ignores ids that are not stored."""
        entry = self.entries.get(node_id)
        if entry is not None:
            self.entries[node_id] = (gap, entry[1])
            heapq.heappush(self._heap, (gap, entry[1], node_id))

    def victim(self) -> tuple[int, int] | None:
        """Current eviction candidate as (node_id, gap), or None."""
        while self._heap:
            gap, seq, node_id = self._heap[0]
            if self.entries.get(node_id) == (gap, seq):
                return node_id, gap
            heapq.heappop(self._heap)
        return None


def optimize_slice(
    ordered: Sequence[InputTrace],
    tree: BranchTree,
    capacity: int | None,
    quantum: float,
    slice_id: int = 0,
) -> Campaign:
    """Emit the campaign replaying ``ordered`` under the given state budget.

    ``ordered`` may be any permutation of the trace set the tree was built
    from.  The scan consumes pending counts on a copy of ``tree``, which
    is left unchanged, so one built tree can feed any number of calls.
    ``capacity=None`` means unlimited storage (the resulting peak is the
    least capacity that loses nothing).
    """
    if not ordered:
        raise ValueError("cannot optimize an empty slice")
    tree = tree.clone()
    index = CheckpointIndex(capacity)
    stored = index.entries
    commands: list[Command] = []

    def do_store(node: BranchNode) -> None:
        index.note_store(node.node_id, tree.depth_gap(node))
        commands.append(Command("store", node_id=node.node_id))

    def do_free(node_id: int) -> None:
        index.note_free(node_id)
        commands.append(Command("free", node_id=node_id))

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
        while k >= 0 and chain[k].node_id not in stored:
            k -= 1
        if k < 0:
            raise TreeInvariantError("no stored prefix to resume the trace from")
        load_node = chain[k]
        if j > 0:
            commands.append(Command("load", node_id=load_node.node_id))

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
                    if node.node_id in stored:
                        do_free(node.node_id)
                    for child in tree.remove(node.node_id):
                        index.rekey(child.node_id, tree.depth_gap(child))

        # Run scan over the chain nodes below the load node, none of them
        # stored: each is stored if there is room, or at full capacity by
        # evicting a victim whose gap is strictly smaller.  The trace's
        # constant runs are cut where a node is stored.
        pos = load_node.depth
        for node in chain[k + 1:]:
            if not node.is_shared_prefix:
                continue  # this trace's sweep just removed it
            victim = None
            if capacity is not None and len(stored) >= capacity:
                found = index.victim()
                if found is None:
                    break  # nothing is stored or freed before this trace's Out
                victim, victim_gap = found
                if victim_gap >= tree.depth_gap(node):
                    continue
            emit_runs(s[pos:node.depth])
            pos = node.depth
            if victim is not None:
                do_free(victim)
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
