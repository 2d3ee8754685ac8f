"""Memory-bounded campaign generation.

Given a slice in its verification order and the slice's shared-prefix
tree, emit the Load/Store/Free/Run/Out command sequence that replays every
trace while holding at most ``capacity`` simulator states at once.  Each
trace resumes from its deepest stored prefix; runs break at prefixes worth
checkpointing; checkpoints are freed as soon as no remaining trace can
reuse them, or, when memory is full, the one whose next use lies furthest
ahead in the fixed verification order is evicted (Belady's rule).

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
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import groupby, islice
from typing import Iterator, NamedTuple, Sequence

from .traces import (
    Alphabet,
    InputTrace,
    TraceFormatError,
    atomic_text_file,
    check_quantum,
    format_number,
)
from .tree import ROOT_ID, BranchTree, TreeInvariantError


class Command(NamedTuple):
    """One campaign step; unused fields keep their defaults."""

    op: str  # load | store | free | run | out
    node_id: int = -1
    symbol: int = -1
    quanta: int = 0


_OUT = Command("out")


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
    """The stored states and the furthest-next-use eviction policy.

    ``entries`` maps every stored node id, the reserved root included, to
    its (next use, store-sequence) key; membership in it is what "stored"
    means.  A node's next use is the position, in the verification order,
    of the next trace whose chain holds it.  The victim candidate is the
    stored node used furthest in the future, ties broken toward the least
    recently stored; with uniform recompute costs this is the optimal
    offline rule (Belady, 1966).  The root occupies capacity but is never
    a victim: its key never enters the lazy heap over (-next use, seq, id).

    ``size`` is the number of nodes that could ever be stored.  Only a
    capacity strictly between 1, the root alone, and ``size`` can ever
    evict (``evicts``); any other keeps no heap and has no victim.
    """

    def __init__(self, capacity: int | None, size: int) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("state capacity must be >= 1")
        self.capacity = capacity
        self.evicts = capacity is not None and 1 < capacity < size
        self.peak = 0
        self.entries: dict[int, tuple[int, int]] = {}
        self._heap: list[tuple[int, int, int]] = []
        self._seq = 0

    def note_store(self, node_id: int, next_use: int) -> None:
        self._seq += 1
        self.entries[node_id] = (next_use, self._seq)
        if self.evicts and node_id != ROOT_ID:
            self._push(node_id, next_use, self._seq)
        if len(self.entries) > self.peak:
            self.peak = len(self.entries)

    def note_free(self, node_id: int) -> None:
        del self.entries[node_id]

    def rekey(self, node_id: int, next_use: int) -> None:
        """Give a stored node its new next use; ignores the root, ids that
        are not stored and unchanged keys."""
        entry = self.entries.get(node_id)
        if entry is not None and entry[0] != next_use and node_id != ROOT_ID:
            self.entries[node_id] = (next_use, entry[1])
            if self.evicts:
                self._push(node_id, next_use, entry[1])

    def _push(self, node_id: int, next_use: int, seq: int) -> None:
        heapq.heappush(self._heap, (-next_use, seq, node_id))
        # Superseded keys leave the heap only when they reach its head;
        # once they outnumber the live ones, rebuild it from the live keys.
        if len(self._heap) > 2 * len(self.entries) + 8:
            self._heap = [
                (-use, order, nid)
                for nid, (use, order) in self.entries.items()
                if nid != ROOT_ID
            ]
            heapq.heapify(self._heap)

    def victim(self) -> tuple[int, int] | None:
        """Current eviction candidate as (node_id, next use), or None."""
        while self._heap:
            neg_use, seq, node_id = self._heap[0]
            if self.entries.get(node_id) == (-neg_use, seq):
                return node_id, -neg_use
            heapq.heappop(self._heap)
        return None


def _next_use_table(chains: Sequence[tuple[int, ...]], size: int) -> list[list[int]]:
    """For each node id below ``size``, the positions in ``chains`` of the
    chains that hold it, ascending, then ``len(chains)``."""
    uses: list[list[int]] = [[] for _ in range(size)]
    for j, chain in enumerate(chains):
        for node_id in chain:
            uses[node_id].append(j)
    for positions in uses:
        positions.append(len(chains))
    return uses


def optimize_slice(
    ordered: Sequence[InputTrace],
    tree: BranchTree,
    capacity: int | None,
    quantum: float,
    slice_id: int = 0,
) -> Campaign:
    """Emit the campaign replaying ``ordered`` under the given state budget.

    ``ordered`` may be any permutation of the trace set the tree was built
    from.  The scan only reads ``tree``: each trace's chain comes as node
    ids from the record ``build_tree`` made (``BranchTree.chain_ids``),
    and pending uses, copied from the weights the build summed from that
    record, are counted down in a list of the scan's own, indexed by node
    id, beside a list of node depths.  So one built tree can feed any
    number of calls.  ``capacity=None`` means unlimited storage (the
    resulting peak is the least capacity that loses nothing).
    """
    if not ordered:
        raise ValueError("cannot optimize an empty slice")
    # Node ids run densely from 0, the root, in insertion order.
    pending = [node.pending for node in tree.nodes.values()]
    depth = [node.depth for node in tree.nodes.values()]
    index = CheckpointIndex(capacity, len(pending))
    stored = index.entries
    commands: list[Command] = []
    chain_ids = tree.chain_ids

    # Only an index that can evict needs next uses.  Otherwise every
    # checkpoint is keyed 0, and equal keys never evict.
    keyed = index.evicts
    if keyed:
        chains = [chain_ids(trace.symbols) for trace in ordered]
        uses = _next_use_table(chains, len(pending))

        def next_use(node_id: int, j: int) -> int:
            positions = uses[node_id]
            return positions[bisect_right(positions, j)]
    else:

        def next_use(node_id: int, j: int) -> int:
            return 0

    def do_store(node_id: int, use: int) -> None:
        index.note_store(node_id, use)
        commands.append(Command("store", node_id))

    def do_free(node_id: int) -> None:
        index.note_free(node_id)
        commands.append(Command("free", node_id))

    def emit_runs(symbols: tuple[int, ...]) -> None:
        for symbol, group in groupby(symbols):
            commands.append(Command("run", -1, symbol, len(list(group))))

    # The campaign begins by checkpointing the initial state under id 0.
    do_store(ROOT_ID, 0)

    for j, trace in enumerate(ordered):
        s = trace.symbols
        # The chain ends above its first node below the root that no trace
        # left needs: nothing at or below it can be reused.  The deepest
        # stored node on it is the load node.  A stored node below the
        # root always has pending uses.
        chain = chains[j] if keyed else chain_ids(s)
        k = -1
        for i, node_id in enumerate(chain):
            if node_id in stored:
                k = i
            elif i and not pending[node_id]:
                chain = chain[:i]
                break
        if k < 0:
            raise TreeInvariantError("no stored prefix to resume the trace from")
        load_id = chain[k]
        if j > 0:
            commands.append(Command("load", load_id))

        # Availability sweep: every prefix of this trace on its chain,
        # itself included, has one fewer pending use; prefixes reaching
        # zero can never be reused, so their checkpoints are freed before
        # the run scan.  A count already at zero belongs to a dead root or
        # to a root that is not a shared prefix.
        for node_id in reversed(chain):
            if pending[node_id]:
                pending[node_id] -= 1
                if not pending[node_id] and node_id in stored:
                    do_free(node_id)

        # Run scan over the chain nodes below the load node, none of them
        # stored: each is stored if there is room, or at full capacity by
        # evicting a victim whose next use is strictly later.  A deeper
        # node is used no sooner than a shallower one, so the first node
        # that loses ends the scan.  The trace's constant runs are cut
        # where a node is stored.
        pos = depth[load_id]
        for node_id in chain[k + 1:]:
            if not pending[node_id]:
                continue  # this trace was the node's last use
            use = next_use(node_id, j)
            victim = None
            if capacity is not None and len(stored) >= capacity:
                found = index.victim()
                if found is None or found[1] <= use:
                    break
                victim = found[0]
            emit_runs(s[pos:depth[node_id]])
            pos = depth[node_id]
            if victim is not None:
                do_free(victim)
            do_store(node_id, use)
        emit_runs(s[pos:])
        commands.append(_OUT)

        # The stored nodes at or above the load node were used by this
        # trace; those stored below it were keyed when stored.  Unkeyed,
        # every key stays 0.
        if keyed:
            for node_id in chain[1:k + 1]:
                index.rekey(node_id, next_use(node_id, j))

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


# Lines per write when a campaign goes to a file or to a driver.
_LINES_PER_WRITE = 4096

# The ops whose lines repeat through a campaign; a reader parses each
# distinct line of these once.  Id lines are all distinct.
REPEATING_OPS = frozenset(("run", "out"))

_ID_OPS = {"LOAD": "load", "STORE": "store", "FREE": "free"}


def campaign_lines(campaign: Campaign) -> Iterator[str]:
    """The campaign's file/protocol lines, header first."""
    yield f"#q={format_number(campaign.quantum)};slice={campaign.slice_id}"
    for cmd in campaign.commands:
        yield format_command(cmd, campaign.alphabet)


def campaign_chunks(campaign: Campaign) -> Iterator[str]:
    """``campaign_lines`` as newline-terminated text, a few thousand
    lines to a chunk, for writing."""
    lines = campaign_lines(campaign)
    while chunk := list(islice(lines, _LINES_PER_WRITE)):
        yield "\n".join(chunk) + "\n"


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
    try:
        check_quantum(quantum)
    except ValueError as exc:
        raise TraceFormatError(f"campaign header: {exc}") from None
    return quantum, slice_id


def parse_command(line: str, alphabet: Alphabet) -> Command:
    parts = line.split()
    try:
        if len(parts) == 2:
            op = _ID_OPS.get(parts[0])
            if op is not None:
                return Command(op, int(parts[1]))
        elif parts[0] == "OUT" and len(parts) == 1:
            return _OUT
        elif parts[0] == "RUN" and len(parts) == 3:
            quanta = int(parts[2])
            if quanta < 1:
                raise ValueError
            return Command("run", -1, alphabet.index(parts[1]), quanta)
    except TraceFormatError as exc:
        raise TraceFormatError(f"malformed campaign command: {line!r} ({exc})") from exc
    except (ValueError, IndexError) as exc:
        raise TraceFormatError(f"malformed campaign command: {line!r}") from exc
    raise TraceFormatError(f"malformed campaign command: {line!r}")


def write_campaign_file(campaign: Campaign, path: str) -> None:
    with atomic_text_file(path) as fh:
        fh.writelines(campaign_chunks(campaign))


def read_campaign_file(path: str, alphabet: Alphabet) -> Campaign:
    """Read a campaign file; each distinct RUN or OUT line is parsed once."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise TraceFormatError("empty campaign file")
        quantum, slice_id = parse_campaign_header(header)
        commands = []
        repeats: dict[str, Command] = {}
        live = peak = 0
        for raw in fh:
            cmd = repeats.get(raw)
            if cmd is None:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                cmd = parse_command(line, alphabet)
                if cmd.op in REPEATING_OPS:
                    repeats[raw] = cmd
            commands.append(cmd)
            op = cmd.op
            if op == "store":
                live += 1
                if live > peak:
                    peak = live
            elif op == "free":
                live -= 1
    return Campaign(
        commands=commands,
        quantum=quantum,
        slice_id=slice_id,
        peak_stored=peak,
        alphabet=alphabet,
    )
