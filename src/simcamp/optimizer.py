"""Memory-bounded campaign generation.

Given the shared-prefix tree of a slice, built from the slice in its
verification order, emit the Load/Store/Free/Run/Out command sequence
that replays every trace in that order while holding at most
``capacity`` simulator states at once.  Each trace resumes from its
deepest stored prefix; runs break at prefixes worth checkpointing; a
checkpoint is freed after its last use, the last trace in the
verification order whose chain holds it, or, when memory is full, the
one whose loss costs least is evicted, by the rule that
``CheckpointIndex`` states in full.

``CheckpointIndex`` is the one record of which nodes hold a checkpoint,
the reserved root included; the tree only knows the order, prefix
depths and chains, and the scan derives each node's last use from the
chains.  The storage rule lives in one place, the run scan of
``optimize_slice``: its work per trace is per checkpoint candidate and
per run, not per symbol.  Storage is decided once for each tree node on
the trace's chain below its load point, and the trace's constant runs
(from ``itertools.groupby``) are cut only where a node is stored.

A campaign is its canonical protocol lines, which the scan emits once; a
``Campaign`` counts its summary from them when it is made, as one read
from a file does.  The file, the driver and the engine's fold use that
text as it is; ``parse_command`` is the one rule for any other line.
"""

from __future__ import annotations

import heapq
import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, compress, groupby
from typing import Iterator, Sequence

from .traces import (
    Alphabet,
    TraceFormatError,
    atomic_text_file,
    body_line,
    file_chunks,
    format_number,
    header_quantum,
    parse_header,
)
from .tree import ROOT_ID, BranchTree


@dataclass(slots=True)
class Campaign:
    """A campaign's canonical lines (``LOAD <id>``, ``STORE <id>``, ``FREE
    <id>``, ``RUN <token> <k>``, ``OUT``; no newlines) and their summary,
    counted when it is made: the sum of the RUN lengths, the lines of each
    op that occurs and the most ids stored at once."""

    lines: list[str]
    quantum: float
    alphabet: Alphabet
    slice_id: int = 0
    length_quanta: int = field(init=False)
    counts: dict[str, int] = field(init=False)
    peak_stored: int = field(init=False)

    def __post_init__(self) -> None:
        ops = "".join([line[0] for line in self.lines])  # each op's first letter
        runs = Counter(compress(self.lines, ops.encode("ascii").translate(_IS_RUN)))
        self.length_quanta = sum(int(x.rpartition(" ")[2]) * n for x, n in runs.items())
        self.counts = {op: k for op in _OPS if (k := ops.count(op[0].upper()))}
        # The peak is the largest running sum of +1 per STORE, -1 per FREE.
        steps = ops.replace("R", "").replace("O", "").replace("L", "")
        steps = map({"S": 1, "F": -1}.__getitem__, steps)
        self.peak_stored = max(accumulate(steps, initial=0))


_OPS = ("store", "load", "free", "run", "out")
_IS_RUN = bytes(op == ord("R") for op in range(256))


@dataclass(slots=True, eq=False)
class _Checkpoint:
    """A stored node's record at a budget that can evict."""

    next_load: int  # the next trace that would load it, or the slice size
    seq: int  # its place in store order
    level: int  # its index in every chain that holds it
    chain: tuple[int, ...]  # one chain that holds it
    up: int = ROOT_ID  # its nearest stored ancestor
    kids: list[int] = field(default_factory=list)  # the nodes it is ``up`` of
    live: tuple | None = None  # its heap entry that is not superseded


class CheckpointIndex:
    """The stored states and the least-value eviction policy.

    ``entries`` maps every stored node id to its record; membership in it
    is what "stored" means.  The index stores the reserved root when it is
    made, and the root is never a victim.  Only a capacity strictly
    between 1, the root alone, and ``len(depth)``, the nodes that could
    ever be stored, can ever evict (``evicts``); any other maps each
    stored node to None, keeps an empty heap and so has no victim.

    The eviction rule.  At a budget that can evict, a record holds the
    node's next load: the position, in the verification order, of the next
    trace that would load it, whose chain holds it and no stored node below
    it, or ``n`` if none would.  It also links the node to its nearest
    stored ancestor; its gap, the depth between the two, is the quanta its
    next load would re-simulate without it.  At trace ``j`` a checkpoint's
    value is gap ÷ (next load − j)², and 0 with no later load.  The victim
    is the stored node of least value other than the root, ties broken
    toward the least recently stored, and it is evicted only for a
    candidate of strictly greater value.  This is a GreedyDual rule (Young,
    1994; Cao & Irani, 1997): it weighs what a loss costs, which furthest
    next use (Belady, 1966) ignores.  The distance is squared because a
    checkpoint held longer blocks more stores; with the plain distance,
    complete trees in random order got longer.

    Links stay exact: a store re-links the new node's stored descendants
    to it, and a free hands the freed node's descendants and next load to
    its nearest stored ancestor.  A gap is read from the link when a value
    is needed.  Values are floats.  They compare exactly while
    ``max(depth) * n * n < 2**52`` (2^14 traces below depth 2^24): two
    distinct ratios of a gap and a squared distance then never round to
    equal or swapped floats.  Beyond it a near-tie may go either way, which
    changes which checkpoint goes, never whether the campaign replays its
    traces.  A value only grows as ``j`` advances and as gaps grow, so the
    victim pass keeps a lazy heap of lower bounds over (value, store
    sequence), whose head is refreshed until its bound is its value; a
    change that lowers a value pushes a fresh entry.  The root never
    enters the heap.
    """

    def __init__(self, capacity: int | None, depth: Sequence[int], n: int) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("state capacity must be >= 1")
        self.evicts = capacity is not None and 1 < capacity < len(depth)
        root = _Checkpoint(0, 0, 0, (ROOT_ID,)) if self.evicts else None
        self.entries: dict[int, _Checkpoint | None] = {ROOT_ID: root}
        self._depth = depth
        self._n = n
        self._heap: list[tuple] = []
        self._seq = 0

    def _value(self, gap: int, next_load: int, j: int) -> float:
        """gap ÷ (next load − j)² at trace ``j``, or 0 with no later load."""
        if next_load >= self._n:
            return 0.0
        distance = next_load - j
        return gap / (distance * distance)

    def _item(self, node_id: int, entry: _Checkpoint, j: int) -> tuple:
        """A stored node's heap entry at trace ``j``."""
        gap = self._depth[node_id] - self._depth[entry.up]
        return self._value(gap, entry.next_load, j), entry.seq, node_id

    def _push(self, node_id: int, entry: _Checkpoint, j: int) -> None:
        if node_id == ROOT_ID:
            return
        entry.live = item = self._item(node_id, entry, j)
        heapq.heappush(self._heap, item)
        # Superseded entries leave the heap only when they reach its head;
        # once they outnumber the live ones, rebuild it from the records.
        if len(self._heap) > 2 * len(self.entries) + 8:
            self._heap = []
            for nid, e in self.entries.items():
                if nid != ROOT_ID:
                    e.live = self._item(nid, e, j)
                    self._heap.append(e.live)
            heapq.heapify(self._heap)

    def store(self, node_id: int, next_load: int, chain: tuple[int, ...],
              level: int, j: int) -> None:
        """Store ``node_id``, found at ``chain[level]``, at trace ``j``."""
        if not self.evicts:
            self.entries[node_id] = None
            return
        up = level - 1
        while chain[up] not in self.entries:
            up -= 1
        self._seq += 1
        entry = self.entries[node_id] = _Checkpoint(next_load, self._seq, level,
                                                     chain, chain[up])
        # The ancestor's stored descendants below the new node are now its;
        # their gaps shrank.
        kids = self.entries[entry.up].kids
        for kid in [*kids]:
            below = self.entries[kid]
            if below.level > level and below.chain[level] == node_id:
                kids.remove(kid)
                entry.kids.append(kid)
                below.up = node_id
                self._push(kid, below, j)
        kids.append(node_id)
        self._push(node_id, entry, j)

    def free(self, node_id: int) -> None:
        """Free ``node_id``: its nearest stored ancestor takes over its
        stored descendants and, if sooner, its next load."""
        entry = self.entries.pop(node_id)
        if entry is None or node_id == ROOT_ID:
            return
        up = self.entries[entry.up]
        up.kids.remove(node_id)
        up.kids += entry.kids
        for kid in entry.kids:
            self.entries[kid].up = entry.up
        up.next_load = min(up.next_load, entry.next_load)

    def rekey(self, node_id: int, next_load: int, j: int) -> None:
        """Give a stored node a new next load at trace ``j``."""
        entry = self.entries[node_id]
        if entry.next_load != next_load:
            entry.next_load = next_load
            self._push(node_id, entry, j)

    def victim(self, j: int, gap: int, next_load: int) -> int | None:
        """The node to evict at trace ``j`` for a candidate of this gap and
        next load: the least-valued stored node, if its value is strictly
        below the candidate's; else None."""
        heap, entries = self._heap, self.entries
        while heap:
            item = heap[0]
            entry = entries.get(item[2])
            if entry is None or entry.live is not item:
                heapq.heappop(heap)
                continue
            fresh = self._item(item[2], entry, j)
            if fresh == item:
                return item[2] if item[0] < self._value(gap, next_load, j) else None
            entry.live = fresh
            heapq.heapreplace(heap, fresh)
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
    tree: BranchTree, capacity: int | None, quantum: float, slice_id: int = 0
) -> Campaign:
    """Emit the campaign replaying ``tree.traces``, in that order, under the
    given state budget.

    The scan only reads ``tree``: the traces, each trace's chain of node
    ids and the node depths, so one built tree can feed any number of
    calls.  ``capacity=None`` means unlimited storage (the resulting peak
    is the least capacity that loses nothing).
    """
    ordered, chains, depth = tree.traces, tree.chains, tree.depth
    if not ordered:
        raise ValueError("cannot optimize an empty slice")
    n = len(ordered)
    # Each node's last use: the position of the last chain that holds it
    # (a walk back from the last chain stops at a node a later chain holds,
    # with its ancestors), or past the end for a root that is not shared.
    last_use = [-1] * len(depth)
    for j in range(n - 1, -1, -1):
        for node_id in reversed(chains[j]):
            if last_use[node_id] >= 0:
                break
            last_use[node_id] = j
    if not tree.root_shared:
        last_use[ROOT_ID] = n
    index = CheckpointIndex(capacity, depth, n)
    stored = index.entries
    alphabet = ordered[0].alphabet
    tokens = alphabet.tokens
    lines: list[str] = []
    emit = lines.append

    # Only an index that can evict needs next loads.
    keyed = index.evicts
    if keyed:
        uses = _next_use_table(chains, len(depth))
        stored_ids = stored.keys()

        def next_load(node_id: int, level: int, j: int) -> int:
            # The first trace after ``j`` that would load the node: its
            # chain holds the node, at index ``level`` as in every chain
            # that holds it, and no stored node below it.
            positions = uses[node_id]
            i = bisect_right(positions, j)
            p = positions[i]
            while p < n and not stored_ids.isdisjoint(chains[p][level + 1:]):
                i += 1
                p = positions[i]
            return p

    def do_free(node_id: int) -> None:
        index.free(node_id)
        emit(f"FREE {node_id}")

    def emit_runs(symbols: bytes) -> None:
        for symbol, group in groupby(symbols):
            emit(f"RUN {tokens[symbol]} {len(list(group))}")

    # The campaign begins by checkpointing the initial state under id 0,
    # which the index holds from the start.
    emit(f"STORE {ROOT_ID}")

    for j, trace in enumerate(ordered):
        s = trace.symbols
        # The load node is the deepest stored node on the chain.  The root
        # is stored until the last trace's sweep.
        chain = chains[j]
        k = len(chain) - 1
        while chain[k] not in stored:
            k -= 1
        load_id = chain[k]
        if j > 0:
            emit(f"LOAD {load_id}")

        # This trace was the load node's next load; its key moves to the
        # next one, so every key names a later trace.
        if keyed and k:
            index.rekey(load_id, next_load(load_id, k, j), j)

        # Availability sweep: a stored prefix on this trace's chain whose
        # last use is this trace can never be reused, so its checkpoint is
        # freed before the run scan.  An unshared root is never freed.
        for node_id in reversed(chain):
            if last_use[node_id] == j and node_id in stored:
                do_free(node_id)

        # Run scan over the chain nodes below the load node, none of them
        # stored: each is stored if there is room, or at full capacity by
        # evicting a victim of strictly less value.  A node's last use is
        # never after its parent's, so the first node whose last use is
        # this trace ends the scan.  Values do not fall down a chain, so a
        # node that loses does not end it; at a budget that cannot evict,
        # full capacity ends it, since every later node would lose too and
        # nothing is asked for a victim.  The trace's constant runs are
        # cut where a node is stored; ``pos`` is the depth of the nearest
        # stored node above the scan.
        pos = depth[load_id]
        for i in range(k + 1, len(chain)):
            node_id = chain[i]
            if last_use[node_id] == j:
                break
            victim, use = None, next_load(node_id, i, j) if keyed else 0
            if capacity is not None and len(stored) >= capacity:
                if not keyed:
                    break
                victim = index.victim(j, depth[node_id] - pos, use)
                if victim is None:
                    continue
            emit_runs(s[pos:depth[node_id]])
            pos = depth[node_id]
            if victim is not None:
                evicted = stored[victim]
                do_free(victim)
                if evicted.level > i and evicted.chain[i] == node_id:
                    # The victim's next load may now be the new node's.
                    use = next_load(node_id, i, j)
            index.store(node_id, use, chain, i, j)
            emit(f"STORE {node_id}")
            if keyed and (up := stored[node_id].up) != ROOT_ID:
                # The new checkpoint shadows its nearest stored ancestor on
                # the one trace whose key it holds, if that trace holds it.
                later = stored[up].next_load
                if later < n and chains[later][i:i + 1] == (node_id,):
                    index.rekey(up, next_load(up, stored[up].level, later), j)
        emit_runs(s[pos:])
        emit("OUT")

    return Campaign(lines, quantum, alphabet, slice_id)


# ---------------------------------------------------------------------------
# Campaign file format
#
#   line 1:  #q=<decimal>;slice=<i>
#   then one command per body line (the grammar of ``traces``):
#     LOAD <id> | STORE <id> | FREE <id> | RUN <token> <k> | OUT
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def canonical_patterns(alphabet: Alphabet) -> tuple[re.Pattern, re.Pattern]:
    """Two patterns over ``alphabet``: a canonical line, which is its own
    ``parse_command``; and a newline not followed by a canonical line and
    a newline.  Unlike a match of a repeated group, the search keeps no
    state from one line to the next."""
    tokens = "|".join(map(re.escape, alphabet.tokens))
    # Longer numbers go to ``parse_command``, whose int() may refuse them.
    line = (
        f"(?:RUN (?:{tokens}) [1-9][0-9]{{0,17}}|OUT"
        "|(?:LOAD|STORE|FREE) (?:0|-?[1-9][0-9]{0,17}))"
    )
    return re.compile(line), re.compile(f"\\n(?!{line}\\n|\\Z)")


def campaign_chunks(campaign: Campaign) -> Iterator[str]:
    """The campaign's file text: the header line, then chunks of a few
    thousand newline-ended lines."""
    header = f"#q={format_number(campaign.quantum)};slice={campaign.slice_id}"
    return file_chunks(header, campaign.lines)


def parse_campaign_header(line: str) -> tuple[float, int]:
    q, slice_id = parse_header(line, ("q", "slice"), "campaign")
    quantum = header_quantum(q, line, "campaign")
    try:
        return quantum, int(slice_id)
    except ValueError:
        raise TraceFormatError(f"malformed campaign header: {line.strip()!r}") from None


def parse_command(line: str, alphabet: Alphabet) -> str | None:
    """The canonical form of one campaign body line: None for a line that
    is blank or ``#`` once stripped (no command, no reply), the stripped
    line if canonical, else its canonical form or ``TraceFormatError``."""
    line = body_line(line)
    if line is None:
        return None
    if canonical_patterns(alphabet)[0].fullmatch(line):
        return line
    parts = line.split()
    try:
        if len(parts) == 2:
            if parts[0] in ("LOAD", "STORE", "FREE"):
                return f"{parts[0]} {int(parts[1])}"
        elif parts[0] == "RUN" and len(parts) == 3:
            quanta = int(parts[2])
            if quanta < 1:
                raise ValueError
            alphabet.index(parts[1])
            return f"RUN {parts[1]} {quanta}"
    except TraceFormatError as exc:
        raise TraceFormatError(f"malformed campaign command: {line!r} ({exc})") from exc
    except (ValueError, IndexError) as exc:
        raise TraceFormatError(f"malformed campaign command: {line!r}") from exc
    raise TraceFormatError(f"malformed campaign command: {line!r}")


def write_campaign_file(campaign: Campaign, path: str) -> None:
    with atomic_text_file(path) as fh:
        fh.writelines(campaign_chunks(campaign))


def read_campaign_file(path: str, alphabet: Alphabet) -> Campaign:
    """Read a campaign file: canonical lines as they are, any other body
    line by line through ``parse_command``."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = text.split("\n")
    end = len(lines.pop(0))  # where the newline that ends the header is
    quantum, slice_id = parse_campaign_header(text[:end + 1])
    if canonical_patterns(alphabet)[1].search(text, end) is None:
        del lines[-1:]  # the empty text after the last newline, if any
    else:
        lines = [*filter(None, [parse_command(line, alphabet) for line in lines])]
    del text  # the lines hold it now
    return Campaign(lines, quantum, alphabet, slice_id)
