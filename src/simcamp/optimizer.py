"""Memory-bounded campaign generation.

Given the shared-prefix tree of a slice, built from the slice in its
verification order, emit the Load/Store/Free/Run/Out command sequence
that replays every trace in that order while holding at most
``capacity`` simulator states at once.  Each trace resumes from its
deepest stored prefix; runs break at prefixes worth checkpointing; a
checkpoint is freed after its last use, the last trace in the
verification order whose chain holds it, or, when memory is full, the
one whose effective next use lies furthest ahead in the verification
order is evicted.  A checkpoint's effective next use is the next trace
that would load it: a trace whose chain holds it and no stored
checkpoint below it.  This is Belady's rule with a use counted only
where the checkpoint would be the load point.  Belady's optimality
argument does not carry over as stated, because a miss here costs more
or less depending on which ancestors are stored.

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


class CheckpointIndex:
    """The stored states and the furthest-next-use eviction policy.

    ``entries`` maps every stored node id, the reserved root included, to
    its (next use, store-sequence) key; membership in it is what "stored"
    means.  ``optimize_slice`` keys a node by its effective next use: the
    position, in the verification order, of the next trace that would load
    it, whose chain holds it and no stored node below it.  The victim
    candidate is the stored node used furthest in the future, ties broken
    toward the least recently stored.  With uniform recompute costs this
    would be the optimal offline rule (Belady, 1966); here a reload costs
    the distance from the deepest stored ancestor, which depends on what
    else is stored, so it is a heuristic.  The root occupies capacity but
    is never a victim: its key never enters the lazy heap over (-next use,
    seq, id).

    ``size`` is the number of nodes that could ever be stored.  Only a
    capacity strictly between 1, the root alone, and ``size`` can ever
    evict (``evicts``); any other keeps no heap and has no victim.
    """

    def __init__(self, capacity: int | None, size: int) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("state capacity must be >= 1")
        self.evicts = capacity is not None and 1 < capacity < size
        self.entries: dict[int, tuple[int, int]] = {}
        self._heap: list[tuple[int, int, int]] = []
        self._seq = 0

    def note_store(self, node_id: int, next_use: int) -> None:
        self._seq += 1
        self.entries[node_id] = (next_use, self._seq)
        if self.evicts and node_id != ROOT_ID:
            self._push(node_id, next_use, self._seq)

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
    index = CheckpointIndex(capacity, len(depth))
    stored = index.entries
    alphabet = ordered[0].alphabet
    tokens = alphabet.tokens
    lines: list[str] = []
    emit = lines.append

    # Only an index that can evict needs keys.  Otherwise every checkpoint
    # is keyed 0, and equal keys never evict.
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

    def do_store(node_id: int, use: int) -> None:
        index.note_store(node_id, use)
        emit(f"STORE {node_id}")

    def do_free(node_id: int) -> None:
        index.note_free(node_id)
        emit(f"FREE {node_id}")

    def emit_runs(symbols: bytes) -> None:
        for symbol, group in groupby(symbols):
            emit(f"RUN {tokens[symbol]} {len(list(group))}")

    # The campaign begins by checkpointing the initial state under id 0.
    do_store(ROOT_ID, 0)

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
            index.rekey(load_id, next_load(load_id, k, j))

        # Availability sweep: a stored prefix on this trace's chain whose
        # last use is this trace can never be reused, so its checkpoint is
        # freed before the run scan.  An unshared root is never freed.
        for node_id in reversed(chain):
            if last_use[node_id] == j and node_id in stored:
                do_free(node_id)

        # Run scan over the chain nodes below the load node, none of them
        # stored: each is stored if there is room, or at full capacity by
        # evicting a victim whose key is strictly later.  A candidate's
        # key is never earlier than that of an unstored node above it, so
        # the first node that loses ends the scan.  A node's last use is
        # never after its parent's, so the first node whose last use is
        # this trace ends it too.  The trace's constant runs are cut where
        # a node is stored.
        pos = depth[load_id]
        for i in range(k + 1, len(chain)):
            node_id = chain[i]
            if last_use[node_id] == j:
                break
            use = next_load(node_id, i, j) if keyed else 0
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
            if keyed:
                # The new checkpoint shadows its nearest stored ancestor
                # on the one trace its key names, if that trace holds it.
                up = i - 1
                while up and chain[up] not in stored:
                    up -= 1
                if up:
                    later = stored[chain[up]][0]
                    if later < n and chains[later][i:i + 1] == (node_id,):
                        index.rekey(chain[up], next_load(chain[up], up, later))
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
        elif parts[0] == "OUT" and len(parts) == 1:
            return "OUT"
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
