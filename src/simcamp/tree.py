"""Shared-prefix branching tree.

The tree holds one node per *shared prefix* of a slice: a prefix that is
the longest common prefix of at least one pair of distinct traces.  Node
weights (``pending``) count the traces extending the node's prefix; the
campaign optimizer counts copies of them down to decide when a checkpoint
can never be reused and must be freed.  Nothing changes a node once
``build_tree`` returns.  Which nodes hold a checkpoint is not recorded
here: the optimizer's ``CheckpointIndex`` owns that.

The empty prefix is always materialized as reserved id 0, because the
executor pre-stores the simulator's initial state under it.  It is flagged
as a shared prefix only when it genuinely is one (some pair of traces has
an empty longest common prefix).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .traces import InputTrace

ROOT_ID = 0


class TreeInvariantError(ValueError):
    """Structural invariant violated (typically: input not sorted/duplicate-free)."""


@dataclass(slots=True)
class BranchNode:
    """One materialized prefix.

    ``seg`` holds only the symbols extending the parent's prefix; the full
    prefix is the concatenation of segments from the root down.
    """

    node_id: int
    parent_id: int | None
    seg: tuple[int, ...]
    depth: int
    pending: int = 0
    is_shared_prefix: bool = False
    child_by_symbol: dict[int, int] = field(default_factory=dict)


def _lcp_len(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return i
    return n


class BranchTree:
    """Shared-prefix tree for one slice, fixed once built.

    Node ids run densely from 0 (the root) to ``capacity`` - 1, in the
    order of ``nodes``.  ``capacity`` is the number of materialized
    checkpoint slots (shared prefixes plus the reserved empty-prefix root
    when the empty prefix is not itself shared); holding that many
    simulator states at once is always enough to never discard a reusable
    checkpoint.
    """

    def __init__(self) -> None:
        self.nodes: dict[int, BranchNode] = {
            ROOT_ID: BranchNode(ROOT_ID, None, (), 0)
        }
        self._next_id = 1
        self.shared_prefix_count = 0
        self.capacity = 1

    @property
    def root(self) -> BranchNode:
        return self.nodes[ROOT_ID]

    # -- construction helpers -------------------------------------------

    def _new_node(self, parent: BranchNode, seg: tuple[int, ...], depth: int) -> BranchNode:
        node = BranchNode(self._next_id, parent.node_id, seg, depth)
        self._next_id += 1
        self.nodes[node.node_id] = node
        parent.child_by_symbol[seg[0]] = node.node_id
        return node

    def _reparent(self, child: BranchNode, new_parent: BranchNode) -> None:
        child.parent_id = new_parent.node_id
        child.seg = child.seg[len(new_parent.seg):]
        new_parent.child_by_symbol[child.seg[0]] = child.node_id

    # -- queries ----------------------------------------------------------

    def prefix_of(self, node_id: int) -> tuple[int, ...]:
        parts: list[tuple[int, ...]] = []
        node = self.nodes[node_id]
        while node.parent_id is not None:
            parts.append(node.seg)
            node = self.nodes[node.parent_id]
        return tuple(s for seg in reversed(parts) for s in seg)

    def chain_for(self, symbols: tuple[int, ...]) -> list[BranchNode]:
        """Materialized nodes whose prefixes are prefixes of ``symbols``, root first."""
        node = self.root
        chain = [node]
        h = len(symbols)
        while node.depth < h:
            child_id = node.child_by_symbol.get(symbols[node.depth])
            if child_id is None:
                break
            child = self.nodes[child_id]
            if child.depth > h or symbols[node.depth:child.depth] != child.seg:
                break
            chain.append(child)
            node = child
        return chain

    def shared_nodes(self) -> Iterator[BranchNode]:
        return (n for n in self.nodes.values() if n.is_shared_prefix)

    def shared_prefix_map(self) -> dict[tuple[int, ...], int]:
        """{full prefix: pending count} over shared-prefix nodes (test hook)."""
        return {self.prefix_of(n.node_id): n.pending for n in self.shared_nodes()}


def build_tree(traces: Sequence[InputTrace]) -> BranchTree:
    """Single left-to-right pass over a lexicographically sorted slice.

    For each trace after the first, the longest common prefix with the
    previous trace either already has a node, or gets one inserted between
    the deepest shallower node and (at most) one existing deeper child,
    which is reparented under it and donates its weight.  Every trace then
    bumps the weights along its prefix chain.

    Raises TreeInvariantError on unsorted or duplicated input.
    """
    tree = BranchTree()
    spine: list[BranchNode] = [tree.root]
    last: tuple[int, ...] | None = None
    for trace in traces:
        cur = trace.symbols
        if last is not None:
            if not last < cur:
                raise TreeInvariantError(
                    "slice must be strictly lexicographically sorted (no duplicates)"
                )
            d = _lcp_len(cur, last)
            popped: BranchNode | None = None
            while spine[-1].depth > d:
                popped = spine.pop()
            top = spine[-1]
            if top.depth == d:
                node = top
                if not node.is_shared_prefix:
                    # Only the reserved root can be materialized-but-not-shared.
                    node.is_shared_prefix = True
                    tree.shared_prefix_count += 1
                    node.pending = popped.pending if popped is not None else 1
            else:
                occupant = top.child_by_symbol.get(cur[top.depth])
                if occupant is not None and (popped is None or occupant != popped.node_id):
                    raise TreeInvariantError(
                        "more than one child would need reparenting (unsorted input?)"
                    )
                node = tree._new_node(top, cur[top.depth:d], d)
                node.is_shared_prefix = True
                tree.shared_prefix_count += 1
                if popped is None:
                    node.pending = 1
                else:
                    tree._reparent(popped, node)
                    node.pending = popped.pending
                spine.append(node)
            walk: BranchNode | None = node
            while walk is not None:
                if walk.is_shared_prefix:
                    walk.pending += 1
                walk = tree.nodes[walk.parent_id] if walk.parent_id is not None else None
        last = cur
    tree.capacity = len(tree.nodes)
    return tree
