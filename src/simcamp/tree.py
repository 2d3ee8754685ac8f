"""Shared-prefix branching tree.

The tree holds one node per *shared prefix* of a slice: a prefix that is
the longest common prefix of at least one pair of distinct traces.  Node
weights (``pending``) count the traces extending the node's prefix; the
campaign optimizer counts copies of them down to decide when a checkpoint
can never be reused and must be freed.  Nothing changes a node once
``build_tree`` returns.  Which nodes hold a checkpoint is not recorded
here: the optimizer's ``CheckpointIndex`` owns that.

The build records each trace's chain once: the root-first node ids of
the materialized prefixes of the trace (``BranchTree.chains``).  A
trace's deepest such prefix is the deeper of the two longest common
prefixes it shares with its neighbours in sorted order, and the build
meets both, so chains and weights come from that one record: a node's
weight is the number of traces whose deepest node lies in its subtree.
A campaign is planned on its slice's own tree: the optimizer takes every
chain from this record and rejects a slice whose traces are not the ones
the tree was built from.

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
    """Structural invariant violated: input not sorted or not duplicate-free,
    or a slice planned on a tree built from other traces."""


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
        # Root-first node ids of each built trace's chain, keyed by its
        # symbols; traces that end at the same node share one tuple.
        self.chains: dict[tuple[int, ...], tuple[int, ...]] = {}

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
    which is reparented under it.  Each trace's deepest node is the deeper
    of its common-prefix nodes with its two neighbours.  Once the shape is
    final, every node's root-first path and weight come from one walk down
    the tree: each trace's chain is its deepest node's path, and a shared
    node's weight sums the traces whose deepest node is at or below it.

    Raises TreeInvariantError on unsorted or duplicated input.
    """
    tree = BranchTree()
    spine: list[BranchNode] = [tree.root]
    deepest: list[BranchNode] = []
    last: tuple[int, ...] | None = None
    for trace in traces:
        cur = trace.symbols
        if last is None:
            deepest.append(tree.root)
        else:
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
            else:
                occupant = top.child_by_symbol.get(cur[top.depth])
                if occupant is not None and (popped is None or occupant != popped.node_id):
                    raise TreeInvariantError(
                        "more than one child would need reparenting (unsorted input?)"
                    )
                node = tree._new_node(top, cur[top.depth:d], d)
                node.is_shared_prefix = True
                tree.shared_prefix_count += 1
                if popped is not None:
                    tree._reparent(popped, node)
                spine.append(node)
            if node.depth > deepest[-1].depth:
                deepest[-1] = node
            deepest.append(node)
        last = cur
    tree.capacity = len(tree.nodes)

    nodes = tree.nodes
    paths: list[tuple[int, ...]] = [()] * tree.capacity
    paths[ROOT_ID] = (ROOT_ID,)
    order = [tree.root]
    for node in order:  # grows as it goes: parents before children
        path = paths[node.node_id]
        for child_id in node.child_by_symbol.values():
            paths[child_id] = path + (child_id,)
            order.append(nodes[child_id])
    weight = [0] * tree.capacity
    for trace, node in zip(traces, deepest):
        tree.chains[trace.symbols] = paths[node.node_id]
        weight[node.node_id] += 1
    for node in reversed(order):
        if node.parent_id is not None:
            weight[node.parent_id] += weight[node.node_id]
        if node.is_shared_prefix:
            node.pending = weight[node.node_id]
    return tree
