"""Shared-prefix branching tree.

The tree holds one node per *shared prefix* of a slice: a prefix that is
the longest common prefix of at least one pair of distinct traces.  It is
the slice in its verification order, with the slice's structure and
nothing else: each node's ``depth`` (its prefix length), as a list indexed
by node id, and each trace's ``chain``: the root-first ids of the
materialized prefixes of the trace, in the order's positions.  Nothing
changes the record once ``build_tree`` returns, and it holds no planner
state: which nodes hold a checkpoint, and when a checkpoint is used for
the last time, the optimizer derives for itself.

``build_tree`` is the one-stack-pass construction of the LCP-interval
tree over sorted strings (Abouelhoda, Kurtz & Ohlebusch, J. Discrete
Algorithms 2004).  A trace's deepest materialized prefix is the deeper of
the two longest common prefixes it shares with its neighbours in sorted
order, and the pass meets both, so every chain comes from that one
record.  The pass visits the order sorted, so node ids depend only on
the slice's traces, not on their order.

The empty prefix is always materialized as reserved id 0, because the
executor pre-stores the simulator's initial state under it.  It is a
shared prefix (``root_shared``) only when it genuinely is one (some pair
of traces has an empty longest common prefix).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .traces import DuplicateTraceError, InputTrace

ROOT_ID = 0


def _lcp_len(a: bytes, b: bytes) -> int:
    # The highest set bit of the XOR of the common-length prefixes lies in
    # the first byte at which they differ.
    n = min(len(a), len(b))
    x = int.from_bytes(a[:n], "big") ^ int.from_bytes(b[:n], "big")
    return n - (x.bit_length() + 7) // 8


@dataclass(frozen=True, slots=True)
class BranchTree:
    """Shared-prefix tree for one slice in its verification order, fixed
    once built.

    Node ids run densely from 0 (the root) to ``capacity`` - 1.
    ``capacity`` is the number of materialized checkpoint slots (shared
    prefixes plus the reserved empty-prefix root when the empty prefix is
    not itself shared); holding that many simulator states at once is
    always enough to never discard a reusable checkpoint.
    """

    # The slice in its verification order.
    traces: tuple[InputTrace, ...]
    depth: list[int]
    # Root-first node ids of each trace's chain: ``chains[j]`` is
    # ``traces[j]``'s.  Traces that end at the same node share one tuple.
    chains: list[tuple[int, ...]]
    root_shared: bool

    @property
    def capacity(self) -> int:
        return len(self.depth)

    @property
    def shared_prefix_count(self) -> int:
        return len(self.depth) - 1 + self.root_shared


def build_tree(traces: Sequence[InputTrace]) -> BranchTree:
    """The tree of the slice ``traces``, in its verification order, from
    one pass over the traces sorted.

    For each trace after the first, the longest common prefix with the
    previous trace either is a node on the stack of the previous trace's
    nodes, or gets a new node inserted above the last node popped off that
    stack, which is reparented under it.  Each trace's deepest node is the
    deeper of its common-prefix nodes with its two neighbours.  Once the
    shape is final, nodes taken by depth give every node's root-first path,
    and each trace's chain is its deepest node's path.

    Raises DuplicateTraceError on a duplicated trace.
    """
    keys = [trace.symbols for trace in traces]
    by_symbols = sorted(range(len(keys)), key=keys.__getitem__)
    depth = [0]
    parent = [ROOT_ID]  # the build's own record; the root's entry is unused
    root_shared = False
    spine = [ROOT_ID]
    # Each trace's deepest node, by position in the order.
    deepest = [ROOT_ID] * len(keys)
    for prev, j in zip(by_symbols, by_symbols[1:]):
        cur, last = keys[j], keys[prev]
        if cur == last:
            raise DuplicateTraceError(
                f"duplicate trace {traces[j].alphabet.format_line(cur)}"
            )
        d = _lcp_len(cur, last)
        popped = None
        while depth[spine[-1]] > d:
            popped = spine.pop()
        node = spine[-1]
        if depth[node] == d:
            # Only the reserved root can be materialized but not shared.
            if node == ROOT_ID:
                root_shared = True
        else:
            parent.append(node)
            node = len(depth)
            depth.append(d)
            if popped is not None:
                parent[popped] = node
            spine.append(node)
        if d > depth[deepest[prev]]:
            deepest[prev] = node
        deepest[j] = node

    # Every node but the root, parents before children.
    by_depth = sorted(range(1, len(depth)), key=depth.__getitem__)
    paths: list[tuple[int, ...]] = [(ROOT_ID,)] * len(depth)
    for node in by_depth:
        paths[node] = paths[parent[node]] + (node,)
    chains = [paths[node] for node in deepest]
    return BranchTree(tuple(traces), depth, chains, root_shared)
