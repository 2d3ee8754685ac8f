"""Shared-prefix branching tree.

The tree holds one node per *shared prefix* of a slice: a prefix that is
the longest common prefix of at least one pair of distinct traces.  It is
the slice's structure and nothing else: each node's ``depth`` (its prefix
length), as a list indexed by node id, and each trace's ``chain``: the
root-first ids of the materialized prefixes of the trace.  Nothing changes
the record once ``build_tree`` returns, and it holds no planner state:
which nodes hold a checkpoint, and when a checkpoint is used for the last
time, the optimizer derives for itself.

``build_tree`` is the one-stack-pass construction of the LCP-interval
tree over sorted strings (Abouelhoda, Kurtz & Ohlebusch, J. Discrete
Algorithms 2004).  A trace's deepest materialized prefix is the deeper of
the two longest common prefixes it shares with its neighbours in sorted
order, and the pass meets both, so every chain comes from that one
record.  A campaign is planned on its slice's own tree: the optimizer
takes every chain from this record and rejects a slice whose traces are
not the ones the tree was built from.

The empty prefix is always materialized as reserved id 0, because the
executor pre-stores the simulator's initial state under it.  It is a
shared prefix (``root_shared``) only when it genuinely is one (some pair
of traces has an empty longest common prefix).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .traces import InputTrace

ROOT_ID = 0


class TreeInvariantError(ValueError):
    """Structural invariant violated: a duplicated trace, or a slice
    planned on a tree built from other traces."""


def _lcp_len(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return i
    return n


@dataclass(frozen=True, slots=True)
class BranchTree:
    """Shared-prefix tree for one slice, fixed once built.

    Node ids run densely from 0 (the root) to ``capacity`` - 1.
    ``capacity`` is the number of materialized checkpoint slots (shared
    prefixes plus the reserved empty-prefix root when the empty prefix is
    not itself shared); holding that many simulator states at once is
    always enough to never discard a reusable checkpoint.
    """

    depth: list[int]
    # Root-first node ids of each built trace's chain, keyed by its
    # symbols; traces that end at the same node share one tuple.
    chains: dict[tuple[int, ...], tuple[int, ...]]
    root_shared: bool

    @property
    def capacity(self) -> int:
        return len(self.depth)

    @property
    def shared_prefix_count(self) -> int:
        return len(self.depth) - 1 + self.root_shared


def build_tree(traces: Sequence[InputTrace]) -> BranchTree:
    """The tree of ``traces``, in any order, from one pass over them sorted.

    For each trace after the first, the longest common prefix with the
    previous trace either is a node on the stack of the previous trace's
    nodes, or gets a new node inserted above the last node popped off that
    stack, which is reparented under it.  Each trace's deepest node is the
    deeper of its common-prefix nodes with its two neighbours.  Once the
    shape is final, nodes taken by depth give every node's root-first path,
    and each trace's chain is its deepest node's path.

    Raises TreeInvariantError on a duplicated trace.
    """
    ordered = sorted(traces, key=lambda trace: trace.symbols)
    depth = [0]
    parent = [ROOT_ID]  # the build's own record; the root's entry is unused
    root_shared = False
    spine = [ROOT_ID]
    deepest: list[int] = []
    last: tuple[int, ...] | None = None
    for trace in ordered:
        cur = trace.symbols
        if last is None:
            deepest.append(ROOT_ID)
        else:
            if cur == last:
                raise TreeInvariantError(
                    f"duplicate trace {trace.alphabet.format_line(cur)}"
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
            if d > depth[deepest[-1]]:
                deepest[-1] = node
            deepest.append(node)
        last = cur

    # Every node but the root, parents before children.
    by_depth = sorted(range(1, len(depth)), key=depth.__getitem__)
    paths: list[tuple[int, ...]] = [(ROOT_ID,)] * len(depth)
    for node in by_depth:
        paths[node] = paths[parent[node]] + (node,)
    chains = {
        trace.symbols: paths[node] for trace, node in zip(ordered, deepest)
    }
    return BranchTree(depth, chains, root_shared)
