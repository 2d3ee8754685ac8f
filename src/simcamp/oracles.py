"""Slow-but-obviously-correct reference computations.

These are deliberately independent of the production tree/optimizer and
generator code: they work directly on a trace's symbols, one byte each,
with brute-force definitions, and are used to cross-check the fast
implementations and to freeze expected values in the test suite.
"""

from __future__ import annotations

from itertools import combinations

from .generator import Dfa
from .optimizer import Campaign
from .traces import InputTrace

EDGE_BUDGET_SYMBOLS = 10**5
PAIRWISE_BUDGET_TRACES = 500
OPTIMAL_BUDGET_PREFIXES = 12


class OracleBudgetError(ValueError):
    """Input too large for a brute-force oracle."""


def edge_count(traces: list[InputTrace], budget: int = EDGE_BUDGET_SYMBOLS) -> int:
    """Number of distinct non-empty prefixes across all traces.

    Equals the edge count of the prefix tree of the set, and hence the
    minimum number of quanta any campaign covering the set must simulate.
    """
    total = sum(t.horizon for t in traces)
    if total > budget:
        raise OracleBudgetError(f"{total} trace-symbols exceeds oracle budget {budget}")
    seen: set[bytes] = set()
    for t in traces:
        s = t.symbols
        for d in range(1, len(s) + 1):
            seen.add(s[:d])
    return len(seen)


def _lcp_len(a: bytes, b: bytes) -> int:
    """Length of the longest common prefix, via binary search on slice equality."""
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def shared_prefixes(
    traces: list[InputTrace], budget: int = PAIRWISE_BUDGET_TRACES
) -> set[bytes]:
    """All pairwise longest-common-prefixes of distinct traces.

    Quadratic and simple: every unordered pair of distinct traces
    contributes its longest common prefix (possibly empty).
    A singleton set has no pairs, hence no shared prefixes.
    """
    if len(traces) > budget:
        raise OracleBudgetError(f"{len(traces)} traces exceeds oracle budget {budget}")
    symbol_lists = [t.symbols for t in traces]
    prefixes: set[bytes] = set()
    for i in range(len(symbol_lists)):
        a = symbol_lists[i]
        for j in range(i + 1, len(symbol_lists)):
            b = symbol_lists[j]
            if a != b:
                prefixes.add(a[: _lcp_len(a, b)])
    return prefixes


def shared_prefix_counts(
    traces: list[InputTrace], budget: int = PAIRWISE_BUDGET_TRACES
) -> dict[bytes, int]:
    """Shared prefixes with, for each, the number of traces it is a prefix of."""
    symbol_lists = [t.symbols for t in traces]
    return {
        p: sum(1 for s in symbol_lists if s[: len(p)] == p)
        for p in shared_prefixes(traces, budget)
    }


def dfa_accepts(dfa: Dfa, symbols: bytes) -> bool:
    """Whether ``dfa`` accepts ``symbols``, stepped one symbol at a time."""
    state = dfa.start
    for u in symbols:
        state = dfa.step[state][u]
    return state in dfa.accepting


def naive_campaign(ordered: list[InputTrace], quantum: float) -> Campaign:
    """Baseline schedule: store only the initial state, replay each trace in full.

    Emits Store(0) once, then per trace Load(0), maximal constant-symbol
    Run commands, and Out.  Peak live memory is exactly 1; total length is
    the sum of the horizons, in quanta.
    """
    if not ordered:
        raise ValueError("naive_campaign needs a non-empty slice")
    alphabet = ordered[0].alphabet
    lines = ["STORE 0"]
    for trace in ordered:
        lines.append("LOAD 0")
        start = 0
        symbols = trace.symbols
        while start < len(symbols):
            end = start
            while end + 1 < len(symbols) and symbols[end + 1] == symbols[start]:
                end += 1
            lines.append(f"RUN {alphabet.tokens[symbols[start]]} {end - start + 1}")
            start = end + 1
        lines.append("OUT")
    return Campaign(lines, quantum, alphabet)


def optimal_campaign_length(
    ordered: list[InputTrace], sigma: int, budget: int = OPTIMAL_BUDGET_PREFIXES
) -> int:
    """Quanta of the shortest campaign that replays ``ordered`` in order
    while holding at most ``sigma`` states, the initial state included and
    held throughout, as ``CheckpointIndex`` holds the root.

    An exact dynamic program over (j, S_j), where S_j is the set of shared
    prefixes held after trace j.  Trace j resumes from the deepest prefix
    of it in S_{j-1} (or the initial state) and costs its horizon minus
    that prefix's length.  S_j is any subset of S_{j-1} plus the shared
    prefixes trace j passes below that point, with at most ``sigma`` - 1
    members; every free can come before every store, so that bounds the
    peak.  A prefix with no later use is never worth holding, so only
    prefixes with one are kept.  Shared prefixes suffice: a point inside a
    tree edge serves exactly the traces the edge's lower end serves.
    """
    if sigma < 1:
        raise ValueError("state capacity must be >= 1")
    prefixes = shared_prefixes(ordered) - {b""}
    if len(prefixes) > budget:
        raise OracleBudgetError(
            f"{len(prefixes)} shared prefixes exceeds oracle budget {budget}"
        )
    last_use = {
        p: max(j for j, t in enumerate(ordered) if t.symbols[: len(p)] == p)
        for p in prefixes
    }
    best: dict[frozenset[bytes], int] = {frozenset(): 0}
    for j, trace in enumerate(ordered):
        s = trace.symbols
        following: dict[frozenset[bytes], int] = {}
        for held, cost in best.items():
            resume = max((len(p) for p in held if s[: len(p)] == p), default=0)
            cost += len(s) - resume
            keep = [p for p in held if last_use[p] > j] + [
                p
                for p in prefixes
                if len(p) > resume and s[: len(p)] == p and last_use[p] > j
            ]
            for size in range(min(len(keep), sigma - 1) + 1):
                for subset in combinations(keep, size):
                    key = frozenset(subset)
                    if cost < following.get(key, cost + 1):
                        following[key] = cost
        best = following
    return min(best.values())
