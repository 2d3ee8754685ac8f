"""Constrained scenario generation: counting and indexed extraction.

A constraint spec is a fixed horizon plus deterministic finite automata
("monitors") over the input alphabet; the scenario set is every length-h
word accepted by all monitors.  A dynamic-programming table over the
product automaton supports exact counting and direct extraction of the
j-th word in lexicographic order, without enumerating the set; a batch of
indices is extracted in one walk that shares the prefixes of neighbours.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .traces import Alphabet, InputTrace, TraceFormatError, body_lines


@dataclass(frozen=True, slots=True)
class Dfa:
    """Complete DFA over the spec's alphabet; states are 0..num_states-1.

    ``step[s][u]`` is the successor of state s on symbol index u.
    """

    num_states: int
    start: int
    accepting: frozenset[int]
    step: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.num_states < 1:
            raise ValueError("monitor needs at least one state")
        if not (0 <= self.start < self.num_states):
            raise ValueError("monitor start state out of range")
        if any(not (0 <= s < self.num_states) for s in self.accepting):
            raise ValueError("monitor accepting state out of range")
        if len(self.step) != self.num_states:
            raise ValueError("monitor transition table must cover every state")
        width = len(self.step[0]) if self.step else 0
        for row in self.step:
            if len(row) != width:
                raise ValueError("monitor transition rows must have equal width")
            if any(not (0 <= t < self.num_states) for t in row):
                raise ValueError("monitor transition target out of range")


@dataclass(frozen=True, slots=True)
class ConstraintSpec:
    alphabet: Alphabet
    horizon: int
    monitors: tuple[Dfa, ...] = ()

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        for dfa in self.monitors:
            if dfa.step and len(dfa.step[0]) != len(self.alphabet):
                raise ValueError("monitor transitions must cover the whole alphabet")


State = tuple[int, ...]  # one state per monitor: a product-automaton state


class GeneratorTable:
    """Suffix-count table over the product automaton.

    ``_children[r]`` maps each product state reachable at depth h-r to
    its ``(symbol, successor, count)`` triples, in symbol order, where
    count is the exact number of accepted suffixes of length r-1 from the
    successor; successors with none are left out.  Counts are Python
    integers, so they stay exact far beyond 64 bits.  Read-only once
    built; safe to share across threads.
    """

    def __init__(self, spec: ConstraintSpec) -> None:
        self.spec = spec
        n_symbols = len(spec.alphabet)
        start = tuple(dfa.start for dfa in spec.monitors)
        # Product states recur across depths, so each one's successors
        # are computed once.
        successors: dict[State, tuple[State, ...]] = {}
        levels: list[set[State]] = [{start}]
        for _ in range(spec.horizon):
            nxt: set[State] = set()
            for state in levels[-1]:
                if state not in successors:
                    successors[state] = tuple(
                        self._step(state, u) for u in range(n_symbols)
                    )
                nxt.update(successors[state])
            levels.append(nxt)
        counts: list[dict[State, int]] = [
            {s: 1 if self._accepting(s) else 0 for s in levels[spec.horizon]}
        ]
        children: list[dict[State, tuple[tuple[int, State, int], ...]]] = [{}]
        for r in range(1, spec.horizon + 1):
            deeper = counts[r - 1]
            level_children = {
                s: tuple(
                    (u, t, deeper[t])
                    for u, t in enumerate(successors[s])
                    if deeper[t]
                )
                for s in levels[spec.horizon - r]
            }
            children.append(level_children)
            counts.append(
                {
                    s: sum(below for _u, _t, below in kids)
                    for s, kids in level_children.items()
                }
            )
        self._children = children
        self._start = start
        self._total = counts[spec.horizon][start]

    def _step(self, state: State, symbol: int) -> State:
        return tuple(
            dfa.step[s][symbol] for dfa, s in zip(self.spec.monitors, state)
        )

    def _accepting(self, state: State) -> bool:
        return all(
            s in dfa.accepting for dfa, s in zip(self.spec.monitors, state)
        )

    def count(self) -> int:
        """Number of length-h words accepted by all monitors."""
        return self._total

    def get(self, index: int) -> InputTrace:
        """The index-th accepted word in lexicographic order."""
        return next(self.extract((index,)))

    def extract(self, indices: Iterable[int]) -> Iterator[InputTrace]:
        """The accepted words at ``indices``, in the order given, from one walk.

        The walk keeps the path to the last word it produced: per depth,
        the product state and the ``[lo, hi)`` range of indices below
        that node.  Each next index climbs only until the range holds it,
        then descends from there, so a sorted batch visits each node of
        the word trie about once.  Unsorted or repeated indices are still
        answered correctly; they just climb further.
        """
        horizon = self.spec.horizon
        alphabet = self.spec.alphabet
        children = self._children
        total = self.count()
        states = [self._start] * (horizon + 1)
        lo = [0] * (horizon + 1)
        hi = [total] * (horizon + 1)
        symbols = [0] * horizon
        depth = 0
        for index in indices:
            if not (0 <= index < total):
                raise IndexError(
                    f"scenario index {index} out of range [0, {total})"
                )
            while not (lo[depth] <= index < hi[depth]):
                depth -= 1
            while depth < horizon:
                first = lo[depth]
                for u, state, below in children[horizon - depth][states[depth]]:
                    if index < first + below:
                        break
                    first += below
                else:
                    raise AssertionError("count table inconsistent with extraction")
                symbols[depth] = u
                depth += 1
                states[depth] = state
                lo[depth] = first
                hi[depth] = first + below
            yield InputTrace._unchecked(alphabet, bytes(symbols))


def check_fraction(fraction: float) -> None:
    """Raise ValueError unless ``fraction`` lies in (0, 1]; NaN does not."""
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must lie in (0, 1], not {fraction:g}")


def sample_indices(n: int, fraction: float, seed: int) -> Sequence[int]:
    """A sorted, duplicate-free sample of round(fraction*n) indices in [0, n):
    ``range(n)`` when it keeps them all, else a list.

    Deterministic for a given seed; fraction must lie in (0, 1].
    """
    if n < 1:
        raise ValueError("population size must be >= 1")
    check_fraction(fraction)
    size = math.floor(fraction * n + 0.5)
    if size == n:
        return range(n)
    return sorted(random.Random(seed).sample(range(n), size))


# ---------------------------------------------------------------------------
# Constraint spec file format
#
#   alphabet=<tok>,<tok>,...
#   horizon=<H>
#   then one block per monitor:
#     states=<N>
#     start=<s>
#     accept=<s>,<s>,...        (possibly empty after '=')
#     <from> <token> -> <to>    (one line per transition; must be complete)
#   (body lines, as in ``traces``: blank and '#' lines carry nothing)
# ---------------------------------------------------------------------------


def read_constraint_file(path: str) -> ConstraintSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_constraint_spec(list(body_lines(fh)))


def parse_constraint_spec(lines: Sequence[str]) -> ConstraintSpec:
    if not lines or not lines[0].startswith("alphabet="):
        raise TraceFormatError("constraint spec must begin with alphabet=")
    alphabet = Alphabet(tuple(lines[0][len("alphabet="):].split(",")))
    if len(lines) < 2 or not lines[1].startswith("horizon="):
        raise TraceFormatError("constraint spec must state horizon= second")
    try:
        horizon = int(lines[1][len("horizon="):])
    except ValueError as exc:
        raise TraceFormatError("malformed horizon") from exc

    monitors: list[Dfa] = []
    i = 2
    while i < len(lines):
        if not lines[i].startswith("states="):
            raise TraceFormatError(f"expected states= to open a monitor: {lines[i]!r}")
        try:
            num_states = int(lines[i][len("states="):])
            if not lines[i + 1].startswith("start="):
                raise ValueError
            start = int(lines[i + 1][len("start="):])
            if not lines[i + 2].startswith("accept="):
                raise ValueError
            accept_raw = lines[i + 2][len("accept="):]
            accepting = frozenset(
                int(s) for s in accept_raw.split(",") if s != ""
            )
        except (ValueError, IndexError) as exc:
            raise TraceFormatError("malformed monitor block header") from exc
        i += 3
        table: dict[tuple[int, int], int] = {}
        while i < len(lines) and not lines[i].startswith("states="):
            parts = lines[i].split()
            if len(parts) != 4 or parts[2] != "->":
                raise TraceFormatError(f"malformed transition line: {lines[i]!r}")
            try:
                src, dst = int(parts[0]), int(parts[3])
            except ValueError as exc:
                raise TraceFormatError(f"malformed transition line: {lines[i]!r}") from exc
            symbol = alphabet.index(parts[1])
            if (src, symbol) in table:
                raise TraceFormatError(f"duplicate transition: {lines[i]!r}")
            table[(src, symbol)] = dst
            i += 1
        step_rows = []
        for s in range(num_states):
            row = []
            for u in range(len(alphabet)):
                if (s, u) not in table:
                    raise TraceFormatError(
                        f"monitor transition function incomplete at state {s}, "
                        f"symbol {alphabet.tokens[u]!r}"
                    )
                row.append(table[(s, u)])
            step_rows.append(tuple(row))
        if len(table) != num_states * len(alphabet):
            raise TraceFormatError("monitor has transitions from out-of-range states")
        monitors.append(Dfa(num_states, start, accepting, tuple(step_rows)))
    return ConstraintSpec(alphabet, horizon, tuple(monitors))
