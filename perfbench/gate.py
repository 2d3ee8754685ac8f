"""Correctness gate: checks a workload run's outputs against the inputs.

Every check is counted; the benchmark's ``attempted``/``failed`` are these
counts and ``failed_frac`` is their ratio.  The gate replays campaign files
with its own command fold and derives the expected verification order,
capacity and observation tokens from the inputs it generated, so a broken
optimizer or engine cannot vouch for itself.  Only the system model
(``ReferenceModel``) is taken from the program.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

Trace = tuple[int, ...]


class GateError(ValueError):
    """A campaign cannot be replayed."""


@dataclass
class Gate:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(f"{name}: {detail}" if detail else name)
        return ok


@dataclass
class Replay:
    """What a campaign does, folded from its command lines."""

    outs: list[Trace]
    length_q: int
    peak: int
    counts: Counter
    evictions: int
    dead_frees: int

    @property
    def commands(self) -> int:
        return sum(self.counts.values())


def replay_campaign(lines: Iterable[str], tokens: Sequence[str]) -> Replay:
    """Fold campaign lines (header included) into histories at each OUT.

    A FREE directly followed by a STORE is an eviction: the optimizer emits
    that pair only when it evicts a victim to store a deeper prefix.  Any
    other FREE releases a checkpoint no remaining trace can use.
    """
    index = {tok: i for i, tok in enumerate(tokens)}
    history: list[int] = []
    memory: dict[int, Trace] = {}
    outs: list[Trace] = []
    counts: Counter = Counter()
    length = peak = evictions = dead_frees = 0
    after_free = False
    lines = iter(lines)
    if not next(lines, "").startswith("#q="):
        raise GateError("campaign has no #q= header")
    for line in lines:
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        op = parts[0]
        if after_free:
            if op == "STORE":
                evictions += 1
            else:
                dead_frees += 1
            after_free = False
        counts[op] += 1
        if op == "RUN":
            quanta = int(parts[2])
            history.extend([index[parts[1]]] * quanta)
            length += quanta
        elif op == "OUT":
            outs.append(tuple(history))
        elif op == "STORE":
            node = int(parts[1])
            if node in memory:
                raise GateError(f"STORE of present id {node}")
            memory[node] = tuple(history)
            peak = max(peak, len(memory))
        elif op == "LOAD":
            node = int(parts[1])
            if node not in memory:
                raise GateError(f"LOAD of absent id {node}")
            history = list(memory[node])
        elif op == "FREE":
            node = int(parts[1])
            if memory.pop(node, None) is None:
                raise GateError(f"FREE of absent id {node}")
            after_free = True
        else:
            raise GateError(f"unknown command {line.strip()!r}")
    if after_free:
        dead_frees += 1
    return Replay(outs, length, peak, counts, evictions, dead_frees)


def read_campaign(path: str, tokens: Sequence[str]) -> Replay:
    with open(path, "r", encoding="utf-8") as fh:
        return replay_campaign(fh, tokens)


def drop_one_run(lines: Sequence[str]) -> list[str]:
    """The campaign with its first RUN removed: the gate must reject it."""
    out = list(lines)
    for i, line in enumerate(out):
        if line.startswith("RUN "):
            del out[i]
            return out
    raise GateError("campaign has no RUN to drop")


def negative_check(gate: Gate, campaign_path: str, tokens, expected_outs) -> None:
    """The gate's own test: a campaign missing one run must fail replay."""
    with open(campaign_path, "r", encoding="utf-8") as fh:
        broken = drop_one_run(fh.read().splitlines())
    try:
        tripped = replay_campaign(broken, tokens).outs != expected_outs
    except GateError:
        tripped = True
    gate.check("negative check: a campaign with one RUN dropped is rejected", tripped)


def lcp(a: Trace, b: Trace) -> int:
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


def capacity(sorted_traces: Sequence[Trace]) -> int:
    """Checkpoint slots of the slice's branch tree: every prefix that two
    neighbours in sorted order share, plus the initial state if the empty
    prefix is not itself shared."""
    shared = {
        cur[: lcp(prev, cur)] for prev, cur in zip(sorted_traces, sorted_traces[1:])
    }
    return len(shared) + (0 if () in shared else 1)


def distinct_prefix_quanta(sorted_traces: Sequence[Trace]) -> int:
    """Quanta of a campaign that simulates every distinct prefix once."""
    total = len(sorted_traces[0])
    for prev, cur in zip(sorted_traces, sorted_traces[1:]):
        total += len(cur) - lcp(prev, cur)
    return total


def expected_tokens(sorted_traces: Sequence[Trace], model) -> dict[Trace, str]:
    """Each trace's output token, simulated directly from the initial state
    (reusing the states of the previous trace's common prefix)."""
    states = [model.initial_state]
    prev: Trace = ()
    token_of = {}
    for trace in sorted_traces:
        del states[lcp(prev, trace) + 1:]
        state = states[-1]
        for symbol in trace[len(states) - 1:]:
            state = model.transition(state, symbol, 1)
            states.append(state)
        token_of[trace] = model.observe(state)
        prev = trace
    return token_of


def slice_seed(master: int, slice_id: int) -> int:
    """The documented per-slice order seed: stable hash of the master seed."""
    digest = hashlib.sha256(f"simcamp:{master}:{slice_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def random_order(traces: Sequence[Trace], seed: int) -> list[Trace]:
    out = list(traces)
    random.Random(seed).shuffle(out)
    return out
