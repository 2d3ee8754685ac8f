"""Shared test helpers: compact trace literals, trace files, random
corpora, the prefixes of a branch tree's nodes, timeouts."""

from __future__ import annotations

import random
import threading
from collections import Counter

import pytest

from simcamp import traces
from simcamp.traces import Alphabet, InputTrace, TraceCorpus
from simcamp.tree import ROOT_ID

ABCD = Alphabet.of("a", "b", "c", "d")
AB = Alphabet.of("a", "b")


def t(text: str, alphabet: Alphabet = ABCD) -> InputTrace:
    """'aab' -> the trace a,a,b (single-character tokens only)."""
    return InputTrace(alphabet, alphabet.parse(text))


def ts(*texts: str, alphabet: Alphabet = ABCD) -> list[InputTrace]:
    return [t(x, alphabet) for x in texts]


def write_trace_file(corpus: TraceCorpus, path: str) -> None:
    """``traces.write_trace_file`` of a corpus."""
    alphabet = corpus.alphabet
    traces.write_trace_file(
        path,
        alphabet,
        corpus.quantum,
        (alphabet.format_line(t.symbols) for t in corpus.traces),
    )


def random_traces(
    rng: random.Random,
    target: int,
    alphabet_size: int = 3,
    max_horizon: int = 8,
) -> tuple[Alphabet, list[InputTrace]]:
    """Up to ``target`` distinct random traces (fewer if the space is small)."""
    alphabet = Alphabet(tuple("abcd"[:alphabet_size]))
    seen: set[bytes] = set()
    out: list[InputTrace] = []
    for _ in range(6 * target):
        h = rng.randint(1, max_horizon)
        s = bytes(rng.randrange(alphabet_size) for _ in range(h))
        if s not in seen:
            seen.add(s)
            out.append(InputTrace(alphabet, s))
            if len(out) == target:
                break
    return alphabet, out


def node_prefixes(tree) -> dict[int, bytes]:
    """Every node's prefix, by node id: a node at index i of a trace's
    chain holds the trace's first ``tree.depth[node]`` symbols."""
    prefixes = {}
    for trace, chain in zip(tree.traces, tree.chains):
        for node_id in chain:
            prefix = trace.symbols[:tree.depth[node_id]]
            assert prefixes.setdefault(node_id, prefix) == prefix
    return prefixes


def chain_counts(tree) -> Counter:
    """{node id: the number of traces whose chain holds the node}."""
    return Counter(node_id for chain in tree.chains for node_id in chain)


def shared_prefix_map(tree) -> dict[bytes, int]:
    """{prefix: the number of traces whose chain holds its node} over the
    tree's shared-prefix nodes."""
    held = chain_counts(tree)
    return {
        prefix: held[node_id]
        for node_id, prefix in node_prefixes(tree).items()
        if node_id != ROOT_ID or tree.root_shared
    }


def call_with_timeout(fn, *args, seconds: float = 30.0, **kwargs):
    """``fn(*args, **kwargs)``, failing the test if it runs past ``seconds``.

    The call runs in a daemon thread, so a hung external driver fails the
    test instead of hanging the whole run.  An exception from ``fn`` is
    raised again here.
    """
    outcome: dict = {}

    def call() -> None:
        try:
            outcome["value"] = fn(*args, **kwargs)
        except BaseException as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(seconds)
    if thread.is_alive():
        pytest.fail(f"{fn.__name__} did not return within {seconds:g} s")
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]
