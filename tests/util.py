"""Shared test helpers: compact trace literals, random corpora, timeouts."""

from __future__ import annotations

import random
import threading

import pytest

from simcamp.traces import Alphabet, InputTrace

ABCD = Alphabet.of("a", "b", "c", "d")
AB = Alphabet.of("a", "b")


def t(text: str, alphabet: Alphabet = ABCD) -> InputTrace:
    """'aab' -> the trace a,a,b (single-character tokens only)."""
    return InputTrace(alphabet, alphabet.parse(text))


def ts(*texts: str, alphabet: Alphabet = ABCD) -> list[InputTrace]:
    return [t(x, alphabet) for x in texts]


def random_traces(
    rng: random.Random,
    target: int,
    alphabet_size: int = 3,
    max_horizon: int = 8,
) -> tuple[Alphabet, list[InputTrace]]:
    """Up to ``target`` distinct random traces (fewer if the space is small)."""
    alphabet = Alphabet(tuple("abcd"[:alphabet_size]))
    seen: set[tuple[int, ...]] = set()
    out: list[InputTrace] = []
    for _ in range(6 * target):
        h = rng.randint(1, max_horizon)
        s = tuple(rng.randrange(alphabet_size) for _ in range(h))
        if s not in seen:
            seen.add(s)
            out.append(InputTrace(alphabet, s))
            if len(out) == target:
                break
    return alphabet, out


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
