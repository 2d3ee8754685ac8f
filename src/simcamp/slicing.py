"""Corpus partitioning, verification order, and file-scale sorting.

Slices are contiguous index ranges over the (sorted) corpus, as even as
possible, remainder to the leading slices.  Each slice's verification
order is fixed up front: lexicographic, seeded-random, or as given.
File-sourced corpora are sorted with a classic run-generation + k-way
merge so memory stays bounded regardless of corpus size.
"""

from __future__ import annotations

import heapq
import os
import random
import tempfile
from typing import Iterator, Sequence

from .traces import (
    Alphabet,
    InputTrace,
    atomic_text_file,
    format_trace_header,
    parse_trace_header,
)

ORDER_MODES = ("lex", "random", "given")


class DuplicateTraceError(ValueError):
    """The corpus contains duplicate traces and deduplication is off."""


def slice_ranges(n: int, slices: int) -> list[tuple[int, int]]:
    """Contiguous [start, stop) ranges covering [0, n); sizes differ by <= 1.

    The remainder of an uneven split goes to the lowest-index slices.
    """
    if not (1 <= slices <= n):
        raise ValueError(f"need 1 <= slices <= corpus size, got {slices} for {n}")
    base, extra = divmod(n, slices)
    ranges = []
    start = 0
    for i in range(slices):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def order_slice(
    traces: Sequence[InputTrace], mode: str, seed: int = 0
) -> list[InputTrace]:
    """Fix a slice's verification order; a permutation of the input.

    ``lex`` sorts, ``random`` applies a seeded uniform shuffle, ``given``
    preserves the input order.
    """
    if not traces:
        raise ValueError("cannot order an empty slice")
    if mode == "lex":
        return sorted(traces, key=lambda t: t.symbols)
    if mode == "random":
        out = list(traces)
        random.Random(seed).shuffle(out)
        return out
    if mode == "given":
        return list(traces)
    raise ValueError(f"order mode must be one of {ORDER_MODES}")


def _run_files(
    in_path: str,
    tmp_dir: str,
    alphabet: Alphabet,
    budget_symbols: int,
) -> list[str]:
    """Split the input into sorted runs of at most ``budget_symbols`` symbols."""
    paths: list[str] = []

    def flush(run: list[tuple[int, ...]]) -> None:
        run.sort()
        path = os.path.join(tmp_dir, f"run{len(paths)}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            for symbols in run:
                fh.write(alphabet.format_line(symbols) + "\n")
        paths.append(path)

    run: list[tuple[int, ...]] = []
    used = 0
    with open(in_path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        parse_trace_header(header)  # validated by caller; keeps offsets honest
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            symbols = alphabet.parse_line(line)
            run.append(symbols)
            used += len(symbols)
            if used >= budget_symbols:
                flush(run)
                run = []
                used = 0
    if run:
        flush(run)
    return paths


def _iter_run(path: str, run_index: int, alphabet: Alphabet) -> Iterator[
    tuple[tuple[int, ...], int, int, str]
]:
    """A run's traces in order, each with its line as ``flush`` wrote it."""
    with open(path, "r", encoding="utf-8") as fh:
        for pos, line in enumerate(fh):
            yield (alphabet.parse_line(line[:-1]), run_index, pos, line)


def external_sort(
    in_path: str,
    out_path: str,
    budget_symbols: int = 10**6,
    dedupe: bool = False,
) -> dict[str, int]:
    """Sort a trace file lexicographically with bounded memory.

    Returns a report: traces in/out, sorted runs used, duplicates seen.
    Duplicate traces are an error unless ``dedupe`` is set, in which case
    only the first occurrence is kept.
    """
    if budget_symbols < 1:
        raise ValueError("memory budget must be >= 1 symbol")
    with open(in_path, "r", encoding="utf-8") as fh:
        alphabet, quantum = parse_trace_header(fh.readline())

    traces_in = traces_out = duplicates = 0
    out_dir = os.path.dirname(os.path.abspath(out_path))
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp_dir:
        runs = _run_files(in_path, tmp_dir, alphabet, budget_symbols)
        merged = heapq.merge(
            *(_iter_run(path, i, alphabet) for i, path in enumerate(runs))
        )
        with atomic_text_file(out_path) as fh:
            fh.write(format_trace_header(alphabet, quantum) + "\n")
            previous: tuple[int, ...] | None = None
            for symbols, _run, _pos, line in merged:
                traces_in += 1
                if symbols == previous:
                    if not dedupe:
                        raise DuplicateTraceError(
                            "duplicate trace " + alphabet.format_line(symbols)
                        )
                    duplicates += 1
                    continue
                fh.write(line)
                traces_out += 1
                previous = symbols
    return {
        "traces_in": traces_in,
        "traces_out": traces_out,
        "duplicates": duplicates,
        "runs": len(runs),
    }
