"""Corpus partitioning, verification order, and file-scale sorting.

Slices are contiguous index ranges over the (sorted) corpus, as even as
possible, remainder to the leading slices.  Each slice's verification
order is fixed up front: lexicographic, seeded-random, or as given.
File-sourced corpora are sorted with a classic run-generation + k-way
merge so memory stays bounded regardless of corpus size.

The sort parses each trace once.  A run is a file of binary records,
each a sort key and the input's own line.  The key is the trace's
symbols, one byte each (``Alphabet.parse_line``), and comparing keys as
bytes compares traces in alphabet order, a proper prefix first.  The
merge orders records by key and copies each kept line verbatim.
"""

from __future__ import annotations

import heapq
import os
import random
import struct
import tempfile
from typing import Iterable, Iterator, Sequence

from .traces import (
    TEMP_PREFIX,
    Alphabet,
    DuplicateTraceError,
    InputTrace,
    _body_lines,
    atomic_text_file,
    format_trace_header,
    parse_trace_header,
)

ORDER_MODES = ("lex", "random", "given")


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


# A run record: the key's and the line's byte lengths, then the key, then
# the line's UTF-8 bytes.  Framing by bytes, not characters, lets a record
# be read back without decoding it.
_FRAME = struct.Struct(">II")


def _run_files(
    lines: Iterable[str],
    tmp_dir: str,
    alphabet: Alphabet,
    budget_symbols: int,
) -> list[str]:
    """Split trace lines into sorted runs, each closed once it holds
    ``budget_symbols`` symbols.

    Each line is parsed once, which checks it; a valid stripped line is
    already canonical, so the run keeps its bytes instead of formatting
    the symbols back.
    """
    paths: list[str] = []

    def flush(run: list[tuple[bytes, bytes]]) -> None:
        run.sort()
        path = os.path.join(tmp_dir, f"run{len(paths)}.bin")
        with open(path, "wb") as fh:
            for key, line in run:
                fh.write(_FRAME.pack(len(key), len(line)) + key + line)
        paths.append(path)

    parse_line = alphabet.parse_line
    run: list[tuple[bytes, bytes]] = []
    used = 0
    for line in lines:
        key = parse_line(line)
        run.append((key, line.encode("utf-8")))
        used += len(key)
        if used >= budget_symbols:
            flush(run)
            run = []
            used = 0
    if run:
        flush(run)
    return paths


def _iter_run(path: str) -> Iterator[tuple[bytes, bytes]]:
    """A run's ``(key, line)`` records in order, read back without parsing."""
    with open(path, "rb") as fh:
        read = fh.read
        while header := read(_FRAME.size):
            key_len, line_len = _FRAME.unpack(header)
            record = read(key_len + line_len)
            yield record[:key_len], record[key_len:]


def external_sort(
    in_path: str,
    out_path: str,
    budget_symbols: int = 10**6,
    dedupe: bool = False,
) -> dict[str, int]:
    """Sort a trace file lexicographically with bounded memory.

    Runs take traces until their symbols reach ``budget_symbols``; each
    is sorted and written as ``(key, line)`` records to a private
    temporary directory beside ``out_path``, which is removed when the
    sort ends, failed or not.  Each line is parsed once, into its symbols,
    when its run is built; a line that does not parse is a
    TraceFormatError.  The symbols, one byte each, are the record's key,
    which compares as bytes in alphabet order, a proper prefix first.  The
    merge orders records by key and writes each kept line as the input had
    it, stripped, so the output is the input's lines in alphabet order.
    ``out_path`` is replaced only once the output is complete.

    Returns a report: traces in/out, sorted runs used, duplicates seen.
    Duplicate traces (equal keys) are an error unless ``dedupe`` is set,
    in which case only the first occurrence is kept.
    """
    if budget_symbols < 1:
        raise ValueError("memory budget must be >= 1 symbol")
    traces_in = traces_out = duplicates = 0
    out_dir = os.path.dirname(os.path.abspath(out_path))
    with tempfile.TemporaryDirectory(prefix=TEMP_PREFIX, dir=out_dir) as tmp_dir:
        with open(in_path, "r", encoding="utf-8") as fh:
            alphabet, quantum = parse_trace_header(fh.readline())
            runs = _run_files(_body_lines(fh), tmp_dir, alphabet, budget_symbols)
        merged = heapq.merge(*map(_iter_run, runs))
        with atomic_text_file(out_path) as fh:
            fh.write(format_trace_header(alphabet, quantum) + "\n")
            fh.flush()
            out = fh.buffer  # run lines are already UTF-8
            previous: bytes | None = None
            for key, line in merged:
                traces_in += 1
                if key == previous:
                    if not dedupe:
                        raise DuplicateTraceError(
                            "duplicate trace " + line.decode("utf-8")
                        )
                    duplicates += 1
                    continue
                out.write(line + b"\n")
                traces_out += 1
                previous = key
    return {
        "traces_in": traces_in,
        "traces_out": traces_out,
        "duplicates": duplicates,
        "runs": len(runs),
    }
