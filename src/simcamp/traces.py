"""Input alphabets, traces, and the on-disk trace format.

A scenario is a finite sequence of symbols drawn from a finite ordered
alphabet.  Interpreted against a time quantum q, the sequence is a
piecewise-constant input function: symbol i is held on [i*q, (i+1)*q).
Symbols are stored as integer indices into the alphabet; tokens appear
only at I/O boundaries.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, TextIO

_TOKEN_FORBIDDEN = set(",;#")


class TraceFormatError(ValueError):
    """Malformed trace/spec/campaign file content."""


class AlphabetMismatchError(ValueError):
    """Operands drawn from different alphabets."""


@dataclass(frozen=True, slots=True)
class Alphabet:
    """Finite ordered input domain: the order of ``tokens`` is the total order.

    It is also the trace codec: every token/symbol conversion goes through
    the token-to-index table built once here.
    """

    tokens: tuple[str, ...]
    _table: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError("alphabet must not be empty")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("alphabet tokens must be distinct")
        for tok in self.tokens:
            if not tok or any(c in _TOKEN_FORBIDDEN or c.isspace() for c in tok):
                raise ValueError(f"bad alphabet token: {tok!r}")
        object.__setattr__(
            self, "_table", {tok: i for i, tok in enumerate(self.tokens)}
        )

    @staticmethod
    def of(*tokens: str) -> "Alphabet":
        return Alphabet(tuple(tokens))

    def __len__(self) -> int:
        return len(self.tokens)

    def index(self, token: str) -> int:
        try:
            return self._table[token]
        except KeyError:
            raise TraceFormatError(f"unknown symbol token {token!r}") from None

    def parse(self, tokens: Iterable[str]) -> tuple[int, ...]:
        """The symbols of ``tokens``; an unknown token is a TraceFormatError."""
        try:
            return tuple(map(self._table.__getitem__, tokens))
        except KeyError as exc:
            raise TraceFormatError(f"unknown symbol token {exc.args[0]!r}") from None

    def parse_line(self, line: str) -> tuple[int, ...]:
        """The symbols of one stripped trace line."""
        return self.parse(line.split(","))

    def render(self, symbols: Iterable[int]) -> list[str]:
        """The tokens of ``symbols``."""
        toks = self.tokens
        return [toks[s] for s in symbols]

    def format_line(self, symbols: Iterable[int]) -> str:
        """The trace line of ``symbols``: their tokens, comma-separated."""
        return ",".join(self.render(symbols))


@dataclass(frozen=True, slots=True)
class InputTrace:
    """One scenario: symbol indices over ``alphabet``; horizon = len(symbols)."""

    alphabet: Alphabet
    symbols: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValueError("trace horizon must be >= 1")
        if min(self.symbols) < 0 or max(self.symbols) >= len(self.alphabet):
            raise ValueError("trace symbol index out of alphabet range")

    @property
    def horizon(self) -> int:
        return len(self.symbols)

    def tokens(self) -> tuple[str, ...]:
        return tuple(self.alphabet.render(self.symbols))


@dataclass(slots=True)
class TraceCorpus:
    """A set of scenarios sharing one alphabet and one time quantum."""

    alphabet: Alphabet
    quantum: float
    traces: list[InputTrace] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.quantum <= 0:
            raise ValueError("time quantum must be > 0")
        for t in self.traces:
            if t.alphabet != self.alphabet:
                raise AlphabetMismatchError("corpus traces must share the corpus alphabet")

    def __len__(self) -> int:
        return len(self.traces)


# ---------------------------------------------------------------------------
# Trace file format
#
#   line 1:  #alphabet=<tok>,<tok>,...;q=<decimal>
#   then one trace per non-empty line, comma-separated tokens.
#   Lines starting with '#' after line 1 are comments.
# ---------------------------------------------------------------------------


def parse_trace_header(line: str) -> tuple[Alphabet, float]:
    line = line.strip()
    if not line.startswith("#alphabet="):
        raise TraceFormatError("missing #alphabet= header on line 1")
    body = line[1:]
    try:
        alpha_part, q_part = body.split(";", 1)
        tokens = alpha_part[len("alphabet="):].split(",")
        if not q_part.startswith("q="):
            raise ValueError
        quantum = float(q_part[len("q="):])
    except ValueError as exc:
        raise TraceFormatError(f"malformed trace header: {line!r}") from exc
    if quantum <= 0:
        raise TraceFormatError("header quantum must be > 0")
    try:
        alphabet = Alphabet(tuple(tokens))
    except ValueError as exc:
        raise TraceFormatError(f"malformed trace header: {line!r}") from exc
    return alphabet, quantum


def format_trace_header(alphabet: Alphabet, quantum: float) -> str:
    return f"#alphabet={','.join(alphabet.tokens)};q={quantum:g}"


def _read_header(stream: TextIO) -> tuple[Alphabet, float]:
    header = stream.readline()
    if not header:
        raise TraceFormatError("empty trace file")
    return parse_trace_header(header)


def _body_lines(stream: TextIO) -> Iterator[str]:
    """The stripped trace lines after the header, without blanks or comments."""
    for raw in stream:
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line


def read_trace_lines(path: str) -> tuple[Alphabet, float, list[str]]:
    """A trace file's header fields and its trace lines, left unparsed.

    For files this program wrote, such as a sorted corpus, whose lines
    need no check before they are copied into other trace files.
    """
    with open(path, "r", encoding="utf-8") as fh:
        alphabet, quantum = _read_header(fh)
        return alphabet, quantum, list(_body_lines(fh))


def read_trace_file(path: str) -> TraceCorpus:
    with open(path, "r", encoding="utf-8") as fh:
        alphabet, quantum = _read_header(fh)
        traces = [
            InputTrace(alphabet, alphabet.parse_line(line)) for line in _body_lines(fh)
        ]
    return TraceCorpus(alphabet, quantum, traces)


@contextmanager
def atomic_text_file(path: str) -> Iterator[TextIO]:
    """A text stream that replaces ``path`` only once the block completes.

    The text goes to a temporary file beside ``path``, which ``os.replace``
    moves into place on success and which is removed on any failure, so
    ``path`` never holds a partly written file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_trace_lines(
    path: str, alphabet: Alphabet, quantum: float, lines: Iterable[str]
) -> None:
    """Write a trace file from its header fields and its trace lines."""
    with atomic_text_file(path) as fh:
        fh.write(format_trace_header(alphabet, quantum) + "\n")
        for line in lines:
            fh.write(line + "\n")


def write_trace_file(corpus: TraceCorpus, path: str) -> None:
    alphabet = corpus.alphabet
    write_trace_lines(
        path,
        alphabet,
        corpus.quantum,
        (alphabet.format_line(t.symbols) for t in corpus.traces),
    )
