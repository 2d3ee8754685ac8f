"""Input alphabets, traces, and the on-disk trace format.

A scenario is a finite sequence of symbols drawn from a finite ordered
alphabet.  Interpreted against a time quantum q, the sequence is a
piecewise-constant input function: symbol i is held on [i*q, (i+1)*q).
A trace's symbols are ``bytes``, one alphabet index per byte, so an
alphabet has at most ``MAX_SYMBOLS`` tokens, and bytes order is alphabet
order, a proper prefix first.  Tokens appear only at I/O boundaries.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, TextIO

_TOKEN_FORBIDDEN = set(",;#")

# The byte table's entry for a byte that is no token.  An alphabet of
# one-character ASCII tokens has at most 128 symbols, so a translated
# line holds a symbol >= the alphabet size exactly when it holds this.
_NOT_A_SYMBOL = b"\xff"

# The most tokens an alphabet can have: a symbol is one byte.
MAX_SYMBOLS = 256

# The name prefix of every temporary file or directory beside an output.
TEMP_PREFIX = "simcamp-tmp-"


class TraceFormatError(ValueError):
    """Malformed trace/spec/campaign file content."""


class AlphabetMismatchError(ValueError):
    """Operands drawn from different alphabets."""


class DuplicateTraceError(ValueError):
    """A trace occurs twice where each must be distinct: in a corpus sorted
    without deduplication, or in a slice."""


@dataclass(frozen=True, slots=True)
class Alphabet:
    """Finite ordered input domain: the order of ``tokens`` is the total order.

    It is also the trace codec: every token/symbol conversion goes through
    the token-to-index table built once here.  When every token is one
    ASCII character, a 256-entry byte-to-symbol table is built as well,
    and a trace line is decoded as bytes, without splitting it into
    tokens.  That byte path accepts exactly the lines the token path
    accepts; a line it rejects goes to the token path, which raises the
    same TraceFormatError for it as for any other alphabet.
    """

    tokens: tuple[str, ...]
    _table: dict[str, int] = field(init=False, repr=False, compare=False)
    _byte_table: bytes | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError("alphabet must not be empty")
        if len(self.tokens) > MAX_SYMBOLS:
            raise ValueError(f"alphabet has {len(self.tokens)} tokens; "
                             f"at most {MAX_SYMBOLS} are supported")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("alphabet tokens must be distinct")
        for tok in self.tokens:
            if not tok or any(c in _TOKEN_FORBIDDEN or c.isspace() for c in tok):
                raise ValueError(f"bad alphabet token: {tok!r}")
        object.__setattr__(
            self, "_table", {tok: i for i, tok in enumerate(self.tokens)}
        )
        byte_table = None
        if all(len(tok) == 1 and tok.isascii() for tok in self.tokens):
            table = bytearray(_NOT_A_SYMBOL * 256)
            for i, tok in enumerate(self.tokens):
                table[ord(tok)] = i
            byte_table = bytes(table)
        object.__setattr__(self, "_byte_table", byte_table)

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

    def parse(self, tokens: Iterable[str]) -> bytes:
        """The symbols of ``tokens``; an unknown token is a TraceFormatError."""
        try:
            return bytes(map(self._table.__getitem__, tokens))
        except KeyError as exc:
            raise TraceFormatError(f"unknown symbol token {exc.args[0]!r}") from None

    def _byte_symbols(self, line: str) -> bytes | None:
        """A stripped trace line's symbols, one byte each, from the byte
        table; None when there is no table or the line is not valid.

        A valid line over one-character tokens alternates token and comma
        and ends on a token: odd length, ``n - 1`` commas for ``n``
        symbols, and every other byte a token.  A comma among those bytes
        translates to no symbol, so all ``n - 1`` commas sit between them.
        """
        table = self._byte_table
        if table is None or not len(line) % 2 or not line.isascii():
            return None
        raw = line.encode("ascii")
        symbols = raw[::2].translate(table)
        if raw.count(b",") != len(symbols) - 1 or _NOT_A_SYMBOL in symbols:
            return None
        return symbols

    def parse_line(self, line: str) -> bytes:
        """The symbols of one stripped trace line."""
        return self._byte_symbols(line) or self.parse(line.split(","))

    def render(self, symbols: Iterable[int]) -> list[str]:
        """The tokens of ``symbols``."""
        toks = self.tokens
        return [toks[s] for s in symbols]

    def format_line(self, symbols: Iterable[int]) -> str:
        """The trace line of ``symbols``: their tokens, comma-separated."""
        return ",".join(self.render(symbols))


@dataclass(frozen=True, slots=True)
class InputTrace:
    """One scenario: symbol indices over ``alphabet`` as ``bytes`` (the
    checked constructor converts any sequence); horizon = len(symbols)."""

    alphabet: Alphabet
    symbols: bytes

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValueError("trace horizon must be >= 1")
        if min(self.symbols) < 0 or max(self.symbols) >= len(self.alphabet):
            raise ValueError("trace symbol index out of alphabet range")
        object.__setattr__(self, "symbols", bytes(self.symbols))

    @classmethod
    def _unchecked(cls, alphabet: Alphabet, symbols: bytes) -> "InputTrace":
        """A trace the codec or the generator made over ``alphabet``,
        without ``__post_init__``'s checks: such symbols are non-empty
        and in range by construction, and taking ``min`` and ``max`` of a
        long trace costs more than parsing it."""
        trace = object.__new__(cls)
        object.__setattr__(trace, "alphabet", alphabet)
        object.__setattr__(trace, "symbols", symbols)
        return trace

    @property
    def horizon(self) -> int:
        return len(self.symbols)

    def tokens(self) -> tuple[str, ...]:
        return tuple(self.alphabet.render(self.symbols))


def format_number(value: float) -> str:
    """``value`` as file text that reads back equal: its short ``:g``
    form when that is exact, else ``repr``."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def check_quantum(quantum: float) -> None:
    """Raise ValueError unless ``quantum`` is a usable time quantum: finite
    and > 0 (NaN is neither)."""
    if not 0 < quantum < math.inf:
        raise ValueError(f"time quantum must be finite and > 0, not {quantum:g}")


@dataclass(slots=True)
class TraceCorpus:
    """A set of scenarios sharing one alphabet and one time quantum."""

    alphabet: Alphabet
    quantum: float
    traces: list[InputTrace] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_quantum(self.quantum)
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
    try:
        check_quantum(quantum)
    except ValueError as exc:
        raise TraceFormatError(f"trace header: {exc}") from None
    try:
        alphabet = Alphabet(tuple(tokens))
    except ValueError as exc:
        raise TraceFormatError(f"malformed trace header: {exc}") from None
    return alphabet, quantum


def format_trace_header(alphabet: Alphabet, quantum: float) -> str:
    return f"#alphabet={','.join(alphabet.tokens)};q={format_number(quantum)}"


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
            InputTrace._unchecked(alphabet, alphabet.parse_line(line))
            for line in _body_lines(fh)
        ]
    return TraceCorpus(alphabet, quantum, traces)


@contextmanager
def atomic_text_file(path: str) -> Iterator[TextIO]:
    """A text stream that replaces ``path`` only once the block completes.

    The text goes to a temporary file beside ``path``, which ``os.replace``
    moves into place on success and which is removed on any failure, so
    ``path`` never holds a partly written file.  The temporary file is
    created as ``open`` would create ``path``, so the umask sets its mode.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f"{TEMP_PREFIX}{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
