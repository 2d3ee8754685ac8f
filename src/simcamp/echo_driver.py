"""Built-in external driver speaking the campaign line protocol on stdio.

Wraps the in-process reference model behind the same protocol a real
simulator driver would use, so the external execution path can be tested
end to end:

    python -m simcamp.echo_driver --seed 7 --alphabet a,b

It is the simulator answering stdin: every command line gets the
simulator's own reply to it, ``OK``, ``OUT <token>`` or ``ERR <message>``.
A canonical line, as a campaign file holds it, is answered as it is; any
other line goes through ``parse_command`` first, which gives header and
comment lines no reply, and a line it refuses gets ``ERR <error>``.
Replies are buffered and flushed before each read of input that may
block, so a client that streams commands gets its replies in batches, and
a client that waits for each reply before sending the next command still
gets it.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import IO, Iterator, Sequence

from .engine import Simulator, reference_model
from .optimizer import canonical_patterns, parse_command
from .traces import Alphabet, TraceFormatError


_READ_SIZE = 1 << 16


def _input_batches(stdin: IO[str]) -> Iterator[str]:
    """The text of ``stdin`` in batches of newline-ended lines, as they
    arrive: the lines completed by one read, then any last line without a
    newline, with one added."""
    fd = stdin.fileno()
    pending = b""
    while chunk := os.read(fd, _READ_SIZE):
        data = pending + chunk
        end = data.rfind(b"\n") + 1
        pending = data[end:]
        if end:
            # A newline byte ends a character in every encoding the
            # protocol allows, so the completed lines decode as one text.
            yield data[:end].decode(stdin.encoding, stdin.errors)
    if pending:
        yield pending.decode(stdin.encoding, stdin.errors) + "\n"


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="simcamp-echo-driver",
        description="Reference-model driver for the campaign line protocol.",
    )
    parser.add_argument("--seed", type=int, default=0, help="reference model seed")
    parser.add_argument(
        "--alphabet",
        required=True,
        help="comma-separated input symbol tokens, in order",
    )
    args = parser.parse_args(argv)

    try:
        alphabet = Alphabet(tuple(args.alphabet.split(",")))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sim = Simulator(reference_model(alphabet, args.seed))

    # Replies to a batch go out before the next read, which may block
    # until the client has seen them.
    misfit = canonical_patterns(alphabet)[1]
    for text in _input_batches(sys.stdin):
        canonical = misfit.search("\n" + text) is None
        replies: list[str] = []
        for line in text[:-1].split("\n"):
            if not canonical:
                try:
                    line = parse_command(line, alphabet)
                except TraceFormatError as exc:
                    replies.append(f"ERR {exc}")
                    continue
                if line is None:
                    continue
            replies.append(sim.reply(line))
        if replies:
            sys.stdout.write("\n".join(replies) + "\n")
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
