"""Built-in external driver speaking the campaign line protocol on stdio.

Wraps the in-process reference model behind the same protocol a real
simulator driver would use, so the external execution path can be tested
end to end:

    python -m simcamp.echo_driver --seed 7 --alphabet a,b

Header/comment lines receive no reply; every command line receives one of
``OK``, ``OUT <token>``, or ``ERR <message>``.  Replies are buffered and
flushed before each read of input that may block, so a client that
streams commands gets its replies in batches, and a client that waits for
each reply before sending the next command still gets it.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import IO, Iterator, Sequence

from .engine import Simulator, reference_model
from .optimizer import Command, parse_lines
from .traces import Alphabet, TraceFormatError


_READ_SIZE = 1 << 16


def _input_batches(stdin: IO[str]) -> Iterator[list[str]]:
    """The lines of ``stdin`` in batches, as they arrive.

    Each batch holds the lines completed by one read; a last line without
    a newline comes as a batch of its own at the end of input.
    """
    fd = stdin.fileno()
    pending = b""
    while chunk := os.read(fd, _READ_SIZE):
        data = pending + chunk
        end = data.rfind(b"\n") + 1
        pending = data[end:]
        if end:
            # A newline byte ends a character in every encoding the
            # protocol allows, so the completed lines decode as one text.
            yield data[:end - 1].decode(stdin.encoding, stdin.errors).split("\n")
    if pending:
        yield [pending.decode(stdin.encoding, stdin.errors)]


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

    alphabet = Alphabet(tuple(args.alphabet.split(",")))
    sim = Simulator(reference_model(alphabet, args.seed))

    # Replies to a batch go out before the next read, which may block
    # until the client has seen them.
    repeats: dict[str, Command] = {}
    replies: list[str] = []

    def malformed(exc: TraceFormatError) -> None:
        replies.append(f"ERR {exc}\n")

    for batch in _input_batches(sys.stdin):
        for cmd in parse_lines(batch, alphabet, repeats, malformed):
            if not sim.step(cmd):
                replies.append(f"ERR {sim.error}\n")
            elif cmd.op == "out":
                replies.append(f"OUT {sim.observations[-1].token}\n")
            else:
                replies.append("OK\n")
        sys.stdout.write("".join(replies))
        sys.stdout.flush()
        replies.clear()
    return 0


if __name__ == "__main__":
    sys.exit(main())
