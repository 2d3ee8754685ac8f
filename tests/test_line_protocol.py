"""The campaign line protocol's accepted forms, canonical forms and error
texts, pinned as recorded: the echo driver's reply bytes, and what
``read_campaign_file`` makes of the same kinds of lines."""

from __future__ import annotations

import io
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from simcamp import echo_driver
from simcamp.engine import Simulator, execute, reference_model
from simcamp.optimizer import optimize_slice, read_campaign_file, write_campaign_file
from simcamp.traces import TraceFormatError
from simcamp.tree import build_tree
from util import AB, call_with_timeout, random_traces

ECHO_DRIVER = [sys.executable, "-m", "simcamp.echo_driver"]

# Blank and comment lines, forms that only a tolerant parse accepts, and
# malformed lines, then a load of an absent id whose error absorbs the rest.
DRIVER_LINES = [
    "STORE 0", "", "# a comment", "RUN a 03", "STORE  +7", "  OUT  ",
    "STORE 10", "LOAD 1_0", "RUN c 1", "JUMP 3", "RUN a 0", "LOAD 7",
    "RUN b 2\r", "OUT", "FREE 7", "LOAD 99", "RUN a 1", "OUT", "JUMP 3",
    "STORE 5",
]

DRIVER_REPLIES = (
    b"OK\nOK\nOK\nOUT 24c98f57b05b5654\nOK\nOK\n"
    b"ERR malformed campaign command: 'RUN c 1' (unknown symbol token 'c')\n"
    b"ERR malformed campaign command: 'JUMP 3'\n"
    b"ERR malformed campaign command: 'RUN a 0'\n"
    b"OK\nOK\nOUT 7e873df6fcf51a21\nOK\n"
    b"ERR load of absent id 99\nERR load of absent id 99\n"
    b"ERR load of absent id 99\n"
    b"ERR malformed campaign command: 'JUMP 3'\n"
    b"ERR load of absent id 99\n"
)


def test_echo_driver_replies_are_pinned():
    done = call_with_timeout(
        subprocess.run,
        ECHO_DRIVER + ["--seed", "7", "--alphabet", "a,b"],
        input=("#q=1;slice=0\n" + "\n".join(DRIVER_LINES) + "\n").encode(),
        capture_output=True,
    )
    assert done.stdout == DRIVER_REPLIES


@pytest.mark.parametrize(
    "alphabet, error",
    [("a,a", "alphabet tokens must be distinct"), ("a,", "bad alphabet token: ''")],
)
def test_echo_driver_names_a_bad_alphabet(alphabet, error):
    done = call_with_timeout(
        subprocess.run, ECHO_DRIVER + ["--alphabet", alphabet],
        input=b"", capture_output=True,
    )
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr.decode() == f"error: {error}\n"


ACCEPTED_LINES = [
    "STORE 0", "", "   ", "# c", "RUN a 03", "STORE  +7", "RUN\tb\t2",
    "STORE 10", "  OUT  ", "LOAD 1_0", "RUN a ٣", "FREE 10", "OUT",
    "LOAD 7", "RUN b +1", "OUT", "LOAD -1",
]

CANONICAL_FILE = (
    "#q=0.5;slice=3\nSTORE 0\nRUN a 3\nSTORE 7\nRUN b 2\nSTORE 10\nOUT\n"
    "LOAD 10\nRUN a 3\nFREE 10\nOUT\nLOAD 7\nRUN b 1\nOUT\nLOAD -1\n"
)


def test_read_campaign_file_canonicalises_every_accepted_form(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("#q=0.5;slice=3\n" + "\n".join(ACCEPTED_LINES) + "\n")
    campaign = read_campaign_file(str(path), AB)
    assert (campaign.quantum, campaign.slice_id, campaign.peak_stored) == (0.5, 3, 3)
    write_campaign_file(campaign, str(tmp_path / "back.txt"))
    assert (tmp_path / "back.txt").read_text() == CANONICAL_FILE
    result = execute(campaign, reference_model(AB, 7))
    assert (result.executable, result.failing_index, result.error) == (
        False, 13, "load of absent id -1"
    )
    assert [(o.token, o.symbols) for o in result.observations] == [
        ("7e873df6fcf51a21", bytes([0, 0, 0, 1, 1])),
        ("90003c67a24a0a13", bytes([0, 0, 0, 1, 1, 0, 0, 0])),
        ("19100d822f221f67", bytes([0, 0, 0, 1])),
    ]


@pytest.mark.parametrize(
    "line,message",
    [
        ("RUN c 1", "malformed campaign command: 'RUN c 1' (unknown symbol token 'c')"),
        ("JUMP 3", "malformed campaign command: 'JUMP 3'"),
        ("RUN a 0", "malformed campaign command: 'RUN a 0'"),
        ("RUN a", "malformed campaign command: 'RUN a'"),
        ("STORE", "malformed campaign command: 'STORE'"),
        ("LOAD x", "malformed campaign command: 'LOAD x'"),
        ("OUT 1", "malformed campaign command: 'OUT 1'"),
        ("STORE 1 2", "malformed campaign command: 'STORE 1 2'"),
        ("RUN a -1", "malformed campaign command: 'RUN a -1'"),
        ("run a 1", "malformed campaign command: 'run a 1'"),
    ],
)
def test_read_campaign_file_error_texts_are_pinned(tmp_path, line, message):
    path = tmp_path / "c.txt"
    path.write_text(f"#q=1;slice=0\nSTORE 0\n{line}\nOUT\n")
    with pytest.raises(TraceFormatError) as error:
        read_campaign_file(str(path), AB)
    assert str(error.value) == message


# Lines that are no command: blank once stripped, or a comment once stripped.
NO_COMMAND = ["", "   ", "\t", "#", "# a note", "  # indented", "\t#tab"]


def accepted_form(rng, line: str) -> str:
    """Canonical ``line`` as a hand-written campaign may hold it: other
    spacing, signed or zero-padded numbers, a CRLF ending."""
    if rng.random() < 0.3:
        return line + "\n"
    op, *args = line.split(" ")
    if args:
        args[-1] = rng.choice(["", "+"]) + "0" * rng.randrange(3) + args[-1]
    text = op
    for arg in args:
        text += rng.choice([" ", "  ", "\t", " \t"]) + arg
    pad = [" ", "\t", ""]
    return rng.choice(pad) + text + rng.choice(pad) + rng.choice(["\n", "\r\n"])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 1 << 32))
def test_the_driver_and_the_reader_agree_on_every_accepted_form(tmp_path_factory, seed):
    rng = random.Random(seed)
    alphabet, traces = random_traces(rng, rng.randint(1, 12))
    planned = optimize_slice(build_tree(traces), rng.choice([1, 2, None]), 1.0)
    text = "#q=1;slice=0" + rng.choice(["\n", "\r\n"])
    for line in planned.lines:
        while rng.random() < 0.2:
            text += rng.choice(NO_COMMAND) + rng.choice(["\n", "\r\n"])
        text += accepted_form(rng, line)
    path = tmp_path_factory.mktemp("protocol") / "campaign.txt"
    path.write_bytes(text.encode())

    assert read_campaign_file(str(path), alphabet).lines == planned.lines

    sim = Simulator(reference_model(alphabet, seed))
    expected = [sim.reply(line) for line in planned.lines]
    replies = io.StringIO()
    with open(path, encoding="utf-8") as stdin, pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "stdin", stdin)
        mp.setattr(sys, "stdout", replies)
        argv = ["--seed", str(seed), "--alphabet", ",".join(alphabet.tokens)]
        assert echo_driver.main(argv) == 0
    assert replies.getvalue() == "".join(reply + "\n" for reply in expected)


def test_the_echo_driver_parses_only_the_lines_that_are_not_canonical(
    tmp_path, monkeypatch
):
    # A campaign file's header line, or a comment, takes the slow path
    # alone: the canonical lines of its batch are answered as they are.
    alphabet, traces = random_traces(random.Random(3), 40)
    planned = optimize_slice(build_tree(traces), 2, 1.0)
    lines = ["#q=1;slice=0", *planned.lines[:30], "# a comment", "RUN  a 1",
             *planned.lines[30:]]
    path = tmp_path / "campaign.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    sim = Simulator(reference_model(alphabet, 5))
    expected = [sim.reply(line) for line in [*planned.lines[:30], "RUN a 1",
                                             *planned.lines[30:]]]

    calls = []
    parse = echo_driver.parse_command

    def spy(line, alphabet):
        calls.append(line)
        return parse(line, alphabet)

    monkeypatch.setattr(echo_driver, "parse_command", spy)
    replies = io.StringIO()
    with open(path, encoding="utf-8") as stdin:
        monkeypatch.setattr(sys, "stdin", stdin)
        monkeypatch.setattr(sys, "stdout", replies)
        argv = ["--seed", "5", "--alphabet", ",".join(alphabet.tokens)]
        assert echo_driver.main(argv) == 0
    assert calls == ["#q=1;slice=0", "# a comment", "RUN  a 1"]
    assert replies.getvalue() == "".join(reply + "\n" for reply in expected)
