"""The text grammar every simcamp file reader shares: a header line where
the format has one, then body lines, where a blank or ``#`` line carries
nothing; and the header errors, pinned."""

from __future__ import annotations

import io
import sys

import pytest

from simcamp import echo_driver
from simcamp.cli import main
from simcamp.generator import read_constraint_file
from simcamp.optimizer import parse_campaign_header, read_campaign_file
from simcamp.pipeline import _is_constraint_file
from simcamp.slicing import external_sort
from simcamp.traces import (
    TraceFormatError,
    parse_trace_header,
    read_trace_file,
    read_trace_lines,
)
from util import AB

# Lines that carry nothing: blank once stripped, or a comment once stripped.
NO_COMMAND = ["", "   ", "\t", "#", "# a note", "  # indented", "\t#tab"]

TRACE_LINES = ["#alphabet=a,b;q=0.5", "b,a", "a,b,b", "a"]
SPEC_LINES = [
    "alphabet=a,b", "horizon=4", "states=3", "start=0", "accept=0,1",
    "0 a -> 0", "0 b -> 1", "1 a -> 0", "1 b -> 2", "2 a -> 2", "2 b -> 2",
]
CAMPAIGN_LINES = [
    "#q=1;slice=0", "STORE 0", "RUN a 2", "STORE 1", "RUN b 1", "OUT",
    "LOAD 1", "RUN a 1", "OUT", "LOAD 0", "RUN b 2", "OUT",
]


def padded(lines, filler, header):
    """``lines`` with ``filler`` before, between and after its body lines;
    a header stays on line 1."""
    head, body = (lines[:1], lines[1:]) if header else ([], lines)
    return head + [filler] + [x for line in body for x in (line, filler)]


def write(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def echo_replies(path):
    replies = io.StringIO()
    with open(path, encoding="utf-8") as stdin, pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "stdin", stdin)
        mp.setattr(sys, "stdout", replies)
        assert echo_driver.main(["--seed", "7", "--alphabet", "a,b"]) == 0
    return replies.getvalue()


@pytest.mark.parametrize("filler", NO_COMMAND)
def test_every_reader_skips_the_lines_that_carry_nothing(tmp_path, filler):
    def both(name, lines, header):
        return (write(tmp_path / f"{name}.txt", lines),
                write(tmp_path / f"{name}_padded.txt", padded(lines, filler, header)))

    trace, trace_padded = both("traces", TRACE_LINES, True)
    assert read_trace_file(trace_padded) == read_trace_file(trace)
    assert read_trace_lines(trace_padded) == read_trace_lines(trace)
    sorted_paths = [str(tmp_path / "sorted.txt"), str(tmp_path / "sorted_padded.txt")]
    external_sort(trace, sorted_paths[0])
    external_sort(trace_padded, sorted_paths[1])
    texts = [open(path, encoding="utf-8").read() for path in sorted_paths]
    assert texts[1] == texts[0] == "#alphabet=a,b;q=0.5\na\na,b,b\nb,a\n"

    spec, spec_padded = both("spec", SPEC_LINES, False)
    assert read_constraint_file(spec_padded) == read_constraint_file(spec)
    assert _is_constraint_file(spec_padded) and _is_constraint_file(spec)
    assert not _is_constraint_file(trace_padded)

    campaign, campaign_padded = both("campaign", CAMPAIGN_LINES, True)
    assert read_campaign_file(campaign_padded, AB) == read_campaign_file(campaign, AB)
    replies = echo_replies(campaign)
    assert echo_replies(campaign_padded) == replies
    assert replies.count("\n") == len(CAMPAIGN_LINES) - 1


@pytest.mark.parametrize(
    "command",
    [
        ["sort", "--out", "{tmp}/sorted.txt"],
        ["pipeline", "--out-dir", "{tmp}/run"],
        ["optimize", "--out", "{tmp}/campaign.txt"],
    ],
)
def test_an_empty_trace_file_is_the_same_error_in_every_command(
    tmp_path, capsys, command
):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    source = "--slice" if command[0] == "optimize" else "--in"
    argv = [arg.format(tmp=tmp_path) for arg in command] + [source, str(empty)]
    assert main(argv) == 2
    assert capsys.readouterr().err.rstrip("\n").endswith("empty trace file")


@pytest.mark.parametrize(
    "line,message",
    [
        ("", "empty trace file"),
        ("alphabet=a,b;q=1", "missing #alphabet= header on line 1 of trace file"),
        ("a,b\n", "missing #alphabet= header on line 1 of trace file"),
        ("#alphabet=a,b", "malformed trace header: '#alphabet=a,b'"),
        ("#alphabet=a,b;p=1", "malformed trace header: '#alphabet=a,b;p=1'"),
        ("#alphabet=a,b;q=x\n", "malformed trace header: '#alphabet=a,b;q=x'"),
        ("#alphabet=a,b;q=1;x", "malformed trace header: '#alphabet=a,b;q=1;x'"),
        ("#alphabet=a,a;q=1", "malformed trace header: alphabet tokens must be distinct"),
        ("#alphabet=a,b;q=0",
         "trace header: time quantum must be finite and > 0, not 0"),
        ("#alphabet=a,b;q=nan",
         "trace header: time quantum must be finite and > 0, not nan"),
    ],
)
def test_trace_header_errors_are_pinned(line, message):
    with pytest.raises(TraceFormatError) as error:
        parse_trace_header(line)
    assert str(error.value) == message


@pytest.mark.parametrize(
    "line,message",
    [
        ("", "empty campaign file"),
        ("q=1;slice=0", "missing #q= header on line 1 of campaign file"),
        ("STORE 0\n", "missing #q= header on line 1 of campaign file"),
        ("#q=1", "malformed campaign header: '#q=1'"),
        ("#q=1;s=0", "malformed campaign header: '#q=1;s=0'"),
        ("#q=x;slice=0\n", "malformed campaign header: '#q=x;slice=0'"),
        ("#q=1;slice=x", "malformed campaign header: '#q=1;slice=x'"),
        ("#q=-1;slice=0",
         "campaign header: time quantum must be finite and > 0, not -1"),
        ("#q=inf;slice=0",
         "campaign header: time quantum must be finite and > 0, not inf"),
    ],
)
def test_campaign_header_errors_are_pinned(tmp_path, line, message):
    with pytest.raises(TraceFormatError) as error:
        parse_campaign_header(line)
    assert str(error.value) == message
    path = tmp_path / "campaign.txt"
    path.write_text(line)
    with pytest.raises(TraceFormatError) as error:
        read_campaign_file(str(path), AB)
    assert str(error.value) == message
