"""Campaign execution: the simulator state machine and the external
driver protocol.

A simulator holds a model state, the input history that produced it, and
a bounded map of checkpointed (state, history) pairs keyed by node id.
It answers each canonical line with the line's protocol reply: ``OK``,
``OUT <token>`` or ``ERR <message>``.  Load of an absent id, Store of a
present id, or Free of an absent id puts the machine into an absorbing
error state.  There is one fold, ``_fold``, for both backends, and it
alone makes observations: ``execute`` folds over a simulator wrapping an
in-process model, and ``run_external`` folds over a shadow simulator
whose replies are those of an external driver, which reads the campaign
file itself, each checked against the shadow's own.
"""

from __future__ import annotations

import os
import stat
import subprocess
import threading
from dataclasses import dataclass
from typing import IO, Callable, NamedTuple, Sequence

from .optimizer import Campaign
from .traces import Alphabet

_MASK64 = (1 << 64) - 1

# Seconds a driver has after its campaign to close its output and exit.
DRIVER_EXIT_GRACE_S = 60.0


def _mix_steps(state: int, key: int, quanta: int) -> int:
    """``quanta`` rounds of adding ``key`` to a 64-bit state and scrambling
    the sum with the splitmix64 finalizer, a cheap, well-scrambled 64-bit
    permutation."""
    for _ in range(quanta):
        state = (state + key) & _MASK64
        state = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
        state = (state ^ (state >> 27)) * 0x94D049BB133111EB & _MASK64
        state ^= state >> 31
    return state


def _mix64(value: int) -> int:
    """The splitmix64 finalizer of a 64-bit value: one round at key 0."""
    return _mix_steps(value, 0, 1)


class SystemModel:
    """Deterministic system driven by piecewise-constant symbol inputs.

    ``transition`` must be a semigroup action: advancing k quanta equals
    advancing one quantum k times.  ``observe`` projects a state to the
    output token reported at Out commands.
    """

    alphabet: Alphabet
    initial_state: object

    def transition(self, state: object, symbol: int, quanta: int) -> object:
        raise NotImplementedError

    def observe(self, state: object) -> str:
        raise NotImplementedError


class ReferenceModel(SystemModel):
    """Keyed 64-bit mixing model: a desk-scale stand-in for a real simulator.

    Each quantum folds the current state with a per-symbol key through the
    splitmix64 finalizer, so distinct input histories yield distinct
    digests with overwhelming probability.
    """

    def __init__(self, alphabet: Alphabet, seed: int) -> None:
        self.alphabet = alphabet
        self.initial_state = _mix64(seed & _MASK64)
        self._symbol_keys = [
            _mix64((seed + 0x9E3779B97F4A7C15 * (i + 1)) & _MASK64)
            for i in range(len(alphabet))
        ]

    def transition(self, state: int, symbol: int, quanta: int) -> int:
        return _mix_steps(state, self._symbol_keys[symbol], quanta)

    def observe(self, state: int) -> str:
        return f"{state:016x}"


def reference_model(alphabet: Alphabet, seed: int) -> ReferenceModel:
    return ReferenceModel(alphabet, seed)


class Observation(NamedTuple):
    token: str
    symbols: bytes


class Simulator:
    """The command-level state machine, which answers each canonical line
    with its protocol reply; errors are absorbing."""

    def __init__(self, model: SystemModel) -> None:
        self.model = model
        self.state = model.initial_state
        self.history = b""
        self.memory: dict[int, tuple[object, bytes]] = {}
        self.error: str | None = None
        self.peak_memory = 0
        self.length_quanta = 0
        # Each distinct RUN line's symbol, length and history increment.
        self._runs: dict[str, tuple[int, int, bytes]] = {}

    def _fail(self, message: str) -> str:
        self.error = message
        return "ERR " + message

    def reply(self, line: str) -> str:
        """Apply one canonical line; its reply is ``OK``, ``OUT <token>``
        or, once the machine is in error, always the same ``ERR <message>``."""
        if self.error is not None:
            return "ERR " + self.error
        op = line[0]
        if op == "R":
            run = self._runs.get(line)
            if run is None:
                _, token, k = line.split(" ")
                symbol, quanta = self.model.alphabet.index(token), int(k)
                run = self._runs[line] = (symbol, quanta, bytes((symbol,)) * quanta)
            self.state = self.model.transition(self.state, run[0], run[1])
            self.history += run[2]
            self.length_quanta += run[1]
        elif op == "O":
            return "OUT " + self.model.observe(self.state)
        elif op not in "LSF":
            return self._fail(f"unknown command {line!r}")
        elif op == "S":
            node_id = int(line[6:])
            if node_id in self.memory:
                return self._fail(f"store of already-present id {node_id}")
            self.memory[node_id] = (self.state, self.history)
            if len(self.memory) > self.peak_memory:
                self.peak_memory = len(self.memory)
        elif op == "L":
            entry = self.memory.get(int(line[5:]))
            if entry is None:
                return self._fail(f"load of absent id {line[5:]}")
            self.state, self.history = entry
        elif self.memory.pop(int(line[5:]), None) is None:
            return self._fail(f"free of absent id {line[5:]}")
        return "OK"


@dataclass(slots=True)
class ExecutionResult:
    observations: list[Observation]
    failing_index: int | None
    error: str | None
    length_quanta: int
    peak_memory: int

    @property
    def executable(self) -> bool:
        return self.failing_index is None


def _fold(
    campaign: Campaign,
    sim: Simulator,
    progress: Callable[[Observation], None] | None = None,
) -> ExecutionResult:
    """Answer the campaign's lines with ``sim`` up to the first ``ERR``;
    each ``OUT`` reply and the history it saw make an observation."""
    observations: list[Observation] = []
    failing_index = error = None
    for i, line in enumerate(campaign.lines):
        reply = sim.reply(line)
        if reply != "OK":
            if reply.startswith("ERR "):
                failing_index, error = i, reply[4:]
                break
            observations.append(Observation(reply[4:], sim.history))
            if progress is not None:
                progress(observations[-1])
    return ExecutionResult(
        observations, failing_index, error, sim.length_quanta, sim.peak_memory
    )


def execute(
    campaign: Campaign,
    model: SystemModel,
    progress: Callable[[Observation], None] | None = None,
) -> ExecutionResult:
    """Run a campaign against an in-process model.

    Stops at the first erroring command; ``progress`` (if given) receives
    each Out command's observation as it completes.
    """
    return _fold(campaign, Simulator(model), progress)


# ---------------------------------------------------------------------------
# External driver protocol
#
# The campaign file is the driver's stdin, which the driver reads as it
# is written: the header, blank and comment lines and tolerant forms
# included.  Blank and ``#`` lines get no reply.  Every other line gets
# exactly one reply line, in order:
#   OK | OUT <token> | ERR <message>
#
# The engine only reads the replies.  After the last reply the driver
# writes nothing more; it closes its output and exits.  A campaign that
# stops short, at an ERR or a protocol error, ends the driver at once.
# ---------------------------------------------------------------------------

class DriverProtocolError(RuntimeError):
    """The external driver violated the line protocol."""


class _OutputClosed(Exception):
    """The driver's output ended before every command had its reply."""


@dataclass
class _DriverModel(SystemModel):
    """A model with no state: an external driver owns the real one."""

    alphabet: Alphabet
    initial_state = None

    def transition(self, state: object, symbol: int, quanta: int) -> object:
        return None

    def observe(self, state: object) -> str:
        return ""


class _DriverShadow(Simulator):
    """A simulator that checks each driver reply against its own.

    Each reply reads the driver's next one.  ``ERR``, alone or followed by
    a space and a message, puts the shadow into its error state with the
    driver's message.  Otherwise the reply must have the shape the command
    calls for, and the shadow must accept the command too; the driver's
    reply is the shadow's, so an ``OUT`` carries the driver's token.
    """

    def __init__(self, replies: IO[str], alphabet: Alphabet) -> None:
        super().__init__(_DriverModel(alphabet))
        self._replies = replies

    def reply(self, line: str) -> str:
        reply = self._replies.readline()
        out = line == "OUT"
        # The common reply, a terminated OK to a command that is no Out,
        # needs none of the checks below.
        if reply != "OK\n" or out:
            if not reply:
                raise _OutputClosed
            reply = reply.rstrip("\n")
            if reply == "ERR" or reply.startswith("ERR "):
                return self._fail(reply[4:].strip() or "driver error")
            if out:
                if not reply.startswith("OUT "):
                    raise DriverProtocolError(f"expected OUT reply, got {reply!r}")
            elif reply != "OK":
                raise DriverProtocolError(f"expected OK reply, got {reply!r}")
        if super().reply(line).startswith("ERR "):
            raise DriverProtocolError(f"driver accepted a {self.error}")
        return reply if out else "OK"


def start_driver(argv: Sequence[str], campaign_path: str) -> subprocess.Popen:
    """Start a driver whose stdin is the campaign file, opened read-only,
    and whose stdout is a text pipe.  The driver and the engine each read
    the file, so it must be a regular file: they would split a pipe."""
    if not stat.S_ISREG(os.stat(campaign_path).st_mode):
        raise ValueError(f"campaign file must be a regular file: {campaign_path}")
    with open(campaign_path, "rb") as campaign:
        return subprocess.Popen(
            list(argv), stdin=campaign, stdout=subprocess.PIPE, text=True
        )


def run_external(campaign: Campaign, proc: subprocess.Popen) -> ExecutionResult:
    """Execute a campaign through an external driver subprocess.

    ``proc`` is a driver ``start_driver`` started on the campaign's file
    and nothing has read from yet, so that it can start up while the
    campaign loads; this call reaps it.  The fold of ``execute`` runs over
    a shadow simulator whose model holds no state.  The shadow keeps the
    input history and checkpoint map, so observations carry their traces
    whatever model the driver wraps, and it checks every reply: a driver
    that accepts a command the shadow rejects, replies in the wrong shape
    or not in UTF-8, stops replying or replies past the end of a campaign
    it did not fail raises ``DriverProtocolError``.  A campaign that stops
    short, at an ``ERR`` or a protocol error, kills the driver at once; a
    driver still running ``DRIVER_EXIT_GRACE_S`` after a completed
    campaign is killed, and the result stands.
    """
    assert proc.stdout is not None
    timer = threading.Timer(DRIVER_EXIT_GRACE_S, proc.kill)
    result, extra, stopped_short = None, 0, True
    try:
        result = _fold(campaign, _DriverShadow(proc.stdout, campaign.alphabet))
        stopped_short = not result.executable
    except _OutputClosed:
        stopped_short = False
    except UnicodeDecodeError as exc:
        raise DriverProtocolError(f"driver reply is not UTF-8: {exc}") from None
    finally:
        # Nothing but a kill stops a driver from reading on through its
        # file.  A driver that closed its output is left to exit, so that
        # the error names its own exit status.
        if stopped_short:
            proc.kill()
        timer.start()
        try:
            for _ in proc.stdout:
                extra += 1
        except UnicodeDecodeError:
            extra += 1
            proc.kill()
        finally:
            proc.stdout.close()
            proc.wait()
            timer.cancel()
            timer.join()
    if result is None:
        raise DriverProtocolError(
            f"driver closed its output mid-campaign (exit status {proc.returncode})"
        )
    # After an ERR the driver may have answered later commands before its kill.
    if extra and result.error is None:
        raise DriverProtocolError(f"driver sent {extra} reply lines after the last command")
    return result
