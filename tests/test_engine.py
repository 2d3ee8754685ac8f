from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import threading

import pytest

from simcamp import engine
from simcamp.engine import (
    DriverProtocolError,
    Simulator,
    execute,
    reference_model,
    run_external,
    start_driver,
)
from simcamp.metrics import (
    CostModel,
    estimate_seconds,
    parse_cost_model,
    read_cost_file,
)
from simcamp.optimizer import (
    Campaign,
    campaign_chunks,
    optimize_slice,
    parse_command,
    write_campaign_file,
)
from simcamp.pipeline import _campaign_summary
from simcamp.traces import TraceFormatError
from simcamp.tree import build_tree
from util import AB, ABCD, call_with_timeout, ts

ECHO_DRIVER = [sys.executable, "-m", "simcamp.echo_driver"]


def start_on(campaign, argv):
    """``start_driver`` on the campaign written to a temporary file, which
    the driver holds open once it has started."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "campaign.txt")
        write_campaign_file(campaign, path)
        return start_driver(argv, path)


def external(campaign, argv, seconds=30.0):
    """``run_external``, failing the test instead of hanging on a stuck
    driver; the driver never outlives the call."""
    proc = start_on(campaign, argv)
    try:
        return call_with_timeout(run_external, campaign, proc, seconds=seconds)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def script_driver(script):
    return [sys.executable, "-c", script]


def lying_driver(replies, then=""):
    """A driver that answers ``replies[<first word>]`` (default OK) to every
    line, then runs the code ``then`` at the end of its input."""
    script = (
        "import sys, time\n"
        f"replies = {replies!r}\n"
        "for line in sys.stdin:\n"
        "    if not line.startswith('#'):\n"
        "        print(replies.get(line.split()[0], 'OK'), flush=True)\n"
        f"{then}\n"
    )
    return script_driver(script)


def campaign_for(texts, sigma=None, quantum=1.0):
    traces = ts(*texts)
    return optimize_slice(build_tree(traces), sigma, quantum), traces


def test_reference_model_is_deterministic():
    m1 = reference_model(AB, 42)
    m2 = reference_model(AB, 42)
    s1 = m1.transition(m1.initial_state, 0, 3)
    assert s1 == m2.transition(m2.initial_state, 0, 3)
    assert m1.observe(s1) == m2.observe(s1)
    assert len(m1.observe(s1)) == 16
    assert reference_model(AB, 43).initial_state != m1.initial_state


def test_transition_is_a_semigroup_action():
    m = reference_model(AB, 7)
    s = m.initial_state
    step_by_step = m.transition(m.transition(m.transition(s, 1, 1), 1, 1), 1, 1)
    assert m.transition(s, 1, 3) == step_by_step
    assert m.transition(m.transition(s, 0, 2), 1, 1) == m.transition(
        m.transition(s, 0, 2), 1, 1
    )


def test_history_follows_runs_and_loads():
    sim = Simulator(reference_model(AB, 1))
    assert sim.reply("STORE 0") == "OK"
    assert sim.reply("RUN a 2") == "OK"
    assert sim.reply("STORE 1") == "OK"
    assert sim.reply("RUN b 1") == "OK"
    assert sim.history == b"\x00\x00\x01"
    assert sim.reply("LOAD 1") == "OK"
    assert sim.history == b"\x00\x00"
    assert sim.length_quanta == 3
    assert sim.peak_memory == 2
    # A line of no known op is an error, not another op's step.
    assert sim.reply("JUMP 1") == "ERR unknown command 'JUMP 1'"
    assert sim.error == "unknown command 'JUMP 1'"


@pytest.mark.parametrize(
    "commands,message",
    [
        (["LOAD 9"], "load of absent id 9"),
        (["STORE 0", "STORE 0"], "store of already-present id 0"),
        (["FREE 4"], "free of absent id 4"),
    ],
)
def test_errors_are_absorbing(commands, message):
    campaign = Campaign(commands + ["OUT"], 1.0, AB)
    result = execute(campaign, reference_model(AB, 0))
    assert not result.executable
    assert result.failing_index == len(commands) - 1
    assert result.error == message
    assert result.observations == []
    # In process, the reply after an error is the same ERR.
    sim = Simulator(reference_model(AB, 0))
    replies = [sim.reply(line) for line in campaign.lines]
    assert replies[len(commands) - 1:] == [f"ERR {message}"] * 2
    # A driver that accepts the same command contradicts the engine's state.
    with pytest.raises(DriverProtocolError, match=f"driver accepted a {message}"):
        external(campaign, lying_driver({"OUT": "OUT x"}))


def test_execute_counts_and_progress():
    campaign, traces = campaign_for(["aab", "aac"], sigma=2, quantum=0.5)
    seen = []
    result = execute(campaign, reference_model(ABCD, 9), progress=seen.append)
    assert result.executable
    assert seen == result.observations
    assert result.length_quanta == 4
    assert result.peak_memory == 2
    assert [o.symbols for o in result.observations] == [x.symbols for x in traces]
    # distinct histories yield distinct digests
    assert result.observations[0].token != result.observations[1].token


def test_cost_model_round_trip(tmp_path):
    cost = CostModel(load=0.5, store=0.25, free=0.1, out=0.0, run_per_q=2.0)
    text = "load=0.5 store=0.25 free=0.1 out=0 run_per_q=2"
    assert parse_cost_model(text) == cost
    path = tmp_path / "costs.txt"
    path.write_text(text + "\n")
    assert read_cost_file(str(path)) == cost


def test_cost_model_parsing():
    cost = parse_cost_model("load=1 store=2 free=0 out=0 run_per_q=1 # trailing")
    assert cost == CostModel(1, 2, 0, 0, 1)
    with pytest.raises(Exception):
        parse_cost_model("load=1 store=2")
    with pytest.raises(Exception):
        parse_cost_model("load=x store=2 free=0 out=0 run_per_q=1")


def test_cost_model_comment_runs_to_the_end_of_its_line():
    entries = "load=1 store=1 free=0 out=0 run_per_q=1"
    assert parse_cost_model("# unit costs\n" + entries) == CostModel(1, 1, 0, 0, 1)
    split = "load=1 store=1 free=0 # c\nout=0 run_per_q=1"
    assert parse_cost_model(split) == CostModel(1, 1, 0, 0, 1)


def test_cost_model_rejects_unknown_and_repeated_keys():
    entries = "load=1 store=1 free=0 out=0 run_per_q=1"
    with pytest.raises(TraceFormatError, match="unknown cost key 'lod'"):
        parse_cost_model(entries + " lod=5")
    with pytest.raises(TraceFormatError, match="repeated cost key 'load'"):
        parse_cost_model(entries + " load=7")


def test_a_cost_entry_without_equals_is_malformed():
    with pytest.raises(TraceFormatError, match="^malformed cost entry 'load0.2'$"):
        parse_cost_model("load0.2 store=1 free=0 out=0 run_per_q=1")


def test_cost_model_rejects_unusable_costs():
    with pytest.raises(TraceFormatError, match="cost load must be finite and >= 0"):
        parse_cost_model("load=-1 store=nan free=0 out=0 run_per_q=inf")
    entries = {"load": "1", "store": "1", "free": "0", "out": "0", "run_per_q": "1"}
    for key, bad in [("load", "-1"), ("store", "nan"), ("free", "inf"),
                     ("out", "-inf"), ("run_per_q", "inf"), ("run_per_q", "0")]:
        text = " ".join(f"{k}={v}" for k, v in {**entries, key: bad}.items())
        with pytest.raises(TraceFormatError, match=rf"\b{key} must be"):
            parse_cost_model(text)
    with pytest.raises(ValueError, match="cost load must be finite and >= 0"):
        CostModel(-1, 1)


def test_inflation_scales_only_load_and_store():
    campaign, _ = campaign_for(["aab", "aac"], sigma=2)
    summary = _campaign_summary(campaign)
    cost = CostModel(load=1.0, store=1.0, free=10.0, out=100.0, run_per_q=1.0)
    base = estimate_seconds(summary, cost, 1.0)
    # 4 run quanta + 1 load + 2 stores + 1 free*10 + 2 outs*100
    assert base == 4 + 3 + 10 + 200
    doubled = estimate_seconds(summary, cost, 2.0)
    assert doubled - base == 3  # only the load/store seconds doubled


def test_external_driver_matches_in_process():
    campaign, _ = campaign_for(["aab", "aac", "ab", "b"], sigma=3, quantum=0.5)
    cut = len(campaign.lines) // 2
    erroring = Campaign(
        campaign.lines[:cut] + ["FREE 99"] + campaign.lines[cut:], 0.5, ABCD
    )
    for case in (campaign, erroring):
        local = execute(case, reference_model(ABCD, 11))
        remote = external(
            case, ECHO_DRIVER + ["--seed", "11", "--alphabet", "a,b,c,d"]
        )
        assert remote.executable == (case is campaign)
        assert remote.failing_index == local.failing_index
        assert remote.error == local.error
        assert remote.observations == local.observations
        assert remote.length_quanta == local.length_quanta
        assert remote.peak_memory == local.peak_memory
    assert remote.failing_index == cut
    assert remote.error == "free of absent id 99"


def test_external_driver_reports_errors():
    campaign = Campaign(["STORE 0", "LOAD 7", "OUT"], 1.0, AB)
    result = external(campaign, ECHO_DRIVER + ["--seed", "0", "--alphabet", "a,b"])
    assert not result.executable
    assert result.failing_index == 1
    assert "absent" in result.error


def test_protocol_violations_are_detected():
    campaign, _ = campaign_for(["ab"], sigma=1)
    for argv, message in (
        (["cat"], "expected OK reply"),
        (lying_driver({"OUT": "OK"}), "expected OUT reply, got 'OK'"),
        (lying_driver({"OUT": "OUT x", "RUN": "OUT x"}),
         "expected OK reply, got 'OUT x'"),
        # Only ERR alone or ERR and a message is an error reply.
        (lying_driver({"RUN": "ERRATIC"}), "expected OK reply, got 'ERRATIC'"),
    ):
        with pytest.raises(DriverProtocolError, match=message):
            external(campaign, argv)


def test_a_bare_err_reply_is_a_driver_error():
    campaign, _ = campaign_for(["ab"], sigma=1)
    for reply, error in (("ERR", "driver error"), ("ERR  no state", "no state")):
        result = external(campaign, lying_driver({"RUN": reply}))
        assert not result.executable
        assert result.failing_index == 1
        assert result.error == error


def test_a_driver_that_outlives_its_campaign_is_killed(monkeypatch):
    # The driver answers every command, then sleeps with its output open;
    # the shadow's result stands once the grace has run out.
    monkeypatch.setattr(engine, "DRIVER_EXIT_GRACE_S", 0.2, raising=False)
    campaign, traces = campaign_for(["ab", "b"])
    threads = threading.active_count()
    result = external(
        campaign, lying_driver({"OUT": "OUT x"}, then="time.sleep(20)"), seconds=10
    )
    assert result.executable
    assert [o.symbols for o in result.observations] == [x.symbols for x in traces]
    assert threading.active_count() == threads


def test_replies_past_the_last_command_are_a_protocol_error():
    campaign, _ = campaign_for(["ab", "b"])
    with pytest.raises(DriverProtocolError, match="sent 2 reply lines after"):
        external(
            campaign,
            lying_driver({"OUT": "OUT x"}, then="print('OK\\nOUT bogus', flush=True)"),
        )


NOT_UTF8 = "sys.stdout.buffer.write(b'\\xff\\n'); sys.stdout.flush()"


@pytest.mark.parametrize(
    "argv,message",
    [
        (script_driver(f"import sys\nfor line in sys.stdin:\n    {NOT_UTF8}\n"),
         "not UTF-8"),
        # The pause lets the fold end before the stray byte, so the drain
        # after the last command reads it.
        (lying_driver({"OUT": "OUT x"}, then=f"time.sleep(0.5); {NOT_UTF8}"),
         "sent 1 reply lines after the last command"),
    ],
    ids=["every-reply", "after-the-last"],
)
def test_a_reply_that_is_not_utf8_is_a_protocol_error(argv, message):
    # The call reaps its driver and leaves no thread behind.
    campaign, _ = campaign_for(["ab", "b"])
    threads = threading.active_count()
    proc = start_on(campaign, argv)
    try:
        with pytest.raises(DriverProtocolError, match=message):
            call_with_timeout(run_external, campaign, proc, seconds=10)
        assert proc.returncode is not None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert threading.active_count() == threads


@pytest.mark.parametrize("reply", ["ERR boom", "BOGUS"])
def test_a_campaign_that_stops_short_kills_its_driver_at_once(reply):
    # The driver answers every line, then sleeps with its output open.  Its
    # first reply stops the campaign, and the call kills it there instead
    # of waiting out its sleep or the grace.
    campaign, _ = campaign_for(["ab", "b"])
    threads = threading.active_count()
    proc = start_on(campaign, lying_driver({"RUN": reply}, then="time.sleep(20)"))
    try:
        if reply == "BOGUS":
            with pytest.raises(DriverProtocolError, match="got 'BOGUS'"):
                call_with_timeout(run_external, campaign, proc, seconds=10)
        else:
            result = call_with_timeout(run_external, campaign, proc, seconds=10)
            assert (result.failing_index, result.error) == (1, "boom")
        assert proc.returncode == -signal.SIGKILL
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert threading.active_count() == threads


# A campaign far longer than a driver's first read, so that a driver which
# stops early leaves most of its file unanswered.
LONG = Campaign(["RUN a 1", "OUT"] * 20_000, 1.0, AB)

FIRST_COMMAND_THEN = (
    "import sys\n"
    "line = sys.stdin.readline()\n"
    "while line.startswith('#'):\n"
    "    line = sys.stdin.readline()\n"
    "print({reply!r}, flush=True)\n"
    "sys.exit({status})\n"
)


@pytest.mark.parametrize(
    "argv,message",
    [
        (script_driver(FIRST_COMMAND_THEN.format(reply="OK", status=3)),
         r"closed its output mid-campaign \(exit status 3\)"),
        (["true"], r"closed its output mid-campaign \(exit status 0\)"),
    ],
    ids=["exits-after-first-reply", "never-reads"],
)
def test_a_driver_that_stops_early_is_a_protocol_error(argv, message):
    threads = threading.active_count()
    with pytest.raises(DriverProtocolError, match=message):
        external(LONG, argv)
    assert threading.active_count() == threads


def test_a_driver_that_errs_and_exits_gives_a_failed_result():
    threads = threading.active_count()
    result = external(
        LONG, script_driver(FIRST_COMMAND_THEN.format(reply="ERR boom", status=0))
    )
    assert not result.executable
    assert (result.failing_index, result.error) == (0, "boom")
    assert result.observations == []
    assert threading.active_count() == threads


def test_echo_driver_answers_an_unterminated_last_line():
    done = call_with_timeout(
        subprocess.run,
        ECHO_DRIVER + ["--alphabet", "a,b"],
        input="#q=1;slice=0\nSTORE 0\nOUT",
        capture_output=True,
        text=True,
    )
    replies = done.stdout.splitlines()
    assert replies[0] == "OK"
    assert replies[1].startswith("OUT ") and len(replies) == 2


def test_echo_driver_answers_a_malformed_line_each_time():
    lines = ["STORE 0", "RUN a 2", "RUN a 0", "OUT", "RUN a 0", "LOAD 0",
             "RUN a 2", "RUN b 1", "OUT"]
    done = call_with_timeout(
        subprocess.run,
        ECHO_DRIVER + ["--seed", "3", "--alphabet", "a,b"],
        input="#q=1;slice=0\n" + "\n".join(lines) + "\n",
        capture_output=True,
        text=True,
    )
    with pytest.raises(TraceFormatError) as malformed:
        parse_command("RUN a 0", AB)
    good = [parse_command(x, AB) for x in lines if x != "RUN a 0"]
    outs = execute(Campaign(good, 1.0, AB), reference_model(AB, 3))
    tokens = [f"OUT {o.token}" for o in outs.observations]
    error = f"ERR {malformed.value}"
    assert done.stdout.splitlines() == [
        "OK", "OK", error, tokens[0], error, "OK", "OK", "OK", tokens[1]
    ]


def test_echo_driver_answers_a_lock_step_client():
    campaign, _ = campaign_for(["aab", "aac", "ab", "b"], sigma=2)
    expected = execute(campaign, reference_model(ABCD, 5))
    header, commands = next(campaign_chunks(campaign)), campaign.lines

    # With PYTHONUNBUFFERED set, every write would reach the client at
    # once and hide a driver that flushes only at the end of its input.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}

    def lock_step():
        proc = subprocess.Popen(
            ECHO_DRIVER + ["--seed", "5", "--alphabet", "a,b,c,d"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        proc.stdin.write(header)
        replies = []
        for line in commands:
            proc.stdin.write(line + "\n")
            proc.stdin.flush()
            replies.append(proc.stdout.readline().rstrip("\n"))
        proc.stdin.close()
        proc.stdout.close()
        proc.wait()
        return replies

    replies = call_with_timeout(lock_step)
    assert len(replies) == len(commands)
    outs = [r[4:] for r in replies if r.startswith("OUT ")]
    assert outs == [o.token for o in expected.observations]
    assert all(r == "OK" for r in replies if not r.startswith("OUT "))
