from __future__ import annotations

import json
import os
import shlex
import sys
import time

import pytest

import simcamp.cli as cli
from simcamp.cli import main
from simcamp.metrics import parse_cost_model
from simcamp.pipeline import (
    _CLAIM_KEYS,
    _CONFIG_KEYS,
    _MANIFEST_KEYS,
    _PROGRESS_KEYS,
    _RESULT_KEYS,
    _SLICES_KEYS,
)
from simcamp.traces import TraceCorpus, TraceFormatError
from test_line_protocol import ACCEPTED_LINES
from util import ABCD, call_with_timeout, ts, write_trace_file


def corpus_file(tmp_path):
    path = tmp_path / "slice.txt"
    write_trace_file(TraceCorpus(ABCD, 0.5, ts("aab", "aac")), str(path))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


def test_optimize_then_execute(tmp_path, capsys):
    src = corpus_file(tmp_path)
    campaign = str(tmp_path / "campaign.txt")
    code, out = run_cli(
        capsys, "optimize", "--slice", src, "--out", campaign, "--sigma", "capacity"
    )
    assert code == 0
    stats = json.loads(out.out)
    assert stats["length_q"] == 4
    assert stats["capacity"] == 2
    assert stats["sigma"] == 2

    code, out = run_cli(
        capsys, "execute", "--campaign", campaign, "--alphabet", "a,b,c,d",
        "--model-seed", "7",
    )
    assert code == 0
    result = json.loads(out.out)
    assert result["executable"] is True
    assert result["outs"] == 2
    assert result["peak_memory"] == 2


def test_execute_through_external_driver(tmp_path, capsys):
    src = corpus_file(tmp_path)
    campaign = str(tmp_path / "campaign.txt")
    run_cli(capsys, "optimize", "--slice", src, "--out", campaign)
    driver = f"{sys.executable} -m simcamp.echo_driver --seed 7 --alphabet a,b,c,d"
    code, out = call_with_timeout(
        run_cli, capsys, "execute", "--campaign", campaign, "--alphabet", "a,b,c,d",
        "--driver", driver,
    )
    assert code == 0
    assert json.loads(out.out)["outs"] == 2


def test_oracle_subcommands(tmp_path, capsys):
    src = corpus_file(tmp_path)
    code, out = run_cli(capsys, "oracle", "edges", "--slice", src)
    assert (code, out.out.strip()) == (0, "4")

    code, out = run_cli(capsys, "oracle", "shared", "--slice", src)
    assert out.out.splitlines() == ["a,a 2"]

    code, out = run_cli(capsys, "oracle", "naive", "--slice", src)
    lines = out.out.splitlines()
    assert lines[0] == "#q=0.5;slice=0"
    assert lines.count("LOAD 0") == 2


def test_sg_count_and_get(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text(
        "alphabet=0,1\nhorizon=2\n"
        "states=3\nstart=0\naccept=0,1\n"
        "0 0 -> 0\n0 1 -> 1\n1 0 -> 0\n1 1 -> 2\n2 0 -> 2\n2 1 -> 2\n"
    )
    code, out = run_cli(capsys, "sg", "count", "--spec", str(spec))
    assert (code, out.out.strip()) == (0, "3")
    code, out = run_cli(capsys, "sg", "get", "--spec", str(spec), "--index", "2")
    assert (code, out.out.strip()) == (0, "1,0")


def test_sort_command(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("#alphabet=a,b;q=1\nb\na\nb\n")
    dst = str(tmp_path / "out.txt")
    code, out = run_cli(
        capsys, "sort", "--in", str(src), "--out", dst, "--dedupe"
    )
    assert code == 0
    assert json.loads(out.out)["duplicates"] == 1


def test_pipeline_analyze_progress(tmp_path, capsys):
    path = tmp_path / "corpus.txt"
    write_trace_file(
        TraceCorpus(ABCD, 1.0, ts("aa", "ab", "ba", "bb", "c", "d")), str(path)
    )
    out_dir = str(tmp_path / "run")
    code, out = run_cli(
        capsys, "pipeline", "--in", str(path), "--out-dir", out_dir,
        "--slices", "2", "--seed", "5",
    )
    assert code == 0
    assert json.loads(out.out)["traces"] == 6

    code, out = run_cli(capsys, "progress", "--dir", out_dir)
    assert (code, out.out.strip()) == (0, "0.000000")

    report = str(tmp_path / "r.csv")
    code, out = run_cli(
        capsys, "analyze", out_dir, "--f-grid", "1,10", "--out", report
    )
    assert code == 0
    assert json.loads(out.out)["rows"] == 6


def test_progress_of_a_run_whose_source_stage_failed_is_one(tmp_path, capsys):
    # The failed run claimed its directory but wrote no manifest: it has
    # verified nothing.  A directory that holds no run still fails.
    src = tmp_path / "bad.txt"
    src.write_text("#alphabet=a,b;q=1\nab\nzz\n")
    out_dir = tmp_path / "run"
    code, out = run_cli(capsys, "pipeline", "--in", str(src), "--out-dir", str(out_dir))
    assert code == 2 and out.err.startswith("error: source stage failed")
    assert not (out_dir / "manifest.jsonl").exists()
    code, out = run_cli(capsys, "progress", "--dir", str(out_dir))
    assert (code, out.out, out.err) == (0, "1.000000\n", "")
    code, out = run_cli(capsys, "progress", "--dir", str(tmp_path))
    config = tmp_path / "config.json"
    assert (code, out.err) == (
        2, f"error: progress stage: {config}: No such file or directory\n"
    )


def test_progress_of_a_finished_run_that_lost_its_manifest_fails(tmp_path, capsys):
    # Its config.json is no longer the claim: the manifest it needs is gone.
    out_dir = tmp_path / "run"
    code, _ = run_cli(capsys, "pipeline", "--in", corpus_file(tmp_path),
                      "--out-dir", str(out_dir), "--slices", "2")
    assert code == 0
    manifest = out_dir / "manifest.jsonl"
    manifest.unlink()
    report = str(tmp_path / "r.csv")
    for command, argv in (("progress", ["--dir", str(out_dir)]),
                          ("analyze", [str(out_dir), "--out", report])):
        code, out = run_cli(capsys, command, *argv)
        assert (code, out.out, out.err) == (
            2, "", f"error: {command} stage: {manifest}: No such file or directory\n"
        )


# A run-directory file simcamp did not write, and the command that then
# reads it.  Each fails its stage by name with exit 2, never with a
# traceback, except a result file that is not a result: the rerun
# recomputes it.
FOREIGN_RUN_FILES = {
    "config_not_an_object": ("config.json", "[]\n", "pipeline", "resume"),
    "config_not_json": ("config.json", '{"fingerprint":\n', "pipeline", "resume"),
    "result_not_an_object": ("results/result_0.json", "[1]\n", "pipeline", None),
    "result_not_an_object_analyzed": (
        "results/result_0.json", "[1]\n", "analyze", "analyze"
    ),
    "result_without_summaries": (
        "results/result_0.json", '{"n": 3}\n', "analyze", "analyze"
    ),
    "manifest_line_not_json": ("manifest.jsonl", None, "progress", "progress"),
    # Written with surrogateescape: the byte 0xff, which is not UTF-8.
    "config_not_utf8": ("config.json", "\udcff\n", "progress", "progress"),
    "manifest_not_utf8": ("manifest.jsonl", "\udcff\n", "progress", "progress"),
    "progress_without_counts": (
        "results/progress_0.json", '{"slice": 0}\n', "progress", "progress"
    ),
    # Every key there, with a value of the wrong type or range.
    "config_fingerprint_not_an_object": (
        "config.json", '{"fingerprint": []}\n', "pipeline", "resume"
    ),
    "result_summaries_not_objects": (
        "results/result_0.json",
        '{"requested": 1, "baseline": 1, "unlimited": 1, "n": 3}\n',
        "analyze", "analyze",
    ),
    "progress_count_not_an_int": (
        "results/progress_0.json", '{"j": "x", "n": 3}\n', "progress", "progress"
    ),
    "progress_past_its_size": (
        "results/progress_0.json", '{"j": 7, "n": 3}\n', "progress", "progress"
    ),
    "manifest_size_zero": (
        "manifest.jsonl", '{"slice": 0, "size": 0}\n', "progress", "progress"
    ),
    # Every key there, with a count no run makes.
    "config_without_slices": (
        "config.json",
        '{"n_total": 3, "seed": 0, "sigma": "capacity", "slices": 0}\n',
        "analyze", "analyze",
    ),
    "result_baseline_of_no_quanta": (
        "results/result_0.json",
        json.dumps({"n": 3, **{
            kind: {"length_q": 0 if kind == "baseline" else 4, "peak_stored": 1,
                   "counts": {"out": 3}}
            for kind in ("requested", "baseline", "unlimited")
        }}),
        "analyze", "analyze",
    ),
    # A slice set that is not 0, 1, ... in order.
    "manifest_slice_repeated": (
        "manifest.jsonl", '{"slice": 0, "size": 3}\n' * 2, "progress", "progress"
    ),
    "manifest_slice_stray": (
        "manifest.jsonl", '{"slice": 1, "size": 3}\n', "progress", "progress"
    ),
}


@pytest.mark.parametrize("case", sorted(FOREIGN_RUN_FILES))
def test_a_foreign_run_file_fails_its_stage_by_name(tmp_path, capsys, case):
    name, text, command, stage = FOREIGN_RUN_FILES[case]
    src = tmp_path / "corpus.txt"
    write_trace_file(TraceCorpus(ABCD, 1.0, ts("aa", "ab", "b")), str(src))
    out_dir = str(tmp_path / "run")
    pipeline = ("pipeline", "--in", str(src), "--out-dir", out_dir)
    assert run_cli(capsys, *pipeline)[0] == 0
    path = os.path.join(out_dir, name)
    with open(path) as fh:
        written = fh.read()
    with open(path, "w", errors="surrogateescape") as fh:
        fh.write(written + "garbage\n" if text is None else text)
    argv = {
        "pipeline": pipeline,
        "analyze": ("analyze", out_dir),
        "progress": ("progress", "--dir", out_dir),
    }[command]
    code, out = run_cli(capsys, *argv)
    assert "Traceback" not in out.err
    if stage is None:
        assert code == 0
        with open(path) as fh:
            assert fh.read() == written
    else:
        assert code == 2
        assert out.err.startswith(f"error: {stage} stage: {path}: ")


@pytest.mark.parametrize("command", ["analyze", "progress"])
def test_a_manifest_that_drops_a_slice_fails_by_name(tmp_path, capsys, command):
    # With slice 1 unverified, progress is 1; a manifest cut to slice 0
    # alone would make it 0 and price the report from one slice.
    path = tmp_path / "corpus.txt"
    write_trace_file(TraceCorpus(ABCD, 1.0, ts("aa", "ab", "ba", "bb")), str(path))
    out_dir = tmp_path / "run"
    code, _ = run_cli(
        capsys, "pipeline", "--in", str(path), "--out-dir", str(out_dir),
        "--slices", "2",
    )
    assert code == 0
    os.unlink(out_dir / "results" / "progress_1.json")
    assert run_cli(capsys, "progress", "--dir", str(out_dir))[1].out == "1.000000\n"
    manifest = out_dir / "manifest.jsonl"
    manifest.write_text(manifest.read_text().splitlines(keepends=True)[0])
    argv = {"analyze": ("analyze", str(out_dir)),
            "progress": ("progress", "--dir", str(out_dir))}[command]
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert out.err == (
        f"error: {command} stage: {manifest}: 1 slices, not config.json's 2\n"
    )


# Each reader of a run-directory record: the table of keys it checks, the
# file, and the command and stage that read it.
RECORD_READERS = {
    "claim": (_CLAIM_KEYS, "config.json", "pipeline", "resume"),
    "config": (_CONFIG_KEYS, "config.json", "analyze", "analyze"),
    "config_slices": (_SLICES_KEYS, "config.json", "progress", "progress"),
    "manifest": (_MANIFEST_KEYS, "manifest.jsonl", "progress", "progress"),
    "manifest_analyzed": (_MANIFEST_KEYS, "manifest.jsonl", "analyze", "analyze"),
    "progress": (_PROGRESS_KEYS, "results/progress_0.json", "progress", "progress"),
    "result": (_RESULT_KEYS, "results/result_0.json", "analyze", "analyze"),
}


@pytest.mark.parametrize("wrong", ["removed", "a list"])
@pytest.mark.parametrize(
    "reader, key",
    [(reader, key) for reader, (keys, *_) in RECORD_READERS.items() for key in keys],
)
def test_every_key_a_reader_checks_fails_its_stage_by_name(
    tmp_path, capsys, reader, key, wrong
):
    # A list is of no kind a reader accepts.  The one-slice run's manifest
    # is one line, so every record file here holds one JSON object.
    _keys, name, command, stage = RECORD_READERS[reader]
    src = tmp_path / "corpus.txt"
    write_trace_file(TraceCorpus(ABCD, 1.0, ts("aa", "ab", "b")), str(src))
    out_dir = str(tmp_path / "run")
    pipeline = ("pipeline", "--in", str(src), "--out-dir", out_dir)
    assert run_cli(capsys, *pipeline)[0] == 0
    path = os.path.join(out_dir, name)
    with open(path) as fh:
        record = json.load(fh)
    if wrong == "removed":
        del record[key]
    else:
        record[key] = []
    with open(path, "w") as fh:
        fh.write(json.dumps(record) + "\n")
    argv = {
        "pipeline": pipeline,
        "analyze": ("analyze", out_dir),
        "progress": ("progress", "--dir", out_dir),
    }[command]
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert out.err.startswith(f"error: {stage} stage: {path}: {key} is ")


@pytest.mark.parametrize(
    "grid, named",
    [("", "''"), ("0.5,-1", "0.5"), ("1,-1", "-1"), ("1,inf", "'1,inf'")],
)
def test_f_grid_must_be_nonempty_and_at_least_one(tmp_path, capsys, grid, named):
    for argv in (
        ["pipeline", "--in", corpus_file(tmp_path), "--out-dir", str(tmp_path / "run")],
        ["analyze", str(tmp_path / "run")],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--f-grid", grid])
        assert exit_info.value.code == 2
        assert named in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_a_cost_file_that_names_f_fails_loudly(tmp_path, capsys):
    # Inflation comes only from --f-grid, so an f in a cost file is an
    # error rather than a value the report would ignore.
    text = "load=1 store=1 free=0 out=0 run_per_q=1 f=5"
    with pytest.raises(TraceFormatError, match="unknown cost key 'f'"):
        parse_cost_model(text)
    out_dir = str(tmp_path / "run")
    code, _ = run_cli(
        capsys, "pipeline", "--in", corpus_file(tmp_path), "--out-dir", out_dir
    )
    assert code == 0
    costs = tmp_path / "costs.txt"
    costs.write_text(text + "\n")
    code, out = run_cli(capsys, "analyze", out_dir, "--costs", str(costs))
    assert code == 2
    assert "unknown cost key 'f'" in out.err


def test_a_cost_file_with_free_quanta_fails_before_the_pipeline_runs(
    tmp_path, capsys
):
    # A quantum that costs nothing would make every estimate 0 and the
    # report divide by it, after every slice had run.
    costs = tmp_path / "costs.txt"
    costs.write_text("load=0 store=0 free=0 out=0 run_per_q=0\n")
    out_dir = tmp_path / "run"
    code, out = run_cli(
        capsys, "pipeline", "--in", corpus_file(tmp_path), "--out-dir", str(out_dir),
        "--costs", str(costs),
    )
    assert code == 2
    assert out.err == "error: cost model: cost run_per_q must be > 0, not 0\n"
    assert not out_dir.exists()


def test_slice_command(tmp_path, capsys):
    path = tmp_path / "corpus.txt"
    write_trace_file(
        TraceCorpus(ABCD, 1.0, ts("aa", "ab", "ba", "bb")), str(path)
    )
    out_dir = tmp_path / "cut"
    code, out = run_cli(
        capsys, "slice", "--in", str(path), "--out-dir", str(out_dir),
        "--slices", "2", "--order", "lex",
    )
    assert code == 0
    assert json.loads(out.out)["slices"] == 2
    assert (out_dir / "slices" / "slice_1.txt").exists()


def test_errors_exit_with_code_two(tmp_path, capsys):
    code, out = run_cli(capsys, "oracle", "edges", "--slice", "/nonexistent")
    assert code == 2
    assert "error:" in out.err

    src = corpus_file(tmp_path)
    code, out = run_cli(
        capsys, "optimize", "--slice", src, "--out", str(tmp_path / "c.txt"),
        "--sigma", "0",
    )
    assert code == 2


def test_execute_refuses_an_alphabet_of_more_than_256_tokens(tmp_path, capsys):
    campaign = tmp_path / "c.txt"
    campaign.write_text("#q=1;slice=0\nSTORE 0\nRUN t0 1\nOUT\n")
    tokens = [f"t{i}" for i in range(257)]
    code, out = run_cli(
        capsys, "execute", "--campaign", str(campaign), "--alphabet", ",".join(tokens)
    )
    assert code == 2
    assert out.err == "error: alphabet has 257 tokens; at most 256 are supported\n"
    code, out = run_cli(
        capsys, "execute", "--campaign", str(campaign),
        "--alphabet", ",".join(tokens[:256]),
    )
    assert code == 0 and json.loads(out.out)["outs"] == 1


def test_optimize_names_a_duplicate_trace(tmp_path, capsys):
    # The slice is planned in any order; a trace given twice is named.
    src = tmp_path / "slice.txt"
    write_trace_file(TraceCorpus(ABCD, 1.0, ts("ab", "aa", "ab")), str(src))
    code, out = run_cli(
        capsys, "optimize", "--slice", str(src), "--out", str(tmp_path / "c.txt")
    )
    assert code == 2
    assert out.err == "error: duplicate trace a,b\n"
    assert not (tmp_path / "c.txt").exists()


@pytest.mark.parametrize("campaign", ["malformed", "missing", "fifo"])
def test_a_campaign_that_fails_to_load_stops_its_driver(
    tmp_path, capsys, monkeypatch, campaign
):
    path = tmp_path / "campaign.txt"
    if campaign == "malformed":
        path.write_text("#q=1;slice=0\nSTORE 0\nRUN a 0\n")
    elif campaign == "fifo":
        # Opening a FIFO with no writer would block, and a pipe would be
        # split between the driver and the engine.
        os.mkfifo(path)
    pid_file = tmp_path / "driver.pid"
    script = (
        "import os, sys\n"
        f"with open({str(pid_file) + '.tmp'!r}, 'w') as fh:\n"
        "    fh.write(str(os.getpid()))\n"
        f"os.replace({str(pid_file) + '.tmp'!r}, {str(pid_file)!r})\n"
        "sys.stdin.read()\n"
    )
    read = cli.read_campaign_file

    def read_once_the_driver_runs(*args):
        # The driver starts before the campaign is read.
        for _ in range(1000):
            if pid_file.exists():
                return read(*args)
            time.sleep(0.01)
        pytest.fail("the driver did not start before the campaign was read")

    monkeypatch.setattr(cli, "read_campaign_file", read_once_the_driver_runs)
    code, out = call_with_timeout(
        run_cli, capsys, "execute", "--campaign", str(path), "--alphabet", "a,b",
        "--driver", shlex.join([sys.executable, "-c", script]),
    )
    assert code == 2 and "error:" in out.err
    if campaign == "malformed":
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid_file.read_text()), 0)
    else:
        # The driver reads the file, so a file it cannot read starts none.
        assert not pid_file.exists()
    if campaign == "fifo":
        assert out.err == f"error: campaign file must be a regular file: {path}\n"


def test_a_driver_reads_a_hand_written_campaign_as_written(tmp_path, capsys):
    # A comment, blank lines and tolerant forms reach the driver as they
    # are; the replies agree with the engine's canonical lines.
    path = tmp_path / "campaign.txt"
    path.write_text("#q=0.5;slice=3\n" + "\n".join(ACCEPTED_LINES[:-1]) + "\n")
    argv = ["execute", "--campaign", str(path), "--alphabet", "a,b"]
    in_process = run_cli(capsys, *argv, "--model-seed", "7")
    driven = call_with_timeout(
        run_cli, capsys, *argv,
        "--driver", f"{sys.executable} -m simcamp.echo_driver --seed 7 --alphabet a,b",
    )
    assert driven == in_process
    assert in_process[0] == 0 and json.loads(in_process[1].out)["outs"] == 3


@pytest.mark.parametrize(
    "source, option, value",
    [
        ("spec", "--quantum", "0"),
        ("spec", "--quantum", "nan"),
        ("file", "--quantum", "inf"),
        ("file", "--fraction", "1.5"),
        ("file", "--fraction", "nan"),
        ("spec", "--fraction", "0"),
    ],
)
def test_bad_quantum_or_fraction_exits_before_any_file(
    tmp_path, capsys, source, option, value
):
    if source == "spec":
        src = tmp_path / "spec.txt"
        src.write_text(
            "alphabet=a,b\nhorizon=3\nstates=1\nstart=0\naccept=0\n"
            "0 a -> 0\n0 b -> 0\n"
        )
    else:
        src = corpus_file(tmp_path)
    out_dir = tmp_path / "run"
    code, out = run_cli(
        capsys, "pipeline", "--in", str(src), "--out-dir", str(out_dir), option, value
    )
    assert code == 2
    assert not (out_dir / "config.json").exists()
    named = {"--quantum": "time quantum", "--fraction": "fraction"}[option]
    assert f"{named} must" in out.err


def test_execute_reports_failure_with_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("#q=1;slice=0\nLOAD 5\nOUT\n")
    code, out = run_cli(
        capsys, "execute", "--campaign", str(bad), "--alphabet", "a,b"
    )
    assert code == 1
    result = json.loads(out.out)
    assert result["executable"] is False
    assert result["failing_index"] == 0
