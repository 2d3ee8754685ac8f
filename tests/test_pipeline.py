from __future__ import annotations

import csv
import gc
import hashlib
import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from simcamp.cli import main
from simcamp.generator import GeneratorTable
from simcamp.metrics import (
    PROGRESS_COLUMNS,
    REPORT_COLUMNS,
    CostModel,
    parse_cost_model,
    read_cost_file,
    write_csv,
)
import simcamp.optimizer as optimizer
import simcamp.pipeline as pipeline
from simcamp.optimizer import optimize_slice, read_campaign_file, write_campaign_file
from simcamp.pipeline import (
    PipelineStageError,
    RunConfig,
    _baseline_summary,
    _campaign_summary,
    _run_slice_task,
    analyze_runs,
    overall_omission_bound,
    plan_slice,
    prepare_slices,
    read_progress,
    resolve_sigma,
    run_pipeline,
    slice_seed,
    write_json_atomic,
)
from simcamp.slicing import order_slice, slice_ranges
from simcamp.traces import (
    MAX_SYMBOLS,
    TEMP_PREFIX,
    Alphabet,
    InputTrace,
    TraceCorpus,
    read_trace_file,
)
from simcamp.tree import build_tree
from util import ABCD, ts, write_trace_file

# SHA-256 of every pipeline output on ``corpus_file`` with two slices and
# seed 3.  A change meant to keep outputs must reproduce them byte for byte.
# The report.csv digests were re-recorded when the constant par_eff column
# was dropped, and the sigma 2 slice 1 campaign and result when eviction
# moved from the depth-gap rule to furthest next use (same length, other
# victims); keying checkpoints by their effective next use (the next
# trace that would load them) kept every sigma 2 output, at 21 quanta over
# both slices.  Every campaign and result but the sigma 1 slice 0 campaign
# was re-recorded when the availability sweep began to count a trace as a
# use of its own prefix: ``corpus_file`` holds traces that are prefixes of
# others ("aa" of "aab"), whose checkpoints are now freed after their last
# use, and the sigma 1 campaign no longer stores one on its last trace.
# Lengths stayed equal, and no peak or store count rose.  The report and
# progress digests are unchanged since they were recorded.
GOLDEN_DIGESTS = {
    "capacity": {
        "campaigns/campaign_0.txt":
            "66afca09c0c7dfab6a980673ee67946d5cf6eb6d915beebf2073f297decc773f",
        "campaigns/campaign_1.txt":
            "7b4bcc638ed89aef218df73b28520182a151129d9eb949a78d9568cb13d315c7",
        "results/result_0.json":
            "503773e85b20e5931547cb10185dbd16f850cc9cf8e59f5f8bec05e942a3729c",
        "results/result_1.json":
            "581cd33165422ca4a47c7267c4df37e2916be7f9041e7dde7bf41c04d9302cb7",
        "report.csv":
            "047ea74d71f208700b9d075a6090224bf640af0fc2ca7443b33091f8da9b09ab",
        "progress.csv":
            "473e41b53633cb51a88f08e2a70aab77f0cb8dddfc5f86ed653c9db683c16368",
    },
    "2": {
        "campaigns/campaign_0.txt":
            "8fd8a667a2db79dcf8d2696ce0283091bd79a1870e39c1d34344a8ceabd49caa",
        "campaigns/campaign_1.txt":
            "a35a43b6f94c462c0dc34981ddcdcd3a2697e54ea509e6056f13056448dc1aa9",
        "results/result_0.json":
            "124228d1c5f3f60d209d2470fccc9d8038447289955ee66274ef5d8fc20d2240",
        "results/result_1.json":
            "8ce50859d807182f4066efc907749db895a3df4e7409082502f6642ee9c42ca7",
        "report.csv":
            "5405ef13f2304237ff1a4923d814f65a9ad4f96b9dba0c42c3fd9b03dbb1a158",
        "progress.csv":
            "473e41b53633cb51a88f08e2a70aab77f0cb8dddfc5f86ed653c9db683c16368",
    },
    "1": {
        "campaigns/campaign_0.txt":
            "1e7e028c0dca4022fe8c74784207d502db4044d18a5be85d82145bfec51da46e",
        "campaigns/campaign_1.txt":
            "ca7e95b6789bceb16249ebca500c7e8d9d35f18472a3b8fbd79df95c416045d2",
        "results/result_0.json":
            "e6e30eebdbb7ab1a5561018a68117815c36ce6bfdddd522f816d44dc0996e319",
        "results/result_1.json":
            "79507d0e3891438ba18270af33e3bda923fe9505dbf0eb79cdd3f7febacc20cb",
        "report.csv":
            "672d5b699355e457b67b20b62d3da14fe88ef5b9f433137321c39e39b56af163",
        "progress.csv":
            "473e41b53633cb51a88f08e2a70aab77f0cb8dddfc5f86ed653c9db683c16368",
    },
    "unlimited": {
        "campaigns/campaign_0.txt":
            "66afca09c0c7dfab6a980673ee67946d5cf6eb6d915beebf2073f297decc773f",
        "campaigns/campaign_1.txt":
            "7b4bcc638ed89aef218df73b28520182a151129d9eb949a78d9568cb13d315c7",
        "results/result_0.json":
            "84b8a21c09415945c0988f45356d21b20f771127798c7db2b474ddd05c273d6c",
        "results/result_1.json":
            "19e9250cdbedfc213e4294cd6e3e5b94f73601c1880eb145988f7452339d5085",
        "report.csv":
            "665b42a99529033c62aff85202667236513a25d83230c6afed602abae642b9db",
        "progress.csv":
            "473e41b53633cb51a88f08e2a70aab77f0cb8dddfc5f86ed653c9db683c16368",
    },
}


# SHA-256 of every pipeline output on ``spec_file`` (43 traces) with two
# slices and seed 3, keyed by the sampled fraction.
SPEC_DIGESTS = {
    1.0: {
        "campaigns/campaign_0.txt":
            "c740c1dc360f1ba0306c7a95c91d47f953f0389cf75df281a4f420d1deadc168",
        "campaigns/campaign_1.txt":
            "4e7609bb645080c6a85cb3094a9df858d2da78c10f814c9875b90f09cc7bb9d1",
        "results/result_0.json":
            "41c90d207a797a753a0968f6b28a1e9dd1ed817b50a406b56dff2452c1e8ba3b",
        "results/result_1.json":
            "82369b32bc09fa5ec97eaadd4446759282bf59e5b8545a09729d059c1b16ca4d",
        "slices/slice_0.txt":
            "8ad1895c97107a8bb4ff49dcef150fb790bc7a8e03721e538e632a426721d34e",
        "slices/slice_1.txt":
            "87072a887cceefb62395d50ccff16b3ef7814485c3a7a010664c1c311fb9f7e1",
        "report.csv":
            "cc6d323dd418548e3ce024d0c91f22684593717d268dbcd68bc268ac8885643f",
        "progress.csv":
            "320da10432e14133f43f67fc2d10e559ae3442624787def6d56c54d433dffe6f",
    },
    0.5: {
        "campaigns/campaign_0.txt":
            "9d475c3945108b4ec18bc064f8eafd66d87a8200d8907c8347786847af4c83be",
        "campaigns/campaign_1.txt":
            "d2b605c0e585a1c56ffd4275d5114cccb8ebdee2e104d5597bd9585bbf28e964",
        "results/result_0.json":
            "c2a51a8b2a14a2b9e1665271ad922c33be38b3aa9a984ae03138d2963b724a0c",
        "results/result_1.json":
            "0ebb9724169007e22478d4e099544eb23b7b46a3a70e316e2bd002af4d577b8b",
        "slices/slice_0.txt":
            "33be542b5e0019f830b5addfb11c4c8689dce4b733787d3985fda7da1f23540f",
        "slices/slice_1.txt":
            "0a54577905764f68f6516aa1fde54dea0940acb1e62a8e741da85a8787b79359",
        "report.csv":
            "8ca74f9a468cc6b18824e8a6dc443ac6bc081a75179a4f27444d2ec5c3b76bd7",
        "progress.csv":
            "8a5bb7cdb6071a6d5696d937f0f0a92b05dcf297e7eb2cdf014ee480139b20f6",
    },
}


# SHA-256 of the slice files of the ``corpus_file`` run above (any sigma).
SLICE_DIGESTS = {
    "slices/slice_0.txt":
        "f6a16c8a2a50cde702197600fe6c51d7504f5c64dcca580a835d081a792fee72",
    "slices/slice_1.txt":
        "4cd98d8afdbb67176bd540a81c1356832af31566105c59ac40983177b1659b48",
    "report.csv":
        "047ea74d71f208700b9d075a6090224bf640af0fc2ca7443b33091f8da9b09ab",
    "progress.csv":
        "473e41b53633cb51a88f08e2a70aab77f0cb8dddfc5f86ed653c9db683c16368",
}


# SHA-256 of every output of ``corpus_file`` sampled at fraction 0.5, with
# two slices and seed 3.
SAMPLED_FILE_DIGESTS = {
    "campaigns/campaign_0.txt":
        "f2793b5723e7be319400a75d14ce84ed6ac3340167f41b47bec9639f2804547c",
    "campaigns/campaign_1.txt":
        "d69b0920cf9142aa9213e7f9445dcaa2da7c6af9519d16dfc02c571c32fb590a",
    "results/result_0.json":
        "6d5f8face1ef40a3ae177347aef722089fff45ce0a1a5663acde04ebf5f34b47",
    "results/result_1.json":
        "a538cae2e7bce068fa79f53a0995c116d43dd6928427ea7c2e8e206af7c7bf7d",
    "slices/slice_0.txt":
        "be4c1cf329489472564d1c0f240b688c37de3000a20ebdbed98ad0109b8d338b",
    "slices/slice_1.txt":
        "aa960ea281c84e35cfa4d7923c91c42d2788b5d13141b25f0646d1f10349c68f",
    "report.csv":
        "0c61ed156f924081f7f442d9360f3a78044b84fa7923910e05b437246b2ed57a",
    "progress.csv":
        "9275973dc1ca20811374c5913e7eacab80b58a0ff42187754bdbf3f41ab68354",
}


# SHA-256 of every output of ``tight_file`` (40 traces, horizon 60) with two
# slices and seed 5.  Capacity is 14 per slice; at sigma 4 the campaigns
# evict and split runs at checkpoints, and sigma 1 stores nothing.  The
# sigma 4 campaigns, results and report were re-recorded when eviction moved
# from the depth-gap rule to furthest next use, which makes them longer:
# 1,985 -> 2,095 quanta over both slices, and again when the key became
# the effective next use (the next trace that would load the checkpoint):
# 2,095 -> 1,995 quanta.
TIGHT_DIGESTS = {
    "1": {
        "campaigns/campaign_0.txt":
            "d2ca947e75d6744fb7cacaa124528ea81558b209d1e0ea7ea84b631de7bd4ad9",
        "campaigns/campaign_1.txt":
            "68bfec8e69687fe51814099e0b112e734033dca5771b4bcb51571a3410abfbab",
        "results/result_0.json":
            "00141d6942e7618abbe13d9672e7d4ab94b6086e0f9c747f5dc330894dc6a2f2",
        "results/result_1.json":
            "07ebed498145dfe2c635873d5a3b979c3c1573106aca559d3f2826b90f7634b4",
        "slices/slice_0.txt":
            "992e9062053b0347edaae1390b8672e8806b3123b5a84af94386d44366a0fda1",
        "slices/slice_1.txt":
            "c2a579be346549a6cec539d7e00abd7643f8c272895c43be8abc115fa5cb2744",
        "report.csv":
            "fd36a230445909f62c9daea75415993785dd17b9f0a69de5c49a06d46bed14f0",
        "progress.csv":
            "808db6f896a864ba4b0d12d54fa284c87f1da9c3213c65e00a16ef7294ace5f5",
    },
    "4": {
        "campaigns/campaign_0.txt":
            "3b419331d63403bb1ed36734a27765a457aeda3a0557bbe348a3c05532e82098",
        "campaigns/campaign_1.txt":
            "431e98d59ac766bdcead535c9fd45322fb17cfa1a6d4f7eb4569c20f0ef34c36",
        "results/result_0.json":
            "f19f6c29c2f76c7f9ffda6cb1a21c30162b832ea50ee612e7f8c2b2e530c0ea0",
        "results/result_1.json":
            "167c727b1f829168b5eeaa91b3e0b5709f45fc5352e73f41d47003f3e074de27",
        "slices/slice_0.txt":
            "992e9062053b0347edaae1390b8672e8806b3123b5a84af94386d44366a0fda1",
        "slices/slice_1.txt":
            "c2a579be346549a6cec539d7e00abd7643f8c272895c43be8abc115fa5cb2744",
        "report.csv":
            "c1c2ee131938b032d1ba897238e94622b6f6f2144a781e3060124c7af3156111",
        "progress.csv":
            "808db6f896a864ba4b0d12d54fa284c87f1da9c3213c65e00a16ef7294ace5f5",
    },
}


# SHA-256 of report.csv and progress.csv for two ``corpus_file`` runs
# (seeds 1 and 2, two slices) analyzed together with every cost nonzero and
# the f-grid 1, 10, 100: the digests above all use zero checkpoint costs at
# f=1, where est_seconds is length_q, so only these cover the inflation
# arithmetic and the seed="mean" rows.
REPORT_COSTS = "load=0.25 store=0.5 free=0.125 out=0.0625 run_per_q=2"
REPORT_DIGESTS = {
    "report.csv":
        "b3be737c8b13f1110eeca59480b33fdb63263690c64ccf12924efb30e453c8fa",
    "progress.csv":
        "20204dd44b26b8fc7289a7ab5d1f19b1cdcb282486019c9ef9c5c4fa235921bc",
}


def corpus_file(tmp_path, name="corpus.txt"):
    path = tmp_path / name
    texts = ["aab", "aac", "ab", "b", "ba", "bb", "aa", "c", "cd", "dd",
             "aabc", "abab"]
    write_trace_file(TraceCorpus(ABCD, 0.5, ts(*texts)), str(path))
    return str(path)


def spec_file(tmp_path):
    """Words of length 6 over a,b,c with no two consecutive non-a symbols
    and an even number of c: 43 traces."""
    path = tmp_path / "spec.txt"
    path.write_text(
        "alphabet=a,b,c\nhorizon=6\n"
        "states=3\nstart=0\naccept=0,1\n"
        "0 a -> 0\n0 b -> 1\n0 c -> 1\n1 a -> 0\n1 b -> 2\n1 c -> 2\n"
        "2 a -> 2\n2 b -> 2\n2 c -> 2\n"
        "states=2\nstart=0\naccept=0\n"
        "0 a -> 0\n0 b -> 0\n0 c -> 1\n1 a -> 1\n1 b -> 1\n1 c -> 0\n"
    )
    return str(path)


def test_parse_sigma():
    assert resolve_sigma("capacity", 5) == 5
    assert resolve_sigma("unlimited", 5) is None
    assert resolve_sigma("7", 5) == 7
    with pytest.raises(ValueError):
        resolve_sigma("0", 5)
    with pytest.raises(ValueError):
        resolve_sigma("lots", 5)


def test_slice_seed_is_stable_and_spread():
    assert slice_seed(1, 0) == slice_seed(1, 0)
    seeds = {slice_seed(1, i) for i in range(32)}
    assert len(seeds) == 32
    assert slice_seed(1, 0) != slice_seed(2, 0)


def test_write_json_atomic(tmp_path):
    path = tmp_path / "x.json"
    write_json_atomic({"b": 1, "a": 2}, str(path))
    with open(path) as fh:
        assert json.load(fh) == {"a": 2, "b": 1}
    assert list(tmp_path.iterdir()) == [path]  # no temp litter


def test_prepare_slices_writes_inputs(tmp_path):
    src = corpus_file(tmp_path)
    out = tmp_path / "run"
    config = RunConfig(source=src, out_dir=str(out), slices=3, seed=9)
    tasks = prepare_slices(config)
    assert [t.slice_id for t in tasks] == [0, 1, 2]
    assert (out / "slices" / "slice_2.txt").exists()
    assert (out / "config.json").exists()
    manifest = [
        json.loads(line)
        for line in (out / "manifest.jsonl").read_text().splitlines()
    ]
    assert [m["slice"] for m in manifest] == [0, 1, 2]
    assert sum(m["size"] for m in manifest) == 12
    assert manifest[0]["seed"] == slice_seed(9, 0)
    # campaigns/results not produced by the prepare stage
    assert not any((out / "results").iterdir())


def test_pipeline_end_to_end(tmp_path):
    src = corpus_file(tmp_path)
    out = tmp_path / "run"
    config = RunConfig(source=src, out_dir=str(out), slices=2, seed=3)
    summary = run_pipeline(config)
    assert summary["traces"] == 12
    assert summary["slices"] == 2

    # every stage left its artifact behind
    for i in range(2):
        campaign = read_campaign_file(str(out / "campaigns" / f"campaign_{i}.txt"), ABCD)
        assert campaign.slice_id == i
        with open(out / "results" / f"result_{i}.json") as fh:
            result = json.load(fh)
        assert result["execution"]["executable"] is True
        assert result["execution"]["outs"] == result["n"]
        assert result["requested"]["length_q"] <= result["baseline"]["length_q"]
        assert result["requested"]["length_q"] == result["unlimited"]["length_q"]

    header = (out / "report.csv").read_text().splitlines()[0]
    assert header.split(",") == REPORT_COLUMNS
    assert overall_omission_bound(str(out)) == 0.0
    assert read_progress(str(out)) == [(0, 6, 6), (1, 6, 6)]


def test_pipeline_resumes_missing_slices_only(tmp_path):
    src = corpus_file(tmp_path)
    out = tmp_path / "run"
    config = RunConfig(source=src, out_dir=str(out), slices=3, seed=1)
    run_pipeline(config)

    campaign_bytes = (out / "campaigns" / "campaign_1.txt").read_bytes()
    untouched = out / "results" / "result_0.json"
    stamp = os.stat(untouched).st_mtime_ns
    os.unlink(out / "results" / "result_1.json")

    run_pipeline(config)
    assert os.stat(untouched).st_mtime_ns == stamp  # slice 0 not recomputed
    assert (out / "results" / "result_1.json").exists()
    # identical inputs and seeds reproduce the identical campaign
    assert (out / "campaigns" / "campaign_1.txt").read_bytes() == campaign_bytes


def test_pipeline_with_worker_pool_matches_inline(tmp_path):
    src = corpus_file(tmp_path)
    serial = tmp_path / "serial"
    pooled = tmp_path / "pooled"
    run_pipeline(RunConfig(source=src, out_dir=str(serial), slices=3, seed=4))
    run_pipeline(
        RunConfig(source=src, out_dir=str(pooled), slices=3, seed=4, workers=3)
    )
    for i in range(3):
        a = (serial / "campaigns" / f"campaign_{i}.txt").read_bytes()
        b = (pooled / "campaigns" / f"campaign_{i}.txt").read_bytes()
        assert a == b
    assert (serial / "report.csv").read_text() == (pooled / "report.csv").read_text()


def test_pipeline_from_constraint_spec(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text(
        "alphabet=0,1\nhorizon=3\n"
        "states=3\nstart=0\naccept=0,1\n"
        "0 0 -> 0\n0 1 -> 1\n1 0 -> 0\n1 1 -> 2\n2 0 -> 2\n2 1 -> 2\n"
    )
    out = tmp_path / "run"
    config = RunConfig(source=str(spec), out_dir=str(out), slices=1, quantum=0.25)
    summary = run_pipeline(config)
    assert summary["traces"] == 5  # length-3 words with no consecutive 1s
    with open(out / "results" / "result_0.json") as fh:
        result = json.load(fh)
    assert result["execution"]["executable"] is True


def test_pipeline_sigma_one_matches_baseline(tmp_path):
    src = corpus_file(tmp_path)
    out = tmp_path / "run"
    run_pipeline(RunConfig(source=src, out_dir=str(out), slices=1, sigma="1"))
    with open(out / "results" / "result_0.json") as fh:
        result = json.load(fh)
    assert result["requested"] == result["baseline"]
    assert result["execution"]["peak_memory"] == 1


def test_analyze_many_runs_appends_mean_rows(tmp_path):
    src = corpus_file(tmp_path)
    dirs = []
    for seed in (1, 2):
        out = tmp_path / f"run{seed}"
        run_pipeline(RunConfig(source=src, out_dir=str(out), slices=2, seed=seed))
        dirs.append(str(out))
    rows, progress = analyze_runs(dirs, CostModel(0.1, 0.1), (1.0, 10.0))
    means = [r for r in rows if r["seed"] == "mean"]
    # 3 sigma labels x 2 inflation factors
    assert len(means) == 6
    assert len(rows) == 2 * 6 + 6
    assert len(progress) == 4
    for row in means:
        assert row["N"] == 12 and row["D"] == 2
    with pytest.raises(ValueError, match="inflation factor f must be >= 1"):
        analyze_runs(dirs, CostModel(0.1, 0.1), (0.5,))


@pytest.mark.parametrize("sigma", ["capacity", "4"])
def test_report_speedup_decays_with_checkpoint_cost(tmp_path, sigma):
    # Acceptance criterion 7, on the speedups report.csv computes itself.
    costs = tmp_path / "costs.txt"
    costs.write_text("load=0.5 store=0.5 free=0 out=0 run_per_q=1\n")
    out = tmp_path / "run"
    config = RunConfig(
        source=tight_file(tmp_path), out_dir=str(out), slices=2, sigma=sigma
    )
    run_pipeline(config, read_cost_file(str(costs)), (1.0, 10.0, 100.0))
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    curves: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        point = (float(row["f"]), float(row["speedup"]))
        curves.setdefault(row["sigma"], []).append(point)
    assert sorted(curves) == sorted({sigma, "1", "unlimited"})
    for label, curve in curves.items():
        speedups = [s for _f, s in sorted(curve)]
        assert len(speedups) == 3
        assert speedups == sorted(speedups, reverse=True), label
    assert curves["unlimited"][0][1] > curves["unlimited"][-1][1]


@pytest.mark.parametrize("workers, finished", [(1, [0]), (3, [0, 2])])
def test_a_failed_slice_is_named_and_the_pool_finishes_the_rest(
    tmp_path, workers, finished
):
    out = tmp_path / "run"
    config = RunConfig(
        source=corpus_file(tmp_path), out_dir=str(out), slices=3, workers=workers
    )
    prepare_slices(config)
    bad = out / "slices" / "slice_1.txt"
    bad.write_text(bad.read_text() + "z\n")
    with pytest.raises(PipelineStageError, match="slice stage failed for slice 1"):
        run_pipeline(config)
    results = sorted((out / "results").glob("result_*.json"))
    assert [int(p.stem.split("_")[1]) for p in results] == finished


def test_analyze_and_progress_read_the_slice_set_once(tmp_path, monkeypatch):
    # config.json and the manifest are read together, once per run, so the
    # report and progress.csv price the same slices.
    src = corpus_file(tmp_path)
    dirs = []
    for seed in (1, 2):
        out = tmp_path / f"run{seed}"
        run_pipeline(RunConfig(source=src, out_dir=str(out), slices=2, seed=seed))
        dirs.append(str(out))
    opened = []

    def recording_open(path, *args, **kwargs):
        opened.append(os.path.relpath(path, tmp_path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(pipeline, "open", recording_open, raising=False)
    analyze_runs(dirs)
    for run in ("run1", "run2"):
        for name in ("config.json", "manifest.jsonl"):
            assert opened.count(os.path.join(run, name)) == 1
    opened.clear()
    read_progress(dirs[0])
    assert opened[:2] == [os.path.join("run1", "config.json"),
                          os.path.join("run1", "manifest.jsonl")]


def test_analyze_requires_all_results(tmp_path):
    src = corpus_file(tmp_path)
    out = tmp_path / "run"
    run_pipeline(RunConfig(source=src, out_dir=str(out), slices=2))
    os.unlink(out / "results" / "result_1.json")
    with pytest.raises(PipelineStageError, match="missing result for slice 1"):
        analyze_runs([str(out)])


def test_too_many_slices_is_a_stage_error(tmp_path):
    src = corpus_file(tmp_path)
    with pytest.raises(PipelineStageError):
        prepare_slices(RunConfig(source=src, out_dir=str(tmp_path / "x"), slices=40))


@pytest.mark.parametrize("lead", ["# no two b in a row\n", "\n"])
def test_a_spec_may_open_with_a_comment_or_a_blank_line(tmp_path, lead):
    # The spec reader skips blank and comment lines, so the pipeline must
    # not take such a spec for a trace file.
    bare = spec_file(tmp_path)
    led = tmp_path / "led.txt"
    with open(bare, encoding="utf-8") as fh:
        led.write_text(lead + fh.read())
    digests = []
    for name, source in (("bare", bare), ("led", str(led))):
        out = tmp_path / name
        run_pipeline(RunConfig(source=source, out_dir=str(out), slices=2, seed=3))
        digests.append(output_digests(out, ("slices", "campaigns", "results")))
    assert digests[1] == digests[0]


def output_digests(run_dir, subdirs=("campaigns", "results")):
    names = sorted(
        f"{sub}/{name}"
        for sub in subdirs
        for name in os.listdir(os.path.join(run_dir, sub))
        if name.startswith(("campaign_", "result_", "slice_"))
    ) + ["report.csv", "progress.csv"]
    return {
        name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        for name in names
    }


@pytest.mark.parametrize("sigma", sorted(GOLDEN_DIGESTS))
def test_outputs_are_byte_identical_to_recorded_digests(tmp_path, sigma):
    src = corpus_file(tmp_path)
    out = tmp_path / "run"
    run_pipeline(RunConfig(source=src, out_dir=str(out), slices=2, seed=3, sigma=sigma))
    assert output_digests(out) == GOLDEN_DIGESTS[sigma]


@pytest.mark.parametrize("fraction", sorted(SPEC_DIGESTS))
def test_spec_outputs_are_byte_identical_to_recorded_digests(tmp_path, fraction):
    out = tmp_path / "run"
    run_pipeline(
        RunConfig(source=spec_file(tmp_path), out_dir=str(out), slices=2, seed=3,
                  fraction=fraction)
    )
    assert output_digests(out, ("slices", "campaigns", "results")) == (
        SPEC_DIGESTS[fraction]
    )


def test_costed_report_is_byte_identical_to_recorded_digests(tmp_path):
    src = corpus_file(tmp_path)
    dirs = []
    for seed in (1, 2):
        out = tmp_path / f"run{seed}"
        run_pipeline(RunConfig(source=src, out_dir=str(out), slices=2, seed=seed))
        dirs.append(str(out))
    cost = parse_cost_model(REPORT_COSTS)
    report_rows, progress_rows = analyze_runs(dirs, cost, (1.0, 10.0, 100.0))
    write_csv(report_rows, str(tmp_path / "report.csv"), REPORT_COLUMNS)
    write_csv(progress_rows, str(tmp_path / "progress.csv"), PROGRESS_COLUMNS)
    assert {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in REPORT_DIGESTS
    } == REPORT_DIGESTS


def tight_file(tmp_path, count=40, horizon=60, grid=12):
    """Distinct piecewise-constant traces over a,b,c,d with 1-4 switches on
    a 12-point time grid, written unsorted: a small ``sorted_tight``."""
    rng = random.Random(11)
    step = horizon // grid
    seen = set()
    texts = []
    while len(texts) < count:
        cuts = sorted(rng.sample(range(1, grid), rng.randint(1, 4))) + [grid]
        text, at, sym = "", 0, rng.randrange(4)
        for cut in cuts:
            text += "abcd"[sym] * ((cut - at) * step)
            at, sym = cut, (sym + rng.randrange(1, 4)) % 4
        if text not in seen:
            seen.add(text)
            texts.append(text)
    path = tmp_path / "tight.txt"
    write_trace_file(TraceCorpus(ABCD, 1.0, ts(*texts)), str(path))
    return str(path)


def test_slices_are_byte_identical_to_recorded_digests(tmp_path):
    out = tmp_path / "run"
    run_pipeline(
        RunConfig(source=corpus_file(tmp_path), out_dir=str(out), slices=2, seed=3)
    )
    assert output_digests(out, ("slices",)) == SLICE_DIGESTS


def test_sampled_file_outputs_are_byte_identical_to_recorded_digests(tmp_path):
    out = tmp_path / "run"
    run_pipeline(
        RunConfig(source=corpus_file(tmp_path), out_dir=str(out), slices=2, seed=3,
                  fraction=0.5)
    )
    assert output_digests(out, ("slices", "campaigns", "results")) == (
        SAMPLED_FILE_DIGESTS
    )


@pytest.mark.parametrize("sigma", sorted(TIGHT_DIGESTS))
def test_tight_outputs_are_byte_identical_to_recorded_digests(tmp_path, sigma):
    out = tmp_path / "run"
    run_pipeline(
        RunConfig(source=tight_file(tmp_path), out_dir=str(out), slices=2, seed=5,
                  sigma=sigma)
    )
    assert output_digests(out, ("slices", "campaigns", "results")) == (
        TIGHT_DIGESTS[sigma]
    )


def test_progress_counts_slices_without_a_progress_file(tmp_path):
    src = corpus_file(tmp_path)
    out = tmp_path / "run"
    tasks = prepare_slices(RunConfig(source=src, out_dir=str(out), slices=4))
    _run_slice_task(tasks[0])
    assert read_progress(str(out)) == [(0, 3, 3), (1, 0, 3), (2, 0, 3), (3, 0, 3)]
    assert overall_omission_bound(str(out)) == 1.0


def test_progress_of_another_size_counts_as_nothing_done(tmp_path):
    src = corpus_file(tmp_path)
    out = tmp_path / "run"
    run_pipeline(RunConfig(source=src, out_dir=str(out), slices=2))
    write_json_atomic(
        {"slice": 1, "j": 99, "n": 99}, str(out / "results" / "progress_1.json")
    )
    assert read_progress(str(out)) == [(0, 6, 6), (1, 0, 6)]


@pytest.mark.parametrize(
    "ticks_per_interval, writes",
    [
        (None, [0, 40]),  # the clock never advances
        (4, list(range(0, 41, 4)) + [40]),
        (1, list(range(41)) + [40]),
    ],
)
def test_progress_is_written_at_start_end_and_once_per_interval(
    tmp_path, monkeypatch, ticks_per_interval, writes
):
    # A fake clock advances one tick per reading; the slice task reads it
    # once at its first progress write and once per executed out.
    step = pipeline.PROGRESS_INTERVAL_S / (ticks_per_interval or float("inf"))
    ticks = iter(range(10**6))
    monkeypatch.setattr(pipeline, "monotonic", lambda: next(ticks) * step)
    executed = 0
    seen = []
    execute, write = pipeline.execute, pipeline.write_json_atomic

    def counting_execute(campaign, model, progress):
        def count(obs):
            nonlocal executed
            executed += 1
            progress(obs)

        return execute(campaign, model, progress=count)

    def recording_write(payload, path):
        if os.path.basename(path).startswith("progress_"):
            assert payload["j"] <= executed
            seen.append(payload["j"])
        write(payload, path)

    monkeypatch.setattr(pipeline, "execute", counting_execute)
    monkeypatch.setattr(pipeline, "write_json_atomic", recording_write)
    out = tmp_path / "run"
    run_pipeline(RunConfig(source=tight_file(tmp_path), out_dir=str(out), seed=5))
    assert seen == writes
    assert read_progress(str(out)) == [(0, 40, 40)]


def crash_slice_writes_at_line(monkeypatch, nth):
    """Make the slice writer fail with ``disk full`` as it reaches the
    ``nth`` trace line it writes, after it has taken the lines before it."""
    write_trace_file = pipeline.write_trace_file
    written = []

    def crashing(path, alphabet, quantum, lines):
        def until_crash():
            for line in lines:
                written.append(line)
                if len(written) == nth:
                    raise OSError("disk full")
                yield line

        write_trace_file(path, alphabet, quantum, until_crash())

    monkeypatch.setattr(pipeline, "write_trace_file", crashing)


def test_a_crash_mid_slice_write_leaves_no_slice_file(tmp_path, monkeypatch):
    src = corpus_file(tmp_path)
    out = tmp_path / "run"
    config = RunConfig(source=src, out_dir=str(out), slices=2, seed=3)
    crash_slice_writes_at_line(monkeypatch, 3)
    with pytest.raises(OSError, match="disk full"):
        prepare_slices(config)
    monkeypatch.undo()
    assert os.listdir(out / "slices") == []

    run_pipeline(config)
    assert output_digests(out) == GOLDEN_DIGESTS["capacity"]


def test_a_crash_mid_campaign_write_leaves_no_campaign_file(tmp_path, monkeypatch):
    src = corpus_file(tmp_path)
    out = tmp_path / "run"
    config = RunConfig(source=src, out_dir=str(out), slices=2, seed=3)
    chunks = optimizer.campaign_chunks

    def crash_after_the_header(campaign):
        yield next(chunks(campaign))
        raise OSError("disk full")

    monkeypatch.setattr(optimizer, "campaign_chunks", crash_after_the_header)
    with pytest.raises(PipelineStageError, match="slice 0: disk full"):
        run_pipeline(config)
    monkeypatch.undo()
    assert os.listdir(out / "campaigns") == []

    run_pipeline(config)
    assert output_digests(out) == GOLDEN_DIGESTS["capacity"]


def test_a_result_of_another_size_is_recomputed(tmp_path):
    src = corpus_file(tmp_path)
    out = tmp_path / "run"
    config = RunConfig(source=src, out_dir=str(out), slices=2, seed=3)
    run_pipeline(config)
    path = out / "results" / "result_1.json"
    with open(path) as fh:
        result = json.load(fh)
    write_json_atomic({**result, "n": 99}, str(path))

    run_pipeline(config)
    assert output_digests(out) == GOLDEN_DIGESTS["capacity"]


@pytest.mark.parametrize(
    "change,message",
    [
        ({"sigma": "3"}, "sigma='capacity', not '3'"),
        ({"slices": 3}, "slices=2, not 3"),
        ({"seed": 4}, "seed=3, not 4"),
        ({"fraction": 0.5}, "fraction=1.0, not 0.5"),
    ],
    ids=["sigma", "slices", "seed", "fraction"],
)
def test_a_rerun_with_another_config_is_refused(tmp_path, change, message):
    src = corpus_file(tmp_path)
    out = tmp_path / "run"
    config = dict(source=src, out_dir=str(out), slices=2, seed=3)
    run_pipeline(RunConfig(**config))
    with pytest.raises(PipelineStageError, match=re.escape(message)):
        run_pipeline(RunConfig(**{**config, **change}))
    assert output_digests(out) == GOLDEN_DIGESTS["capacity"]


def test_a_rerun_on_another_source_is_refused(tmp_path):
    src = corpus_file(tmp_path)
    out = tmp_path / "run"
    run_pipeline(RunConfig(source=src, out_dir=str(out), slices=2, seed=3))
    with open(src, "a", encoding="utf-8") as fh:
        fh.write("d,d,d\n")
    with pytest.raises(PipelineStageError, match="source_sha256="):
        run_pipeline(RunConfig(source=src, out_dir=str(out), slices=2, seed=3))


def test_a_source_quantum_reaches_config_json_and_every_file(tmp_path):
    quantum = 0.123456789
    src = tmp_path / "corpus.txt"
    write_trace_file(TraceCorpus(ABCD, quantum, ts("ab", "b", "ca")), str(src))
    out = tmp_path / "run"
    run_pipeline(RunConfig(source=str(src), out_dir=str(out), slices=2))
    with open(out / "config.json") as fh:
        config = json.load(fh)
    assert config["quantum"] == quantum
    # The fingerprint keeps RunConfig's spec default, so resumes match as before.
    assert config["fingerprint"]["quantum"] == 1.0
    assert read_trace_file(str(out / "sorted.txt")).quantum == quantum
    for i in range(2):
        slice_file = str(out / "slices" / f"slice_{i}.txt")
        assert read_trace_file(slice_file).quantum == quantum
        campaign_file = str(out / "campaigns" / f"campaign_{i}.txt")
        assert read_campaign_file(campaign_file, ABCD).quantum == quantum


def test_a_rerun_from_a_moved_source_with_more_workers_resumes(tmp_path):
    out = tmp_path / "run"
    run_pipeline(
        RunConfig(source=corpus_file(tmp_path), out_dir=str(out), slices=2, seed=3)
    )
    os.unlink(out / "results" / "result_1.json")
    moved = corpus_file(tmp_path, "moved.txt")
    run_pipeline(RunConfig(source=moved, out_dir=str(out), slices=2, seed=3, workers=2))
    assert output_digests(out) == GOLDEN_DIGESTS["capacity"]


def test_a_crash_before_the_slices_are_written_still_claims_the_directory(
    tmp_path, monkeypatch
):
    src = corpus_file(tmp_path)
    out = tmp_path / "run"
    crash_slice_writes_at_line(monkeypatch, 1)
    with pytest.raises(OSError, match="disk full"):
        prepare_slices(RunConfig(source=src, out_dir=str(out), slices=3, seed=3))
    monkeypatch.undo()
    with pytest.raises(PipelineStageError, match=re.escape("slices=3, not 2")):
        run_pipeline(RunConfig(source=src, out_dir=str(out), slices=2, seed=3))


def spy_extract(monkeypatch):
    """Record the number of indices each ``GeneratorTable.extract`` call gets."""
    extracted = []
    extract = GeneratorTable.extract

    def spy(self, indices):
        indices = list(indices)
        extracted.append(len(indices))
        return extract(self, indices)

    monkeypatch.setattr(GeneratorTable, "extract", spy)
    return extracted


def test_spec_slices_are_extracted_by_their_own_tasks(tmp_path, monkeypatch):
    extracted = spy_extract(monkeypatch)
    out = tmp_path / "run"
    config = RunConfig(source=spec_file(tmp_path), out_dir=str(out), slices=2, seed=3)
    tasks = prepare_slices(config)
    assert extracted == []
    sizes = [
        json.loads(line)["size"]
        for line in (out / "manifest.jsonl").read_text().splitlines()
    ]
    for task in tasks:
        _run_slice_task(task)
    assert extracted == sizes == [22, 21]


def test_full_spec_slices_carry_their_indices_as_ranges(tmp_path):
    # A range pickles to a few bytes however many scenarios it names.
    config = RunConfig(source=spec_file(tmp_path), out_dir=str(tmp_path), slices=2)
    indices = [task.spec_slice.indices for task in prepare_slices(config)]
    assert indices == [range(0, 22), range(22, 43)]
    assert all(isinstance(x, range) for x in indices)


@pytest.mark.parametrize("fraction", sorted(SPEC_DIGESTS))
def test_a_crash_between_the_manifest_and_the_spec_slices_resumes(
    tmp_path, fraction
):
    # Two workers: each task's parsed spec travels to a pool process.
    out = tmp_path / "run"
    config = RunConfig(source=spec_file(tmp_path), out_dir=str(out), slices=2,
                       seed=3, fraction=fraction, workers=2)
    prepare_slices(config)
    assert (out / "manifest.jsonl").exists()
    assert os.listdir(out / "slices") == []

    run_pipeline(config)
    assert output_digests(out, ("slices", "campaigns", "results")) == (
        SPEC_DIGESTS[fraction]
    )


def test_a_crash_mid_spec_slice_write_leaves_no_slice_file(tmp_path, monkeypatch):
    out = tmp_path / "run"
    config = RunConfig(source=spec_file(tmp_path), out_dir=str(out), slices=2, seed=3)
    crash_slice_writes_at_line(monkeypatch, 3)
    with pytest.raises(PipelineStageError, match="slice 0: disk full"):
        run_pipeline(config)
    monkeypatch.undo()
    assert os.listdir(out / "slices") == []

    run_pipeline(config)
    assert output_digests(out, ("slices", "campaigns", "results")) == (
        SPEC_DIGESTS[1.0]
    )


def test_a_rerun_reads_existing_spec_slices_without_extracting(
    tmp_path, monkeypatch
):
    out = tmp_path / "run"
    config = RunConfig(source=spec_file(tmp_path), out_dir=str(out), slices=2, seed=3)
    run_pipeline(config)
    for sub in ("campaigns", "results"):
        for path in (out / sub).iterdir():
            path.unlink()

    extracted = spy_extract(monkeypatch)
    run_pipeline(config)
    assert extracted == []
    assert output_digests(out, ("slices", "campaigns", "results")) == (
        SPEC_DIGESTS[1.0]
    )


@pytest.mark.parametrize("fraction", sorted(SPEC_DIGESTS))
def test_slice_command_writes_every_spec_slice(tmp_path, capsys, fraction):
    out = tmp_path / "cut"
    code = main(["slice", "--in", spec_file(tmp_path), "--out-dir", str(out),
                 "--slices", "2", "--seed", "3", "--fraction", str(fraction)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["slices"] == 2
    expected = {
        name: digest
        for name, digest in SPEC_DIGESTS[fraction].items()
        if name.startswith("slices/")
    }
    assert {
        f"slices/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (out / "slices").iterdir()
    } == expected


@st.composite
def baseline_slices(draw):
    """Distinct traces over a,b,c, sorted, some of them prefixes of others.
    Half the time every trace starts with "a", so the root is not shared."""
    lead = (0,) if draw(st.booleans()) else ()
    bodies = draw(
        st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=8),
                 min_size=1, max_size=12)
    )
    symbols = set()
    for body in bodies:
        trace = lead + tuple(body)
        symbols.add(trace)
        if len(trace) > 1 and draw(st.booleans()):
            symbols.add(trace[:draw(st.integers(1, len(trace) - 1))])
    return sorted(symbols)


@settings(max_examples=300, deadline=None)
@given(baseline_slices(), st.integers(0, 1 << 20))
@example(symbol_lists=[(0, 0, 1)], order_seed=0)
@example(symbol_lists=[(0, 0, 1), (0, 1), (0, 1, 1)], order_seed=1)
@example(symbol_lists=[(0,), (0, 1), (0, 1, 2), (1,)], order_seed=2)
def test_counted_baseline_equals_the_planned_sigma_1_campaign(
    symbol_lists, order_seed
):
    traces = [InputTrace(ABCD, s) for s in symbol_lists]
    tree = build_tree(order_slice(traces, "random", seed=order_seed))
    planned = optimizer.optimize_slice(tree, 1, 0.5)
    assert _baseline_summary(tree) == _campaign_summary(planned)


@pytest.mark.parametrize(
    "sigma, budgets",
    [("capacity", [None]), ("unlimited", [None]), ("1", [None, 1]),
     ("2", [None, 2])],
)
def test_a_slice_task_plans_only_the_campaigns_it_writes(
    tmp_path, monkeypatch, sigma, budgets
):
    # The unlimited campaign is always planned for the result's
    # ``unlimited`` entry; a second call plans a budget below its peak.
    # The sigma=1 baseline is counted, not planned.
    calls = []
    plan = pipeline.optimize_slice

    def spy(tree, capacity, *args):
        calls.append(capacity)
        return plan(tree, capacity, *args)

    monkeypatch.setattr(pipeline, "optimize_slice", spy)
    out = tmp_path / "run"
    run_pipeline(RunConfig(source=corpus_file(tmp_path), out_dir=str(out),
                           slices=2, seed=3, sigma=sigma))
    assert calls == budgets * 2


def test_a_slice_task_holds_one_campaign_at_a_time(tmp_path, monkeypatch):
    # At sigma=1 the requested campaign is planned after the unlimited one,
    # whose summary alone the result keeps.
    live = []
    plan = pipeline.optimize_slice

    def spy(tree, capacity, *args):
        gc.collect()
        live.append(sum(isinstance(o, optimizer.Campaign) for o in gc.get_objects()))
        return plan(tree, capacity, *args)

    monkeypatch.setattr(pipeline, "optimize_slice", spy)
    run_pipeline(RunConfig(source=corpus_file(tmp_path), out_dir=str(tmp_path / "run"),
                           seed=3, sigma="1"))
    assert len(live) == 2
    assert live[1] == live[0]


@pytest.mark.parametrize("source", ["file", "spec"])
def test_every_written_record_holds_the_keys_its_readers_check(
    tmp_path, monkeypatch, source
):
    # A directory is claimed before its source is read, and a crash there
    # leaves the claim's config.json for the next run's claim to read.
    src = corpus_file(tmp_path) if source == "file" else spec_file(tmp_path)
    out = tmp_path / "run"
    config = RunConfig(source=src, out_dir=str(out), slices=2, seed=3)
    monkeypatch.setattr(pipeline, "_materialize_source", lambda config: 1 / 0)
    with pytest.raises(PipelineStageError, match="source stage failed"):
        prepare_slices(config)
    monkeypatch.undo()
    pipeline._read_json_object(str(out / "config.json"), "test", pipeline._CLAIM_KEYS)

    run_pipeline(config)
    manifest = out / "manifest.jsonl"
    records = [(out / "config.json", pipeline._CONFIG_KEYS, None)]
    records += [(manifest, pipeline._MANIFEST_KEYS, line)
                for line in manifest.read_text().splitlines()]
    for i in range(2):
        records += [
            (out / "results" / f"progress_{i}.json", pipeline._PROGRESS_KEYS, None),
            (out / "results" / f"result_{i}.json", pipeline._RESULT_KEYS, None),
        ]
    assert len(records) == 7
    for path, keys, text in records:
        pipeline._read_json_object(str(path), "test", keys, text)


def test_an_out_that_replays_another_trace_fails_its_slice(tmp_path, monkeypatch):
    # One LOAD swapped for another stored id still executes, with every
    # OUT present, but the trace after it replays another history.
    plan = pipeline.optimize_slice

    def swap_one_load(*args):
        campaign = plan(*args)
        stored = set()
        for i, line in enumerate(campaign.lines):
            op, _, arg = line.partition(" ")
            others = stored - {arg}
            if op == "LOAD" and others:
                campaign.lines[i] = f"LOAD {min(others)}"
                return campaign
            if op == "STORE":
                stored.add(arg)
            elif op == "FREE":
                stored.discard(arg)
        raise AssertionError("no LOAD with another stored id")

    monkeypatch.setattr(pipeline, "optimize_slice", swap_one_load)
    source = tmp_path / "binary.txt"
    words = ["".join(w) for w in itertools.product("ab", repeat=4)]
    write_trace_file(TraceCorpus(ABCD, 1.0, ts(*words)), str(source))
    out = tmp_path / "run"
    with pytest.raises(
        PipelineStageError, match=r"slice 0: OUT \d+ does not replay trace \d+"
    ):
        run_pipeline(RunConfig(source=str(source), out_dir=str(out)))
    assert not (out / "results" / "result_0.json").exists()


def drop_last_out(lines):
    last = max(i for i, line in enumerate(lines) if line == "OUT")
    del lines[last]


def load_an_absent_id(lines):
    first = next(i for i, line in enumerate(lines) if line.startswith("LOAD "))
    lines[first] = "LOAD 999"


@pytest.mark.parametrize("tamper, message", [
    # Every OUT present replays its trace, but the last one is missing.
    (drop_last_out, r"slice 0: 15 OUTs for 16 traces"),
    # The campaign stops at the LOAD, after the first OUT.
    (load_an_absent_id, r"slice 0: command \d+ failed: .*999"),
], ids=["dropped_last_out", "load_of_an_absent_id"])
def test_a_campaign_that_misses_an_out_fails_its_slice(
    tmp_path, monkeypatch, tamper, message
):
    plan = pipeline.optimize_slice

    def tampered(*args):
        campaign = plan(*args)
        tamper(campaign.lines)
        return campaign

    monkeypatch.setattr(pipeline, "optimize_slice", tampered)
    source = tmp_path / "binary.txt"
    words = ["".join(w) for w in itertools.product("ab", repeat=4)]
    write_trace_file(TraceCorpus(ABCD, 1.0, ts(*words)), str(source))
    out = tmp_path / "run"
    with pytest.raises(PipelineStageError, match=message):
        run_pipeline(RunConfig(source=str(source), out_dir=str(out)))
    assert not (out / "results" / "result_0.json").exists()


def test_progress_counts_only_outs_that_replayed_their_traces(
    tmp_path, monkeypatch
):
    # The RUN before the sixth OUT replays the other symbol: that OUT
    # executes, but replays another history.  Progress, written at every
    # OUT, must stop at the five OUTs checked before it.
    monkeypatch.setattr(pipeline, "PROGRESS_INTERVAL_S", 0)
    plan = pipeline.optimize_slice

    def flip_a_run(*args):
        campaign = plan(*args)
        lines = campaign.lines
        outs = [i for i, line in enumerate(lines) if line == "OUT"]
        run = max(i for i in range(outs[4], outs[5]) if lines[i].startswith("RUN "))
        _, token, quanta = lines[run].split()
        lines[run] = f"RUN {'b' if token == 'a' else 'a'} {quanta}"
        return campaign

    monkeypatch.setattr(pipeline, "optimize_slice", flip_a_run)
    source = tmp_path / "binary.txt"
    words = ["".join(w) for w in itertools.product("ab", repeat=4)]
    write_trace_file(TraceCorpus(ABCD, 1.0, ts(*words)), str(source))
    out = tmp_path / "run"
    with pytest.raises(
        PipelineStageError, match=r"slice 0: OUT 5 does not replay trace 5"
    ):
        run_pipeline(RunConfig(source=str(source), out_dir=str(out)))
    assert read_progress(str(out)) == [(0, 5, 16)]
    assert overall_omission_bound(str(out)) == 1 - 5 / 16


@pytest.mark.parametrize("source, fraction", [
    (lambda tmp_path: corpus_file(tmp_path), 0.01),
    (spec_file, 0.01),
], ids=["trace_file", "constraint_spec"])
def test_a_sample_of_zero_traces_fails_the_source_stage(
    tmp_path, source, fraction
):
    config = RunConfig(source=source(tmp_path), out_dir=str(tmp_path / "run"),
                       fraction=fraction)
    with pytest.raises(PipelineStageError, match="^source stage: sampled zero traces$"):
        run_pipeline(config)


def test_a_256_token_alphabet_runs_like_an_in_memory_sort(tmp_path):
    # Multi-character tokens in an order unlike string order, and traces
    # that use the lowest and highest symbols and prefixes of each other.
    rng = random.Random(256)
    tokens = [f"s{i}" for i in range(MAX_SYMBOLS)]
    rng.shuffle(tokens)
    alphabet = Alphabet(tuple(tokens))
    traces = set()
    while len(traces) < 60:
        trace = tuple(
            rng.choice((0, 1, 254, 255, rng.randrange(MAX_SYMBOLS)))
            for _ in range(rng.randint(1, 5))
        )
        traces.update({trace, trace[:rng.randint(1, len(trace))]})
    source = str(tmp_path / "wide.txt")
    corpus = TraceCorpus(alphabet, 0.5, [InputTrace(alphabet, x) for x in traces])
    write_trace_file(corpus, source)
    out = tmp_path / "run"
    run_pipeline(RunConfig(source=source, out_dir=str(out), slices=3, seed=2,
                           sigma="4", sort_budget=25))

    # Tuples of symbol indices compare in alphabet order.
    in_memory = [InputTrace(alphabet, x) for x in sorted(traces)]
    assert (out / "sorted.txt").read_text().splitlines()[1:] == [
        alphabet.format_line(x.symbols) for x in in_memory
    ]
    for i, (start, stop) in enumerate(slice_ranges(len(in_memory), 3)):
        corpus = TraceCorpus(alphabet, 0.5, in_memory[start:stop])
        assert read_trace_file(str(out / "slices" / f"slice_{i}.txt")) == corpus
        tree, sigma = plan_slice(corpus, "random", slice_seed(2, i), "4")
        campaign = tmp_path / f"campaign_{i}.txt"
        write_campaign_file(optimize_slice(tree, sigma, 0.5, i), str(campaign))
        assert (out / "campaigns" / campaign.name).read_bytes() == campaign.read_bytes()
        with open(out / "results" / f"result_{i}.json") as fh:
            execution = json.load(fh)["execution"]
        assert execution["executable"] and execution["outs"] == stop - start


# Runs a pipeline on a small sort budget, killing the process just before
# it moves the file named by its first argument into place.
KILL_BEFORE_RENAME = """
import os, sys
from simcamp.pipeline import RunConfig, run_pipeline

target, source, out = sys.argv[1:]
replace = os.replace

def replace_or_die(src, dst):
    if os.path.basename(dst) == target:
        os._exit(137)
    replace(src, dst)

os.replace = replace_or_die
run_pipeline(RunConfig(source=source, out_dir=out, slices=2, seed=3, sort_budget=8))
"""


def run_dir_files(run_dir):
    """Every path under ``run_dir`` with a file's bytes or None for a
    directory; config.json, which names the directory, is left out."""
    return {
        str(path.relative_to(run_dir)): path.read_bytes() if path.is_file() else None
        for path in sorted(run_dir.rglob("*"))
        if path.name != "config.json"
    }


@pytest.mark.parametrize(
    "target", ["sorted.txt", "slice_1.txt", "campaign_1.txt", "result_0.json"]
)
def test_a_rerun_removes_what_a_killed_run_left(tmp_path, target):
    # A kill at the sort's rename leaves its run directory and the
    # sorted file's temporary; the others leave one temporary each.
    src = corpus_file(tmp_path)
    clean, out = tmp_path / "clean", tmp_path / "run"
    run_pipeline(RunConfig(source=src, out_dir=str(clean), slices=2, seed=3,
                           sort_budget=8))
    killed = subprocess.run(
        [sys.executable, "-c", KILL_BEFORE_RENAME, target, src, str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert killed.returncode == 137, killed.stderr
    assert set(run_dir_files(out)) - set(run_dir_files(clean))

    run_pipeline(RunConfig(source=src, out_dir=str(out), slices=2, seed=3,
                           sort_budget=8))
    assert run_dir_files(out) == run_dir_files(clean)


def sweep_file(tmp_path):
    """60 distinct random traces over a,b,c of horizon 4-12, unsorted."""
    rng = random.Random(29)
    texts = {}
    while len(texts) < 60:
        texts["".join(rng.choice("abc") for _ in range(rng.randint(4, 12)))] = None
    abc = Alphabet.of("a", "b", "c")
    path = tmp_path / "sweep.txt"
    write_trace_file(TraceCorpus(abc, 1.0, ts(*texts, alphabet=abc)), str(path))
    return str(path)


def sweep_run(source, out):
    # A sort budget of 200 symbols cuts the file source into several runs.
    run_pipeline(RunConfig(source=source, out_dir=str(out), slices=3, sigma="4",
                           seed=5, sort_budget=200))


def crash_at_rename(k, after, source, out):
    """The exit status of a forked child that runs ``sweep_run`` and dies
    just before, or just after, its k-th rename."""
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            renames = itertools.count(1)
            replace = os.replace

            def replace_or_die(src, dst):
                nth = next(renames)
                if nth == k and not after:
                    os._exit(137)
                replace(src, dst)
                if nth == k:
                    os._exit(137)

            os.replace = replace_or_die
            sweep_run(source, out)
            status = 0
        finally:
            os._exit(status)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


@pytest.mark.parametrize("source", ["file", "spec"])
def test_a_crash_at_every_rename_resumes_to_the_same_bytes(
    tmp_path, monkeypatch, source
):
    # Every file of a run appears by a rename, so dying before or after
    # each one covers every crash state the pipeline can leave.  Only the
    # start and end progress writes happen, so every run renames alike.
    monkeypatch.setattr(pipeline, "PROGRESS_INTERVAL_S", 1e9)
    src = sweep_file(tmp_path) if source == "file" else spec_file(tmp_path)
    out, clean = tmp_path / "run", tmp_path / "clean"
    renames = 0
    replace = os.replace

    def counting(src, dst):
        nonlocal renames
        renames += 1
        replace(src, dst)

    monkeypatch.setattr(os, "replace", counting)
    sweep_run(src, out)
    monkeypatch.setattr(os, "replace", replace)
    out.rename(clean)
    expected = run_dir_files(clean)
    # Each child reaches its rename, and no child reaches one more.
    assert crash_at_rename(renames + 1, False, src, out) == 0
    shutil.rmtree(out)

    for k, after in itertools.product(range(1, renames + 1), (False, True)):
        assert crash_at_rename(k, after, src, out) == 137, (k, after)
        # Progress never runs ahead of the campaign it counts.
        for path in (out / "results").glob("progress_*.json"):
            slice_id = path.stem.split("_")[1]
            assert (out / "campaigns" / f"campaign_{slice_id}.txt").exists()
            progress = json.loads(path.read_text())
            assert progress["j"] <= progress["n"]

        sweep_run(src, out)
        assert run_dir_files(out) == expected, (k, after)
        assert (out / "config.json").read_bytes() == (clean / "config.json").read_bytes()
        assert not [p for p in out.rglob("*") if p.name.startswith(TEMP_PREFIX)]
        shutil.rmtree(out)
