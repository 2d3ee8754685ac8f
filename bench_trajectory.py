"""Record one point of the perf trajectory: run every benchmark workload
and write ``BENCH_<pr>.json`` at the repository root.

    python3 bench_trajectory.py --pr <n>              # about 2 minutes
    python3 bench_trajectory.py --pr <n> --seconds 2  # a quick smoke run

Each workload that ``BENCHMARK.json`` declares runs through
``perfbench/run.py`` at seeds 1 and 7919 (the held-out seed), once with
``--trace 0`` and once with ``--trace 1``.  After each run the script
reads the record perfbench writes to
``.perfbench/results/<workload>-seed<seed>-trace<trace>.json`` and keeps,
per run:

* untraced: the median and IQR of each end-to-end metric over the
  untraced samples;
* traced: the median and IQR of each per-layer metric over the traced
  samples' layers, and perfbench's ``trace.overhead_s``;
* the run's ``correct`` and ``failed`` gate results, ``git_sha``,
  ``python``, ``cpu_count`` and ``loadavg_at_start``;
* ``calibration_s``: the median wall time of a fixed, stdlib-only loop
  (``calibration_loop``) timed right before the run, so that a change of
  machine speed can be told apart from a change of code.

``planner`` records the planning layer in process, before the perfbench
runs: ``optimize_slice`` on ``sorted_tight``'s slices at both seeds, built
as the pipeline builds them from perfbench's own corpus generator, at the
workload's own sigma.  Per slice it keeps the resolved sigma, the
campaign's ``length_q`` and the median and IQR of ``PLANNER_REPEATS``
timings; ``total_s`` sums the slices' medians.

perfbench's ``git_sha`` is ``HEAD`` whatever the working tree holds, so
the file also records, once at the start, ``git_sha`` (``HEAD``) and
``tree_clean``: whether ``git status --porcelain --untracked-files=no``
was empty, that is, whether the runs measured ``HEAD`` itself.  Both are
null outside a git checkout.

The file records the code's size beside its speed as well, counted once
at the start for each ``src/simcamp/*.py`` module, by file name, with
their ``total``: ``src_lines`` holds its non-blank lines, and
``src_code_lines`` the lines that hold a token other than a comment or a
docstring, so that deleted comments do not read as simpler code.

Only the standard library is used.  The exit status is 1 if any run is
not correct or perfbench fails, else 0.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import io
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize

ROOT = os.path.dirname(os.path.abspath(__file__))
SEEDS = (1, 7919)
# The order in which perfbench's sample ``quality`` holds these metrics.
QUALITY = ("length_q", "speedup", "mem_eff")
PLANNER_REPEATS = 5
CALIBRATION_REPEATS = 5


def _git(*args: str) -> str | None:
    """The output of a git command at the repository root, or None."""
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout


def code_lines(text: str) -> int:
    """The lines of a module's source that hold a token other than a
    comment or a docstring; a token over several lines holds each."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in layout or (tok.type == tokenize.STRING
                                  and tok.start[0] in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def source_lines() -> tuple[dict[str, int], dict[str, int]]:
    """Two counts of each ``src/simcamp/*.py`` module, by file name, with
    their ``total``: its non-blank lines and its ``code_lines``."""
    package = os.path.join(ROOT, "src", "simcamp")
    nonblank, code = {}, {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                text = fh.read()
            nonblank[name] = sum(1 for line in text.splitlines() if line.strip())
            code[name] = code_lines(text)
    for counts in (nonblank, code):
        counts["total"] = sum(counts.values())
    return nonblank, code


def calibration_loop() -> int:
    """A fixed piece of interpreter work that touches no simcamp code:
    make, sort and count 20,000 seeded strings.  Returns the number of
    distinct four-letter prefixes, the same on every call."""
    rng = random.Random(36)
    words = ["".join(rng.choices("abcd", k=12)) for _ in range(20_000)]
    counts: dict[str, int] = {}
    for word in sorted(words):
        counts[word[:4]] = counts.get(word[:4], 0) + 1
    return len(counts)


def calibration_s(repeats: int = CALIBRATION_REPEATS) -> float:
    """The median wall time of ``repeats`` runs of ``calibration_loop``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _module_dir(module) -> str:
    return os.path.dirname(getattr(module, "__file__", None) or "")


def perfbench_workloads():
    """perfbench's ``workloads`` module, loaded from its file.  perfbench's
    directory is on ``sys.path`` only while it loads, and the perfbench
    modules it imports are dropped from ``sys.modules`` after, so that
    none of them shadows a module of the same name."""
    perfbench = os.path.join(ROOT, "perfbench")
    path, loaded = list(sys.path), set(sys.modules)
    sys.path.insert(0, perfbench)
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", os.path.join(perfbench, "workloads.py"))
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        sys.path[:] = path
        for name in set(sys.modules) - loaded:
            if _module_dir(sys.modules[name]) == perfbench:
                del sys.modules[name]
    return workloads


def time_planner(seeds=SEEDS, repeats=PLANNER_REPEATS, **generator_options) -> dict:
    """``optimize_slice`` timed in process on each slice of
    ``sorted_tight`` at each of ``seeds``, at the workload's sigma.  The
    slices are built as the pipeline builds them: perfbench's generator
    makes the sorted corpus (``generator_options`` go to it),
    ``slice_ranges`` cuts it into the workload's slices, and each slice's
    tree is built from its random order under its slice seed.  Per slice:
    the resolved sigma, the campaign's ``length_q`` and the median and IQR
    of ``repeats`` timings; ``total_s`` sums the medians."""
    workload = perfbench_workloads().WORKLOADS["sorted_tight"]
    from simcamp.optimizer import optimize_slice
    from simcamp.pipeline import resolve_sigma, slice_seed
    from simcamp.slicing import order_slice, slice_ranges
    from simcamp.traces import Alphabet, InputTrace
    from simcamp.tree import build_tree

    slices = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            tokens, symbols = workload._generate(
                seed, os.path.join(tmp, "input.txt"), **generator_options)
            alphabet = Alphabet(tuple(tokens))
            traces = [InputTrace(alphabet, s) for s in symbols]
            for i, (lo, hi) in enumerate(slice_ranges(len(traces), workload.slices)):
                ordered = order_slice(traces[lo:hi], "random", slice_seed(seed, i))
                tree = build_tree(ordered)
                sigma = resolve_sigma(workload.sigma, tree.capacity)
                times = []
                for _ in range(repeats):
                    start = time.perf_counter()
                    campaign = optimize_slice(tree, sigma, 1.0, i)
                    times.append(time.perf_counter() - start)
                slices.append({"seed": seed, "slice": i, "traces": len(ordered),
                               "capacity": tree.capacity, "sigma": sigma,
                               "length_q": campaign.length_quanta,
                               "seconds": _spread(times)})
    return {"sigma": workload.sigma, "repeats": repeats, "slices": slices,
            "total_s": sum(entry["seconds"]["median"] for entry in slices)}


def _spread(values: list[float]) -> dict:
    """Median and interquartile range; a single value has no spread."""
    if len(values) < 2:
        return {"median": values[0] if values else None, "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1}


def _sample_value(sample: dict, name: str) -> float:
    if name in QUALITY:
        return sample["quality"][QUALITY.index(name)]
    return sample[name]


def summarize(record: dict, benchmark: dict) -> dict:
    """The trajectory entry of one perfbench record."""
    traced = bool(record["trace"])
    samples = [s for s in record["samples"] if s["ok"] and s["traced"] == traced]
    if traced:
        layers = [s["layers"] for s in samples]
        metrics = {
            m["name"]: _spread([x[m["name"]] for x in layers if m["name"] in x])
            for m in benchmark["per_layer"]
            if m["name"] != "trace.overhead_s"
        }
        # One figure per run: traced minus untraced median wall.
        overhead = record["result"]["metrics"]["trace.overhead_s"]["value"]
        metrics["trace.overhead_s"] = {"median": overhead, "iqr": None}
    else:
        metrics = {
            m["name"]: _spread([_sample_value(s, m["name"]) for s in samples])
            for m in benchmark["end_to_end"]
        }
    return {
        "workload": record["workload"],
        "seed": record["seed"],
        "trace": record["trace"],
        "samples": len(samples),
        "correct": record["result"]["correct"],
        "failed": record["result"]["failed"],
        "git_sha": record["git_sha"],
        "python": record["python"],
        "cpu_count": record["cpu_count"],
        "loadavg_at_start": record["loadavg_at_start"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="names BENCH_<pr>.json")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="perfbench --seconds for each run (default 10)")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    head = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    checkout = {
        "git_sha": None if head is None else head.strip(),
        "tree_clean": None if status is None else status == "",
    }
    src_lines, src_code_lines = source_lines()
    print("bench_trajectory: planner", file=sys.stderr, flush=True)
    # The planner plans with this checkout's simcamp.
    sys.path.insert(0, os.path.join(ROOT, "src"))
    planner = {"calibration_s": calibration_s(), **time_planner()}
    runs, ok = [], True
    for workload in (w["name"] for w in benchmark["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                print(f"bench_trajectory: {workload} seed={seed} trace={trace}",
                      file=sys.stderr, flush=True)
                calibration = calibration_s()
                done = subprocess.run(
                    [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(args.seconds), "--trace", str(trace)],
                    stdout=subprocess.DEVNULL,
                )
                if done.returncode != 0:
                    print(f"bench_trajectory: perfbench exited {done.returncode}",
                          file=sys.stderr)
                    return 1
                name = f"{workload}-seed{seed}-trace{trace}.json"
                path = os.path.join(ROOT, ".perfbench", "results", name)
                with open(path, encoding="utf-8") as fh:
                    entry = summarize(json.load(fh), benchmark)
                entry["calibration_s"] = calibration
                ok = ok and entry["correct"]
                runs.append(entry)

    out = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"pr": args.pr, "seconds": args.seconds, **checkout,
                   "src_lines": src_lines, "src_code_lines": src_code_lines,
                   "planner": planner, "runs": runs},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"bench_trajectory: wrote {out}; every run correct: {ok}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
