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
  ``python``, ``cpu_count`` and ``loadavg_at_start``.

Only the standard library is used.  The exit status is 1 if any run is
not correct or perfbench fails, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.abspath(__file__))
SEEDS = (1, 7919)
# The order in which perfbench's sample ``quality`` holds these metrics.
QUALITY = ("length_q", "speedup", "mem_eff")


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
    runs, ok = [], True
    for workload in (w["name"] for w in benchmark["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                print(f"bench_trajectory: {workload} seed={seed} trace={trace}",
                      file=sys.stderr, flush=True)
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
                ok = ok and entry["correct"]
                runs.append(entry)

    out = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"pr": args.pr, "seconds": args.seconds, "runs": runs}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print(f"bench_trajectory: wrote {out}; every run correct: {ok}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
