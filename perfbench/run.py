"""simcamp benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload spec_pipeline --seed 1 --seconds 30 --trace 0

Runs from any directory; the checkout is this file's parent directory, and
the program under test is the checkout's ``src/simcamp`` (put first on
``PYTHONPATH`` for this process and every process it starts).  Without it
the benchmark exits with code 2 and prints no result.

Each workload run is closed-loop and one at a time: a fresh process per
simcamp command, a fresh output directory, then the correctness gate on its
outputs.  Runs repeat until ``--seconds`` have passed (at least three).

* ``--trace 0`` prints the end-to-end metrics, medians over the runs.
* ``--trace 1`` alternates untraced and traced runs, with slices executed
  in-process (``--workers 1``) in both so worker spans are recorded, and
  prints the per-layer metrics: median times, counts that must repeat
  exactly, and ``trace.overhead_s`` (traced minus untraced median wall).

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
``attempted``/``failed`` count gate checks.  A fuller record (samples, gate
messages, git sha, Python, CPU count, load average) goes to
``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from gate import Gate, GateError
from layers import PER_LAYER, layer_metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
MIN_RUNS = 3
# Every run of the benchmark must end within 180 s; no child may outlive this.
HARD_LIMIT_S = 165.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "length_q": "quanta",
    "speedup": "ratio",
    "mem_eff": "ratio",
}


@dataclass
class Sample:
    """One workload run."""

    traced: bool
    wall_s: float = 0.0
    setup_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    ok: bool = True
    quality: tuple = ()
    layers: dict = field(default_factory=dict)


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` with its rusage; kill its process group after ``timeout``."""

    def kill() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(timeout, 0.0), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


class Bench:
    def __init__(self, workload, seed: int, work_dir: str, deadline: float) -> None:
        self.workload = workload
        self.work_dir = work_dir
        self.deadline = deadline
        self.gate = Gate()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p
        )
        self.inputs = workload.generate(seed, work_dir)
        self.runs = 0

    def run_once(self, in_process: bool, trace: bool) -> Sample:
        """One workload run.  ``in_process``: execute slices in-process, as
        trace mode does; ``trace``: record a span at every layer entry point."""
        run_id = self.runs
        self.runs += 1
        run_dir = os.path.join(self.work_dir, f"run{run_id}")
        out_dir = os.path.join(run_dir, "out")
        obs_dir = os.path.join(run_dir, "obs")
        os.makedirs(obs_dir)
        os.makedirs(out_dir)
        sample = Sample(traced=trace)
        stdouts, reports = [], []
        for j, step in enumerate(self.workload.steps(self.inputs, out_dir, in_process)):
            report = os.path.join(run_dir, f"step{j}.json")
            argv = [sys.executable, CHILD, "--report", report, "--capture", obs_dir,
                    "--run-id", str(run_id)]
            if trace:
                argv.append("--trace")
            if step.sort_budget is not None:
                argv += ["--sort-budget", str(step.sort_budget)]
            argv += ["--", *step.argv]
            stdout_path = os.path.join(run_dir, f"step{j}.out")
            stderr_path = os.path.join(run_dir, f"step{j}.err")
            with open(stdout_path, "w") as out, open(stderr_path, "w") as err:
                start = time.perf_counter()
                proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                        cwd=run_dir, start_new_session=True)
                usage = _wait(proc, self.deadline - time.monotonic())
                wall = time.perf_counter() - start
            sample.wall_s += wall
            sample.cpu_s += usage.ru_utime + usage.ru_stime
            sample.peak_rss_mb = max(sample.peak_rss_mb, usage.ru_maxrss / 1024)
            if not self.gate.check(f"step {j} ({step.argv[0]}) exits 0",
                                   proc.returncode == 0, _tail(stderr_path)):
                sample.ok = False
                return sample
            with open(stdout_path) as fh:
                stdouts.append(fh.read())
            with open(report) as fh:
                spans = json.load(fh)["spans"]
            reports.append(spans)
            setup = [t1 - t0 for name, t0, t1, *_ in spans if name == "prepare_slices"]
            # Pipeline: the source and slice stages.  Driver: the optimize
            # step, up to its campaign file on disk.
            if j == 0:
                sample.setup_s = setup[0] if setup else wall

        failed_before = self.gate.failed
        try:
            outcome = self.workload.check(self.gate, self.inputs, out_dir, obs_dir,
                                          stdouts, first=run_id == 0)
        except (OSError, ValueError, KeyError, IndexError, TypeError, EOFError,
                GateError) as exc:
            self.gate.check("outputs are readable", False, repr(exc))
            sample.ok = False
            return sample
        sample.ok = self.gate.failed == failed_before
        sample.quality = outcome.quality()
        if trace:
            sample.layers = layer_metrics(reports, sample.wall_s, outcome)
        shutil.rmtree(run_dir)
        return sample


def _tail(path: str, lines: int = 5) -> str:
    with open(path, errors="replace") as fh:
        return " | ".join(fh.read().strip().splitlines()[-lines:])


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def end_to_end(bench: Bench, samples: list[Sample]) -> dict:
    qualities = sorted({s.quality for s in samples if s.ok})
    if qualities:
        bench.gate.check("length_q, speedup and mem_eff repeat exactly",
                         len(qualities) == 1, str(qualities))
    length_q, speedup, mem_eff = qualities[0] if qualities else (0, 0.0, 0.0)
    return {
        "wall_s": _median([s.wall_s for s in samples]),
        "setup_s": _median([s.setup_s for s in samples]),
        "cpu_s": _median([s.cpu_s for s in samples]),
        "peak_rss_mb": _median([s.peak_rss_mb for s in samples]),
        "length_q": length_q,
        "speedup": speedup,
        "mem_eff": mem_eff,
    }


def per_layer(bench: Bench, plain: list[Sample], traced: list[Sample]) -> dict:
    good = [s.layers for s in traced if s.ok]
    metrics = {}
    for name, unit in PER_LAYER.items():
        values = [layers[name] for layers in good if name in layers]
        if unit == "count":
            if values:
                bench.gate.check(f"{name} repeats exactly", len(set(values)) == 1,
                                 str(sorted(set(values))))
            metrics[name] = values[0] if values else 0
        else:
            metrics[name] = _median(values)
    metrics["trace.overhead_s"] = (
        _median([s.wall_s for s in traced]) - _median([s.wall_s for s in plain])
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "simcamp", "__init__.py")):
        print(f"perfbench: no simcamp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
    }
    state_dir = os.path.join(ROOT, ".perfbench")
    work_dir = os.path.join(state_dir, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    plain: list[Sample] = []
    traced: list[Sample] = []
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, work_dir,
                      started + HARD_LIMIT_S)
        window_end = time.monotonic() + args.seconds
        tracing = bool(args.trace)
        while len(plain) < MIN_RUNS or time.monotonic() < window_end:
            plain.append(bench.run_once(in_process=tracing, trace=False))
            if tracing:
                traced.append(bench.run_once(in_process=True, trace=True))
            last = plain[-1].wall_s + (traced[-1].wall_s if tracing else 0.0)
            if time.monotonic() + 2 * last > started + HARD_LIMIT_S:
                break
        if tracing:
            metrics = per_layer(bench, plain, traced)
            units = PER_LAYER
        else:
            metrics = end_to_end(bench, plain)
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    gate = bench.gate
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        **context,
        "runs": len(plain),
        "traced_runs": len(traced),
        "traced_workers": 1 if traced else None,
        "failed_frac": gate.failed / gate.attempted,
        "gate_messages": gate.messages[:50],
        "samples": [s.__dict__ for s in plain + traced],
        "result": result,
    }
    results_dir = os.path.join(state_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed}: {len(plain)} runs"
          + (f" + {len(traced)} traced (slices in-process, workers=1)" if traced else "")
          + f", failed_frac={record['failed_frac']:.4g}", file=sys.stderr)
    for message in gate.messages[:10]:
        print(f"  gate: {message}", file=sys.stderr)
    for k, v in metrics.items():
        print(f"  {k:34s} {v:.6g} {units[k]}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
