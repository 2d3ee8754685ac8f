from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys

from simcamp.pipeline import RunConfig, run_pipeline

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_trajectory", os.path.join(ROOT, "bench_trajectory.py")
)
bench_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trajectory)

MODULE = '''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """A function docstring."""
    s = """a string
that is no docstring"""
    return (x +
            1)


class C:
    "A class docstring."
    y = 1
'''


def test_code_lines_skip_comments_docstrings_and_blank_lines():
    # import, def, the string's two lines, return's two lines, class, y.
    assert bench_trajectory.code_lines(MODULE) == 8
    assert bench_trajectory.code_lines("") == 0
    assert bench_trajectory.code_lines('"""Only a docstring."""\n') == 0


def test_source_lines_count_every_module_and_their_total():
    nonblank, code = bench_trajectory.source_lines()
    assert "optimizer.py" in nonblank and nonblank.keys() == code.keys()
    for counts in (nonblank, code):
        assert counts["total"] == sum(v for k, v in counts.items() if k != "total")
    assert all(code[name] <= nonblank[name] for name in code)


def test_the_calibration_loop_is_fixed_work_outside_simcamp():
    # A fresh interpreter: the loop and its timing load no simcamp module.
    code = (
        "import sys, bench_trajectory as b\n"
        "first = b.calibration_loop()\n"
        "assert b.calibration_s(2) > 0 and b.calibration_loop() == first\n"
        "print(sorted(m for m in sys.modules if m.startswith('simcamp')))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_the_planner_plans_sorted_tight_slices_as_the_pipeline_does(tmp_path):
    # Enough traces that each slice's capacity exceeds the workload's sigma.
    options = dict(count=300, horizon=40)
    path, modules = list(sys.path), set(sys.modules)
    planner = bench_trajectory.time_planner(seeds=(3,), repeats=2, **options)
    # Loading perfbench's workloads leaves no perfbench module importable.
    perfbench = os.path.join(ROOT, "perfbench")
    assert sys.path == path and perfbench not in {
        bench_trajectory._module_dir(sys.modules[m]) for m in set(sys.modules) - modules}
    workload = bench_trajectory.perfbench_workloads().WORKLOADS["sorted_tight"]
    assert (planner["sigma"], planner["repeats"]) == (workload.sigma, 2)
    assert [(e["seed"], e["slice"]) for e in planner["slices"]] == [(3, 0), (3, 1)]

    # The pipeline on the same generated corpus plans the same campaigns.
    source = str(tmp_path / "input.txt")
    workload._generate(3, source, **options)
    out = tmp_path / "run"
    run_pipeline(RunConfig(source=source, out_dir=str(out), slices=workload.slices,
                           sigma=workload.sigma, seed=3))
    for entry in planner["slices"]:
        with open(out / "results" / f"result_{entry['slice']}.json") as fh:
            result = json.load(fh)
        assert (entry["traces"], entry["capacity"]) == (result["n"], result["capacity"])
        assert entry["sigma"] == result["sigma_resolved"] < entry["capacity"]
        assert entry["length_q"] == result["requested"]["length_q"]
        assert entry["seconds"].keys() == {"median", "iqr"}
