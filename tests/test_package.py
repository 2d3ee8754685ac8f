from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
import tokenize
from collections import Counter
from pathlib import Path

import pytest

import simcamp
import simcamp.cli
import simcamp.pipeline


def test_every_exported_name_resolves():
    missing = [name for name in simcamp.__all__ if not hasattr(simcamp, name)]
    assert missing == []


def test_star_import_binds_exactly_the_exported_names():
    namespace: dict = {}
    exec("from simcamp import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(simcamp.__all__)


def test_export_list_is_sorted_and_duplicate_free():
    assert simcamp.__all__ == sorted(set(simcamp.__all__))


def test_every_exported_name_has_a_use():
    # A name appears once where it is defined, so an export needs a second
    # NAME token in the package or the benchmark to have a use; a string
    # such as a traced name in perfbench/child.py is no use.
    root = Path(__file__).resolve().parents[1]
    paths = [
        p for p in sorted((root / "src" / "simcamp").glob("*.py"))
        if p.name != "__init__.py"
    ] + sorted((root / "perfbench").glob("*.py"))
    names: Counter = Counter()
    for path in paths:
        with tokenize.open(path) as fh:
            names.update(
                tok.string
                for tok in tokenize.generate_tokens(fh.readline)
                if tok.type == tokenize.NAME
            )
    assert [name for name in simcamp.__all__ if names[name] < 2] == []


def test_readme_library_use_example_runs(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert "quanta, peak" in capsys.readouterr().out


def test_benchmark_traced_names_are_bound():
    # perfbench/child.py skips a traced name neither module binds, which
    # would silently zero that layer's metrics.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    unbound = [
        name
        for name in child.TRACED_NAMES
        if not hasattr(simcamp.pipeline, name) and not hasattr(simcamp.cli, name)
    ]
    assert unbound == []


@pytest.mark.parametrize("workload", ["spec_pipeline", "sorted_tight", "driver_replay"])
def test_the_benchmark_passes_its_gate_in_traced_mode(workload):
    # The gate reads each trace's symbols, each observation's symbols and
    # the reference model, so a change to those fails here first.  Only
    # the pipeline workloads call the traced analyze_runs, _run_slice_task
    # and prepare_slices.
    run = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    done = subprocess.run(
        [sys.executable, str(run), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), done.stderr[-2000:]


def loaded_by_import(module, candidates):
    """Which of ``candidates`` a fresh interpreter loads to import ``module``."""
    code = (
        f"import sys, {module}\n"
        f"print(sorted(m for m in {tuple(candidates)!r} if m in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_the_echo_driver_imports_no_pipeline():
    # The package resolves its exports on first use, so a driver process
    # loads only the modules it runs.
    candidates = ("simcamp.pipeline", "simcamp.generator", "concurrent.futures")
    assert loaded_by_import("simcamp.echo_driver", candidates) == "[]"


def test_the_report_imports_no_execution():
    # Pricing a campaign needs its summary and a cost model, not the
    # engine, the planner or a subprocess.
    candidates = ("simcamp.engine", "simcamp.optimizer", "simcamp.tree", "subprocess")
    assert loaded_by_import("simcamp.metrics", candidates) == "[]"
