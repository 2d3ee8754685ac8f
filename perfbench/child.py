"""Run one simcamp CLI command in a fresh process, seen from outside.

    python3 perfbench/child.py --report R.json --capture DIR [--trace]
        [--run-id N] [--sort-budget N] -- <simcamp arguments>

Before calling ``simcamp.cli.main``, the wrappers below replace names on
``simcamp.pipeline`` and ``simcamp.cli`` (and ``GeneratorTable.get``), as
those modules look them up; no file under ``src/`` is changed.

* Always: the ``prepare_slices`` span (the set-up time of a pipeline run)
  and a root span around ``simcamp.cli.main``.  Each in-process
  ``execute`` and each ``run_external`` also saves its observations to
  ``DIR/obs_<slice>.marshal`` for the correctness gate.  Pool workers are
  forked, so they inherit the wrappers.
* With ``--trace``: a span at every layer entry point.  Spans are kept in
  memory and written to the report when the command returns.

The report is JSON: ``{"spans": [[name, start, end, parent, run_id, attrs],
...]}`` with ``perf_counter`` times and ``parent`` an index into the list
(-1 for the root).
"""

from __future__ import annotations

import argparse
import functools
import json
import marshal
import os
import sys
import time

# Every traced entry point; each span is named after it.  Both
# simcamp.pipeline and simcamp.cli import these names, and each module
# calls its own binding, so each module's binding is wrapped.
TRACED_NAMES = (
    "GeneratorTable",
    "external_sort",
    "read_trace_file",
    "write_trace_file",
    "build_tree",
    "optimize_slice",
    "write_campaign_file",
    "read_campaign_file",
    "execute",
    "run_external",
    "write_json_atomic",
    "analyze_runs",
    "_run_slice_task",
)


class Recorder:
    """Span store shared by every wrapper in this process."""

    def __init__(self, run_id: int) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append([name, 0.0, 0.0, parent, self.run_id, None])
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index][1:3] = [start, end]
            if attrs is not None:
                self.spans[index][5] = attrs(args, result)
            return result

        return wrapper


def _sort_attrs(_args, report):
    return {"runs": report["runs"]}


def _read_attrs(_args, corpus):
    return {"symbols": sum(len(t.symbols) for t in corpus.traces)}


def _json_attrs(args, _result):
    return {"progress": os.path.basename(args[1]).startswith("progress_")}


ATTRS = {
    "external_sort": _sort_attrs,
    "read_trace_file": _read_attrs,
    "write_json_atomic": _json_attrs,
}


def _capturing(fn, capture_dir: str):
    @functools.wraps(fn)
    def wrapper(campaign, *args, **kwargs):
        result = fn(campaign, *args, **kwargs)
        path = os.path.join(capture_dir, f"obs_{campaign.slice_id}.marshal")
        with open(path, "wb") as fh:
            marshal.dump(
                (
                    [obs.token for obs in result.observations],
                    [bytes(obs.symbols) for obs in result.observations],
                ),
                fh,
            )
        return result

    return wrapper


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench-child")
    parser.add_argument("--report", required=True)
    parser.add_argument("--capture", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("--sort-budget", type=int)
    parser.add_argument("simcamp_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    simcamp_args = args.simcamp_args
    if simcamp_args[:1] == ["--"]:
        simcamp_args = simcamp_args[1:]

    import simcamp.cli as cli
    import simcamp.generator as generator
    import simcamp.pipeline as pipeline

    recorder = Recorder(args.run_id)
    modules = (pipeline, cli)
    if args.trace:
        for module in modules:
            for name in TRACED_NAMES:
                if hasattr(module, name):
                    setattr(
                        module,
                        name,
                        recorder.wrap(name, getattr(module, name), ATTRS.get(name)),
                    )
        generator.GeneratorTable.get = recorder.wrap(
            "GeneratorTable.get", generator.GeneratorTable.get
        )
    for module in modules:
        module.prepare_slices = recorder.wrap("prepare_slices", module.prepare_slices)
        module.execute = _capturing(module.execute, args.capture)
    cli.run_external = _capturing(cli.run_external, args.capture)
    if args.sort_budget is not None:
        # The CLI has no flag for RunConfig.sort_budget.
        cli.RunConfig = functools.partial(cli.RunConfig, sort_budget=args.sort_budget)

    code = recorder.wrap("cli.main", cli.main)(simcamp_args)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump({"spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
