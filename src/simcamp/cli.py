"""Command-line interface.

    simcamp sg count --spec constraints.txt
    simcamp sg get --spec constraints.txt --index 12
    simcamp sort --in corpus.txt --out sorted.txt
    simcamp slice --in sorted.txt --out-dir run/ --slices 4 --order random
    simcamp optimize --slice run/slices/slice_0.txt --sigma capacity --out c0.txt
    simcamp execute --campaign c0.txt --alphabet a,b --model-seed 7
    simcamp oracle edges --slice run/slices/slice_0.txt
    simcamp pipeline --in constraints.txt --out-dir run/ --slices 2 --sigma 16
    simcamp analyze run/ --f-grid 1,10,50,100
    simcamp progress --dir run/
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys
from typing import Sequence

from .engine import (
    DriverProtocolError,
    execute,
    reference_model,
    run_external,
    start_driver,
)
from .generator import GeneratorTable, read_constraint_file
from .metrics import DEFAULT_COSTS, DEFAULT_F_GRID, check_f_grid, read_cost_file
from .optimizer import (
    campaign_chunks,
    optimize_slice,
    read_campaign_file,
    write_campaign_file,
)
from .oracles import edge_count, naive_campaign, shared_prefix_counts
from .pipeline import (
    SIGMA_CHOICES_DOC,
    PipelineStageError,
    RunConfig,
    overall_omission_bound,
    plan_slice,
    prepare_slices,
    run_pipeline,
    slice_corpus,
    write_reports,
)
from .slicing import ORDER_MODES, external_sort
from .traces import Alphabet, TraceFormatError, read_trace_file


def _parse_f_grid(text: str) -> list[float]:
    try:
        grid = [float(x) for x in text.split(",") if x]
        check_f_grid(grid)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad f grid {text!r}: {exc}") from exc
    return grid


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=1, sort_keys=True))


def cmd_sg_count(args: argparse.Namespace) -> int:
    table = GeneratorTable(read_constraint_file(args.spec))
    print(table.count())
    return 0


def cmd_sg_get(args: argparse.Namespace) -> int:
    table = GeneratorTable(read_constraint_file(args.spec))
    print(",".join(table.get(args.index).tokens()))
    return 0


def cmd_sort(args: argparse.Namespace) -> int:
    report = external_sort(args.infile, args.out, args.budget, dedupe=args.dedupe)
    _print_json(report)
    return 0


def _run_config(args: argparse.Namespace, **options) -> RunConfig:
    """The RunConfig of the options ``slice`` and ``pipeline`` share."""
    return RunConfig(
        source=args.infile,
        out_dir=args.out_dir,
        slices=args.slices,
        order_mode=args.order,
        seed=args.seed,
        fraction=args.fraction,
        quantum=args.quantum,
        dedupe=args.dedupe,
        **options,
    )


def cmd_slice(args: argparse.Namespace) -> int:
    tasks = prepare_slices(_run_config(args))
    for task in tasks:
        # A constraint-spec slice file is written when its traces are first
        # extracted; prepare_slices has written every trace-file slice.
        if not os.path.exists(task.paths.slice):
            slice_corpus(task)
    _print_json({"out_dir": args.out_dir, "slices": len(tasks)})
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    corpus = read_trace_file(args.slice)
    ordered, tree, sigma = plan_slice(corpus, args.order, args.seed, args.sigma)
    campaign = optimize_slice(
        ordered, tree, sigma, corpus.quantum, slice_id=args.slice_id
    )
    write_campaign_file(campaign, args.out)
    _print_json(
        {
            "out": args.out,
            "traces": len(ordered),
            "capacity": tree.capacity,
            "shared_prefixes": tree.shared_prefix_count,
            "sigma": sigma,
            "length_q": campaign.length_quanta,
            "peak_stored": campaign.peak_stored,
            "commands": len(campaign.lines),
        }
    )
    return 0


def cmd_execute(args: argparse.Namespace) -> int:
    alphabet = Alphabet(tuple(args.alphabet.split(",")))
    if args.driver:
        # The driver reads the campaign file while the engine loads it; a
        # campaign that fails to load stops the driver.
        driver = start_driver(shlex.split(args.driver), args.campaign)
        try:
            campaign = read_campaign_file(args.campaign, alphabet)
        except BaseException:
            with driver:
                driver.kill()
            raise
        result = run_external(campaign, driver)
    else:
        campaign = read_campaign_file(args.campaign, alphabet)
        result = execute(campaign, reference_model(alphabet, args.model_seed))
    _print_json(
        {
            "executable": result.executable,
            "outs": len(result.observations),
            "length_q": result.length_quanta,
            "peak_memory": result.peak_memory,
            "failing_index": result.failing_index,
            "error": result.error,
        }
    )
    return 0 if result.executable else 1


def cmd_oracle(args: argparse.Namespace) -> int:
    corpus = read_trace_file(args.slice)
    if args.what == "edges":
        print(edge_count(corpus.traces))
    elif args.what == "shared":
        counts = shared_prefix_counts(corpus.traces)
        for prefix in sorted(counts):
            tokens = corpus.alphabet.format_line(prefix)
            print(f"{tokens or '-'} {counts[prefix]}")
    else:
        naive = naive_campaign(corpus.traces, corpus.quantum)
        sys.stdout.writelines(campaign_chunks(naive))
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    config = _run_config(
        args, sigma=args.sigma, workers=args.workers, model_seed=args.model_seed
    )
    cost = DEFAULT_COSTS if args.costs is None else read_cost_file(args.costs)
    summary = run_pipeline(config, cost, args.f_grid)
    _print_json(summary)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    cost = DEFAULT_COSTS if args.costs is None else read_cost_file(args.costs)
    out = args.out or os.path.join(args.run_dirs[0], "report.csv")
    progress_out = args.progress_out or os.path.join(
        args.run_dirs[0], "progress.csv"
    )
    rows = write_reports(args.run_dirs, cost, args.f_grid, out, progress_out)
    _print_json({"report": out, "rows": rows, "progress": progress_out})
    return 0


def cmd_progress(args: argparse.Namespace) -> int:
    print(f"{overall_omission_bound(args.dir):.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simcamp",
        description="Memory-bounded simulation campaigns over large scenario sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--in", dest="infile", required=True, help="trace or spec file")
    run.add_argument("--out-dir", required=True)
    run.add_argument("--slices", type=int, default=1)
    run.add_argument("--order", choices=ORDER_MODES, default="random")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--fraction", type=float, default=1.0)
    run.add_argument("--quantum", type=float, default=1.0, help="for spec sources")
    run.add_argument("--dedupe", action="store_true")

    sg = sub.add_parser("sg", help="constrained scenario generator")
    sg_sub = sg.add_subparsers(dest="sg_command", required=True)
    sg_count = sg_sub.add_parser("count", help="count accepted scenarios")
    sg_count.add_argument("--spec", required=True, help="constraint spec file")
    sg_count.set_defaults(func=cmd_sg_count)
    sg_get = sg_sub.add_parser("get", help="extract the j-th scenario")
    sg_get.add_argument("--spec", required=True, help="constraint spec file")
    sg_get.add_argument("--index", type=int, required=True)
    sg_get.set_defaults(func=cmd_sg_get)

    p = sub.add_parser("sort", help="externally sort a trace file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--budget", type=int, default=10**6, help="symbols per run")
    p.add_argument("--dedupe", action="store_true")
    p.set_defaults(func=cmd_sort)

    p = sub.add_parser("slice", parents=[run], help="cut a corpus into slice files")
    p.set_defaults(func=cmd_slice)

    p = sub.add_parser("optimize", help="emit a campaign for one slice")
    p.add_argument("--slice", required=True, help="slice trace file")
    p.add_argument("--out", required=True, help="campaign file to write")
    p.add_argument("--sigma", default="capacity", help=SIGMA_CHOICES_DOC)
    p.add_argument("--order", choices=ORDER_MODES, default="given")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--slice-id", type=int, default=0)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("execute", help="run a campaign file")
    p.add_argument("--campaign", required=True)
    p.add_argument("--alphabet", required=True, help="comma-separated tokens")
    p.add_argument("--model-seed", type=int, default=0)
    p.add_argument(
        "--driver",
        help="external driver command line (default: in-process reference model)",
    )
    p.set_defaults(func=cmd_execute)

    p = sub.add_parser("oracle", help="brute-force references for golden tests")
    p.add_argument("what", choices=("edges", "shared", "naive"))
    p.add_argument("--slice", required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("pipeline", parents=[run], help="run every stage end to end")
    p.add_argument("--sigma", default="capacity", help=SIGMA_CHOICES_DOC)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--costs", help="cost model file")
    p.add_argument("--f-grid", type=_parse_f_grid, default=DEFAULT_F_GRID)
    p.add_argument("--model-seed", type=int, default=None)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("analyze", help="write report.csv/progress.csv for runs")
    p.add_argument("run_dirs", nargs="+", help="pipeline output directories")
    p.add_argument("--costs", help="cost model file")
    p.add_argument("--f-grid", type=_parse_f_grid, default=DEFAULT_F_GRID)
    p.add_argument("--out", help="report csv path (default: first run dir)")
    p.add_argument("--progress-out", help="progress csv path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("progress", help="print the current omission bound")
    p.add_argument("--dir", required=True, help="pipeline output directory")
    p.set_defaults(func=cmd_progress)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        TraceFormatError,
        PipelineStageError,
        DriverProtocolError,
        ValueError,
        IndexError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
