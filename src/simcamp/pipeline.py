"""End-to-end orchestration: source -> sort/sample -> slice -> optimize ->
execute -> analyze, with deterministic seeding and file-based resume.

Stages communicate only through files in the output directory:

    sorted.txt            sorted corpus (file sources only)
    config.json           the resolved run configuration (_CONFIG_KEYS)
    manifest.jsonl        one line per slice (_MANIFEST_KEYS)
    slices/slice_<i>.txt  the slice's traces (lexicographic)
    campaigns/campaign_<i>.txt
    results/result_<i>.json     (_RESULT_KEYS)
    results/progress_<i>.json   (_PROGRESS_KEYS; replaced while executing)
    report.csv, progress.csv

Each JSON record has one writer, declared beside the table of the keys
simcamp reads back from it; its other keys are informational.

The stages, in order:

1. ``prepare_slices`` (source and slice stages, in the calling process):
   claim the directory, then sort and sample a trace file and cut its
   slice files from ``sorted.txt``, or count and sample a constraint
   spec; write the manifest and ``config.json``.
2. ``_run_slice_task`` (one per slice, inline or in a worker pool): get
   the slice's traces through ``slice_corpus`` (which extracts a spec
   slice and writes its slice file, or reads the slice file already
   there), plan it with ``plan_slice``, write the campaign, execute it on
   the reference model and write the result.
3. ``write_reports``: ``report.csv`` and ``progress.csv`` from
   ``analyze_runs``, priced by ``metrics`` under a cost model and f grid.

``plan_slice`` turns a slice's traces into their tree, built from the
slice's verification order, and a state budget, for the pipeline's slice
task and for ``simcamp optimize`` alike.

Every file is written to a temporary name and moved into place, so none
is ever seen partly written.  ``config.json`` is written before anything
else and holds the run's fingerprint: the configuration fields that shape
the outputs and a hash of the source.
A rerun into the same directory with another fingerprint is refused,
because it would reuse files made under the old one.  A master seed
derives per-slice seeds by stable hashing, so changing the slice count
never perturbs another slice's verification order.  Slice tasks whose
result file already covers the slice's manifest size are skipped, which
makes reruns both resumable and byte-identical.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import hashlib
import json
import math
import os
import shutil
from dataclasses import asdict, dataclass
from itertools import groupby
from time import monotonic
from typing import Callable, NamedTuple, Sequence

from .engine import Observation, execute, reference_model
from .generator import (
    ConstraintSpec,
    GeneratorTable,
    check_fraction,
    read_constraint_file,
    sample_indices,
)
from .metrics import (
    DEFAULT_COSTS,
    DEFAULT_F_GRID,
    PROGRESS_COLUMNS,
    REPORT_COLUMNS,
    CostModel,
    omission_probability,
    report_rows,
    write_csv,
)
from .optimizer import optimize_slice, write_campaign_file
from .slicing import external_sort, order_slice, slice_ranges
from .traces import (
    TEMP_PREFIX,
    Alphabet,
    TraceCorpus,
    atomic_text_file,
    body_lines,
    check_quantum,
    read_trace_file,
    read_trace_lines,
    write_trace_file,
)
from .tree import BranchTree, build_tree

SIGMA_CHOICES_DOC = "a positive integer, 'capacity', or 'unlimited'"

# Least time between two progress writes of one slice task, in seconds
# (the first and last writes of a task are always made).
PROGRESS_INTERVAL_S = 1.0


class PipelineStageError(RuntimeError):
    """A pipeline stage failed; the message names the stage and slice."""


@dataclass(slots=True)
class RunConfig:
    source: str
    out_dir: str
    slices: int = 1
    sigma: str = "capacity"
    order_mode: str = "random"
    seed: int = 0
    fraction: float = 1.0
    quantum: float = 1.0
    workers: int = 1
    dedupe: bool = False
    sort_budget: int = 10**6
    model_seed: int | None = None

    def __post_init__(self) -> None:
        if self.slices < 1:
            raise ValueError("slice count must be >= 1")
        if self.workers < 1:
            raise ValueError("worker count must be >= 1")
        resolve_sigma(self.sigma, None)
        check_fraction(self.fraction)
        check_quantum(self.quantum)


def resolve_sigma(text: str, capacity: int | None) -> int | None:
    """The state budget a sigma spec names for a slice of this capacity:
    'capacity' is ``capacity``, 'unlimited' is None, else a positive integer."""
    if text == "capacity":
        return capacity
    if text == "unlimited":
        return None
    try:
        k = int(text)
    except ValueError:
        k = 0
    if k < 1:
        raise ValueError(f"sigma must be {SIGMA_CHOICES_DOC}")
    return k


def slice_seed(master: int, slice_id: int) -> int:
    digest = hashlib.sha256(f"simcamp:{master}:{slice_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def write_json_atomic(obj: object, path: str) -> None:
    with atomic_text_file(path) as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _is_int(value: object, least: float = -math.inf) -> bool:
    # JSON true and false are no counts.
    return type(value) is int and value >= least


def _is_summary(value: object) -> bool:
    """Whether ``value`` is a ``_campaign_summary`` as the report reads it:
    every campaign runs a quantum and stores the initial state."""
    return (
        isinstance(value, dict)
        and _is_int(value.get("length_q"), 1)
        and _is_int(value.get("peak_stored"), 1)
        and isinstance(value.get("counts"), dict)
        and all(_is_int(count, 0) for count in value["counts"].values())
    )


# What a run-directory record's key must hold, as its reader needs it: a
# description for the error, and the test.
_Kind = tuple[str, Callable[[object], bool]]
_INT: _Kind = ("an integer", _is_int)
_OBJECT: _Kind = ("an object", lambda value: isinstance(value, dict))
_STRING: _Kind = ("a string", lambda value: isinstance(value, str))
_SIZE: _Kind = ("an integer >= 1", lambda value: _is_int(value, 1))
_SUMMARY: _Kind = ("a campaign summary", _is_summary)


def _read_json_object(
    path: str, stage: str, keys: dict[str, _Kind], text: str | None = None
) -> dict:
    """The JSON object in run-directory file ``path`` (or in ``text``, one
    of its lines), holding each of ``keys`` with a value of its kind.
    Anything else, such as a file simcamp did not write, is a
    PipelineStageError naming stage and path, and the key if one fails."""
    try:
        if text is None:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        obj = json.loads(text)
    except ValueError as exc:
        raise PipelineStageError(f"{stage} stage: {path}: not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise PipelineStageError(f"{stage} stage: {path}: not a JSON object")
    for key, (kind, test) in keys.items():
        if not test(obj.get(key)):
            raise PipelineStageError(f"{stage} stage: {path}: {key} is not {kind}")
    return obj


# config.json is written at the claim, then again with the fields the
# source resolves, so the claim reads back only _CLAIM_KEYS.
_CLAIM_KEYS = {"fingerprint": _OBJECT}
_CONFIG_KEYS = {"n_total": _SIZE, "seed": _INT, "sigma": _STRING, "slices": _SIZE,
                **_CLAIM_KEYS}


def _write_config(config: RunConfig, fingerprint: dict, **resolved) -> None:
    # The resolved fields win over RunConfig's: its quantum is only the
    # default for a spec source, and a trace file's header sets its own.
    write_json_atomic(
        {**asdict(config), **resolved, "fingerprint": fingerprint},
        os.path.join(config.out_dir, "config.json"),
    )


# RunConfig fields that change no output: where the source and outputs
# live (the source's content is hashed instead), the worker count, and the
# external sort's memory budget.
_UNFINGERPRINTED = ("source", "out_dir", "workers", "sort_budget")


def _run_fingerprint(config: RunConfig) -> dict:
    """The output-shaping config fields, plus the source's SHA-256."""
    fingerprint = {
        key: value
        for key, value in asdict(config).items()
        if key not in _UNFINGERPRINTED
    }
    digest = hashlib.sha256()
    with open(config.source, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    fingerprint["source_sha256"] = digest.hexdigest()
    return fingerprint


def _claim_out_dir(config: RunConfig, fingerprint: dict) -> None:
    """Refuse an output directory holding a run with another fingerprint.

    A directory without ``config.json`` is claimed by writing one.
    """
    path = os.path.join(config.out_dir, "config.json")
    if not os.path.exists(path):
        _write_config(config, fingerprint)
        return
    previous = _read_json_object(path, "resume", _CLAIM_KEYS)["fingerprint"]
    for key, value in fingerprint.items():
        if previous.get(key) != value:
            raise PipelineStageError(
                f"resume stage: {config.out_dir} holds a run with "
                f"{key}={previous.get(key)!r}, not {value!r}; "
                "use another output directory"
            )


def _is_constraint_file(path: str) -> bool:
    """Classify the source as its readers would: a trace file has its
    ``#alphabet=`` header on line 1, and a spec's first body line starts
    with ``alphabet=``."""
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline().strip().startswith("#alphabet="):
            return False
        fh.seek(0)
        return next(body_lines(fh), "").startswith("alphabet=")


def _materialize_source(
    config: RunConfig,
) -> tuple[Alphabet, float, ConstraintSpec | None, Sequence]:
    """The sorted, sampled corpus the slices are cut from: for a trace
    file, its trace lines; for a constraint spec, the spec and the sampled
    indices of its traces, which the slice tasks extract."""
    spec: ConstraintSpec | None = None
    if _is_constraint_file(config.source):
        spec = read_constraint_file(config.source)
        alphabet, quantum = spec.alphabet, config.quantum
        total = GeneratorTable(spec).count()
    else:
        sorted_path = os.path.join(config.out_dir, "sorted.txt")
        if not os.path.exists(sorted_path):
            external_sort(
                config.source, sorted_path, config.sort_budget, dedupe=config.dedupe
            )
        # external_sort has checked every line, so the slices copy them as
        # they are.
        alphabet, quantum, lines = read_trace_lines(sorted_path)
        total = len(lines)
    if total == 0:
        raise PipelineStageError("source stage: empty corpus")
    keep = sample_indices(total, config.fraction, config.seed)
    if not keep:
        raise PipelineStageError("source stage: sampled zero traces")
    if spec is not None:
        return alphabet, quantum, spec, keep
    return alphabet, quantum, None, [lines[j] for j in keep]


class _SlicePaths(NamedTuple):
    slice: str
    campaign: str
    result: str
    progress: str


def _slice_paths(run_dir: str, slice_id: int) -> _SlicePaths:
    """Where slice ``slice_id``'s files live under a run directory."""
    return _SlicePaths(
        os.path.join(run_dir, "slices", f"slice_{slice_id}.txt"),
        os.path.join(run_dir, "campaigns", f"campaign_{slice_id}.txt"),
        os.path.join(run_dir, "results", f"result_{slice_id}.json"),
        os.path.join(run_dir, "results", f"progress_{slice_id}.json"),
    )


class _SpecSlice(NamedTuple):
    """What a slice task needs to extract its traces from a constraint spec."""

    spec: ConstraintSpec
    quantum: float
    indices: Sequence[int]


@dataclass(slots=True)
class _SliceTask:
    slice_id: int
    size: int
    paths: _SlicePaths
    sigma: str
    order_mode: str
    order_seed: int
    model_seed: int
    # None for a file source, whose slice file prepare_slices writes.
    spec_slice: _SpecSlice | None = None


# manifest.jsonl, the one record of the slice set: slice i on line i.
_MANIFEST_KEYS = {"slice": _INT, "size": _SIZE}


def _write_manifest(run_dir: str, tasks: Sequence[_SliceTask]) -> None:
    with atomic_text_file(os.path.join(run_dir, "manifest.jsonl")) as fh:
        for task in tasks:
            entry = {"slice": task.slice_id, "size": task.size,
                     "order": task.order_mode, "seed": task.order_seed}
            fh.write(json.dumps(entry, sort_keys=True) + "\n")


# config.json as progress reads it: the claim already holds the slice count.
_SLICES_KEYS = {"slices": _SIZE}


def _read_slice_set(
    run_dir: str, stage: str, keys: dict[str, _Kind]
) -> tuple[dict, list[int]]:
    """The run's config.json, read through ``keys``, and the manifest
    size of each slice, by slice id: exactly config.json's ``slices``."""
    config = _read_json_object(os.path.join(run_dir, "config.json"), stage, keys)
    path = os.path.join(run_dir, "manifest.jsonl")
    with open(path, "r", encoding="utf-8") as fh:
        entries = [_read_json_object(path, stage, _MANIFEST_KEYS, line) for line in fh]
    if not entries or [e["slice"] for e in entries] != list(range(len(entries))):
        raise PipelineStageError(f"{stage} stage: {path}: slices not 0, 1, ... in order")
    if len(entries) != config["slices"]:
        raise PipelineStageError(f"{stage} stage: {path}: {len(entries)} slices, "
                                 f"not config.json's {config['slices']}")
    return config, [entry["size"] for entry in entries]


def slice_corpus(task: _SliceTask) -> TraceCorpus:
    """The slice's traces.  A slice file that exists (every file source,
    and a spec slice extracted by an earlier run) is read; otherwise the
    spec slice is extracted and written to its slice file."""
    path = task.paths.slice
    if task.spec_slice is None or os.path.exists(path):
        return read_trace_file(path)
    spec, quantum, indices = task.spec_slice
    traces = list(GeneratorTable(spec).extract(indices))
    alphabet = spec.alphabet
    write_trace_file(
        path, alphabet, quantum, (alphabet.format_line(t.symbols) for t in traces)
    )
    return TraceCorpus(alphabet, quantum, traces)


def plan_slice(
    corpus: TraceCorpus, order_mode: str, order_seed: int, sigma: str
) -> tuple[BranchTree, int | None]:
    """A slice's tree, built once from the slice in its verification order,
    and ``sigma`` resolved against the tree's capacity."""
    tree = build_tree(order_slice(corpus.traces, order_mode, order_seed))
    return tree, resolve_sigma(sigma, tree.capacity)


def _campaign_summary(campaign) -> dict:
    return {
        "length_q": campaign.length_quanta,
        "peak_stored": campaign.peak_stored,
        "counts": campaign.counts,
    }


def _baseline_summary(tree: BranchTree) -> dict:
    """``_campaign_summary`` of the sigma=1 campaign, counted instead of
    planned: the root is stored once, every trace after the first loads
    it and replays all of its constant runs, and the root is freed after
    its last use only when it is a shared prefix."""
    ordered = tree.traces
    n = len(ordered)
    counts = {
        "store": 1,
        "load": n - 1,
        # A list of the groups, not a generator over them: faster on both
        # short traces of many runs and long traces of few.
        "run": sum(len([*groupby(t.symbols)]) for t in ordered),
        "out": n,
        "free": int(tree.root_shared),
    }
    return {
        "length_q": sum(len(t.symbols) for t in ordered),
        "peak_stored": 1,
        "counts": {op: k for op, k in counts.items() if k},
    }


# results/progress_<i>.json: j of the slice's n traces verified.
_PROGRESS_KEYS = {"j": _INT, "n": _INT}


def _write_progress(task: _SliceTask, j: int, n: int) -> None:
    write_json_atomic({"slice": task.slice_id, "j": j, "n": n}, task.paths.progress)


# results/result_<i>.json counts only if its n is the slice's manifest size.
_RESULT_KEYS = {"n": _SIZE, "requested": _SUMMARY, "baseline": _SUMMARY,
                "unlimited": _SUMMARY}


def _read_result(path: str, size: int, stage: str) -> dict:
    result = _read_json_object(path, stage, _RESULT_KEYS)
    if result["n"] != size:
        raise PipelineStageError(f"{stage} stage: {path}: n is not the manifest's {size}")
    return result


def _run_slice_task(task: _SliceTask) -> None:
    corpus = slice_corpus(task)
    tree, resolved = plan_slice(corpus, task.order_mode, task.order_seed, task.sigma)
    ordered = tree.traces

    # Optimizing at any budget of at least the unlimited peak never meets
    # a full checkpoint index, so it reproduces the unlimited campaign.
    campaign = optimize_slice(tree, None, corpus.quantum, task.slice_id)
    unlimited_summary = _campaign_summary(campaign)
    if resolved is not None and resolved < campaign.peak_stored:
        # Only the unlimited campaign's summary is kept, so that a slice
        # task holds one campaign at a time.
        del campaign
        campaign = optimize_slice(tree, resolved, corpus.quantum, task.slice_id)
    write_campaign_file(campaign, task.paths.campaign)

    n = len(ordered)
    last_write = monotonic()
    _write_progress(task, 0, n)

    done = 0

    def on_out(obs: Observation) -> None:
        # A campaign that loads the wrong checkpoint still executes; only
        # the history each OUT replayed shows it.  So an OUT is counted as
        # progress only once it has replayed its trace.
        nonlocal done, last_write
        if done >= n or obs.symbols != ordered[done].symbols:
            raise PipelineStageError(
                f"execute stage: slice {task.slice_id}: OUT {done} does not "
                f"replay trace {done} of the verification order"
            )
        done += 1
        now = monotonic()
        if now - last_write >= PROGRESS_INTERVAL_S:
            _write_progress(task, done, n)
            last_write = now

    model = reference_model(corpus.alphabet, task.model_seed)
    result = execute(campaign, model, progress=on_out)
    if not result.executable:
        raise PipelineStageError(
            f"execute stage: slice {task.slice_id}: command "
            f"{result.failing_index} failed: {result.error}"
        )
    if len(result.observations) != n:
        raise PipelineStageError(
            f"execute stage: slice {task.slice_id}: "
            f"{len(result.observations)} OUTs for {n} traces"
        )
    _write_progress(task, done, n)

    payload = {
        "slice": task.slice_id,
        "n": n,
        "order": task.order_mode,
        "order_seed": task.order_seed,
        "capacity": tree.capacity,
        "shared_prefixes": tree.shared_prefix_count,
        "sigma_requested": task.sigma,
        "sigma_resolved": resolved,
        "requested": _campaign_summary(campaign),
        "baseline": _baseline_summary(tree),
        "unlimited": unlimited_summary,
        "execution": {
            "executable": result.executable,
            "outs": len(result.observations),
            "length_q": result.length_quanta,
            "peak_memory": result.peak_memory,
            "error": result.error,
            "first_tokens": [obs.token for obs in result.observations[:4]],
        },
    }
    write_json_atomic(payload, task.paths.result)


def prepare_slices(config: RunConfig) -> list[_SliceTask]:
    """Source + slice stages: the manifest, config.json and, for a trace
    file source, the slice files.

    Returns the per-slice task descriptions for the later stages; a
    constraint-spec slice is extracted and written by its task.
    """
    out = config.out_dir
    for sub in ("slices", "campaigns", "results"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)

    try:
        fingerprint = _run_fingerprint(config)
    except OSError as exc:
        raise PipelineStageError(f"source stage failed: {exc}") from exc
    _claim_out_dir(config, fingerprint)
    # Remove what a killed run left under temporary names: one run
    # directory serves one run at a time, so no live writer owns them.
    for sub in ("", "slices", "campaigns", "results"):
        pattern = os.path.join(glob.escape(out), sub, TEMP_PREFIX + "*")
        for path in glob.glob(pattern):
            (shutil.rmtree if os.path.isdir(path) else os.remove)(path)

    try:
        alphabet, quantum, spec, items = _materialize_source(config)
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(f"source stage failed: {exc}") from exc

    if config.slices > len(items):
        raise PipelineStageError(
            f"slice stage: {config.slices} slices for {len(items)} traces"
        )

    model_seed = config.seed if config.model_seed is None else config.model_seed
    tasks: list[_SliceTask] = []
    for i, (start, stop) in enumerate(slice_ranges(len(items), config.slices)):
        body = items[start:stop]
        task = _SliceTask(
            slice_id=i,
            size=stop - start,
            paths=_slice_paths(out, i),
            sigma=config.sigma,
            order_mode=config.order_mode,
            order_seed=slice_seed(config.seed, i),
            model_seed=model_seed,
            spec_slice=None if spec is None else _SpecSlice(spec, quantum, body),
        )
        if spec is None and not os.path.exists(task.paths.slice):
            write_trace_file(task.paths.slice, alphabet, quantum, body)
        tasks.append(task)
    _write_manifest(out, tasks)
    _write_config(config, fingerprint, n_total=len(items),
                  alphabet=list(alphabet.tokens), quantum=quantum)
    return tasks


def _has_result(task: _SliceTask) -> bool:
    """Whether the slice has a result that analyze can read."""
    with contextlib.suppress(OSError, PipelineStageError):
        _read_result(task.paths.result, task.size, "resume")
        return True
    return False


def run_pipeline(
    config: RunConfig,
    cost: CostModel = DEFAULT_COSTS,
    f_grid: Sequence[float] = DEFAULT_F_GRID,
) -> dict:
    """Run every stage; returns out_dir and the slice, trace and report row counts."""
    out = config.out_dir
    tasks = prepare_slices(config)
    todo = [t for t in tasks if not _has_result(t)]
    with contextlib.ExitStack() as stack:
        # The pool runs every submitted task to its end, even after a
        # failure; inline, the first failure stops the stage.
        if config.workers > 1 and todo:
            # Imported here, so that a process that never pools loads none
            # of concurrent.futures.
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(config.workers))
            runs = [pool.submit(_run_slice_task, t).result for t in todo]
        else:
            runs = [functools.partial(_run_slice_task, t) for t in todo]
        for task, run in zip(todo, runs):
            try:
                run()
            except Exception as exc:
                raise PipelineStageError(
                    f"slice stage failed for slice {task.slice_id}: {exc}"
                ) from exc

    rows = write_reports(
        [out], cost, f_grid,
        os.path.join(out, "report.csv"), os.path.join(out, "progress.csv"),
    )
    return {
        "out_dir": out,
        "slices": config.slices,
        "traces": sum(t.size for t in tasks),
        "report_rows": rows,
    }


def _slice_progress(run_dir: str, sizes: Sequence[int]) -> list[tuple[int, int, int]]:
    """Per-slice (slice, verified, size) for slices of these sizes.  A slice
    whose progress file is absent or counts another size has verified nothing."""
    entries = []
    for slice_id, size in enumerate(sizes):
        path = _slice_paths(run_dir, slice_id).progress
        done = 0
        if os.path.exists(path):
            data = _read_json_object(path, "progress", _PROGRESS_KEYS)
            if not 0 <= data["j"] <= data["n"]:
                raise PipelineStageError(
                    f"progress stage: {path}: j is not from 0 to n"
                )
            if data["n"] == size:
                done = data["j"]
        entries.append((slice_id, done, size))
    return entries


def read_progress(run_dir: str) -> list[tuple[int, int, int]]:
    """Per-slice (slice, verified, size) for every slice of the run."""
    _config, sizes = _read_slice_set(run_dir, "progress", _SLICES_KEYS)
    return _slice_progress(run_dir, sizes)


def analyze_runs(
    run_dirs: Sequence[str],
    cost: CostModel = DEFAULT_COSTS,
    f_grid: Sequence[float] = DEFAULT_F_GRID,
) -> tuple[list[dict], list[dict]]:
    """Report and progress rows for one or more pipeline output directories;
    ``metrics.report_rows`` computes the report rows."""
    runs, progress = [], []
    for run_dir in run_dirs:
        config, sizes = _read_slice_set(run_dir, "analyze", _CONFIG_KEYS)
        results = []
        for i, size in enumerate(sizes):
            path = _slice_paths(run_dir, i).result
            if not os.path.exists(path):
                raise PipelineStageError(f"analyze stage: missing result for slice {i}")
            results.append(_read_result(path, size, "analyze"))
        runs.append((config, results))
        progress += [{"slice": slice_id, "j": done, "n": size,
                      "op_bound": omission_probability([(done, size)])}
                     for slice_id, done, size in _slice_progress(run_dir, sizes)]
    return report_rows(runs, cost, f_grid), progress


def write_reports(
    run_dirs: Sequence[str], cost: CostModel, f_grid: Sequence[float],
    report_path: str, progress_path: str,
) -> int:
    """The analyze stage: write the report and progress CSV files of one or
    more runs; returns the number of report rows."""
    report, progress = analyze_runs(run_dirs, cost, f_grid)
    write_csv(report, report_path, REPORT_COLUMNS)
    write_csv(progress, progress_path, PROGRESS_COLUMNS)
    return len(report)


def overall_omission_bound(run_dir: str) -> float:
    """The any-time omission bound from the run's current progress files."""
    return omission_probability(
        [(done, size) for _slice, done, size in read_progress(run_dir)]
    )

