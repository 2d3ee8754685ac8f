"""The benchmark's workloads: seeded inputs, simcamp commands, and checks.

Each workload writes its input file from the seed, names the simcamp CLI
commands one workload run executes (each in a fresh process), and checks
that run's outputs with the gate.  ``check`` returns the run's campaign
quality (``length_q``, ``speedup``, ``mem_eff``) and the counters that are
read from the files the run wrote.
"""

from __future__ import annotations

import csv
import itertools
import json
import marshal
import os
import random
import shlex
import sys
from dataclasses import dataclass
from typing import Sequence

from gate import (
    Gate,
    GateError,
    Trace,
    capacity,
    distinct_prefix_quanta,
    expected_tokens,
    negative_check,
    random_order,
    read_campaign,
    slice_seed,
)


@dataclass
class Step:
    """One simcamp CLI command, run in its own process."""

    argv: list[str]
    sort_budget: int | None = None


@dataclass
class Inputs:
    """A workload's generated input for one seed, and what it implies."""

    path: str
    tokens: tuple[str, ...]
    traces: list[Trace]  # sorted, distinct
    seed: int
    token_of: dict[Trace, str]
    order: list[Trace] | None = None  # file order, where the workload uses it


@dataclass
class Outcome:
    """What one workload run produced, as read from its output files."""

    length_q: int = 0
    speedup: float = 0.0
    mem_eff: float = 0.0
    slices: int = 0
    shared_prefixes: int = 0
    commands: int = 0
    stores: int = 0
    loads: int = 0
    dead_frees: int = 0
    evictions: int = 0

    def quality(self) -> tuple[float, float, float]:
        return (self.length_q, self.speedup, self.mem_eff)

    def counters(self) -> dict[str, int]:
        return {
            "tree.shared_prefixes": self.shared_prefixes,
            "optimizer.commands": self.commands,
            "optimizer.stores": self.stores,
            "optimizer.loads": self.loads,
            "optimizer.dead_frees": self.dead_frees,
            "optimizer.evictions": self.evictions,
        }


def _write_trace_file(path: str, tokens: Sequence[str], traces) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#alphabet={','.join(tokens)};q=1\n")
        for trace in traces:
            fh.write(",".join(tokens[s] for s in trace) + "\n")


def _inputs(path, tokens, traces, seed, order=None) -> Inputs:
    from simcamp.engine import reference_model
    from simcamp.traces import Alphabet

    model = reference_model(Alphabet(tokens), seed)
    return Inputs(path, tokens, traces, seed, expected_tokens(traces, model), order)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _check_observations(gate: Gate, path: str, where: str, order, inputs: Inputs):
    """The program's own observations, saved by the child, against the order
    the campaign promised and the directly simulated tokens."""
    with open(path, "rb") as fh:
        tokens, symbols = marshal.load(fh)
    gate.check(
        f"{where}: observation symbols equal the verification order",
        symbols == [bytes(t) for t in order],
    )
    gate.check(
        f"{where}: observation tokens equal a direct model simulation",
        tokens == [inputs.token_of[t] for t in order],
    )
    return tokens, symbols


class PipelineWorkload:
    """``simcamp pipeline`` on a generated source file."""

    def __init__(self, name, why, generate, slices, workers, sigma, sort_share=None):
        self.name = name
        self.why = why
        self._generate = generate
        self.slices = slices
        self.workers = workers
        self.sigma = sigma
        self.sort_share = sort_share

    def generate(self, seed: int, work_dir: str) -> Inputs:
        path = os.path.join(work_dir, "input.txt")
        tokens, traces = self._generate(seed, path)
        return _inputs(path, tokens, traces, seed)

    def steps(self, inputs: Inputs, out_dir: str, in_process: bool) -> list[Step]:
        workers = 1 if in_process else self.workers
        argv = [
            "pipeline", "--in", inputs.path, "--out-dir", out_dir,
            "--slices", str(self.slices), "--workers", str(workers),
            "--sigma", self.sigma, "--order", "random", "--seed", str(inputs.seed),
        ]
        budget = None
        if self.sort_share is not None:
            budget = int(sum(map(len, inputs.traces)) * self.sort_share)
        return [Step(argv, budget)]

    def check(self, gate: Gate, inputs: Inputs, out_dir: str, obs_dir: str,
              stdouts: list[str], first: bool) -> Outcome:
        outcome = Outcome(slices=self.slices)
        manifest_path = os.path.join(out_dir, "manifest.jsonl")
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = [json.loads(line) for line in fh if line.strip()]
        gate.check("manifest lists every slice", len(manifest) == self.slices)

        expected_lines = [
            ",".join(inputs.tokens[s] for s in t) + "\n" for t in inputs.traces
        ]
        header = f"#alphabet={','.join(inputs.tokens)};q=1\n"
        start = 0
        bounds = []
        ok = True
        for i in range(self.slices):
            with open(os.path.join(out_dir, "slices", f"slice_{i}.txt"), "r",
                      encoding="utf-8") as fh:
                lines = fh.readlines()
            body = lines[1:]
            ok &= lines[:1] == [header] and bool(body)
            ok &= body == expected_lines[start:start + len(body)]
            ok &= manifest[i]["size"] == len(body)
            bounds.append((start, start + len(body)))
            start += len(body)
        gate.check("slices partition the sorted corpus", ok and start == len(expected_lines))

        for i, (lo, hi) in enumerate(bounds):
            where = f"slice {i}"
            members = inputs.traces[lo:hi]
            seed_i = slice_seed(inputs.seed, i)
            gate.check(f"{where}: manifest order seed", manifest[i]["seed"] == seed_i)
            order = random_order(members, seed_i)
            sigma = capacity(members) if self.sigma == "capacity" else int(self.sigma)
            campaign_path = os.path.join(out_dir, "campaigns", f"campaign_{i}.txt")
            try:
                replay = read_campaign(campaign_path, inputs.tokens)
            except GateError as exc:
                gate.check(f"{where}: campaign replays", False, str(exc))
                continue
            gate.check(f"{where}: campaign replays the verification order",
                       replay.outs == order)
            gate.check(f"{where}: campaign peak <= sigma", replay.peak <= sigma,
                       f"{replay.peak} > {sigma}")
            if first and i == 0:
                negative_check(gate, campaign_path, inputs.tokens, order)

            result = _load_json(os.path.join(out_dir, "results", f"result_{i}.json"))
            execution = result["execution"]
            gate.check(f"{where}: executed every trace",
                       execution["executable"] and execution["outs"] == len(members))
            gate.check(f"{where}: executed peak <= sigma",
                       execution["peak_memory"] <= sigma)
            gate.check(
                f"{where}: lengths agree with the campaign",
                execution["length_q"] == replay.length_q
                == result["requested"]["length_q"],
            )
            tokens, _ = _check_observations(
                gate, os.path.join(obs_dir, f"obs_{i}.marshal"), where, order, inputs
            )
            gate.check(f"{where}: result first_tokens", execution["first_tokens"] == tokens[:4])

            outcome.length_q += replay.length_q
            outcome.shared_prefixes += result["shared_prefixes"]
            outcome.commands += replay.commands
            outcome.stores += replay.counts["STORE"]
            outcome.loads += replay.counts["LOAD"]
            outcome.dead_frees += replay.dead_frees
            outcome.evictions += replay.evictions

        naive = sum(map(len, inputs.traces))
        gate.check("length_q <= sum of horizons", outcome.length_q <= naive)
        with open(os.path.join(out_dir, "report.csv"), "r", encoding="utf-8") as fh:
            rows = [
                r for r in csv.DictReader(fh)
                if r["sigma"] == self.sigma and float(r["f"]) == 1.0
            ]
        gate.check("report.csv has the requested row at f=1", len(rows) == 1)
        outcome.speedup = float(rows[0]["speedup"])
        outcome.mem_eff = float(rows[0]["mem_eff"])
        return outcome


class DriverWorkload:
    """``simcamp optimize`` on one slice file, then ``simcamp execute`` over
    the line protocol to the bundled echo driver."""

    name = "driver_replay"
    why = (
        "complete binary corpus, depth 13, one slice (8,192 traces): optimize at "
        "capacity, execute via echo driver; only the line protocol and campaign I/O work"
    )
    depth = 13

    def generate(self, seed: int, work_dir: str) -> Inputs:
        path = os.path.join(work_dir, "input.txt")
        tokens = ("a", "b")
        traces = list(itertools.product(range(2), repeat=self.depth))
        order = list(traces)
        random.Random(seed).shuffle(order)
        _write_trace_file(path, tokens, order)
        return _inputs(path, tokens, traces, seed, order)

    def steps(self, inputs: Inputs, out_dir: str, in_process: bool) -> list[Step]:
        campaign = os.path.join(out_dir, "campaign.txt")
        alphabet = ",".join(inputs.tokens)
        driver = shlex.join([
            sys.executable, "-m", "simcamp.echo_driver",
            "--seed", str(inputs.seed), "--alphabet", alphabet,
        ])
        return [
            Step(["optimize", "--slice", inputs.path, "--sigma", "capacity",
                  "--out", campaign]),
            Step(["execute", "--campaign", campaign, "--alphabet", alphabet,
                  "--driver", driver]),
        ]

    def check(self, gate: Gate, inputs: Inputs, out_dir: str, obs_dir: str,
              stdouts: list[str], first: bool) -> Outcome:
        from simcamp.engine import execute, reference_model
        from simcamp.optimizer import read_campaign_file
        from simcamp.traces import Alphabet

        optimized, executed = (json.loads(text) for text in stdouts)
        order = inputs.order
        sigma = capacity(inputs.traces)
        campaign_path = os.path.join(out_dir, "campaign.txt")
        replay = read_campaign(campaign_path, inputs.tokens)
        gate.check("campaign replays the file order", replay.outs == order)
        gate.check("campaign peak <= capacity", replay.peak <= sigma)
        gate.check("optimize reports the campaign it wrote",
                   optimized["length_q"] == replay.length_q
                   and optimized["commands"] == replay.commands
                   and optimized["sigma"] == sigma)
        if first:
            negative_check(gate, campaign_path, inputs.tokens, order)
        gate.check("external execution completed",
                   executed["executable"] and executed["outs"] == len(order))
        gate.check("external peak <= capacity", executed["peak_memory"] <= sigma)
        gate.check("external length agrees", executed["length_q"] == replay.length_q)
        tokens, symbols = _check_observations(
            gate, os.path.join(obs_dir, "obs_0.marshal"), "external", order, inputs
        )
        alphabet = Alphabet(inputs.tokens)
        local = execute(
            read_campaign_file(campaign_path, alphabet),
            reference_model(alphabet, inputs.seed),
        )
        gate.check(
            "external observations equal an in-process execute",
            tokens == [o.token for o in local.observations]
            and symbols == [bytes(o.symbols) for o in local.observations],
        )

        naive = sum(map(len, inputs.traces))
        gate.check("length_q <= sum of horizons", replay.length_q <= naive)
        return Outcome(
            length_q=replay.length_q,
            # With the default cost model (run = 1 s per quantum, checkpoints
            # free), time is length: the sigma=1 baseline replays every trace
            # in full, and the unlimited campaign simulates each prefix once.
            speedup=naive / replay.length_q,
            mem_eff=distinct_prefix_quanta(inputs.traces) / replay.length_q,
            slices=1,
            shared_prefixes=optimized["shared_prefixes"],
            commands=replay.commands,
            stores=replay.counts["STORE"],
            loads=replay.counts["LOAD"],
            dead_frees=replay.dead_frees,
            evictions=replay.evictions,
        )


def _spec_inputs(seed: int, path: str, horizon: int = 14):
    """Alphabet a,b,c; one 3-state monitor rejecting two consecutive non-a
    symbols.  Returns the accepted set, sorted.

    The spec ignores the seed: generation work depends on which symbol the
    monitor leaves free, so a seeded spec would make timings vary by seed.
    The seed reaches this workload through the pipeline's order and model
    seeds."""
    tokens = ("a", "b", "c")
    lines = ["alphabet=a,b,c", f"horizon={horizon}", "states=3", "start=0", "accept=0,1"]
    for state in range(3):
        for u, tok in enumerate(tokens):
            nxt = 2 if state == 2 else (0 if u == 0 else state + 1)
            lines.append(f"{state} {tok} -> {nxt}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    traces: list[Trace] = []

    def extend(prefix: list[int], last_a: bool) -> None:
        if len(prefix) == horizon:
            traces.append(tuple(prefix))
            return
        for u in range(3):
            if u == 0 or last_a:
                prefix.append(u)
                extend(prefix, u == 0)
                prefix.pop()

    extend([], True)
    return tokens, traces


def _tight_inputs(seed: int, path: str, count: int = 2000, horizon: int = 600,
                  grid: int = 20):
    """Distinct piecewise-constant traces over a,b,c,d: 1-6 symbol switches
    on a 20-point time grid.  Written unsorted; returns them sorted."""
    tokens = ("a", "b", "c", "d")
    rng = random.Random(seed)
    step = horizon // grid
    seen: set[Trace] = set()
    traces: list[Trace] = []
    while len(traces) < count:
        cuts = sorted(rng.sample(range(1, grid), rng.randint(1, 6))) + [grid]
        symbol = rng.randrange(4)
        symbols: list[int] = []
        previous = 0
        for cut in cuts:
            symbols += [symbol] * ((cut - previous) * step)
            previous = cut
            symbol = (symbol + rng.randrange(1, 4)) % 4
        trace = tuple(symbols)
        if trace not in seen:
            seen.add(trace)
            traces.append(trace)
    _write_trace_file(path, tokens, traces)
    return tokens, sorted(traces)


WORKLOADS = {
    w.name: w
    for w in (
        PipelineWorkload(
            "spec_pipeline",
            "constraint spec a,b,c, H=14, one 3-state monitor (21,845 traces); "
            "pipeline --slices 4 --workers 2 --sigma capacity: generator-bound "
            "set-up, parallel pool path",
            _spec_inputs, slices=4, workers=2, sigma="capacity",
        ),
        PipelineWorkload(
            "sorted_tight",
            "2,000 traces, H=600 over a,b,c,d; pipeline --slices 2 --workers 1 "
            "--sigma 64, sort budget 1/8: external sort, eviction path, long "
            "histories, no generator",
            _tight_inputs, slices=2, workers=1, sigma="64", sort_share=1 / 8,
        ),
        DriverWorkload(),
    )
}
