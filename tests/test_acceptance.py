"""Acceptance suite: one test per advertised guarantee of the package.

The optimality, fidelity, memory-bound, efficiency-curve, and inflation
checks all run against one shared randomized corpus of 200 slices
(module-scoped fixtures), so the whole suite stays under a minute or two.
Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per guarantee.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction
from typing import NamedTuple

import pytest
from util import random_traces, shared_prefix_map

from simcamp.engine import execute, reference_model
from simcamp.generator import ConstraintSpec, Dfa, GeneratorTable
from simcamp.metrics import CostModel, omission_probability, report_rows
from simcamp.oracles import (
    dfa_accepts,
    edge_count,
    naive_campaign,
    optimal_campaign_length,
    shared_prefix_counts,
)
from simcamp.optimizer import Campaign, optimize_slice
from simcamp.pipeline import _campaign_summary
from simcamp.slicing import order_slice
from simcamp.traces import Alphabet, InputTrace
from simcamp.tree import BranchTree, build_tree

CORPUS_SEED = 20260816
QUANTA = [0.1, 0.5, 1.0, 2.0]


class Case(NamedTuple):
    alphabet: Alphabet
    ordered: list[InputTrace]
    quantum: float
    tree: BranchTree
    optimal_quanta: int  # distinct non-empty prefixes == shortest possible length
    naive_quanta: int  # sum of horizons == replay-everything length


def _event_limit_dfa(alphabet_size: int, max_events: int) -> Dfa:
    """Accept words whose count of non-zero symbols is at most ``max_events``."""
    sink = max_events + 1
    step = []
    for s in range(max_events + 2):
        nxt = s + 1 if s < max_events else sink
        step.append(tuple([s] + [nxt if s != sink else sink] * (alphabet_size - 1)))
    return Dfa(
        num_states=max_events + 2,
        start=0,
        accepting=frozenset(range(max_events + 1)),
        step=tuple(step),
    )


def _event_slice(
    rng: random.Random, alphabet_size: int, horizon: int, max_events: int
) -> tuple[Alphabet, list[InputTrace]]:
    """A random lexicographic window of a bounded-disturbance scenario language.

    Mirrors the intended application: mostly-constant traces with a few
    symbol changes, extracted from a constraint generator and sliced
    contiguously, so shared prefixes are long and checkpoint values vary.
    """
    alphabet = Alphabet(tuple("abcd"[:alphabet_size]))
    spec = ConstraintSpec(
        alphabet=alphabet,
        horizon=horizon,
        monitors=(_event_limit_dfa(alphabet_size, max_events),),
    )
    table = GeneratorTable(spec)
    n = table.count()
    size = min(n, 2000)
    lo = rng.randint(0, n - size)
    return alphabet, [table.get(i) for i in range(lo, lo + size)]


@pytest.fixture(scope="module")
def corpus() -> tuple[list[Case], float]:
    """200 random slices: 3 large sparse, 134 small sparse, 63 scenario windows."""
    rng = random.Random(CORPUS_SEED)
    raw: list[tuple[Alphabet, list[InputTrace], float]] = []
    for size in (2000, 1200, 800):
        k = rng.randint(2, 4)
        h = rng.randint(10, 20)
        alphabet, traces = random_traces(rng, size, alphabet_size=k, max_horizon=h)
        rng.shuffle(traces)
        raw.append((alphabet, traces, rng.choice(QUANTA)))
    for i in range(197):
        if i % 3 == 0:
            k = rng.choice([2, 2, 3, 4])
            h = rng.randint(12, 20)
            e = rng.choice([1, 2, 2, 3])
            alphabet, traces = _event_slice(rng, k, h, e)
        else:
            size = rng.randint(20, 300)
            k = rng.randint(2, 4)
            h = rng.randint(4, 20)
            alphabet, traces = random_traces(rng, size, alphabet_size=k, max_horizon=h)
        rng.shuffle(traces)
        raw.append((alphabet, traces, rng.choice(QUANTA)))

    start = time.perf_counter()
    trees = [build_tree(sorted(tr, key=lambda t: t.symbols)) for _, tr, _ in raw]
    build_seconds = time.perf_counter() - start
    cases = [
        Case(a, tr, q, tree, edge_count(tr), sum(t.horizon for t in tr))
        for (a, tr, q), tree in zip(raw, trees)
    ]
    return cases, build_seconds


@pytest.fixture(scope="module")
def full_campaigns(corpus) -> tuple[list[Campaign], float]:
    """Every slice optimized with the whole tree storable."""
    cases, _ = corpus
    start = time.perf_counter()
    campaigns = [
        optimize_slice(c.ordered, c.tree, c.tree.capacity, c.quantum)
        for c in cases
    ]
    return campaigns, time.perf_counter() - start


def test_criterion_1_full_capacity_campaigns_are_shortest(corpus, full_campaigns):
    cases, build_seconds = corpus
    campaigns, optimize_seconds = full_campaigns
    assert len(cases) >= 200
    for case in cases:
        assert len(case.alphabet.tokens) <= 4
        assert len(case.ordered) <= 2000
        assert max(t.horizon for t in case.ordered) <= 20
    # Shortest possible length is one traversal of every distinct prefix;
    # with the whole tree storable the optimizer must reach it exactly.
    for case, campaign in zip(cases, campaigns):
        assert campaign.length_quanta == case.optimal_quanta
        assert campaign.quantum == case.quantum
    assert build_seconds + optimize_seconds < 60.0


def test_criterion_2_campaigns_replay_the_exact_slice(corpus, full_campaigns):
    cases, _ = corpus
    campaigns, _ = full_campaigns
    for i, (case, campaign) in enumerate(zip(cases, campaigns)):
        result = execute(campaign, reference_model(case.alphabet, seed=1000 + i))
        assert result.executable, result.error
        assert [obs.symbols for obs in result.observations] == [
            t.symbols for t in case.ordered
        ]


def test_criterion_3_memory_budget_is_respected(corpus):
    cases, _ = corpus
    totals = {0.25: 0, 0.5: 0}
    for i, case in enumerate(cases):
        cap = case.tree.capacity
        budgets = {p: max(1, int(p * cap + 0.5)) for p in totals}
        grid = sorted({1, 2, *budgets.values(), cap})
        lengths: dict[int, int] = {}
        for sigma in grid:
            campaign = optimize_slice(
                case.ordered, case.tree, sigma, case.quantum
            )
            result = execute(campaign, reference_model(case.alphabet, seed=i))
            assert result.executable, result.error
            assert result.peak_memory <= sigma
            assert campaign.length_quanta <= case.naive_quanta
            lengths[sigma] = campaign.length_quanta
        assert lengths[cap] <= lengths[1]
        for p, sigma in budgets.items():
            totals[p] += lengths[sigma]
    # The corpus totals of depth-gap eviction, the policy before furthest
    # next use: an eviction policy that loses to it in aggregate fails here.
    assert totals[0.25] <= 524_074
    assert totals[0.5] <= 423_453


def test_criterion_4_tree_matches_pairwise_prefix_oracle():
    rng = random.Random(4444)
    start = time.perf_counter()
    for i in range(500):
        size = rng.randint(150, 300) if i < 50 else rng.randint(2, 120)
        k = rng.randint(2, 4)
        h = rng.randint(3, 16)
        _, traces = random_traces(rng, size, alphabet_size=k, max_horizon=h)
        tree = build_tree(sorted(traces, key=lambda t: t.symbols))
        # Same node set and the same per-node trace counts.
        assert shared_prefix_map(tree) == shared_prefix_counts(traces)
    assert time.perf_counter() - start < 30.0


def test_criterion_5_complete_binary_corpus_speedup():
    alphabet = Alphabet.of("0", "1")
    traces = [InputTrace(alphabet, s) for s in itertools.product((0, 1), repeat=16)]
    start = time.perf_counter()
    tree = build_tree(traces)
    campaign = optimize_slice(traces, tree, tree.capacity, 1.0)
    result = execute(campaign, reference_model(alphabet, seed=5))
    elapsed = time.perf_counter() - start

    naive_quanta = 16 * 2**16
    assert naive_campaign(traces, 1.0).length_quanta == naive_quanta
    assert campaign.length_quanta == 2**17 - 2
    ratio = Fraction(naive_quanta, campaign.length_quanta)
    assert ratio == Fraction(16 * 2**16, 2**17 - 2)
    assert abs(float(ratio) - 8.0001) / 8.0001 < 0.001
    assert result.executable, result.error
    assert [obs.symbols for obs in result.observations] == [t.symbols for t in traces]
    assert elapsed < 300.0


def test_criterion_6_efficiency_survives_halved_memory(corpus):
    cases, _ = corpus
    seeds = range(5)
    pcts = (0.10, 0.25, 0.50, 0.75, 1.00)

    # Pass 1: per (slice, seed) random order, the unlimited-storage run gives
    # the shortest length and its peak; the largest peak over the corpus is
    # the least per-simulator budget under which every slice stays shortest.
    orders: dict[tuple[int, int], list[InputTrace]] = {}
    peaks: dict[tuple[int, int], int] = {}
    for si, case in enumerate(cases):
        for seed in seeds:
            order = list(case.ordered)
            random.Random(seed * 7919 + si).shuffle(order)
            orders[si, seed] = order
            unlimited = optimize_slice(order, case.tree, None, case.quantum)
            assert unlimited.length_quanta == case.optimal_quanta
            assert unlimited.peak_stored <= case.tree.capacity
            peaks[si, seed] = unlimited.peak_stored
    full_budget = {
        seed: max(peaks[si, seed] for si in range(len(cases))) for seed in seeds
    }

    # Pass 2: shrink the common budget to fractions of that least-full value.
    # A budget at or above a run's own peak reproduces the unlimited campaign
    # command for command (there is room at every store decision), so its
    # efficiency is exactly 1 without re-optimizing.
    sums = {p: 0.0 for p in pcts}
    samples = 0
    for seed in seeds:
        for si, case in enumerate(cases):
            cache: dict[int, int] = {}
            for p in pcts:
                sigma = max(1, int(p * full_budget[seed] + 0.5))
                if sigma >= peaks[si, seed]:
                    eff = 1.0
                else:
                    if sigma not in cache:
                        cache[sigma] = optimize_slice(
                            orders[si, seed], case.tree, sigma, case.quantum
                        ).length_quanta
                    eff = case.optimal_quanta / cache[sigma]
                sums[p] += eff
            samples += 1

    means = {p: sums[p] / samples for p in pcts}
    assert means[1.00] == 1.0
    assert means[0.50] >= 0.90
    for smaller, larger in zip(pcts, pcts[1:]):
        assert means[smaller] <= means[larger] + 1e-12


# The total over the budgets 1 < sigma < peak below of furthest-next-use
# eviction, the key before the effective next use: 4.65 % over the optimum.
# An eviction key that loses to it in aggregate fails here.
TOTAL_AT_FURTHEST_NEXT_USE = 29_062


def test_small_slice_campaigns_are_never_shorter_than_the_optimum():
    # The exact optimum under each budget, with the root held as
    # ``CheckpointIndex`` holds it.  A shorter campaign would be a replay
    # bug; at a budget the unlimited campaign fits in, nothing is lost.
    rng = random.Random(1966)
    start = time.perf_counter()
    planned = 0
    for _ in range(1500):
        _, traces = random_traces(
            rng, rng.randint(3, 8), alphabet_size=rng.randint(2, 3),
            max_horizon=rng.randint(1, 8),
        )
        ordered = order_slice(traces, "random", seed=rng.randrange(1 << 20))
        tree = build_tree(sorted(traces, key=lambda t: t.symbols))
        peak = optimize_slice(ordered, tree, None, 1.0).peak_stored
        for sigma in range(1, tree.capacity + 1):
            length = optimize_slice(ordered, tree, sigma, 1.0).length_quanta
            best = optimal_campaign_length(ordered, sigma)
            assert length >= best
            if sigma >= peak:
                assert length == best
            elif sigma > 1:
                planned += length
    assert planned <= TOTAL_AT_FURTHEST_NEXT_USE
    assert time.perf_counter() - start < 30.0


def test_criterion_7_speedup_decays_with_checkpoint_cost(corpus, full_campaigns):
    cases, _ = corpus
    campaigns, _ = full_campaigns
    unit = Fraction(1, 4)  # seconds per Load and per Store, Run fixed at 1/quantum
    f_grid = (1, 10, 50, 100)

    def checkpoint_cost(campaign: Campaign) -> Fraction:
        counts = campaign.counts
        return unit * (counts.get("load", 0) + counts.get("store", 0))

    for case, campaign in zip(cases, campaigns):
        naive = naive_campaign(case.ordered, case.quantum)
        assert naive.length_quanta == case.naive_quanta
        cost_naive = checkpoint_cost(naive)
        cost_opt = checkpoint_cost(campaign)
        speedups = [
            Fraction(naive.length_quanta + f * cost_naive)
            / Fraction(campaign.length_quanta + f * cost_opt)
            for f in f_grid
        ]
        for earlier, later in zip(speedups, speedups[1:]):
            assert earlier >= later

    # Constructed crossover corpus: a chain of nested traces makes the
    # optimizer trade one quantum of simulation per extra Load+Store, so
    # inflating checkpoint costs flips the optimization from a clear win
    # into a loss.
    chain_alphabet = Alphabet.of("a")
    chain = [InputTrace(chain_alphabet, (0,) * n) for n in range(1, 15)]
    chain_tree = build_tree(chain)
    chain_opt = optimize_slice(chain, chain_tree, chain_tree.capacity, 1.0)
    chain_naive = naive_campaign(chain, 1.0)
    assert chain_opt.length_quanta == 14
    assert chain_naive.length_quanta == 105

    def chain_speedup(f: int) -> Fraction:
        naive_time = chain_naive.length_quanta + f * checkpoint_cost(chain_naive)
        opt_time = chain_opt.length_quanta + f * checkpoint_cost(chain_opt)
        return Fraction(naive_time) / Fraction(opt_time)

    assert chain_speedup(1) == Fraction(435, 83)
    assert chain_speedup(1) > 5
    assert chain_speedup(100) == Fraction(480, 689)
    assert chain_speedup(100) < 1
    chain_curve = [chain_speedup(f) for f in f_grid]
    assert all(a >= b for a, b in zip(chain_curve, chain_curve[1:]))

    # The report's float arithmetic over the campaigns' summaries agrees
    # with the exact fractions.
    config = {"n_total": len(chain), "slices": 1, "seed": 0, "sigma": "capacity"}
    result = {
        "requested": _campaign_summary(chain_opt),
        "baseline": _campaign_summary(chain_naive),
        "unlimited": _campaign_summary(chain_opt),
    }
    rows = report_rows([(config, [result])], CostModel(load=0.25, store=0.25), f_grid)
    table = [(r["f"], r["speedup"]) for r in rows if r["sigma"] == "capacity"]
    assert [f for f, _ in table] == list(f_grid)
    for (_, observed), exact in zip(table, chain_curve):
        assert abs(observed - float(exact)) < 1e-9


def test_criterion_8_omission_probability_formula_and_law():
    # Closed-form checks.
    assert omission_probability([(10, 10), (7, 7)]) == 0.0
    assert omission_probability([(0, 10), (10, 10)]) == 1.0
    assert omission_probability([(5, 10), (9, 10)]) == 0.5

    # Empirical law: plant one failing trace uniformly among n slots; it
    # escapes the first j verified exactly when its slot index is >= j.
    rng = random.Random(CORPUS_SEED)
    n, trials = 1000, 10_000
    positions = [rng.randrange(n) for _ in range(trials)]
    for j in (100, 500, 900):
        expected = omission_probability([(j, n)])  # == 1 - j/n
        observed = sum(1 for pos in positions if pos >= j) / trials
        stderr = math.sqrt(expected * (1 - expected) / trials)
        assert abs(observed - expected) <= 3 * stderr


def test_criterion_9_generator_matches_brute_force():
    rng = random.Random(909)
    nontrivial = 0
    for _ in range(20):
        k = rng.choice([2, 3])
        h = rng.randint(3, 8)
        monitors = []
        for _ in range(rng.randint(1, 2)):
            m = rng.randint(1, 3)
            step = tuple(
                tuple(rng.randrange(m) for _ in range(k)) for _ in range(m)
            )
            accepting = frozenset(s for s in range(m) if rng.random() < 0.7)
            monitors.append(
                Dfa(num_states=m, start=0, accepting=accepting, step=step)
            )
        spec = ConstraintSpec(
            alphabet=Alphabet(tuple("abc"[:k])),
            horizon=h,
            monitors=tuple(monitors),
        )
        table = GeneratorTable(spec)
        count = table.count()
        assert count <= 10_000
        brute = [
            word
            for word in map(bytes, itertools.product(range(k), repeat=h))
            if all(dfa_accepts(d, word) for d in monitors)
        ]
        assert count == len(brute)
        extracted = [table.get(i) for i in range(count)]
        assert [t.symbols for t in extracted] == brute
        for t in extracted:
            assert all(dfa_accepts(d, t.symbols) for d in monitors)
        nontrivial += bool(count)
    assert nontrivial >= 10
