"""Acceptance gate: ten end-to-end criteria.

Each ``test_criterion_NN`` function is one criterion; the terminal
summary (see conftest) prints one PASS/FAIL line per criterion.  The
corpora are deliberately desk-scale so every expected value comes from
an exhaustive, independently coded oracle.
"""

import csv
import itertools
import math
from fractions import Fraction
from functools import lru_cache

import pytest

from nestedcg import driver, mpcvrp, synth
from nestedcg.buckets import COMPUTED, Partition, compute_representative
from nestedcg.cli import ExperimentSpec, run_experiment
from nestedcg.labeling import label_search
from nestedcg.pricing import AdaptivePricer, PricingConfig, _layers, _path_rules

REL_TOL = 1e-6


def _rel_width(problem, tiles=4):
    """Initial bucket width splitting each coordinate into ~`tiles` tiles."""
    return tuple(
        max(1, (hi - lo + 1) // tiles) for lo, hi in problem.contribution_box()
    )


# ---------------------------------------------------------------------------
# corpora (built once, shared across criteria)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _pricing_pairs():
    """200 (instance, duals) pairs on instances with at most 3 blocks and
    at most 8 feasible subpaths per block."""
    pairs = []
    for seed in range(1, 41):
        problem = synth.random_tiny_instance(seed, max_subpaths_per_block=8)
        for round_ in range(5):
            duals = synth.random_duals(problem, 7919 * seed + round_)
            pairs.append((problem, duals))
    return tuple(pairs)


@lru_cache(maxsize=None)
def _span_corpus():
    return tuple(
        (f"span{seed}", synth.random_span_instance(seed)) for seed in range(1, 9)
    )


@lru_cache(maxsize=None)
def _cg_corpus():
    """50 synthetic problems plus 24 routing instances (n <= 6 per day,
    T <= 3, K <= 3, three cap tightness levels), all with enumerable
    path sets."""
    entries = []
    for seed in range(1, 31):
        entries.append((f"tiny{seed}", synth.random_tiny_instance(seed)))
    for seed in range(1, 13):
        entries.append((f"chain{seed}", synth.random_chain_instance(seed)))
    for name, instance in _span_corpus():
        entries.append((name, synth.build_span_problem(instance)))
    for n, days, vehicles in ((4, 2, 2), (4, 3, 2), (5, 2, 2), (6, 2, 3)):
        for delta in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
            for seed in (1, 2):
                instance = mpcvrp.generate_instance(
                    n=n, days=days, vehicles=vehicles, delta=delta, seed=seed
                )
                entries.append((instance.name, mpcvrp.build_nested(instance)))
    return tuple(entries)


@lru_cache(maxsize=None)
def _cg_results():
    """Oracle LP plus three solver runs (adaptive-with-dive, enumerative,
    adaptive-with-merging) for every corpus problem."""
    results = {}
    for name, problem in _cg_corpus():
        oracle = synth.oracle_lp(problem)
        width = _rel_width(problem)
        adaptive = driver.solve(
            problem,
            driver.DriverConfig(pricing=PricingConfig(width=width), dive=True),
        )
        exact = driver.solve(problem, driver.DriverConfig(pricer="exact"))
        merged = driver.solve(
            problem,
            driver.DriverConfig(pricing=PricingConfig(width=width, merge=True)),
        )
        results[name] = (problem, oracle, adaptive, exact, merged)
    return results


def _frozen_trajectory(problem, duals):
    """Refine a fresh partition to closure under frozen duals.

    Returns the per-step optimistic and pessimistic bound sequences and
    the oracle minimum, all on the duals' common-denominator scale.  A
    pessimistic entry is None while no all-representative composition
    satisfies the path resources (no upper bound exists yet).
    """
    oracle = synth.oracle_min_rcost(problem, duals)
    assert oracle is not None, "corpus problems always admit a path"
    scaled = duals.scaled()
    partition = Partition.initial(problem, 10**9)
    for bucket in partition.all_buckets():
        compute_representative(problem, bucket, scaled)

    opts, pess = [], []
    for _ in range(500):
        live = [
            [b for b in partition.buckets(bi) if b.status == COMPUTED]
            for bi in range(len(problem.blocks))
        ]
        assert all(live)
        opt = label_search(
            _layers(live, lambda b: b.lo, lambda b: b.rep.rcost,
                    scaled.convexity),
            *_path_rules(problem),
        )
        pes = label_search(
            _layers(live, lambda b: b.rep.vector, lambda b: b.rep.rcost,
                    scaled.convexity),
            *_path_rules(problem),
        )
        opts.append(opt[0].rcost)
        pess.append(pes[0].rcost if pes else None)
        if pes and opt[0].rcost == pes[0].rcost:
            return opts, pess, oracle[0] * scaled.denom
        targets = [b for b in opt[0].nodes if not b.pinned]
        assert targets, "an open sandwich must leave something to refine"
        for bucket in targets:
            for child in partition.refine_bucket(bucket, "representative"):
                if child.rep is None:
                    compute_representative(problem, child, scaled)
    pytest.fail("sandwich did not close within the step budget")


@lru_cache(maxsize=None)
def _trajectories():
    return tuple(
        _frozen_trajectory(problem, duals) for problem, duals in _pricing_pairs()
    )


# ---------------------------------------------------------------------------
# criterion 1: pricing exactness
# ---------------------------------------------------------------------------


def test_criterion_1_pricing_exactness():
    pairs = _pricing_pairs()
    assert len(pairs) >= 200
    for problem, duals in pairs:
        oracle = synth.oracle_min_rcost(problem, duals)
        assert oracle is not None
        pricer = AdaptivePricer(
            problem,
            PricingConfig(width=_rel_width(problem, 3), until="closure"),
        )
        out = pricer.price(duals)
        assert not out.infeasible
        assert out.optimistic == out.pessimistic == oracle[0]
        assert bool(out.columns) == (oracle[0] < 0)


# ---------------------------------------------------------------------------
# criterion 2: bound sandwich
# ---------------------------------------------------------------------------


def test_criterion_2_bound_sandwich():
    for opts, pess, oracle in _trajectories():
        assert all(o <= oracle for o in opts)
        assert all(p >= oracle for p in pess if p is not None)


# ---------------------------------------------------------------------------
# criterion 3: refinement monotonicity
# ---------------------------------------------------------------------------


def test_criterion_3_refinement_monotonicity():
    for opts, pess, oracle in _trajectories():
        assert all(a <= b for a, b in zip(opts, opts[1:]))
        # once an upper bound exists, it persists and never worsens
        defined = [p for p in pess if p is not None]
        first = pess.index(defined[0])
        assert all(p is not None for p in pess[first:])
        assert all(a >= b for a, b in zip(defined, defined[1:]))
        assert opts[-1] == pess[-1] == oracle


# ---------------------------------------------------------------------------
# criterion 4: column-generation exactness
# ---------------------------------------------------------------------------


def test_criterion_4_column_generation_exactness():
    results = _cg_results()
    routing = [n for n in results if n.startswith("mpcvrp")]
    synthetic = [n for n in results if not n.startswith("mpcvrp")]
    assert len(routing) >= 20
    assert len(synthetic) >= 50
    for name, (problem, oracle, adaptive, exact, _) in results.items():
        assert adaptive.status == exact.status == oracle.status, name
        if oracle.status == "optimal":
            assert adaptive.lp_value == exact.lp_value, name
            assert math.isclose(
                float(adaptive.lp_value), oracle.value, rel_tol=REL_TOL
            ), name


# ---------------------------------------------------------------------------
# criterion 5: merge safety
# ---------------------------------------------------------------------------


def test_criterion_5_merge_safety():
    merges = 0
    for name, (_, _, adaptive, _, merged) in _cg_results().items():
        assert merged.status == adaptive.status, name
        assert merged.lp_value == adaptive.lp_value, name
        merges += merged.pricer_stats.get("merges", 0)
    assert merges > 0, "the sweep should find admissible merges somewhere"


def test_criterion_5_merge_safety_beyond_exact_limit():
    """Bucket counts above the exact-criterion limit switch merging to the
    resource-free bound; the final value must not move."""
    instance = mpcvrp.generate_instance(
        n=4, days=2, vehicles=2, delta=Fraction(9, 10), seed=1
    )
    problem = mpcvrp.build_nested(instance)
    config = PricingConfig(width=_rel_width(problem, 80), merge=True)
    report = driver.solve(problem, driver.DriverConfig(pricing=config))
    baseline = _cg_results()[instance.name][3]
    assert report.status == "optimal"
    assert report.lp_value == baseline.lp_value
    assert report.pricer_stats.get("merges", 0) > 0


# ---------------------------------------------------------------------------
# criterion 6: configuration grid integrity
# ---------------------------------------------------------------------------


def test_criterion_6_configuration_grid(tmp_path):
    spec = ExperimentSpec(
        name="grid",
        instance={
            "generator": "mpcvrp",
            "params": {"n": 4, "days": 2, "vehicles": 2, "delta": 0.9, "seed": 1},
        },
        pricer="adaptive",
        widths=(100, 250, 500),
        reuse=(False, True),
        midway=(False, True),
        merge=(False, True),
        out_dir=str(tmp_path / "grid-out"),
    )
    rows, failures = run_experiment(spec)
    assert failures == 0
    assert len(rows) == 24
    assert {row["status"] for row in rows} == {"optimal"}
    assert len({row["lp_value"] for row in rows}) == 1

    with (tmp_path / "grid-out" / "results.csv").open() as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == [
            "config", "pricer", "width", "reuse", "midway", "merge",
            "repetition", "status", "lp_value", "time_s", "iterations",
            "columns", "Fill", "Pess.", "Opt.", "Merge", "error",
        ]
        csv_rows = list(reader)
    assert len(csv_rows) == 24
    for row in csv_rows:
        shares = [float(row[c]) for c in ("Fill", "Pess.", "Opt.", "Merge")]
        assert sum(shares) == pytest.approx(1.0, abs=0.01)

    trace_lines = (tmp_path / "grid-out" / "traces.jsonl").read_text().splitlines()
    assert len(trace_lines) == 24


# ---------------------------------------------------------------------------
# criterion 7: refinement budget
# ---------------------------------------------------------------------------


def test_criterion_7_refinement_budget():
    for problem, duals in _pricing_pairs():
        pricer = AdaptivePricer(
            problem,
            PricingConfig(width=10**9, strategy="representative", until="closure"),
        )
        out = pricer.price(duals)
        assert not out.infeasible
        budgets = [
            len({
                tuple(x for vec in sp.contributions for x in vec)
                for sp in synth.enumerate_block_subpaths(problem, bi)
            })
            for bi in range(len(problem.blocks))
        ]
        assert out.stats["refinements"] <= sum(budgets)
        for bi, used in enumerate(pricer.refines_per_block):
            assert used <= budgets[bi]


# ---------------------------------------------------------------------------
# criterion 8: diving
# ---------------------------------------------------------------------------


def test_criterion_8_diving():
    successes = []
    for name, (problem, _, adaptive, _, _) in _cg_results().items():
        if adaptive.status != "optimal":
            continue
        dive = adaptive.dive
        assert dive is not None, name
        assert dive.status in ("integral", "dive_failed"), name
        if dive.status != "integral":
            continue
        assert dive.ip_value >= adaptive.lp_value, name
        if dive.gap is not None:
            assert dive.gap >= 0, name
        successes.append((name, problem, dive))
    assert len(successes) >= 10, "diving should succeed on a healthy share"

    gaps = []
    for name, problem, dive in successes:
        optimum = synth.oracle_ip(problem)
        if optimum.status != "optimal" or not optimum.value:
            continue
        # a feasible heuristic solution can never beat the exact optimum
        assert float(dive.ip_value) >= optimum.value - 1e-3, name
        gaps.append((float(dive.ip_value) - optimum.value) / optimum.value)
    assert gaps, "the corpus contains enumerable integer optima"
    within = sum(1 for gap in gaps if gap <= 0.05)
    assert within / len(gaps) >= 0.8


# ---------------------------------------------------------------------------
# criterion 9: two-dimensional resource correctness (span family)
# ---------------------------------------------------------------------------


def _span_times(instance):
    """Element id -> (start, end), mirroring the sequential id layout."""
    times = {}
    next_id = 0
    for tasks in instance.scenarios:
        for start, end in tasks:
            times[next_id] = (start, end)
            next_id += 1
    return times


def _duty_vector(times, nodes):
    return (
        max(times[v][1] for v in nodes),
        -min(times[v][0] for v in nodes),
    )


def test_criterion_9_span_feasibility_predicate():
    """The encoded two-coordinate predicate equals the task arithmetic
    (latest end minus earliest start) on every duty combination."""
    for name, instance in _span_corpus():
        problem = synth.build_span_problem(instance)
        times = _span_times(instance)
        resource = problem.path_resources[0]
        per_block = [
            synth.enumerate_block_subpaths(problem, bi)
            for bi in range(len(problem.blocks))
        ]
        for combo in itertools.product(*per_block):
            vectors = [_duty_vector(times, sp.nodes) for sp in combo]
            for sp, vector in zip(combo, vectors):
                assert sp.contributions == (vector,), name
            aggregate = tuple(max(coord) for coord in zip(*vectors))
            all_nodes = [v for sp in combo for v in sp.nodes]
            span = max(times[v][1] for v in all_nodes) - min(
                times[v][0] for v in all_nodes
            )
            assert resource.admits(aggregate) == (span <= instance.span_cap), name


def test_criterion_9_downward_closure_perturbation():
    """Swapping any duty of a feasible template for one whose contribution
    vector is componentwise smaller keeps the template feasible."""
    checked = 0
    for name, instance in _span_corpus():
        problem = synth.build_span_problem(instance)
        times = _span_times(instance)
        per_block = [
            synth.enumerate_block_subpaths(problem, bi)
            for bi in range(len(problem.blocks))
        ]
        block_vectors = [
            [(sp, _duty_vector(times, sp.nodes)) for sp in subs]
            for subs in per_block
        ]
        for combo in itertools.product(*per_block):
            all_nodes = [v for sp in combo for v in sp.nodes]
            span = max(times[v][1] for v in all_nodes) - min(
                times[v][0] for v in all_nodes
            )
            if span > instance.span_cap:
                continue
            for bi, chosen in enumerate(combo):
                base = _duty_vector(times, chosen.nodes)
                for alt, vector in block_vectors[bi]:
                    if alt is chosen or not all(
                        a <= b for a, b in zip(vector, base)
                    ):
                        continue
                    swapped = list(combo)
                    swapped[bi] = alt
                    nodes = [v for sp in swapped for v in sp.nodes]
                    new_span = max(times[v][1] for v in nodes) - min(
                        times[v][0] for v in nodes
                    )
                    assert new_span <= instance.span_cap, name
                    checked += 1
    assert checked > 0, "the perturbation must bite somewhere in the corpus"


def test_criterion_9_span_pricing_exactness_and_bounds():
    for name, instance in _span_corpus():
        problem = synth.build_span_problem(instance)
        for round_ in range(3):
            duals = synth.random_duals(problem, 104729 * round_ + 17)
            oracle = synth.oracle_min_rcost(problem, duals)
            assert oracle is not None, name
            pricer = AdaptivePricer(
                problem,
                PricingConfig(width=_rel_width(problem, 3), until="closure"),
            )
            out = pricer.price(duals)
            assert not out.infeasible
            assert out.optimistic == out.pessimistic == oracle[0], name

            opts, pess, target = _frozen_trajectory(problem, duals)
            defined = [p for p in pess if p is not None]
            assert all(o <= target for o in opts), name
            assert all(p >= target for p in defined), name
            assert all(a <= b for a, b in zip(opts, opts[1:])), name
            assert all(a >= b for a, b in zip(defined, defined[1:])), name


def test_criterion_9_span_column_generation():
    results = _cg_results()
    span_names = [name for name in results if name.startswith("span")]
    assert len(span_names) == 8
    for name in span_names:
        problem, oracle, adaptive, exact, merged = results[name]
        assert adaptive.status == exact.status == oracle.status == "optimal"
        assert adaptive.lp_value == exact.lp_value == merged.lp_value
        assert math.isclose(
            float(adaptive.lp_value), oracle.value, rel_tol=REL_TOL
        ), name


# ---------------------------------------------------------------------------
# criterion 10: determinism
# ---------------------------------------------------------------------------


def _fingerprint(problem, config):
    report = driver.solve(problem, config)
    return (
        report.status,
        report.lp_value,
        report.bound,
        report.iterations,
        report.columns_generated,
        report.misprices,
        report.pricer_stats.get("refinements"),
        tuple(report.trace_lines()),
    )


def test_criterion_10_determinism():
    builders = (
        lambda: synth.random_tiny_instance(5),
        lambda: synth.build_span_problem(synth.random_span_instance(3)),
        lambda: mpcvrp.build_nested(
            mpcvrp.generate_instance(
                n=4, days=2, vehicles=2, delta=Fraction(9, 10), seed=1
            )
        ),
    )
    configs = (
        lambda p: driver.DriverConfig(pricing=PricingConfig(width=_rel_width(p))),
        lambda p: driver.DriverConfig(
            pricing=PricingConfig(width=_rel_width(p, 8), merge=True, reuse=True),
            dive=True,
        ),
    )
    for build in builders:
        for make_config in configs:
            first_problem = build()
            first = _fingerprint(first_problem, make_config(first_problem))
            second_problem = build()
            second = _fingerprint(second_problem, make_config(second_problem))
            assert first == second
