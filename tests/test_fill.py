"""Shared bucket fill: one label search per block and dominance signature
must give every bucket exactly the representative that its own
box-restricted search gives."""

import json
import random
from fractions import Fraction

import pytest

from nestedcg import driver, mpcvrp, pricing, synth
from nestedcg.buckets import (
    COMPUTED,
    EMPTY,
    FRESH,
    Partition,
    Representative,
    compute_representative,
)
from nestedcg.labeling import elementary_rcspp
from nestedcg.pricing import AdaptivePricer, PricingConfig


def _reference_fill(problem, buckets, duals, banned=frozenset()):
    """Per-bucket fill: one box-restricted search for every bucket."""
    for b in buckets:
        if b.status == EMPTY:
            continue
        found = elementary_rcspp(
            problem, b.block, duals, contribution_box=b.box, banned=banned, top_k=1
        )
        if found:
            b.status, b.rep = COMPUTED, Representative(*found[0])
        else:
            b.status, b.rep = EMPTY, None
    return [b.rep for b in buckets]


def _quarter(problem):
    return tuple(max(1, (hi - lo + 1) // 4) for lo, hi in problem.contribution_box())


def _routing(n, seed):
    return mpcvrp.build_nested(mpcvrp.generate_instance(
        n=n, days=2, vehicles=2, delta=Fraction(1, 2), seed=seed
    ))


def _span(seed):
    return synth.build_span_problem(synth.random_span_instance(seed))


PROBLEMS = {
    "tiny": synth.random_tiny_instance,
    "chain": synth.random_chain_instance,
    "span": _span,
    "mpcvrp4": lambda seed: _routing(4, seed),
    "mpcvrp5": lambda seed: _routing(5, seed),
}


def _stale(pricer, banned):
    return [
        b for b in pricer.partition.all_buckets()
        if b.status == FRESH or (
            b.status == COMPUTED and banned.intersection(b.rep.subpath.nodes)
        )
    ]


def _fill_and_compare(problem, pricer, scaled, banned):
    """Run the pricer's shared fill and check every filled bucket against
    its own search; returns (searches, buckets filled)."""
    want = {}
    for b in _stale(pricer, banned):
        found = elementary_rcspp(
            problem, b.block, scaled, contribution_box=b.box, banned=banned, top_k=1
        )
        want[b] = None if not found else (
            found[0][0].nodes, found[0][0].cost, found[0][0].contributions,
            found[0][1],
        )
    searches = pricer.totals["fill_searches"]
    pricer._compute_fresh(scaled, banned)
    for b, expected in want.items():
        if expected is None:
            assert b.status == EMPTY and b.rep is None
        else:
            assert b.status == COMPUTED
            sp = b.rep.subpath
            assert (sp.nodes, sp.cost, sp.contributions, b.rep.rcost) == expected
    return pricer.totals["fill_searches"] - searches, len(want)


@pytest.mark.parametrize("family", sorted(PROBLEMS))
def test_shared_fill_matches_per_bucket_search(family):
    searches = filled = 0
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        problem = PROBLEMS[family](seed)
        pricer = AdaptivePricer(problem, PricingConfig(width=_quarter(problem)))
        pricer.partition = Partition.initial(problem, _quarter(problem))
        banned = frozenset()
        for round_ in range(4):
            if round_:
                # new duals make every representative stale; bans only grow
                for b in pricer.partition.all_buckets():
                    if b.status == COMPUTED:
                        b.status = FRESH
                if rng.random() < 0.5:
                    banned |= {rng.choice(problem.elements)}
            scaled = synth.random_duals(problem, 100 * seed + round_).scaled()
            s, f = _fill_and_compare(problem, pricer, scaled, banned)
            searches, filled = searches + s, filled + f

            # split some buckets both ways, fill the children, then merge
            for b in list(pricer.partition.all_buckets()):
                if b.lo == b.hi or rng.random() < 0.6:
                    continue
                if b.status == COMPUTED and rng.random() < 0.5:
                    pricer.partition.refine_bucket(b, "representative")
                else:
                    pricer.partition.refine_bucket(b, "midpoint")
            s, f = _fill_and_compare(problem, pricer, scaled, banned)
            searches, filled = searches + s, filled + f
            for bi in range(len(problem.blocks)):
                pricer.partition.merge_pass(bi, lambda lo, up: rng.random() < 0.5)
            pricer.partition.validate()
    assert searches < filled, "no two buckets ever shared a search"


def test_lone_bucket_and_list_calls_agree():
    problem = _span(1)
    scaled = synth.random_duals(problem, 5).scaled()
    width = _quarter(problem)
    one, many = Partition.initial(problem, width), Partition.initial(problem, width)
    for lone, b in zip(one.all_buckets(), many.all_buckets()):
        assert compute_representative(problem, [b], scaled) == [
            compute_representative(problem, lone, scaled)
        ]
        assert b.status == lone.status


@pytest.mark.parametrize("build", [lambda: _span(1), lambda: mpcvrp.build_nested(
    mpcvrp.generate_instance(n=6, days=2, vehicles=3, delta=Fraction(9, 10), seed=1)
)], ids=["span1", "mpcvrp6"])
def test_solve_traces_match_the_per_bucket_fill(build, monkeypatch):
    def run():
        problem = build()
        config = driver.DriverConfig(
            pricer="adaptive",
            pricing=PricingConfig(width=_quarter(problem)),
            dive=True,
        )
        return driver.solve(problem, config)

    shared = run()
    monkeypatch.setattr(pricing, "compute_representative", _reference_fill)
    reference = run()
    assert shared.trace_lines() == reference.trace_lines()
    assert (shared.lp_value, shared.dive) == (reference.lp_value, reference.dive)


def test_fill_counters_are_in_every_adaptive_trace_row():
    problem = _routing(5, 1)
    config = driver.DriverConfig(
        pricer="adaptive", pricing=PricingConfig(width=_quarter(problem)), dive=True
    )
    report = driver.solve(problem, config)
    rows = [json.loads(line) for line in report.trace_lines()]
    assert rows
    for row in rows:
        assert row["fill_searches"] <= row["rep_computations"]
        assert not [key for key in row if key.startswith("time_")]
    stats = report.pricer_stats
    assert 0 < stats["fill_searches"] < stats["rep_computations"]
