"""Shared bucket fill: one label search per block must give every bucket
exactly the representative that its own box-restricted search gives, and
the cheapest in-box subpath of the exhaustive enumeration."""

import json
import random
from fractions import Fraction
from operator import add, le

import pytest

from nestedcg import buckets, driver, labeling, mpcvrp, pricing, synth
from nestedcg.buckets import (
    COMPUTED,
    EMPTY,
    FRESH,
    Partition,
    Representative,
)
from nestedcg.labeling import elementary_rcspp
from nestedcg.model import SUM, Arc, Block, Boundary, Duals, NestedProblem, PathResource
from nestedcg.pricing import AdaptivePricer, PricingConfig


def _reference_fill(problem, group, duals, banned=frozenset()):
    """Per-bucket fill: one box-restricted search for every bucket."""
    for b in group:
        if b.status == EMPTY:
            continue
        found = elementary_rcspp(problem, b.block, duals, boxes=[b.box], banned=banned)[0]
        if found is not None:
            b.status, b.rep = COMPUTED, Representative(*found)
        else:
            b.status, b.rep = EMPTY, None
    return [b.rep for b in group]


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


def _oracle_best(problem, bucket, scaled, banned):
    """(rcost, contributions, nodes) of the enumerated subpath in the
    bucket's box that sorts first, or None when the box holds none."""
    return min((
        (sp.cost * scaled.denom - sum(scaled.value(k) for k in sp.nodes),
         sp.contributions, sp.nodes)
        for sp in synth.enumerate_block_subpaths(problem, bucket.block, banned)
        if bucket.contains(sp.contributions)
    ), default=None)


def _fill_and_compare(problem, pricer, scaled, banned):
    """Run the pricer's shared fill and check every filled bucket against
    its own search and against the enumeration; returns (searches,
    buckets filled)."""
    want = {}
    for b in _stale(pricer, banned):
        found = elementary_rcspp(problem, b.block, scaled, boxes=[b.box], banned=banned)[0]
        want[b] = None if found is None else (
            found[0].nodes, found[0].cost, found[0].contributions, found[1],
        )
    fresh_blocks = {b.block for b in pricer.partition.all_buckets() if b.status == FRESH}
    searched = []                   # the block of every search the fill runs

    def search(problem, block, *args, **kwargs):
        searched.append(block)
        return elementary_rcspp(problem, block, *args, **kwargs)

    searches = pricer.totals["fill_searches"]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(buckets, "elementary_rcspp", search)
        pricer._compute_fresh(scaled, banned)
    for b, expected in want.items():
        oracle = _oracle_best(problem, b, scaled, banned)
        if expected is None:
            assert b.status == EMPTY and b.rep is None
            assert oracle is None
        else:
            assert b.status == COMPUTED
            sp = b.rep.subpath
            assert (sp.nodes, sp.cost, sp.contributions, b.rep.rcost) == expected
            assert (b.rep.rcost, sp.contributions, sp.nodes) == oracle
    searches = pricer.totals["fill_searches"] - searches
    assert sorted(searched) == sorted(fresh_blocks), "one search per stale block"
    assert searches == len(searched)
    return searches, len(want)


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


def test_a_tie_in_rcost_and_vector_goes_to_the_smaller_node_sequence():
    # (0, 1) and (1,) both cost 1 net of the dual and contribute (5,);
    # (1,) reaches element 1 first, yet (0, 1) sorts first
    block = Block(
        elements=(0, 1),
        arcs={(0, 1): Arc()},
        entry={0: Boundary(cost=2, path_deltas=((5,),)),
               1: Boundary(cost=1, path_deltas=((5,),))},
        exit={0: Boundary(cost=5)},
    )
    problem = NestedProblem(
        [block],
        path_resources=[PathResource(dim=1, agg=SUM, a=(1,), b=100, box=((0, 100),))],
    )
    found, rcost = elementary_rcspp(problem, 0, Duals({0: 1}), boxes=[((0, 100),)])[0]
    assert (rcost, found.contributions, found.nodes) == (1, (5,), (0, 1))


def test_the_fill_creates_no_label_beyond_the_completion_bound(monkeypatch):
    problem = mpcvrp.build_nested(mpcvrp.generate_instance(
        n=6, days=2, vehicles=3, delta=Fraction(9, 10), seed=1
    ))
    scaled = synth.random_duals(problem, 1).scaled()
    view = labeling.block_view(problem, 0)
    least = view.least_completion()
    assert all(view.coord_monotone)
    # the quarter-width boxes without the top one, filled together
    group, ref = (Partition.initial(problem, _quarter(problem)).buckets(0)[:-1]
                  for _ in range(2))
    top = [max(b.hi[c] for b in group) for c in range(problem.total_coords)]
    created = []

    class Recorded(labeling._Label):
        __slots__ = ()

        def __init__(self, node, rcost, res, *args, **kwargs):
            super().__init__(node, rcost, res, *args, **kwargs)
            created.append((node, res))

    with monkeypatch.context() as patch:
        patch.setattr(labeling, "_Label", Recorded)
        got = buckets.compute_representative(problem, group, scaled)
    assert created
    for node, res in created:
        assert all(map(le, map(add, res, least[node]), top)), (node, res)
    assert got == _reference_fill(problem, ref, scaled)
    assert any(got)


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
