"""Adaptive and enumerative pricers against the exhaustive oracle: bound
sandwich, closure exactness, refinement budgets, merge safety, reuse."""

import itertools
import math
import random
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction
from operator import le

import pytest
from helpers import (
    check_table,
    count_refinements,
    limited_subpaths,
    reduced_cost,
    replay_exact_calls,
    scaled,
    usable_subpaths,
)
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from nestedcg import driver, mpcvrp, synth
from nestedcg.buckets import COMPUTED, Partition, compute_representative
from nestedcg.labeling import BlockView, block_view, label_search
from nestedcg.model import (
    COVER,
    MAX,
    MILLI,
    PARTITION,
    SUM,
    Arc,
    Block,
    Boundary,
    Duals,
    ModelError,
    NestedProblem,
    PathResource,
    SubpathResource,
)
from nestedcg.pricing import (
    AdaptivePricer,
    ExactPricer,
    PricingConfig,
    PricingError,
    _front,
    _layers,
    _pareto_keep,
)

SEEDS = range(1, 13)


def _rel_width(problem, tiles):
    """Width that splits every contribution coordinate into ~`tiles` tiles."""
    return tuple(
        max(1, (hi - lo + 1) // tiles) for lo, hi in problem.contribution_box()
    )


def _case(seed):
    problem = synth.random_tiny_instance(seed)
    duals = synth.random_duals(problem, seed + 1000)
    return problem, duals


def _distinct_vectors(problem, block_index):
    return {
        sp.contributions
        for sp in synth.enumerate_block_subpaths(problem, block_index)
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_closure_equals_the_oracle(seed):
    problem, duals = _case(seed)
    oracle = synth.oracle_min_rcost(problem, duals)
    pricer = AdaptivePricer(problem, PricingConfig(width=_rel_width(problem, 3)))
    out = pricer.price(scaled(duals))
    if oracle is None:
        assert out.infeasible
        return
    assert not out.infeasible
    assert out.optimistic == oracle[0]
    assert bool(out.columns) == (oracle[0] < 0)
    for path in out.columns:
        assert reduced_cost(path, duals) < 0
    if oracle[0] < 0:
        assert min(reduced_cost(p, duals) for p in out.columns) == oracle[0]


@pytest.mark.parametrize("seed", SEEDS)
def test_column_mode_bounds_sandwich_the_oracle(seed):
    # The sandwich at four tiles: the optimistic bound and the cheapest
    # returned column (the pessimistic side) both meet the oracle.
    problem, duals = _case(seed)
    oracle = synth.oracle_min_rcost(problem, duals)
    out = AdaptivePricer(
        problem, PricingConfig(width=_rel_width(problem, 4))
    ).price(scaled(duals))
    if oracle is None:
        assert out.infeasible
        return
    assert out.optimistic <= oracle[0]
    assert oracle[0] <= out.optimistic
    for path in out.columns:
        assert reduced_cost(path, duals) < 0
    if oracle[0] < 0:
        assert oracle[0] <= min(reduced_cost(p, duals) for p in out.columns)
        assert min(reduced_cost(p, duals) for p in out.columns) <= oracle[0]
    else:
        assert not out.columns


@pytest.mark.parametrize("tiles", (1, 2, 7))
@pytest.mark.parametrize("strategy", ("representative", "midpoint"))
def test_closure_is_width_and_strategy_independent(tiles, strategy):
    for seed in (2, 5, 11):
        problem, duals = _case(seed)
        oracle = synth.oracle_min_rcost(problem, duals)
        cfg = PricingConfig(width=_rel_width(problem, tiles), strategy=strategy)
        out = AdaptivePricer(problem, cfg).price(scaled(duals))
        if oracle is None:
            assert out.infeasible
        else:
            assert out.optimistic == oracle[0]
            if oracle[0] < 0:
                assert min(reduced_cost(p, duals) for p in out.columns) == oracle[0]


@pytest.mark.parametrize("seed", SEEDS)
def test_exact_pricer_reports_the_oracle_bound(seed):
    problem, duals = _case(seed)
    pricer = ExactPricer(problem)
    rng = random.Random(seed)
    banned = frozenset()
    for _ in range(3):      # no bans, then growing ban sets
        oracle = synth.oracle_min_rcost(problem, duals, banned=banned)
        out = pricer.price(scaled(duals), banned)
        if oracle is None:
            assert out.infeasible
        else:
            assert out.optimistic == oracle[0]
            for path in out.columns:
                assert reduced_cost(path, duals) < 0
                assert banned.isdisjoint(path.covered)
        banned |= {rng.choice(problem.elements)}


@pytest.mark.parametrize("seed", (1, 4, 7, 9))
def test_refinement_is_monotone_under_frozen_duals(seed):
    problem, duals = _case(seed)
    oracle = synth.oracle_min_rcost(problem, duals)
    if oracle is None:
        pytest.skip("no feasible path for this seed")
    duals = scaled(duals)
    weights = [block_view(problem, bi).step_weights(duals) for bi in range(len(problem.blocks))]
    part = Partition.initial(problem, 10**9)  # one bucket per block to start
    for b in part.all_buckets():
        compute_representative(problem, [b], duals, weights[b.block])

    opts, pess = [], []
    for _ in range(200):
        live = [
            [b for b in part.buckets(bi) if b.status == COMPUTED]
            for bi in range(len(problem.blocks))
        ]
        assert all(live), "oracle found a path, so every block is alive"
        opt = label_search(
            _layers(live, lambda b: b.lo, lambda b: b.rep.rcost,
                    duals.convexity),
            problem.aggs, problem.predicates, problem.monotone,
        )
        pes = label_search(
            _layers(live, lambda b: b.rep.vector, lambda b: b.rep.rcost,
                    duals.convexity),
            problem.aggs, problem.predicates, problem.monotone,
        )
        opts.append(opt[0].rcost)
        pess.append(pes[0].rcost)
        if opt[0].rcost == pes[0].rcost:
            break
        targets = [b for b in opt[0].nodes if not b.pinned]
        assert targets, "an open sandwich must leave something to refine"
        for bucket in targets:
            for child in part.refine_bucket(bucket, "representative"):
                if child.rep is None:
                    compute_representative(problem, [child], duals, weights[child.block])
    else:
        pytest.fail("sandwich did not close")

    scale = duals.denom
    assert all(a <= b for a, b in zip(opts, opts[1:]))
    assert all(a >= b for a, b in zip(pess, pess[1:]))
    assert all(o <= oracle[0] * scale <= p for o, p in zip(opts, pess))
    assert opts[-1] == oracle[0] * scale


@pytest.mark.parametrize("seed", SEEDS)
def test_refinements_never_exceed_distinct_vectors(seed, monkeypatch):
    problem, duals = _case(seed)
    refines = count_refinements(monkeypatch)
    cfg = PricingConfig(width=10**6, strategy="representative")
    out = AdaptivePricer(problem, cfg).price(scaled(duals))
    if out.infeasible:
        pytest.skip("no feasible path for this seed")
    for bi in range(len(problem.blocks)):
        assert refines[bi] <= len(_distinct_vectors(problem, bi))


def test_merge_keeps_closure_exact_across_calls():
    merged_any = 0
    for seed in (1, 3, 6, 8, 12):
        problem = synth.random_tiny_instance(seed)
        cfg = PricingConfig(width=_rel_width(problem, 2), merge=True)
        pricer = AdaptivePricer(problem, cfg)
        for round_ in range(3):
            duals = synth.random_duals(problem, seed * 31 + round_)
            oracle = synth.oracle_min_rcost(problem, duals)
            out = pricer.price(scaled(duals))
            if oracle is None:
                assert out.infeasible
            else:
                assert out.optimistic == oracle[0]
                if oracle[0] < 0:
                    assert min(reduced_cost(p, duals) for p in out.columns) == oracle[0]
        merged_any += pricer.totals["merges"]
    assert merged_any > 0, "the sweep should find at least one admissible merge"


def test_reuse_serves_stale_columns_and_suppresses_the_bound():
    problem = synth.random_tiny_instance(3)
    pricer = AdaptivePricer(problem, PricingConfig(width=_rel_width(problem, 3), reuse=True))
    big = Duals({k: 10**9 for k in problem.elements})
    first = pricer.price(scaled(big))
    assert first.columns and pricer.totals["reuse_hits"] == 0

    # still wildly negative under slightly different duals: the stale
    # representatives alone must produce columns, with no bound claimed
    nudged = Duals({k: 10**9 - i for i, k in enumerate(problem.elements)})
    second = pricer.price(scaled(nudged))
    assert second.columns
    assert second.optimistic is None
    assert second.stats["reuse_hit"] is True
    assert pricer.totals["reuse_hits"] == 1
    for path in second.columns:
        assert reduced_cost(path, nudged) < 0

    # nothing prices out under zero duals: reuse cannot serve, the full
    # sandwich runs and certifies with a real bound
    third = pricer.price(scaled(Duals({})))
    assert third.columns == []
    assert third.optimistic is not None and third.optimistic >= 0
    assert pricer.totals["reuse_hits"] == 1


def test_excluded_node_keys_are_not_offered_again():
    problem = synth.random_tiny_instance(5)
    duals = Duals({k: 10**6 for k in problem.elements})
    for pricer in (
        AdaptivePricer(problem, PricingConfig(width=_rel_width(problem, 2))),
        ExactPricer(problem),
    ):
        first = pricer.price(scaled(duals))
        assert first.columns
        seen = {p.node_key for p in first.columns}
        again = pricer.price(scaled(duals), exclude=frozenset(seen))
        assert all(p.node_key not in seen for p in again.columns)


def test_banning_a_whole_block_reports_the_dead_block():
    problem = synth.random_tiny_instance(2)
    pricer = AdaptivePricer(problem, PricingConfig(width=_rel_width(problem, 2)))
    out = pricer.price(scaled(Duals({})), banned=frozenset(problem.blocks[0].elements))
    assert out.infeasible
    assert out.columns == [] and out.optimistic is None


def test_shrinking_bans_are_an_error():
    # one pricer serves one solve, whose bans only grow; emptiness
    # markings made under more bans would be wrong under fewer
    problem = synth.random_tiny_instance(4)
    pricer = AdaptivePricer(problem, PricingConfig(width=_rel_width(problem, 2)))
    victim = problem.blocks[0].elements[0]
    pricer.price(scaled(synth.random_duals(problem, 1)), banned=frozenset({victim}))
    with pytest.raises(PricingError, match="bans shrank"):
        pricer.price(scaled(synth.random_duals(problem, 2)))


def test_growing_bans_invalidate_in_place():
    problem = synth.random_tiny_instance(6)
    pricer = AdaptivePricer(problem, PricingConfig(width=_rel_width(problem, 2)))
    duals = synth.random_duals(problem, 9)
    pricer.price(scaled(duals))
    kept = pricer.partition
    victim = problem.blocks[0].elements[0]
    out = pricer.price(scaled(duals), banned=frozenset({victim}))
    assert pricer.partition is kept
    oracle = synth.oracle_min_rcost(problem, duals, banned=frozenset({victim}))
    if oracle is None:
        assert out.infeasible
    else:
        assert out.optimistic == oracle[0]


def test_unknown_strategy_is_rejected():
    problem = synth.random_tiny_instance(1)
    with pytest.raises(ModelError, match="'thirds'"):
        AdaptivePricer(problem, PricingConfig(strategy="thirds"))
    with pytest.raises(ModelError, match="'x'"):
        driver.solve(problem, driver.DriverConfig(pricing=PricingConfig(strategy="x")))


_REPLAYED = {
    "tiny1": lambda: synth.random_tiny_instance(1),
    "tiny2": lambda: synth.random_tiny_instance(2),
    "tiny3": lambda: synth.random_tiny_instance(3),
    "chain1": lambda: synth.random_chain_instance(1),
    "chain2": lambda: synth.random_chain_instance(2),
    "span1": lambda: synth.build_span_problem(synth.random_span_instance(1)),
    "mpcvrp-n4-t2": lambda: mpcvrp.build_nested(mpcvrp.generate_instance(
        n=4, days=2, vehicles=2, delta=Fraction(9, 10), seed=1)),
    "mpcvrp-n4-t3": lambda: mpcvrp.build_nested(mpcvrp.generate_instance(
        n=4, days=3, vehicles=2, delta=Fraction(1, 2), seed=1)),
}


@pytest.mark.parametrize("name", _REPLAYED)
def test_adaptive_replays_an_exact_solve_call_for_call(name):
    # every pricing call of an exact solve and its dive -- smoothed duals,
    # growing bans, pooled columns excluded -- gives one adaptive pricer
    # the same answer: closure makes both bounds the exact minimum
    pairs = replay_exact_calls(_REPLAYED[name]())
    assert pairs
    for exact, adaptive in pairs:
        assert adaptive == exact


def test_adaptive_and_exact_agree_on_every_dual_vector():
    problem = synth.random_tiny_instance(7)
    for seed in range(20):
        duals = synth.random_duals(problem, seed)
        cfg = PricingConfig(width=_rel_width(problem, 2))
        a = AdaptivePricer(problem, cfg).price(scaled(duals))
        e = ExactPricer(problem).price(scaled(duals))
        assert a.infeasible == e.infeasible
        if not a.infeasible:
            assert a.optimistic == e.optimistic


def _tiled(problem, block, vector):
    """Whether ``block``'s initial tiling has a bucket holding ``vector``."""
    return any(b.contains(vector) for b in Partition.initial(problem, 250).buckets(block))


def _undershoot_problem():
    """Each block's one subpath contributes (1, -3), below the box's lower
    end 0 on coordinate 1, and usable: predicates are downward closed."""
    def block(k):
        entry = Boundary(cost=11 * MILLI, path_deltas=((1, -3),))
        return Block(elements=(k,), entry={k: entry})

    resource = PathResource(dim=2, agg=SUM, a=(1, 1), b=100, box=((0, 5), (0, 5)))
    return NestedProblem([block(1), block(2)], path_resources=[resource], sense=COVER)


def _overshoot_above(exit_delta):
    """Each block's one subpath enters with contribution 7 and leaves with
    ``exit_delta``, above the box's upper end 5; with the other block at
    its least, a path holds values up to 100 less that least."""
    def block(k):
        entry = Boundary(cost=11 * MILLI, path_deltas=((7,),))
        leave = Boundary(path_deltas=((exit_delta,),))
        return Block(elements=(k,), entry={k: entry}, exit={k: leave})

    resource = PathResource(dim=1, agg=SUM, a=(1,), b=100, box=((0, 5),))
    return NestedProblem([block(1), block(2)], path_resources=[resource], sense=COVER)


def _assert_pricers_agree(problem, lp_value):
    exact = driver.solve(problem, driver.DriverConfig(pricer="exact"))
    adaptive = driver.solve(problem, driver.DriverConfig(pricer="adaptive"))
    assert (exact.status, exact.lp_value) == ("optimal", lp_value)
    assert (adaptive.status, adaptive.lp_value) == (exact.status, exact.lp_value)


def test_tiling_reaches_down_to_a_subpath_below_the_box():
    # no bucket of the box holds (1, -3), so each block's tiling reaches
    # down to it, and the adaptive pricer answers as exact does
    problem = _undershoot_problem()
    assert Partition.initial(problem, 250).ranges == [((0, 5), (-3, 5))] * 2
    assert _tiled(problem, 0, (1, -3)) and _tiled(problem, 1, (1, -3))
    _assert_pricers_agree(problem, 22 * MILLI)


@pytest.mark.parametrize("exit_delta, value", [(0, 7), (-1, 6)])
def test_tiling_reaches_up_to_a_usable_subpath_above_the_box(exit_delta, value):
    # the subpath holds ``value``, which a path may hold, so each block's
    # tiling reaches up to it.  The coordinate is monotone (exit 0) or
    # not (exit -1)
    problem = _overshoot_above(exit_delta)
    assert _tiled(problem, 0, (value,)) and _tiled(problem, 1, (value,))
    _assert_pricers_agree(problem, 22 * MILLI)


def _six_and_one(arc):
    """One block: (1) contributes 6 + 3 = 9 and (2) 1, with the single arc
    ``arc`` adding 0; b = 7 and the box's upper end is 5."""
    entry = {1: Boundary(cost=11 * MILLI, path_deltas=((6,),)),
             2: Boundary(cost=11 * MILLI, path_deltas=((1,),))}
    block = Block(elements=(1, 2), arcs={arc: Arc(path_deltas=((0,),))},
                  entry=entry, exit={1: Boundary(path_deltas=((3,),))})
    resource = PathResource(dim=1, agg=SUM, a=(1,), b=7, box=((0, 5),))
    return NestedProblem([block], path_resources=[resource], sense=COVER)


def test_tiling_reaches_a_usable_descendant_of_a_label_above_the_box():
    # (1, 2) contributes 6, above the box; a path holds it but not (1).  The
    # label at 1 is above the box, and its own completion 9 is unusable,
    # but its descendant (1, 2) is not: the block's tiling reaches it
    problem = _six_and_one((1, 2))
    assert _tiled(problem, 0, (6,))
    _assert_pricers_agree(problem, 11 * MILLI)


def test_an_unusable_completion_above_the_box_is_not_refused():
    # (2, 1) contributes 1 + 3 = 4; no path holds the 9 and no subpath lies
    # in (5, 7], so nothing a path can use is above the box, and the
    # adaptive pricer must answer as exact does
    problem = _six_and_one((2, 1))
    assert Partition.initial(problem, 250).ranges == [((0, 5),)]
    _assert_pricers_agree(problem, 11 * MILLI)


@pytest.mark.parametrize("agg, b, usable", [
    # block 0's least subpath contributes (0, 1), block 1's (1, 2); with
    # both at that least, SUM leaves a coordinate b - 4 of headroom, so
    # block 0 may reach (b - 4, b - 3) and block 1 (b - 3, b - 2).  At the
    # box's lower ends, (0, 1) for both, b = 8 would let coordinate 0 rise
    # to 6
    (SUM, 8, ((False, False), (False, False))),
    (SUM, 7, ((False, False), (False, False))),
    (SUM, 11, ((True, False), (True, True))),
    # MAX leaves b - 3 above the largest least (1, 2): both blocks may
    # reach (b - 2, b - 1); at the lower ends b = 7 would admit 6 there
    (MAX, 7, ((False, False), (False, False))),
    (MAX, 6, ((False, False), (False, False))),
    (MAX, 10, ((True, True), (True, True))),
])
def test_above_box_usable_puts_everything_else_at_its_lower_end(agg, b, usable):
    # "its lower end": the least each block can reach, not the box's.  Each
    # block's other subpath holds (6, 9), one above the box on both
    # coordinates, so a block's range stretches above the box exactly on
    # the coordinates where its headroom passes the box's upper end
    def block(k, vec):
        return Block(elements=(k, k + 10),
                     entry={k: Boundary(path_deltas=(vec,)),
                            k + 10: Boundary(path_deltas=((6, 9),))})

    box = ((0, 5), (1, 8))
    resource = PathResource(dim=2, agg=agg, a=(1, 1), b=b, box=box)
    problem = NestedProblem([block(1, (0, 1)), block(2, (1, 2))],
                            path_resources=[resource])
    ranges = Partition.initial(problem, 250).ranges
    assert tuple(
        tuple(high > hi for (_, high), (_, hi) in zip(span, box)) for span in ranges
    ) == usable


def _overshoot_problem(b):
    """Subpaths (k) and (k + 1) contribute 1, (k, k + 1) contributes 7,
    above the box's upper end 5; the other block adds at least 1."""
    def block(k):
        entry = Boundary(cost=11 * MILLI, path_deltas=((1,),))
        return Block(elements=(k, k + 1), arcs={(k, k + 1): Arc(path_deltas=((6,),))},
                     entry={k: entry, k + 1: entry})

    resource = PathResource(dim=1, agg=SUM, a=(1,), b=b, box=((0, 5),))
    return NestedProblem([block(1), block(3)], path_resources=[resource], sense=COVER)


def test_pricers_agree_where_the_bound_excludes_the_overshoot():
    # with b = 5 no path can hold the 7, and the tiling stays in the box
    problem = _overshoot_problem(5)
    assert Partition.initial(problem, 250).ranges == [((0, 5),)] * 2
    _assert_pricers_agree(problem, 44 * MILLI)


@pytest.mark.parametrize("b", [6, 7, 8])
def test_overshoot_is_judged_with_the_other_blocks_at_their_least(b):
    # at b = 6 and 7 the 7 plus the other block's least 1 exceeds b, so
    # the tiling may leave it out; at b = 8 a path holds it, and each
    # block's tiling reaches it
    problem = _overshoot_problem(b)
    if b < 8:
        assert Partition.initial(problem, 250).ranges == [((0, 5),)] * 2
        _assert_pricers_agree(problem, 44 * MILLI)
    else:
        assert _tiled(problem, 0, (7,)) and _tiled(problem, 1, (7,))
        _assert_pricers_agree(problem, Fraction(88 * MILLI, 3))


@pytest.mark.parametrize("build, splits", [
    (_undershoot_problem, False),
    (lambda: _overshoot_above(0), False),
    (lambda: _overshoot_above(-1), False),
    (lambda: _six_and_one((1, 2)), False),
    (lambda: _overshoot_problem(8), False),
    # a path holds one 7 but not two, which the extension tiles' lower
    # corners 6 admit: the closure must split them
    (lambda: _overshoot_problem(12), True),
], ids=["undershoot", "above", "above-falling", "descendant", "overshoot", "two-overshoots"])
def test_extension_tiles_refine_and_certify_like_any_bucket(build, splits):
    problem = build()
    refined = 0
    for seed in range(10):
        duals = synth.random_duals(problem, seed)
        oracle = synth.oracle_min_rcost(problem, duals)
        out = AdaptivePricer(problem, PricingConfig()).price(scaled(duals))
        assert out.optimistic == oracle[0]
        if oracle[0] < 0:
            assert min(reduced_cost(p, duals) for p in out.columns) == oracle[0]
        refined += out.stats["refinements"]
    assert bool(refined) == splits


@st.composite
def _box_models(draw):
    """A one- or two-block model of 1-3 elements per block and one path
    resource, as plain data: per block (entry costs, entry deltas, exit
    deltas, arc deltas), then the aggregator, weights, bound and box."""
    dim = draw(st.integers(1, 2))

    def vectors(lo, hi, n):
        vec = st.tuples(*[st.integers(lo, hi)] * dim)
        return draw(st.lists(vec, min_size=n, max_size=n))

    blocks = []
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(1, 3))
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        costs = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
        blocks.append((costs, vectors(0, 6, n), vectors(-3, 3, n),
                       dict(zip(arcs, vectors(0, 4, len(arcs))))))
    los = vectors(-3, 1, 1)[0]
    box = tuple((lo, draw(st.integers(lo, 8))) for lo in los)
    return (blocks, draw(st.sampled_from([SUM, MAX])), vectors(0, 2, 1)[0],
            draw(st.integers(0, 16)), box)


def _build_box_model(spec, sense=COVER, cardinality=None):
    blocks, agg, weights, b, box = spec
    built, first = [], 1
    for costs, entry_d, exit_d, arcs in blocks:
        ids = tuple(range(first, first + len(costs)))
        first += len(costs)
        built.append(Block(
            elements=ids,
            arcs={(ids[u], ids[v]): Arc(path_deltas=(d,)) for (u, v), d in arcs.items()},
            entry={k: Boundary(cost=c * MILLI, path_deltas=(d,))
                   for k, c, d in zip(ids, costs, entry_d)},
            exit={k: Boundary(path_deltas=(d,)) for k, d in zip(ids, exit_d)},
        ))
    resource = PathResource(dim=len(box), agg=agg, a=weights, b=b, box=box)
    return NestedProblem(built, path_resources=[resource], sense=sense,
                         cardinality=cardinality)


@st.composite
def _cap_models(draw):
    """A :func:`_box_models` model, which has ``MAX`` and zero weights,
    drawn so that the headroom often binds (weights of 0 in a quarter of
    coordinates, a bound up to 40, half the models with no exit leg
    below 0), plus what the exact pricer's caps must survive: maybe one
    arc delta made negative, so that a coordinate need not grow along a
    subpath, and maybe one block with a subpath resource: one that no
    subpath can start under, or one whose windows, floored or hard, may
    bind from below, with entry and arc deltas that may be below 0."""
    blocks, agg, _, b, box = draw(_box_models())
    weights = tuple(draw(st.sampled_from([1, 2, 1, 0])) for _ in box)
    if draw(st.booleans()):
        blocks = [(costs, entry_d, [tuple(map(abs, d)) for d in exit_d], deltas)
                  for costs, entry_d, exit_d, deltas in blocks]
    arcs = [(bi, arc) for bi, (_, _, _, deltas) in enumerate(blocks) for arc in deltas]
    if arcs and draw(st.booleans()):
        bi, arc = draw(st.sampled_from(arcs))
        costs, entry_d, exit_d, deltas = blocks[bi]
        vec = list(deltas[arc])
        vec[draw(st.integers(0, len(vec) - 1))] = draw(st.integers(-6, -1))
        blocks[bi] = (costs, entry_d, exit_d, {**deltas, arc: tuple(vec)})
    bi = draw(st.sampled_from([*range(len(blocks)), None]))
    window = None       # (block, floored, per element (lo, hi), entry and arc deltas)
    if bi is not None:
        n, arcs = len(blocks[bi][0]), blocks[bi][3]
        kind = draw(st.sampled_from(["floored", "hard", "closed"]))
        if kind == "closed":
            # every start is 0, above a window that ends at -1
            window = (bi, False, [(None, -1)] * n, [0] * n, dict.fromkeys(arcs, 0))
        else:
            end = st.tuples(st.one_of(st.integers(-2, 6), st.none()),
                            st.one_of(st.none(), st.integers(0, 9)))
            window = (bi, kind == "floored", [draw(end) for _ in range(n)],
                      [draw(st.integers(-2, 5)) for _ in range(n)],
                      {arc: draw(st.integers(-3, 4)) for arc in arcs})
    return (blocks, agg, weights, draw(st.integers(b, 40)), box), window


def _build_cap_model(spec, sense=COVER, cardinality=None):
    model, window = spec
    problem = _build_box_model(model, sense, cardinality)
    if window is None:
        return problem
    bi, floor, ends, entry_d, arc_d = window
    blocks = list(problem.blocks)
    block, ids = blocks[bi], blocks[bi].elements
    blocks[bi] = replace(
        block,
        arcs={(ids[u], ids[v]): replace(block.arcs[ids[u], ids[v]], sub_deltas=(d,))
              for (u, v), d in arc_d.items()},
        entry={k: replace(block.entry[k], sub_deltas=(d,)) for k, d in zip(ids, entry_d)})
    resource = SubpathResource(block=bi, windows=dict(zip(ids, ends)), floor_at_lower=floor)
    return NestedProblem(blocks, [resource], problem.path_resources, sense=sense,
                         cardinality=cardinality)


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(st.one_of(_box_models().map(lambda model: (model, None)), _cap_models()),
       st.sampled_from([COVER, PARTITION]), st.sampled_from([None, 1, 2]))
@example((
    # a subpath at 9 above the box (0, 5) on a coordinate no predicate weighs
    ([([11], [(9,)], [(0,)], {}), ([11], [(1,)], [(-1,)], {})], SUM, (0,), 3, ((0, 5),)),
    None,
), COVER, None)
def test_adaptive_answers_every_box_model_as_exact_does(spec, sense, cardinality):
    problem = _build_cap_model(spec, sense, cardinality)
    box = problem.contribution_box()
    finds = BlockView._finds
    probes = []

    def probe(view, c, lo, hi):
        probes.append(finds(view, c, lo, hi))
        return probes[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BlockView, "_finds", probe)
        part = Partition.initial(problem, PricingConfig().width)
    if False in probes:
        # each a fill that found nothing outside the box
        event("a reach probe found nothing")
    for bi, span in enumerate(part.ranges):
        # every subpath a feasible path can use lies in a bucket, and a
        # block with no subpath outside the box keeps the box's tiling
        usable = usable_subpaths(problem, bi)
        for sp in usable:
            assert any(b.contains(sp.contributions) for b in part.buckets(bi))
        if all(all(lo <= x <= hi for x, (lo, hi) in zip(sp.contributions, box))
               for sp in synth.enumerate_block_subpaths(problem, bi)):
            assert span == box
        # a side stretched past the box with no usable subpath beyond it:
        # sound, but its tiles cost fills that find nothing a path can use
        for c, ((low, high), (lo, hi)) in enumerate(zip(span, box)):
            if low < lo and all(sp.contributions[c] >= lo for sp in usable):
                event("extended below, no usable subpath below the box")
            if high > hi and all(sp.contributions[c] <= hi for sp in usable):
                event("extended above, no usable subpath above the box")
    ends = [(low < lo, high > hi) for span in part.ranges
            for (low, high), (lo, hi) in zip(span, box)]
    sides = [side for side, *hits in zip(("below", "above"), *ends) if any(hits)]
    event("extended " + " and ".join(sides) if sides else "not extended")
    for res in problem.subpath_resources:
        lower = any(lo is not None for lo, _ in res.windows.values())
        event(f"{'floored' if res.floor_at_lower else 'hard'} subpath resource, "
              f"{'a lower window end' if lower else 'open below'}")
    reports = [driver.solve(problem, driver.DriverConfig(pricer=pricer, dive=True))
               for pricer in ("exact", "adaptive")]
    exact, adaptive = reports
    event(exact.status)
    assert (adaptive.status, adaptive.lp_value) == (exact.status, exact.lp_value)
    for report in reports:
        if report.dive is not None and report.dive.status == "integral":
            assert report.dive.ip_value >= report.lp_value


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.one_of(_box_models().map(lambda model: (model, None)), _cap_models()))
def test_reach_stretches_a_side_exactly_where_the_oracle_has_a_subpath(spec):
    # below the box down to the least bound, and above it up to the most
    # bound capped by the headroom, each when and only when the oracle
    # lists a subpath there
    problem = _build_cap_model(spec)
    box = problem.contribution_box()
    for bi in range(len(problem.blocks)):
        view = block_view(problem, bi)
        vectors = [sp.contributions for sp in synth.enumerate_block_subpaths(problem, bi)]
        tops = view.headroom()
        for c, ((lo, hi), (least, most), got) in enumerate(
                zip(box, view.bounds, view.reach(box))):
            top = min(tops[c], most)
            below = any(vec[c] < lo for vec in vectors)
            above = any(hi < vec[c] <= top for vec in vectors)
            assert got == (least if below else lo, top if above else hi), (bi, c)
            if below or above:
                event("a side stretched")


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_cap_models(), st.integers(0, 2**32))
@example((
    # block 0's (1, 2) holds 5 on arrival at 2 and ends at 1: under MAX the
    # headroom is 2, so only the negative arc brings it back inside
    ([([5, 5], [(5,), (3,)], [(0,), (0,)], {(0, 1): (-4,)}),
      ([5], [(1,)], [(0,)], {})], MAX, (1,), 2, ((0, 8),)),
    None,
), 1)
def test_the_capped_tables_change_no_exact_answer(spec, seed):
    problem = _build_cap_model(spec)
    for bi in range(len(problem.blocks)):
        view = block_view(problem, bi)
        check_table(problem, bi, view.table().subpaths)
        if not all(all(map(le, sp.contributions, view.headroom()))
                   for sp in synth.enumerate_block_subpaths(problem, bi)):
            event("capped")
    rng = random.Random(seed)
    calls = []
    banned = frozenset()
    for _ in range(3):      # no bans, then growing ban sets
        calls.append((synth.random_duals(problem, rng.randrange(2**32)), banned))
        banned |= {rng.choice(problem.elements)}
    with pytest.MonkeyPatch.context() as patch:
        # the same model with every table as the oracle lists it
        patch.setattr(BlockView, "headroom", lambda view: (math.inf,) * view.n_coords)
        full = ExactPricer(_build_cap_model(spec))
        want = [full.price(scaled(duals), banned) for duals, banned in calls]
    capped = ExactPricer(problem)
    for (duals, banned), ref in zip(calls, want):
        out = capped.price(scaled(duals), banned)
        event(f"infeasible: {out.infeasible}")
        assert (out.columns, out.optimistic, out.infeasible) == (
            ref.columns, ref.optimistic, ref.infeasible)


# ---------------------------------------------------------------------------
# the enumerative pricer's Pareto keep against a brute-force reference
# ---------------------------------------------------------------------------


def _reference_front(subpaths, scaled):
    """The keep by definition: price ``subpaths``, sort them by (rcost,
    vector, nodes), keep each one no kept subpath dominates."""
    priced = sorted(
        ((sp.cost * scaled.denom - sum(map(scaled.value, sp.nodes)), sp.contributions, sp)
         for sp in subpaths),
        key=lambda t: (t[0], t[1], t[2].nodes),
    )
    front = []
    for rc, vec, sp in priced:
        if not any(
            rc2 <= rc and all(x <= y for x, y in zip(v2, vec))
            for rc2, v2, _ in front
        ):
            front.append((rc, vec, sp))
    return front


def _tying_duals(problem, seed):
    """Integer duals under which chosen pairs of subpaths -- one pair of
    equal vectors and one arbitrary pair per block where possible -- get
    equal reduced costs.  Each tie is set through an element that no
    earlier pair visits, so later ties keep the earlier ones."""
    rng = random.Random(seed)
    lam = {}
    fixed = set()
    for bi in range(len(problem.blocks)):
        subs = synth.enumerate_block_subpaths(problem, bi)
        by_vec = defaultdict(list)
        for sp in subs:
            by_vec[sp.contributions].append(sp)
        pairs = [rng.sample(g, 2) for g in by_vec.values() if len(g) > 1][:1]
        if len(subs) > 1:
            pairs.append(rng.sample(subs, 2))
        for a, b in pairs:
            free = sorted((set(a.nodes) ^ set(b.nodes)) - fixed)
            if not free:
                continue
            k = rng.choice(free)
            if k not in a.nodes:
                a, b = b, a
            rest_a = sum(lam.get(v, 0) for v in a.nodes if v != k)
            rest_b = sum(lam.get(v, 0) for v in b.nodes)
            # a.cost - (lam_k + rest_a) == b.cost - rest_b
            lam[k] = a.cost - b.cost - rest_a + rest_b
            fixed |= set(a.nodes) | set(b.nodes)
    return Duals(lam)


def _zero_coordinate_problem(seed):
    rng = random.Random(seed)
    elements = tuple(range(1, 6))
    arcs = {
        (u, v): Arc(cost=rng.randint(0, 3))
        for u in elements for v in elements if u != v and rng.random() < 0.6
    }
    return NestedProblem([Block(elements=elements, arcs=arcs)], name="nocoords")


def _duals(problem, kind, seed):
    return {
        "random": lambda: synth.random_duals(problem, seed + 500),
        "zero": lambda: Duals({}),
        "tying": lambda: _tying_duals(problem, seed),
    }[kind]()


ORACLE_FAMILIES = {
    "tiny": synth.random_tiny_instance,
    "chain": synth.random_chain_instance,
    "span": lambda seed: synth.build_span_problem(synth.random_span_instance(seed)),
    "nocoords": _zero_coordinate_problem,
    "mpcvrp": lambda seed: mpcvrp.build_nested(mpcvrp.generate_instance(
        n=5, days=2, vehicles=2, delta=Fraction(1, 2), seed=seed)),
}


def _check_front_against_the_oracle(problem, duals, seed):
    """Under ``duals``, with no bans and then with bans that grow by an
    element drawn from ``seed``, every block's front is the reference
    keep of the states of a search under the block's headroom
    (``limited_subpaths``), each row priced as its subpath."""
    duals = scaled(duals)
    rng = random.Random(seed)
    banned = frozenset()
    for _ in range(3):
        for bi in range(len(problem.blocks)):
            view = block_view(problem, bi)
            got = _front(view, view.table(), duals, view._mask(banned))
            want = _reference_front(limited_subpaths(problem, bi, view.headroom(), banned),
                                    duals)
            assert got == want, (seed, bi, sorted(banned))
        banned |= {rng.choice(problem.elements)}


@pytest.mark.parametrize("family", sorted(set(ORACLE_FAMILIES) - {"mpcvrp"}))
@pytest.mark.parametrize("duals_kind", ("random", "zero", "tying"))
def test_front_matches_the_reference_keep(family, duals_kind):
    # seeds 1-4 run in test_front_of_the_table_is_the_front_of_the_walk
    for seed in range(5, 9):
        problem = ORACLE_FAMILIES[family](seed)
        _check_front_against_the_oracle(problem, _duals(problem, duals_kind, seed), seed)


@pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
@pytest.mark.parametrize("duals_kind", ("random", "zero", "tying"))
def test_front_of_the_table_is_the_front_of_the_walk(family, duals_kind):
    # the walk is the oracle's depth-first search under the block's
    # headroom (limited_subpaths); the table keeps only non-dominated
    # states per (last element, elements, subpath values), and no dropped
    # one reaches any front
    for seed in range(1, 5):
        problem = ORACLE_FAMILIES[family](seed)
        _check_front_against_the_oracle(problem, _duals(problem, duals_kind, seed), seed)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_cap_models(), st.sampled_from(["random", "zero", "tying"]), st.integers(0, 2**32))
def test_front_of_a_capped_table_matches_the_oracle(spec, duals_kind, seed):
    # headrooms that bind, arcs that shrink a coordinate, and subpath
    # windows, hard or floored, that may bind from below
    window = spec[1]
    event("no window" if window is None else "floored" if window[1] else "hard")
    problem = _build_cap_model(spec)
    _check_front_against_the_oracle(problem, _duals(problem, duals_kind, seed), seed)


@st.composite
def _oracle_models(draw):
    """One block of 2-5 elements whose costs and one or two contribution
    coordinates take few values, so that labels of one key often tie in
    full, and one subpath resource, hard or floored, whose windows may
    bind from below and whose deltas may be below 0.  In half the draws
    the block has 4-5 elements, every arc, all with one leg, and its own
    exit leg for each element, so that orderings of a key's middle
    elements tie in full and the exits' caps, not the element order,
    decide which of them the labeling meets first."""
    ints = st.integers
    tied = draw(st.booleans())
    n, dim = draw(ints(4, 5) if tied else ints(2, 5)), draw(ints(1, 2))
    ids = tuple(range(1, n + 1))

    def leg(kind):
        return kind(cost=draw(ints(0, 2)), sub_deltas=(draw(ints(-2, 3)),),
                    path_deltas=(draw(st.tuples(*[ints(0, 2)] * dim)),))

    pairs = [(u, v) for u in ids for v in ids if u != v]
    arcs = pairs if tied else draw(st.lists(st.sampled_from(pairs), unique=True, min_size=n))
    shared = leg(Arc) if tied else None
    block = Block(elements=ids,
                  arcs={pair: shared if tied else leg(Arc) for pair in sorted(arcs)},
                  entry={k: leg(Boundary) for k in ids},
                  exit={k: leg(Boundary) for k in ids} if tied else {})
    end = st.one_of(st.none(), ints(-2, 6))
    resource = SubpathResource(block=0, windows={k: draw(st.tuples(end, end)) for k in ids},
                               floor_at_lower=draw(st.booleans()))
    return NestedProblem([block], [resource], path_resources=[PathResource(
        dim=dim, agg=SUM, a=(1,) * dim, b=draw(ints(2, 16)), box=((0, 20),) * dim)])


def _hard_window_block(arcs, window):
    """One block of six elements, free but for its arcs' (cost, subpath
    delta) pairs and one hard lower window end, (element, lo)."""
    ids = tuple(range(1, 7))
    block = Block(elements=ids,
                  arcs={pair: Arc(cost=c, sub_deltas=(d,)) for pair, (c, d) in arcs.items()},
                  entry={k: Boundary(sub_deltas=(0,)) for k in ids})
    k, lo = window
    return NestedProblem([block], [SubpathResource(block=0, windows={k: (lo, None)})],
                         path_resources=[PathResource(dim=1, agg=SUM, a=(1,), b=2,
                                                      box=((0, 20),))])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_oracle_models(), st.sampled_from(["random", "zero", "tying"]), st.integers(0, 2**32))
# two orderings of one element set reach one last element with subpath
# values a and b > a, and only b passes the window past it: a table whose
# labels key subpath values by <= drops b.  Random one-block models of 3-6
# elements hit this about 3 times in 1,000 draws, all at six elements; the
# drawn models, 2-5 elements, did not, so these three are pinned.
@example(_hard_window_block({(1, 6): (0, 0), (2, 4): (0, 0), (3, 1): (0, 0), (3, 2): (0, 3),
                             (4, 1): (0, 0), (4, 3): (0, 0)}, (6, 2)), "random", 384)
@example(_hard_window_block({(3, 5): (0, 0), (3, 6): (0, 0), (4, 1): (0, 3), (5, 3): (0, 0),
                             (5, 4): (0, 0), (6, 3): (0, 2), (6, 4): (0, 0)}, (1, 5)),
         "random", 654)
@example(_hard_window_block({(1, 2): (2, 2), (1, 5): (0, 0), (2, 3): (0, 0), (2, 5): (0, 0),
                             (3, 4): (0, 0), (5, 2): (0, 0), (5, 3): (0, 3)}, (4, 4)),
         "random", 945)
def test_front_of_a_windowed_table_matches_the_oracle(problem, duals_kind, seed):
    # labels of one (last element, elements) whose subpath values differ,
    # and labels of one key that tie on cost and vector
    event("floored" if problem.subpath_resources[0].floor_at_lower else "hard")
    _check_front_against_the_oracle(problem, _duals(problem, duals_kind, seed), seed)


def _tied_block():
    """(1, 2, 3, 4) and (1, 3, 2, 4) both cost 0 and hold 1, one key.
    The arc (1, 3) holds 0 and (1, 2) holds 1, so (1, 3) has the more
    slack under the cap and the labeling extends (1, 3) first: it meets
    (1, 3, 2, 4) first, and the lesser (1, 2, 3, 4) must replace it."""
    legs = {(1, 2): (0, 1), (1, 3): (0, 0), (2, 3): (0, 0), (3, 2): (0, 1),
            (2, 4): (0, 0), (3, 4): (0, 0)}
    block = Block(elements=(1, 2, 3, 4), arcs={
        pair: Arc(cost=cost, path_deltas=((d,),)) for pair, (cost, d) in legs.items()})
    return NestedProblem([block], path_resources=[
        PathResource(dim=1, agg=SUM, a=(1,), b=10, box=((0, 5),))])


def _hard_floor_block():
    """(1, 2, 3) and (2, 1, 3) tie but for their subpath values, 0 and 1,
    and only a value of at least 1 may reach 4."""
    deltas = {(1, 2): 0, (2, 1): 1, (2, 3): 0, (1, 3): 0, (3, 4): 0}
    block = Block(elements=(1, 2, 3, 4),
                  arcs={pair: Arc(sub_deltas=(d,)) for pair, d in deltas.items()},
                  entry={k: Boundary(sub_deltas=(0,)) for k in (1, 2, 3, 4)})
    return NestedProblem([block], [SubpathResource(block=0, windows={4: (1, None)})],
                         path_resources=[PathResource(dim=1, agg=SUM, a=(1,), b=10,
                                                      box=((0, 5),))])


@pytest.mark.parametrize("build, row", [(_tied_block, (1, 2, 3, 4)),
                                        (_hard_floor_block, (2, 1, 3, 4))])
def test_the_table_keeps_what_a_front_can_take(build, row):
    # a full tie keeps the lesser node sequence, and subpath values key by
    # equality: under the hard window at 4, a lesser value is no better
    problem = build()
    duals = Duals(dict.fromkeys(problem.elements, 10))
    view = block_view(problem, 0)
    front = _front(view, view.table(), scaled(duals), 0)
    assert row in [sp.nodes for _, _, sp in front]
    _check_front_against_the_oracle(problem, duals, 1)


def test_pareto_keep_on_dense_ties():
    # few distinct values on both axes: equal vectors, equal rcosts and
    # rcosts that tie across vectors are all common
    rng = random.Random(3)
    for dims in (0, 1, 2, 3):
        for _ in range(300):
            n = rng.randint(0, 12)
            rows = sorted(
                (tuple(rng.randint(0, 3) for _ in range(dims)), j, rng.randint(-2, 2))
                for j in range(n)
            )
            vectors = [vec for vec, _, _ in rows]
            rcosts = [rc for _, _, rc in rows]
            # reference: (rcost, vector, position) order, kept unless an
            # earlier kept entry is componentwise no larger
            want = []
            for j in sorted(range(n), key=lambda j: (rcosts[j], vectors[j], j)):
                if not any(
                    all(x <= y for x, y in zip(vectors[i], vectors[j])) for i in want
                ):
                    want.append(j)
            assert _pareto_keep(vectors, rcosts, range(n)) == want, (vectors, rcosts)
            # over a subset of the indices, the front of that subset
            rows = [j for j in range(n) if rng.random() < 0.6]
            want = []
            for j in sorted(rows, key=lambda j: (rcosts[j], vectors[j], j)):
                if not any(
                    all(x <= y for x, y in zip(vectors[i], vectors[j])) for i in want
                ):
                    want.append(j)
            assert _pareto_keep(vectors, rcosts, rows) == want, (vectors, rcosts, rows)


def test_exact_pricer_reports_phase_times_outside_the_trace():
    reports = [
        driver.solve(problem, driver.DriverConfig(pricer="exact", dive=True))
        for problem in (synth.random_tiny_instance(4), synth.random_tiny_instance(4))
    ]
    for report in reports:
        for key in ("time_enumerate", "time_front", "time_search"):
            assert isinstance(report.pricer_stats[key], float)
    lines = reports[0].trace_lines()
    assert lines == reports[1].trace_lines()
    assert not any("time_" in line for line in lines)
