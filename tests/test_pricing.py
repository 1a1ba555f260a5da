"""Adaptive and enumerative pricers against the exhaustive oracle: bound
sandwich, closure exactness, refinement budgets, merge safety, reuse."""

import itertools
import math
import random
from collections import defaultdict
from fractions import Fraction
from operator import le, mul

import pytest
from helpers import reduced_cost, usable_subpaths
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from nestedcg import driver, synth
from nestedcg.buckets import COMPUTED, Partition, compute_representative
from nestedcg.labeling import BlockView, block_view, label_search
from nestedcg.model import (
    COVER,
    MAX,
    MILLI,
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
    pricer = AdaptivePricer(problem, PricingConfig(width=_rel_width(problem, 3), until="closure"))
    out = pricer.price(duals)
    if oracle is None:
        assert out.infeasible
        return
    assert not out.infeasible
    assert out.optimistic == oracle[0]
    assert out.pessimistic == oracle[0]


@pytest.mark.parametrize("tiles", (1, 2, 7))
@pytest.mark.parametrize("strategy", ("representative", "midpoint"))
def test_closure_is_width_and_strategy_independent(tiles, strategy):
    for seed in (2, 5, 11):
        problem, duals = _case(seed)
        oracle = synth.oracle_min_rcost(problem, duals)
        cfg = PricingConfig(
            width=_rel_width(problem, tiles), strategy=strategy, until="closure"
        )
        out = AdaptivePricer(problem, cfg).price(duals)
        if oracle is None:
            assert out.infeasible
        else:
            assert (out.optimistic, out.pessimistic) == (oracle[0], oracle[0])


@pytest.mark.parametrize("seed", SEEDS)
def test_column_mode_bounds_sandwich_the_oracle(seed):
    problem, duals = _case(seed)
    oracle = synth.oracle_min_rcost(problem, duals)
    out = AdaptivePricer(
        problem, PricingConfig(width=_rel_width(problem, 4))
    ).price(duals)
    if oracle is None:
        assert out.infeasible
        return
    assert out.optimistic <= oracle[0]
    if out.pessimistic is not None:
        assert oracle[0] <= out.pessimistic
    for path in out.columns:
        assert reduced_cost(path, duals) < 0


@pytest.mark.parametrize("seed", SEEDS)
def test_exact_pricer_reports_the_oracle_bound(seed):
    problem, duals = _case(seed)
    pricer = ExactPricer(problem)
    rng = random.Random(seed)
    banned = frozenset()
    for _ in range(3):      # no bans, then growing ban sets
        oracle = synth.oracle_min_rcost(problem, duals, banned=banned)
        out = pricer.price(duals, banned)
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
    scaled = duals.scaled()
    part = Partition.initial(problem, 10**9)  # one bucket per block to start
    for b in part.all_buckets():
        compute_representative(problem, [b], scaled)

    opts, pess = [], []
    for _ in range(200):
        live = [
            [b for b in part.buckets(bi) if b.status == COMPUTED]
            for bi in range(len(problem.blocks))
        ]
        assert all(live), "oracle found a path, so every block is alive"
        opt = label_search(
            _layers(live, lambda b: b.lo, lambda b: b.rep.rcost,
                    scaled.convexity),
            problem.aggs, problem.predicates, problem.monotone,
        )
        pes = label_search(
            _layers(live, lambda b: b.rep.vector, lambda b: b.rep.rcost,
                    scaled.convexity),
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
                    compute_representative(problem, [child], scaled)
    else:
        pytest.fail("sandwich did not close")

    scale = scaled.denom
    assert all(a <= b for a, b in zip(opts, opts[1:]))
    assert all(a >= b for a, b in zip(pess, pess[1:]))
    assert all(o <= oracle[0] * scale <= p for o, p in zip(opts, pess))
    assert opts[-1] == oracle[0] * scale


@pytest.mark.parametrize("seed", SEEDS)
def test_refinements_never_exceed_distinct_vectors(seed):
    problem, duals = _case(seed)
    cfg = PricingConfig(width=10**6, strategy="representative", until="closure")
    pricer = AdaptivePricer(problem, cfg)
    out = pricer.price(duals)
    if out.infeasible:
        pytest.skip("no feasible path for this seed")
    for bi in range(len(problem.blocks)):
        assert pricer.refines_per_block[bi] <= len(_distinct_vectors(problem, bi))


def test_merge_keeps_closure_exact_across_calls():
    merged_any = 0
    for seed in (1, 3, 6, 8, 12):
        problem = synth.random_tiny_instance(seed)
        cfg = PricingConfig(width=_rel_width(problem, 2), until="closure", merge=True)
        pricer = AdaptivePricer(problem, cfg)
        for round_ in range(3):
            duals = synth.random_duals(problem, seed * 31 + round_)
            oracle = synth.oracle_min_rcost(problem, duals)
            out = pricer.price(duals)
            if oracle is None:
                assert out.infeasible
            else:
                assert out.optimistic == oracle[0] == out.pessimistic
        merged_any += pricer.totals["merges"]
    assert merged_any > 0, "the sweep should find at least one admissible merge"


def test_reuse_serves_stale_columns_and_suppresses_the_bound():
    problem = synth.random_tiny_instance(3)
    pricer = AdaptivePricer(problem, PricingConfig(width=_rel_width(problem, 3), reuse=True))
    big = Duals({k: 10**9 for k in problem.elements})
    first = pricer.price(big)
    assert first.columns and pricer.totals["reuse_hits"] == 0

    # still wildly negative under slightly different duals: the stale
    # representatives alone must produce columns, with no bound claimed
    nudged = Duals({k: 10**9 - i for i, k in enumerate(problem.elements)})
    second = pricer.price(nudged)
    assert second.columns
    assert second.optimistic is None
    assert second.stats["reuse_hit"] is True
    assert pricer.totals["reuse_hits"] == 1
    for path in second.columns:
        assert reduced_cost(path, nudged) < 0

    # nothing prices out under zero duals: reuse cannot serve, the full
    # sandwich runs and certifies with a real bound
    third = pricer.price(Duals({}))
    assert third.columns == []
    assert third.optimistic is not None and third.optimistic >= 0
    assert pricer.totals["reuse_hits"] == 1


def test_excluded_node_keys_are_not_offered_again():
    problem = synth.random_tiny_instance(5)
    duals = Duals({k: 10**6 for k in problem.elements})
    for pricer in (
        AdaptivePricer(
            problem, PricingConfig(width=_rel_width(problem, 2), until="closure")
        ),
        ExactPricer(problem),
    ):
        first = pricer.price(duals)
        assert first.columns
        seen = {p.node_key for p in first.columns}
        again = pricer.price(duals, exclude=frozenset(seen))
        assert all(p.node_key not in seen for p in again.columns)


def test_banning_a_whole_block_reports_the_dead_block():
    problem = synth.random_tiny_instance(2)
    pricer = AdaptivePricer(problem, PricingConfig(width=_rel_width(problem, 2)))
    out = pricer.price(Duals({}), banned=frozenset(problem.blocks[0].elements))
    assert out.infeasible
    assert out.columns == [] and out.optimistic is None


def test_shrinking_bans_are_an_error():
    # one pricer serves one solve, whose bans only grow; emptiness
    # markings made under more bans would be wrong under fewer
    problem = synth.random_tiny_instance(4)
    pricer = AdaptivePricer(problem, PricingConfig(width=_rel_width(problem, 2)))
    victim = problem.blocks[0].elements[0]
    pricer.price(synth.random_duals(problem, 1), banned=frozenset({victim}))
    with pytest.raises(PricingError, match="bans shrank"):
        pricer.price(synth.random_duals(problem, 2))


def test_growing_bans_invalidate_in_place():
    problem = synth.random_tiny_instance(6)
    pricer = AdaptivePricer(
        problem, PricingConfig(width=_rel_width(problem, 2), until="closure")
    )
    duals = synth.random_duals(problem, 9)
    pricer.price(duals)
    kept = pricer.partition
    victim = problem.blocks[0].elements[0]
    out = pricer.price(duals, banned=frozenset({victim}))
    assert pricer.partition is kept
    oracle = synth.oracle_min_rcost(problem, duals, banned=frozenset({victim}))
    if oracle is None:
        assert out.infeasible
    else:
        assert out.optimistic == oracle[0]


def test_unknown_strategy_is_rejected():
    problem = synth.random_tiny_instance(1)
    with pytest.raises(PricingError):
        AdaptivePricer(problem, PricingConfig(strategy="thirds"))


def test_adaptive_and_exact_agree_on_every_dual_vector():
    problem = synth.random_tiny_instance(7)
    for seed in range(20):
        duals = synth.random_duals(problem, seed)
        cfg = PricingConfig(width=_rel_width(problem, 2), until="closure")
        a = AdaptivePricer(problem, cfg).price(duals)
        e = ExactPricer(problem).price(duals)
        assert a.infeasible == e.infeasible
        if not a.infeasible:
            assert a.optimistic == e.optimistic


def test_adaptive_rejects_a_box_that_blocks_undershoot():
    # each block's one subpath contributes (1, -3), below the box's lower
    # end on coordinate 1: usable (predicates are downward closed), but no
    # bucket could hold it, so the adaptive pricer would miss every path
    def block(k):
        entry = Boundary(cost=11 * MILLI, path_deltas=((1, -3),))
        return Block(elements=(k,), entry={k: entry})

    resource = PathResource(dim=2, agg=SUM, a=(1, 1), b=100, box=((0, 5), (0, 5)))
    problem = NestedProblem([block(1), block(2)], path_resources=[resource], sense=COVER)
    exact = driver.solve(problem, driver.DriverConfig(pricer="exact"))
    assert (exact.status, exact.lp_value) == ("optimal", 22 * MILLI)
    with pytest.raises(ModelError, match=(
        r"block 0 reaches -3 on contribution coordinate 1, "
        r"below the box's lower end 0"
    )):
        driver.solve(problem, driver.DriverConfig(pricer="adaptive"))


@pytest.mark.parametrize("exit_delta, value", [(0, 7), (-1, 6)])
def test_adaptive_rejects_a_usable_subpath_above_the_box(exit_delta, value):
    # each block's one subpath enters with contribution 7 and leaves with
    # ``exit_delta``, above the box's upper end 5; with the other block at
    # its least, value, a path holds values up to 100 - value, so no bucket
    # may drop it.  The coordinate is monotone (exit 0) or not (exit -1)
    def block(k):
        entry = Boundary(cost=11 * MILLI, path_deltas=((7,),))
        leave = Boundary(path_deltas=((exit_delta,),))
        return Block(elements=(k,), entry={k: entry}, exit={k: leave})

    resource = PathResource(dim=1, agg=SUM, a=(1,), b=100, box=((0, 5),))
    problem = NestedProblem([block(1), block(2)], path_resources=[resource], sense=COVER)
    exact = driver.solve(problem, driver.DriverConfig(pricer="exact"))
    assert (exact.status, exact.lp_value) == ("optimal", 22 * MILLI)
    with pytest.raises(ModelError, match=(
        rf"block 0 reaches {value} on contribution coordinate 0, "
        r"above the box's upper end 5"
    )):
        AdaptivePricer(problem)


def _six_and_one(arc):
    """One block: (1) contributes 6 + 3 = 9 and (2) 1, with the single arc
    ``arc`` adding 0; b = 7 and the box's upper end is 5."""
    entry = {1: Boundary(cost=11 * MILLI, path_deltas=((6,),)),
             2: Boundary(cost=11 * MILLI, path_deltas=((1,),))}
    block = Block(elements=(1, 2), arcs={arc: Arc(path_deltas=((0,),))},
                  entry=entry, exit={1: Boundary(path_deltas=((3,),))})
    resource = PathResource(dim=1, agg=SUM, a=(1,), b=7, box=((0, 5),))
    return NestedProblem([block], path_resources=[resource], sense=COVER)


def test_adaptive_rejects_a_usable_descendant_of_a_pruned_label():
    # (1, 2) contributes 6, above the box; a path holds it but not (1).  The
    # label at 1 is above the box, and its own completion 9 is unusable,
    # but its descendant (1, 2) is not: no bucket holds it, so the pricer
    # must raise
    problem = _six_and_one((1, 2))
    exact = driver.solve(problem, driver.DriverConfig(pricer="exact"))
    assert (exact.status, exact.lp_value) == ("optimal", 11 * MILLI)
    with pytest.raises(ModelError, match=(
        r"block 0 reaches 6 on contribution coordinate 0, "
        r"above the box's upper end 5"
    )):
        AdaptivePricer(problem)


def test_an_unusable_completion_above_the_box_is_not_refused():
    # (2, 1) contributes 1 + 3 = 4; no path holds the 9 and no subpath lies
    # in (5, 7], so nothing a path can use is above the box, and the
    # adaptive pricer must answer as exact does
    problem = _six_and_one((2, 1))
    exact = driver.solve(problem, driver.DriverConfig(pricer="exact"))
    adaptive = driver.solve(problem, driver.DriverConfig(pricer="adaptive"))
    assert (exact.status, exact.lp_value) == ("optimal", 11 * MILLI)
    assert (adaptive.status, adaptive.lp_value) == (exact.status, exact.lp_value)


@pytest.mark.parametrize("agg, b, usable", [
    # block 0's one subpath contributes (0, 1), block 1's (1, 2); with both
    # at that least, SUM leaves a coordinate b - 4 of headroom, so block 0
    # may reach (b - 4, b - 3) and block 1 (b - 3, b - 2).  At the box's
    # lower ends, (0, 1) for both, b = 8 would let coordinate 0 rise to 6
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
    # "its lower end": the least each block can reach, not the box's
    def block(k, vec):
        return Block(elements=(k,), entry={k: Boundary(path_deltas=(vec,))})

    resource = PathResource(dim=2, agg=agg, a=(1, 1), b=b, box=((0, 5), (1, 8)))
    problem = NestedProblem([block(1, (0, 1)), block(2, (1, 2))],
                            path_resources=[resource])
    windows = AdaptivePricer(problem)._check_box()
    assert tuple(
        tuple(any(w[0] == c for w in found) for c in range(2)) for found in windows
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
    # with b = 5 no path can hold the 7
    problem = _overshoot_problem(5)
    assert AdaptivePricer(problem)._check_box() == [(), ()]
    exact = driver.solve(problem, driver.DriverConfig(pricer="exact"))
    adaptive = driver.solve(problem, driver.DriverConfig(pricer="adaptive"))
    assert (exact.status, exact.lp_value) == ("optimal", 44 * MILLI)
    assert (adaptive.status, adaptive.lp_value) == (exact.status, exact.lp_value)


@pytest.mark.parametrize("b", [6, 7, 8])
def test_overshoot_is_judged_with_the_other_blocks_at_their_least(b):
    # at b = 6 and 7 the 7 plus the other block's least 1 exceeds b, so
    # the adaptive pricer may drop it; at b = 8 a path holds it
    problem = _overshoot_problem(b)
    exact = driver.solve(problem, driver.DriverConfig(pricer="exact"))
    if b < 8:
        adaptive = driver.solve(problem, driver.DriverConfig(pricer="adaptive"))
        assert (exact.status, exact.lp_value) == ("optimal", 44 * MILLI)
        assert (adaptive.status, adaptive.lp_value) == (exact.status, exact.lp_value)
    else:
        assert (exact.status, exact.lp_value) == ("optimal", Fraction(88 * MILLI, 3))
        with pytest.raises(ModelError, match=(
            r"block 0 reaches 7 on contribution coordinate 0, "
            r"above the box's upper end 5"
        )):
            driver.solve(problem, driver.DriverConfig(pricer="adaptive"))


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


def _build_box_model(spec):
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
    return NestedProblem(built, path_resources=[resource], sense=COVER)


def _box_refusal(problem):
    """(block, coordinate, side, values) of the refusal the adaptive pricer
    must raise, from the exhaustive enumeration, or None: a block's least
    below the box's lower end, else the values above the box's upper end
    on the coordinate that a feasible path may hold with every other block
    and coordinate at the least it can reach."""
    (resource,) = problem.path_resources
    vecs = [[s.contributions for s in synth.enumerate_block_subpaths(problem, bi)]
            for bi in range(len(problem.blocks))]
    mins = [[min(col) for col in zip(*vs)] for vs in vecs]
    for bi, low in enumerate(mins):
        for c, ((lo, _), least) in enumerate(zip(resource.box, low)):
            if least < lo:
                return bi, c, "below", {least}
    fold = sum if resource.agg == SUM else max
    for bi, vs in enumerate(vecs):
        for c, (_, hi) in enumerate(resource.box):
            usable = set()
            for v in {v[c] for v in vs if v[c] > hi}:
                at_least = [list(low) for low in mins]
                at_least[bi][c] = v
                path = [fold(col) for col in zip(*at_least)]
                if sum(map(mul, resource.a, path)) <= resource.b:
                    usable.add(v)
            if usable:
                return bi, c, "above", usable
    return None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_box_models())
@example((
    # a subpath at 9 above the box (0, 5) on a coordinate no predicate weighs
    [([11], [(9,)], [(0,)], {}), ([11], [(1,)], [(-1,)], {})], SUM, (0,), 3, ((0, 5),)
))
def test_adaptive_refuses_the_box_exactly_where_the_enumeration_does(spec):
    problem = _build_box_model(spec)
    refusal = _box_refusal(problem)
    if refusal is not None:
        bi, c, side, values = refusal
        event(f"refused: {side} the box")
        with pytest.raises(ModelError, match=(
            rf"^block {bi} reaches -?\d+ on contribution coordinate {c}, {side}"
        )) as caught:
            AdaptivePricer(problem)
        assert int(str(caught.value).split()[3]) in values
        return
    event("accepted")
    exact = driver.solve(problem, driver.DriverConfig(pricer="exact"))
    adaptive = driver.solve(problem, driver.DriverConfig(pricer="adaptive"))
    assert (adaptive.status, adaptive.lp_value) == (exact.status, exact.lp_value)


@st.composite
def _cap_models(draw):
    """A :func:`_box_models` model, which has ``MAX`` and zero weights,
    drawn so that the headroom often binds (weights of 0 in a quarter of
    coordinates, a bound up to 40, half the models with no exit leg
    below 0), plus what the exact pricer's caps must survive: maybe one
    arc delta made negative, so that a coordinate need not grow along a
    subpath, and maybe one block that no subpath can start in."""
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
    dead = draw(st.sampled_from([None] * 3 + list(range(len(blocks)))))
    return (blocks, agg, weights, draw(st.integers(b, 40)), box), dead


def _build_cap_model(spec):
    model, dead = spec
    problem = _build_box_model(model)
    if dead is None:
        return problem
    # every start is 0, above a window that ends at -1
    closed = SubpathResource(
        block=dead, windows={k: (None, -1) for k in problem.blocks[dead].elements})
    return NestedProblem(problem.blocks, [closed], problem.path_resources, sense=COVER)


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
        table = set(block_view(problem, bi).table().subpaths)
        assert usable_subpaths(problem, bi) <= table
        if len(table) < len(synth.enumerate_block_subpaths(problem, bi)):
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
        want = [full.price(duals, banned) for duals, banned in calls]
    capped = ExactPricer(problem)
    for (duals, banned), ref in zip(calls, want):
        out = capped.price(duals, banned)
        event(f"infeasible: {out.infeasible}")
        assert (out.columns, out.optimistic, out.infeasible) == (
            ref.columns, ref.optimistic, ref.infeasible)


# ---------------------------------------------------------------------------
# the enumerative pricer's Pareto keep against a brute-force reference
# ---------------------------------------------------------------------------


def _reference_front(problem, block_index, scaled, banned):
    """The keep by definition: price the oracle's subpaths, sort them by
    (rcost, vector, nodes), keep each one no kept subpath dominates."""
    priced = sorted(
        (
            (sp.cost * scaled.denom - sum(map(scaled.value, sp.nodes)),
             sp.contributions, sp)
            for sp in synth.enumerate_block_subpaths(problem, block_index, banned)
        ),
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


def _within(vector, caps):
    return all(map(le, vector, caps))


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


KEEP_FAMILIES = {
    "tiny": synth.random_tiny_instance,
    "chain": synth.random_chain_instance,
    "span": lambda seed: synth.build_span_problem(synth.random_span_instance(seed)),
    "nocoords": _zero_coordinate_problem,
}


@pytest.mark.parametrize("family", sorted(KEEP_FAMILIES))
@pytest.mark.parametrize("duals_kind", ("random", "zero", "tying"))
def test_front_matches_the_reference_keep(family, duals_kind):
    blocks = 0
    for seed in range(1, 9):
        problem = KEEP_FAMILIES[family](seed)
        duals = {
            "random": lambda: synth.random_duals(problem, seed + 500),
            "zero": lambda: Duals({}),
            "tying": lambda: _tying_duals(problem, seed),
        }[duals_kind]()
        scaled = duals.scaled()
        rng = random.Random(seed)
        banned = frozenset()
        for _ in range(3):      # no bans, then growing ban sets
            for bi in range(len(problem.blocks)):
                view = block_view(problem, bi)
                got = _front(view, view.table(banned), scaled)
                # the table drops subpaths above the block's headroom, so
                # a subpath above it that one of them dominated may enter
                # the front; within the headroom the fronts agree
                caps = view.headroom()
                want = _reference_front(problem, bi, scaled, banned)
                assert [row for row in got if _within(row[1], caps)] == [
                    row for row in want if _within(row[1], caps)
                ], (seed, bi, sorted(banned))
                blocks += 1
            banned |= {rng.choice(problem.elements)}
    assert blocks


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
            assert _pareto_keep(vectors, rcosts) == want, (vectors, rcosts)


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
