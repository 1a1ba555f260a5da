"""Shared bucket fill: one label search per block must give every bucket
exactly the representative that its own box-restricted search gives, and
the cheapest subpath of the exhaustive enumeration in its box capped at
the block's headroom."""

import copy
import json
import random
from fractions import Fraction
from operator import sub

import pytest
from helpers import fill_boxes, in_box, limited_subpaths, scaled
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from nestedcg import buckets, driver, labeling, mpcvrp, pricing, synth
from nestedcg.buckets import (
    COMPUTED,
    EMPTY,
    FRESH,
    Partition,
)
from nestedcg.labeling import elementary_rcspp
from nestedcg.model import (
    SUM,
    Arc,
    Block,
    Boundary,
    Duals,
    NestedProblem,
    PathResource,
    SubpathResource,
)
from nestedcg.pricing import AdaptivePricer, PricingConfig


def _capped(problem, bucket):
    """The bucket's box capped at its block's headroom: a representative
    comes only from subpaths the headroom admits."""
    tops = labeling.block_view(problem, bucket.block).headroom()
    return [(lo, min(hi, top)) for (lo, hi), top in zip(zip(bucket.lo, bucket.hi), tops)]


def _reference_fill(problem, group, duals, weights=None, banned=frozenset(), tally=None):
    """Per-bucket fill: one search for every bucket, restricted to its
    capped box, packed here from the box itself; each search builds its
    own step weights, whatever ``weights`` the pricer passes."""
    view = labeling.block_view(problem, group[0].block) if group else None
    for b in group:
        if b.status == EMPTY:
            continue
        b.rep = elementary_rcspp(problem, b.block, duals,
                                 boxes=[view.fill_box(tuple(_capped(problem, b)))],
                                 weights=view.step_weights(duals),
                                 banned=banned, tally=tally)[0]
        b.status = EMPTY if b.rep is None else COMPUTED
    return [b.rep for b in group]


def _raw(reps):
    """What a fill found, per box: each representative's block, nodes,
    reduced cost, vector and duals, or None."""
    return [None if r is None else (r.block, r.nodes, r.rcost, r.vector, r.duals)
            for r in reps]


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
    bucket's capped box that sorts first, or None when it holds none."""
    box = _capped(problem, bucket)
    return min((
        (sp.cost * scaled.denom - sum(scaled.value(k) for k in sp.nodes),
         sp.contributions, sp.nodes)
        for sp in synth.enumerate_block_subpaths(problem, bucket.block, banned)
        if all(lo <= x <= hi for x, (lo, hi) in zip(sp.contributions, box))
    ), default=None)


def _fill_and_compare(problem, pricer, scaled, banned):
    """Run the pricer's shared fill and check every filled bucket against
    its own search and against the enumeration; returns (searches,
    buckets filled)."""
    want = {}
    for b in _stale(pricer, banned):
        found = fill_boxes(problem, b.block, scaled, boxes=[_capped(problem, b)],
                           banned=banned)[0]
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
        pricer._compute_fresh(scaled, banned, [
            labeling.block_view(problem, bi).step_weights(scaled)
            for bi in range(len(problem.blocks))])
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
            duals = scaled(synth.random_duals(problem, 100 * seed + round_))
            s, f = _fill_and_compare(problem, pricer, duals, banned)
            searches, filled = searches + s, filled + f

            # split some buckets both ways, fill the children, then merge
            for b in list(pricer.partition.all_buckets()):
                if b.lo == b.hi or rng.random() < 0.6:
                    continue
                if b.status == COMPUTED and rng.random() < 0.5:
                    pricer.partition.refine_bucket(b, "representative")
                else:
                    pricer.partition.refine_bucket(b, "midpoint")
            s, f = _fill_and_compare(problem, pricer, duals, banned)
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
    found, rcost = fill_boxes(problem, 0, scaled(Duals({0: 1})), boxes=[((0, 100),)])[0]
    assert (rcost, found.contributions, found.nodes) == (1, (5,), (0, 1))


def test_a_fill_over_no_boxes_walks_nothing(monkeypatch):
    problem = _routing(4, 1)
    monkeypatch.setattr(labeling.BlockView, "_prepare", None)
    tally = {"fill_labels": 0}
    assert elementary_rcspp(problem, 0, scaled(Duals({})), boxes=[], weights=[],
                            tally=tally) == []
    assert tally == {"fill_labels": 0}


def test_the_fill_creates_no_label_beyond_the_completion_bound():
    problem = mpcvrp.build_nested(mpcvrp.generate_instance(
        n=6, days=2, vehicles=3, delta=Fraction(9, 10), seed=1
    ))
    duals = scaled(synth.random_duals(problem, 1))
    view = labeling.block_view(problem, 0)
    assert all(view.coord_monotone)
    # the quarter-width boxes without the top one, filled together
    group, ref = (Partition.initial(problem, _quarter(problem)).buckets(0)[:-1]
                  for _ in range(2))
    top = [max(b.hi[c] for b in group) for c in range(problem.total_coords)]
    tally = {"fill_labels": 0}
    got = buckets.compute_representative(problem, group, duals, view.step_weights(duals),
                                         tally=tally)

    # the fill's states are the subpaths whose every prefix is within
    # its limits
    arrivals = {
        sp.nodes: tuple(map(sub, sp.contributions, view.exit[view.local[sp.nodes[-1]]][2]))
        for sp in synth.enumerate_block_subpaths(problem, 0)
    }

    def states(top):
        return len(limited_subpaths(problem, 0, top))

    assert 0 < states(top) < len(arrivals)
    assert tally["fill_labels"] == states(top)
    assert _raw(got) == _raw(_reference_fill(problem, ref, duals))
    assert any(got)

    # a top one below where some state's least completion ends: a limit
    # one looser would expand that state too
    least = view.least_completion()
    ends = [vec[0] + least[view.local[nodes[-1]]][0] for nodes, vec in arrivals.items()]
    tight = [min(end for end in ends if end > top[0]) - 1, *top[1:]]
    assert states(tight) < states([tight[0] + 1, *tight[1:]])
    tally = {"fill_labels": 0}
    fill_boxes(problem, 0, duals, boxes=[[(0, hi) for hi in tight]], tally=tally)
    assert tally["fill_labels"] == states(tight)


@st.composite
def _fill_models(draw):
    """(problem, duals, bans, boxes): one block of 1-4 elements, listed
    in any order, with 1-2 contribution coordinates whose deltas, in half
    the draws, may be negative, 0-2 subpath resources, each floored or
    not, with deltas and windows that can bind from below, and 1-3
    disjoint boxes, split on the first coordinate.  In half the draws the
    block has four elements and one leg for every arc, so orderings of
    one element set that share their ends tie in reduced cost and vector,
    and the node sequence alone decides between them."""
    tied = draw(st.booleans())
    n = 4 if tied else draw(st.integers(1, 4))
    dim = draw(st.integers(1, 2))
    n_sub = draw(st.integers(0, 2))
    ids = tuple(range(1, n + 1))
    ints = st.integers
    falls = draw(st.booleans())     # else every coordinate is monotone

    def leg(kind, lo, hi):
        return kind(cost=draw(ints(0, 6)),
                    sub_deltas=tuple(draw(ints(-2, 3)) for _ in range(n_sub)),
                    path_deltas=(tuple(draw(ints(lo if falls else 0, hi))
                                       for _ in range(dim)),))

    pairs = [(u, v) for u in ids for v in ids if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    shared = leg(Arc, -3, 4) if tied else None
    block = Block(
        elements=draw(st.permutations(ids)),
        arcs={pair: shared if tied else leg(Arc, -3, 4) for pair in sorted(arcs)},
        entry={k: leg(Boundary, -2, 4) for k in ids},
        exit={k: leg(Boundary, -2, 3) for k in ids},
    )
    window = st.tuples(st.one_of(st.none(), ints(-2, 4)), st.one_of(st.none(), ints(0, 8)))
    subs = [SubpathResource(block=0, windows={k: draw(window) for k in ids},
                            floor_at_lower=draw(st.booleans()))
            for _ in range(n_sub)]
    problem = NestedProblem([block], subs, [PathResource(
        dim=dim, agg=SUM, a=(0,) * dim, b=0, box=((-20, 20),) * dim)])
    duals = Duals({k: Fraction(draw(ints(-2, 8)), draw(ints(1, 2))) for k in ids})
    banned = frozenset(draw(st.lists(st.sampled_from(ids), max_size=2)))
    k = draw(ints(1, 3))
    cuts = sorted(draw(st.lists(ints(-6, 14), min_size=2 * k, max_size=2 * k, unique=True)))
    firsts = [[cuts[2 * i], cuts[2 * i + 1]] for i in range(k)]
    if draw(st.booleans()):
        firsts[0][0] = None
    if draw(st.booleans()):
        firsts[-1][1] = None
    rest = st.tuples(st.one_of(st.none(), ints(-4, 4)), st.one_of(st.none(), ints(4, 12)))
    boxes = [(tuple(first), *(draw(rest) for _ in range(dim - 1))) for first in firsts]
    return problem, duals, banned, boxes


def _tie_broken_by_nodes():
    """(2,) and (1, 2) tie on reduced cost and vector under zero duals;
    the search completes (2,) first, and (1, 2) must replace it."""
    block = Block(
        elements=(1, 2),
        arcs={(1, 2): Arc(path_deltas=((0,),))},
        entry={1: Boundary(path_deltas=((2,),)), 2: Boundary(path_deltas=((2,),))},
        exit={1: Boundary(path_deltas=((5,),))},
    )
    problem = NestedProblem([block], path_resources=[PathResource(
        dim=1, agg=SUM, a=(0,), b=0, box=((-20, 20),))])
    return problem, Duals({}), frozenset(), [((None, None),)]


def _tie_in_an_unsorted_block():
    """(1, 2) and (2, 1) tie on reduced cost and vector in a block listed
    as (2, 1); the smaller node sequence, (1, 2), sorts first."""
    block = Block(elements=(2, 1), arcs={(1, 2): Arc(), (2, 1): Arc()})
    problem = NestedProblem([block], path_resources=[PathResource(
        dim=1, agg=SUM, a=(0,), b=0, box=((-20, 20),))])
    return problem, Duals({1: 1, 2: 1}), frozenset(), [((None, None),)]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_fill_models())
@example(_tie_broken_by_nodes())
@example(_tie_in_an_unsorted_block())
def test_the_fill_answers_every_box_as_the_enumeration_does(model):
    problem, duals, banned, boxes = model
    view = labeling.block_view(problem, 0)
    duals = scaled(duals)
    event(f"{len(boxes)} boxes")
    for res in problem.subpath_resources:
        bound = any(lo is not None for lo, _ in res.windows.values())
        event(f"{'floored' if res.floor_at_lower else 'hard'} subpath resource, "
              f"{'a lower window' if bound else 'open below'}")
    if banned:
        event("bans")
    if not all(view.coord_monotone):
        event("a coordinate that can fall")
    every = synth.enumerate_block_subpaths(problem, 0, banned)

    def first(box):
        """The enumerated subpath in ``box`` that sorts first by (reduced
        cost, vector, nodes), as the fill reports it."""
        best = min(((sp.cost * duals.denom - sum(map(duals.value, sp.nodes)),
                     sp.contributions, sp.nodes, sp)
                    for sp in every if in_box(sp.contributions, box)), default=None)
        return None if best is None else (best[3], best[0])

    found = fill_boxes(problem, 0, duals, boxes=boxes, banned=banned)
    for box, got in zip(boxes, found):
        want = first(box)
        event("box filled" if want else "box empty")
        assert got == want


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


def test_a_ladder_solve_pays_per_call_only_for_what_it_reads(monkeypatch):
    # mpcvrp n=6 T=2 K=3 delta=9/10 seed 1, a ladder cell, quarter-box
    # buckets: every pricing call, a misprice's re-pricing included, weighs
    # each block's steps once; a representative builds its Subpath only
    # when a column reads it; and every fill still gives the per-bucket
    # fill's representatives
    problem = mpcvrp.build_nested(mpcvrp.generate_instance(
        n=6, days=2, vehicles=3, delta=Fraction(9, 10), seed=1
    ))
    weighed = []
    step_weights = labeling.BlockView.step_weights

    def counted(view, duals):
        weighed.append(view.index)
        return step_weights(view, duals)

    per_call = []               # step_weights calls per pricing call
    price = AdaptivePricer.price

    def counted_price(self, *args, **kwargs):
        before = len(weighed)
        outcome = price(self, *args, **kwargs)
        per_call.append(sorted(weighed[before:]))
        return outcome

    made = []                   # every representative the pricer's fills made
    compute = pricing.compute_representative

    def compared(problem, group, duals, weights, banned=frozenset(), tally=None):
        copies = [copy.copy(b) for b in group]
        got = compute(problem, group, duals, weights, banned, tally=tally)
        mark = len(weighed)     # the reference weighs its own searches
        want = _reference_fill(problem, copies, duals, banned=banned)
        del weighed[mark:]
        assert _raw(got) == _raw(want)
        made.extend(r for r in got if r is not None)
        return got

    read = set()                # ids of the representatives a column read
    assemble = pricing._assemble

    def recording(problem, results, chain_of, exclude):
        def chain(buckets):
            read.update(id(b.rep) for b in buckets)
            return chain_of(buckets)
        return assemble(problem, results, chain, exclude)

    monkeypatch.setattr(labeling.BlockView, "step_weights", counted)
    monkeypatch.setattr(AdaptivePricer, "price", counted_price)
    monkeypatch.setattr(pricing, "compute_representative", compared)
    monkeypatch.setattr(pricing, "_assemble", recording)
    report = driver.solve(problem, driver.DriverConfig(
        pricer="adaptive", pricing=PricingConfig(width=_quarter(problem)), dive=True))

    assert report.status == "optimal" and report.misprices > 0
    assert len(per_call) == report.iterations + report.misprices
    assert per_call == [list(range(len(problem.blocks)))] * len(per_call)
    built = [r for r in made if r._subpath is not None]
    assert built and len(built) < len(made)
    assert all(id(r) in read for r in built)
