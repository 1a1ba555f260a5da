"""Labeling engines: the layered search over item lists and the
block-level elementary search, cross-checked against exhaustive
enumeration."""

import itertools
import math
import random

import pytest

from nestedcg import synth
from nestedcg.labeling import (
    block_view,
    elementary_rcspp,
    label_search,
    through_values,
)
from nestedcg.model import (
    MAX,
    SUM,
    Arc,
    Block,
    NestedProblem,
    PathResource,
)
from nestedcg.pricing import _enumerate_subpaths


def _diamond():
    # one block, two items: "a" costs 3 with vector (1,), "b" 1 with (5,)
    return [[("a", 3, (1,)), ("b", 1, (5,))]]


def test_label_search_picks_cheapest():
    out = label_search(_diamond(), (SUM,), ())
    assert len(out) == 1
    assert out[0].nodes == ("b",)
    assert out[0].rcost == 1
    assert out[0].resources == (5,)


def test_label_search_top_k_is_sorted_prefix():
    out = label_search(_diamond(), (SUM,), (), top_k=5)
    assert [r.rcost for r in out] == [1, 3]


def test_label_search_sink_checks_and_pruning():
    out = label_search(_diamond(), (SUM,), (((1,), 2),))
    assert out[0].nodes == ("a",)
    # same predicate allowed to prune partial labels: identical answer
    pruned = label_search(_diamond(), (SUM,), (((1,), 2),), (True,))
    assert pruned == out


def test_label_search_max_and_set_ops():
    # the first block's vector is taken as it is; later blocks take maxima
    layers = [[("a", 0, (7,))], [("t", 0, (3,))]]
    assert label_search(layers, (MAX,), ())[0].resources == (7,)
    layers[1] = [("t", 0, (11,))]
    assert label_search(layers, (MAX,), ())[0].resources == (11,)


def _random_layers(rng):
    """Small random layers, aggregators, predicates and sound prune flags.
    ``MAX`` coordinates and unpruned ``SUM`` coordinates may go negative."""
    n = rng.randint(1, 3)
    aggs = tuple(rng.choice((SUM, MAX)) for _ in range(n))
    signed = [agg == MAX or rng.random() < 0.3 for agg in aggs]
    layers = [
        [
            ((li, j), rng.randint(-10, 10),
             tuple(rng.randint(-5 if s else 0, 6) for s in signed))
            for j in range(rng.randint(1, 4))
        ]
        for li in range(rng.randint(1, 4))
    ]
    checks, prune = [], []
    for _ in range(rng.randint(0, 2)):
        weights = tuple(rng.randint(0, 2) for _ in aggs)
        checks.append((weights, rng.randint(-2, 12)))
        sound = all(
            w == 0 or agg == MAX or not s for w, agg, s in zip(weights, aggs, signed)
        )
        prune.append(sound and rng.random() < 0.7)
    return layers, aggs, tuple(checks), tuple(prune)


def _aggregate(aggs, vectors):
    out = list(vectors[0])
    for vec in vectors[1:]:
        out = [x + y if agg == SUM else max(x, y) for agg, x, y in zip(aggs, out, vec)]
    return tuple(out)


def test_layered_search_matches_brute_force():
    for seed in range(300):
        rng = random.Random(seed)
        layers, aggs, checks, prune = _random_layers(rng)
        paths = []
        for combo in itertools.product(*layers):
            vec = _aggregate(aggs, [v for _, _, v in combo])
            if all(sum(w * x for w, x in zip(ws, vec)) <= b for ws, b in checks):
                paths.append((sum(rc for _, rc, _ in combo), vec,
                              tuple(item for item, _, _ in combo)))
        paths.sort()
        for top_k in range(1, 5):
            got = label_search(layers, aggs, checks, prune, top_k)
            assert len(got) == min(top_k, len(paths)), seed
            assert [r.rcost for r in got] == [p[0] for p in paths[: len(got)]], seed
            assert all((r.rcost, r.resources, r.nodes) in paths for r in got), seed
            if got:
                assert (got[0].rcost, got[0].resources) == paths[0][:2], seed
        through = through_values(layers, aggs, checks, prune)
        for li, (layer, values) in enumerate(zip(layers, through)):
            for (item, _, _), value in zip(layer, values):
                want = min((p[0] for p in paths if p[2][li] == item), default=math.inf)
                assert value == want, (seed, item)


def test_dominance_eq_mode_protects_lower_bounded_coordinates():
    # two orders of the same element set reach the end with different
    # contributions; only the more expensive one satisfies the box lower
    # bound, so plain cheapest-and-smallest dominance would lose the answer
    block = Block(
        elements=(1, 2, 3),
        arcs={
            (1, 2): Arc(cost=1, path_deltas=((5,),)),
            (2, 1): Arc(cost=2, path_deltas=((7,),)),
            (2, 3): Arc(),
            (1, 3): Arc(),
        },
    )
    problem = NestedProblem(
        [block],
        path_resources=[PathResource(dim=1, agg=SUM, a=(1,), b=100, box=((0, 100),))],
    )
    hits = elementary_rcspp(problem, 0, contribution_box=((7, 10),), top_k=3)
    assert hits, "the lower-bounded region is reachable"
    best, rcost = hits[0]
    assert rcost == 2
    assert best.contributions == ((7,),)


def test_blocks_past_31_elements_match_enumeration():
    # visited sets are Python ints, so element 32 needs bit 32; arcs run
    # both ways along the chain, so elementarity is what stops walks
    # from turning back
    m = 33
    arcs = {}
    for i in range(m - 1):
        arcs[(i, i + 1)] = Arc(cost=1 + i % 3, path_deltas=((1 + i % 4,),))
        arcs[(i + 1, i)] = Arc(cost=2, path_deltas=((2,),))
    block = Block(elements=tuple(range(m)), arcs=arcs)
    problem = NestedProblem(
        [block],
        path_resources=[PathResource(dim=1, agg=SUM, a=(1,), b=10**6, box=((0, 200),))],
    )
    scaled = synth.random_duals(problem, 7).scaled()
    subpaths = _enumerate_subpaths(problem, 0, frozenset())
    assert len(subpaths) == m * m
    want = sorted(
        (sp.cost * scaled.denom - sum(scaled.value(k) for k in sp.nodes),
         sp.contributions, sp.nodes, sp.cost)
        for sp in subpaths
    )
    got = elementary_rcspp(problem, 0, scaled, top_k=len(subpaths))
    assert [(rc, sp.contributions, sp.nodes, sp.cost) for sp, rc in got] == want
    # a short prefix of the same order
    assert elementary_rcspp(problem, 0, scaled, top_k=5) == got[:5]


def _brute_min(problem, block_index, scaled, box=None, banned=frozenset()):
    """Reference: enumerate every feasible subpath, filter, take the min."""
    best = None
    for sp in synth.enumerate_block_subpaths(problem, block_index, banned):
        flat = [x for vec in sp.contributions for x in vec]
        if box is not None and any(
            not lo <= v <= hi for (lo, hi), v in zip(box, flat)
        ):
            continue
        rc = sp.cost * scaled.denom - sum(scaled.value(k) for k in sp.nodes)
        if best is None or rc < best:
            best = rc
    return best


@pytest.mark.parametrize("seed", range(1, 11))
def test_elementary_search_matches_enumeration(seed):
    problem = synth.random_tiny_instance(seed)
    duals = synth.random_duals(problem, seed + 100)
    scaled = duals.scaled()
    for block_index in range(len(problem.blocks)):
        got = elementary_rcspp(problem, block_index, duals)
        want = _brute_min(problem, block_index, scaled)
        if want is None:
            assert got == []
        else:
            assert got[0][1] == want


@pytest.mark.parametrize("seed", range(1, 11))
def test_box_restricted_search_matches_enumeration(seed):
    problem = synth.random_tiny_instance(seed)
    duals = synth.random_duals(problem, seed + 200)
    scaled = duals.scaled()
    full = problem.contribution_box()
    # halve each coordinate range to make the box genuinely binding
    box = tuple((lo, lo + (hi - lo) // 2) for lo, hi in full)
    for block_index in range(len(problem.blocks)):
        got = elementary_rcspp(problem, block_index, duals, contribution_box=box)
        want = _brute_min(problem, block_index, scaled, box=box)
        if want is None:
            assert got == []
        else:
            assert got[0][1] == want
            sp = got[0][0]
            flat = [x for vec in sp.contributions for x in vec]
            assert all(lo <= v <= hi for (lo, hi), v in zip(box, flat))


@pytest.mark.parametrize("seed", (3, 8, 12))
def test_top_k_rcosts_are_a_sorted_prefix(seed):
    problem = synth.random_tiny_instance(seed)
    duals = synth.random_duals(problem, seed)
    scaled = duals.scaled()
    for block_index in range(len(problem.blocks)):
        all_rcosts = sorted(
            sp.cost * scaled.denom - sum(scaled.value(k) for k in sp.nodes)
            for sp in synth.enumerate_block_subpaths(problem, block_index)
        )
        got = elementary_rcspp(problem, block_index, duals, top_k=4)
        assert [rc for _, rc in got] == all_rcosts[: len(got)]
        assert len(got) == min(4, len(all_rcosts))


def test_banned_elements_are_skipped():
    problem = synth.random_tiny_instance(2)
    block = problem.blocks[0]
    victim = block.elements[0]
    hits = elementary_rcspp(problem, 0, banned={victim}, top_k=50)
    assert hits, "other elements keep the block alive"
    assert all(victim not in sp.nodes for sp, _ in hits)


def test_coordinate_objective_minimizes_that_coordinate():
    for seed in (1, 5, 9):
        problem = synth.random_tiny_instance(seed)
        for block_index in range(len(problem.blocks)):
            subs = synth.enumerate_block_subpaths(problem, block_index)
            for coord in range(problem.total_coords):
                want = min(
                    [x for vec in sp.contributions for x in vec][coord]
                    for sp in subs
                )
                view = block_view(problem, block_index)
                assert view.min_achievable(coord) == want
