"""Labeling engines: the layered search over item lists, the
block-level elementary search and the block enumeration, cross-checked
against exhaustive enumeration."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from nestedcg import mpcvrp, synth
from nestedcg.labeling import (
    BlockView,
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
    Boundary,
    NestedProblem,
    PathResource,
    SubpathResource,
)


def _open(problem):
    """The unbounded contribution box."""
    return ((None, None),) * problem.total_coords


def _by_nodes(view, banned=frozenset()):
    """The subpaths of a block's table, sorted by node sequence as the
    oracle enumeration lists them."""
    return tuple(sorted(view.table(banned).subpaths, key=lambda sp: sp.nodes))


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


def test_label_search_top_k_results_are_prefixes():
    # ("a", "z") and ("b", "y") tie on rcost and vector; the item sequence
    # decides, whatever top_k is
    layers = [[("a", 0, (1, 0)), ("b", 0, (0, 1))],
              [("y", 0, (1, 0)), ("z", 0, (0, 1))]]
    rules = ((SUM, SUM), (((1, 0), 1), ((0, 1), 1)))
    assert label_search(layers, *rules, top_k=1)[0].nodes == ("a", "z")
    for top_k in range(1, 4):
        shorter = label_search(layers, *rules, top_k=top_k)
        longer = label_search(layers, *rules, top_k=top_k + 1)
        assert longer[: len(shorter)] == shorter, top_k
    # under MAX a smaller partial vector can still tie: ("b", "y") stays
    # below ("a", "y") until "z" lifts both to 5
    layers = [[("a", 0, (2,)), ("b", 0, (1,))], [("y", 0, (0,))], [("z", 0, (5,))]]
    assert label_search(layers, (MAX,), ())[0].nodes == ("a", "y", "z")


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
            # the first top_k paths in (rcost, vector, items) order, so each
            # top_k result is a prefix of the top_k + 1 result
            got = label_search(layers, aggs, checks, prune, top_k)
            assert [(r.rcost, r.resources, r.nodes) for r in got] == paths[:top_k], seed
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
    hit = elementary_rcspp(problem, 0, boxes=[((7, 10),)])[0]
    assert hit is not None, "the lower-bounded region is reachable"
    best, rcost = hit
    assert rcost == 2
    assert best.contributions == (7,)


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
    subpaths = synth.enumerate_block_subpaths(problem, 0)
    assert len(subpaths) == m * m
    want = sorted(
        (sp.cost * scaled.denom - sum(scaled.value(k) for k in sp.nodes),
         sp.contributions, sp.nodes, sp.cost)
        for sp in subpaths
    )
    view = block_view(problem, 0)
    table = view.table()
    got = sorted(
        (rc, sp.contributions, sp.nodes, sp.cost)
        for sp, rc in zip(table.subpaths, view.reduced_costs(table, scaled))
    )
    assert got == want
    # the search finds the first of them
    sp, rc = elementary_rcspp(problem, 0, scaled, boxes=[_open(problem)])[0]
    assert (rc, sp.contributions, sp.nodes, sp.cost) == want[0]
    # and the block enumeration holds the same subpaths
    assert list(_by_nodes(view)) == subpaths


def _brute_min(problem, block_index, scaled, box=None, banned=frozenset()):
    """Reference: enumerate every feasible subpath, filter, take the min."""
    best = None
    for sp in synth.enumerate_block_subpaths(problem, block_index, banned):
        if box is not None and any(
            not lo <= v <= hi for (lo, hi), v in zip(box, sp.contributions)
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
        got = elementary_rcspp(problem, block_index, duals, boxes=[_open(problem)])[0]
        want = _brute_min(problem, block_index, scaled)
        if want is None:
            assert got is None
        else:
            assert got[1] == want


@pytest.mark.parametrize("seed", range(1, 11))
def test_box_restricted_search_matches_enumeration(seed):
    problem = synth.random_tiny_instance(seed)
    duals = synth.random_duals(problem, seed + 200)
    scaled = duals.scaled()
    full = problem.contribution_box()
    # halve each coordinate range to make the box genuinely binding
    box = tuple((lo, lo + (hi - lo) // 2) for lo, hi in full)
    for block_index in range(len(problem.blocks)):
        got = elementary_rcspp(problem, block_index, duals, boxes=[box])[0]
        want = _brute_min(problem, block_index, scaled, box=box)
        if want is None:
            assert got is None
        else:
            sp, rcost = got
            assert rcost == want
            assert all(lo <= v <= hi for (lo, hi), v in zip(box, sp.contributions))


def test_banned_elements_are_skipped():
    problem = synth.random_tiny_instance(2)
    block = problem.blocks[0]
    victim = block.elements[0]
    hit = elementary_rcspp(problem, 0, boxes=[_open(problem)], banned={victim})[0]
    assert hit is not None, "other elements keep the block alive"
    assert victim not in hit[0].nodes
    table = block_view(problem, 0).table({victim})
    assert table, "other elements keep the block alive"
    assert all(victim not in sp.nodes for sp in table.subpaths)


def test_coordinate_objective_minimizes_that_coordinate():
    for seed in (1, 5, 9):
        problem = synth.random_tiny_instance(seed)
        for block_index in range(len(problem.blocks)):
            subs = synth.enumerate_block_subpaths(problem, block_index)
            for coord in range(problem.total_coords):
                want = min(sp.contributions[coord] for sp in subs)
                view = block_view(problem, block_index)
                assert view.min_achievable(coord) == want


def _routing(n, seed):
    return mpcvrp.build_nested(mpcvrp.generate_instance(
        n=n, days=2, vehicles=2, delta=Fraction(1, 2), seed=seed
    ))


FAMILIES = {
    "tiny": synth.random_tiny_instance,
    "chain": synth.random_chain_instance,
    "span": lambda seed: synth.build_span_problem(synth.random_span_instance(seed)),
    "mpcvrp4": lambda seed: _routing(4, seed),
    "mpcvrp5": lambda seed: _routing(5, seed),
}


def _oracle_subpaths(problem, block_index, banned):
    return tuple(synth.enumerate_block_subpaths(problem, block_index, banned))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_block_enumeration_matches_the_oracle(family):
    blocks = 0
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        problem = FAMILIES[family](seed)
        banned = frozenset()
        for _ in range(4):
            for bi, block in enumerate(problem.blocks):
                view = block_view(problem, bi)
                got = _by_nodes(view, banned)
                assert got == _oracle_subpaths(problem, bi, banned), (seed, bi)
                # the cache is keyed by the bans inside the block only
                outside = frozenset(problem.elements) - set(block.elements)
                assert view.table(banned | outside) is view.table(banned)
                blocks += 1
            banned |= {rng.choice(problem.elements)}
    assert blocks


def test_block_is_searched_once_across_ban_sets(monkeypatch):
    calls = []
    search = BlockView._enumerate

    def counted(view):
        calls.append(view.index)
        return search(view)

    monkeypatch.setattr(BlockView, "_enumerate", counted)
    problem = _routing(5, 2)
    rng = random.Random(2)
    banned = frozenset()
    for _ in range(4):
        for bi in range(len(problem.blocks)):
            view = block_view(problem, bi)
            table = view.table(banned)
            # the filtered table keeps the order of the unbanned one
            assert table.subpaths == tuple(
                sp for sp in view.table().subpaths if banned.isdisjoint(sp.nodes)
            )
            keys = [(sp.contributions, sp.nodes) for sp in table.subpaths]
            assert keys == sorted(keys)
            assert table.vectors == tuple(vec for vec, _ in keys)
            assert set(table.subpaths) == set(_oracle_subpaths(problem, bi, banned))
        banned |= {rng.choice(problem.elements)}
    assert sorted(calls) == list(range(len(problem.blocks)))


@pytest.mark.parametrize("floor", (False, True))
def test_block_enumeration_with_lower_windows(floor):
    # entering 1 gives 2 < 5 and entering 2 gives 3 < 6: hard windows
    # reject every subpath starting there, floored ones lift the value to
    # the lower bound (then 5 + 2 = 7 fits 2's window, where the unlifted
    # 2 + 2 = 4 would not); entering 3 gives 9, inside every window met
    block = Block(
        elements=(1, 2, 3),
        arcs={
            (1, 2): Arc(cost=1, sub_deltas=(2,), path_deltas=((1,),)),
            (2, 3): Arc(cost=2, sub_deltas=(1,), path_deltas=((2,),)),
            (3, 1): Arc(cost=4, sub_deltas=(0,), path_deltas=((4,),)),
        },
        entry={1: Boundary(sub_deltas=(2,)), 2: Boundary(sub_deltas=(3,)),
               3: Boundary(sub_deltas=(9,))},
        exit={3: Boundary(cost=5, path_deltas=((8,),))},
    )
    problem = NestedProblem(
        [block],
        [SubpathResource(
            block=0, windows={1: (5, 10), 2: (6, 20), 3: (None, 9)},
            floor_at_lower=floor,
        )],
        path_resources=[PathResource(dim=1, agg=SUM, a=(1,), b=100, box=((0, 50),))],
    )
    got = _by_nodes(block_view(problem, 0))
    assert got == _oracle_subpaths(problem, 0, frozenset())
    want = {(3,), (3, 1), (3, 1, 2)}
    if floor:
        want |= {(1,), (1, 2), (1, 2, 3), (2,), (2, 3), (2, 3, 1)}
    assert {sp.nodes for sp in got} == want
