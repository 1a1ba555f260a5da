"""Labeling engine: DAG search semantics and block-level elementary search
cross-checked against exhaustive enumeration."""

import pytest

from nestedcg import synth
from nestedcg.labeling import (
    EQ,
    LE,
    ArcStep,
    DominanceRule,
    LabelingError,
    LayeredDag,
    block_view,
    elementary_rcspp,
    label_search,
)
from nestedcg.model import (
    SUM,
    Arc,
    Block,
    NestedProblem,
    PathResource,
)
from nestedcg.pricing import _enumerate_subpaths


def _diamond():
    dag = LayeredDag(
        layers=(("s",), ("a", "b"), ("t",)),
        arcs=(("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")),
    )
    refs = {
        ("s", "a"): ArcStep(3, (("add", 1),)),
        ("s", "b"): ArcStep(1, (("add", 5),)),
        ("a", "t"): ArcStep(0, (("add", 0),)),
        ("b", "t"): ArcStep(0, (("add", 0),)),
    }
    return dag, refs


def test_label_search_picks_cheapest():
    dag, refs = _diamond()
    out = label_search(dag, refs, DominanceRule((LE,)))
    assert len(out) == 1
    assert out[0].nodes == ("s", "b", "t")
    assert out[0].rcost == 1
    assert out[0].resources == (5,)


def test_label_search_top_k_is_sorted_prefix():
    dag, refs = _diamond()
    out = label_search(dag, refs, DominanceRule((LE,)), top_k=5)
    assert [r.rcost for r in out] == [1, 3]


def test_label_search_windows_filter_on_arrival():
    dag, refs = _diamond()
    out = label_search(
        dag, refs, DominanceRule((LE,)), windows={"b": ((None, 4),)}
    )
    assert out[0].nodes == ("s", "a", "t")


def test_label_search_sink_checks_and_pruning():
    dag, refs = _diamond()
    out = label_search(
        dag, refs, DominanceRule((LE,)), sink_checks=(((1,), 2),)
    )
    assert out[0].nodes == ("s", "a", "t")
    # same predicate allowed to prune partial labels: identical answer
    pruned = label_search(
        dag,
        refs,
        DominanceRule((LE,)),
        sink_checks=(((1,), 2),),
        prune_checks=(True,),
    )
    assert pruned == out


def test_label_search_max_and_set_ops():
    dag = LayeredDag(
        layers=(("s",), ("a",), ("t",)), arcs=(("s", "a"), ("a", "t"))
    )
    refs = {
        ("s", "a"): ArcStep(0, (("set", 7),)),
        ("a", "t"): ArcStep(0, (("max", 3),)),
    }
    out = label_search(dag, refs, DominanceRule((LE,)))
    assert out[0].resources == (7,)
    refs[("a", "t")] = ArcStep(0, (("max", 11),))
    out = label_search(dag, refs, DominanceRule((LE,)))
    assert out[0].resources == (11,)


def test_layered_dag_validation():
    with pytest.raises(LabelingError):
        LayeredDag(layers=(("s",), ("s",)), arcs=())
    with pytest.raises(LabelingError):
        LayeredDag(layers=(("s",), ("a",), ("t",)), arcs=(("s", "t"),))
    with pytest.raises(LabelingError):
        LayeredDag(layers=(("s",), ("t",)), arcs=(("s", "x"),))


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
