"""Labeling engines: the layered search over item lists, the
block-level elementary search and the block enumeration, cross-checked
against exhaustive enumeration."""

import itertools
import math
import operator
import random
from bisect import bisect_right
from collections import defaultdict
from fractions import Fraction

import pytest
from helpers import (
    check_table,
    fill_boxes,
    in_box,
    limited_subpaths,
    scaled,
    undominated,
    usable_subpaths,
)
from hypothesis import event, given, settings
from hypothesis import strategies as st

from nestedcg import labeling, mpcvrp, synth
from nestedcg.labeling import (
    BlockView,
    LabelingError,
    Packing,
    block_view,
    label_search,
    through_values,
)
from nestedcg.model import (
    MAX,
    SUM,
    Arc,
    Block,
    Boundary,
    Duals,
    NestedProblem,
    PathResource,
    SubpathResource,
)
from nestedcg.pricing import COLUMNS_PER_CALL


def _open(problem):
    """The unbounded contribution box."""
    return ((None, None),) * problem.total_coords


def _by_nodes(view, banned=frozenset()):
    """The subpaths of a block's table that avoid ``banned``, sorted by
    node sequence as the oracle enumeration lists them."""
    table, mask = view.table(), view._mask(banned)
    return tuple(sorted((sp for sp, m in zip(table.subpaths, table.masks) if not m & mask),
                        key=lambda sp: sp.nodes))


def _diamond():
    # one block, two items: "a" costs 3 with vector (1,), "b" 1 with (5,)
    return [[("a", 3, (1,)), ("b", 1, (5,))]]


def test_label_search_picks_cheapest():
    out = label_search(_diamond(), (SUM,), ())
    assert len(out) == 1
    assert out[0].nodes == ("b",)
    assert out[0].rcost == 1
    assert out[0].resources == (5,)


def test_label_search_rejects_a_top_k_below_one():
    with pytest.raises(LabelingError, match="top_k"):
        label_search(_diamond(), (SUM,), (), top_k=0)


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
    ``MAX`` coordinates and unpruned ``SUM`` coordinates may go negative,
    so a check on such a ``SUM`` coordinate may see negative loads; in
    half the draws reduced costs are small, so partial paths tie.  A
    layer lists its items out of their sort order, so labels reach a
    store out of (rcost, vector, items) order.  In some draws several
    checks on ``SUM`` coordinates alone (additive ones) meet one on a
    ``MAX`` coordinate, and in some every bound lies just above the least
    that a path can weigh, so most cheap paths fail."""
    n = rng.randint(1, 3)
    aggs = tuple(rng.choice((SUM, MAX)) for _ in range(n))
    signed = [agg == MAX or rng.random() < 0.3 for agg in aggs]
    spread = rng.choice((2, 10))
    layers = [
        [
            ((li, j), rng.randint(-spread, spread),
             tuple(rng.randint(-5 if s else 0, 6) for s in signed))
            for j in rng.sample(range(4), rng.randint(1, 4))
        ]
        for li in range(rng.randint(1, 5))
    ]
    weights = [tuple(rng.randint(0, 2) for _ in aggs) for _ in range(rng.randint(0, 2))]
    if SUM in aggs and MAX in aggs and rng.random() < 0.25:
        weights += [tuple(rng.randint(0, 2) if agg == SUM else 0 for agg in aggs)
                    for _ in range(rng.randint(2, 3))]
        top = rng.choice([c for c, agg in enumerate(aggs) if agg == MAX])
        weights.append(tuple(int(c == top) for c in range(n)))
    # per coordinate, the least that a path can hold
    floor = _aggregate(aggs, [[min(col) for col in zip(*[v for _, _, v in layer])]
                              for layer in layers])
    tight = rng.random() < 0.25
    checks, prune = [], []
    for ws in weights:
        least = sum(w * x for w, x in zip(ws, floor))
        checks.append((ws, least + rng.randint(0, 3) if tight else rng.randint(-2, 12)))
        sound = all(w == 0 or agg == MAX or not s for w, agg, s in zip(ws, aggs, signed))
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


class _Token:
    """An item that defines only ``<``, as buckets do."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return self.key < other.key

    def __repr__(self):
        return f"_Token({self.key!r})"


def _matches_brute_force(seed, tokens):
    """Check :func:`label_search` at every ``top_k`` up to a pricing
    call's and :func:`through_values` on draw ``seed`` of
    :func:`_random_layers`, its items wrapped in ``_Token`` when
    ``tokens``, against exhaustive enumeration of its paths."""
    layers, aggs, checks, prune = _random_layers(random.Random(seed))
    if tokens:
        layers = [[(_Token(item), rc, vec) for item, rc, vec in layer]
                  for layer in layers]
    paths = []
    for combo in itertools.product(*layers):
        vec = _aggregate(aggs, [v for _, _, v in combo])
        if all(sum(w * x for w, x in zip(ws, vec)) <= b for ws, b in checks):
            paths.append((sum(rc for _, rc, _ in combo), vec,
                          tuple(item for item, _, _ in combo)))
    paths.sort()
    for top_k in range(1, COLUMNS_PER_CALL + 1):
        # the first top_k paths in (rcost, vector, items) order, so each
        # top_k result is a prefix of the top_k + 1 result
        got = label_search(layers, aggs, checks, prune, top_k)
        assert [(r.rcost, r.resources, r.nodes) for r in got] == paths[:top_k], seed
    through = through_values(layers, aggs, checks, prune)
    for li, (layer, values) in enumerate(zip(layers, through)):
        for (item, _, _), value in zip(layer, values):
            want = min((p[0] for p in paths if p[2][li] == item), default=math.inf)
            assert value == want, (seed, item)


def test_layered_search_matches_brute_force():
    # CI runs 20,000 draws, each with plain and with _Token items
    for seed in range(1000):
        _matches_brute_force(seed, tokens=seed % 2)


def test_the_last_layer_selects_without_stores(monkeypatch):
    # dominance prunes partial paths, so only a layer that a later layer
    # extends stores labels; the last one goes straight to the selection
    calls = []
    insert = labeling._insert

    def counted(*args):
        calls.append(args)
        return insert(*args)

    monkeypatch.setattr(labeling, "_insert", counted)
    layers = [[("a", 0, (1,)), ("b", 1, (0,))], [("y", 0, (2,)), ("z", 2, (0,))]]
    for top_k in (1, 3):
        out = label_search(layers, (SUM,), (((1,), 2),), (True,), top_k)
        assert [r.nodes for r in out] == [("b", "y"), ("a", "z"), ("b", "z")][:top_k]
    assert calls == []
    label_search([*layers, [("w", 0, (0,))]], (SUM,), ())
    assert len(calls) == 4, "the middle layer stores its labels"


def test_a_candidate_that_fails_an_additive_check_builds_nothing(monkeypatch):
    # the last layer tests a candidate on its packed loads first: one that
    # fails an additive check neither builds its path vector nor meets
    # the check on a MAX coordinate, which only a built vector can take
    built, tested = [], []
    rules = labeling._layer_rules.__wrapped__

    def counted(*key):
        combine, dominates, additive, rest, partial_rest = rules(*key)

        def counted_combine(res, vec):
            built.append((res, vec))
            return combine(res, vec)

        def counted_rest(res):
            tested.append(res)
            return rest(res)

        return counted_combine, dominates, additive, counted_rest, partial_rest

    monkeypatch.setattr(labeling, "_layer_rules", counted)
    # ("a", "y") is the cheapest path and loads 3 on the first check
    layers = [[("a", 0, (1, 0)), ("b", 1, (0, 0))], [("y", 0, (2, 0)), ("z", 2, (0, 1))]]
    checks = (((1, 0), 2), ((0, 1), 5))
    out = label_search(layers, (SUM, MAX), checks, (True, True), top_k=3)
    assert [r.nodes for r in out] == [("b", "y"), ("a", "z"), ("b", "z")]
    assert built == [((1, 0), (0, 1)), ((0, 0), (2, 0)), ((0, 0), (0, 1))]
    assert tested == [(1, 1), (2, 0), (0, 1)]


def test_fill_keeps_a_dearer_ordering_that_meets_a_box_lower_end():
    # two orders of the same element set reach the end with different
    # contributions; only the dearer one meets the box's lower end, so a
    # fill that let the cheaper, smaller one dominate it would lose it
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
    hit = fill_boxes(problem, 0, scaled(Duals({})), boxes=[((7, 10),)])[0]
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
    duals = scaled(synth.random_duals(problem, 7))
    subpaths = synth.enumerate_block_subpaths(problem, 0)
    assert len(subpaths) == m * m
    want = sorted(
        (sp.cost * duals.denom - sum(duals.value(k) for k in sp.nodes),
         sp.contributions, sp.nodes, sp.cost)
        for sp in subpaths
    )
    # the table holds the subpaths that no subpath with the same elements
    # dominates, each priced as the oracle prices it
    kept = {sp.nodes for sp in undominated(subpaths)}
    view = block_view(problem, 0)
    table = view.table()
    got = sorted(
        (rc, sp.contributions, sp.nodes, sp.cost)
        for sp, rc in zip(table.subpaths, table.rcosts(duals, view.elements))
    )
    assert got == [row for row in want if row[2] in kept]
    # the search finds the first of them all
    sp, rc = fill_boxes(problem, 0, duals, boxes=[_open(problem)])[0]
    assert (rc, sp.contributions, sp.nodes, sp.cost) == want[0]
    assert list(_by_nodes(view)) == [sp for sp in subpaths if sp.nodes in kept]


def _brute_min(problem, block_index, duals, box=None, banned=frozenset()):
    """Reference: enumerate every feasible subpath, filter, take the min."""
    best = None
    for sp in synth.enumerate_block_subpaths(problem, block_index, banned):
        if box is not None and any(
            not lo <= v <= hi for (lo, hi), v in zip(box, sp.contributions)
        ):
            continue
        rc = sp.cost * duals.denom - sum(duals.value(k) for k in sp.nodes)
        if best is None or rc < best:
            best = rc
    return best


@pytest.mark.parametrize("seed", range(1, 11))
def test_elementary_search_matches_enumeration(seed):
    problem = synth.random_tiny_instance(seed)
    duals = scaled(synth.random_duals(problem, seed + 100))
    for block_index in range(len(problem.blocks)):
        got = fill_boxes(problem, block_index, duals, boxes=[_open(problem)])[0]
        want = _brute_min(problem, block_index, duals)
        if want is None:
            assert got is None
        else:
            assert got[1] == want


@pytest.mark.parametrize("seed", range(1, 11))
def test_box_restricted_search_matches_enumeration(seed):
    problem = synth.random_tiny_instance(seed)
    duals = scaled(synth.random_duals(problem, seed + 200))
    full = problem.contribution_box()
    # halve each coordinate range to make the box genuinely binding
    box = tuple((lo, lo + (hi - lo) // 2) for lo, hi in full)
    for block_index in range(len(problem.blocks)):
        got = fill_boxes(problem, block_index, duals, boxes=[box])[0]
        want = _brute_min(problem, block_index, duals, box=box)
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
    hit = fill_boxes(problem, 0, scaled(Duals({})), boxes=[_open(problem)],
                     banned={victim})[0]
    assert hit is not None, "other elements keep the block alive"
    assert victim not in hit[0].nodes
    rows = _by_nodes(block_view(problem, 0), {victim})
    assert rows, "other elements keep the block alive"
    assert all(victim not in sp.nodes for sp in rows)


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
    # the table holds only subpaths the oracle lists, none that another
    # with the same elements dominates, and for every subpath that can lie
    # on a feasible path one with the same elements that dominates it or
    # is it
    blocks = 0
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        problem = FAMILIES[family](seed)
        banned = frozenset()
        for _ in range(4):
            for bi, block in enumerate(problem.blocks):
                view = block_view(problem, bi)
                got = _by_nodes(view, banned)
                assert len(set(got)) == len(got)
                check_table(problem, bi, got, banned)
                # the mask holds the bans inside the block only
                outside = frozenset(problem.elements) - set(block.elements)
                assert view._mask(banned | outside) == view._mask(banned)
                blocks += 1
            banned |= {rng.choice(problem.elements)}
    assert blocks


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_reach_is_the_box_on_every_generated_family(family):
    # every subpath of these families that a feasible path can use lies
    # in the box, so no block's tiling stretches past it
    for seed in range(1, 6):
        problem = FAMILIES[family](seed)
        box = problem.contribution_box()
        for bi in range(len(problem.blocks)):
            assert block_view(problem, bi).reach(box) == box
            if seed <= 2:
                assert all(lo <= x <= hi for sp in usable_subpaths(problem, bi)
                           for x, (lo, hi) in zip(sp.contributions, box))


@st.composite
def _packings(draw):
    """(bounds, vectors, caps, boxes): 0-3 coordinate ranges, some one
    value wide, some below 0; 2-6 vectors inside them; caps and box ends
    that lie below the low bound, inside, above the high bound, or are
    open (an infinite cap, a None end); and 1-3 disjoint boxes, split on
    one coordinate."""
    ints = st.integers
    bounds = []
    for _ in range(draw(ints(0, 3))):
        low = draw(ints(-40, 40))
        bounds.append((low, low + draw(ints(0, 70))))
    vectors = draw(st.lists(st.tuples(*(ints(lo, hi) for lo, hi in bounds)),
                            min_size=2, max_size=6))

    def end(lo, hi, open_end):
        return st.one_of(ints(lo - 5, hi + 5),
                         st.sampled_from((lo - 2, lo - 1, lo, hi, hi + 1, hi + 2)),
                         st.just(open_end))

    caps = draw(st.lists(st.tuples(*(end(lo, hi, math.inf) for lo, hi in bounds)),
                         min_size=1, max_size=4))
    ranges = [st.tuples(end(lo, hi, None), end(lo, hi, None)) for lo, hi in bounds]
    if not bounds:
        return bounds, vectors, caps, [()]
    c = draw(ints(0, len(bounds) - 1))
    lo, hi = bounds[c]
    k = draw(ints(1, 3))
    cuts = sorted(draw(st.lists(ints(lo - 5, hi + 5), min_size=2 * k, max_size=2 * k,
                                unique=True)))
    boxes = []
    for i in range(k):
        box = [draw(r) for r in ranges]
        box[c] = (None if i == 0 and draw(st.booleans()) else cuts[2 * i],
                  None if i == k - 1 and draw(st.booleans()) else cuts[2 * i + 1])
        boxes.append(tuple(box))
    return bounds, vectors, caps, boxes


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_packings())
def test_packed_vectors_act_as_their_tuples(case):
    bounds, vectors, caps, boxes = case
    packing = Packing(tuple(bounds))
    guard = packing.guard
    starts, reach, tests = packing.box_tables([packing.corners(box) for box in boxes])
    for cap in caps:
        for x, (lo, hi) in zip(cap, bounds):
            if x < lo - 1:
                event("a cap clamped up to low - 1")
            if hi < x < math.inf:
                event("a cap clamped down to high")
    for vec in vectors:
        packed = packing.pack(vec)
        assert packing.unpack(packed) == vec
        for other in vectors:
            # int order is tuple order, and a delta (below 0 too) is one addition
            assert (packed < packing.pack(other)) == (vec < other)
            assert (packed + packing.delta(map(operator.sub, other, vec))
                    == packing.pack(other))
        for cap in caps:
            fits = (packing.pack(cap) + guard - packed) & guard == guard
            assert fits == all(map(operator.le, vec, cap)), (vec, cap)
            # the walk's break: above the packed cap as an int is above it
            # on some coordinate, and with one coordinate that is all
            if packed > packing.pack(cap):
                assert not fits, (vec, cap)
            if len(bounds) <= 1:
                assert fits == (packed <= packing.pack(cap)), (vec, cap)
        # the guard test on a box's packed corners is membership, and the
        # holder starts at or below vec and reaches it, where the fill looks
        holders = [i for i, box in enumerate(boxes) if in_box(vec, box)]
        inside = [(j, i) for j, (i, lo, hi) in enumerate(tests)
                  if (packed - lo) & (hi - packed) & guard == guard]
        assert [i for _, i in inside] == holders, (vec, boxes)
        assert all(j < bisect_right(starts, packed) and reach[j] >= packed
                   for j, _ in inside), (vec, boxes)


@st.composite
def _window_models(draw):
    """One block of 1-4 elements and 0-3 subpath resources, each floored
    or hard, whose window ends may be open, may bind from below (a
    floored lower end often above every entry delta) and may cross
    (lo > hi), and whose entry and arc deltas may be below 0.  Each entry
    and each arc contributes its own power of two, so every ordering of
    the block's elements has a contribution of its own."""
    ints = st.integers
    n = draw(ints(1, 4))
    n_sub = draw(ints(0, 3))
    ids = tuple(range(1, n + 1))
    deltas = st.tuples(*[ints(-3, 4)] * n_sub)
    end = st.one_of(st.none(), ints(-6, 10))
    pairs = [(u, v) for u in ids for v in ids if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    block = Block(
        elements=ids,
        arcs={pair: Arc(sub_deltas=draw(deltas), path_deltas=((1 << n + i,),))
              for i, pair in enumerate(sorted(arcs))},
        entry={k: Boundary(sub_deltas=draw(deltas), path_deltas=((1 << k - 1,),)) for k in ids},
    )
    subs = [SubpathResource(block=0, windows={k: draw(st.tuples(end, end)) for k in ids},
                            floor_at_lower=draw(st.booleans()))
            for _ in range(n_sub)]
    return NestedProblem([block], subs, path_resources=[PathResource(
        dim=1, agg=SUM, a=(0,), b=0, box=((0, (1 << n + len(arcs)) - 1),))])


def _window_step(resources, values, deltas, node):
    """The window rule on arrival at ``node``: add the deltas, raise a
    floored value below its lower end to that end, then require every
    value inside its window.  (values, whether one was raised), or None
    when a value is outside its window."""
    out, lifted = [], False
    for res, val, d in zip(resources, values, deltas):
        lo, hi = res.window(node)
        val += d
        if res.floor_at_lower and lo is not None and val < lo:
            val, lifted = lo, True
        if lo is not None and val < lo or hi is not None and val > hi:
            return None
        out.append(val)
    return tuple(out), lifted


def _values(problem, block_index, nodes):
    """The subpath-resource values of a subpath of the block, ``nodes``,
    by the window rule, which it passes."""
    block = problem.blocks[block_index]
    resources = [problem.subpath_resources[ri] for ri in problem.block_subs[block_index]]

    def deltas(item):
        return (*item.sub_deltas, *(0,) * (len(resources) - len(item.sub_deltas)))

    values = (0,) * len(resources)
    for u, t in zip((None, *nodes), nodes):
        item = block.entry_at(t) if u is None else block.arcs[u, t]
        values, _ = _window_step(resources, values, deltas(item), t)
    return values


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_window_models())
def test_packed_windows_act_as_the_window_rule(problem):
    block, resources = problem.blocks[0], problem.subpath_resources
    want = {}           # node sequence -> subpath-resource values
    orderings = {}      # contribution -> the one ordering that holds it

    def order(nodes, vec):
        orderings[vec] = nodes
        for (u, t), arc in sorted(block.arcs.items()):
            if u == nodes[-1] and t not in nodes:
                order((*nodes, t), vec + arc.path_deltas[0][0])

    def extend(nodes, step):
        if step is None:
            return
        want[nodes], lifted = step
        if lifted:
            event("a floored value raised")
        for (u, t), arc in sorted(block.arcs.items()):
            if u == nodes[-1] and t not in nodes:
                extend((*nodes, t), _window_step(resources, want[nodes], arc.sub_deltas, t))

    for k in block.elements:
        order((k,), block.entry_at(k).path_deltas[0][0])
        extend((k,), _window_step(resources, (0,) * len(resources),
                                  block.entry_at(k).sub_deltas, k))
    for res in resources:
        kind = "floored" if res.floor_at_lower else "hard"
        ends = res.windows.values()
        if any(lo is not None for lo, _ in ends):
            event(f"{kind} window with a lower end")
        if any(None not in (lo, hi) and lo > hi for lo, hi in ends):
            event(f"{kind} window that is empty")
    # the fill over one box per ordering finds exactly the subpaths
    found = fill_boxes(problem, 0, scaled(Duals({})), boxes=[((vec, vec),) for vec in orderings])
    event(f"{len(resources)} subpath resources")
    assert [None if hit is None else hit[0].nodes for hit in found] == [
        nodes if nodes in want else None for nodes in orderings.values()]


def _flat(item, n_coords):
    return tuple(itertools.chain(*item.path_deltas)) or (0,) * n_coords


def _least_walks(block, n_coords):
    """Per element, the least over the simple paths from it to an exit of
    the sum of their arc and exit deltas, by exhaustive search."""
    out = {}

    def walk(v, visited, vec):
        best = tuple(map(sum, zip(vec, _flat(block.exit_at(v), n_coords))))
        for (u, t), arc in block.arcs.items():
            if u == v and t not in visited:
                deeper = walk(t, visited | {t},
                              tuple(map(sum, zip(vec, _flat(arc, n_coords)))))
                best = tuple(map(min, best, deeper))
        return best

    for v in block.elements:
        out[v] = walk(v, {v}, (0,) * n_coords)
    return out


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_least_completion_is_a_lower_bound(family):
    # it need not equal the exit leg: rounded routing distances break the
    # triangle inequality, so a detour can add less than a direct exit
    checked = 0
    for seed in (1, 2, 3):
        problem = FAMILIES[family](seed)
        n = problem.total_coords
        for bi, block in enumerate(problem.blocks):
            view = block_view(problem, bi)
            least = view.least_completion()
            walks = _least_walks(block, n)
            for i, v in enumerate(block.elements):
                for c, mono in enumerate(view.coord_monotone):
                    # with non-negative deltas a shortest walk is simple
                    assert least[i][c] == (walks[v][c] if mono else -math.inf)
            for sp in synth.enumerate_block_subpaths(problem, bi):
                vec = _flat(block.entry_at(sp.nodes[0]), n)
                for k, v in enumerate(sp.nodes):
                    if k:
                        arc = block.arcs[sp.nodes[k - 1], v]
                        vec = tuple(map(sum, zip(vec, _flat(arc, n))))
                    rest = [x - y for x, y in zip(sp.contributions, vec)]
                    assert all(map(operator.ge, rest, least[view.local[v]])), (sp, v)
                    checked += 1
    assert checked


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
    tables = [block_view(problem, bi).table() for bi in range(len(problem.blocks))]
    for table in tables:
        keys = [(sp.contributions, sp.nodes) for sp in table.subpaths]
        assert keys == sorted(keys)
        assert table.vectors == tuple(vec for vec, _ in keys)
    for _ in range(4):
        for bi in range(len(problem.blocks)):
            view = block_view(problem, bi)
            table = view.table()
            assert table is tables[bi]
            mask = view._mask(banned)
            rows = [sp for sp, m in zip(table.subpaths, table.masks) if not m & mask]
            assert rows == [sp for sp in table.subpaths if banned.isdisjoint(sp.nodes)]
            check_table(problem, bi, rows, banned)
            # the rows outside the mask are the states of a search under
            # the headroom that no state of the same (last element,
            # elements, subpath values) dominates, less those that one of
            # them with the same elements dominates
            keys = defaultdict(list)
            for sp in limited_subpaths(problem, bi, view.headroom(), banned):
                key = sp.nodes[-1], frozenset(sp.nodes), _values(problem, bi, sp.nodes)
                keys[key].append((sp.cost, sp.contributions, sp.nodes, sp))
            kept = [sp for labels in keys.values() for cost, vec, nodes, sp in labels
                    if not any(c <= cost and all(map(operator.le, v, vec))
                               and (c, v, n) < (cost, vec, nodes) for c, v, n, _ in labels)]
            assert undominated(kept) == set(rows)
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
    oracle = _oracle_subpaths(problem, 0, frozenset())
    kept = undominated(oracle)
    assert got == tuple(sp for sp in oracle if sp in kept)
    want = {(3,), (3, 1), (3, 1, 2)}
    if floor:
        # (1, 2, 3) and (2, 3, 1) are subpaths too, but (3, 1, 2), at cost
        # 5 holding 5, dominates both
        want |= {(1,), (1, 2), (2,), (2, 3)}
        assert {(1, 2, 3), (2, 3, 1)} <= {sp.nodes for sp in oracle}
    assert {sp.nodes for sp in got} == want

