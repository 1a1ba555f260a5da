"""Partition geometry and bucket state: tiling, refinement, merging,
invalidation, and representative computation against brute force."""

import random
import time
from operator import le

import pytest
from helpers import scaled

from nestedcg import synth
from nestedcg.buckets import (
    COMPUTED,
    EMPTY,
    FRESH,
    MAX_BUCKETS_PER_BLOCK,
    Bucket,
    BucketError,
    Partition,
    Representative,
    compute_representative,
)
from nestedcg.labeling import block_view
from nestedcg.model import (
    COVER,
    MILLI,
    SUM,
    Arc,
    Block,
    Boundary,
    Duals,
    ModelError,
    NestedProblem,
    PathResource,
    ScaledDuals,
)


def _line_problem(span=1000, dim=1):
    block = Block(
        elements=(1, 2),
        arcs={(1, 2): Arc(cost=1, path_deltas=((10,) * dim,))},
    )
    return NestedProblem(
        [block],
        path_resources=[
            PathResource(
                dim=dim,
                agg=SUM,
                a=(1,) * dim,
                b=span * dim,
                box=((0, span),) * dim,
            )
        ],
    )


def _rep(nodes, rcost, vector):
    return Representative(rcost, vector, nodes, 0, ScaledDuals({}, 0, 1))


def test_initial_tiling_last_tile_absorbs_remainder():
    part = Partition.initial(_line_problem(span=1000), 250)
    boxes = [(b.lo[0], b.hi[0]) for b in part.buckets(0)]
    assert boxes == [(0, 249), (250, 499), (500, 749), (750, 1000)]


def test_initial_tiling_oversized_width_gives_one_bucket():
    part = Partition.initial(_line_problem(span=90), 250)
    assert [(b.lo[0], b.hi[0]) for b in part.buckets(0)] == [(0, 90)]


def test_initial_per_coordinate_widths():
    part = Partition.initial(_line_problem(span=9, dim=2), (5, 3))
    boxes = {(b.lo, b.hi) for b in part.buckets(0)}
    assert ((0, 0), (4, 2)) in boxes
    # ten values per axis: width 5 -> 2 tiles, width 3 -> 3 (last absorbs);
    # the subpath (1, 2) holds (10, 10), above the box, and the headroom
    # 18 admits it, so each axis gets the extension tile (10, 10)
    assert ((10, 10), (10, 10)) in boxes
    assert len(boxes) == (2 + 1) * (3 + 1)


def test_initial_rejects_bad_widths():
    # widths are input: they fail with a ModelError naming width and box
    problem = _line_problem()
    with pytest.raises(ModelError, match=r"width 0 over box \(\(0, 1000\),\)"):
        Partition.initial(problem, 0)
    with pytest.raises(ModelError, match=r"widths \(250, 250\) for 1 contribution coordinates"):
        Partition.initial(problem, (250, 250))  # dim mismatch
    with pytest.raises(ModelError, match="width 1 over box .*90000 buckets"):
        Partition.initial(_line_problem(span=299, dim=2), 1)  # 90000 cells


def test_validate_rejects_gaps_overlaps_and_misfiled_buckets():
    problem = _line_problem(span=9)
    with pytest.raises(BucketError, match="volumes"):
        Partition(problem, [[Bucket(0, (0,), (4,), 0)]])
    with pytest.raises(BucketError, match="overlap"):
        # volumes sum to the full ten, but the boxes share the value 4
        Partition(
            problem,
            [[Bucket(0, (0,), (4,), 0), Bucket(0, (4,), (8,), 1)]],
        )
    with pytest.raises(BucketError, match="wrong block"):
        Partition(problem, [[Bucket(1, (0,), (9,), 0)]])
    with pytest.raises(BucketError, match="escapes"):
        Partition(problem, [[Bucket(0, (0,), (12,), 0)]])


def test_validate_holds_each_block_to_its_own_range():
    # the subpath (1, 2) holds (10, 10), one past the box (0..9)² on each
    # axis, so the block's range is (0..10)²
    problem = _line_problem(span=9, dim=2)
    part = Partition.initial(problem, 1)
    assert part.ranges == [((0, 10), (0, 10))]
    assert len(part.buckets(0)) == 11 * 11
    Partition(problem, [[Bucket(0, (0, 0), (10, 10), 0)]])
    with pytest.raises(BucketError, match="escapes block 0's range"):
        Partition(problem, [[Bucket(0, (0, 0), (10, 11), 0)]])
    with pytest.raises(BucketError, match="its range has 121"):
        Partition(problem, [[Bucket(0, (0, 0), (9, 9), 0)]])


def test_an_unextended_block_fits_every_width_the_box_admits():
    # a block whose range is the box gets exactly the box's tiles, so the
    # limit refuses only what the box's own count exceeds
    part = Partition.initial(_line_problem(span=MAX_BUCKETS_PER_BLOCK - 1), 1)
    assert part.ranges == [((0, MAX_BUCKETS_PER_BLOCK - 1),)]
    assert len(part.buckets(0)) == MAX_BUCKETS_PER_BLOCK
    with pytest.raises(ModelError, match=f"{MAX_BUCKETS_PER_BLOCK + 1} buckets per block"):
        Partition.initial(_line_problem(span=MAX_BUCKETS_PER_BLOCK), 1)


def test_validate_scales_to_many_buckets_and_still_finds_overlaps():
    # buckets are scanned in lower-corner order and a scan stops at the
    # first bucket past the current one's first-coordinate end
    start = time.perf_counter()
    part = Partition.initial(_line_problem(span=19_999), 1)
    assert len(part.buckets(0)) == 20_000
    assert time.perf_counter() - start < 10
    with pytest.raises(BucketError, match="overlap"):
        # (0, 1) lies between the two buckets that share (1, 0)
        Partition(_line_problem(span=1, dim=2), [[
            Bucket(0, (0, 0), (1, 0), 0),
            Bucket(0, (0, 1), (0, 1), 1),
            Bucket(0, (1, 0), (1, 0), 2),
        ]])


def test_midpoint_refinement_halves_and_keeps_the_representative():
    part = Partition.initial(_line_problem(span=9), 10)
    (bucket,) = part.buckets(0)
    bucket.status = COMPUTED
    bucket.rep = _rep((1, 2), 7, (8,))
    children = part.refine_bucket(bucket, "midpoint")
    part.validate()
    assert sorted((c.lo[0], c.hi[0]) for c in children) == [(0, 4), (5, 9)]
    holder = next(c for c in children if c.contains((8,)))
    other = next(c for c in children if c is not holder)
    assert holder.status == COMPUTED and holder.rep is bucket.rep
    assert other.status == FRESH and other.rep is None


def test_representative_refinement_cuts_at_the_vector():
    part = Partition.initial(_line_problem(span=9), 10)
    (bucket,) = part.buckets(0)
    bucket.status = COMPUTED
    bucket.rep = _rep((1, 2), 7, (6,))
    children = part.refine_bucket(bucket, "representative")
    assert sorted((c.lo[0], c.hi[0]) for c in children) == [(0, 5), (6, 9)]
    holder = next(c for c in children if c.contains((6,)))
    assert holder.lo == (6,)  # the inherited rep sits on the lower corner
    assert holder.pinned


def test_representative_refinement_falls_back_to_midpoint_on_corner():
    # vector already on the lower corner in coordinate 0: cut 0 at midpoint
    part = Partition.initial(_line_problem(span=9, dim=2), 10)
    # the box, then an extension tile (10, 10) on each axis
    assert {(b.lo, b.hi) for b in part.buckets(0)} == {
        ((0, 0), (9, 9)), ((0, 10), (9, 10)), ((10, 0), (10, 9)), ((10, 10), (10, 10))
    }
    bucket = part.buckets(0)[0]
    bucket.status = COMPUTED
    bucket.rep = _rep((1,), 3, (0, 7))
    children = part.refine_bucket(bucket, "representative")
    assert {(c.lo, c.hi) for c in children} == {
        ((0, 0), (4, 6)),
        ((0, 7), (4, 9)),
        ((5, 0), (9, 6)),
        ((5, 7), (9, 9)),
    }


def test_refinement_errors():
    part = Partition.initial(_line_problem(span=9), 10)
    (bucket,) = part.buckets(0)
    with pytest.raises(BucketError, match="representative strategy"):
        part.refine_bucket(bucket, "representative")
    with pytest.raises(BucketError, match="unknown"):
        part.refine_bucket(bucket, "thirds")
    stray = Bucket(0, (0,), (9,), 99)
    with pytest.raises(BucketError, match="not part"):
        part.refine_bucket(stray, "midpoint")
    point = Bucket(0, (4,), (4,), 98)
    part.per_block[0] = [
        Bucket(0, (0,), (3,), 97),
        point,
        Bucket(0, (5,), (9,), 96),
    ]
    with pytest.raises(BucketError, match="single point"):
        part.refine_bucket(point, "midpoint")


def test_refinement_scales_to_many_buckets():
    # the bucket is found by bisection on its lower corner and its
    # children are inserted in place, so the block's list is never re-sorted
    part = Partition.initial(_line_problem(span=19_999), 2)
    assert len(part.buckets(0)) == 10_000
    start = time.perf_counter()
    for b in list(part.buckets(0)):
        part.refine_bucket(b, "midpoint")
    assert time.perf_counter() - start < 10
    part.validate()
    bs = part.buckets(0)
    assert bs == sorted(bs, key=lambda b: b.lo)
    assert [b.lo for b in bs] == [(x,) for x in range(20_000)]


def test_adjacent_pairs_share_exactly_one_facet():
    # three tiles per axis: two of width 5 and the extension tile (10, 10)
    part = Partition.initial(_line_problem(span=9, dim=2), 5)
    pairs = part.adjacent_pairs(0)
    as_boxes = [((a.lo, a.hi), (b.lo, b.hi)) for a, b in pairs]
    assert (((0, 0), (4, 4)), ((0, 5), (4, 9))) in as_boxes
    assert (((0, 0), (4, 4)), ((5, 0), (9, 4))) in as_boxes
    assert (((5, 0), (9, 4)), ((10, 0), (10, 4))) in as_boxes
    # diagonals differ on two coordinates and never pair up
    assert all(
        not (a == ((0, 0), (4, 4)) and b == ((5, 5), (9, 9)))
        for a, b in as_boxes
    )
    assert len(as_boxes) == 2 * 3 * 2


def test_merge_pass_touches_each_bucket_once():
    part = Partition.initial(_line_problem(span=9, dim=2), 5)
    for b in part.buckets(0):
        b.status = COMPUTED
        b.rep = _rep((1,), 1, b.lo)
    merges = part.merge_pass(0, lambda lower, upper: True)
    part.validate()
    # nine buckets (the box's four plus five extension tiles): a greedy
    # sweep in lower-corner order pairs up eight of them
    assert merges == 4
    assert len(part.buckets(0)) == 9 - 4


def test_merge_keeps_the_cheaper_representative():
    part = Partition.initial(_line_problem(span=9), 5)
    low, high = part.buckets(0)
    low.status = COMPUTED
    low.rep = _rep((1, 2), 5, (2,))
    high.status = COMPUTED
    high.rep = _rep((2,), 3, (7,))
    assert part.merge_pass(0, lambda a, b: True) == 1
    (merged,) = part.buckets(0)
    assert merged.rep.rcost == 3
    assert (merged.lo, merged.hi) == ((0,), (9,))


def test_two_empty_buckets_merge_unconditionally():
    part = Partition.initial(_line_problem(span=9), 5)
    for b in part.buckets(0):
        b.status = EMPTY
    assert part.merge_pass(0, lambda a, b: pytest.fail("asked")) == 1
    (merged,) = part.buckets(0)
    assert merged.status == EMPTY and merged.rep is None


def test_fresh_buckets_never_merge():
    part = Partition.initial(_line_problem(span=9), 5)
    assert part.merge_pass(0, lambda a, b: True) == 0


def test_merge_respects_the_callback():
    part = Partition.initial(_line_problem(span=9), 5)
    for b in part.buckets(0):
        b.status = COMPUTED
        b.rep = _rep((1,), 1, b.lo)
    assert part.merge_pass(0, lambda a, b: False) == 0
    assert len(part.buckets(0)) == 2


def _all_pairs(bs):
    """Adjacent pairs by definition, over every ordered pair of buckets."""
    pairs = []
    for a in bs:
        for b in bs:
            diff = [c for c, (al, ah, bl, bh) in enumerate(zip(a.lo, a.hi, b.lo, b.hi))
                    if (al, ah) != (bl, bh)]
            if len(diff) == 1 and b.lo[diff[0]] == a.hi[diff[0]] + 1:
                pairs.append((a, b))
    return sorted(pairs, key=lambda p: (p[0].lo, p[1].lo))


@pytest.mark.parametrize("dim", [1, 2])
def test_adjacent_pairs_match_the_all_pairs_definition(dim):
    rng = random.Random(dim)
    for _ in range(20):
        part = Partition.initial(_line_problem(span=20, dim=dim), rng.randint(3, 8))
        for _ in range(rng.randint(0, 15)):
            bucket = rng.choice([b for b in part.buckets(0) if b.lo != b.hi])
            strategy = rng.choice(("midpoint", "representative"))
            if strategy == "representative":
                vec = tuple(rng.randint(lo, hi) for lo, hi in bucket.box)
                bucket.status, bucket.rep = COMPUTED, _rep((1,), 0, vec)
            part.refine_bucket(bucket, strategy)
        part.validate()
        assert part.adjacent_pairs(0) == _all_pairs(part.buckets(0))
        for b in part.buckets(0):
            b.status = rng.choice((EMPTY, COMPUTED))
            b.rep = _rep((1,), rng.randint(0, 3), b.lo) if b.status == COMPUTED else None
        part.merge_pass(0, lambda lower, upper: rng.random() < 0.5)
        part.validate()
        assert part.adjacent_pairs(0) == _all_pairs(part.buckets(0))


def test_merge_pass_scales_to_many_buckets():
    # upper neighbours are looked up by lower corner, and the block's list
    # is rebuilt once per pass
    part = Partition.initial(_line_problem(span=19_999), 1)
    for b in part.buckets(0):
        b.status = EMPTY
    start = time.perf_counter()
    assert part.merge_pass(0, lambda a, b: pytest.fail("asked")) == 10_000
    assert time.perf_counter() - start < 10
    part.validate()
    assert [b.lo for b in part.buckets(0)] == [(x,) for x in range(0, 20_000, 2)]


def test_invalidate_drops_reps_using_banned_elements():
    part = Partition.initial(_line_problem(span=9), 5)
    low, high = part.buckets(0)
    low.status = COMPUTED
    low.rep = _rep((1, 2), 5, (2,))
    high.status = EMPTY
    part.invalidate({2})
    assert low.status == FRESH and low.rep is None
    assert high.status == EMPTY  # emptiness is permanent
    # bans not touching the rep leave it alone
    low.status = COMPUTED
    low.rep = _rep((1,), 5, (2,))
    part.invalidate({2})
    assert low.status == COMPUTED


def test_pinned_requires_rep_on_the_lower_corner():
    b = Bucket(0, (3,), (9,), 0)
    assert not b.pinned
    b.status = COMPUTED
    b.rep = _rep((1,), 1, (4,))
    assert not b.pinned
    b.rep = _rep((1,), 1, (3,))
    assert b.pinned


def test_bucket_ordering_and_volume():
    a = Bucket(0, (0, 0), (4, 9), 1)
    b = Bucket(0, (5, 0), (9, 9), 0)
    assert a < b
    assert a.volume == 50
    assert a.contains((4, 9)) and not a.contains((5, 0))


@pytest.mark.parametrize("seed", range(1, 9))
def test_representatives_match_enumeration(seed):
    problem = synth.random_tiny_instance(seed)
    duals = scaled(synth.random_duals(problem, seed + 50))
    box = problem.contribution_box()
    widths = tuple(max(1, (hi - lo) // 3) for lo, hi in box)
    part = Partition.initial(problem, widths)
    for bi in range(len(problem.blocks)):
        # a representative comes only from subpaths the headroom admits
        tops = block_view(problem, bi).headroom()
        subs = [sp for sp in synth.enumerate_block_subpaths(problem, bi)
                if all(map(le, sp.contributions, tops))]
        weights = block_view(problem, bi).step_weights(duals)
        for bucket in part.buckets(bi):
            [rep] = compute_representative(problem, [bucket], duals, weights)
            inside = []
            for sp in subs:
                if bucket.contains(sp.contributions):
                    rc = sp.cost * duals.denom - sum(
                        duals.value(k) for k in sp.nodes
                    )
                    inside.append(rc)
            if not inside:
                assert rep is None and bucket.status == EMPTY
            else:
                assert bucket.status == COMPUTED
                assert rep.rcost == min(inside)
                assert bucket.contains(rep.vector)


def _headroom_problem():
    """Block 0's subpaths (1,), (2,) and (1, 2) contribute 2, 6 and 9; block
    1's one subpath contributes 3, so a path passing sum <= 10 leaves block
    0 a headroom of 7."""
    first = Block(
        elements=(1, 2),
        arcs={(1, 2): Arc(cost=MILLI, path_deltas=((7,),))},
        entry={1: Boundary(cost=MILLI, path_deltas=((1,),)),
               2: Boundary(cost=MILLI, path_deltas=((5,),))},
        exit={1: Boundary(path_deltas=((1,),)), 2: Boundary(path_deltas=((1,),))},
    )
    second = Block(elements=(3,), entry={3: Boundary(cost=MILLI, path_deltas=((3,),))})
    return NestedProblem(
        [first, second],
        path_resources=[PathResource(dim=1, agg=SUM, a=(1,), b=10, box=((0, 10),))],
        sense=COVER,
    )


def test_representatives_come_from_subpaths_the_headroom_admits():
    problem = _headroom_problem()
    assert block_view(problem, 0).headroom() == (7,)
    duals = scaled(Duals({1: 5 * MILLI, 2: 5 * MILLI}))
    weights = block_view(problem, 0).step_weights(duals)

    # one tile holds every subpath; (1, 2) at 9 is the cheapest but lies on
    # no feasible path, so (1,) wins its tie with (2,) on the vector
    [bucket] = Partition.initial(problem, 11).buckets(0)
    [rep] = compute_representative(problem, [bucket], duals, weights)
    assert (rep.subpath.nodes, rep.vector, rep.rcost) == ((1,), (2,), -4 * MILLI)

    # a tile wholly above the headroom holds no usable subpath
    tiles = Partition.initial(problem, 2).buckets(0)
    compute_representative(problem, tiles, duals, weights)
    [top] = [b for b in tiles if b.lo == (8,)]
    assert (top.hi, top.status, top.rep) == ((10,), EMPTY, None)


def test_empty_is_permanent_across_recomputes():
    problem = _line_problem(span=1000)
    part = Partition.initial(problem, 250)
    duals = scaled(synth.random_duals(problem, 3))
    weights = block_view(problem, 0).step_weights(duals)
    # contributions reachable: () -> 0 for single nodes, 10 for the pair;
    # the (500, 749) tile can hold nothing
    bucket = next(b for b in part.buckets(0) if b.lo == (500,))
    assert compute_representative(problem, [bucket], duals, weights) == [None]
    assert bucket.status == EMPTY
    assert compute_representative(problem, [bucket], duals, weights) == [None]
    assert bucket.status == EMPTY
