"""Core model semantics: trajectories, windows, path predicates, serialization."""

import itertools
from fractions import Fraction

import pytest
from helpers import reduced_cost, scaled

from nestedcg import synth
from nestedcg.labeling import block_view
from nestedcg.model import (
    COVER,
    MAX,
    PARTITION,
    SUM,
    Arc,
    Block,
    Boundary,
    Duals,
    ModelError,
    NestedProblem,
    Path,
    PathResource,
    Subpath,
    SubpathResource,
    check_path_feasible,
    load_problem,
    problem_from_json,
    problem_to_json,
    save_problem,
)
from nestedcg.synth import enumerate_block_subpaths


@pytest.fixture
def two_blocks():
    b0 = Block(
        elements=(1, 2),
        arcs={
            (1, 2): Arc(cost=5, sub_deltas=(3,), path_deltas=((2,), (1,))),
            (2, 1): Arc(cost=7, sub_deltas=(1,), path_deltas=((1,), (0,))),
        },
        entry={
            1: Boundary(cost=10, sub_deltas=(2,), path_deltas=((1,), (2,))),
            2: Boundary(cost=20, sub_deltas=(1,), path_deltas=((0,), (1,))),
        },
        exit={
            1: Boundary(cost=1, path_deltas=((1,), (0,))),
            2: Boundary(cost=2, path_deltas=((3,), (0,))),
        },
    )
    b1 = Block(
        elements=(7,),
        entry={7: Boundary(cost=4, sub_deltas=(1,), path_deltas=((2,), (1,)))},
    )
    subs = [
        SubpathResource(block=0, windows={1: (None, 6), 2: (0, 5)}),
        SubpathResource(block=1, windows={}),
    ]
    resources = [
        PathResource(dim=1, agg=SUM, a=(1,), b=12, box=((0, 12),)),
        PathResource(dim=1, agg=MAX, a=(2,), b=8, box=((0, 4),)),
    ]
    return NestedProblem([b0, b1], subs, resources, sense=COVER)


def _subpaths(problem, block_index):
    """Both enumerations of a block, as {nodes: (cost, contributions)};
    they must agree."""
    got = {sp.nodes: (sp.cost, sp.contributions)
           for sp in block_view(problem, block_index).table().subpaths}
    want = {sp.nodes: (sp.cost, sp.contributions)
            for sp in enumerate_block_subpaths(problem, block_index)}
    assert got == want
    return got


def test_replay_accumulates_boundary_arc_exit(two_blocks):
    # entry 10 + arc 5 + exit 2; sum coordinate: 1 + 2 + 3, max
    # coordinate trajectory: 2 + 1 + 0
    assert _subpaths(two_blocks, 0)[(1, 2)] == (17, (6, 3))


def test_replay_single_element(two_blocks):
    assert _subpaths(two_blocks, 1) == {(7,): (4, (2, 1))}


def test_window_upper_violation_position():
    block = Block(
        elements=(1, 2),
        arcs={(1, 2): Arc(sub_deltas=(2,))},
        entry={1: Boundary(sub_deltas=(2,))},
    )
    problem = NestedProblem(
        [block], [SubpathResource(block=0, windows={1: (None, 3), 2: (None, 3)})]
    )
    # 2 at the first stop, 4 > 3 at the second
    assert set(_subpaths(problem, 0)) == {(1,), (2,)}


def test_window_lower_bound_vs_floor():
    def build(floor):
        block = Block(
            elements=(1, 2),
            arcs={(1, 2): Arc(sub_deltas=(2,))},
            entry={1: Boundary(sub_deltas=(2,))},
        )
        return NestedProblem(
            [block],
            [SubpathResource(
                block=0, windows={1: (5, 10), 2: (6, 20)}, floor_at_lower=floor
            )],
        )

    # hard: 2 < 5 at the entry to 1, and 0 < 6 at an entry to 2
    assert _subpaths(build(False), 0) == {}
    # floored to 5 at the first stop, then 5 + 2 = 7 >= 6
    assert set(_subpaths(build(True), 0)) == {(1,), (2,), (1, 2)}


def test_exit_half_is_not_window_checked():
    block = Block(
        elements=(1,),
        entry={1: Boundary(sub_deltas=(1,))},
        exit={1: Boundary(sub_deltas=(100,))},
    )
    problem = NestedProblem(
        [block], [SubpathResource(block=0, windows={1: (None, 5)})]
    )
    assert set(_subpaths(problem, 0)) == {(1,)}


def test_path_assembly_and_predicates(two_blocks):
    sp0 = Subpath(0, (1, 2), 17, (6, 3))
    sp1 = Subpath(1, (7,), 4, (2, 1))
    path = check_path_feasible(two_blocks, [sp0, sp1])
    assert isinstance(path, Path)
    assert path.cost == 21
    assert path.aggregate == (8, 3)     # sum and componentwise max
    assert path.covered == {1, 2, 7}
    assert path.node_key == ((1, 2), (7,))


def test_path_predicate_violation(two_blocks):
    assert _subpaths(two_blocks, 0)[(2, 1)] == (28, (2, 1))
    sp0 = Subpath(0, (2, 1), 28, (2, 1))
    fat = Subpath(1, (7,), 4, (11, 1))
    assert check_path_feasible(two_blocks, [sp0, fat]) is None   # 2 + 11 > 12
    tall = Subpath(1, (7,), 4, (2, 5))
    assert check_path_feasible(two_blocks, [sp0, tall]) is None  # 2 * 5 > 8


def test_path_needs_one_subpath_per_block_in_order(two_blocks):
    sp0 = Subpath(0, (1,), 11, (2, 2))
    with pytest.raises(ModelError):
        check_path_feasible(two_blocks, [sp0])
    with pytest.raises(ModelError):
        check_path_feasible(two_blocks, [sp0, sp0])


@pytest.mark.parametrize("make", [
    "two_blocks",
    *(f"tiny{seed}" for seed in range(1, 5)),
    *(f"chain{seed}" for seed in range(1, 4)),
    *(f"span{seed}" for seed in range(1, 3)),
])
def test_path_predicate_matches_oracle(make, two_blocks):
    """check_path_feasible accepts exactly the subpath combinations that
    the oracle's own aggregation and predicate accept."""
    if make == "two_blocks":
        problem = two_blocks
    elif make.startswith("tiny"):
        problem = synth.random_tiny_instance(int(make[4:]))
    elif make.startswith("chain"):
        problem = synth.random_chain_instance(int(make[5:]))
    else:
        problem = synth.build_span_problem(synth.random_span_instance(int(make[4:])))
    per_block = [
        enumerate_block_subpaths(problem, bi) for bi in range(len(problem.blocks))
    ]
    accepted = 0
    for combo in itertools.product(*per_block):
        agg = synth._aggregate(problem, [sp.contributions for sp in combo])
        path = check_path_feasible(problem, combo)
        assert (path is not None) == synth._admits(problem, agg)
        if path is not None:
            accepted += 1
            assert path.aggregate == agg
            assert path.cost == sum(sp.cost for sp in combo)
    assert accepted > 0


def test_reduced_cost_charges_convexity_on_paths_only(two_blocks):
    duals = Duals({1: 3, 2: 4, 7: 5}, convexity=2)
    sp0 = Subpath(0, (1, 2), 17, (6, 3))
    sp1 = Subpath(1, (7,), 4, (2, 1))
    path = check_path_feasible(two_blocks, [sp0, sp1])
    assert reduced_cost(sp0, duals) == 17 - 7
    assert reduced_cost(path, duals) == 21 - 12 - 2
    with pytest.raises(TypeError):
        reduced_cost("not a column", duals)


def test_duals_scaling_clears_denominators():
    duals = scaled(Duals({1: Fraction(1, 3), 2: Fraction(1, 4)}, convexity=Fraction(1, 6)))
    assert duals.denom == 12
    assert duals.by_element == {1: 4, 2: 3}
    assert duals.convexity == 2
    assert duals.value(99) == 0


def test_duals_scaling_matches_fraction_arithmetic_on_mixed_values():
    duals = Duals({1: 7, 2: Fraction(-5, 6), 3: Fraction(9, 4), 4: 0, 5: -3},
                  convexity=Fraction(-7, 10))
    out = scaled(duals)
    assert out.denom == 60
    assert out.by_element == {k: int(v * 60) for k, v in duals.by_element.items()}
    assert out.convexity == -42
    whole = scaled(Duals({1: 2, 2: -1}, convexity=3))
    assert (whole.by_element, whole.convexity, whole.denom) == ({1: 2, 2: -1}, 3, 1)


def test_monotonicity_flags(two_blocks):
    assert two_blocks.monotone == (True, True)
    block = Block(
        elements=(1, 2),
        arcs={(1, 2): Arc(path_deltas=((-1,),))},
        entry={1: Boundary(path_deltas=((5,),))},
    )
    problem = NestedProblem(
        [block],
        path_resources=[PathResource(dim=1, agg=SUM, a=(1,), b=9, box=((-9, 9),))],
    )
    assert problem.monotone == (False,)


def test_validation_rejects_malformed_problems(two_blocks):
    blk = Block(elements=(1,))
    with pytest.raises(ModelError):
        NestedProblem([])
    with pytest.raises(ModelError):
        NestedProblem([Block(elements=())])
    with pytest.raises(ModelError):
        NestedProblem([blk, Block(elements=(1,))])     # duplicate element
    with pytest.raises(ModelError):
        NestedProblem([Block(elements=(1,), arcs={(1, 2): Arc()})])
    with pytest.raises(ModelError):
        NestedProblem([Block(elements=(1, 2), arcs={(1, 1): Arc()})])
    with pytest.raises(ModelError, match="^boundary data for 2 outside block 0$"):
        NestedProblem([Block(elements=(1,), exit={2: Boundary()})])
    with pytest.raises(ModelError):
        NestedProblem([blk], sense="maximize")
    with pytest.raises(ModelError):
        NestedProblem([blk], cardinality=0)
    with pytest.raises(ModelError):
        NestedProblem([blk], [SubpathResource(block=3)])
    with pytest.raises(ModelError):
        NestedProblem([blk], [SubpathResource(block=0, windows={9: (0, 1)})])
    with pytest.raises(ModelError):
        NestedProblem(
            [blk],
            path_resources=[PathResource(dim=2, agg=SUM, a=(1,), b=1, box=((0, 1),))],
        )
    with pytest.raises(ModelError):
        NestedProblem(
            [blk],
            path_resources=[PathResource(dim=1, agg=SUM, a=(-1,), b=1, box=((0, 1),))],
        )
    with pytest.raises(ModelError):
        NestedProblem(
            [blk],
            path_resources=[PathResource(dim=1, agg="avg", a=(1,), b=1, box=((0, 1),))],
        )
    with pytest.raises(ModelError):
        NestedProblem(
            [blk],
            path_resources=[PathResource(dim=1, agg=SUM, a=(1,), b=1, box=((2, 1),))],
        )


def test_validation_names_non_integer_data():
    # the master LP takes ints only, so fractional data stops here
    res = PathResource(dim=1, agg=SUM, a=(1,), b=9, box=((0, 9),))
    cases = [
        (Block(elements=(1, 2), arcs={(1, 2): Arc(cost=Fraction(1, 2))}), [], [],
         r"arc \(1, 2\) needs an integer cost and integer deltas"),
        (Block(elements=(1,), exit={1: Boundary(path_deltas=((0.5,),))}), [], [res],
         r"exit boundary of element 1 needs an integer cost"),
        (Block(elements=(1,)), [SubpathResource(block=0, windows={1: (0, 2.5)})], [],
         r"subpath resource 0 has a non-integer window bound on element 1"),
        (Block(elements=(1,)), [],
         [PathResource(dim=1, agg=SUM, a=(1,), b=Fraction(9, 2), box=((0, 9),))],
         r"path resource 0 needs integer weights, bound and box"),
    ]
    for block, subs, paths, message in cases:
        with pytest.raises(ModelError, match=message):
            NestedProblem([block], subs, paths)
    with pytest.raises(ModelError, match="positive integer right-hand side"):
        NestedProblem([Block(elements=(1,))], cardinality=1.5)


def test_validation_checks_delta_shapes():
    with pytest.raises(ModelError):
        NestedProblem(
            [Block(elements=(1,), entry={1: Boundary(sub_deltas=(1, 2))})],
            [SubpathResource(block=0)],
        )
    with pytest.raises(ModelError, match="^block 0: expected 1 path-delta vectors$"):
        NestedProblem(
            [Block(elements=(1,), entry={1: Boundary(path_deltas=((1,), (2,)))})],
            path_resources=[PathResource(dim=1, agg=SUM, a=(1,), b=9, box=((0, 9),))],
        )
    with pytest.raises(ModelError):
        NestedProblem(
            [Block(elements=(1,), entry={1: Boundary(path_deltas=((1, 2),))})],
            path_resources=[PathResource(dim=1, agg=SUM, a=(1,), b=9, box=((0, 9),))],
        )


def test_element_lookup_and_box(two_blocks):
    assert two_blocks.elements == (1, 2, 7)
    assert two_blocks.contribution_box() == ((0, 12), (0, 4))


def test_json_round_trip(two_blocks, tmp_path):
    data = problem_to_json(two_blocks)
    again = problem_from_json(data)
    # serialization pads implicit zero deltas, so compare semantics: the
    # canonical JSON form is a fixpoint and trajectories replay identically
    assert problem_to_json(again) == data
    assert again.monotone == two_blocks.monotone
    assert again.elements == two_blocks.elements
    for bi in range(len(two_blocks.blocks)):
        assert block_view(again, bi).table().subpaths == block_view(two_blocks, bi).table().subpaths

    target = tmp_path / "instance.json"
    save_problem(two_blocks, target)
    assert problem_to_json(load_problem(target)) == data


def _set(path, value):
    """Edit for a problem document: set the item at ``path``."""
    def edit(data):
        *head, last = path
        for key in head:
            data = data[key]
        data[last] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["source_arcs"].append([9, 1, []]),
     r"source_arcs\[3\]: element 9 is in no block"),
    (lambda d: d["path_resources"][0].pop("b"),
     r"path_resources\[0\]: missing key 'b'"),
    (_set(("blocks", 0, "arcs", 0, 2), 5.5),
     r"blocks\[0\]\.arcs\[0\]: expected an integer, got 5\.5"),
    (_set(("sink_arcs", 1, 2, 0), 0.5),
     r"sink_arcs\[1\]: expected an integer, got 0\.5"),
    (_set(("sink_arcs", 1, 1), "3"),
     r"sink_arcs\[1\]: expected an integer, got '3'"),
    (_set(("source_arcs", 0), [1, 10]),
     r"source_arcs\[0\]: not enough values"),
    (_set(("subpath_resources", 0, "windows", "1"), [None, 6.5]),
     r"subpath_resources\[0\]: expected an integer, got 6\.5"),
    (_set(("path_resources", 1, "box"), [[0, True]]),
     r"path_resources\[1\]: expected an integer, got True"),
    (_set(("blocks", 1), [7]),
     r"blocks\[1\]:"),
    (_set(("cardinality",), 1.5),
     r"problem: expected an integer, got 1\.5"),
    (lambda d: d.pop("blocks"),
     r"problem: missing key 'blocks'"),
    (_set(("blocks", 0, "arcs", 0, 3), [3, 2]),
     r"blocks\[0\]\.arcs\[0\]: expected 3 deltas, got 2"),
])
def test_json_rejects_malformed_documents(two_blocks, edit, message):
    data = problem_to_json(two_blocks)
    edit(data)
    with pytest.raises(ModelError, match=message):
        problem_from_json(data)


def test_json_round_trip_partition_with_cardinality(two_blocks):
    problem = NestedProblem(
        two_blocks.blocks,
        two_blocks.subpath_resources,
        two_blocks.path_resources,
        sense=PARTITION,
        cardinality=2,
        name="part",
    )
    again = problem_from_json(problem_to_json(problem))
    assert problem_to_json(again) == problem_to_json(problem)
    assert again.sense == PARTITION
    assert again.cardinality == 2
    assert again.name == "part"
