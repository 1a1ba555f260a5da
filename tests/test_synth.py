"""Generators and oracles: span encoding semantics, oracle cross-checks,
guard behaviour, and generator invariants the solver tests rely on."""

import hashlib
import json

import pytest

from nestedcg import synth
from nestedcg.model import (
    MAX,
    MILLI,
    SUM,
    Arc,
    Block,
    Boundary,
    ModelError,
    NestedProblem,
    PathResource,
    SubpathResource,
    problem_to_json,
)
from nestedcg.synth import (
    OracleGuard,
    SpanInstance,
    build_span_problem,
    count_path_products,
    enumerate_block_subpaths,
    enumerate_paths,
    oracle_ip,
    oracle_lp,
    oracle_min_rcost,
    oracle_min_rcost_recursive,
    random_chain_instance,
    random_duals,
    random_span_instance,
    random_tiny_instance,
)


def _two_task_instance(span_cap):
    return SpanInstance(
        scenarios=(((480, 1020),), ((500, 1040),)),
        min_connect=10,
        duty_cap=600,
        span_cap=span_cap,
    )


def test_span_predicate_is_latest_end_minus_earliest_start():
    problem = build_span_problem(_two_task_instance(570))
    paths = enumerate_paths(problem)
    assert len(paths) == 1
    (path,) = paths
    # componentwise max of (end, -start) vectors: (1040, -480); the linear
    # predicate sums them to the 560-minute overall span
    assert path.aggregate == (1040, -480)
    assert sum(path.aggregate) == 560
    # each duty pays base cost plus elapsed time at the time rate
    assert path.cost == 2 * (30 * MILLI + 540 * MILLI)


def test_span_cap_is_sharp():
    assert len(enumerate_paths(build_span_problem(_two_task_instance(560)))) == 1
    assert enumerate_paths(build_span_problem(_two_task_instance(550))) == []
    feasible = oracle_lp(build_span_problem(_two_task_instance(570)))
    assert feasible.status == "optimal"
    assert feasible.value == pytest.approx(1140 * MILLI)
    assert feasible.n_columns == 1
    assert oracle_lp(build_span_problem(_two_task_instance(550))).status == "infeasible"


def test_span_instance_horizon():
    assert _two_task_instance(570).horizon == 1040


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_span_encoding_matches_task_arithmetic(seed):
    instance = random_span_instance(seed, tasks_range=(2, 5))
    problem = build_span_problem(instance)
    offsets = []
    base = 0
    for tasks in instance.scenarios:
        offsets.append(base)
        base += len(tasks)

    for bi, tasks in enumerate(instance.scenarios):
        task_of = {offsets[bi] + i: t for i, t in enumerate(tasks)}
        for sp in enumerate_block_subpaths(problem, bi):
            seq = [task_of[v] for v in sp.nodes]
            # consecutive tasks leave room for the connection time
            for (s1, e1), (s2, e2) in zip(seq, seq[1:]):
                assert s2 >= e1 + instance.min_connect
            # elapsed duty time includes idle gaps and respects the cap
            elapsed = seq[-1][1] - seq[0][0]
            assert elapsed <= instance.duty_cap
            assert sp.cost == instance.base_cost + instance.time_rate * elapsed
            # the contribution pair is (latest end, negated earliest start)
            assert sp.contributions == (seq[-1][1], -seq[0][0])


@pytest.mark.parametrize("seed", (1, 4, 7))
def test_max_aggregation_matches_direct_recomputation(seed):
    instance = random_span_instance(seed, tasks_range=(2, 4))
    problem = build_span_problem(instance)
    per_block = [
        enumerate_block_subpaths(problem, bi)
        for bi in range(len(problem.blocks))
    ]
    import itertools

    manual = 0
    for combo in itertools.product(*per_block):
        vecs = [sp.contributions for sp in combo]
        agg = tuple(max(v[c] for v in vecs) for c in range(2))
        if sum(agg) <= instance.span_cap:
            manual += 1
    assert manual == len(enumerate_paths(problem))
    for path in enumerate_paths(problem):
        vecs = [sp.contributions for sp in path.subpaths]
        assert path.aggregate == tuple(
            max(v[c] for v in vecs) for c in range(2)
        )


@pytest.mark.parametrize("seed", range(1, 11))
def test_the_two_rcost_oracles_agree(seed):
    problem = random_tiny_instance(seed)
    for dual_seed in range(3):
        duals = random_duals(problem, seed * 100 + dual_seed)
        a = oracle_min_rcost(problem, duals)
        b = oracle_min_rcost_recursive(problem, duals)
        assert a == b


@pytest.mark.parametrize("seed", (2, 5, 9))
def test_ip_never_beats_lp(seed):
    problem = random_tiny_instance(seed)
    lp = oracle_lp(problem)
    ip = oracle_ip(problem)
    if ip.status == "optimal":
        assert lp.status == "optimal"
        assert ip.value >= lp.value - 1e-9 * (1 + abs(lp.value))


def test_monotone_flags():
    # max aggregation is always safe to prune on
    span = build_span_problem(_two_task_instance(570))
    assert span.monotone == (True,)
    # sum aggregation with nonnegative deltas too
    chain = random_chain_instance(3)
    assert chain.monotone == (True,)
    # a negative sum delta makes early pruning unsound
    block = Block(elements=(1,), entry={1: Boundary(path_deltas=((-2,),))})
    problem = NestedProblem(
        [block],
        path_resources=[
            PathResource(dim=1, agg=SUM, a=(1,), b=5, box=((-2, 2),))
        ],
    )
    assert problem.monotone == (False,)


def test_subpath_enumeration_guard():
    # a complete 7-element block explodes combinatorially
    ids = tuple(range(7))
    block = Block(
        elements=ids,
        arcs={(u, v): Arc() for u in ids for v in ids if u != v},
    )
    problem = NestedProblem([block])
    with pytest.raises(OracleGuard):
        enumerate_block_subpaths(problem, 0, max_subpaths=10)


def test_path_product_guard():
    problem = random_tiny_instance(1)
    n_paths = count_path_products(
        [
            len(enumerate_block_subpaths(problem, bi))
            for bi in range(len(problem.blocks))
        ]
    )
    if n_paths <= 2:
        pytest.skip("instance too small to trip the guard")
    with pytest.raises(OracleGuard):
        enumerate_paths(problem, guard=2)
    with pytest.raises(OracleGuard):
        oracle_min_rcost(problem, random_duals(problem, 1), guard=2)
    with pytest.raises(OracleGuard):
        oracle_lp(problem, guard=2)


@pytest.mark.parametrize("seed", range(1, 7))
def test_span_generator_keeps_every_task_coverable(seed):
    problem = build_span_problem(random_span_instance(seed, tasks_range=(2, 5)))
    covered = set()
    for path in enumerate_paths(problem):
        covered |= path.covered
    assert covered == set(problem.elements)


@pytest.mark.parametrize("seed", range(1, 7))
def test_chain_generator_keeps_every_element_coverable(seed):
    problem = random_chain_instance(seed)
    covered = set()
    for path in enumerate_paths(problem):
        covered |= path.covered
    assert covered == set(problem.elements)


@pytest.mark.parametrize("seed", range(1, 9))
def test_tiny_instances_fit_their_contract(seed):
    problem = random_tiny_instance(seed)
    assert len(problem.blocks) <= 3
    for bi in range(len(problem.blocks)):
        assert 1 <= len(enumerate_block_subpaths(problem, bi)) <= 8
    assert enumerate_paths(problem)


def test_generators_and_duals_are_deterministic():
    a = random_chain_instance(11)
    b = random_chain_instance(11)
    assert a == b
    sa = random_span_instance(11)
    sb = random_span_instance(11)
    assert sa == sb
    problem = random_tiny_instance(2)
    assert random_duals(problem, 5) == random_duals(problem, 5)
    duals = random_duals(problem, 5)
    assert set(duals.by_element) <= set(problem.elements)


def test_contribution_boxes_enclose_every_feasible_contribution():
    for seed in (1, 3, 5):
        for problem in (
            random_chain_instance(seed),
            build_span_problem(random_span_instance(seed, tasks_range=(2, 4))),
        ):
            box = problem.contribution_box()
            for bi in range(len(problem.blocks)):
                for sp in enumerate_block_subpaths(problem, bi):
                    for (lo, hi), v in zip(box, sp.contributions):
                        assert lo <= v <= hi


def _min_span_through(duty_lists, scenario, duty_vec):
    """Reference through-span: the exact minimum template span over combos
    forced through one duty, by a Pareto DP over partial componentwise
    maxima that starts from the duty and folds in one scenario at a time.

    duty_lists: per scenario, the list of (end, -start) duty vectors."""
    states = [duty_vec]
    for si, duties in enumerate(duty_lists):
        if si == scenario:
            continue
        states = synth._pareto_min(
            [tuple(max(a, b) for a, b in zip(s, d)) for s in states for d in duties]
        )
    return min(sum(s) for s in states)


@pytest.mark.parametrize("seed", range(1, 41))
def test_through_spans_match_the_pareto_dp(seed):
    _, duties = synth._span_instance(seed, None, (4, 10))
    duty_lists = [[sp.contributions for sp in subs] for subs in duties]
    for si, vectors in enumerate(duty_lists):
        through = synth._through_spans(duty_lists, si)
        assert set(through) == set(vectors)
        for d in vectors:
            assert through[d] == _min_span_through(duty_lists, si, d)


def test_generated_instances_are_pinned():
    # problem_to_json with sorted keys over tiny 1-30, chain 1-12, span
    # 1-8 and the one-scenario and one-task span shapes, folded into one
    # sha256, so any change to a draw or a cap calibration fails here
    def span(seed, **params):
        return build_span_problem(random_span_instance(seed, **params))

    problems = (
        [random_tiny_instance(seed) for seed in range(1, 31)]
        + [random_chain_instance(seed) for seed in range(1, 13)]
        + [span(seed) for seed in range(1, 9)]
        + [span(1, n_scenarios=1), span(1, tasks_range=(1, 1))]
    )
    digest = hashlib.sha256()
    for problem in problems:
        digest.update(json.dumps(problem_to_json(problem), sort_keys=True).encode())
    assert digest.hexdigest() == (
        "09bf9a7f4b9916426084df5bc7978db025595c9876751fde7827c48fd87016dd"
    )


@pytest.mark.parametrize("params, name", [
    ({"n_scenarios": 0}, "n_scenarios"),
    ({"n_scenarios": -1}, "n_scenarios"),
    ({"n_scenarios": 1.5}, "n_scenarios"),
    ({"tasks_range": (0, 0)}, "tasks_range"),
    ({"tasks_range": (3, 2)}, "tasks_range"),
    ({"tasks_range": (2,)}, "tasks_range"),
    ({"tasks_range": 4}, "tasks_range"),
])
def test_bad_span_parameters_fail_with_a_model_error(params, name):
    with pytest.raises(ModelError, match=f"^{name} must be"):
        random_span_instance(1, **params)


@pytest.mark.parametrize("bad", (0, -3, 2.0))
def test_bad_tiny_subpath_bound_fails_with_a_model_error(bad):
    with pytest.raises(ModelError, match="^max_subpaths_per_block must be"):
        random_tiny_instance(1, max_subpaths_per_block=bad)
