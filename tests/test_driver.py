"""End-to-end column generation against full-enumeration LP/IP oracles,
plus trace integrity, determinism, and failure-path behaviour."""

import json
from fractions import Fraction

import pytest

from nestedcg import driver, master, mpcvrp, synth
from nestedcg.driver import (
    DriverConfig,
    DriverError,
    RunReport,
    make_pricer,
    solve,
)
from nestedcg.model import (
    COVER,
    MILLI,
    Arc,
    Block,
    Boundary,
    PARTITION,
    SUM,
    NestedProblem,
    PathResource,
    SubpathResource,
)
from nestedcg.pricing import AdaptivePricer, ExactPricer, PricingConfig


def _tiles(problem, tiles=4):
    return tuple(
        max(1, (hi - lo + 1) // tiles) for lo, hi in problem.contribution_box()
    )


def _config(problem, **over):
    defaults = dict(
        pricer="adaptive",
        pricing=PricingConfig(width=_tiles(problem)),
    )
    defaults.update(over)
    return DriverConfig(**defaults)


def _close(exact: Fraction, approx: float) -> bool:
    return abs(float(exact) - approx) <= 1e-6 * (1.0 + abs(approx))


@pytest.mark.parametrize("seed", range(1, 9))
def test_chain_instances_reach_the_enumerated_lp_value(seed):
    problem = synth.random_chain_instance(seed)
    oracle = synth.oracle_lp(problem)
    report = solve(problem, _config(problem))
    assert report.status == oracle.status
    if oracle.status == "optimal":
        assert _close(report.lp_value, oracle.value)
        assert report.bound is not None
        assert report.bound <= report.lp_value


@pytest.mark.parametrize("seed", (2, 5, 8))
def test_span_instances_reach_the_enumerated_lp_value(seed):
    problem = synth.build_span_problem(synth.random_span_instance(seed))
    oracle = synth.oracle_lp(problem)
    report = solve(problem, _config(problem))
    assert report.status == oracle.status
    if oracle.status == "optimal":
        assert _close(report.lp_value, oracle.value)


@pytest.mark.parametrize("seed", (1, 3, 6))
def test_adaptive_and_exact_pricers_agree_exactly(seed):
    problem = synth.random_chain_instance(seed)
    a = solve(problem, _config(problem))
    e = solve(problem, _config(problem, pricer="exact"))
    assert a.status == e.status
    if a.status == "optimal":
        assert a.lp_value == e.lp_value  # Fraction equality, not approximate


def test_reruns_are_bit_identical():
    problem = synth.random_chain_instance(4)

    def run():
        r = solve(problem, _config(problem))
        return (
            r.status,
            r.lp_value,
            r.bound,
            r.iterations,
            r.columns_generated,
            r.misprices,
            r.trace_lines(),
        )

    assert run() == run()


@pytest.mark.parametrize("seed", (1, 2, 5, 7))
def test_dive_reaches_a_valid_integral_solution(seed):
    problem = synth.random_chain_instance(seed)
    oracle = synth.oracle_ip(problem)
    report = solve(problem, _config(problem, dive=True))
    if report.status != "optimal":
        assert oracle.status == "infeasible"
        return
    dive = report.dive
    assert dive is not None
    if dive.status != "integral":
        return  # a failed dive is allowed; quality is measured elsewhere
    # the heuristic can exceed the true integer optimum, never undercut it
    assert oracle.status == "optimal"
    assert float(dive.ip_value) >= oracle.value - 1e-6 * (1 + abs(oracle.value))
    assert dive.ip_value >= report.lp_value
    if report.lp_value > 0:
        expected_gap = (dive.ip_value - report.lp_value) / report.lp_value
        assert dive.gap == expected_gap


def test_dive_on_an_already_integral_root_fixes_nothing():
    problem = synth.random_chain_instance(2)
    base = solve(problem, _config(problem, dive=True))
    if base.status == "optimal" and base.dive and base.dive.n_fixed == 0:
        assert base.dive.status == "integral"
        assert base.dive.ip_value == base.lp_value


@pytest.mark.parametrize("pricer", ["exact", "adaptive"])
def test_dive_fails_when_a_residual_master_is_infeasible(pricer):
    # elements 1, 2, 3 in one block: a stop window of two elements and a
    # SUM resource of -1 per element with b = -2 leave the three pairs as
    # the only paths, an odd cycle under partitioning.  The root LP takes
    # each pair at 1/2; fixing one pair leaves an element no path covers
    entry = Boundary(cost=MILLI, sub_deltas=(1,), path_deltas=((-1,),))
    step = Arc(cost=MILLI, sub_deltas=(1,), path_deltas=((-1,),))
    block = Block(
        elements=(1, 2, 3),
        arcs={(1, 2): step, (2, 3): step, (1, 3): step},
        entry={k: entry for k in (1, 2, 3)},
    )
    stop = SubpathResource(block=0, windows={k: (None, 2) for k in (1, 2, 3)})
    count = PathResource(dim=1, agg=SUM, a=(1,), b=-2, box=((-2, -1),))
    problem = NestedProblem([block], [stop], [count], sense=PARTITION)
    report = solve(problem, _config(problem, pricer=pricer, dive=True))
    pair = 2 * MILLI
    assert (report.status, report.lp_value) == ("optimal", Fraction(3, 2) * pair)
    dive = report.dive
    assert (dive.status, dive.ip_value, dive.n_fixed) == ("dive_failed", None, 1)


def test_iteration_limit_is_a_status():
    problem = synth.random_chain_instance(3)
    report = solve(problem, _config(problem, max_iterations=1))
    assert report.status in ("iteration_limit", "optimal")
    if report.status == "iteration_limit":
        assert report.iterations == 1
        assert report.lp_value is None


def test_structurally_dead_block_reports_infeasible():
    # element 9's window cannot admit the mandatory entry step, so block 1
    # has no feasible subpath at all
    blocks = [
        Block(elements=(1, 2), arcs={(1, 2): Arc()}),
        Block(elements=(9,), arcs={}),
    ]
    problem = NestedProblem(
        blocks,
        subpath_resources=[
            SubpathResource(block=1, windows={9: (5, 5)}),
        ],
    )
    report = solve(problem, _config(problem))
    assert report.status == "infeasible"
    assert report.lp_value is None
    assert report.traces, "the failing iteration still leaves a trace"


@pytest.mark.parametrize("pricer", ("exact", "adaptive"))
def test_unbounded_lp_is_a_status(pricer):
    # covering without a cardinality row: the path {1} costs -5, so taking
    # it ever more often is a ray and the LP has no finite optimum
    entry = {1: Boundary(cost=-5 * MILLI), 2: Boundary(cost=3 * MILLI)}
    problem = NestedProblem([Block(elements=(1, 2), entry=entry)], sense=COVER)
    report = solve(problem, _config(problem, pricer=pricer))
    assert report.status == "unbounded"
    assert report.lp_value is None
    assert report.traces[-1].rmp_status == "unbounded"
    assert report.iterations == len(report.traces)


def test_trace_bookkeeping_is_consistent():
    problem = synth.random_chain_instance(6)
    report = solve(problem, _config(problem, dive=True))
    traces = report.traces
    assert [t.iteration for t in traces] == list(
        range(1, report.iterations + 1)
    )
    root = [t for t in traces if t.phase == "root"]
    dive = [t for t in traces if t.phase == "dive"]
    assert root and root + dive == traces
    assert sum(t.columns_added for t in traces) == report.columns_generated
    assert sum(1 for t in traces if t.misprice) == report.misprices
    if report.status == "optimal":
        last_root = root[-1]
        assert last_root.columns_added == 0
        assert last_root.optimistic is not None
        assert last_root.optimistic >= -driver.EPS


@pytest.mark.parametrize("pricer", ("exact", "adaptive"))
def test_trace_pivots_sum_to_the_simplex_pivots(monkeypatch, pricer):
    pivots = []
    original = master.solve_lp

    def counting(*args, **kwargs):
        result = original(*args, **kwargs)
        pivots.append(result.pivots)
        return result

    monkeypatch.setattr(master, "solve_lp", counting)
    problem = synth.random_chain_instance(6)
    report = solve(problem, _config(problem, pricer=pricer, dive=True))
    rows = [json.loads(line) for line in report.trace_lines()]
    assert len(rows) == len(pivots)
    assert sum(row["pivots"] for row in rows) == sum(pivots) > 0


@pytest.mark.parametrize("pricer", ("exact", "adaptive"))
def test_the_report_counts_and_times_the_master(pricer):
    problem = synth.random_chain_instance(6)
    report = solve(problem, _config(problem, pricer=pricer, dive=True))
    stats = report.master
    assert stats["lp_solves"] == len(report.traces)
    assert stats["pivots"] == sum(t.pivots for t in report.traces) > 0
    assert 0 < stats["time_lp"] < report.wall_time
    assert 0 < stats["time_bound"] < report.wall_time
    assert stats["time_lp"] + stats["time_bound"] < report.wall_time
    data = json.loads(report.to_json())["master"]
    assert data == {**stats, "time_lp": round(stats["time_lp"], 6),
                    "time_bound": round(stats["time_bound"], 6)}
    # wall times stay out of the trace (criterion 10)
    assert all("time_lp" not in line and "time_bound" not in line
               for line in report.trace_lines())


def test_report_serialization_round_trips():
    problem = synth.random_chain_instance(5)
    report = solve(problem, _config(problem, dive=True))
    data = json.loads(report.to_json())
    assert data["name"] == problem.name
    assert data["status"] == report.status
    if report.lp_value is not None:
        assert data["lp_value_exact"] == str(report.lp_value)
        assert data["lp_value"] == pytest.approx(float(report.lp_value))
    for line in report.trace_lines():
        row = json.loads(line)
        assert set(row) >= {"iteration", "phase", "lp_value", "columns_added"}
    for value in data["pricer_stats"].values():
        assert not isinstance(value, Fraction)


def test_reuse_and_merge_configurations_agree_on_the_value():
    problem = synth.random_chain_instance(7)
    baseline = solve(problem, _config(problem))
    for reuse in (False, True):
        for merge in (False, True):
            cfg = _config(
                problem,
                pricing=PricingConfig(
                    width=_tiles(problem), reuse=reuse, merge=merge
                ),
            )
            report = solve(problem, cfg)
            assert report.status == baseline.status
            assert report.lp_value == baseline.lp_value


def test_make_pricer_dispatch():
    problem = synth.random_chain_instance(1)
    assert isinstance(
        make_pricer(problem, DriverConfig(pricer="adaptive")), AdaptivePricer
    )
    assert isinstance(
        make_pricer(problem, DriverConfig(pricer="exact")), ExactPricer
    )
    with pytest.raises(DriverError):
        make_pricer(problem, DriverConfig(pricer="cplex"))


def test_pool_management_keeps_the_run_exact(monkeypatch):
    # a short period, age and floor force evictions on a small instance
    monkeypatch.setattr(driver, "POOL_PERIOD", 2)
    monkeypatch.setattr(master, "POOL_FLOOR", 5)
    monkeypatch.setattr(master, "POOL_MAX_AGE", 3)
    problem = synth.random_chain_instance(9)
    oracle = synth.oracle_lp(problem)
    report = solve(problem, _config(problem))
    sizes = [t.pool_size for t in report.traces]
    assert any(b < a for a, b in zip(sizes, sizes[1:])), "no eviction happened"
    assert report.status == oracle.status == "optimal"
    assert _close(report.lp_value, oracle.value)


# The routing cells of the desk corpus (instance set 1) whose master is
# infeasible, as (n, days, vehicles, delta, seed)
DESK_INFEASIBLE_ROUTING = [
    (4, 2, 2, Fraction(1, 10), 1), (4, 2, 2, Fraction(1, 10), 2),
    (4, 2, 2, Fraction(1, 2), 1), (4, 2, 2, Fraction(1, 2), 2),
    (4, 3, 2, Fraction(1, 10), 1), (4, 3, 2, Fraction(1, 10), 2),
    (4, 3, 2, Fraction(1, 2), 1), (4, 3, 2, Fraction(9, 10), 1),
    (5, 2, 2, Fraction(1, 10), 1), (5, 2, 2, Fraction(1, 10), 2),
    (5, 2, 2, Fraction(1, 2), 1), (5, 2, 2, Fraction(1, 2), 2),
    (5, 2, 2, Fraction(9, 10), 1), (5, 2, 2, Fraction(9, 10), 2),
    (6, 2, 3, Fraction(1, 10), 1), (6, 2, 3, Fraction(1, 10), 2),
    (6, 2, 3, Fraction(1, 2), 1),
]


@pytest.mark.parametrize("pricer", ["exact", "adaptive"])
@pytest.mark.parametrize("cell", DESK_INFEASIBLE_ROUTING,
                         ids=lambda c: "n{}-t{}-k{}-d{}-s{}".format(*c))
def test_desk_infeasible_verdicts_do_not_depend_on_big_m(cell, pricer):
    # a feasible master would cost at most K paths of the dearest cost:
    # LB <= z_bigM <= z_LP <= K * c_max.  A best Lagrangian bound above
    # that proves the LP infeasible whatever the big-M constant
    n, days, vehicles, delta, seed = cell
    problem = mpcvrp.build_nested(mpcvrp.generate_instance(
        n=n, days=days, vehicles=vehicles, delta=delta, seed=seed))
    report = solve(problem, _config(problem, pricer=pricer, dive=True))
    assert report.status == "infeasible"
    dearest = max(p.cost for p in synth.enumerate_paths(problem))
    assert report.bound > problem.cardinality * dearest
