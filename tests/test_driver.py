"""End-to-end column generation against full-enumeration LP/IP oracles,
plus trace integrity, determinism, and failure-path behaviour."""

import json
from fractions import Fraction
from functools import partial

import pytest

from nestedcg import driver, master, synth
from nestedcg.driver import (
    DriverConfig,
    DriverError,
    RunReport,
    make_pricer,
    solve,
)
from nestedcg.model import (
    Arc,
    Block,
    NestedProblem,
    PARTITION,
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


@pytest.mark.parametrize("smoothing", (False, True))
def test_reruns_are_bit_identical(smoothing):
    problem = synth.random_chain_instance(4)

    def run():
        r = solve(problem, _config(problem, smoothing=smoothing))
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
        assert last_root.optimistic >= -DriverConfig().eps


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


def test_smoothing_off_never_misprices():
    for seed in (1, 4, 6):
        problem = synth.random_chain_instance(seed)
        report = solve(problem, _config(problem, smoothing=False))
        assert report.misprices == 0


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
    monkeypatch.setattr(driver, "Rmp", partial(master.Rmp, pool_floor=5, max_age=3))
    problem = synth.random_chain_instance(9)
    oracle = synth.oracle_lp(problem)
    report = solve(problem, _config(problem))
    sizes = [t.pool_size for t in report.traces]
    assert any(b < a for a, b in zip(sizes, sizes[1:])), "no eviction happened"
    assert report.status == oracle.status == "optimal"
    assert _close(report.lp_value, oracle.value)
