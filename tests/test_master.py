"""Restricted master: pool bookkeeping, exact covering/partitioning LPs,
diving state, dual smoothing, Lagrangian bound, MPS export."""

import io
from fractions import Fraction

import pytest

from nestedcg import master
from nestedcg.master import (
    MasterError,
    Rmp,
    SmoothingState,
    lagrangian_bound,
)
from nestedcg.model import (
    COVER,
    PARTITION,
    Arc,
    Block,
    Duals,
    NestedProblem,
    Path,
    Subpath,
    check_path_feasible,
)


def _problem(sense=COVER, cardinality=None):
    block = Block(
        elements=(1, 2, 3),
        arcs={(1, 2): Arc(), (2, 3): Arc(), (1, 3): Arc()},
    )
    return NestedProblem([block], sense=sense, cardinality=cardinality)


def _path(problem, nodes, cost):
    sp = Subpath(0, tuple(nodes), cost, ())
    path = check_path_feasible(problem, (sp,))
    assert isinstance(path, Path)
    return path


def _cover_pool(problem):
    return {
        "p1": _path(problem, (1,), 5),
        "p2": _path(problem, (2,), 4),
        "p3": _path(problem, (3,), 6),
        "p12": _path(problem, (1, 2), 8),
        "p123": _path(problem, (1, 2, 3), 12),
    }


def test_pool_deduplicates_by_node_key():
    problem = _problem()
    rmp = Rmp(problem)
    paths = _cover_pool(problem)
    assert rmp.add_columns([paths["p1"], paths["p12"]], iteration=0) == 2
    again = _path(problem, (1,), 5)
    assert rmp.add_columns([again], iteration=7) == 0
    assert len(rmp.pool) == 2
    assert rmp.by_key[again.node_key].last_used == 7


def test_cover_lp_value_and_duals():
    problem = _problem()
    rmp = Rmp(problem)
    paths = _cover_pool(problem)
    rmp.add_columns(paths.values())
    sol = rmp.solve()
    assert sol.status == "optimal"
    assert sol.lp_value == 12
    # strong duality over the three covering rows
    duals = sol.duals
    assert sum(duals.value(k) for k in (1, 2, 3)) == 12
    assert duals.convexity == 0
    for path in paths.values():
        charged = sum(duals.value(k) for k in path.covered)
        assert path.cost - charged >= 0
    for k in (1, 2, 3):
        assert duals.value(k) >= 0  # covering rows carry signed duals
    # the optimal cover is integral here: one path at value one
    assert sol.fractional == ()
    (serial,) = sol.primal
    assert rmp.by_serial[serial].path.covered == frozenset({1, 2, 3})


def test_partition_with_cardinality_goes_fractional():
    problem = _problem(sense=PARTITION, cardinality=2)
    rmp = Rmp(problem)
    paths = {
        "p1": _path(problem, (1,), 5),
        "p3": _path(problem, (3,), 6),
        "p12": _path(problem, (1, 2), 8),
        "p23": _path(problem, (2, 3), 9),
    }
    rmp.add_columns(paths.values())
    sol = rmp.solve()
    assert sol.status == "optimal"
    assert sol.lp_value == 14
    # every optimum mixes: two disjoint picks both cost 14, the LP may sit
    # on either vertex or between them; fractional values must be in (0,1)
    for serial, value in sol.fractional:
        assert 0 < value < 1
        assert sol.primal[serial] == value
    # the convexity dual exists (equality row, sign-free)
    assert isinstance(sol.duals.convexity, Fraction) or sol.duals.convexity == 0


def test_lagrangian_bound_closes_at_optimal_duals():
    problem = _problem(sense=PARTITION, cardinality=2)
    rmp = Rmp(problem)
    paths = {
        "p1": _path(problem, (1,), 5),
        "p3": _path(problem, (3,), 6),
        "p12": _path(problem, (1, 2), 8),
        "p23": _path(problem, (2, 3), 9),
    }
    rmp.add_columns(paths.values())
    sol = rmp.solve()
    # zero pricing bound: the dual objective alone equals the LP value
    assert lagrangian_bound(rmp, sol.duals, Fraction(0)) == sol.lp_value
    # a negative pricing bound relaxes it by (paths remaining) x bound
    low = lagrangian_bound(rmp, sol.duals, Fraction(-3))
    assert low == sol.lp_value + 2 * Fraction(-3)
    # positive bounds never help beyond the dual objective
    assert lagrangian_bound(rmp, sol.duals, Fraction(5)) == sol.lp_value


def test_lagrangian_bound_multiplier_without_cardinality():
    problem = _problem()
    rmp = Rmp(problem)
    duals = Duals({1: Fraction(2), 2: Fraction(1), 3: Fraction(4)})
    assert lagrangian_bound(rmp, duals, Fraction(-1)) == 7 - 3
    assert lagrangian_bound(rmp, duals, Fraction(1)) == 7


def test_fixing_a_path_shrinks_the_residual_problem():
    problem = _problem(sense=PARTITION, cardinality=2)
    rmp = Rmp(problem)
    paths = {
        "p1": _path(problem, (1,), 5),
        "p3": _path(problem, (3,), 6),
        "p12": _path(problem, (1, 2), 8),
        "p23": _path(problem, (2, 3), 9),
        "p123": _path(problem, (1, 2, 3), 12),
    }
    rmp.add_columns(paths.values())
    serial_p12 = rmp.by_key[paths["p12"].node_key].serial
    fixed = rmp.fix_path(serial_p12)
    assert fixed is paths["p12"]
    assert rmp.fixed_cost == 8
    assert rmp.banned == frozenset({1, 2})
    assert rmp.remaining_cardinality == 1

    sol = rmp.solve()
    assert sol.status == "optimal"
    assert sol.lp_value == 6  # only element 3 is left; p3 is forced
    assert rmp.fixed_cost + sol.lp_value == 14

    serial_p3 = rmp.by_key[paths["p3"].node_key].serial
    rmp.fix_path(serial_p3)
    assert rmp.remaining_cardinality == 0
    with pytest.raises(MasterError, match="cardinality exhausted"):
        rmp.fix_path(rmp.by_key[paths["p1"].node_key].serial)


def test_fix_path_unknown_serial():
    rmp = Rmp(_problem())
    with pytest.raises(MasterError, match="no pool column"):
        rmp.fix_path(31337)


def test_cover_sense_never_bans_elements():
    problem = _problem()  # COVER
    rmp = Rmp(problem)
    paths = _cover_pool(problem)
    rmp.add_columns(paths.values())
    rmp.fix_path(rmp.by_key[paths["p12"].node_key].serial)
    assert rmp.banned == frozenset()
    sol = rmp.solve()  # rows 1,2 satisfied; only row 3 remains
    assert sol.lp_value == 6


def test_partition_infeasible_pool_is_a_status():
    problem = _problem(sense=PARTITION, cardinality=2)
    rmp = Rmp(problem)
    rmp.add_columns([_path(problem, (1, 2, 3), 12)])  # needs 2 paths, has 1
    sol = rmp.solve()
    assert sol.status == "infeasible"
    assert sol.lp_value is None
    assert sol.primal == {}


def _pool_limits(monkeypatch, floor, age):
    monkeypatch.setattr(master, "POOL_FLOOR", floor)
    monkeypatch.setattr(master, "POOL_MAX_AGE", age)


def test_pool_eviction_prefers_stale_columns(monkeypatch):
    problem = _problem()
    _pool_limits(monkeypatch, floor=2, age=3)
    rmp = Rmp(problem)
    paths = _cover_pool(problem)
    rmp.add_columns(paths.values(), iteration=0)  # five columns, serials 0..4
    rmp.add_columns([paths["p123"]], iteration=9)  # refresh one (serial 4)
    assert rmp.manage_pool(iteration=10) == 3
    survivors = sorted(e.serial for e in rmp.pool)
    assert len(survivors) == 2
    assert rmp.by_key[paths["p123"].node_key].serial in survivors
    assert set(rmp.by_serial) == set(survivors)
    assert len(rmp.by_key) == 2


def test_pool_eviction_noops_below_floor_or_when_everything_is_warm(monkeypatch):
    problem = _problem()
    _pool_limits(monkeypatch, floor=10, age=3)
    rmp = Rmp(problem)
    rmp.add_columns(_cover_pool(problem).values(), iteration=0)
    assert rmp.manage_pool(iteration=100) == 0  # under the floor
    _pool_limits(monkeypatch, floor=2, age=50)
    tight = Rmp(problem)
    tight.add_columns(_cover_pool(problem).values(), iteration=0)
    assert tight.manage_pool(iteration=10) == 0  # nothing old enough


def test_solve_after_eviction_and_new_columns_stays_exact(monkeypatch):
    problem = _problem()
    _pool_limits(monkeypatch, floor=2, age=1)
    rmp = Rmp(problem)
    paths = _cover_pool(problem)
    rmp.add_columns([paths["p1"], paths["p2"], paths["p3"]], iteration=0)
    first = rmp.solve(iteration=0)
    assert first.lp_value == 15
    rmp.add_columns([paths["p123"]], iteration=2)
    rmp.manage_pool(iteration=20)
    second = rmp.solve(iteration=20)
    assert second.status == "optimal"
    assert second.lp_value == 12


def _chain_problem(sense, cardinality):
    elements = (1, 2, 3, 4, 5)
    arcs = {(u, v): Arc() for u in elements for v in elements if u < v}
    return NestedProblem([Block(elements=elements, arcs=arcs)], sense=sense,
                         cardinality=cardinality)


def _by_key(rmp, sol):
    """The solution with pool serials replaced by node keys."""
    key = {e.serial: e.path.node_key for e in rmp.pool}
    return (
        sol.status,
        sol.lp_value,
        sol.duals,
        {key[s]: v for s, v in sol.primal.items()},
        tuple((key[s], v) for s, v in sol.fractional),
    )


@pytest.mark.parametrize("sense, cardinality", [
    (COVER, None), (COVER, 3), (PARTITION, None), (PARTITION, 3),
])
def test_cached_columns_solve_as_a_fresh_master(monkeypatch, sense, cardinality):
    problem = _chain_problem(sense, cardinality)
    first = [(1,), (2,), (3, 4), (4, 5), (1, 2, 3), (2, 4)]
    later = [(5,), (3,), (4,), (1, 4), (2, 3, 5), (1, 2, 3)]
    paths = {nodes: _path(problem, nodes, 3 + 2 * len(nodes) + sum(nodes) % 4)
             for nodes in first + later}
    rmp = Rmp(problem)
    rmp.add_columns([paths[n] for n in first], iteration=0)
    rmp.solve(iteration=0)
    rmp.fix_path(rmp.by_key[paths[(1, 2, 3)].node_key].serial)
    rmp.add_columns([paths[n] for n in later], iteration=5)
    _pool_limits(monkeypatch, floor=7, age=3)
    assert rmp.manage_pool(iteration=9) == 4
    got = rmp.solve(iteration=9)
    assert got.status == "optimal"

    fresh = Rmp(problem)
    fresh.add_columns(e.path for e in rmp.pool)
    for path in rmp.fixed:
        fresh.fix_path(fresh.by_key[path.node_key].serial)
    want = fresh.solve()
    assert _by_key(rmp, got) == _by_key(fresh, want)
    assert [e.column for e in rmp.pool] == [e.column for e in fresh.pool]


def test_smoothing_mixes_toward_the_center():
    pure = Duals({1: Fraction(10), 2: Fraction(0)}, convexity=Fraction(4))
    state = SmoothingState()
    assert state.smoothed(pure) is pure  # no center yet
    state.recentre(Duals({1: Fraction(2), 3: Fraction(6)}, convexity=Fraction(0)))
    mixed = state.smoothed(pure)
    assert mixed.value(1) == Fraction(6)   # (2 + 10) / 2
    assert mixed.value(2) == Fraction(0)   # (0 + 0) / 2
    assert mixed.value(3) == Fraction(3)   # (6 + 0) / 2
    assert mixed.convexity == Fraction(2)


def write_mps(rmp: Rmp, name="master") -> str:
    """Serialize the current master as free-format MPS (minimization,
    millicost objective).  Useful for eyeballing a failing LP in an
    external solver."""
    problem = rmp.problem
    rows = rmp._rows
    remaining = rmp.remaining_cardinality
    out = io.StringIO()
    out.write(f"NAME {name}\n")
    out.write("ROWS\n")
    out.write(" N COST\n")
    sense = "E" if problem.sense == PARTITION else "G"
    for k in rows:
        out.write(f" {sense} R{k}\n")
    if remaining is not None:
        out.write(" E CARD\n")
    out.write("COLUMNS\n")
    for e in rmp.pool:
        if e.column is None:
            continue
        col = f"X{e.serial}"
        out.write(f" {col} COST {e.path.cost}\n")
        for k in sorted(e.path.covered):
            if k in rmp.satisfied:
                continue
            out.write(f" {col} R{k} 1\n")
        if remaining is not None:
            out.write(f" {col} CARD 1\n")
    out.write("RHS\n")
    for k in rows:
        out.write(f" RHS R{k} 1\n")
    if remaining is not None:
        out.write(f" RHS CARD {remaining}\n")
    out.write("BOUNDS\nENDATA\n")
    return out.getvalue()


def test_mps_export_shape():
    problem = _problem(sense=PARTITION, cardinality=2)
    rmp = Rmp(problem)
    paths = {
        "p12": _path(problem, (1, 2), 8),
        "p3": _path(problem, (3,), 6),
    }
    rmp.add_columns(paths.values())
    text = write_mps(rmp, name="unit")
    assert text.startswith("NAME unit\n")
    for marker in ("ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
        assert f"{marker}\n" in text
    assert " E R1\n" in text            # partition rows are equalities
    assert " E CARD\n" in text
    assert " RHS CARD 2\n" in text
    assert " X0 COST 8\n" in text
    cover_text = write_mps(Rmp(_problem()))
    assert " G " not in cover_text or "CARD" not in cover_text
