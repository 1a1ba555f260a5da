"""Restricted master: pool bookkeeping, exact covering/partitioning LPs,
diving state, dual smoothing, Lagrangian bound, MPS export."""

import io
from fractions import Fraction

import pytest
from helpers import scaled
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ScaledDuals,
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
    y = {k: Fraction(duals.value(k), duals.denom) for k in (1, 2, 3)}
    assert sum(y.values()) == 12
    assert duals.convexity == 0
    for path in paths.values():
        charged = sum(y[k] for k in path.covered)
        assert path.cost - charged >= 0
    for k in (1, 2, 3):
        assert y[k] >= 0  # covering rows carry signed duals
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
    # the convexity dual exists (equality row, sign-free), an int over
    # the duals' positive denominator
    assert isinstance(sol.duals.convexity, int) and sol.duals.denom > 0


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
    duals = ScaledDuals({1: 4, 2: 2, 3: 8}, 0, 2)   # 2, 1 and 4
    assert lagrangian_bound(rmp, duals, Fraction(-1)) == 7 - 3
    assert lagrangian_bound(rmp, duals, Fraction(1)) == 7
    assert lagrangian_bound(rmp, duals, Fraction(-1, 3)) == 7 - 1


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
    pure = ScaledDuals({1: 10, 2: 0}, 4, 1)
    state = SmoothingState()
    assert state.smoothed(pure) is pure  # no center yet
    state.center = ScaledDuals({1: 6, 3: 18}, 0, 3)       # 2 and 6
    mixed = state.smoothed(pure)
    # (2 + 10) / 2, (0 + 0) / 2, (6 + 0) / 2 and (0 + 4) / 2, over the
    # least common denominator, 1
    assert mixed == ScaledDuals({1: 6, 2: 0, 3: 3}, 2, 1)
    state.center = ScaledDuals({1: 1}, 0, 2)              # 1/2
    assert state.smoothed(pure) == ScaledDuals({1: 21, 2: 0}, 8, 4)


# ---------------------------------------------------------------------------
# the integer dual path against a rational reference
# ---------------------------------------------------------------------------


@st.composite
def _master_chains(draw):
    """A one-block master in the shapes of ``tests/test_simplex.py``'s
    ``_set_lps`` and ``_integer_lps``: 1-3 element rows under one sense,
    sometimes a cardinality row (right-hand side 1 to the row count),
    and path columns over element subsets, at costs up to 30 or up to
    120, added in growing chunks.  Returns the master's problem and the
    chunks as (nodes, cost) lists."""
    m = draw(st.integers(1, 3))
    sense = draw(st.sampled_from((COVER, PARTITION)))
    cardinality = draw(st.none() | st.integers(1, m))
    top = draw(st.sampled_from((30, 120)))
    nodes = st.sets(st.integers(1, m), min_size=1).map(lambda s: tuple(sorted(s)))
    columns = draw(st.lists(st.tuples(nodes, st.integers(0, top)), min_size=1, max_size=8))
    if m == 3 and draw(st.booleans()):
        # the pairs of three elements: the LP's vertex at 1/2 on each,
        # a basis of determinant 2
        pairs = [((1, 2),), ((2, 3),), ((1, 3),)]
        columns[:0] = [pair + (draw(st.integers(0, top // 3)),) for pair in pairs]
    cuts = sorted(draw(st.sets(st.integers(1, len(columns)), max_size=3)) | {len(columns)})
    elements = tuple(range(1, m + 1))
    arcs = {(u, v): Arc() for u in elements for v in elements if u < v}
    problem = NestedProblem([Block(elements=elements, arcs=arcs)], sense=sense,
                            cardinality=cardinality)
    return problem, [columns[i:j] for i, j in zip([0] + cuts, cuts)]


def _rational(rmp, result):
    """The rational duals of an ``LpResult`` of ``rmp``: Fraction(u, det)
    per row, the last one the convexity dual under a cardinality row."""
    y = [Fraction(u, result.basis.det) for u in result.duals]
    convexity = y[-1] if rmp.remaining_cardinality is not None else Fraction(0)
    return Duals(dict(zip(rmp._rows, y)), convexity)


def _rational_bound(rmp, duals, optimistic):
    remaining = rmp.remaining_cardinality
    value = sum(duals.value(k) for k in rmp._rows)
    if remaining is None:
        return value + len(rmp._rows) * min(Fraction(0), optimistic)
    return value + remaining * (duals.convexity + min(Fraction(0), optimistic))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_master_chains(), st.data())
def test_integer_duals_match_the_rational_path(chain, data):
    problem, chunks = chain
    results = []
    solve_lp = master.solve_lp

    def recording(*args, **kwargs):
        results.append(solve_lp(*args, **kwargs))
        return results[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(master, "solve_lp", recording)
        _check_integer_path(problem, chunks, results, data)


def _check_integer_path(problem, chunks, results, data):
    rmp = Rmp(problem)
    smoother = SmoothingState()
    center = None               # the smoother's center as rationals
    draw = data.draw
    for it, chunk in enumerate(chunks):
        rmp.add_columns([_path(problem, nodes, cost) for nodes, cost in chunk], it)
        sol = rmp.solve(it)
        pure = _rational(rmp, results[-1])
        assert sol.duals == scaled(pure)
        if sol.status == "optimal":
            assert _rational_bound(rmp, pure, Fraction(0)) == sol.lp_value
        if draw(st.booleans()):
            # a center of a caller's own, over any denominators
            def drawn():
                return Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 12)))

            center = Duals({k: drawn() for k in rmp._rows},
                           drawn() if rmp.remaining_cardinality is not None else 0)
            smoother.center = scaled(center)
        if center is not None:
            keys = set(center.by_element) | set(pure.by_element)
            mid = Duals({k: (center.value(k) + pure.value(k)) / 2 for k in keys},
                        (center.convexity + pure.convexity) / 2)
            assert smoother.smoothed(sol.duals) == scaled(mid)
        optimistic = Fraction(draw(st.integers(-90, 20)), draw(st.integers(1, 7)))
        assert lagrangian_bound(rmp, sol.duals, optimistic) == _rational_bound(
            rmp, pure, optimistic)
        if draw(st.booleans()):
            smoother.center = sol.duals
            center = pure


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
