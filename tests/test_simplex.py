"""Exact simplex vs an independent basic-solution enumerator and scipy's
HiGHS, plus warm-start token soundness and degeneracy behaviour."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from nestedcg import simplex
from nestedcg.simplex import LpError, LpResult, solve_lp


# ---------------------------------------------------------------------------
# independent oracle: enumerate supports with linearly independent columns
# ---------------------------------------------------------------------------


def _solve_support(entries, rhs):
    """Unique nonneg solution of A_S x = b for the support's columns, or
    None (inconsistent, dependent, or negative).  Exact arithmetic."""
    m, k = len(rhs), len(entries)
    aug = [[Fraction(0)] * k + [Fraction(rhs[r])] for r in range(m)]
    for j, col in enumerate(entries):
        for row, coeff in col:
            aug[row][j] = Fraction(coeff)
    pivots = []
    r = 0
    for c in range(k):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            return None  # dependent columns; a smaller support covers this
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = Fraction(1) / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if any(all(v == 0 for v in row[:k]) and row[k] != 0 for row in aug):
        return None
    x = [aug[i][k] for i in range(len(pivots))]
    if any(v < 0 for v in x):
        return None
    return x


def _enum_oracle(costs, columns, rhs, senses):
    """(feasible, optimal value) by enumerating vertex supports."""
    cols = [tuple((r, 1) for r in c) for c in columns]
    full_costs = [Fraction(c) for c in costs]
    for r, s in enumerate(senses):
        if s == ">=":
            cols.append(((r, -1),))
            full_costs.append(Fraction(0))
    m = len(rhs)
    best = None
    feasible = all(v == 0 for v in rhs)
    if feasible:
        best = Fraction(0)
    for k in range(1, m + 1):
        for support in combinations(range(len(cols)), k):
            x = _solve_support([cols[j] for j in support], rhs)
            if x is None:
                continue
            feasible = True
            val = sum(full_costs[j] * v for j, v in zip(support, x))
            if best is None or val < best:
                best = val
    return feasible, best


def _scipy_value(costs, columns, rhs, senses):
    a_eq, b_eq, a_ub, b_ub = [], [], [], []
    for r, s in enumerate(senses):
        row = [float(r in col) for col in columns]
        if s == "=":
            a_eq.append(row)
            b_eq.append(float(rhs[r]))
        else:
            a_ub.append([-v for v in row])
            b_ub.append(-float(rhs[r]))
    res = linprog(
        [float(c) for c in costs],
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=(0, None),
        method="highs",
    )
    return res


def _random_case(rng, n_core_rows):
    m = n_core_rows
    senses = [rng.choice(["=", ">="]) for _ in range(m)]
    rhs = [rng.randint(0, 8) for _ in range(m)]
    n = rng.randint(m + 1, 7)
    columns, costs = [], []
    for _ in range(n):
        columns.append(tuple(r for r in range(m) if rng.random() < 0.65))
        costs.append(rng.randint(-4, 12))
    # bounding row sum(x) + slack = 50 rules unboundedness out entirely
    columns = [col + (m,) for col in columns]
    columns.append((m,))
    costs.append(0)
    senses.append("=")
    rhs.append(50)
    return costs, columns, rhs, senses


def _duals(out):
    """The row duals of an ``LpResult``: its integers over the basis
    determinant."""
    return [Fraction(y, out.basis.det) for y in out.duals]


@pytest.mark.parametrize("block", range(8))
def test_random_lps_match_enumeration_and_scipy(block):
    rng = random.Random(4000 + block)
    for _ in range(26):
        rows = 3 if rng.random() < 0.15 else rng.randint(1, 2)
        costs, columns, rhs, senses = _random_case(rng, rows)
        got = solve_lp(costs, columns, rhs, senses)
        feasible, best = _enum_oracle(costs, columns, rhs, senses)
        if not feasible:
            assert got.status == "infeasible"
        else:
            assert got.status == "optimal"
            assert got.value == best
        ref = _scipy_value(costs, columns, rhs, senses)
        if got.status == "optimal":
            assert ref.status == 0
            assert abs(float(got.value) - ref.fun) <= 1e-7 * (1 + abs(ref.fun))
        else:
            assert ref.status == 2


def test_known_small_lp_with_exact_duals():
    # min 2x + 3y  s.t.  x + y = 4,  x >= 1  ->  x=4, y=0 is NOT dual-best:
    # picking x everywhere costs 8; mixing costs more, so value is 8
    costs = [2, 3]
    columns = [(0, 1), (0,)]
    out = solve_lp(costs, columns, [4, 1], ["=", ">="])
    assert out.status == "optimal"
    assert out.value == 8
    assert out.primal == {0: Fraction(4)}
    # dual feasibility and strong duality, exactly
    y = _duals(out)
    assert sum(yy * b for yy, b in zip(y, [4, 1])) == out.value
    for cost, col in zip(costs, columns):
        assert cost - sum(y[r] for r in col) >= 0
    assert y[1] >= 0  # covering-row dual is signed


def test_optimal_duals_are_dual_feasible_on_random_cases():
    rng = random.Random(77)
    checked = 0
    for _ in range(40):
        costs, columns, rhs, senses = _random_case(rng, rng.randint(1, 2))
        out = solve_lp(costs, columns, rhs, senses)
        if out.status != "optimal":
            continue
        checked += 1
        y = _duals(out)
        assert sum(yy * Fraction(b) for yy, b in zip(y, rhs)) == out.value
        for cost, col in zip(costs, columns):
            assert Fraction(cost) - sum(y[r] for r in col) >= 0
        for r, s in enumerate(senses):
            if s == ">=":
                assert y[r] >= 0
    assert checked >= 20


def test_unbounded_detection():
    # min -x1 - x2 with x1 + x2 >= 1 and x2 = 1: the surplus of the
    # covering row lets x1 grow, so the value falls forever
    out = solve_lp([-1, -1], [(0,), (0, 1)], [1, 1], [">=", "="])
    assert out.status == "unbounded"
    assert out.value is None


def test_infeasible_system_is_reported_as_status():
    # x1 + x2 = 2 and (separately) x1 + x2 >= 5 with the same two columns
    out = solve_lp(
        [1, 1],
        [(0, 1), (0, 1)],
        [2, 5],
        ["=", ">="],
    )
    assert out.status == "infeasible"
    assert out.value is None and out.primal == {}


def test_warm_start_agrees_with_cold_and_skips_pivoting_when_optimal():
    rng = random.Random(99)
    for _ in range(25):
        costs, columns, rhs, senses = _random_case(rng, 2)
        cold = solve_lp(costs, columns, rhs, senses)
        if cold.status != "optimal":
            continue
        # identical column set: the optimal basis re-verifies with no work
        warm = solve_lp(costs, columns, rhs, senses, basis=cold.basis)
        assert warm.status == "optimal"
        assert warm.value == cold.value
        assert warm.pivots == 0

        # extend the pool; warm and cold must land on the same exact value
        extra_costs = list(costs) + [rng.randint(-2, 6)]
        extra_columns = list(columns) + [(0, len(rhs) - 1)]
        warm2 = solve_lp(extra_costs, extra_columns, rhs, senses, basis=cold.basis)
        cold2 = solve_lp(extra_costs, extra_columns, rhs, senses)
        assert warm2.status == cold2.status
        if cold2.status == "optimal":
            assert warm2.value == cold2.value


def test_garbage_warm_basis_falls_back_to_cold():
    costs = [2, 3]
    columns = [(0, 1), (0,)]
    for junk in ((), (0,), (99, 100), (0, 0)):
        out = solve_lp(costs, columns, [4, 1], ["=", ">="], basis=junk)
        assert out.status == "optimal" and out.value == 8


def test_input_validation():
    with pytest.raises(LpError):
        solve_lp([1], [(0,)], [-1], ["="])
    with pytest.raises(LpError):
        solve_lp([1], [(0,)], [1], ["<="])
    with pytest.raises(LpError):
        solve_lp([1, 2], [(0,)], [1], ["="])


def test_pivot_limit_raises(monkeypatch):
    costs, columns, rhs, senses = _random_case(random.Random(5), 2)
    # a limit of 0 (the allowance plus 50 per row and internal column):
    # the guard fires on the first pivot past it
    n_total = len(rhs) + senses.count(">=") + len(costs)
    monkeypatch.setattr(simplex, "_PIVOT_ALLOWANCE", -50 * (len(rhs) + n_total))
    with pytest.raises(LpError, match="pivot limit 0 exceeded"):
        solve_lp(costs, columns, rhs, senses)


def test_non_integer_data_is_rejected():
    cases = [
        ([Fraction(1, 3)], [(0,)], [1]),
        ([1], [(0,)], [Fraction(21, 2)]),
        ([1.0], [(0,)], [1]),
    ]
    for costs, columns, rhs in cases:
        with pytest.raises(LpError, match="must be ints"):
            solve_lp(costs, columns, rhs, ["="])


def test_result_is_a_frozen_record():
    out = solve_lp([1], [(0,)], [2], ["="])
    assert isinstance(out, LpResult)
    with pytest.raises(AttributeError):
        out.status = "other"


# ---------------------------------------------------------------------------
# warm-start token soundness (property tests)
# ---------------------------------------------------------------------------

PROPERTY = settings(
    max_examples=60, deadline=None, derandomize=True, database=None
)


def _check_exact(out, costs, columns, rhs, senses):
    """``out`` agrees with the enumeration oracle; an optimal one carries
    a feasible primal and dual-feasible duals with y.b equal to its value."""
    feasible, best = _enum_oracle(costs, columns, rhs, senses)
    if not feasible:
        assert out.status == "infeasible"
        return
    assert out.status == "optimal"
    assert out.value == best
    assert sum(Fraction(costs[j]) * v for j, v in out.primal.items()) == best
    for r, (b, s) in enumerate(zip(rhs, senses)):
        lhs = sum(out.primal.get(j, 0) for j, col in enumerate(columns) if r in col)
        assert lhs == b if s == "=" else lhs >= b
    y = _duals(out)
    assert sum(yy * Fraction(b) for yy, b in zip(y, rhs)) == out.value
    for cost, col in zip(costs, columns):
        assert Fraction(cost) - sum(y[r] for r in col) >= 0
    for r, s in enumerate(senses):
        if s == ">=":
            assert y[r] >= 0


def _check_chain(lp, cuts):
    """Solve growing column prefixes, each warm from the previous token,
    and compare every step with a cold solve and with the oracle."""
    costs, columns, rhs, senses = lp
    token = None
    for k in cuts:
        step = (costs[:k], columns[:k], rhs, senses)
        warm = solve_lp(*step, basis=token)
        cold = solve_lp(*step)
        assert (warm.status, warm.value) == (cold.status, cold.value)
        _check_exact(warm, *step)
        token = warm.basis


@st.composite
def _set_lps(draw, min_rows=1):
    """A 0/1 partitioning or covering LP over 1-3 element rows with
    nonnegative integer costs, sometimes with a cardinality row (the last
    row).  Yields the LP and its number of element rows."""
    m = draw(st.integers(min_rows, 3))
    sense = draw(st.sampled_from(("=", ">=")))
    card = draw(st.none() | st.integers(1, m))
    tail = () if card is None else (m,)
    subsets = st.sets(st.integers(0, m - 1), min_size=1).map(sorted)
    columns = [
        tuple(rows) + tail
        for rows in draw(st.lists(subsets, min_size=1, max_size=7))
    ]
    costs = draw(st.lists(
        st.integers(0, 30), min_size=len(columns), max_size=len(columns)
    ))
    rhs = [1] * m + ([] if card is None else [card])
    senses = [sense] * m + ([] if card is None else ["="])
    return (costs, columns, rhs, senses), m


@st.composite
def _integer_lps(draw):
    """Rows of either sense with non-unit integer right-hand sides and
    costs."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    columns = [
        tuple(sorted(draw(st.sets(st.integers(0, m - 1), min_size=1))))
        for _ in range(n)
    ]
    costs = draw(st.lists(st.integers(0, 120), min_size=n, max_size=n))
    rhs = draw(st.lists(st.integers(1, 24), min_size=m, max_size=m))
    senses = draw(st.lists(st.sampled_from(("=", ">=")), min_size=m, max_size=m))
    return costs, columns, rhs, senses


def _cuts(data, n):
    """Increasing column counts ending at ``n``."""
    return sorted(data.draw(st.sets(st.integers(1, n), max_size=3)) | {n})


@PROPERTY
@given(_set_lps(), st.data())
def test_token_chain_over_appended_columns_matches_cold_and_oracle(case, data):
    lp, _ = case
    _check_chain(lp, _cuts(data, len(lp[1])))


@PROPERTY
@given(_integer_lps(), st.data())
def test_token_chain_stays_exact_on_non_unit_data(lp, data):
    _check_chain(lp, _cuts(data, len(lp[1])))


@PROPERTY
@given(_set_lps(min_rows=2), st.data())
def test_token_is_not_reused_when_a_basic_column_changed(case, data):
    (costs, columns, rhs, senses), m = case
    first = solve_lp(costs, columns, rhs, senses)
    if not first.primal:
        return          # no caller column is basic at a positive value
    j = data.draw(st.sampled_from(sorted(first.primal)))
    tail = tuple(r for r in columns[j] if r >= m)
    others = [
        rows
        for k in range(1, m + 1)
        for rows in combinations(range(m), k)
        if rows + tail != columns[j]
    ]
    rows = data.draw(st.sampled_from(others))
    changed = list(columns)
    changed[j] = rows + tail
    again = solve_lp(costs, changed, rhs, senses, basis=first.basis)
    assert again == solve_lp(costs, changed, rhs, senses)
    _check_exact(again, costs, changed, rhs, senses)


@PROPERTY
@given(_integer_lps(), st.data())
def test_token_under_another_right_hand_side_matches_cold(lp, data):
    costs, columns, rhs, senses = lp
    first = solve_lp(costs, columns, rhs, senses)
    other = data.draw(st.lists(
        st.integers(0, 24), min_size=len(rhs), max_size=len(rhs),
    ).filter(lambda b: tuple(b) != tuple(rhs)))
    # a token formed under another right-hand side starts cold
    again = solve_lp(costs, columns, other, senses, basis=first.basis)
    assert again == solve_lp(costs, columns, other, senses)
    _check_exact(again, costs, columns, other, senses)


@PROPERTY
@example((([2], [(0,)], [1], ["="]), 1))
@given(_set_lps())
def test_token_under_other_senses_starts_cold(case):
    # flipping the element rows' sense adds or drops their surplus
    # columns, so the caller's columns move to other internal indices;
    # a surplus column is the same tuple as a caller column over the same
    # row (in the example, x at index 1 under "=" is the surplus of row 0
    # under ">="), so the token must not pass for a basis there
    (costs, columns, rhs, senses), m = case
    first = solve_lp(costs, columns, rhs, senses)
    flipped = ["=" if s == ">=" else ">=" for s in senses[:m]] + senses[m:]
    again = solve_lp(costs, columns, rhs, flipped, basis=first.basis)
    assert again == solve_lp(costs, columns, rhs, flipped)
    _check_exact(again, costs, columns, rhs, flipped)


@PROPERTY
@given(st.one_of(_set_lps().map(lambda case: case[0]), _integer_lps()))
def test_blands_rule_from_the_first_pivot_matches_dantzig_and_oracle(lp):
    # a streak threshold of 0 hands every entering choice to Bland's
    # rule, which the tests' small LPs never reach otherwise
    dantzig = solve_lp(*lp)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "_DEGENERATE_STREAK", 0)
        bland = solve_lp(*lp)
    assert (bland.status, bland.value) == (dantzig.status, dantzig.value)
    _check_exact(bland, *lp)


def _duals_from_token(token, costs, rhs, senses):
    """c_B . adj for the basis the token holds, over solve_lp's internal
    columns: a big-M artificial per row, a zero-cost surplus per covering
    row, then the caller's columns."""
    big_m = max(10 * max(map(abs, costs), default=0), 10**6)
    cost = [big_m] * len(rhs) + [0] * senses.count(">=") + list(costs)
    c_b = [cost[j] for j in token.base]
    return [sum(c * row[r] for c, row in zip(c_b, token.adj)) for r in range(len(rhs))]


@PROPERTY
@given(
    st.one_of(
        _set_lps().map(lambda case: case[0]),
        _integer_lps(),
        # negative costs, a bounding row and a zero-cost slack column
        st.integers(0, 10**6).map(lambda s: _random_case(random.Random(s), 2)),
    ),
    st.data(),
)
def test_updated_duals_equal_c_b_times_the_tokens_adjugate(lp, data):
    costs, columns, rhs, senses = lp
    token = None
    for k in _cuts(data, len(columns)):
        step = (costs[:k], columns[:k], rhs, senses)
        out = solve_lp(*step, basis=token)
        token = out.basis
        assert list(out.duals) == _duals_from_token(token, costs[:k], rhs, senses)


def _stripped(token):
    """``token`` without the u = c_B.A it carries: a warm start from it
    must form u again."""
    return replace(token, costs=None, u=())


def _outcome(out):
    return (out.status, out.value, out.primal, out.duals, out.pivots,
            out.basis.base, out.basis.det)


@PROPERTY
@given(st.one_of(_set_lps().map(lambda case: case[0]), _integer_lps()), st.data())
def test_carried_x_and_u_give_what_forming_them_again_gives(lp, data):
    # a chain of warm solves, each step changing the LP: a column whose
    # cost raises big-M (an artificial left basic then has another cost),
    # a plain column, the cost of a basic column, or the right-hand side
    # (which starts both solves cold)
    costs, columns, rhs, senses = (list(part) for part in lp)
    m = len(rhs)
    n_fixed = m + senses.count(">=")
    token = solve_lp(costs, columns, rhs, senses).basis
    for _ in range(data.draw(st.integers(1, 4))):
        change = data.draw(st.sampled_from(("big-M", "append", "cost", "rhs")))
        event(change)
        if change in ("big-M", "append"):
            rows = data.draw(st.sets(st.integers(0, m - 1), min_size=1))
            top = (10**5 + 1, 10**6) if change == "big-M" else (0, 120)
            columns.append(tuple(sorted(rows)))
            costs.append(data.draw(st.integers(*top)))
        elif change == "cost":
            basic = [j - n_fixed for j in token.base if j >= n_fixed] or range(len(costs))
            costs[data.draw(st.sampled_from(sorted(basic)))] = data.draw(st.integers(0, 120))
        else:
            rhs = data.draw(st.lists(st.integers(0, 24), min_size=m, max_size=m))
        if any(j < m for j in token.base):
            event("an artificial is basic in the token")
        carried = solve_lp(costs, columns, rhs, senses, basis=token)
        again = solve_lp(costs, columns, rhs, senses, basis=_stripped(token))
        assert _outcome(carried) == _outcome(again)
        _check_exact(carried, costs, columns, rhs, senses)
        token = carried.basis
