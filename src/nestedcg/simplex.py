"""Exact revised simplex in integer arithmetic.

Purpose-built for restricted master problems: minimize c.x subject to
rows that are either equalities or >= covering rows, x >= 0, with sparse
column coefficients.  The returned objective value, primal solution and
row duals are exact Fractions, so two solvers given the same column set
must agree bit for bit.

Representation.  Costs are scaled once by the lcm of their denominators,
and each row by the lcm of the denominators of its coefficients and its
right-hand side; row scaling moves neither x nor the reduced costs, and
the duals are unscaled on return.  Everything inside the pivot loop is a
Python int.  The basis inverse is held fraction-free, as an integer
matrix A and a positive integer d with B^-1 = A/d (A = +-adj(B) and
d = |det(B)|), and the basic values as the integer vector A.b.

Pricing evaluates c_j.d - u.a_j with u = c_B.A: the true reduced cost
times a positive factor, so Dantzig's argmin, Bland's first negative and
the (ratio, basic index) ratio-test order are those of the rational
method.  A pivot on row l with w = A.a_q and p = w_l > 0 is the
Edmonds / Bareiss update

    A'[l] = A[l],   A'[i] = (p.A[i] - w_i.A[l]) // d,   d' = p,

and the same for A.b.  The division is exact: A' is again +-adj of the
new basis, whose determinant is +-p.  Entering columns are picked by
Dantzig's rule, with Bland's rule taking over during long degenerate
streaks so cycling cannot occur.

Warm starts.  ``LpResult.basis`` is a :class:`Basis` token holding the
basic indices, the basic columns as they were factored, and A and d.  A
later solve reuses A and d as they stand when the columns at those
indices are unchanged -- the case when columns are only appended -- so a
warm start never refactors; any other token starts cold from the
all-artificial basis.

Feasibility comes from one big-M phase: each row carries an artificial
column, and an artificial that stays basic at positive value at
optimality means the system is infeasible -- reported as a status, never
as an M-dependent objective value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

_DEGENERATE_STREAK = 40
_PIVOT_ALLOWANCE = 10_000   # pivot limit: this plus 50 per row and column


class LpError(RuntimeError):
    """Simplex invariant failure (a stale warm basis is handled, not raised)."""


@dataclass(frozen=True)
class Basis:
    """Warm-start token: basic internal indices, the scaled basic columns
    they were factored from, and B^-1 = adj / det in integers (the rows of
    ``adj`` are never mutated)."""

    base: tuple
    columns: tuple
    adj: tuple
    det: int


@dataclass(frozen=True)
class LpResult:
    status: str                 # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None
    primal: dict                # caller column index -> Fraction (nonzeros)
    duals: tuple                # one Fraction per row
    basis: Basis                # warm-start token for a later solve
    pivots: int = 0


def _rational(x):
    return x if isinstance(x, int) else Fraction(x)


def solve_lp(costs, columns, rhs, senses, *, basis=None) -> LpResult:
    """Minimize ``costs . x`` s.t. the sparse system, x >= 0.

    ``columns[j]`` is an iterable of (row, coeff) pairs; ``senses`` holds
    "=" or ">=" per row, ``rhs`` must be nonnegative.  ``basis`` is the
    ``LpResult.basis`` of a previous solve; it is used when its basic
    columns are still the columns at the same indices.
    """
    m = len(rhs)
    if any(b < 0 for b in rhs):
        raise LpError("rhs entries must be nonnegative")
    if any(s not in ("=", ">=") for s in senses):
        raise LpError("row senses must be '=' or '>='")
    costs = [_rational(c) for c in costs]
    cols = [tuple(col) for col in columns]
    if len(cols) != len(costs):
        raise LpError("cost/column length mismatch")
    rhs = [_rational(b) for b in rhs]

    peak = max((abs(c) for c in costs), default=0)
    big_m = _rational(max(10 * peak, 10**6))

    # -- integer data: scale each row, then the costs ------------------------
    row_scale = [b.denominator for b in rhs]
    integral = all(s == 1 for s in row_scale)
    for col in cols:
        for r, c in col:
            if type(c) is not int:
                integral = False
                row_scale[r] = math.lcm(row_scale[r], Fraction(c).denominator)
    if not integral:
        cols = [
            tuple((r, int(Fraction(c) * row_scale[r])) for r, c in col)
            for col in cols
        ]
    b = [int(v * s) for v, s in zip(rhs, row_scale)]
    cost_scale = math.lcm(big_m.denominator, *(c.denominator for c in costs))

    # internal columns: artificials, then surplus, then caller columns, so
    # indices stay put as caller columns are appended between solves
    surplus_rows = [r for r, s in enumerate(senses) if s == ">="]
    n_fixed = m + len(surplus_rows)
    column = (
        [((r, row_scale[r]),) for r in range(m)]
        + [((r, -row_scale[r]),) for r in surplus_rows]
        + cols
    )
    cost = (
        [int(big_m * cost_scale)] * m
        + [0] * len(surplus_rows)
        + [int(c * cost_scale) for c in costs]
    )
    n_total = len(column)
    pivot_limit = _PIVOT_ALLOWANCE + 50 * (m + n_total)

    # -- initial basis -----------------------------------------------------
    def values(adj):
        return [sum(map(mul, row, b)) for row in adj]

    base = None
    if (
        isinstance(basis, Basis)
        and len(basis.base) == m
        and all(
            j < n_total and column[j] == c
            for j, c in zip(basis.base, basis.columns)
        )
    ):
        base, adj, det = list(basis.base), list(basis.adj), basis.det
        x = values(adj)
        if any(v < 0 for v in x):
            base = None         # primal infeasible for this right-hand side
    if base is None:            # the artificials, B = diag(row_scale)
        base, det = list(range(m)), math.prod(row_scale)
        adj = [[0] * m for _ in range(m)]
        for r in range(m):
            adj[r][r] = det // row_scale[r]
        x = values(adj)

    def token():
        return Basis(
            tuple(base), tuple(column[j] for j in base), tuple(adj), det
        )

    def duals(u):
        denom = cost_scale * det
        return tuple(Fraction(v * s, denom) for v, s in zip(u, row_scale))

    pivots = 0
    degen = 0
    while True:
        if pivots > pivot_limit:
            raise LpError(f"pivot limit {pivot_limit} exceeded")
        # u = c_B . A, so the reduced cost of j times det is c_j.det - u.a_j
        c_b = [cost[j] for j in base]
        u = [sum(map(mul, c_b, col)) for col in zip(*adj)]

        # basic columns price to exactly 0, so they are never picked
        reduced = [
            c * det - sum([u[r] * a for r, a in col])
            for c, col in zip(cost, column)
        ]
        best = min(reduced, default=0)
        if best >= 0:
            # optimal for the big-M program
            for i, j in enumerate(base):
                if j < m and x[i] > 0:
                    return LpResult(
                        "infeasible", None, {}, duals(u), token(), pivots
                    )
            value = Fraction(
                sum(cost[j] * x[i] for i, j in enumerate(base) if j >= m),
                cost_scale * det,
            )
            primal = {}
            for i, j in enumerate(base):
                if j >= n_fixed and x[i] != 0:
                    primal[j - n_fixed] = Fraction(x[i], det)
            return LpResult(
                "optimal", value, primal, duals(u), token(), pivots
            )

        if degen >= _DEGENERATE_STREAK:
            entering = next(j for j, d in enumerate(reduced) if d < 0)
        else:
            entering = reduced.index(best)

        # direction w = A a_q (B^-1 a_q times det) and ratio test: compare
        # x_i / w_i across rows by cross-multiplying
        col = column[entering]
        w = [sum([row[r] * a for r, a in col]) for row in adj]
        leave = None
        for i in range(m):
            wi = w[i]
            if wi > 0:
                if leave is None:
                    leave = i
                    continue
                here, there = x[i] * w[leave], x[leave] * wi
                if here < there or (here == there and base[i] < base[leave]):
                    leave = i
        if leave is None:
            return LpResult(
                "unbounded", None, {}, duals(u), token(), pivots
            )
        degen = degen + 1 if x[leave] == 0 else 0

        # fraction-free pivot: every row but the pivot row is rescaled to
        # the new determinant p, with an exact division by the old one
        p = w[leave]
        row_l, x_l = adj[leave], x[leave]
        for i in range(m):
            if i == leave:
                continue
            wi = w[i]
            if wi:
                adj[i] = [(p * a - wi * z) // det for a, z in zip(adj[i], row_l)]
                x[i] = (p * x[i] - wi * x_l) // det
            elif p != det:
                adj[i] = [p * a // det for a in adj[i]]
                x[i] = p * x[i] // det
        det = p
        base[leave] = entering
        pivots += 1
