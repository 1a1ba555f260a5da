"""Exact revised simplex in integer arithmetic.

Purpose-built for restricted master problems: minimize c.x subject to
rows that are either equalities or >= covering rows, x >= 0, over 0/1
columns, each given as the tuple of the rows where it has a 1 (a path
column: its covered elements, then the cardinality row).  The returned
objective value and primal solution are exact Fractions and the row
duals exact integers over the basis determinant, so two solvers given
the same column set must agree bit for bit.

Representation.  Costs and right-hand sides are Python ints (the
master's are millicost costs and integer right-hand sides), and so is
everything inside the pivot loop.
The basis inverse is held fraction-free, as an integer matrix A and a
positive integer d with B^-1 = A/d (A = +-adj(B) and d = |det(B)|), and
the basic values as the integer vector A.b.  The value comes back as a
Fraction over d, and the duals as the integers u, with y = u/d
(``LpResult.duals`` over ``LpResult.basis.det``): the master reduces them
to lowest terms itself and never builds a Fraction per row.

Pricing evaluates R_j = c_j.d - u.a_j with u = c_B.A: the true reduced
cost times a positive factor, so Dantzig's argmin, Bland's first
negative and the (ratio, basic index) ratio-test order are those of the
rational method.  A pivot on row l with w = A.a_q (the sum of A's
columns over the entering column's rows) and p = w_l > 0 is the
Edmonds / Bareiss update

    A'[l] = A[l],   A'[i] = (p.A[i] - w_i.A[l]) // d,   d' = p,

and the same for A.b.  The division is exact: A' is again +-adj of the
new basis, whose determinant is +-p.  Entering columns are picked by
Dantzig's rule, with Bland's rule taking over during long degenerate
streaks so cycling cannot occur.

The duals cost O(m) per pivot, not O(m^2): u = c_B.A is formed once per
solve and then follows each pivot as

    u' = (p.u + R_q.A[l]) // d,

again an exact division, since u' = c_B'.A' is an integer vector (the
revised simplex's dual update, Maros, *Computational Techniques of the
Simplex Method*, 2003).  Pricing reads u without products: a caller's
column prices as c.d less the sum of u over its rows, an artificial as
big_M.d - u_r, and a surplus column, the one column with a -1, as u_r.

Warm starts.  ``LpResult.basis`` is a :class:`Basis` token holding the
basic indices, the basic columns as they were factored, A and d, and
the surplus rows.  A later solve reuses A and d as they stand when the
surplus rows and the columns at those indices are unchanged -- the case
when columns are only appended -- so a warm start never refactors; any
other token starts cold from the all-artificial basis, B = I.  The
token also carries x = A.b and u = c_B.A with the right-hand side and
the basic costs (big-M at a basic artificial) they were formed under;
a warm start reuses each when its inputs are equal and redoes its
O(m^2) product otherwise.

Feasibility comes from one big-M phase: each row carries an artificial
column, and an artificial that stays basic at positive value at
optimality means the system is infeasible -- reported as a status, never
as an M-dependent objective value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

_DEGENERATE_STREAK = 40
_PIVOT_ALLOWANCE = 10_000   # pivot limit: this plus 50 per row and column


class LpError(RuntimeError):
    """Simplex invariant failure (a stale warm basis is handled, not raised)."""


@dataclass(frozen=True)
class Basis:
    """Warm-start token: basic internal indices, the basic columns they
    were factored from, B^-1 = adj / det in integers (the rows of ``adj``
    are never mutated), and the surplus rows, which fix the internal
    layout: a surplus column and a caller column over the same row are
    the same tuple.  ``x`` = adj.rhs and ``u`` = costs.adj, with the
    ``rhs`` and basic ``costs`` (big-M included) they were formed under."""

    base: tuple
    columns: tuple
    adj: tuple
    det: int
    surplus: tuple
    rhs: tuple
    costs: tuple
    x: tuple
    u: tuple


@dataclass(frozen=True)
class LpResult:
    status: str                 # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None
    primal: dict                # caller column index -> Fraction (nonzeros)
    duals: tuple                # one int per row, the dual times basis.det
    basis: Basis                # warm-start token for a later solve
    pivots: int = 0


def solve_lp(costs, columns, rhs, senses, *, basis=None) -> LpResult:
    """Minimize ``costs . x`` s.t. the 0/1 system, x >= 0.

    ``columns[j]`` is the tuple of the rows where column j has a 1;
    ``senses`` holds "=" or ">=" per row, ``rhs`` must be nonnegative.
    Costs and right-hand sides must be ints.  ``basis`` is the
    ``LpResult.basis`` of a previous solve; it is used when its basic
    columns are still the columns at the same indices, under the same
    senses.  Row r's dual is ``duals[r] / basis.det`` of the result.
    """
    rhs = tuple(rhs)
    m = len(rhs)
    cols = [tuple(col) for col in columns]
    if len(cols) != len(costs):
        raise LpError("cost/column length mismatch")
    if {*map(type, costs), *map(type, rhs)} - {int}:
        raise LpError("costs and right-hand sides must be ints")
    if any(b < 0 for b in rhs):
        raise LpError("rhs entries must be nonnegative")
    if any(s not in ("=", ">=") for s in senses):
        raise LpError("row senses must be '=' or '>='")
    big_m = max(10 * max(map(abs, costs), default=0), 10**6)

    # internal columns: artificials, then surplus (the only -1 entries),
    # then caller columns, so indices stay put as caller columns are
    # appended between solves
    surplus_rows = tuple(r for r, s in enumerate(senses) if s == ">=")
    n_fixed = m + len(surplus_rows)
    column = [(r,) for r in range(m)] + [(r,) for r in surplus_rows] + cols
    cost = [big_m] * m + [0] * len(surplus_rows) + list(costs)
    n_total = len(column)
    pivot_limit = _PIVOT_ALLOWANCE + 50 * (m + n_total)

    # -- initial basis -----------------------------------------------------
    base = None
    if (
        isinstance(basis, Basis)
        and len(basis.base) == m
        and basis.surplus == surplus_rows
        and all(
            j < n_total and column[j] == c
            for j, c in zip(basis.base, basis.columns)
        )
    ):
        base, adj, det = list(basis.base), list(basis.adj), basis.det
        if basis.rhs == rhs:
            x = list(basis.x)
        else:
            x = [sum(map(mul, row, rhs)) for row in adj]
            if any(v < 0 for v in x):
                base = None     # primal infeasible for this right-hand side
    if base is None:            # the artificials, B = I
        basis = None
        base, det = list(range(m)), 1
        adj = [[int(r == i) for i in range(m)] for r in range(m)]
        x = list(rhs)

    # u = c_B . A, so the reduced cost of j times det is c_j.det - u.a_j;
    # formed once here, unless the token's was formed under the same basic
    # costs, then updated with each pivot
    c_b = tuple([cost[j] for j in base])
    if basis is not None and basis.costs == c_b:
        u = list(basis.u)
    else:
        u = [sum(map(mul, c_b, col)) for col in zip(*adj)]

    def result(status, u, value=None, primal=None):
        """The LpResult of the current basis, with duals u (over det)."""
        u = tuple(u)
        token = Basis(tuple(base), tuple(column[j] for j in base), tuple(adj),
                      det, surplus_rows, rhs, tuple([cost[j] for j in base]),
                      tuple(x), u)
        return LpResult(status, value, primal or {}, u, token, pivots)

    pivots = 0
    degen = 0
    while True:
        if pivots > pivot_limit:
            raise LpError(f"pivot limit {pivot_limit} exceeded")
        # artificials price as big_m.det - u_r, surplus columns as u_r and
        # caller columns as c.det less the sum of u over their rows; basic
        # columns price to exactly 0, so they are never picked
        get = u.__getitem__
        reduced = [big_m * det - v for v in u]
        reduced += map(get, surplus_rows)
        reduced += [c * det - sum(map(get, col)) for c, col in zip(costs, cols)]
        best = min(reduced, default=0)
        if best >= 0:
            # optimal for the big-M program
            if any(j < m and x[i] > 0 for i, j in enumerate(base)):
                return result("infeasible", u)
            value = Fraction(
                sum(cost[j] * x[i] for i, j in enumerate(base) if j >= m),
                det,
            )
            primal = {}
            for i, j in enumerate(base):
                if j >= n_fixed and x[i] != 0:
                    primal[j - n_fixed] = Fraction(x[i], det)
            return result("optimal", u, value, primal)

        if degen >= _DEGENERATE_STREAK:
            entering = next(j for j, d in enumerate(reduced) if d < 0)
        else:
            entering = reduced.index(best)

        # direction w = A a_q (B^-1 a_q times det), the sum of A's entries
        # over the column's rows, negated for a surplus column; ratio
        # test: compare x_i / w_i across rows by cross-multiplying
        col = column[entering]
        w = [sum([row[r] for r in col]) for row in adj]
        if m <= entering < n_fixed:
            w = [-v for v in w]
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
            return result("unbounded", u)
        degen = degen + 1 if x[leave] == 0 else 0

        # fraction-free pivot: every row but the pivot row is rescaled to
        # the new determinant p, with an exact division by the old one;
        # the duals follow as u' = (p.u + R_q.A[l]) / d
        p = w[leave]
        row_l, x_l = adj[leave], x[leave]
        r_q = reduced[entering]
        u = [(p * v + r_q * z) // det for v, z in zip(u, row_l)]
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
