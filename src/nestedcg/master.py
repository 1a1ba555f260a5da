"""Restricted master problem over a growing path pool.

One covering/partitioning row per element, an optional cardinality row
(its dual is the convexity charge each path pays once), and a pool of
path columns deduplicated by node sequence.  Every column is 0/1, given
to the bundled integer simplex as the tuple of its rows, and every cost
and right-hand side is an int -- path costs in millicost, right-hand
sides of 1 or the remaining cardinality -- so solves are exact: the
reported value is a Fraction in millicost, identical across pricer
configurations that reach the same optimum.  The duals stay integers:
the simplex returns them over the basis determinant, and a solve reduces
them to lowest terms as :class:`model.ScaledDuals`, the form the
smoothing, the Lagrangian bound and the pricers all read.

Infeasibility is reported as a status.  The big-M artificials that keep
intermediate masters solvable never leak into values: when artificials
remain basic at positive level the value is None, whatever M was.

Diving support: fixing a path to one removes its elements' rows.  Under
partitioning those elements also become banned for pricing; under
covering, paths may still visit them for free.  The cardinality row's
right-hand side shrinks by one per fixed path.

Each pool entry carries its LP column (the sorted rows of its covered
elements, then the cardinality row), built when the entry is added and
rebuilt for the whole pool only when ``fix_path`` changes the rows, as
are the right-hand sides and senses; a column covering a satisfied
element under partitioning is None and stays out of the LP.  A solve
hands the cached columns, right-hand sides and senses to the simplex as
they are.

Dual smoothing (``SmoothingState``) sends the pricer the midpoint of the
stability center and the fresh master duals: Wentges' fixed weight of 1/2.

``Rmp.stats`` counts the master's LP solves and pivots and sums the
seconds spent in the simplex and, as the driver times it, in
:func:`lagrangian_bound`, for the run report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .model import PARTITION, Path, ScaledDuals
from .simplex import LpResult, solve_lp

POOL_PERIOD = 5
POOL_MAX_AGE = 10
POOL_FLOOR = 1000


class MasterError(RuntimeError):
    pass


@dataclass
class PoolEntry:
    path: Path
    serial: int
    last_used: int      # last iteration it was added or sat in the basis
    column: tuple | None    # LP column under the current rows


@dataclass(frozen=True)
class RmpSolution:
    status: str                      # "optimal" | "infeasible" | "unbounded"
    lp_value: Fraction | None        # residual LP value, excludes fixed paths
    duals: ScaledDuals               # per-element duals + convexity charge
    primal: dict                     # pool serial -> Fraction, nonzero only
    fractional: tuple                # (serial, Fraction) pairs with 0 < v < 1


class Rmp:
    def __init__(self, problem):
        self.problem = problem
        self.pool: list[PoolEntry] = []
        self.by_key = {}
        self.by_serial = {}
        self._next_serial = 0
        self.fixed: list[Path] = []
        self.satisfied = set()
        self._basis = None
        self.last_pivots = 0            # simplex pivots of the latest solve
        # LP solves, their pivots and the seconds spent in the simplex and,
        # timed by the driver, in the Lagrangian bound
        self.stats = {"lp_solves": 0, "pivots": 0, "time_lp": 0.0, "time_bound": 0.0}
        self._set_rows()

    # -- pool ----------------------------------------------------------------

    def add_columns(self, paths, iteration=0) -> int:
        added = 0
        for path in paths:
            key = path.node_key
            entry = self.by_key.get(key)
            if entry is not None:
                entry.last_used = iteration
                continue
            entry = PoolEntry(path, self._next_serial, iteration,
                              self._column(path))
            self._next_serial += 1
            self.pool.append(entry)
            self.by_key[key] = entry
            self.by_serial[entry.serial] = entry
            added += 1
        return added

    def manage_pool(self, iteration) -> int:
        """Evict columns unused for over ``POOL_MAX_AGE`` iterations once
        the pool outgrows ``POOL_FLOOR``.

        Oldest-by-last-use go first, insertion order breaking ties.  Any
        eviction invalidates the warm basis.
        """
        excess = len(self.pool) - POOL_FLOOR
        if excess <= 0:
            return 0
        candidates = sorted(
            (e for e in self.pool if iteration - e.last_used > POOL_MAX_AGE),
            key=lambda e: (e.last_used, e.serial),
        )
        evict = candidates[:excess]
        if not evict:
            return 0
        dead = {e.serial for e in evict}
        self.pool = [e for e in self.pool if e.serial not in dead]
        for e in evict:
            del self.by_key[e.path.node_key]
            del self.by_serial[e.serial]
        self._basis = None
        return len(evict)

    # -- diving --------------------------------------------------------------

    @property
    def banned(self) -> frozenset:
        if self.problem.sense == PARTITION:
            return frozenset(self.satisfied)
        return frozenset()

    @property
    def remaining_cardinality(self):
        if self.problem.cardinality is None:
            return None
        return self.problem.cardinality - len(self.fixed)

    @property
    def fixed_cost(self) -> int:
        return sum(p.cost for p in self.fixed)

    def fix_path(self, serial) -> Path:
        entry = self.by_serial.get(serial)
        if entry is None:
            raise MasterError(f"no pool column with serial {serial}")
        path = entry.path
        remaining = self.remaining_cardinality
        if remaining is not None and remaining <= 0:
            raise MasterError("cardinality exhausted; cannot fix another path")
        self.fixed.append(path)
        self.satisfied.update(path.covered)
        self._basis = None
        self._set_rows()
        for e in self.pool:
            e.column = self._column(e.path)
        return path

    # -- solving ---------------------------------------------------------------

    def _set_rows(self):
        """Rows of the unsatisfied elements, then the cardinality row, with
        their right-hand sides and senses."""
        problem = self.problem
        rows = self._rows = [k for k in problem.elements if k not in self.satisfied]
        self._row_of = {k: i for i, k in enumerate(rows)}
        self._rhs = [1] * len(rows)
        self._senses = ["=" if problem.sense == PARTITION else ">="] * len(rows)
        self._card = ()
        remaining = self.remaining_cardinality
        if remaining is not None:
            self._card = (len(rows),)
            self._rhs.append(remaining)
            self._senses.append("=")

    def _column(self, path):
        """``path``'s LP column under the current rows, or None when it
        covers a satisfied element of a partitioning problem."""
        covered = path.covered
        if self.problem.sense == PARTITION and self.satisfied.intersection(covered):
            return None
        row_of = self._row_of
        return tuple([row_of[k] for k in sorted(covered) if k in row_of]) + self._card

    def solve(self, iteration=0) -> RmpSolution:
        entries = [e for e in self.pool if e.column is not None]
        costs = [e.path.cost for e in entries]
        columns = [e.column for e in entries]

        # the pool only grows between evictions and fixes, which drop the
        # basis, so the last factorization's columns keep their indices
        tick = time.perf_counter()
        result: LpResult = solve_lp(
            costs, columns, self._rhs, self._senses, basis=self._basis
        )
        stats = self.stats
        stats["time_lp"] += time.perf_counter() - tick
        stats["lp_solves"] += 1
        stats["pivots"] += result.pivots
        self._basis = result.basis
        self.last_pivots = result.pivots

        u = result.duals
        duals = ScaledDuals.lowest_terms(
            dict(zip(self._rows, u)), u[-1] if self._card else 0, result.basis.det
        )

        primal = {}
        fractional = []
        for j, value in result.primal.items():
            entry = entries[j]
            primal[entry.serial] = value
            entry.last_used = iteration
            if 0 < value < 1:
                fractional.append((entry.serial, value))
        fractional.sort(key=lambda t: (-t[1], t[0]))

        return RmpSolution(
            status=result.status,
            lp_value=result.value,
            duals=duals,
            primal=primal,
            fractional=tuple(fractional),
        )


# ---------------------------------------------------------------------------
# dual smoothing
# ---------------------------------------------------------------------------


@dataclass
class SmoothingState:
    """Wentges smoothing with his fixed weight of one half.

    The pricer sees ``(center + pure) / 2``, where the center is whatever
    duals last improved the Lagrangian bound; until one has, it sees the
    pure duals.  Both are :class:`model.ScaledDuals`, so the midpoint of
    c / d_c and p / d_p is (c.d_p + p.d_c) / (2.d_c.d_p), in lowest terms.
    On the ``desk`` corpus the smoothed trajectory is what dives
    ``tiny15`` (adaptive) to 146000 and ``chain12`` (exact) to 157000:
    with the pure duals alone they dive to 173000 and 178000.
    """

    center: ScaledDuals | None = None

    def smoothed(self, pure: ScaledDuals) -> ScaledDuals:
        center = self.center
        if center is None:
            return pure
        dc, dp = center.denom, pure.denom
        mixed = {k: v * dc for k, v in pure.by_element.items()}
        for k, v in center.by_element.items():
            mixed[k] = mixed.get(k, 0) + v * dp
        return ScaledDuals.lowest_terms(
            mixed, center.convexity * dp + pure.convexity * dc, 2 * dc * dp
        )

    def recentre(self, duals: ScaledDuals):
        self.center = duals


def lagrangian_bound(rmp: Rmp, duals: ScaledDuals, optimistic: Fraction):
    """Valid lower bound on the residual LP value from any correctly
    signed duals plus a lower bound on the pricing problem: the dual
    objective, plus the path-count multiplier times the negative part of
    the bound.  The dual objective is summed over the integer numerators,
    so the bound is the one Fraction built here."""
    value = sum(map(duals.value, rmp._rows))
    remaining = rmp.remaining_cardinality
    if remaining is not None:
        value += remaining * duals.convexity
        multiplier = remaining
    else:
        multiplier = len(rmp._rows)
    low = min(0, optimistic)
    return Fraction(
        value * low.denominator + multiplier * low.numerator * duals.denom,
        duals.denom * low.denominator,
    )
