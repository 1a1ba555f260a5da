"""Column generation driver.

Root solve: alternate exact restricted-master solves with pricing under
smoothed duals until the pricer certifies, under the pure master duals,
that no path prices out below -EPS.  Smoothing follows Wentges with his
fixed weight: the pricer sees the midpoint of the incumbent center and
the fresh master duals; a misprice falls back to the pure duals in the
same iteration, and the center moves whenever the Lagrangian bound
improves.  Duals travel from the master's simplex to the pricers as
integers over one denominator (``model.ScaledDuals``); LP values, primal
values, the pricers' bounds and the Lagrangian bound are exact Fractions,
and reports carry them plus float renderings.

Diving: once the root LP is optimal, repeatedly fix the most fractional
column (plus every column above 3/5) to one, shrink the master, and
re-run column generation on the residual.  Fixed partitioning paths ban
their elements from pricing; bans only grow, which is exactly the
monotonicity the bucket partition's permanent-emptiness marks rely on.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .master import POOL_PERIOD, Rmp, SmoothingState, lagrangian_bound
from .pricing import AdaptivePricer, ExactPricer, PricingConfig, PricingError

DIVE_THRESHOLD = Fraction(3, 5)
# pricing certifies optimality once no path prices below -EPS (millicost)
EPS = Fraction(1, 10**6)


class DriverError(RuntimeError):
    pass


def _num(x):
    """``x`` as a float for JSON, None left as it is."""
    return None if x is None else float(x)


@dataclass
class DriverConfig:
    pricer: str = "adaptive"                  # "adaptive" | "exact"
    pricing: PricingConfig = field(default_factory=PricingConfig)
    max_iterations: int = 50_000
    dive: bool = False


def make_pricer(problem, config: DriverConfig):
    if config.pricer == "adaptive":
        return AdaptivePricer(problem, config.pricing)
    if config.pricer == "exact":
        return ExactPricer(problem)
    raise DriverError(f"unknown pricer {config.pricer!r}")


@dataclass
class Trace:
    iteration: int
    phase: str                    # "root" | "dive"
    rmp_status: str
    lp_value: Fraction | None
    columns_added: int
    optimistic: Fraction | None
    misprice: bool
    pool_size: int
    stats: dict = field(default_factory=dict)
    pivots: int = 0               # simplex pivots of this iteration's solve

    def to_dict(self):
        row = {
            "iteration": self.iteration,
            "phase": self.phase,
            "rmp_status": self.rmp_status,
            "lp_value": _num(self.lp_value),
            "columns_added": self.columns_added,
            "optimistic": _num(self.optimistic),
            "misprice": self.misprice,
            "pool_size": self.pool_size,
            "pivots": self.pivots,
        }
        for key in (
            "fill", "refinements", "merges", "reuse_hit",
            "total", "empty", "computed", "rep_computations", "fill_searches",
        ):
            if key in self.stats:
                row[key] = self.stats[key]
        return row


@dataclass
class DiveReport:
    status: str                    # "integral" | "dive_failed"
    ip_value: Fraction | None
    n_fixed: int
    gap: Fraction | None           # (ip - root lp) / root lp


def _stats_dict(stats):
    """``stats`` for JSON: seconds rounded, Fractions left out."""
    return {
        k: (round(v, 6) if isinstance(v, float) else v)
        for k, v in stats.items()
        if not isinstance(v, Fraction)
    }


@dataclass
class RunReport:
    name: str
    # "optimal" | "infeasible" | "iteration_limit" | "unbounded" (no finite optimum)
    status: str
    lp_value: Fraction | None      # root LP optimum, millicost
    bound: Fraction | None         # best Lagrangian lower bound seen
    iterations: int
    columns_generated: int
    misprices: int
    wall_time: float
    pricer_stats: dict = field(default_factory=dict)
    dive: DiveReport | None = None
    traces: list = field(default_factory=list)
    master: dict = field(default_factory=dict)    # Rmp.stats

    def to_dict(self):
        out = {
            "name": self.name,
            "status": self.status,
            "lp_value": _num(self.lp_value),
            "lp_value_exact": None if self.lp_value is None else str(self.lp_value),
            "bound": _num(self.bound),
            "iterations": self.iterations,
            "columns_generated": self.columns_generated,
            "misprices": self.misprices,
            "wall_time": round(self.wall_time, 4),
            "pricer_stats": _stats_dict(self.pricer_stats),
            "master": _stats_dict(self.master),
        }
        if self.dive is not None:
            out["dive"] = {
                "status": self.dive.status,
                "ip_value": _num(self.dive.ip_value),
                "ip_value_exact": (
                    None if self.dive.ip_value is None else str(self.dive.ip_value)
                ),
                "n_fixed": self.dive.n_fixed,
                "gap": _num(self.dive.gap),
            }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def trace_lines(self):
        return [json.dumps(t.to_dict(), sort_keys=True) for t in self.traces]


class _Counters:
    def __init__(self, limit):
        self.iteration = 0
        self.limit = limit
        self.columns = 0
        self.misprices = 0


def _cg_loop(problem, rmp, pricer, smoother, counters, traces, phase):
    """Run column generation to optimality of the current (residual)
    master.  Returns (status, final RmpSolution or None, best bound)."""
    banned = rmp.banned
    best_bound = None
    sol = None

    def price(duals):
        """One pricing call: pool its columns and fold its bound into the
        best Lagrangian bound.  Returns (outcome, columns added)."""
        nonlocal best_bound
        outcome = pricer.price(duals, banned, exclude)
        if outcome.infeasible:
            return outcome, 0
        added = rmp.add_columns(outcome.columns, it) if outcome.columns else 0
        if outcome.optimistic is not None:
            tick = time.perf_counter()
            bound = lagrangian_bound(rmp, duals, outcome.optimistic)
            rmp.stats["time_bound"] += time.perf_counter() - tick
            if best_bound is None or bound > best_bound:
                best_bound = bound
                smoother.center = duals
        return outcome, added

    while counters.iteration < counters.limit:
        counters.iteration += 1
        it = counters.iteration
        sol = rmp.solve(it)
        if sol.status == "unbounded":
            traces.append(Trace(it, phase, sol.status, None, 0, None, False,
                                len(rmp.pool), {}, rmp.last_pivots))
            return "unbounded", sol, best_bound
        pure = sol.duals
        smoothed_call = smoother.center is not None
        exclude = frozenset(rmp.by_key)

        outcome, added = price(smoother.smoothed(pure))
        # misprice: the smoothed duals found nothing new; ask again with
        # the pure duals before drawing any conclusion
        misprice = smoothed_call and not outcome.infeasible and added == 0
        if misprice:
            counters.misprices += 1
            outcome, added = price(pure)

        status = None
        if outcome.infeasible:
            status = "infeasible"
        elif added == 0:
            if outcome.optimistic is None:
                raise PricingError("pricer certified nothing and offered nothing new")
            if outcome.optimistic < -EPS:
                raise PricingError(
                    "pricing reports an improving path that is already pooled"
                )
            status = "optimal" if sol.status == "optimal" else "infeasible"
        counters.columns += added
        traces.append(Trace(
            it, phase, sol.status, sol.lp_value, added, outcome.optimistic,
            misprice, len(rmp.pool), outcome.stats, rmp.last_pivots,
        ))
        if status is not None:
            return status, sol, best_bound
        if it % POOL_PERIOD == 0:
            rmp.manage_pool(it)
    return "iteration_limit", sol, best_bound


def _integral(sol) -> bool:
    return all(v.denominator == 1 for v in sol.primal.values())


def _dive(problem, rmp, pricer, counters, traces, root_sol):
    """Fix columns of the optimal ``root_sol`` until the master is integral;
    ``dive_failed`` when a residual master is not optimal or the guard
    runs out."""
    sol = root_sol
    smoother = SmoothingState()
    guard = len(problem.elements) + 5
    for _ in range(guard):
        if _integral(sol):
            residual = sol.lp_value
            return DiveReport(
                "integral", rmp.fixed_cost + residual, len(rmp.fixed), None
            )
        chosen = [sol.fractional[0][0]]
        chosen += [
            s for s, v in sol.fractional[1:] if v > DIVE_THRESHOLD
        ]
        remaining = rmp.remaining_cardinality
        if remaining is not None:
            chosen = chosen[:remaining]
        for serial in chosen:
            rmp.fix_path(serial)
        status, sol, _ = _cg_loop(
            problem, rmp, pricer, smoother, counters, traces, "dive"
        )
        if status != "optimal":
            break
    return DiveReport("dive_failed", None, len(rmp.fixed), None)


def solve(problem, config: DriverConfig | None = None) -> RunReport:
    """Solve a nested problem's extensive LP by column generation, then
    optionally dive for an integral solution."""
    config = config or DriverConfig()
    t0 = time.perf_counter()
    rmp = Rmp(problem)
    pricer = make_pricer(problem, config)
    smoother = SmoothingState()
    counters = _Counters(config.max_iterations)
    traces = []

    status, sol, best_bound = _cg_loop(
        problem, rmp, pricer, smoother, counters, traces, "root"
    )
    lp_value = sol.lp_value if sol is not None and status == "optimal" else None

    dive_report = None
    if status == "optimal" and config.dive:
        dive_report = _dive(problem, rmp, pricer, counters, traces, sol)
        if (
            dive_report.ip_value is not None
            and lp_value is not None
            and lp_value > 0
        ):
            dive_report.gap = Fraction(
                dive_report.ip_value - lp_value, 1
            ) / lp_value

    return RunReport(
        name=problem.name,
        status=status,
        lp_value=lp_value,
        bound=best_bound,
        iterations=counters.iteration,
        columns_generated=counters.columns,
        misprices=counters.misprices,
        wall_time=time.perf_counter() - t0,
        pricer_stats=pricer._snapshot(),
        dive=dive_report,
        traces=traces,
        master=dict(rmp.stats),
    )
