"""Column generation driver.

Root solve: alternate exact restricted-master solves with pricing under
(optionally smoothed) duals until the pricer certifies, under the pure
master duals, that no path prices out below -eps.  Smoothing follows
Wentges: duals sent to the pricer are a convex mix of the incumbent
center and the fresh master duals; a misprice shrinks the mix weight and
falls back to the pure duals in the same iteration, and the center moves
whenever the Lagrangian bound improves.  All values stay rational from
end to end -- reports carry exact Fractions plus float renderings.

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


class DriverError(RuntimeError):
    pass


@dataclass
class DriverConfig:
    pricer: str = "adaptive"                  # "adaptive" | "exact"
    pricing: PricingConfig = field(default_factory=PricingConfig)
    max_iterations: int = 50_000
    eps: Fraction = Fraction(1, 10**6)        # millicost units
    smoothing: bool = True
    dive: bool = False


def make_pricer(problem, config: DriverConfig):
    if config.pricer == "adaptive":
        return AdaptivePricer(problem, config.pricing)
    if config.pricer == "exact":
        return ExactPricer(problem, config.pricing)
    raise DriverError(f"unknown pricer {config.pricer!r}")


@dataclass
class Trace:
    iteration: int
    phase: str                    # "root" | "dive"
    rmp_status: str
    lp_value: Fraction | None
    columns_added: int
    optimistic: Fraction | None
    alpha: Fraction
    misprice: bool
    pool_size: int
    stats: dict = field(default_factory=dict)
    pivots: int = 0               # simplex pivots of this iteration's solve

    def to_dict(self):
        def num(x):
            return None if x is None else float(x)

        row = {
            "iteration": self.iteration,
            "phase": self.phase,
            "rmp_status": self.rmp_status,
            "lp_value": num(self.lp_value),
            "columns_added": self.columns_added,
            "optimistic": num(self.optimistic),
            "alpha": float(self.alpha),
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


@dataclass
class RunReport:
    name: str
    status: str                    # "optimal" | "infeasible" | "iteration_limit"
    lp_value: Fraction | None      # root LP optimum, millicost
    bound: Fraction | None         # best Lagrangian lower bound seen
    iterations: int
    columns_generated: int
    misprices: int
    wall_time: float
    pricer_stats: dict = field(default_factory=dict)
    dive: DiveReport | None = None
    traces: list = field(default_factory=list)

    def to_dict(self):
        def num(x):
            return None if x is None else float(x)

        out = {
            "name": self.name,
            "status": self.status,
            "lp_value": num(self.lp_value),
            "lp_value_exact": None if self.lp_value is None else str(self.lp_value),
            "bound": num(self.bound),
            "iterations": self.iterations,
            "columns_generated": self.columns_generated,
            "misprices": self.misprices,
            "wall_time": round(self.wall_time, 4),
            "pricer_stats": {
                k: (round(v, 6) if isinstance(v, float) else v)
                for k, v in self.pricer_stats.items()
                if not isinstance(v, Fraction)
            },
        }
        if self.dive is not None:
            out["dive"] = {
                "status": self.dive.status,
                "ip_value": num(self.dive.ip_value),
                "ip_value_exact": (
                    None if self.dive.ip_value is None else str(self.dive.ip_value)
                ),
                "n_fixed": self.dive.n_fixed,
                "gap": num(self.dive.gap),
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


def _cg_loop(problem, config, rmp, pricer, smoother, counters, traces, phase):
    """Run column generation to optimality of the current (residual)
    master.  Returns (status, final RmpSolution or None, best bound)."""
    eps = config.eps
    banned = rmp.banned
    best_bound = None
    sol = None
    while counters.iteration < counters.limit:
        counters.iteration += 1
        it = counters.iteration
        sol = rmp.solve(it)
        pure = sol.duals
        used = smoother.smoothed(pure) if config.smoothing else pure
        smoothed_call = config.smoothing and smoother.center is not None

        exclude = frozenset(rmp.by_key)
        outcome = pricer.price(used, banned, exclude)
        misprice = False
        added = 0
        if not outcome.infeasible and outcome.columns:
            added = rmp.add_columns(outcome.columns, it)
        if outcome.infeasible:
            traces.append(Trace(
                it, phase, sol.status, sol.lp_value, 0, None,
                smoother.alpha, False, len(rmp.pool), outcome.stats,
                rmp.last_pivots,
            ))
            return "infeasible", sol, best_bound

        if outcome.optimistic is not None:
            bound = lagrangian_bound(problem, rmp, used, outcome.optimistic)
            if best_bound is None or bound > best_bound:
                best_bound = bound
                smoother.recentre(used)

        if added == 0:
            if smoothed_call:
                # misprice: the smoothed duals found nothing new; ask again
                # with the pure duals before drawing any conclusion
                misprice = True
                counters.misprices += 1
                smoother.on_misprice()
                outcome = pricer.price(pure, banned, exclude)
                if outcome.infeasible:
                    traces.append(Trace(
                        it, phase, sol.status, sol.lp_value, 0, None,
                        smoother.alpha, True, len(rmp.pool), outcome.stats,
                        rmp.last_pivots,
                    ))
                    return "infeasible", sol, best_bound
                if outcome.columns:
                    added = rmp.add_columns(outcome.columns, it)
                if outcome.optimistic is not None:
                    bound = lagrangian_bound(problem, rmp, pure, outcome.optimistic)
                    if best_bound is None or bound > best_bound:
                        best_bound = bound
                        smoother.recentre(pure)
            if added == 0:
                if outcome.optimistic is None:
                    raise PricingError(
                        "pricer certified nothing and offered nothing new"
                    )
                if outcome.optimistic >= -eps:
                    traces.append(Trace(
                        it, phase, sol.status, sol.lp_value, 0,
                        outcome.optimistic, smoother.alpha, misprice,
                        len(rmp.pool), outcome.stats,
                        rmp.last_pivots,
                    ))
                    status = "optimal" if sol.status == "optimal" else "infeasible"
                    return status, sol, best_bound
                raise PricingError(
                    "pricing reports an improving path that is already pooled"
                )
        else:
            smoother.on_success()
        counters.columns += added

        traces.append(Trace(
            it, phase, sol.status, sol.lp_value, added, outcome.optimistic,
            smoother.alpha, misprice, len(rmp.pool), outcome.stats,
            rmp.last_pivots,
        ))
        if it % POOL_PERIOD == 0:
            rmp.manage_pool(it)
    return "iteration_limit", sol, best_bound


def _integral(sol) -> bool:
    return all(v.denominator == 1 for v in sol.primal.values())


def _smoother(config):
    return SmoothingState() if config.smoothing else SmoothingState(Fraction(0))


def _dive(problem, config, rmp, pricer, counters, traces, root_sol):
    """Fix columns of the optimal ``root_sol`` until the master is integral;
    ``dive_failed`` when a residual master is not optimal or the guard
    runs out."""
    sol = root_sol
    smoother = _smoother(config)
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
            problem, config, rmp, pricer, smoother, counters, traces, "dive"
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
    smoother = _smoother(config)
    counters = _Counters(config.max_iterations)
    traces = []

    status, sol, best_bound = _cg_loop(
        problem, config, rmp, pricer, smoother, counters, traces, "root"
    )
    lp_value = sol.lp_value if sol is not None and status == "optimal" else None

    dive_report = None
    if status == "optimal" and config.dive:
        dive_report = _dive(problem, config, rmp, pricer, counters, traces, sol)
        if (
            dive_report.ip_value is not None
            and lp_value is not None
            and lp_value > 0
        ):
            dive_report.gap = Fraction(
                dive_report.ip_value - lp_value, 1
            ) / lp_value

    stats = {}
    if isinstance(pricer, AdaptivePricer):
        stats = pricer._snapshot()
    elif isinstance(pricer, ExactPricer):
        stats = dict(pricer.totals)

    return RunReport(
        name=problem.name,
        status=status,
        lp_value=lp_value,
        bound=best_bound,
        iterations=counters.iteration,
        columns_generated=counters.columns,
        misprices=counters.misprices,
        wall_time=time.perf_counter() - t0,
        pricer_stats=stats,
        dive=dive_report,
        traces=traces,
    )
