"""The benchmark's workloads: which problems are solved, with which pricer
and configuration, and how each cell's answer is checked.

An instance set is named by ``set_seed``.  Set 1 is the default, whose
answers are committed in ``references.json``; set ``s`` slides every
instance seed by ``s - 1`` whole blocks, so it has the same shape (same
families, sizes and counts) and is held out of the references.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from nestedcg import driver, mpcvrp, synth
from nestedcg.cli import ExperimentSpec
from nestedcg.pricing import PricingConfig

WORKLOADS = ("desk", "ladder", "sweep")
PRICERS = ("exact", "adaptive")

DESK_ROUTING = ((4, 2, 2), (4, 3, 2), (5, 2, 2), (6, 2, 3))
DESK_DELTAS = (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10))
LADDER_SIZES = (6, 7)
LADDER_DELTA = Fraction(9, 10)
# Extra solves of short exact cells, whose single solves spread by about
# 8%: a cell's time is its median over all its solves.
LADDER_EXACT_REPEATS = 4
ENUMERATIVE_REPEATS = 8


@dataclass(frozen=True)
class Instance:
    key: str                          # reference key
    build: Callable                   # () -> NestedProblem, freshly built
    oracle: bool                      # small enough for synth.oracle_lp


@dataclass(frozen=True)
class Cell:
    instance: Instance
    pricer: str

    @property
    def label(self) -> str:
        return f"{self.instance.key}/{self.pricer}"

    def config(self, problem) -> driver.DriverConfig:
        """Driver defaults, dive on; adaptive buckets a quarter of the box."""
        if self.pricer == "exact":
            return driver.DriverConfig(pricer="exact", dive=True)
        return driver.DriverConfig(
            pricer="adaptive",
            pricing=PricingConfig(width=quarter_width(problem)),
            dive=True,
        )


def quarter_width(problem):
    return tuple(
        max(1, (hi - lo + 1) // 4) for lo, hi in problem.contribution_box()
    )


def _routing(n, days, vehicles, delta, seed, oracle):
    key = f"mpcvrp-n{n}-t{days}-k{vehicles}-d{delta}-s{seed}"

    def build():
        return mpcvrp.build_nested(mpcvrp.generate_instance(
            n=n, days=days, vehicles=vehicles, delta=delta, seed=seed
        ))

    return Instance(key, build, oracle)


def desk_instances(set_seed: int = 1):
    """The 74-problem corpus of acceptance criterion 4."""
    shift = set_seed - 1
    out = []
    for seed in range(30 * shift + 1, 30 * shift + 31):
        out.append(Instance(
            f"tiny{seed}", lambda s=seed: synth.random_tiny_instance(s), True
        ))
    for seed in range(12 * shift + 1, 12 * shift + 13):
        out.append(Instance(
            f"chain{seed}", lambda s=seed: synth.random_chain_instance(s), True
        ))
    for seed in range(8 * shift + 1, 8 * shift + 9):
        out.append(Instance(
            f"span{seed}",
            lambda s=seed: synth.build_span_problem(synth.random_span_instance(s)),
            True,
        ))
    for n, days, vehicles in DESK_ROUTING:
        for delta in DESK_DELTAS:
            for seed in (2 * shift + 1, 2 * shift + 2):
                out.append(_routing(n, days, vehicles, delta, seed, True))
    return out


def ladder_instances(set_seed: int = 1):
    """Routing instances past the oracles' reach."""
    shift = set_seed - 1
    return [
        _routing(n, 2, 3, LADDER_DELTA, seed, False)
        for n in LADDER_SIZES
        for seed in (2 * shift + 1, 2 * shift + 2)
    ]


def cells(workload: str, set_seed: int, order_seed: int):
    """Every (instance, pricer) cell of desk or ladder, in an order drawn
    from ``order_seed``.  On ladder each exact cell appears
    ``LADDER_EXACT_REPEATS`` times, spread through the pass."""
    instances = {
        "desk": desk_instances, "ladder": ladder_instances,
    }[workload](set_seed)
    repeats = {"exact": LADDER_EXACT_REPEATS if workload == "ladder" else 1,
               "adaptive": 1}
    out = [
        Cell(inst, pricer)
        for inst in instances for pricer in PRICERS
        for _ in range(repeats[pricer])
    ]
    random.Random(order_seed).shuffle(out)
    return out


def sweep_specs(set_seed: int, order_seed: int, out_dir: str) -> list:
    """The experiment CLI runs of ``sweep``.

    The first is the grid: 3 widths x reuse x midway x merge with pricer
    ``both``, so 24 adaptive cells and the enumerative row.
    ``order_seed`` permutes each axis, which reorders the adaptive cells.
    The second solves the enumerative row ``ENUMERATIVE_REPEATS`` more
    times, so that the one exact cell (about 0.25 s) is timed by a median
    rather than by one sample.
    """
    rng = random.Random(order_seed)
    axes = [[100, 250, 500], [False, True], [False, True], [False, True]]
    for axis in axes:
        rng.shuffle(axis)
    widths, reuse, midway, merge = (tuple(a) for a in axes)
    instance = {
        "generator": "mpcvrp",
        "params": {"n": 6, "days": 2, "vehicles": 3, "delta": 0.9,
                   "seed": set_seed},
    }
    return [
        ExperimentSpec(
            name="sweep", instance=instance, pricer="both", widths=widths,
            reuse=reuse, midway=midway, merge=merge,
            out_dir=f"{out_dir}/grid",
        ),
        ExperimentSpec(
            name="sweep-enumerative", instance=instance, pricer="enumerative",
            repetitions=ENUMERATIVE_REPEATS, out_dir=f"{out_dir}/enumerative",
        ),
    ]


# ---------------------------------------------------------------------------
# answers
# ---------------------------------------------------------------------------


def _text(value):
    return None if value is None else str(value)


def answer(report) -> dict:
    """The checked part of a RunReport: status, exact LP value, dive."""
    out = {"status": report.status, "lp": _text(report.lp_value)}
    if report.dive is not None:
        out["dive"] = [report.dive.status, _text(report.dive.ip_value)]
    return out


def row_answer(row) -> dict:
    """The checked part of one experiment CSV row."""
    return {"status": row["status"], "lp": row["lp_value"] or None}


def mismatch(got: dict, want: dict | None) -> str:
    """Why ``got`` differs from the reference ``want`` ("" when equal)."""
    if want is None:
        return "no reference"
    for key in ("status", "lp", "dive"):
        if got.get(key) != want.get(key):
            return f"{key} {got.get(key)!r} != reference {want.get(key)!r}"
    return ""
