"""Run one workload, check every answer, and compute the metrics.

The load is a closed loop with one client: cells run one after another
in this process, each on a freshly built problem (``NestedProblem``
caches enumerations and block views, so a reused problem would hide
work from later cells).  A run repeats whole passes over the workload
for as long as ``--seconds`` allows, and always makes at least one.
``--trace 1`` makes one untraced pass first, as the reference for the
tracing overhead, then traced passes.

Every time is read off a :class:`speed.SpeedClock` running for the whole
run, so it is in reference seconds; wall seconds are kept beside them
in the run's record file.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from nestedcg import cli, driver, synth
from nestedcg.synth import OracleGuard
from scipy.special import betainc

import tracing
import workloads
from speed import SpeedClock
from tracing import Recorder, patched

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
DEFAULT_SET = 1
SETUP_ROUNDS = 5               # set-up samples behind the reported median
ORACLE_REL_TOL = 1e-6

# (name, unit) of the end-to-end metrics, reported by every untraced run
END_TO_END = (
    ("setup_s", "s"),
    ("exact.solve_s", "s"),
    ("adaptive.solve_s", "s"),
    ("exact.p50_s", "s"),
    ("adaptive.p50_s", "s"),
    ("exact.p85_s", "s"),
    ("adaptive.p85_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class CellResult:
    label: str                 # "<instance>/<pricer>" or the CLI config name
    pricer: str
    solve: object = None       # tracing.Solve, once driver.solve was called
    answer: dict | None = None
    error: str = ""
    seconds: float = 0.0       # driver.solve, reference seconds
    wall: float = 0.0          # driver.solve, wall seconds


@dataclass
class PassResult:
    """One pass.  Times are perf_counter intervals until :meth:`finish`
    reads them off the stopped clock."""

    traced: bool
    cells: list
    recorder: Recorder
    setup: list                # set-up intervals ...
    outside: list = field(default_factory=list)   # ... less these within them
    failures: list = field(default_factory=list)  # (label, reason)
    setup_s: float = 0.0

    def finish(self, clock):
        for c in self.cells:
            if c.solve is not None:
                span = c.solve.span
                c.seconds = clock.seconds(span.start, span.end)
                c.wall = span.end - span.start
        self.setup_s = sum(clock.seconds(a, b) for a, b in self.setup) - sum(
            clock.seconds(a, b) for a, b in self.outside
        )


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def cells_pass(cells, traced) -> PassResult:
    """Build and solve every desk or ladder cell once."""
    rec = Recorder(layers=traced)
    results, builds = [], []
    with rec.installed():
        for cell in cells:
            result = CellResult(cell.label, cell.pricer)
            solved = len(rec.solves)
            with rec.cell():
                try:
                    t0 = time.perf_counter()
                    problem = cell.instance.build()
                    builds.append((t0, time.perf_counter()))
                    report = driver.solve(problem, cell.config(problem))
                    result.answer = workloads.answer(report)
                except Exception as exc:  # a failing cell must not stop the run
                    result.error = f"{type(exc).__name__}: {exc}"
            if len(rec.solves) > solved:
                result.solve = rec.solves[-1]
            results.append(result)
    return PassResult(traced, results, rec, builds)


def sweep_pass(specs, traced) -> PassResult:
    """One run of the experiment CLI per spec."""
    rec = Recorder(layers=traced)
    rows, runs = [], []
    with rec.installed():
        for spec in specs:
            t0 = time.perf_counter()
            rows += cli.run_experiment(spec)[0]
            runs.append((t0, time.perf_counter()))
    paired = len(rec.solves) == len(rows)
    results = []
    for i, row in enumerate(rows):
        pricer = "exact" if row["pricer"] == "enumerative" else "adaptive"
        result = CellResult(row["config"], pricer)
        if row["status"] == "error":
            result.error = row["error"]
        elif not paired:
            result.error = "experiment rows and driver.solve calls do not pair up"
        else:
            result.answer = workloads.row_answer(row)
        if paired:
            result.solve = rec.solves[i]
        results.append(result)
    outside = [
        (s.start, s.end) for s in rec.spans
        if s.name in (tracing.COLLECT, "driver.solve")
    ]
    return PassResult(traced, results, rec, runs, outside)


def setup_round(workload, cells, specs, reports) -> tuple | None:
    """Set-up alone: build every cell's problem again (desk, ladder), or
    rerun the experiment CLI with each solve replaced by the report it
    returned before (sweep).  Returns the interval it took, or None when
    there is nothing to replay."""
    if workload == "sweep":
        if not reports or any(r is None for r in reports):
            return None
        replay = iter(reports)
        with patched(driver, "solve", lambda problem, config=None: next(replay)):
            t0 = time.perf_counter()
            for spec in specs:
                cli.run_experiment(spec)
            return t0, time.perf_counter()
    t0 = time.perf_counter()
    for cell in cells:
        cell.instance.build()
    return t0, time.perf_counter()


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def load_references(workload) -> dict:
    return json.loads(REFERENCES.read_text())[workload]


def check_against(result: PassResult, references: dict) -> None:
    """Compare each cell with its committed reference."""
    for cell in result.cells:
        reason = cell.error or workloads.mismatch(
            cell.answer, references.get(cell.label)
        )
        if reason:
            result.failures.append((cell.label, reason))
    for label in sorted(set(references) - {c.label for c in result.cells}):
        result.failures.append((label, "reference cell was not run"))


def check_consistent(result: PassResult, workload) -> None:
    """Without references: both pricers (every grid cell, on sweep) must
    agree on status and exact LP value, and an integral dive can never
    beat the root LP."""
    seen = {}
    for cell in result.cells:
        if cell.error:
            result.failures.append((cell.label, cell.error))
            continue
        instance = "sweep" if workload == "sweep" else cell.label.rsplit("/", 1)[0]
        got = (cell.answer["status"], cell.answer["lp"])
        first = seen.setdefault(instance, (cell.label, got))
        if first[1] != got:
            result.failures.append(
                (cell.label, f"{got} differs from {first[0]} {first[1]}")
            )
        dive = cell.answer.get("dive")
        if dive and dive[0] == "integral" and cell.answer["lp"] is not None:
            if Fraction(dive[1]) < Fraction(cell.answer["lp"]):
                result.failures.append((cell.label, "dive beats the root LP"))


def check_oracle(result: PassResult, cells) -> None:
    """Desk shapes: the exact LP value must match synth's scipy oracle."""
    answers = answers_of(result)
    for cell in cells:
        got = answers.get(cell.label)
        if cell.pricer != "exact" or not cell.instance.oracle or got is None:
            continue
        try:
            oracle = synth.oracle_lp(cell.instance.build())
        except OracleGuard as exc:
            result.failures.append((cell.label, f"oracle: {exc}"))
            continue
        if got["status"] != oracle.status:
            result.failures.append(
                (cell.label, f"status {got['status']} != oracle {oracle.status}")
            )
        elif oracle.status == "optimal" and not math.isclose(
            float(Fraction(got["lp"])), oracle.value, rel_tol=ORACLE_REL_TOL
        ):
            result.failures.append(
                (cell.label, f"lp {got['lp']} != oracle {oracle.value}")
            )


def answers_of(result: PassResult) -> dict:
    return {c.label: c.answer for c in result.cells if c.answer is not None}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def quantile(values, q):
    """Harrell-Davis estimate of the ``q`` quantile: a Beta-weighted mean
    of all order statistics.  Unlike a single order statistic it does not
    jump when two cells of similar time swap ranks."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    edges = betainc(a, b, [i / n for i in range(n + 1)])
    return float(sum(w * x for w, x in zip(edges[1:] - edges[:-1], ordered)))


def cell_times(passes, pricer, wall=False) -> list:
    """Each cell's median solve time over every time it was solved."""
    per_cell = {}
    for p in passes:
        for c in p.cells:
            if c.pricer == pricer:
                per_cell.setdefault(c.label, []).append(c.wall if wall else c.seconds)
    return [statistics.median(v) for v in per_cell.values()]


def end_to_end(passes, setup_samples) -> dict:
    out = {"setup_s": statistics.median(setup_samples)}
    for pricer in workloads.PRICERS:
        times = cell_times(passes, pricer)
        out[f"{pricer}.solve_s"] = sum(times)
        out[f"{pricer}.p50_s"] = quantile(times, 0.5)
        out[f"{pricer}.p85_s"] = quantile(times, 0.85)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def per_layer(traced_passes, untraced_passes, clock) -> tuple[dict, list]:
    """Median of each per-layer metric over the traced passes, plus the
    tracing overhead.  Also returns the names of counters that differ
    between traced passes (they must repeat exactly)."""
    rows = [tracing.layer_metrics(p.recorder, clock) for p in traced_passes]
    out, unsteady = {}, []
    for name, unit in tracing.per_layer_units().items():
        if name.endswith("trace.overhead"):
            continue
        values = [r[name] for r in rows]
        if unit not in ("s", "s/pivot") and len(set(values)) > 1:
            unsteady.append(name)
        out[name] = statistics.median(values)
    for pricer in workloads.PRICERS:
        traced = sum(cell_times(traced_passes, pricer))
        plain = sum(cell_times(untraced_passes, pricer))
        out[f"{pricer}.trace.overhead"] = traced / plain if plain else 0.0
    return out, unsteady


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    set_seed: int = DEFAULT_SET
    references: dict | None = None     # None: check consistency instead
    out_dir: Path = Path(".perfbench_out")
    clock: SpeedClock = field(default_factory=SpeedClock)
    passes: list = field(default_factory=list)
    setup_samples: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def execute(self) -> "Run":
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with self.clock.running():
            rounds = self._measure()
        for p in self.passes:
            p.finish(self.clock)
        self.setup_samples = [p.setup_s for p in self.passes if not p.traced]
        self.setup_samples += [self.clock.seconds(a, b) for a, b in rounds]
        self._report()
        return self

    def _measure(self) -> list:
        """Make the passes and extra set-up rounds; returns the rounds'
        intervals."""
        specs, cells = None, None
        if self.workload == "sweep":
            specs = workloads.sweep_specs(
                self.set_seed, self.seed, str(self.out_dir / "sweep-cli")
            )
        else:
            cells = workloads.cells(self.workload, self.set_seed, self.seed)

        def one_pass(traced):
            if specs is not None:
                result = sweep_pass(specs, traced)
            else:
                result = cells_pass(cells, traced)
            if self.references is not None:
                check_against(result, self.references)
            else:
                check_consistent(result, self.workload)
            self.passes.append(result)
            return result

        start = time.perf_counter()
        first = one_pass(traced=False)
        if self.trace:
            one_pass(traced=True)
        while True:
            mean_pass = (time.perf_counter() - start) / len(self.passes)
            if time.perf_counter() + mean_pass > start + self.seconds:
                break
            one_pass(traced=self.trace)

        if self.references is None and self.workload == "desk":
            check_oracle(first, cells)

        rounds = []
        reports = [s.report for s in first.recorder.solves]
        untraced = sum(not p.traced for p in self.passes)
        while untraced + len(rounds) < SETUP_ROUNDS:
            interval = setup_round(self.workload, cells, specs, reports)
            if interval is None:
                break
            rounds.append(interval)
        return rounds

    def _report(self):
        for p in self.passes:
            self.failures.extend(p.failures)
        untraced = [p for p in self.passes if not p.traced]
        if not self.trace:
            self.metrics = end_to_end(untraced, self.setup_samples)
            return
        traced = [p for p in self.passes if p.traced]
        self.metrics, unsteady = per_layer(traced, untraced, self.clock)
        for name in unsteady:
            self.failures.append((name, "counter differs between traced passes"))
        for p in traced:
            for cell, diff in tracing.unaccounted(p.recorder, self.clock):
                self.failures.append(
                    (f"cell {cell}", f"self times miss solve time by {diff:.3g}s")
                )

    # -- reporting ----------------------------------------------------------

    @property
    def attempted(self) -> int:
        return sum(len(p.cells) for p in self.passes)

    @property
    def failed_cells(self) -> int:
        return sum(len({label for label, _ in p.failures}) for p in self.passes)

    def units(self) -> dict:
        return tracing.per_layer_units() if self.trace else dict(END_TO_END)

    def result_line(self) -> dict:
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": max(self.failed_cells, int(bool(self.failures))),
            "metrics": {
                name: {"value": self.metrics[name], "unit": unit}
                for name, unit in self.units().items()
            },
        }

    def summary_lines(self) -> list:
        untraced = [p for p in self.passes if not p.traced]

        def solve_s(pricer, wall=False):
            return sum(cell_times(untraced, pricer, wall))

        exact, adaptive = solve_s("exact"), solve_s("adaptive")
        lines = [
            f"workload {self.workload}  order seed {self.seed}  instance set "
            f"{self.set_seed}  passes {len(self.passes)}"
            f" ({sum(p.traced for p in self.passes)} traced)  cells/pass "
            f"{len(self.passes[0].cells)}",
            f"adaptive_over_exact {adaptive / exact if exact else float('nan'):.4f}"
            "  (untraced adaptive.solve_s / exact.solve_s)",
            f"failed_frac {self.failed_cells / max(1, self.attempted):.4f}",
            f"wall seconds: exact.solve_s {solve_s('exact', True):.4f}"
            f"  adaptive.solve_s {solve_s('adaptive', True):.4f}"
            f"  (probe slowdown {self.clock.slowdown():.3f})",
        ]
        for name, unit in self.units().items():
            lines.append(f"  {name:<46} {self.metrics[name]:.6g} {unit}")
        for label, reason in self.failures[:20]:
            lines.append(f"FAILED {label}: {reason}")
        return lines

    def write_files(self) -> None:
        """Per-cell records of every pass, and the spans of the last
        traced pass, under the output directory."""
        tag = f"{self.workload}-seed{self.seed}-trace{int(self.trace)}"
        record = {
            "workload": self.workload, "seed": self.seed,
            "set_seed": self.set_seed, "trace": self.trace,
            "result": self.result_line(),
            "setup_samples": self.setup_samples,
            "probe_slowdown": self.clock.slowdown(),
            "failures": self.failures,
            "passes": [
                {
                    "traced": p.traced, "setup_s": p.setup_s,
                    "cells": [
                        {"label": c.label, "seconds": c.seconds,
                         "wall": c.wall, "answer": c.answer, "error": c.error}
                        for c in p.cells
                    ],
                }
                for p in self.passes
            ],
        }
        (self.out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1))
        traced = [p for p in self.passes if p.traced]
        if traced:
            traced[-1].recorder.write(self.out_dir / f"{tag}-spans.jsonl")
