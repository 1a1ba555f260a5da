"""Spans around the public calls into each nestedcg layer.

A :class:`Recorder` swaps module and class attributes of the package for
timing wrappers while its ``installed()`` block runs, and puts the
originals back afterwards; no file of the package changes.  Each call
through a wrapper becomes a span with a name, start, end, parent and
cell id, kept in memory until :meth:`Recorder.write` dumps the spans as
JSON lines.  Starts and ends are ``time.perf_counter()`` readings; the
metrics convert them to reference seconds with a
:class:`speed.SpeedClock`.

A cell is one (instance, pricer) solve.  The runner opens a cell around
building and solving a problem; a ``driver.solve`` called with no cell
open (the experiment CLI calls it per grid cell) opens its own.  Spans
outside every cell carry cell id 0.

Every solve starts right after a full garbage collection, outside its
span, so that what earlier cells left on the heap does not decide when
this cell's collections run (without it, reordering the cells moves
solve times by several percent).
"""

from __future__ import annotations

import gc
import json
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass

from nestedcg import buckets, cli, driver, master, mpcvrp, pricing, synth


@dataclass(eq=False)
class Span:
    cell: int
    name: str
    start: float
    parent: int | None        # index into Recorder.spans
    end: float = 0.0
    info: dict | None = None


@dataclass
class Solve:
    """One ``driver.solve`` call: the cell it ran in and what it returned."""

    cell: int
    pricer: str
    span: Span
    report: object = None      # RunReport, or None when the solve raised
    error: str = ""


def _solve_lp_info(args, kwargs, result):
    costs, _, rhs = args[:3]
    return {
        "pivots": result.pivots,
        "rows": len(rhs),
        "cols": len(costs),
        "warm": int(kwargs.get("basis") is not None),
    }


# (owner, attribute, span name, info(args, kwargs, result) -> dict | None).
# Each attribute is patched where the caller looks it up: ``master`` calls
# ``solve_lp``, ``pricing`` calls ``label_search`` and
# ``compute_representative``, ``buckets`` calls ``elementary_rcspp``.
LAYER_TARGETS = (
    (master, "solve_lp", "simplex.solve_lp", _solve_lp_info),
    (master.Rmp, "solve", "master.Rmp.solve", None),
    (master.Rmp, "add_columns", "master.add_columns",
     lambda a, k, r: {"columns": r}),
    (master.Rmp, "manage_pool", "master.manage_pool",
     lambda a, k, r: {"evicted": r}),
    (master.Rmp, "fix_path", "master.fix_path", None),
    (driver, "lagrangian_bound", "master.lagrangian_bound", None),
    (pricing.AdaptivePricer, "price", "pricing.price",
     lambda a, k, r: {"columns": len(r.columns)}),
    (pricing.ExactPricer, "price", "pricing.price",
     lambda a, k, r: {"columns": len(r.columns)}),
    (pricing, "compute_representative", "buckets.compute_representative",
     lambda a, k, r: {"empty": int(r is None)}),
    (buckets.Partition, "refine_bucket", "buckets.refine_bucket", None),
    (buckets.Partition, "merge_pass", "buckets.merge_pass", None),
    (buckets, "elementary_rcspp", "labeling.elementary_rcspp", None),
    (pricing, "label_search", "labeling.label_search",
     lambda a, k, r: {"results": len(r)}),
)

SETUP_TARGETS = (
    (mpcvrp, "generate_instance", "mpcvrp.generate_instance", None),
    (mpcvrp, "build_nested", "mpcvrp.build_nested", None),
    (synth, "random_tiny_instance", "synth.build", None),
    (synth, "random_chain_instance", "synth.build", None),
    (synth, "random_span_instance", "synth.build", None),
    (synth, "build_span_problem", "synth.build", None),
    (cli, "run_experiment", "cli.run_experiment", None),
)

SETUP_SPANS = frozenset(name for _, _, name, _ in SETUP_TARGETS)
COLLECT = "gc.collect"        # the collection before each solve, in no layer


@contextmanager
def patched(owner, attr, value):
    """Set ``owner.attr`` to ``value`` for the duration of the block."""
    original = vars(owner)[attr]
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Recorder:
    """Collects spans (``layers=True``) or only per-cell solve times.

    ``driver.solve`` is always wrapped, since its duration is the
    end-to-end solve time; with ``layers=True`` every target in
    ``LAYER_TARGETS`` and ``SETUP_TARGETS`` is wrapped as well.
    """

    def __init__(self, layers: bool):
        self.layers = layers
        self.spans: list[Span] = []
        self.solves: list[Solve] = []
        self._stack: list[int] = []
        self._active: set[str] = set()
        self._cell = 0
        self._next_cell = 1

    # -- cells ----------------------------------------------------------------

    @contextmanager
    def cell(self):
        """Group the spans of building and solving one (instance, pricer)."""
        outer = self._cell
        self._cell = self._next_cell
        self._next_cell += 1
        try:
            yield
        finally:
            self._cell = outer

    # -- spans ----------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(self._cell, name, time.perf_counter(), parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        self._active.add(name)
        return index

    def _close(self, index, info=None):
        span = self.spans[index]
        span.end = time.perf_counter()
        span.info = info
        self._stack.pop()
        self._active.discard(span.name)

    def _wrap(self, fn, name, info_of):
        recorder = self

        def wrapped(*args, **kwargs):
            # a call nested inside a span of the same name (synth builders
            # call each other) is part of the outer span
            if name in recorder._active:
                return fn(*args, **kwargs)
            index = recorder._open(name)
            info = None
            try:
                result = fn(*args, **kwargs)
                if info_of is not None:
                    info = info_of(args, kwargs, result)
                return result
            finally:
                recorder._close(index, info)

        wrapped.__wrapped__ = fn
        return wrapped

    def _solve(self, fn):
        recorder = self

        def solve(problem, config=None):
            own_cell = recorder._cell == 0
            if own_cell:
                recorder._cell = recorder._next_cell
                recorder._next_cell += 1
            pricer = (config or driver.DriverConfig()).pricer
            collect = recorder._open(COLLECT)
            gc.collect()
            recorder._close(collect)
            index = recorder._open("driver.solve")
            record = Solve(recorder._cell, pricer, recorder.spans[index])
            try:
                record.report = fn(problem, config)
                return record.report
            except Exception as exc:
                record.error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                recorder._close(index)
                recorder.solves.append(record)
                if own_cell:
                    recorder._cell = 0

        solve.__wrapped__ = fn
        return solve

    @contextmanager
    def installed(self):
        """Wrap the package's layer boundaries for the duration of the block."""
        patches = [(driver, "solve", self._solve(driver.solve))]
        if self.layers:
            for owner, attr, name, info_of in LAYER_TARGETS + SETUP_TARGETS:
                patches.append(
                    (owner, attr, self._wrap(vars(owner)[attr], name, info_of))
                )
        with ExitStack() as stack:
            for owner, attr, value in patches:
                stack.enter_context(patched(owner, attr, value))
            yield self

    # -- output ---------------------------------------------------------------

    def write(self, path):
        """Dump every span as one JSON line (times relative to the first)."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "cell": s.cell, "name": s.name,
                    "start": round(s.start - t0, 7), "end": round(s.end - t0, 7),
                    "parent": s.parent, "info": s.info,
                }) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

PRICERS = ("exact", "adaptive")

# (name, unit) per pricer; every name gets an ``exact.``/``adaptive.`` prefix
COMMON_METRICS = (
    ("simplex.solve_lp.calls", "count"),
    ("simplex.solve_lp.s", "s"),
    ("simplex.pivots", "count"),
    ("simplex.pivots_per_call", "count/call"),
    ("simplex.s_per_pivot", "s/pivot"),
    ("simplex.warm_calls", "count"),
    ("simplex.rows.max", "count"),
    ("simplex.cols.max", "count"),
    ("master.Rmp.solve.calls", "count"),
    ("master.Rmp.solve.self_s", "s"),
    ("master.add_columns.columns", "count"),
    ("master.manage_pool.evicted", "count"),
    ("master.fix_path.calls", "count"),
    ("master.lagrangian_bound.s", "s"),
    ("pricing.price.calls", "count"),
    ("pricing.price.self_s", "s"),
    ("pricing.columns_per_call", "count/call"),
    ("pricing.misprices", "count"),
    ("labeling.label_search.calls", "count"),
    ("labeling.label_search.s", "s"),
    ("labeling.label_search.results", "count"),
    ("driver.iterations", "count"),
    ("driver.columns_generated", "count"),
    ("driver.root_s", "s"),
    ("driver.dive_s", "s"),
    ("driver.self_s", "s"),
    ("driver.dive_gap", "ratio"),
    ("trace.overhead", "ratio"),
)
EXACT_METRICS = (
    ("pricing.enumerated", "count"),
    ("pricing.kept", "count"),
    ("pricing.kept_ratio", "ratio"),
)
ADAPTIVE_METRICS = (
    ("buckets.compute_representative.calls", "count"),
    ("buckets.compute_representative.s", "s"),
    ("buckets.empty_frac", "ratio"),
    ("buckets.reps_per_column", "count/column"),
    ("buckets.refine_bucket.calls", "count"),
    ("buckets.merge_pass.calls", "count"),
    ("buckets.merges", "count"),
    ("buckets.reuse_hits", "count"),
    ("labeling.elementary_rcspp.calls", "count"),
    ("labeling.elementary_rcspp.s", "s"),
)
SETUP_METRICS = (
    ("mpcvrp.generate_instance.s", "s"),
    ("mpcvrp.build_nested.s", "s"),
    ("synth.build.s", "s"),
    ("cli.run_experiment.self_s", "s"),
)


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for pricer, extra in (("exact", EXACT_METRICS), ("adaptive", ADAPTIVE_METRICS)):
        for name, unit in COMMON_METRICS + extra:
            units[f"{pricer}.{name}"] = unit
    units.update(SETUP_METRICS)
    return units


def _ratio(num, den):
    return num / den if den else 0.0


def span_times(rec: Recorder, clock) -> tuple[list, list]:
    """Duration and self time of every span, in the clock's seconds."""
    duration = [clock.seconds(s.start, s.end) for s in rec.spans]
    self_time = list(duration)
    for span, d in zip(rec.spans, duration):
        if span.parent is not None:
            self_time[span.parent] -= d
    return duration, self_time


def layer_metrics(rec: Recorder, clock) -> dict:
    """Per-layer values of one traced pass (``trace.overhead`` excluded:
    it needs an untraced pass)."""
    pricer_of = {s.cell: s.pricer for s in rec.solves}
    duration, self_time = span_times(rec, clock)
    acc = {p: {} for p in PRICERS}
    peak = {p: {"rows": 0, "cols": 0} for p in PRICERS}
    setup = dict.fromkeys((name for name, _ in SETUP_METRICS), 0.0)
    solve_span, first_fix = {}, {}

    def add(p, key, value):
        acc[p][key] = acc[p].get(key, 0) + value

    for span, d, own in zip(rec.spans, duration, self_time):
        if span.name == COLLECT:
            continue
        if span.name in SETUP_SPANS:
            if span.name == "cli.run_experiment":
                setup["cli.run_experiment.self_s"] += own
            else:
                setup[span.name + ".s"] += d
            continue
        p = pricer_of[span.cell]
        add(p, span.name + ".calls", 1)
        add(p, span.name + ".s", d)
        add(p, span.name + ".self_s", own)
        for key, value in (span.info or {}).items():
            if key in peak[p]:
                peak[p][key] = max(peak[p][key], value)
            else:
                add(p, f"{span.name}.{key}", value)
        if span.name == "driver.solve":
            solve_span[span.cell] = span
        elif span.name == "master.fix_path":
            first_fix.setdefault(span.cell, span.start)

    for cell, span in solve_span.items():
        cut = first_fix.get(cell, span.end)
        add(pricer_of[cell], "driver.root_s", clock.seconds(span.start, cut))
        add(pricer_of[cell], "driver.dive_s", clock.seconds(cut, span.end))

    gaps = {p: [] for p in PRICERS}
    for solve in rec.solves:
        report = solve.report
        if report is None:
            continue
        p = solve.pricer
        stats = report.pricer_stats
        add(p, "driver.iterations", report.iterations)
        add(p, "driver.columns_generated", report.columns_generated)
        add(p, "pricing.misprices", report.misprices)
        add(p, "buckets.merges", stats.get("merges", 0))
        add(p, "buckets.reuse_hits", stats.get("reuse_hits", 0))
        add(p, "pricing.enumerated", stats.get("enumerated", 0))
        add(p, "pricing.kept", stats.get("kept", 0))
        dive = report.dive
        if dive is not None and dive.status == "integral" and dive.gap is not None:
            gaps[p].append(dive.gap)

    out = {}
    extra = {"exact": EXACT_METRICS, "adaptive": ADAPTIVE_METRICS}
    for p in PRICERS:
        a = acc[p].get
        names = [n for n, _ in COMMON_METRICS + extra[p] if n != "trace.overhead"]
        values = {name: a(name, 0) for name in names}
        pivots, lp_calls = a("simplex.solve_lp.pivots", 0), a("simplex.solve_lp.calls", 0)
        reps = a("buckets.compute_representative.calls", 0)
        values.update({
            "simplex.pivots": pivots,
            "simplex.pivots_per_call": _ratio(pivots, lp_calls),
            "simplex.s_per_pivot": _ratio(a("simplex.solve_lp.s", 0), pivots),
            "simplex.warm_calls": a("simplex.solve_lp.warm", 0),
            "simplex.rows.max": peak[p]["rows"],
            "simplex.cols.max": peak[p]["cols"],
            "pricing.columns_per_call": _ratio(
                a("pricing.price.columns", 0), a("pricing.price.calls", 0)
            ),
            "driver.self_s": a("driver.solve.self_s", 0),
            "driver.dive_gap": float(sum(gaps[p]) / len(gaps[p])) if gaps[p] else 0.0,
        })
        if p == "exact":
            values["pricing.kept_ratio"] = _ratio(
                a("pricing.kept", 0), a("pricing.enumerated", 0)
            )
        else:
            values["buckets.empty_frac"] = _ratio(
                a("buckets.compute_representative.empty", 0), reps
            )
            values["buckets.reps_per_column"] = _ratio(
                reps, a("driver.columns_generated", 0)
            )
        out.update({f"{p}.{k}": v for k, v in values.items()})
    out.update(setup)
    return out


def unaccounted(rec: Recorder, clock, tolerance=1e-6) -> list:
    """Cells whose layer self times do not add up to their solve time.

    Within a cell every span below ``driver.solve`` is nested in it, so
    the self times of the solve and all its descendants must sum to the
    solve's duration.  Returns (cell, difference) pairs that miss.
    """
    _, self_time = span_times(rec, clock)
    total = {}
    for span, own in zip(rec.spans, self_time):
        if span.name not in SETUP_SPANS and span.name != COLLECT:
            total[span.cell] = total.get(span.cell, 0.0) + own
    misses = []
    for solve in rec.solves:
        diff = total.get(solve.cell, 0.0) - clock.seconds(
            solve.span.start, solve.span.end
        )
        if abs(diff) > tolerance:
            misses.append((solve.cell, diff))
    return misses
