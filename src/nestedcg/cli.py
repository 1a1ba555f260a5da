"""Command-line front end: solve instances, generate benchmark data, and
run configuration-grid experiments with CSV/JSONL reporting."""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, fields
from itertools import product
from pathlib import Path

from . import driver, mpcvrp, synth
from .model import MILLI, ModelError, _entry, _is_int, problem_from_json
from .pricing import PricingConfig

PHASE_COLUMNS = ("Fill", "Pess.", "Opt.", "Merge")


def _load_any(path):
    """A problem file is either a nested problem or a routing instance;
    tell them apart by shape."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ModelError(f"{path}: expected a JSON object")
    if "blocks" in data:
        return problem_from_json(data)
    if data.get("kind") == "mpcvrp" or "day_of" in data:
        return mpcvrp.build_nested(mpcvrp.instance_from_json(data))
    raise ModelError(f"{path}: neither a nested problem nor a routing instance")


def _pricing(width, reuse, midway, merge) -> PricingConfig:
    """The adaptive pricer's knobs as the CLI and experiment grids name them."""
    return PricingConfig(width=width, strategy="midpoint" if midway else "representative",
                         merge=merge, reuse=reuse)


def _driver_config(args) -> driver.DriverConfig:
    return driver.DriverConfig(
        pricer="exact" if args.pricer == "enumerative" else args.pricer,
        pricing=_pricing(args.width, args.reuse, args.midway, args.merge),
        dive=args.dive,
    )


def _print_report(report, trace=False):
    print(f"instance:   {report.name}")
    print(f"status:     {report.status}")
    if report.lp_value is not None:
        print(
            f"lp value:   {report.lp_value} millicost"
            f" = {float(report.lp_value) / MILLI:.3f}"
        )
    if report.bound is not None:
        print(f"bound:      {float(report.bound) / MILLI:.3f}")
    print(f"iterations: {report.iterations}")
    print(f"columns:    {report.columns_generated}")
    print(f"misprices:  {report.misprices}")
    print(f"wall time:  {report.wall_time:.3f}s")
    if report.dive is not None:
        d = report.dive
        print(f"dive:       {d.status}", end="")
        if d.ip_value is not None:
            gap = f", gap {float(d.gap) * 100:.2f}%" if d.gap is not None else ""
            print(f", value {float(d.ip_value) / MILLI:.3f}{gap}", end="")
        print(f", fixed {d.n_fixed}")
    if trace:
        for line in report.trace_lines():
            print(line)


def cmd_solve(args) -> int:
    problem = _load_any(args.instance)
    report = driver.solve(problem, _driver_config(args))
    _print_report(report, trace=args.trace)
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n")
        print(f"report written to {args.out}")
    return 0


def cmd_generate(args) -> int:
    points = mpcvrp.load_points(args.points) if args.points else None
    instance = mpcvrp.generate_instance(
        points,
        n=args.n,
        days=args.t,
        vehicles=args.k,
        delta=args.delta,
        seed=args.seed,
        capacity=args.capacity,
    )
    out = args.out or f"{instance.name}.json"
    mpcvrp.save_instance(instance, out)
    d = instance.derivation
    print(
        f"{out}: D={instance.distance_cap} (d_min={float(d.d_min):.1f},"
        f" d_max={d.d_max}, delta={float(d.delta)}), Q={instance.capacity}"
    )
    return 0


# ---------------------------------------------------------------------------
# experiment grids
# ---------------------------------------------------------------------------


@dataclass
class ExperimentSpec:
    """A configuration grid over one instance source."""

    name: str
    instance: dict
    pricer: str = "adaptive"            # "adaptive" | "enumerative" | "both"
    widths: tuple = (100, 250, 500)
    reuse: tuple = (False, True)
    midway: tuple = (False, True)
    merge: tuple = (False, True)
    repetitions: int = 1
    dive: bool = False
    out_dir: str = "experiment-out"

    def __post_init__(self):
        if self.pricer not in ("adaptive", "enumerative", "both"):
            raise ModelError(f"unknown pricer {self.pricer!r}")
        if self.pricer != "enumerative" and not (
            self.widths and self.reuse and self.midway and self.merge
        ):
            raise ModelError("experiment grid must be nonempty")
        if not isinstance(self.repetitions, int) or self.repetitions < 1:
            raise ModelError(f"repetitions must be a positive integer, not {self.repetitions!r}")
        for key, (kind, text) in {"name": (str, "a string"), "out_dir": (str, "a string"),
                                  "instance": (dict, "an object"),
                                  "dive": (bool, "true or false")}.items():
            if not isinstance(getattr(self, key), kind):
                raise ModelError(f"key {key!r} must be {text}, not {getattr(self, key)!r}")
        for key in ("reuse", "midway", "merge"):
            if not all(isinstance(x, bool) for x in getattr(self, key)):
                raise ModelError(f"key {key!r} must list true or false, not {getattr(self, key)!r}")
        for width in self.widths:
            per_coord = width if isinstance(width, (list, tuple)) and width else (width,)
            if not all(_is_int(w) and w > 0 for w in per_coord):
                raise ModelError("key 'widths' must list positive integers or lists of them, "
                                 f"not {self.widths!r}")
        params = self.instance.get("params", {})
        if not isinstance(params, dict):
            raise ModelError(f"key 'instance.params' must be an object, not {params!r}")

    @classmethod
    def from_json(cls, data) -> "ExperimentSpec":
        """A spec from its JSON object.  A malformed one raises a
        ModelError that names the offending key."""
        if not isinstance(data, dict):
            raise ModelError("experiment spec: expected a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ModelError(f"unknown experiment keys: {sorted(unknown)}")
        spec = dict(data)
        for grid_key in ("widths", "reuse", "midway", "merge"):
            if grid_key in spec:
                with _entry(f"experiment key {grid_key!r}"):
                    spec[grid_key] = tuple(spec[grid_key])
        with _entry("experiment spec"):
            return cls(**spec)


def _build_problem(source: dict):
    if "file" in source:
        return _load_any(source["file"])
    gen = source.get("generator")
    params = source.get("params", {})
    if gen == "mpcvrp":
        return mpcvrp.build_nested(mpcvrp.generate_instance(**params))
    if gen == "span":
        return synth.build_span_problem(synth.random_span_instance(**params))
    if gen == "chain":
        return synth.random_chain_instance(**params)
    if gen == "tiny":
        return synth.random_tiny_instance(**params)
    raise ModelError(f"unknown instance source {source!r}")


def _grid_cells(spec: ExperimentSpec):
    """(label, pricer, pricing config, CSV columns) per cell, the
    enumerative benchmark last; the columns name the pricer and its knobs."""
    cells = []
    if spec.pricer in ("adaptive", "both"):
        for width, reuse, midway, merge in product(spec.widths, spec.reuse, spec.midway,
                                                   spec.merge):
            label = f"adaptive-w{width}-reuse{int(reuse)}-mid{int(midway)}-merge{int(merge)}"
            columns = {"pricer": "adaptive", "width": width, "reuse": int(reuse),
                       "midway": int(midway), "merge": int(merge)}
            cells.append((label, "adaptive", _pricing(width, reuse, midway, merge), columns))
    if spec.pricer in ("enumerative", "both"):
        columns = {"pricer": "enumerative", "width": "", "reuse": "", "midway": "", "merge": ""}
        cells.append(("enumerative", "exact", PricingConfig(), columns))
    return cells


def _phase_shares(stats: dict):
    total = sum(stats.get(f"time_{k}", 0.0) for k in ("fill", "pessimistic", "optimistic", "merge"))
    if total <= 0:
        return {c: "" for c in PHASE_COLUMNS}
    return {
        "Fill": f"{stats.get('time_fill', 0.0) / total:.3f}",
        "Pess.": f"{stats.get('time_pessimistic', 0.0) / total:.3f}",
        "Opt.": f"{stats.get('time_optimistic', 0.0) / total:.3f}",
        "Merge": f"{stats.get('time_merge', 0.0) / total:.3f}",
    }


def run_experiment(spec: ExperimentSpec):
    """Execute every grid cell; write results.csv and traces.jsonl.

    Cell failures are recorded in their row and do not stop the run.
    Returns (rows, failures).
    """
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = _grid_cells(spec)
    rows = []
    failures = 0

    trace_path = out_dir / "traces.jsonl"
    with trace_path.open("w") as traces:
        for rep in range(spec.repetitions):
            for label, pricer, pricing, columns in cells:
                row = {"config": label, **columns, "repetition": rep}
                try:
                    problem = _build_problem(spec.instance)
                    config = driver.DriverConfig(
                        pricer=pricer, pricing=pricing, dive=spec.dive
                    )
                    t0 = time.perf_counter()
                    report = driver.solve(problem, config)
                    elapsed = time.perf_counter() - t0
                    row.update(
                        status=report.status,
                        lp_value="" if report.lp_value is None else str(report.lp_value),
                        time_s=f"{elapsed:.4f}",
                        iterations=report.iterations,
                        columns=report.columns_generated,
                        error="",
                    )
                    row.update(_phase_shares(report.pricer_stats))
                    traces.write(
                        json.dumps(
                            {
                                "config": label,
                                "repetition": rep,
                                "traces": [t.to_dict() for t in report.traces],
                            },
                            sort_keys=True,
                        )
                        + "\n"
                    )
                except Exception as exc:  # cell isolation is the contract
                    failures += 1
                    row.update(
                        status="error",
                        lp_value="",
                        time_s="",
                        iterations="",
                        columns="",
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    row.update({c: "" for c in PHASE_COLUMNS})
                rows.append(row)

    header = [
        "config", "pricer", "width", "reuse", "midway", "merge", "repetition",
        "status", "lp_value", "time_s", "iterations", "columns",
        *PHASE_COLUMNS, "error",
    ]
    with (out_dir / "results.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)
    return rows, failures


def cmd_experiment(args) -> int:
    spec = ExperimentSpec.from_json(json.loads(Path(args.spec).read_text()))
    rows, failures = run_experiment(spec)
    print(
        f"{spec.name}: {len(rows)} cells, {failures} failed;"
        f" results in {spec.out_dir}/results.csv"
    )
    return 2 if failures else 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nestedcg",
        description="Column generation over nested path problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one instance's root LP")
    ps.add_argument("--instance", required=True, help="instance JSON file")
    ps.add_argument(
        "--pricer",
        default="adaptive",
        choices=("adaptive", "enumerative", "exact"),
    )
    ps.add_argument("--width", type=int, default=250, help="initial bucket width")
    ps.add_argument("--reuse", action="store_true", help="reuse stale representatives")
    ps.add_argument("--midway", action="store_true", help="midpoint splits")
    ps.add_argument("--merge", action="store_true", help="merge buckets after pricing")
    ps.add_argument("--dive", action="store_true", help="dive for an integral solution")
    ps.add_argument("--trace", action="store_true", help="print per-iteration JSONL")
    ps.add_argument("--out", help="write the full report JSON here")
    ps.set_defaults(func=cmd_solve)

    pg = sub.add_parser("generate", help="generate benchmark instances")
    gsub = pg.add_subparsers(dest="family", required=True)
    pm = gsub.add_parser("mpcvrp", help="multi-period routing instance")
    pm.add_argument("--n", type=int, required=True, help="customers per day")
    pm.add_argument("--t", type=int, required=True, help="days")
    pm.add_argument("--k", type=int, required=True, help="vehicles")
    pm.add_argument("--delta", type=float, required=True, help="cap tightness in [0,1]")
    pm.add_argument("--seed", type=int, required=True)
    pm.add_argument("--capacity", type=int, help="override the derived capacity")
    pm.add_argument("--points", help="point pool file (default: bundled)")
    pm.add_argument("--out", help="output path (default: derived name)")
    pm.set_defaults(func=cmd_generate)

    pe = sub.add_parser("experiment", help="run a configuration grid")
    pe.add_argument("--spec", required=True, help="experiment spec JSON")
    pe.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ModelError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
