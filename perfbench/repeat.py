"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload ladder --seeds 1-10 [--trace 0|1]
        [--seconds S] [--baseline]

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric the median, the first and third quartiles and the spread
(quartile distance over the median), next to the bound that
``BENCHMARK.json`` allows.  ``--baseline`` stores the medians and
quartiles of the end-to-end metrics in ``baseline.json`` under the
workload's name, tagged with the machine, the Python version and the
processor count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"


def _seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    """One benchmark run in its own interpreter; returns its result line."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"run failed: {' '.join(cmd)} (exit {proc.returncode})")
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/repeat.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seeds = _seeds(args.seeds)

    values = {}
    for seed in seeds:
        result = run_once(args.workload, seed, seconds, args.trace)
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: {result['failed']} failed cells")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + "  ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
            if n in bounds
        ), flush=True)

    summary = {}
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        summary[name] = spread(vals)
        s = summary[name]
        bound = bounds.get(name)
        note = "" if bound is None else f"  bound {bound}  ({s['spread'] / bound:.2f} of it)"
        print(f"{name:<46} median {s['median']:.6g}  q1 {s['q1']:.6g}"
              f"  q3 {s['q3']:.6g}  spread {s['spread']:.4f}{note}")

    if args.baseline:
        data = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        data["machine"] = {
            "platform": platform.platform(),
            "processor": platform.machine(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
        }
        data.setdefault("workloads", {})[args.workload] = {
            "seeds": seeds, "seconds": seconds,
            "metrics": {n: summary[n] for n in bounds if n in summary},
        }
        BASELINE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
