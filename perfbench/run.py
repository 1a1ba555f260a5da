"""Benchmark entry point.

    python3 perfbench/run.py --workload desk|ladder|sweep --seed N \
        [--seconds S] [--trace 0|1] [--set-seed K]
    python3 perfbench/run.py --write-references

Run from the root of a checkout: the package is imported from ``src/``
next to this directory, never from an installed copy.  ``--seed`` draws
the order in which the workload's cells run (on ``sweep``, the order of
the CLI grid's axes); ``--set-seed`` picks the instance set, 1 being the
set whose answers are committed in ``references.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit status is 0 when every cell matched its reference (or, on a
held-out set, passed the cross-pricer and oracle checks), 1 otherwise.
``--write-references`` solves set 1 of every workload once, checks it
against the oracles and across pricers, and rewrites ``references.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "nestedcg"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("desk", "ladder", "sweep")


def _import_package():
    """Put the checkout's ``src`` first on the path, or stop."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {PACKAGE}")
    sys.path.insert(0, str(PACKAGE.parent))
    import nestedcg

    if Path(nestedcg.__file__).resolve().parent != PACKAGE.resolve():
        sys.exit(f"perfbench: nestedcg was imported from {nestedcg.__file__}")


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="cell order seed")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="keep starting passes while they fit in this time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--set-seed", type=int, default=1,
                        help="instance set; 1 has committed references")
    parser.add_argument("--write-references", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_references and args.workload is None:
        parser.error("--workload is required")
    if args.set_seed < 1:
        parser.error("--set-seed must be positive")
    return args


def write_references(bench) -> int:
    refs, failed = {}, False
    for workload in WORKLOADS:
        run = bench.Run(workload, seed=0, seconds=0, trace=False, out_dir=OUT_DIR)
        run.execute()
        for label, reason in run.failures:
            print(f"FAILED {workload} {label}: {reason}")
        failed = failed or bool(run.failures)
        refs[workload] = dict(sorted(bench.answers_of(run.passes[0]).items()))
        print(f"{workload}: {len(refs[workload])} cells")
    if failed:
        print("references not written")
        return 1
    bench.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {bench.REFERENCES}")
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    _import_package()
    import bench

    if args.write_references:
        return write_references(bench)
    references = (
        bench.load_references(args.workload)
        if args.set_seed == bench.DEFAULT_SET else None
    )
    run = bench.Run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        set_seed=args.set_seed, references=references, out_dir=OUT_DIR,
    ).execute()
    run.write_files()
    for line in run.summary_lines():
        print(line)
    print(json.dumps(run.result_line()))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
