"""Checks of the benchmark itself, on a few small cells.

    python3 -m pytest perfbench/selftest.py -q

The file is not named ``test_*.py`` so that the package's own test run
does not collect it.
"""

from __future__ import annotations

import json
from fractions import Fraction
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402

import bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from nestedcg import buckets, cli, driver, master, pricing  # noqa: E402
from speed import SpeedClock  # noqa: E402

SMALL = ("tiny1", "chain1", "span1", "mpcvrp-n4-t2-k2-d9/10-s1")


def _small_cells():
    chosen = [i for i in workloads.desk_instances() if i.key in SMALL]
    assert len(chosen) == len(SMALL)
    return [workloads.Cell(i, p) for i in chosen for p in workloads.PRICERS]


def _small_spec(out_dir):
    return cli.ExperimentSpec(
        name="small",
        instance={"generator": "mpcvrp",
                  "params": {"n": 4, "days": 2, "vehicles": 2, "delta": 0.9,
                             "seed": 1}},
        pricer="both", widths=(250,), reuse=(False, True), midway=(True,),
        merge=(False, True), out_dir=str(out_dir),
    )


def _counters(result, clock):
    units = tracing.per_layer_units()
    return {
        name: value
        for name, value in tracing.layer_metrics(result.recorder, clock).items()
        if units[name] not in ("s", "s/pivot")
    }


def _trace_lines(result):
    return [s.report.trace_lines() for s in result.recorder.solves]


@pytest.fixture(scope="module")
def clock():
    return SpeedClock()


@pytest.fixture(scope="module")
def cell_passes(clock):
    cells = _small_cells()
    with clock.running():
        passes = [bench.cells_pass(cells, traced) for traced in (False, True, True)]
    for p in passes:
        p.finish(clock)
    return passes


def test_traced_passes_repeat_counters_and_traces(cell_passes, clock):
    _, first, second = cell_passes
    assert _counters(first, clock) == _counters(second, clock)
    assert _trace_lines(first) == _trace_lines(second)
    assert _counters(first, clock)["adaptive.buckets.compute_representative.calls"] > 0
    assert _counters(first, clock)["exact.pricing.enumerated"] > 0


def test_tracing_changes_no_answer(cell_passes):
    plain, traced, _ = cell_passes
    assert bench.answers_of(plain) == bench.answers_of(traced)
    assert _trace_lines(plain) == _trace_lines(traced)


def test_answers_match_committed_references(cell_passes):
    plain = cell_passes[0]
    refs = bench.load_references("desk")
    ok = bench.PassResult(False, plain.cells, plain.recorder, [])
    bench.check_against(ok, {c.label: refs[c.label] for c in plain.cells})
    assert ok.failures == []


def test_perturbed_reference_is_a_failure(cell_passes):
    plain = cell_passes[0]
    refs = {c.label: dict(c.answer) for c in plain.cells}
    victim = next(k for k, v in refs.items() if v["lp"] is not None)
    refs[victim]["lp"] = str(Fraction(refs[victim]["lp"]) + 1)
    result = bench.PassResult(False, plain.cells, plain.recorder, [])
    bench.check_against(result, refs)
    assert [label for label, _ in result.failures] == [victim]


def test_self_times_account_for_each_solve(cell_passes, clock):
    for result in cell_passes[1:]:
        assert tracing.unaccounted(result.recorder, clock) == []
        assert {s.cell for s in result.recorder.solves} == {
            s.cell for s in result.recorder.spans if s.name == "driver.solve"
        }


def test_sweep_pass_pairs_rows_with_solves(tmp_path):
    spec = _small_spec(tmp_path / "out")
    clock = SpeedClock()
    with clock.running():
        plain = bench.sweep_pass([spec], False)
        traced = bench.sweep_pass([spec], True)
        interval = bench.setup_round(
            "sweep", None, [spec], [s.report for s in plain.recorder.solves]
        )
    plain.finish(clock)
    traced.finish(clock)
    replayed = clock.seconds(*interval)
    assert [c.error for c in plain.cells] == [""] * 5
    assert bench.answers_of(plain) == bench.answers_of(traced)
    bench.check_consistent(plain, "sweep")
    assert plain.failures == []
    metrics = tracing.layer_metrics(traced.recorder, clock)
    assert metrics["adaptive.buckets.merge_pass.calls"] > 0
    assert metrics["cli.run_experiment.self_s"] > 0
    assert tracing.unaccounted(traced.recorder, clock) == []
    assert 0 < replayed < sum(c.seconds for c in plain.cells)
    assert 0 < plain.setup_s < sum(c.seconds for c in plain.cells)


def test_speed_clock_adds_up():
    clock = SpeedClock()
    marks = []
    with clock.running():
        for _ in range(6):
            marks.append(time.perf_counter())
            sum(i * i for i in range(100_000))
    assert len(clock.starts) > 0
    parts = [clock.seconds(a, b) for a, b in zip(marks, marks[1:])]
    assert all(p > 0 for p in parts)
    assert sum(parts) == pytest.approx(clock.seconds(marks[0], marks[-1]), rel=1e-9)


def test_recorder_restores_the_package():
    before = (master.solve_lp, master.Rmp.solve, pricing.label_search,
              buckets.elementary_rcspp, driver.solve, cli.run_experiment)
    with tracing.Recorder(layers=True).installed():
        assert master.solve_lp is not before[0]
    after = (master.solve_lp, master.Rmp.solve, pricing.label_search,
             buckets.elementary_rcspp, driver.solve, cli.run_experiment)
    assert after == before


def test_benchmark_json_lists_the_reported_metrics():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in config["end_to_end"]] == list(
        bench.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in config["per_layer"]] == list(
        tracing.per_layer_units().items()
    )
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)
    refs = json.loads(bench.REFERENCES.read_text())
    assert {w: len(refs[w]) for w in refs} == {"desk": 148, "ladder": 8, "sweep": 25}


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
