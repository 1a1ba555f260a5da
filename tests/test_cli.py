"""End-to-end command-line tests: generate/solve/experiment through
``main(argv)``, exit codes, and the experiment CSV/JSONL contract."""

import csv
import json
from fractions import Fraction

import pytest

from nestedcg import driver, mpcvrp, synth
from nestedcg.cli import ExperimentSpec, main, run_experiment
from nestedcg.model import (
    MILLI,
    SUM,
    Block,
    Boundary,
    ModelError,
    NestedProblem,
    PathResource,
    problem_to_json,
)


def _load_instance(path):
    return mpcvrp.instance_from_json(json.loads(path.read_text()))


def _generate(tmp_path, *, delta="1", seed="11", name="inst.json"):
    path = tmp_path / name
    rc = main(
        [
            "generate", "mpcvrp",
            "--n", "4", "--t", "2", "--k", "2",
            "--delta", delta, "--seed", seed,
            "--out", str(path),
        ]
    )
    assert rc == 0
    return path


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_writes_instance(tmp_path, capsys):
    path = _generate(tmp_path)
    inst = _load_instance(path)
    assert inst.days == 2 and inst.vehicles == 2
    assert inst.derivation.delta == 1
    out = capsys.readouterr().out
    assert f"D={inst.distance_cap}" in out
    assert f"Q={inst.capacity}" in out


def test_generate_default_filename(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(
        [
            "generate", "mpcvrp",
            "--n", "4", "--t", "2", "--k", "2",
            "--delta", "0.5", "--seed", "3",
        ]
    )
    assert rc == 0
    assert (tmp_path / "mpcvrp-n4-t2-k2-d0.5-s3.json").exists()


def test_generate_propagates_model_errors(tmp_path, capsys):
    rc = main(
        [
            "generate", "mpcvrp",
            "--n", "2", "--t", "2", "--k", "3",
            "--delta", "0.5", "--seed", "1",
            "--out", str(tmp_path / "x.json"),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag, name", (("--n", "n"), ("--t", "days"), ("--k", "vehicles")))
def test_generate_rejects_a_count_below_one(tmp_path, capsys, flag, name):
    # zero days or vehicles crashed the draw; each count now fails as input
    args = {"--n": "4", "--t": "2", "--k": "2", flag: "0"}
    rc = main(["generate", "mpcvrp", *(x for kv in args.items() for x in kv),
               "--delta", "0.5", "--seed", "1", "--out", str(tmp_path / "x.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be a positive integer, not 0")
    assert "Traceback" not in err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("delta", ("nan", "inf"))
def test_generate_rejects_a_delta_that_is_not_finite(tmp_path, capsys, delta):
    rc = main(
        [
            "generate", "mpcvrp",
            "--n", "4", "--t", "2", "--k", "2",
            "--delta", delta, "--seed", "1",
            "--out", str(tmp_path / "x.json"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "delta" in err
    assert not (tmp_path / "x.json").exists()


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_routing_instance(tmp_path, capsys):
    path = _generate(tmp_path)  # delta=1 keeps the LP feasible
    rc = main(["solve", "--instance", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "status:     optimal" in out
    assert "lp value:" in out
    assert "iterations:" in out


def test_solve_report_matches_direct_call(tmp_path, capsys):
    path = _generate(tmp_path)
    report_path = tmp_path / "report.json"
    rc = main(
        ["solve", "--instance", str(path), "--out", str(report_path)]
    )
    assert rc == 0
    data = json.loads(report_path.read_text())

    problem = mpcvrp.build_nested(_load_instance(path))
    direct = driver.solve(problem, driver.DriverConfig())
    assert data["status"] == direct.status
    assert Fraction(data["lp_value_exact"]) == direct.lp_value
    assert data["iterations"] == direct.iterations


def test_solve_nested_problem_file(tmp_path, capsys):
    problem = synth.random_tiny_instance(5)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(problem_to_json(problem)))
    rc = main(["solve", "--instance", str(path), "--pricer", "enumerative"])
    assert rc == 0
    assert "status:" in capsys.readouterr().out


def test_solve_trace_prints_jsonl(tmp_path, capsys):
    path = _generate(tmp_path)
    rc = main(["solve", "--instance", str(path), "--trace"])
    assert rc == 0
    lines = [
        l for l in capsys.readouterr().out.splitlines() if l.startswith("{")
    ]
    assert lines
    for line in lines:
        rec = json.loads(line)
        assert "iteration" in rec


def test_solve_dive_prints_summary(tmp_path, capsys):
    path = _generate(tmp_path)
    rc = main(["solve", "--instance", str(path), "--dive"])
    assert rc == 0
    assert "dive:" in capsys.readouterr().out


@pytest.mark.parametrize("doc, field", [
    ({"kind": "mpcvrp", "days": 2}, "vehicles"),
    ({"kind": "mpcvrp", "days": 2, "vehicles": 2, "capacity": 10.5}, "capacity"),
])
def test_solve_malformed_routing_instance(tmp_path, capsys, doc, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc = main(["solve", "--instance", str(path)])
    assert rc == 1
    assert f"error: {field}: " in capsys.readouterr().err


def test_solve_missing_file(tmp_path, capsys):
    rc = main(["solve", "--instance", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_solve_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["solve", "--instance", str(path)]) == 1


def test_solve_malformed_problem_file(tmp_path, capsys):
    data = problem_to_json(synth.random_tiny_instance(1))
    data["source_arcs"].append([999, 1, []])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["solve", "--instance", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "element 999" in err


def test_solve_rejects_unusable_bucket_widths(tmp_path, capsys):
    # width 0 tiles nothing; width 1 would need 60001 buckets per block
    entry = Boundary(cost=MILLI, path_deltas=((1,),))
    problem = NestedProblem(
        [Block(elements=(1,), entry={1: entry})],
        path_resources=[PathResource(dim=1, agg=SUM, a=(1,), b=10**6, box=((0, 60_000),))],
    )
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(problem_to_json(problem)))
    for width, why in (("0", "must be positive"), ("1", "60001 buckets")):
        assert main(["solve", "--instance", str(path), "--width", width]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bucket width {width} over box ((0, 60000),)")
        assert why in err


def test_solve_unrecognized_shape(tmp_path, capsys):
    path = tmp_path / "odd.json"
    for document, message in (({"foo": 1}, "neither"), ([1, 2], "expected a JSON object")):
        path.write_text(json.dumps(document))
        rc = main(["solve", "--instance", str(path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")


def test_unknown_pricer_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit):
        main(["solve", "--instance", "x.json", "--pricer", "cplex"])


# ---------------------------------------------------------------------------
# experiment spec
# ---------------------------------------------------------------------------


def test_spec_rejects_unknown_keys():
    with pytest.raises(ModelError, match="unknown experiment keys"):
        ExperimentSpec.from_json(
            {"name": "x", "instance": {}, "widhts": [100]}
        )


def test_spec_rejects_empty_grid():
    with pytest.raises(ModelError, match="nonempty"):
        ExperimentSpec(name="x", instance={}, widths=())


def test_spec_rejects_bad_repetitions():
    with pytest.raises(ModelError, match="repetitions"):
        ExperimentSpec(name="x", instance={}, repetitions=0)


def test_spec_rejects_unknown_pricer():
    with pytest.raises(ModelError, match="unknown pricer"):
        ExperimentSpec(name="x", instance={}, pricer="cplex")


def test_spec_enumerative_ignores_grid():
    spec = ExperimentSpec(
        name="x", instance={}, pricer="enumerative", widths=()
    )
    assert spec.pricer == "enumerative"


# ---------------------------------------------------------------------------
# experiment runs
# ---------------------------------------------------------------------------


def _small_spec(tmp_path, **over):
    base = dict(
        name="smoke",
        instance={"generator": "tiny", "params": {"seed": 5}},
        pricer="both",
        widths=(100,),
        reuse=(False, True),
        midway=(False,),
        merge=(False,),
        repetitions=1,
        out_dir=str(tmp_path / "out"),
    )
    base.update(over)
    return ExperimentSpec(**base)


def test_experiment_grid_rows_and_files(tmp_path):
    spec = _small_spec(tmp_path)
    rows, failures = run_experiment(spec)
    assert failures == 0
    assert len(rows) == 3  # 1 width x 2 reuse x 1 x 1, plus enumerative

    labels = [r["config"] for r in rows]
    assert labels == [
        "adaptive-w100-reuse0-mid0-merge0",
        "adaptive-w100-reuse1-mid0-merge0",
        "enumerative",
    ]
    # every cell solves the same LP: identical status and value
    assert len({r["status"] for r in rows}) == 1
    assert len({r["lp_value"] for r in rows}) == 1
    assert rows[0]["status"] == "optimal"

    out = tmp_path / "out"
    with (out / "results.csv").open() as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == [
            "config", "pricer", "width", "reuse", "midway", "merge",
            "repetition", "status", "lp_value", "time_s", "iterations",
            "columns", "Fill", "Pess.", "Opt.", "Merge", "error",
        ]
        csv_rows = list(reader)
    assert len(csv_rows) == 3

    trace_lines = (out / "traces.jsonl").read_text().splitlines()
    assert len(trace_lines) == 3
    for line, row in zip(trace_lines, rows):
        rec = json.loads(line)
        assert rec["config"] == row["config"]
        assert rec["traces"]


def test_experiment_enumerative_row_blanks_grid_columns(tmp_path):
    rows, _ = run_experiment(_small_spec(tmp_path))
    enum_row = rows[-1]
    assert enum_row["pricer"] == "enumerative"
    assert enum_row["width"] == ""
    assert enum_row["reuse"] == ""
    assert enum_row["midway"] == ""
    assert enum_row["merge"] == ""
    assert enum_row["Fill"] == ""


def test_experiment_adaptive_phase_shares(tmp_path):
    rows, _ = run_experiment(_small_spec(tmp_path, pricer="adaptive"))
    for row in rows:
        shares = [float(row[c]) for c in ("Fill", "Pess.", "Opt.", "Merge")]
        assert all(s >= 0 for s in shares)
        assert sum(shares) == pytest.approx(1.0, abs=0.01)


def test_experiment_repetitions_multiply_rows(tmp_path):
    spec = _small_spec(tmp_path, pricer="adaptive", repetitions=2)
    rows, failures = run_experiment(spec)
    assert failures == 0
    assert len(rows) == 4
    assert [r["repetition"] for r in rows] == [0, 0, 1, 1]


def test_experiment_isolates_cell_failures(tmp_path):
    spec = _small_spec(
        tmp_path,
        pricer="adaptive",
        instance={
            "generator": "mpcvrp",
            "params": {"n": 2, "days": 2, "vehicles": 3, "delta": 0.5, "seed": 1},
        },
    )
    rows, failures = run_experiment(spec)
    assert failures == len(rows) == 2
    for row in rows:
        assert row["status"] == "error"
        assert "ModelError" in row["error"]
        assert row["lp_value"] == ""
    # results.csv still written, traces empty
    out = tmp_path / "out"
    assert (out / "results.csv").exists()
    assert (out / "traces.jsonl").read_text() == ""


@pytest.mark.parametrize("generator, params, name", [
    ("span", {"seed": 1, "n_scenarios": 0}, "n_scenarios"),
    ("span", {"seed": 1, "tasks_range": [0, 0]}, "tasks_range"),
    ("tiny", {"seed": 1, "max_subpaths_per_block": 0}, "max_subpaths_per_block"),
])
def test_experiment_rows_name_a_bad_generator_parameter(tmp_path, generator, params, name):
    rows, failures = run_experiment(_small_spec(
        tmp_path, pricer="adaptive", instance={"generator": generator, "params": params}))
    assert failures == len(rows) == 2
    for row in rows:
        assert row["error"].startswith(f"ModelError: {name} must be"), row["error"]


def test_experiment_unknown_source_fails_cells(tmp_path):
    rows, failures = run_experiment(
        _small_spec(tmp_path, pricer="adaptive", instance={"generator": "sat"})
    )
    assert failures == len(rows) == 2


def test_experiment_file_source(tmp_path):
    problem = synth.random_tiny_instance(7)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(problem_to_json(problem)))
    spec = _small_spec(
        tmp_path,
        pricer="enumerative",
        instance={"file": str(path)},
    )
    rows, failures = run_experiment(spec)
    assert failures == 0
    assert rows[0]["status"] in ("optimal", "infeasible")


def test_experiment_command_exit_codes(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "name": "ok",
                "instance": {"generator": "tiny", "params": {"seed": 5}},
                "pricer": "adaptive",
                "widths": [100],
                "reuse": [False],
                "midway": [False],
                "merge": [False],
                "out_dir": str(tmp_path / "ok-out"),
            }
        )
    )
    assert main(["experiment", "--spec", str(spec_path)]) == 0
    assert "1 cells, 0 failed" in capsys.readouterr().out

    bad_path = tmp_path / "bad.json"
    bad_path.write_text(
        json.dumps(
            {
                "name": "bad",
                "instance": {"generator": "sat"},
                "pricer": "adaptive",
                "widths": [100],
                "reuse": [False],
                "midway": [False],
                "merge": [False],
                "out_dir": str(tmp_path / "bad-out"),
            }
        )
    )
    assert main(["experiment", "--spec", str(bad_path)]) == 2


def test_experiment_spec_with_unknown_key_exits_1(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"name": "x", "instance": {}, "bogus": 1}))
    assert main(["experiment", "--spec", str(spec_path)]) == 1
    assert "unknown experiment keys" in capsys.readouterr().err


@pytest.mark.parametrize("spec, problem", [
    ({"name": "x", "instance": {"generator": "tiny"}, "widths": 5}, "'widths'"),
    ({"name": "x"}, "'instance'"),
    ({"name": "x", "instance": {"generator": "tiny"}, "repetitions": "3"}, "repetitions"),
    ([1, 2], "expected a JSON object"),
    ({"name": "x", "instance": {"generator": "tiny"}, "out_dir": 5}, "'out_dir'"),
    ({"name": ["x"], "instance": {"generator": "tiny"}}, "'name'"),
    ({"name": "x", "instance": 5}, "'instance'"),
    ({"name": "x", "instance": {"generator": "tiny"}, "dive": "yes"}, "'dive'"),
    ({"name": "x", "instance": {"generator": "tiny"}, "reuse": ["no"]}, "'reuse'"),
    ({"name": "x", "instance": {"generator": "tiny"}, "midway": [0]}, "'midway'"),
    ({"name": "x", "instance": {"generator": "tiny"}, "merge": "no"}, "'merge'"),
    ({"name": "x", "instance": {"generator": "tiny"}, "widths": [0]}, "'widths'"),
    ({"name": "x", "instance": {"generator": "tiny"}, "widths": ["a"]}, "'widths'"),
    ({"name": "x", "instance": {"generator": "tiny"}, "widths": [[4, 0]]}, "'widths'"),
    ({"name": "x", "instance": {"generator": "tiny"}, "widths": [[]]}, "'widths'"),
    ({"name": "x", "instance": {"generator": "tiny", "params": "s"}}, "'instance.params'"),
])
def test_malformed_experiment_spec_exits_1_without_a_traceback(tmp_path, capsys, spec, problem):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["experiment", "--spec", str(spec_path)]) == 1
    err = capsys.readouterr().err
    # one line that names the problem, and nothing else
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert problem in err, err


@pytest.mark.parametrize("bad", [
    {"widths": [0]},
    {"widths": ["a"]},
    {"instance": {"generator": "tiny", "params": "s"}},
])
def test_bad_widths_or_params_fail_before_any_cell_runs(tmp_path, capsys, bad):
    out_dir = tmp_path / "out"
    spec = {"name": "x", "instance": {"generator": "tiny", "params": {"seed": 5}},
            "pricer": "adaptive", "widths": [100], "reuse": [False],
            "midway": [False], "merge": [False], "out_dir": str(out_dir), **bad}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["experiment", "--spec", str(spec_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: "), captured.err
    assert "cells" not in captured.out
    assert not out_dir.exists()


def test_spec_takes_per_coordinate_widths():
    spec = ExperimentSpec.from_json(
        {"name": "x", "instance": {"generator": "tiny"}, "widths": [5, [3, 4]]})
    assert spec.widths == (5, [3, 4])
