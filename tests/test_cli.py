"""Experiment runner: plans, report formats, exit codes, determinism."""
import json

import numpy as np
import pytest

from rockrelax.cli import (CSV_COLUMNS, ExperimentPlan, PlanError, load_plan,
                           main)


def write_plan(tmp_path, doc, name="plan.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header == list(CSV_COLUMNS)
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def test_load_plan_builtin():
    plan = load_plan("builtin:ex21", "/tmp/out", False, 0, ["csv"])
    assert plan.instance == "ex21"
    assert plan.nus == (10, 100, 1000)
    assert plan.resolution == 1e-3


def test_load_plan_rejects_unknowns(tmp_path):
    with pytest.raises(PlanError):
        load_plan("builtin:ex99", "/tmp/out", False, 0, ["csv"])
    with pytest.raises(PlanError):
        load_plan(str(tmp_path / "missing.json"), "/tmp/out", False, 0, ["csv"])
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(PlanError):
        load_plan(str(bad), "/tmp/out", False, 0, ["csv"])


def test_plan_validation():
    with pytest.raises(PlanError):
        ExperimentPlan(name="x", instance="ex21", nus=(), oracle=False, seed=0,
                       formats=("csv",), out_dir=None, resolution=1e-2)
    with pytest.raises(PlanError):
        ExperimentPlan(name="x", instance="ex21", nus=(100, 10), oracle=False,
                       seed=0, formats=("csv",), out_dir=None, resolution=1e-2)
    with pytest.raises(PlanError):
        ExperimentPlan(name="x", instance="ex21", nus=(10,), oracle=False,
                       seed=0, formats=("yaml",), out_dir=None, resolution=1e-2)


def test_empty_scale_list_exits_one_without_files(tmp_path, capsys):
    plan = write_plan(tmp_path, {"instance": "ex21", "nus": []})
    out = tmp_path / "out"
    code = main(["run", "--plan", plan, "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert "configuration error" in capsys.readouterr().err


def test_run_builtin_reports(tmp_path):
    plan = write_plan(tmp_path, {"instance": "ex21", "name": "sweep",
                                 "nus": [10, 100], "resolution": 1e-2})
    out = tmp_path / "out"
    code = main(["run", "--plan", plan, "--out", str(out),
                 "--format", "csv,json,plotdata"])
    assert code == 0
    rows = read_csv(out / "sweep.csv")
    assert [r["formulation"] for r in rows] == ["naive", "rockafellian"] * 2
    # naive solves stay at x = 0 while the relaxation moves toward x = 1
    for r in rows:
        if r["formulation"] == "naive":
            assert float(r["x"]) == pytest.approx(0.0, abs=1e-12)
        else:
            assert float(r["x"]) >= 0.9

    doc = json.loads((out / "sweep.json").read_text())
    assert doc["plan"]["instance"] == "ex21"
    assert doc["generator"] == "numpy-PCG64"
    assert len(doc["rows"]) == 4
    # json round-trips the csv numbers bit-exactly
    for r_doc, r_csv in zip(doc["rows"], rows):
        assert r_doc["objective"] == float(r_csv["objective"])
        assert r_doc["u_norm"] == float(r_csv["u_norm"])

    assert (out / "sweep.naive_objective.dat").is_file()
    assert (out / "sweep.rockafellian_objective.dat").is_file()
    assert (out / "sweep.eta_nu.dat").is_file()
    body = (out / "sweep.naive_objective.dat").read_text().splitlines()
    assert len(body) == 2 and body[0].split()[0] == "10"


def test_run_with_oracle_gap_column(tmp_path):
    plan = write_plan(tmp_path, {"instance": "ex21", "name": "gap",
                                 "nus": [10], "resolution": 1e-2})
    out = tmp_path / "out"
    code = main(["run", "--plan", plan, "--out", str(out), "--oracle"])
    assert code == 0
    rows = read_csv(out / "gap.csv")
    relaxed = [r for r in rows if r["formulation"] == "rockafellian"][0]
    assert abs(float(relaxed["oracle_gap"])) <= 1e-2


def test_unbounded_instance_exits_two(tmp_path):
    cfg = {
        "name": "drop",
        "n": 1,
        "s": 2,
        "scenarios": [{"tag": "linear", "params": {"c": [-2e15]}},
                      {"tag": "linear", "params": {"c": [-2e15]}}],
        "p": [0.5, 0.5],
        "box": [[0.0, 1.0]],
    }
    cfg_path = tmp_path / "drop.json"
    cfg_path.write_text(json.dumps(cfg))
    plan = write_plan(tmp_path, {"instance": "drop.json", "nus": [10]})
    out = tmp_path / "out"
    code = main(["run", "--plan", plan, "--out", str(out)])
    assert code == 2
    assert (out / "drop.csv").is_file()  # partial results still flushed


def test_config_instance_runs(tmp_path):
    cfg = {
        "name": "twolin",
        "n": 1,
        "s": 2,
        "scenarios": [{"tag": "linear", "params": {"c": [1.0]}},
                      {"tag": "linear", "params": {"c": [-1.0]}}],
        "p": [0.5, 0.5],
        "box": [[0.0, 1.0]],
        "perturbation": {"kind": "empirical"},
    }
    cfg_path = tmp_path / "twolin.json"
    cfg_path.write_text(json.dumps(cfg))
    plan = write_plan(tmp_path, {"instance": "twolin.json", "nus": [50],
                                 "resolution": 0.1})
    out = tmp_path / "out"
    code = main(["run", "--plan", plan, "--out", str(out), "--seed", "3"])
    assert code == 0
    rows = read_csv(out / "twolin.csv")
    assert len(rows) == 2


def test_bad_config_instance_exits_one(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"name": "bad"}))
    plan = write_plan(tmp_path, {"instance": "bad.json", "nus": [10]})
    code = main(["run", "--plan", plan, "--out", str(tmp_path / "out")])
    assert code == 1
    assert "configuration error" in capsys.readouterr().err


def test_threaded_run_matches_serial(tmp_path, monkeypatch):
    plan = write_plan(tmp_path, {"instance": "ex21", "name": "par",
                                 "nus": [10, 100], "resolution": 1e-2})
    out1 = tmp_path / "serial"
    out2 = tmp_path / "threads"
    assert main(["run", "--plan", plan, "--out", str(out1),
                 "--format", "csv"]) == 0
    monkeypatch.setenv("ROCKRELAX_THREADS", "2")
    assert main(["run", "--plan", plan, "--out", str(out2),
                 "--format", "csv"]) == 0

    def strip_wall(path):
        rows = read_csv(path)
        return [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]

    assert strip_wall(out1 / "par.csv") == strip_wall(out2 / "par.csv")


def test_explicit_weights_missing_a_scale_fail_before_any_solve(tmp_path, capsys):
    config = {"name": "tiny", "n": 1, "s": 1,
              "scenarios": [{"tag": "linear", "params": {"c": [1.0]}}],
              "p": [1.0], "box": [[0.0, 1.0]],
              "perturbation": {"kind": "explicit",
                               "params": {"weights": {"10": [1.0]}}}}
    (tmp_path / "tiny.json").write_text(json.dumps(config))
    plan = write_plan(tmp_path, {"instance": "tiny.json", "nus": [10, 100]})
    out = tmp_path / "out"
    assert main(["run", "--plan", plan, "--out", str(out)]) == 1
    assert not out.exists()
    assert "nu = 100" in capsys.readouterr().err
