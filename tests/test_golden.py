"""Golden CLI reports: `rockrelax run --oracle --format csv,json,plotdata`
on each built-in and on a config plan writes the recorded files, byte for
byte outside the `wall_ms` timings.

A change that means to move a report regenerates the records with
`PYTHONPATH=src python tests/test_golden.py` and names each moved field.
"""
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from rockrelax.cli import main as cli_main

GOLDEN = Path(__file__).resolve().parent / "golden"

#: the config plan of test_cli.test_config_instance_runs
TWOLIN_CONFIG = {
    "name": "twolin",
    "n": 1,
    "s": 2,
    "scenarios": [{"tag": "linear", "params": {"c": [1.0]}},
                  {"tag": "linear", "params": {"c": [-1.0]}}],
    "p": [0.5, 0.5],
    "box": [[0.0, 1.0]],
    "perturbation": {"kind": "empirical"},
}
TWOLIN_PLAN = {"instance": "twolin.json", "nus": [50], "resolution": 0.1}

PLANS = ("ex21", "ex22", "ex23", "twolin")


def strip_wall(path: Path) -> bytes:
    """The report without its timings: the CSV's wall_ms column, the JSON
    rows' wall_ms lines; other files as they are."""
    text = path.read_text()
    if path.suffix == ".csv":
        lines = text.splitlines()
        idx = lines[0].split(",").index("wall_ms")
        text = "".join(",".join(c for i, c in enumerate(ln.split(",")) if i != idx)
                       + "\n" for ln in lines)
    elif path.suffix == ".json":
        text = "".join(ln for ln in text.splitlines(keepends=True)
                       if not ln.lstrip().startswith('"wall_ms":'))
    return text.encode()


def run_plan(name: str, work: Path) -> dict:
    """Run one plan into work/out; {file name: stripped bytes}."""
    if name == "twolin":
        (work / "twolin.json").write_text(json.dumps(TWOLIN_CONFIG))
        (work / "plan.json").write_text(json.dumps(TWOLIN_PLAN))
        plan, seed = str(work / "plan.json"), "3"
    else:
        plan, seed = f"builtin:{name}", "0"
    out = work / "out"
    code = cli_main(["run", "--plan", plan, "--oracle", "--seed", seed,
                     "--format", "csv,json,plotdata", "--out", str(out)])
    assert code == 0
    return {path.name: strip_wall(path) for path in sorted(out.iterdir())}


@pytest.mark.parametrize("name", PLANS)
def test_cli_report_matches_golden(name, tmp_path):
    got = run_plan(name, tmp_path)
    want = {path.name: path.read_bytes()
            for path in sorted((GOLDEN / name).iterdir())}
    assert sorted(got) == sorted(want)
    for file_name, blob in want.items():
        assert got[file_name] == blob, file_name


def regenerate() -> None:
    for name in PLANS:
        target = GOLDEN / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        with tempfile.TemporaryDirectory() as work:
            for file_name, blob in run_plan(name, Path(work)).items():
                (target / file_name).write_bytes(blob)


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
