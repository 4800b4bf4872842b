"""rockrelax benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {builtins,reweight,certificates}
                             --seed N --seconds S --trace {0,1}

Run from anywhere; rockrelax is imported from ``src/`` next to this
directory, as the test suite does with ``PYTHONPATH=src``. The run is
serial: ``ROCKRELAX_THREADS`` is unset and numeric libraries get one thread.

With ``--trace 0`` the last line carries the end-to-end metrics (setup_s,
solve_s, certify_s, peak_rss_mb), the times scaled to a reference host
speed (calibrate.py); with ``--trace 1`` the per-layer counts and raw self
times, plus the tracing overhead. See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("builtins", "reweight", "certificates")
#: seconds one round takes on a 2-core reference machine; a run does
#: max(1, round(seconds / nominal)) rounds, so its amount of work depends
#: on --seconds alone and never on the clock
NOMINAL_ROUND_S = {"builtins": 34.0, "reweight": 2.5, "certificates": 3.0}
#: fresh-interpreter set-ups per run (after one warm-up); the median is reported
SETUP_PROBES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def serial_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ROCKRELAX_THREADS"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(setup: dict, work: Path) -> float:
    """Median wall time of fresh interpreters building the instances, each
    scaled by the host-speed readings its probe took while it ran."""
    path = work / "setup.json"
    path.write_text(json.dumps(setup))
    cmd = [sys.executable, str(HERE / "probe.py"), str(path)]
    raws, scaled = [], []
    for _ in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=serial_env(), cwd=ROOT, timeout=120,
                              stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with status {proc.returncode}")
        ticks = json.loads(proc.stdout.splitlines()[-1])
        raws.append(wall - ticks["stolen"])
        scaled.append(raws[-1] * calibrate.REFERENCE_S
                      / statistics.mean(ticks["readings"]))
    print(f"setup: raw {statistics.median(raws[1:]):.3f} s, "
          f"scaled {statistics.median(scaled[1:]):.3f} s", flush=True)
    return statistics.median(scaled[1:])


def run_rounds(inst, round_fn, rr, seed: int, rounds: int, work: Path):
    """All rounds under one instrument, with its ticker running: the totals
    and the wall time, less the readings' own time, scaled to the reference
    speed. The instrument keeps the group times; each round's raw ones are
    logged."""
    from workloads import Round
    total = Round()
    start = time.perf_counter()
    inst.ticker.start()
    try:
        with inst.installed():
            for rnd in range(rounds):
                before = dict(inst.group_s)
                round_start = time.perf_counter()
                res = round_fn(rr, inst, seed, rnd, work)
                print(f"round {rnd}: wall {time.perf_counter() - round_start:.3f} s, "
                      + ", ".join(f"{g} {inst.group_s[g] - before[g]:.3f} s"
                                  for g in before), flush=True)
                total.attempted += res.attempted
                total.failed += res.failed
                total.errors += res.errors
    finally:
        inst.ticker.stop()
    wall = time.perf_counter() - start - inst.ticker.stolen
    return total, wall * inst.ticker.factor()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rockrelax" / "__init__.py").is_file():
        print(f"rockrelax sources not found under {SRC}", file=sys.stderr)
        return 2
    env = serial_env()
    os.environ.pop("ROCKRELAX_THREADS", None)
    os.environ.update(env)
    sys.path.insert(0, str(SRC))

    import rockrelax as rr
    import rockrelax.cli  # noqa: F401  (not imported by the package itself)
    from instrument import GROUPS, Instrument
    from workloads import WORKLOADS

    setup_fn, round_fn = WORKLOADS[args.workload]
    rounds = max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    RESULTS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    try:
        if args.trace:
            # the same rounds untraced, then traced: the difference in
            # scaled wall time is the tracing overhead
            _, plain_wall = run_rounds(Instrument(trace=False), round_fn, rr,
                                       args.seed, rounds, work)
            inst = Instrument(trace=True)
            total, traced_wall = run_rounds(inst, round_fn, rr, args.seed,
                                            rounds, work)
            metrics = inst.layer_metrics()
            metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall,
                                           "unit": "s"}
        else:
            setup_s = measure_setup(setup_fn(args.seed, rounds), work)
            inst = Instrument(trace=False)
            total, _ = run_rounds(inst, round_fn, rr, args.seed, rounds, work)
            raw = {g: inst.group_s[g] / rounds for g in GROUPS}
            scaled = {g: t * inst.ticker.factor(g) for g, t in raw.items()}
            print("per round: " + ", ".join(
                f"{g} raw {raw[g]:.3f} s, scaled {scaled[g]:.3f} s "
                f"({len(inst.ticker.by_group[g])} readings)" for g in GROUPS),
                flush=True)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "solve_s": {"value": scaled["solve"], "unit": "s"},
                "certify_s": {"value": scaled["certify"], "unit": "s"},
                "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for err in total.errors:
        print(f"check failed: {err}", file=sys.stderr)
    result = {"correct": not total.errors, "attempted": total.attempted,
              "failed": total.failed, "metrics": metrics}
    line = json.dumps(result)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        line + "\n")
    print(f"{args.workload}: {rounds} round(s), {total.attempted} operations, "
          f"{total.failed} failed, {len(total.errors)} check errors")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
