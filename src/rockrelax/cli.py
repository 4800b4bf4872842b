"""Experiment runner: sweeps perturbation scales, solves the naive and
relaxed formulations, and writes CSV/JSON/plotdata reports."""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .analysis import (RateCertificate, eta_bound, optimality_residual,
                       rate_constants, theta_schedule)
from .instances import ExampleBundle, BUILTIN_NAMES, build_example
from .rockafellian import ExactIndicator, QuadraticPenalty
from .simplex import GENERATOR_ID
from .solver import (GridMethod, SolveConfig, brute_force_oracle, solve_joint)

CSV_COLUMNS = ("nu", "formulation", "x", "u_norm", "objective", "eta_nu",
               "residual", "oracle_gap", "wall_ms", "seed")

#: a run is flagged as a certificate failure when the oracle-certified gap
#: of the relaxed formulation exceeds this
GAP_TOLERANCE = 1e-2

DEFAULT_NUS = {"ex21": [10, 100, 1000], "ex22": [1000], "ex23": [100]}
DEFAULT_RESOLUTION = {"ex21": 1e-3, "ex22": 1e-2, "ex23": 1e-2}


class PlanError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentPlan:
    name: str
    instance: str  # builtin example name or instance-config path
    nus: Tuple[int, ...]
    oracle: bool
    seed: int
    formats: Tuple[str, ...]
    out_dir: Path
    resolution: float
    config_path: Optional[Path] = None

    def __post_init__(self):
        if not self.nus:
            raise PlanError("the scale list must be nonempty")
        if any(b <= a for a, b in zip(self.nus, self.nus[1:])):
            raise PlanError("the scale list must be strictly ascending")
        bad = [f for f in self.formats if f not in ("csv", "json", "plotdata")]
        if bad:
            raise PlanError(f"unknown output formats {bad}")


def load_plan(ref: str, out_dir: str, oracle: bool, seed: int,
              formats: Sequence[str]) -> ExperimentPlan:
    if ref.startswith("builtin:"):
        name = ref.split(":", 1)[1]
        if name not in BUILTIN_NAMES:
            raise PlanError(f"unknown builtin {name!r}")
        doc: Dict[str, Any] = {"instance": name}
    else:
        path = Path(ref)
        if not path.is_file():
            raise PlanError(f"plan file {ref} not found")
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise PlanError(f"plan file is not valid JSON: {exc}") from None
        if "instance" not in doc:
            raise PlanError("plan must name an instance")
        if doc["instance"] not in BUILTIN_NAMES:
            cfg = (path.parent / doc["instance"]).resolve()
            if not cfg.is_file():
                raise PlanError(f"instance config {doc['instance']} not found")
            doc["config_path"] = cfg
    inst = doc["instance"]
    config_path = doc.get("config_path")
    nus = [int(v) for v in doc.get("nus", DEFAULT_NUS.get(inst, [10, 100]))]
    resolution = float(doc.get("resolution", DEFAULT_RESOLUTION.get(inst, 1e-2)))
    return ExperimentPlan(name=doc.get("name", Path(inst).stem), instance=inst,
                          nus=tuple(nus), oracle=oracle, seed=seed,
                          formats=tuple(formats), out_dir=Path(out_dir),
                          resolution=resolution, config_path=config_path)


@dataclass
class RowResult:
    nu: int
    formulation: str
    x: np.ndarray
    u_norm: float
    objective: float
    eta_nu: float
    residual: float
    oracle_gap: float
    wall_ms: float
    seed: int
    failed: bool = False


def _box_normal_cone_distance(box):
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])

    def dist(x: np.ndarray, w: np.ndarray) -> float:
        r = np.array(w, dtype=float)
        at_lo = np.abs(x - lo) <= 1e-9
        at_hi = np.abs(x - hi) <= 1e-9
        r[at_lo] = np.maximum(r[at_lo], 0.0)
        r[at_hi & ~at_lo] = np.minimum(r[at_hi & ~at_lo], 0.0)
        return float(np.linalg.norm(r))

    return dist


def _rate_certificate(bundle: ExampleBundle) -> Optional[RateCertificate]:
    if not isinstance(bundle.spec, QuadraticPenalty):
        return None
    try:
        return rate_constants(bundle.actual, rho=1.0, epsilon=0.0, y_sup=0.0,
                              resolution=1e-2)
    except ValueError:
        return None


def _bundle_for(plan: ExperimentPlan, nu: int) -> ExampleBundle:
    if plan.config_path is None:
        return build_example(plan.instance, nu)
    from .instances import (ConfigError, build_from_config, instantiate,
                            perturbed_weights)
    try:
        defn = build_from_config(json.loads(plan.config_path.read_text()))
        p_nu = perturbed_weights(defn, nu, seed=plan.seed)
    except (ConfigError, json.JSONDecodeError, KeyError) as exc:
        raise PlanError(f"instance config rejected: {exc}") from None
    actual = instantiate(defn)
    perturbed = instantiate(defn, p_nu)
    spec = QuadraticPenalty(p_nu=p_nu, theta_nu=theta_schedule(p_nu, defn.p))
    return ExampleBundle(name=defn.name, nu=nu, actual=actual,
                         perturbed=perturbed, spec=spec, box=defn.box)


def _solve_nu(plan: ExperimentPlan, bundle: ExampleBundle) -> List[RowResult]:
    nu = bundle.nu
    method = GridMethod(box=bundle.box, resolution=plan.resolution)
    config = SolveConfig(x_method=method, v_box=bundle.v_box,
                         v_resolution=bundle.v_resolution)
    cert = _rate_certificate(bundle)
    rows: List[RowResult] = []

    start = time.perf_counter()
    naive = solve_joint(bundle.perturbed, ExactIndicator(), config)
    naive_ms = (time.perf_counter() - start) * 1000.0
    rows.append(RowResult(nu=nu, formulation="naive", x=naive.x_final,
                          u_norm=0.0, objective=naive.plain_objective,
                          eta_nu=math.nan, residual=math.nan,
                          oracle_gap=math.nan, wall_ms=naive_ms,
                          seed=plan.seed))

    start = time.perf_counter()
    relaxed = solve_joint(bundle.perturbed, bundle.spec, config)
    relaxed_ms = (time.perf_counter() - start) * 1000.0
    eta = math.nan
    residual = math.nan
    if cert is not None and isinstance(bundle.spec, QuadraticPenalty):
        eta = eta_bound(cert, bundle.spec.p_nu, bundle.actual.p,
                        bundle.spec.theta_nu)
        try:
            rep = optimality_residual(
                bundle.perturbed, bundle.spec, relaxed.u_final,
                relaxed.x_final,
                f0_normal_cone_dist=_box_normal_cone_distance(bundle.box))
            residual = rep.total
        except ValueError:
            residual = math.nan
    gap = math.nan
    failed = bool(relaxed.unbounded)
    if plan.oracle:
        oracle = brute_force_oracle(
            bundle.perturbed, bundle.spec, u_resolution=1e-2,
            x_box=bundle.box, x_resolution=plan.resolution,
            v_box=bundle.v_box, v_resolution=bundle.v_resolution)
        gap = relaxed.value - oracle.value
        if not gap <= GAP_TOLERANCE:
            failed = True
    rows.append(RowResult(nu=nu, formulation="rockafellian", x=relaxed.x_final,
                          u_norm=float(np.linalg.norm(relaxed.u_final)),
                          objective=relaxed.plain_objective, eta_nu=eta,
                          residual=residual, oracle_gap=gap,
                          wall_ms=relaxed_ms, seed=plan.seed, failed=failed))
    return rows


def _fmt(v: float) -> str:
    return "%.17g" % float(v)


def _csv_lines(rows: Sequence[RowResult]) -> List[str]:
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join([
            str(r.nu), r.formulation,
            ";".join(_fmt(c) for c in np.atleast_1d(r.x)),
            _fmt(r.u_norm), _fmt(r.objective), _fmt(r.eta_nu),
            _fmt(r.residual), _fmt(r.oracle_gap), _fmt(r.wall_ms),
            str(r.seed)]))
    return lines


def emit_report(plan: ExperimentPlan, rows: Sequence[RowResult]) -> List[Path]:
    """Write the requested report files; returns the paths written."""
    if not rows:
        raise PlanError("no results to report")
    out = plan.out_dir
    out.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    if "csv" in plan.formats:
        path = out / f"{plan.name}.csv"
        path.write_bytes(("\n".join(_csv_lines(rows)) + "\n").encode())
        written.append(path)
    if "json" in plan.formats:
        path = out / f"{plan.name}.json"
        doc = {
            "plan": {"name": plan.name, "instance": plan.instance,
                     "nus": list(plan.nus), "oracle": plan.oracle,
                     "seed": plan.seed, "resolution": plan.resolution},
            "generator": GENERATOR_ID,
            "rows": [{
                "nu": r.nu, "formulation": r.formulation,
                "x": [float(c) for c in np.atleast_1d(r.x)],
                "u_norm": r.u_norm, "objective": r.objective,
                "eta_nu": None if math.isnan(r.eta_nu) else r.eta_nu,
                "residual": None if math.isnan(r.residual) else r.residual,
                "oracle_gap": None if math.isnan(r.oracle_gap) else r.oracle_gap,
                "wall_ms": r.wall_ms, "seed": r.seed,
            } for r in rows],
        }
        path.write_text(json.dumps(doc, indent=2) + "\n")
        written.append(path)
    if "plotdata" in plan.formats:
        series: Dict[str, List[Tuple[int, float]]] = {}
        for r in rows:
            series.setdefault(f"{r.formulation}_objective", []).append(
                (r.nu, r.objective))
            if r.formulation == "rockafellian" and not math.isnan(r.eta_nu):
                series.setdefault("eta_nu", []).append((r.nu, r.eta_nu))
        for name, pairs in series.items():
            path = out / f"{plan.name}.{name}.dat"
            body = "".join(f"{nu} {_fmt(v)}\n" for nu, v in pairs)
            path.write_bytes(body.encode())
            written.append(path)
    return written


def run(plan: ExperimentPlan) -> int:
    """Execute the plan; 0 on success, 2 when a certified check failed."""
    # every scale's instance is built, and its config checked, before any solve
    bundles = [_bundle_for(plan, nu) for nu in plan.nus]
    rows = [r for bundle in bundles for r in _solve_nu(plan, bundle)]
    emit_report(plan, rows)
    if any(r.failed for r in rows):
        return 2
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rockrelax",
        description="scenario-program relaxation experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute an experiment plan")
    runp.add_argument("--plan", required=True,
                      help="plan JSON path or builtin:NAME")
    runp.add_argument("--out", required=True, help="output directory")
    runp.add_argument("--oracle", action="store_true",
                      help="certify against the brute-force grid oracle")
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--format", default="csv,json",
                      help="comma-separated subset of csv,json,plotdata")
    args = parser.parse_args(argv)
    try:
        plan = load_plan(args.plan, args.out, args.oracle, args.seed,
                         [f.strip() for f in args.format.split(",") if f.strip()])
        return run(plan)
    except PlanError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
