"""The three workloads: their instances, one round of work each, and the
checks applied to every output.

Every round of a workload runs the same operations on instances drawn from
``(seed, round)``; the checkers are plain functions of the program's outputs
so that ``selftest.py`` can feed them wrong answers.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

# -- shared -----------------------------------------------------------------
#: the CLI's certificate-failure threshold, restated
GAP_TOLERANCE = 1e-2
#: relative agreement asked of values the program and the reference both
#: compute exactly (up to rounding)
VALUE_RTOL = 1e-9
#: relative optimality slack for the exact u-steps (bisection to 1e-15,
#: SLSQP to ftol 1e-14)
U_STEP_RTOL = 1e-7


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * (1.0 + abs(b))


def _rng(seed: int, rnd: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, rnd, stream])


@dataclass
class Round:
    """What one round did: operations attempted and failed, check errors."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


# -- builtins -----------------------------------------------------------------
BUILTINS = ("ex21", "ex22", "ex23")


def check_builtin(name: str, code: int, report: dict) -> list:
    """The CLI run on one built-in against the paper's analytic answers."""
    errs = []
    if code != 0:
        errs.append(f"{name}: exit status {code}")
    rows = report.get("rows", [])
    naive = [r for r in rows if r["formulation"] == "naive"]
    relaxed = [r for r in rows if r["formulation"] == "rockafellian"]
    if not naive or len(naive) != len(relaxed):
        return errs + [f"{name}: expected one naive and one relaxed row per scale"]
    for r in relaxed:
        gap = r["oracle_gap"]
        if gap is None or not gap <= GAP_TOLERANCE:
            errs.append(f"{name} nu={r['nu']}: oracle gap {gap}")
    for r in naive:
        x = r["x"]
        if name == "ex21" and not abs(x[0]) <= 1e-12:
            errs.append(f"ex21 nu={r['nu']}: naive x={x}, expected 0")
        if name == "ex22" and not (abs(x[0] - 0.25) <= 1e-2 and abs(x[1] + 0.75) <= 1e-2):
            errs.append(f"ex22: naive x={x}, expected (0.25, -0.75)")
        if name == "ex23" and not abs(x[0] - 1.0) <= 1e-12:
            errs.append(f"ex23: naive x={x}, expected 1")
    for r in relaxed:
        x = r["x"]
        if name == "ex21" and not x[0] >= 0.99:
            errs.append(f"ex21 nu={r['nu']}: relaxed x={x}, expected >= 0.99")
        if name == "ex22" and not (abs(x[0] - 0.5) <= 0.05 and abs(x[1]) <= 0.55):
            errs.append(f"ex22: relaxed x={x}, expected x0 near 1/2, |x1| <= 0.55")
        if name == "ex23" and not (x[0] <= 0.01 and abs(r["objective"] - 0.75) <= 0.01):
            errs.append(f"ex23: relaxed x={x} objective {r['objective']}, "
                        "expected x <= 0.01 and objective 0.75")
    return errs


def builtins_setup(seed: int, rounds: int) -> dict:
    from rockrelax.cli import DEFAULT_NUS
    return {"examples": [[name, nu] for name in BUILTINS for nu in DEFAULT_NUS[name]],
            "configs": []}


def builtins_round(rr, inst, seed: int, rnd: int, work_dir: Path) -> Round:
    """`rockrelax run --plan builtin:exNN --oracle` on each built-in."""
    out = Round()
    for name in BUILTINS:
        target = work_dir / f"builtins-{rnd}"
        code = rr.cli.main(["run", "--plan", f"builtin:{name}", "--oracle",
                            "--out", str(target), "--seed", str(seed)])
        out.attempted += 1
        with inst.pause():
            path = target / f"{name}.json"
            report = json.loads(path.read_text()) if path.is_file() else {}
            out.errors += check_builtin(name, code, report)
    return out


# -- reweight -----------------------------------------------------------------
KINDS = ("quadratic", "l1", "kl", "burg", "chi2", "mod_chi2", "hellinger",
         "j", "variational")
#: scenario counts of the seeded instances, two instances each per round;
#: the j family's SLSQP u-step grows fastest with s, and with s at most 24
#: it takes about two thirds of the u-step time, leaving the other kinds
#: visible
REWEIGHT_SIZES = (4, 8, 16, 24)
REWEIGHT_RESOLUTION = 0.5
CATALOG_TAGS = ("quadratic", "linear", "hinge", "cross-entropy")
#: the alternation-fault set: s = 3 catalog quadratics with random-sign
#: curvature on a 1-d grid, drawn once from a fixed seed
FAULT_SEED = 0
FAULT_COUNT = 20
FAULT_RESOLUTION = 1e-2


def _catalog_fn(rng, tag: str, n: int) -> dict:
    vec = lambda arr: [float(v) for v in arr]  # noqa: E731
    if tag == "quadratic":
        params = {"a": vec(rng.uniform(0.2, 1.5, n)), "c": vec(rng.normal(0, 1, n)),
                  "d": float(rng.normal(0, 0.5))}
    elif tag == "linear":
        params = {"c": vec(rng.normal(0, 1, n)), "d": float(rng.normal(0, 0.5))}
    elif tag == "hinge":
        params = {"feature": vec(rng.normal(0, 1, n - 1)),
                  "label": float(rng.choice([-1.0, 1.0]))}
    else:
        params = {"feature": vec(rng.normal(0, 1, n)),
                  "label": float(rng.choice([-1.0, 1.0]))}
    return {"tag": tag, "params": params}


def _weights(rng, s: int) -> list:
    """Strictly positive weights, each at least 1/(2s)."""
    p = 0.5 / s + 0.5 * rng.dirichlet(np.ones(s))
    return [float(v) for v in p / p.sum()]


def _theta(rng, kind: str) -> float:
    if kind == "quadratic":
        return float(rng.uniform(1.0, 5.0))
    if kind == "l1":
        return float(rng.uniform(0.05, 0.5))
    return float(rng.uniform(0.3, 2.0))


def reweight_instances(seed: int, rnd: int) -> list:
    """[(config, {kind: theta})] of one round's seeded instances."""
    rng = _rng(seed, rnd, 1)
    out = []
    for k, s in enumerate(REWEIGHT_SIZES * 2):
        n = 2
        config = {"name": f"reweight-{rnd}-{k}", "n": n, "s": s,
                  "f0": {"tag": "quadratic", "params": {"a": [0.1] * n}},
                  "scenarios": [_catalog_fn(rng, CATALOG_TAGS[int(rng.integers(4))], n)
                                for _ in range(s)],
                  "p": _weights(rng, s), "box": [[-1.0, 1.0]] * n}
        out.append((config, {kind: _theta(rng, kind) for kind in KINDS}))
    return out


def fault_instances() -> list:
    """[(config, theta)] of the fixed alternation-fault set."""
    rng = np.random.default_rng(FAULT_SEED)
    out = []
    for k in range(FAULT_COUNT):
        scen = [{"tag": "quadratic",
                 "params": {"a": [float(rng.uniform(-2, 2))],
                            "c": [float(rng.uniform(-2, 2))],
                            "d": float(rng.uniform(-1, 1))}} for _ in range(3)]
        p = rng.dirichlet(np.ones(3))
        config = {"name": f"fault-{k}", "n": 1, "s": 3, "scenarios": scen,
                  "p": [float(v) for v in p], "box": [[-1.0, 1.0]]}
        out.append((config, float(rng.uniform(0.5, 2.0))))
    return out


def reweight_setup(seed: int, rounds: int) -> dict:
    configs = [c for r in range(rounds) for c, _ in reweight_instances(seed, r)]
    return {"examples": [], "configs": configs + [c for c, _ in fault_instances()]}


def _spec(rr, kind: str, p, theta: float):
    if kind == "quadratic":
        return rr.rockafellian.QuadraticPenalty(p_nu=p, theta_nu=theta)
    if kind == "l1":
        return rr.rockafellian.L1Penalty(p_nu=p, theta=theta)
    return rr.rockafellian.PhiDivergencePenalty(
        p_nu=p, theta_nu=theta, family=rr.divergence.FAMILIES[kind])


def check_reweight(config: dict, kind: str, theta: float, resolution: float,
                   value: float, u, x, approx: float, certified: float) -> list:
    """A relaxed solve against the reference.

    * ``value`` equals ``eval_approx`` at the reported point (``approx``),
      the program's min-value oracle at the reported weights (``certified``)
      and the reference objective at the reported point;
    * ``u`` attains the reference optimum of the reweighting subproblem at x;
    * ``x`` attains the reference grid minimum at the weights p + u.
    """
    name = f"{config['name']}/{kind}"
    value, approx, certified = float(value), float(approx), float(certified)
    p = np.asarray(config["p"], float)
    q = p + np.asarray(u, float)
    x = np.atleast_2d(np.asarray(x, float))
    f0x, Fx = ref.config_costs(config, x)
    inner = ref.subproblem_value(kind, theta, p, Fx[0], q)
    errs = []
    if not _close(value, approx, VALUE_RTOL):
        errs.append(f"{name}: value {value!r} but eval_approx gives {approx!r}")
    if not _close(value, certified, VALUE_RTOL):
        errs.append(f"{name}: value {value!r} but the min-value oracle at the "
                    f"reported weights gives {certified!r}")
    if not _close(value, f0x[0] + inner, VALUE_RTOL):
        errs.append(f"{name}: value {value!r} but the reference objective "
                    f"at the reported point is {f0x[0] + inner!r}")
    best_u = ref.subproblem_min(kind, theta, p, Fx[0])
    if not (math.isfinite(inner) and _close(inner, best_u, U_STEP_RTOL)):
        errs.append(f"{name}: u-step value {inner!r}, reference optimum {best_u!r}")
    grid = ref.box_grid(config["box"], resolution)
    f0, F = ref.config_costs(config, grid)
    qc = np.maximum(q, 0.0)
    best_x = float(np.min(f0 + F @ qc))
    here = float(f0x[0] + Fx[0] @ qc)
    if not (here <= best_x + VALUE_RTOL * (1.0 + abs(best_x))):
        errs.append(f"{name}: x-step value {here!r}, grid minimum {best_x!r}")
    return errs


def joint_minimum(config: dict, theta: float, resolution: float) -> float:
    """Grid-exact joint minimum of the quadratic-penalty relaxation: the
    reweighting is minimized exactly at every grid decision."""
    grid = ref.box_grid(config["box"], resolution)
    f0, F = ref.config_costs(config, grid)
    p = np.asarray(config["p"], float)
    return float(np.min(f0 + ref.quadratic_min_rows(theta, p, F)))


def check_joint(name: str, value: float, joint: float) -> tuple:
    """(errors, failed): a value below the joint minimum is wrong; one above
    it by more than the CLI's tolerance is the alternation fault."""
    if value < joint - VALUE_RTOL * (1.0 + abs(joint)):
        return [f"{name}: value {value!r} below the joint minimum {joint!r}"], False
    return [], bool(value > joint + GAP_TOLERANCE)


def _solve_and_check(rr, inst, config, program, kind, theta, resolution,
                     out: Round):
    spec = _spec(rr, kind, program.p, theta)
    method = rr.solver.GridMethod(box=config["box"], resolution=resolution)
    report = rr.solver.solve_joint(program, spec, rr.solver.SolveConfig(x_method=method))
    # the program's own check: the min-value oracle at the reported weights
    certified = rr.solver.make_min_value_oracle(program, spec, config["box"],
                                                resolution)(report.u_final)
    out.attempted += 1
    with inst.pause():
        approx = rr.rockafellian.eval_approx(spec, program, report.u_final,
                                             report.x_final)
        out.errors += check_reweight(config, kind, theta, resolution, report.value,
                                     report.u_final, report.x_final, approx,
                                     certified)
    return report


def _program(rr, config):
    return rr.instances.instantiate(rr.instances.build_from_config(config))


def reweight_round(rr, inst, seed: int, rnd: int, work_dir: Path) -> Round:
    """Every seeded instance under all nine penalties, then the fault set."""
    out = Round()
    for config, thetas in reweight_instances(seed, rnd):
        program = _program(rr, config)
        for kind in KINDS:
            _solve_and_check(rr, inst, config, program, kind, thetas[kind],
                             REWEIGHT_RESOLUTION, out)
    for config, theta in fault_instances():
        report = _solve_and_check(rr, inst, config, _program(rr, config),
                                  "quadratic", theta, FAULT_RESOLUTION, out)
        with inst.pause():
            errs, failed = check_joint(config["name"], report.value,
                                       joint_minimum(config, theta, FAULT_RESOLUTION))
        out.errors += errs
        out.failed += int(failed)
    return out


# -- certificates ---------------------------------------------------------------
#: x-grid of each built-in's min-value oracle in the exactness certificates
CERT_RESOLUTION = {"ex21": 1e-2, "ex22": 5e-2, "ex23": 1e-2}
CERT_NU = 10
RATE_NUS = (10, 30, 100, 300, 1000)
CONVEX_PER_ROUND = 5
RATE_RESOLUTION = 2e-2
ARGMIN_RESOLUTION = 5e-3
L1_GRID = 1e-2
#: the calmness modulus of the L1 instance, from its hand analysis
L1_MODULUS = 0.5


def l1_config() -> dict:
    """f0 the indicator of [0, 1], costs 0 and -x, weights (1/2, 1/2)."""
    return {"name": "l1-modulus", "n": 1, "s": 2,
            "f0": {"tag": "indicator-box", "params": {"lo": [0.0], "hi": [1.0]}},
            "scenarios": [{"tag": "linear", "params": {"c": [0.0]}},
                          {"tag": "linear", "params": {"c": [-1.0]}}],
            "p": [0.5, 0.5], "box": [[0.0, 1.0]]}


def convex_config(seed: int, rnd: int, k: int) -> dict:
    """|x|^2 plus three small linear scenarios in two decisions."""
    rng = _rng(seed, rnd, 10 + k)
    w = rng.uniform(0.2, 0.5, size=3)
    return {"name": f"convex-{rnd}-{k}", "n": 2, "s": 3,
            "f0": {"tag": "quadratic", "params": {"a": [1.0, 1.0]}},
            "scenarios": [{"tag": "linear",
                           "params": {"c": [float(v) for v in rng.uniform(-0.3, 0.3, 2)]}}
                          for _ in range(3)],
            "p": [float(v) for v in w / w.sum()], "box": [[-2.0, 2.0]] * 2}


def certificates_setup(seed: int, rounds: int) -> dict:
    return {"examples": [[name, CERT_NU] for name in BUILTINS],
            "configs": [l1_config()] + [convex_config(seed, r, k) for r in range(rounds)
                                        for k in range(CONVEX_PER_ROUND)]}


def check_certificate(name: str, report, expect_pass: bool,
                      expect_strict: bool = False) -> list:
    if bool(report.passed) != expect_pass:
        return [f"{name}: certificate passed={report.passed}, expected {expect_pass}"]
    if expect_strict and not report.strict:
        return [f"{name}: certificate not strict"]
    return []


def check_rate_constants(config: dict, cert, rho: float, resolution: float) -> list:
    """kappa and alpha against enumeration of the same ball grid."""
    grid = ref.box_grid([(-rho, rho)] * config["n"], resolution)
    grid = grid[np.linalg.norm(grid, axis=1) <= rho + 1e-12]
    f0, F = ref.config_costs(config, grid)
    dom = f0 < math.inf
    floor = min(float(f0.min()), float(F[dom].min()))
    kappa = max(0.0, -floor)
    p = np.asarray(config["p"], float)
    alpha = float(p[p > 0].min())
    errs = []
    if not _close(cert.kappa, kappa, VALUE_RTOL):
        errs.append(f"{config['name']}: kappa {cert.kappa!r}, enumeration {kappa!r}")
    if cert.alpha != alpha:
        errs.append(f"{config['name']}: alpha {cert.alpha!r}, min p>0 {alpha!r}")
    return errs


def check_rate_rows(name: str, rows, argmin, epsilon: float) -> list:
    """Every row passes, and every applicable row's distance to the
    (epsilon + 2 eta)-argmin, measured again here, is at most eta."""
    errs = []
    for r in rows:
        if not r.passed:
            errs.append(f"{name} nu={r.nu}: rate inequality reported as failed")
        if r.applicable:
            near = argmin(epsilon + 2.0 * r.eta_nu)
            dist = float(np.min(np.linalg.norm(near - r.x_nu[None, :], axis=1)))
            if not dist <= r.eta_nu + 1e-12:
                errs.append(f"{name} nu={r.nu}: distance {dist} exceeds eta {r.eta_nu}")
    return errs


def check_residual(name: str, total: float) -> list:
    return [] if total <= 1e-6 else [f"{name}: optimality residual {total}"]


def check_epi_shift(name: str, estimate: float, spacing: float, shift: float) -> list:
    if abs(estimate - shift) <= spacing:
        return []
    return [f"{name}: epi-distance {estimate} for a shift of {shift} "
            f"(grid spacing {spacing})"]


def _argmin_oracle(config: dict):
    """Grid delta-argmin of f0 + <p, F> on [-1, 1]^2, by enumeration (one
    grid row at a time, so that the benchmark's own memory stays small)."""
    axis = np.linspace(-1.0, 1.0, int(round(2.0 / ARGMIN_RESOLUTION)) + 1)
    p = np.asarray(config["p"], float)
    vals = np.empty((axis.size, axis.size))
    for i, first in enumerate(axis):
        f0, F = ref.config_costs(config, np.column_stack(
            [np.full(axis.size, first), axis]))
        vals[i] = f0 + F @ p
    best = vals.min()

    def oracle(delta):
        rows, cols = np.nonzero(vals <= best + delta + 1e-12)
        return np.column_stack([axis[rows], axis[cols]])

    return oracle


def certificates_round(rr, inst, seed: int, rnd: int, work_dir: Path) -> Round:
    out = Round()
    rng = _rng(seed, rnd, 3)
    solver, rock, analysis = rr.solver, rr.rockafellian, rr.analysis

    # exactness of the anchored built-ins through the min-value oracle
    for name in BUILTINS:
        bundle = rr.instances.build_example(name, CERT_NU)
        prog = bundle.actual
        if prog.composite is not None:
            a = float(rng.uniform(0.1, 0.5))
            samples = [np.zeros(1), np.array([a]), np.array([-a])]
            y_bar = rng.normal(size=1)
        else:
            samples = rock.default_u_samples(prog.p, count=10,
                                             seed=int(rng.integers(2 ** 31)))
            y_bar = rng.normal(size=prog.s)
        oracle = solver.make_min_value_oracle(prog, rock.ExactIndicator(),
                                              bundle.box, CERT_RESOLUTION[name])
        rep = rock.check_exactness_certificate(rock.ExactIndicator(), prog, y_bar,
                                               samples, oracle)
        out.attempted += 1
        with inst.pause():
            out.errors += check_certificate(f"exact-{name}", rep, True, True)

    # the L1 relaxation is exact above its modulus 1/2 and not below it
    l1 = l1_config()
    prog = _program(rr, l1)
    samples = [q - prog.p for q in solver.simplex_grid(2, L1_GRID)]
    theta_lo = float(rng.uniform(0.3, L1_MODULUS - 0.05))
    theta_hi = float(rng.uniform(L1_MODULUS + 0.05, 0.8))
    oracles = []
    for theta, expect in ((theta_lo, False), (theta_hi, True)):
        spec = rock.L1Penalty(p_nu=prog.p, theta=theta)
        oracles.append(solver.make_min_value_oracle(prog, spec, l1["box"], L1_GRID))
        rep = rock.check_exactness_certificate(spec, prog, np.zeros(2), samples,
                                               oracles[-1])
        out.attempted += 1
        with inst.pause():
            out.errors += check_certificate(f"l1-theta={theta:.3f}", rep, expect)

    # epi-distance between the exact L1 min-value function and its shift by
    # c, along the perturbation line u = (t, -t)
    shift = float(rng.uniform(0.05, 0.3))

    def min_value(g):
        return oracles[-1](np.array([g[0], -g[0]]))

    est, spacing = analysis.epi_distance_estimate(
        min_value, lambda g: min_value(g) + shift, 1.0,
        [np.array([t]) for t in np.linspace(-0.5, 0.5, 101)])
    out.attempted += 1
    with inst.pause():
        out.errors += check_epi_shift("epi-l1", est, spacing, shift)

    # per smooth convex program: rate constants, projected-gradient solves
    # over nu with the first-order residual at each, and the rate inequality
    for k in range(CONVEX_PER_ROUND):
        config = convex_config(seed, rnd, k)
        prog = _program(rr, config)
        cert = analysis.rate_constants(prog, rho=1.0, epsilon=0.0, y_sup=0.0,
                                       resolution=RATE_RESOLUTION)
        out.attempted += 1
        with inst.pause():
            out.errors += check_rate_constants(config, cert, 1.0, RATE_RESOLUTION)
            argmin = _argmin_oracle(config)
        direction = rng.normal(size=3)
        direction -= direction.mean()
        direction /= np.linalg.norm(direction)
        method = solver.ProjectedGradientMethod(box=tuple(map(tuple, config["box"])))
        rows = []
        for nu in RATE_NUS:
            p_nu = prog.p + direction * (0.5 / nu)
            spec = rock.QuadraticPenalty(
                p_nu=p_nu, theta_nu=analysis.theta_schedule(p_nu, prog.p))
            report = solver.solve_joint(prog, spec, solver.SolveConfig(x_method=method))
            rows.append((nu, spec.theta_nu, p_nu, report.x_final))
            res = analysis.optimality_residual(prog, spec, report.u_final,
                                               report.x_final)
            out.attempted += 1
            with inst.pause():
                out.errors += check_residual(f"{config['name']} nu={nu}", res.total)
        checked = analysis.verify_rate_inequality(rows, cert, prog.p, argmin)
        out.attempted += 1
        with inst.pause():
            out.errors += check_rate_rows(config["name"], checked, argmin,
                                          cert.epsilon)
    return out


WORKLOADS = {
    "builtins": (builtins_setup, builtins_round),
    "reweight": (reweight_setup, reweight_round),
    "certificates": (certificates_setup, certificates_round),
}
