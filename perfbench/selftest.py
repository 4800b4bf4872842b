"""Shows that the benchmark's checks can fail.

Every checker in workloads.py is given a right answer, which it must
accept, and deliberately wrong ones, which it must reject. Takes a few
seconds:

    python3 perfbench/selftest.py

Exits 0 when every verdict is as expected, 1 otherwise.
"""
import copy
import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import rockrelax as rr  # noqa: E402
import workloads as wl  # noqa: E402

WRONG = []


def verdict(label: str, errors: list, wrong: bool) -> None:
    rejected = bool(errors)
    ok = rejected == wrong
    print(f"{'ok  ' if ok else 'FAIL'} {'rejects' if wrong else 'accepts'} {label}"
          + (f": {errors[0]}" if errors and ok else ""))
    if not ok:
        WRONG.append(label)


def builtin_reports() -> dict:
    def rows(nus, naive_x, relaxed_x, objective):
        out = []
        for nu in nus:
            out.append({"nu": nu, "formulation": "naive", "x": naive_x,
                        "objective": 1.0, "oracle_gap": None})
            out.append({"nu": nu, "formulation": "rockafellian", "x": relaxed_x,
                        "objective": objective, "oracle_gap": 0.0})
        return {"rows": out}

    return {"ex21": rows([10, 100, 1000], [0.0], [1.0], 0.0),
            "ex22": rows([1000], [0.25, -0.75], [0.49, -0.51], 0.75),
            "ex23": rows([100], [1.0], [0.0], 0.75)}


def selftest_builtins() -> None:
    reports = builtin_reports()
    for name, report in reports.items():
        verdict(f"{name} CLI report", wl.check_builtin(name, 0, report), False)
        verdict(f"{name} exit status 2", wl.check_builtin(name, 2, report), True)

    def mutated(name, formulation, **changes):
        report = copy.deepcopy(reports[name])
        row = next(r for r in report["rows"] if r["formulation"] == formulation)
        row.update(changes)
        return wl.check_builtin(name, 0, report)

    verdict("ex21 oracle gap 0.05", mutated("ex21", "rockafellian", oracle_gap=0.05), True)
    verdict("ex21 relaxed x = 0.5", mutated("ex21", "rockafellian", x=[0.5]), True)
    verdict("ex21 naive x = 0.01", mutated("ex21", "naive", x=[0.01]), True)
    verdict("ex22 relaxed x0 = 0.6", mutated("ex22", "rockafellian", x=[0.6, 0.0]), True)
    verdict("ex22 relaxed x1 = 0.7", mutated("ex22", "rockafellian", x=[0.5, 0.7]), True)
    verdict("ex22 naive x = (0.3, -0.75)", mutated("ex22", "naive", x=[0.3, -0.75]), True)
    verdict("ex23 naive x = 0.9", mutated("ex23", "naive", x=[0.9]), True)
    verdict("ex23 relaxed x = 0.02", mutated("ex23", "rockafellian", x=[0.02]), True)
    verdict("ex23 objective 0.8", mutated("ex23", "rockafellian", objective=0.8), True)
    short = copy.deepcopy(reports["ex23"])
    short["rows"] = short["rows"][:1]
    verdict("ex23 report without a relaxed row", wl.check_builtin("ex23", 0, short), True)


def selftest_reweight() -> None:
    config, thetas = wl.reweight_instances(0, 0)[1]
    program = rr.instances.instantiate(rr.instances.build_from_config(config))
    res = wl.REWEIGHT_RESOLUTION
    for kind in ("quadratic", "l1", "kl", "j"):
        theta = thetas[kind]
        spec = wl._spec(rr, kind, program.p, theta)
        method = rr.solver.GridMethod(box=config["box"], resolution=res)
        rep = rr.solver.solve_joint(program, spec, rr.solver.SolveConfig(x_method=method))
        u, x, value = rep.u_final, rep.x_final, rep.value

        def check(value=value, u=u, x=x, approx=value, certified=value):
            return wl.check_reweight(config, kind, theta, res, value, u, x,
                                     approx, certified)

        def consistent(u, x):
            """The objective at (u, x), so that only optimality can be at fault."""
            return float(rr.rockafellian.eval_approx(spec, program, u, x))

        verdict(f"{kind}: the solver's answer", check(), False)
        verdict(f"{kind}: value off by 1e-3", check(value=value + 1e-3,
                                                   approx=value + 1e-3,
                                                   certified=value + 1e-3), True)
        verdict(f"{kind}: eval_approx off by 1e-3", check(approx=value + 1e-3), True)
        verdict(f"{kind}: min-value oracle off by 1e-3",
                check(certified=value + 1e-3), True)
        q = program.p + u
        i, j = int(np.argmax(q)), int(np.argmin(q))
        u_bad = u.copy()
        u_bad[i] -= 0.05
        u_bad[j] += 0.05
        v = consistent(u_bad, x)
        verdict(f"{kind}: weights moved by 0.05", check(value=v, u=u_bad, approx=v,
                                                        certified=v), True)
        # a decision away from the grid minimum, with weights optimal for it
        x_bad = np.array([-x[0], -x[1]]) if np.any(x != 0) else np.array([0.5, 0.5])
        u_bad, _ = rr.solver.u_step(spec, program.costs(x_bad))
        v = consistent(u_bad, x_bad)
        verdict(f"{kind}: decision {x_bad} instead of {x}",
                check(value=v, u=u_bad, x=x_bad, approx=v, certified=v), True)

    config, theta = wl.fault_instances()[0]
    joint = wl.joint_minimum(config, theta, wl.FAULT_RESOLUTION)
    errs, failed = wl.check_joint("fault", joint, joint)
    verdict("joint minimum itself", errs + (["counted as failed"] if failed else []), False)
    errs, failed = wl.check_joint("fault", joint - 1e-3, joint)
    verdict("value below the joint minimum", errs, True)
    errs, failed = wl.check_joint("fault", joint + 0.02, joint)
    verdict("value 0.02 above the joint minimum (counted as failed)",
            ["counted as failed"] if failed else [], True)


def selftest_certificates() -> None:
    rep = SimpleNamespace
    verdict("passing strict certificate",
            wl.check_certificate("c", rep(passed=True, strict=True), True, True), False)
    verdict("failed certificate expected to pass",
            wl.check_certificate("c", rep(passed=False, strict=False), True), True)
    verdict("passing certificate expected to fail",
            wl.check_certificate("c", rep(passed=True, strict=True), False), True)
    verdict("non-strict certificate expected strict",
            wl.check_certificate("c", rep(passed=True, strict=False), True, True), True)

    config = wl.convex_config(0, 0, 0)
    program = rr.instances.instantiate(rr.instances.build_from_config(config))
    cert = rr.analysis.rate_constants(program, rho=1.0, epsilon=0.0, y_sup=0.0,
                                      resolution=wl.RATE_RESOLUTION)
    check = lambda c: wl.check_rate_constants(config, c, 1.0, wl.RATE_RESOLUTION)  # noqa: E731
    verdict("rate constants", check(cert), False)
    verdict("kappa + 0.01", check(rep(kappa=cert.kappa + 0.01, alpha=cert.alpha)), True)
    verdict("alpha * 1.1", check(rep(kappa=cert.kappa, alpha=cert.alpha * 1.1)), True)

    argmin = wl._argmin_oracle(config)
    x_star = argmin(0.0)[0]
    row = lambda x, passed=True: rep(nu=10, passed=passed, applicable=True,  # noqa: E731
                                     eta_nu=0.05, x_nu=np.asarray(x))
    verdict("rate row at the argmin", wl.check_rate_rows("r", [row(x_star)], argmin, 0.0),
            False)
    verdict("rate row 0.5 away from the argmin",
            wl.check_rate_rows("r", [row(x_star + 0.5)], argmin, 0.0), True)
    verdict("rate row reported as failed",
            wl.check_rate_rows("r", [row(x_star, passed=False)], argmin, 0.0), True)

    verdict("residual 1e-9", wl.check_residual("res", 1e-9), False)
    verdict("residual 1e-3", wl.check_residual("res", 1e-3), True)
    verdict("epi-distance equal to the shift", wl.check_epi_shift("epi", 0.2, 0.01, 0.2),
            False)
    verdict("epi-distance 0.05 off the shift", wl.check_epi_shift("epi", 0.25, 0.01, 0.2),
            True)


def main() -> int:
    selftest_builtins()
    selftest_reweight()
    selftest_certificates()
    if WRONG:
        print(f"{len(WRONG)} checker verdicts wrong: {WRONG}")
        return 1
    print("every checker accepts right answers and rejects wrong ones")
    return 0


if __name__ == "__main__":
    sys.exit(main())
