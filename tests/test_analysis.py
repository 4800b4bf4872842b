"""Rate certificates, penalty schedules, residuals, and epigraph distances."""
import math

import numpy as np
import pytest

from rockrelax.analysis import (RateCertificate, THETA_CAP,
                                empirical_rate_check, epi_distance_estimate,
                                eta_bound, optimality_residual, rate_constants,
                                theta_schedule, verify_rate_inequality)
from rockrelax.extreal import INF, ScenarioFunction, StochasticProgram
from rockrelax.instances import build_example
from rockrelax.rockafellian import QuadraticPenalty
from rockrelax.solver import (GridMethod, SolveConfig, brute_force_oracle,
                              solve_joint, u_step)


def nonnegative_program():
    f0 = ScenarioFunction(evaluate=lambda x: float(x @ x),
                          gradient=lambda x: 2.0 * x, smooth=True)
    scen = [ScenarioFunction(evaluate=lambda x: 1.0 + float(x @ x),
                             gradient=lambda x: 2.0 * x, smooth=True),
            ScenarioFunction(evaluate=lambda x: 0.5,
                             gradient=lambda x: np.zeros(x.size), smooth=True)]
    return StochasticProgram(f0=f0, scenarios=scen, p=np.array([0.5, 0.5]), n=1)


def test_rate_constants_nonnegative_functions():
    cert = rate_constants(nonnegative_program(), rho=1.0, epsilon=0.0,
                          y_sup=0.5, resolution=1e-2)
    assert cert.kappa == 0.0
    assert cert.beta == pytest.approx(math.sqrt(2.0 + 2.0 * 0.5), abs=1e-12)
    assert cert.tau == pytest.approx(cert.beta * cert.sigma, rel=1e-12)


def test_rate_constants_step_function_example():
    bundle = build_example("ex23", 10)
    cert = rate_constants(bundle.actual, rho=1.0, epsilon=0.0, y_sup=0.0,
                          resolution=1e-3)
    assert cert.kappa == 0.0
    assert cert.alpha == pytest.approx(0.5, abs=1e-15)
    assert cert.beta == pytest.approx(math.sqrt(2.0), abs=1e-12)
    # sigma = max{1, sqrt(2) * sqrt(3/(2*0.5)) * sqrt(2)} = 2 sqrt(3)
    assert cert.sigma == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-10)
    assert cert.tau == pytest.approx(cert.beta * cert.sigma, rel=1e-12)


def test_sigma_floor_enforced():
    with pytest.raises(ValueError):
        RateCertificate(rho=1.0, epsilon=0.0, y_sup=0.0, kappa=0.0, alpha=0.5,
                        beta=1.0, sigma=0.5, tau=0.5, resolution=1e-2)
    with pytest.raises(ValueError):
        RateCertificate(rho=1.0, epsilon=0.0, y_sup=0.0, kappa=0.0, alpha=0.5,
                        beta=1.0, sigma=2.0, tau=1.0, resolution=1e-2)


def test_rate_constants_refuses_unbounded():
    f0 = ScenarioFunction(evaluate=lambda x: -2e15)
    prog = StochasticProgram(f0=f0,
                             scenarios=[ScenarioFunction(evaluate=lambda x: 0.0)],
                             p=np.array([1.0]), n=1)
    with pytest.raises(ValueError):
        rate_constants(prog, rho=1.0, epsilon=0.0, y_sup=0.0, resolution=0.5)


def unit_cert(sigma=1.0, tau=1.0):
    return RateCertificate(rho=1.0, epsilon=0.0, y_sup=0.0, kappa=0.0,
                           alpha=0.5, beta=tau / sigma, sigma=sigma, tau=tau,
                           resolution=1e-2)


def test_eta_bound_coincident_weights():
    cert = unit_cert(sigma=2.0, tau=3.0)
    p = np.array([0.5, 0.5])
    assert eta_bound(cert, p, p, 4.0) == pytest.approx(3.0 / 2.0, abs=1e-12)


def test_eta_bound_plug_in():
    cert = unit_cert()
    p = np.array([0.5, 0.5])
    p_nu = p + np.array([0.01, -0.01]) / math.sqrt(2.0)  # 2-norm gap 0.01
    eta = eta_bound(cert, p_nu, p, 1e4)
    assert eta == pytest.approx(0.51, abs=1e-9)


def test_eta_bound_monotone_in_distance():
    cert = unit_cert(sigma=2.0, tau=2.0)
    p = np.array([0.5, 0.5])
    last = -1.0
    for d in (0.0, 0.01, 0.05, 0.2):
        p_nu = p + np.array([d, -d]) / math.sqrt(2.0)
        eta = eta_bound(cert, p_nu, p, 100.0)
        assert eta >= last
        last = eta


def test_schedule_balances_both_terms():
    # at theta = d^(-4/3) the two max-arguments both scale as d^(2/3)
    cert = unit_cert()
    p = np.array([0.5, 0.5])
    for d in (1e-2, 1e-3):
        theta = theta_schedule(p + np.array([d, -d]) / math.sqrt(2.0), p)
        a = 0.5 * theta * d * d
        b = cert.tau / math.sqrt(theta)
        assert a == pytest.approx(0.5 * d ** (2.0 / 3.0), rel=1e-9)
        assert b == pytest.approx(d ** (2.0 / 3.0), rel=1e-9)


def test_theta_schedule_values():
    p = np.array([0.5, 0.5])
    p_nu = p + np.array([1e-3, -1e-3]) / math.sqrt(2.0)
    assert theta_schedule(p_nu, p) == pytest.approx(1e4, rel=1e-9)
    assert theta_schedule(p, p) == THETA_CAP
    far = np.array([1.0, 0.0])
    base = np.array([0.0, 1.0])  # distance sqrt(2) > 1
    assert theta_schedule(far, base, floor=3.0) == 3.0
    with pytest.raises(ValueError):
        theta_schedule(p, p, floor=0.0)


def test_verify_rate_inequality_example_family():
    bundle10 = build_example("ex21", 10)
    cert = rate_constants(bundle10.actual, rho=1.0, epsilon=0.0, y_sup=0.0,
                          resolution=1e-2)
    rows = []
    for nu in (10, 100, 1000):
        bundle = build_example("ex21", nu)
        config = SolveConfig(x_method=GridMethod(box=bundle.box,
                                                 resolution=1e-3))
        report = solve_joint(bundle.perturbed, bundle.spec, config)
        rows.append((nu, bundle.spec.theta_nu, bundle.spec.p_nu,
                     report.x_final))

    def argmin_oracle(delta):
        from rockrelax.rockafellian import ExactIndicator
        res = brute_force_oracle(bundle10.actual, ExactIndicator(),
                                 1e-2, bundle10.box, 1e-3, deltas=(delta,))
        return res.argmin_sets[float(delta)]

    out = verify_rate_inequality(rows, cert, bundle10.actual.p, argmin_oracle)
    assert all(r.passed for r in out)
    assert any(r.applicable for r in out)
    # rows outside the thresholds are marked not applicable, never failed
    for r in out:
        if not r.applicable:
            assert math.isnan(r.distance)


def test_empirical_rate_degenerate_weights():
    rep = empirical_rate_check(np.array([1.0, 0.0]), 0.1, [10, 100], 20, seed=1)
    assert rep.medians == [0.0, 0.0]  # no sampling error at a point mass


def test_empirical_rate_validates_input():
    p = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        empirical_rate_check(p, 0.6, [10, 100], 5)
    with pytest.raises(ValueError):
        empirical_rate_check(p, 0.1, [100, 10], 5)


def test_empirical_rate_reproducible():
    p = np.array([0.5, 0.5])
    a = empirical_rate_check(p, 0.1, [100, 1000], 30, seed=9)
    b = empirical_rate_check(p, 0.1, [100, 1000], 30, seed=9)
    assert a.medians == b.medians
    assert a.decrease_fraction == b.decrease_fraction


def residual_program():
    f0 = ScenarioFunction(evaluate=lambda x: float(x @ x),
                          gradient=lambda x: 2.0 * x, smooth=True)
    cs = [np.array([0.7]), np.array([-0.3]), np.array([0.1])]
    scen = [ScenarioFunction(evaluate=lambda x, c=c: float(c @ x),
                             gradient=lambda x, c=c: c.copy(), smooth=True)
            for c in cs]
    return StochasticProgram(f0=f0, scenarios=scen,
                             p=np.array([0.5, 0.3, 0.2]), n=1)


def test_residual_zero_at_analytic_stationary_point():
    prog = residual_program()
    spec = QuadraticPenalty(p_nu=prog.p, theta_nu=100.0)
    # at u = 0 the x block vanishes at x = -(p . c)/2
    pc = 0.5 * 0.7 + 0.3 * -0.3 + 0.2 * 0.1
    x = np.array([-pc / 2.0])
    u, _ = u_step(spec, prog.costs(x))
    rep = optimality_residual(prog, spec, u, x)
    assert rep.block1 <= 1e-6


def test_residual_interior_constant_offset():
    prog = residual_program()
    spec = QuadraticPenalty(p_nu=prog.p, theta_nu=1.0)
    x = np.array([0.2])
    u = np.zeros(3)
    y = prog.costs(x) + spec.theta_nu * u + 2.5  # constant shift along ones
    rep = optimality_residual(prog, spec, u, x, y_nu=y)
    assert rep.block1 <= 1e-8


def test_residual_outside_domain_infinite():
    f0 = ScenarioFunction(evaluate=lambda x: 0.0 if abs(float(x[0])) <= 1 else INF,
                          gradient=lambda x: np.zeros(1))
    prog = StochasticProgram(
        f0=f0, scenarios=[ScenarioFunction(evaluate=lambda x: float(x[0]),
                                           gradient=lambda x: np.ones(1),
                                           smooth=True)],
        p=np.array([1.0]), n=1)
    spec = QuadraticPenalty(p_nu=prog.p, theta_nu=1.0)
    rep = optimality_residual(prog, spec, np.zeros(1), np.array([5.0]))
    assert rep.total == INF


def test_residual_infeasible_weights_infinite():
    prog = residual_program()
    spec = QuadraticPenalty(p_nu=prog.p, theta_nu=1.0)
    rep = optimality_residual(prog, spec, np.array([-0.9, 0.45, 0.45]),
                              np.zeros(1))
    assert rep.total == INF


def test_epi_distance_identical_functions():
    grid = [np.array([v]) for v in np.linspace(-1.0, 1.0, 101)]
    fn = lambda x: float(x @ x)
    est, spacing = epi_distance_estimate(fn, fn, 1.0, grid)
    assert est == 0.0
    assert spacing == pytest.approx(0.02, abs=1e-12)


def test_epi_distance_vertical_shift():
    grid = [np.array([v]) for v in np.linspace(-1.0, 1.0, 201)]
    fn = lambda x: float(x @ x)
    c = 0.3
    shifted = lambda x: fn(x) + c
    est, spacing = epi_distance_estimate(fn, shifted, 1.0, grid)
    assert c - 2.0 * spacing <= est <= c + 1e-12


def test_epi_distance_decreasing_along_refinement():
    # min-value profiles of the penalty relaxation approach the actual profile
    xs = [np.array([v]) for v in np.linspace(0.0, 1.0, 51)]

    def actual_profile(x):
        bundle = build_example("ex21", 10)
        return float(bundle.actual.costs(x) @ bundle.actual.p)

    estimates = []
    for nu in (10, 100, 1000):
        bundle = build_example("ex21", nu)

        def relaxed_profile(x, bundle=bundle):
            return u_step(bundle.spec, bundle.perturbed.costs(x))[1]

        est, _ = epi_distance_estimate(actual_profile, relaxed_profile, 1.0, xs)
        estimates.append(est)
    assert estimates[0] >= estimates[1] >= estimates[2]


def loop_epi_distance(fn_a, fn_b, rho, grid):
    """Reference: the element-by-element scan that the array form replaced."""
    pts = [np.atleast_1d(np.asarray(g, dtype=float)) for g in grid]
    pts = [g for g in pts if float(np.linalg.norm(g)) <= rho + 1e-12]
    vals_a = np.array([fn_a(g) for g in pts])
    vals_b = np.array([fn_b(g) for g in pts])
    arr = np.array(pts)

    def one_way(va, vb):
        worst = 0.0
        for k in range(len(pts)):
            if va[k] > rho:
                continue
            dist_x = np.linalg.norm(arr - arr[k][None, :], axis=1)
            gap = vb - va[k]
            eta_k = INF
            for dx, gp in zip(dist_x, gap):
                if gp == INF:
                    continue
                cand = max(dx, gp, 0.0)
                if cand < eta_k:
                    eta_k = cand
            worst = max(worst, eta_k)
        return worst

    return float(max(one_way(vals_a, vals_b), one_way(vals_b, vals_a)))


@pytest.mark.parametrize("seed", range(6))
def test_epi_distance_bit_identical_to_loop(seed):
    rng = np.random.default_rng(700 + seed)
    n = int(rng.integers(1, 3))
    grid = list(rng.uniform(-1.2, 1.2, size=(60, n)))
    table_a, table_b = rng.normal(size=60) * 0.8, rng.normal(size=60) * 0.8
    # +inf values, values beyond the cutoff rho, and -inf on both sides,
    # which makes some gaps +inf and some nan
    table_a[rng.random(60) < 0.2] = INF
    table_b[rng.random(60) < 0.2] = INF
    table_a[rng.random(60) < 0.1] = 2.5
    table_a[rng.random(60) < 0.05] = -INF
    table_b[rng.random(60) < 0.05] = -INF
    if seed == 0:
        table_b[:] = INF  # every gap infinite: the estimate is +inf
    lookup = {tuple(g): i for i, g in enumerate(grid)}
    fn_a = lambda x: float(table_a[lookup[tuple(x)]])
    fn_b = lambda x: float(table_b[lookup[tuple(x)]])
    with np.errstate(invalid="ignore"):  # -inf - (-inf) gaps are nan
        est, _ = epi_distance_estimate(fn_a, fn_b, 1.0, grid)
        ref = loop_epi_distance(fn_a, fn_b, 1.0, grid)
    assert np.float64(est).tobytes() == np.float64(ref).tobytes()


def test_epi_distance_input_validation():
    with pytest.raises(ValueError):
        epi_distance_estimate(lambda x: 0.0, lambda x: 0.0, 1.0,
                              [np.array([5.0])])
