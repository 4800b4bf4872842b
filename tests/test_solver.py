"""Reweighting steps, decision steps, joint solves, and grid oracles."""
import dataclasses
import functools

import numpy as np
import pytest

from rockrelax.divergence import FAMILIES, PhiFamily
from rockrelax.extreal import INF, ScenarioFunction, StochasticProgram
from rockrelax.instances import build_example
from rockrelax.rockafellian import (ExactIndicator, L1Penalty,
                                    PerturbationPoint, PhiDivergencePenalty,
                                    QuadraticPenalty, SupportPerturbation,
                                    eval_approx, eval_exact)
import rockrelax.solver as solver
from rockrelax.solver import (MAX_GRID_EVALS, GridMethod, InfeasibleAtResolution,
                              ProjectedGradientMethod, SolveConfig, _grid_array,
                              _reduced_grid_values, _reduced_objective,
                              brute_force_oracle, composite_u_step, grid_axis,
                              grid_points, simplex_grid, solve_joint, u_step,
                              u_step_grid_oracle, u_step_rows,
                              u_subproblem_value, x_step)


def quad_program(box_n=1):
    f0 = ScenarioFunction(evaluate=lambda x: float(x @ x),
                          gradient=lambda x: 2.0 * x, smooth=True)
    scen = [ScenarioFunction(evaluate=lambda x: float(x.sum()),
                             gradient=lambda x: np.ones(x.size), smooth=True)]
    return StochasticProgram(f0=f0, scenarios=scen, p=np.array([1.0]), n=box_n)


def test_grid_axis_and_points():
    ax = grid_axis(0.0, 1.0, 0.25)
    assert ax == pytest.approx(np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    pts = list(grid_points([(0.0, 1.0), (0.0, 1.0)], 0.5))
    assert len(pts) == 9
    assert pts[0] == pytest.approx(np.array([0.0, 0.0]))  # lexicographic order


def test_simplex_grid_counts():
    pts = simplex_grid(3, 0.1)
    assert len(pts) == 66  # C(12, 2) compositions of 10 into 3 parts
    for q in pts:
        assert q.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(q >= 0.0)


def test_simplex_grid_restricted():
    center = np.array([0.5, 0.5])
    pts = simplex_grid(2, 0.1, center=center, radius=0.2)
    assert all(np.max(np.abs(q - center)) <= 0.2 + 1e-12 for q in pts)
    assert len(pts) == 5


def test_u_step_constant_costs_no_move():
    p = np.array([0.3, 0.7])
    costs = np.array([2.0, 2.0])
    for spec in (QuadraticPenalty(p_nu=p, theta_nu=1.0),
                 L1Penalty(p_nu=p, theta=1.0),
                 PhiDivergencePenalty(p_nu=p, theta_nu=1.0,
                                      family=FAMILIES["kl"])):
        u, _ = u_step(spec, costs)
        assert u == pytest.approx(np.zeros(2), abs=1e-9)


def test_quadratic_u_step_reference():
    spec = QuadraticPenalty(p_nu=np.array([0.5, 0.5]), theta_nu=1.0)
    u, val = u_step(spec, np.array([1.0, 0.0]))
    assert u == pytest.approx(np.array([-0.5, 0.5]), abs=1e-12)
    # subproblem value: q = (0,1) costs 0, penalty 1/2 |u|^2 = 1/4
    assert val == pytest.approx(0.25, abs=1e-12)


def test_l1_u_step_reference():
    spec = L1Penalty(p_nu=np.array([0.5, 0.5]), theta=1.0)
    u, val = u_step(spec, np.array([0.0, -10.0]))
    assert u == pytest.approx(np.array([-0.5, 0.5]), abs=1e-9)
    gu, gval = u_step_grid_oracle(spec, np.array([0.0, -10.0]))
    assert val == pytest.approx(gval, abs=1e-6)


def test_l1_u_step_stays_put_below_spread():
    # moving mass costs 2 theta per unit; spread 1 < 2 theta keeps u = 0
    spec = L1Penalty(p_nu=np.array([0.5, 0.5]), theta=1.0)
    u, _ = u_step(spec, np.array([0.0, -1.0]))
    assert u == pytest.approx(np.zeros(2), abs=1e-9)
    # a spread of exactly 2 theta gains nothing, and the weights stay put
    spec = L1Penalty(p_nu=np.array([0.3, 0.5, 0.2]), theta=0.5)
    u, _ = u_step(spec, np.array([0.0, 1.0, 1.0]))
    assert np.all(u == 0.0)


def test_phi_u_step_matches_grid_oracle_all_families():
    rng = np.random.default_rng(13)
    p = np.array([0.2, 0.5, 0.3])
    for tag, fam in sorted(FAMILIES.items()):
        spec = PhiDivergencePenalty(p_nu=p, theta_nu=0.8, family=fam)
        for _ in range(3):
            costs = rng.normal(size=3) * 2.0
            u, val = u_step(spec, costs)
            gu, gval = u_step_grid_oracle(spec, costs)
            assert val <= gval + 1e-6, tag
            assert u_subproblem_value(spec, costs, None, u) == \
                pytest.approx(val, abs=1e-9)


@pytest.mark.parametrize("tag", sorted(FAMILIES))
def test_phi_u_step_zero_base_weight_matches_grid_oracle(tag):
    # the zero-weight scenario is the cheapest, then the dearest
    p = np.array([0.5, 0.5, 0.0])
    spec = PhiDivergencePenalty(p_nu=p, theta_nu=1.0, family=FAMILIES[tag])
    for costs in (np.array([0.0, 1.0, -2.0]), np.array([0.0, 1.0, 2.0])):
        u, val = u_step(spec, costs)
        q = p + u
        assert np.all(q >= -1e-12) and q.sum() == pytest.approx(1.0, abs=1e-12)
        if FAMILIES[tag].limit_slope == INF:
            assert q[2] == 0.0
        assert u_subproblem_value(spec, costs, None, u) == pytest.approx(val, abs=1e-9)
        _, gval = u_step_grid_oracle(spec, costs)
        assert val <= gval + 1e-6, (tag, costs)


@pytest.mark.parametrize("p, theta, costs", [
    ([0.3, 0.5, 0.2], 0.5, [0.0, 2.5, 0.4]),     # one scenario moves
    ([0.3, 0.5, 0.2], 0.5, [0.0, 1.0, 1.0]),     # spread exactly 2 theta
    ([0.3, 0.5, 0.2], 0.5, [1.0, INF, 0.2]),     # an infinite cost
    ([0.5, 0.5, 0.0], 0.5, [0.0, 3.0, -2.0]),    # cheapest has no base weight
    ([0.5, 0.5, 0.0], 0.5, [0.0, 3.0, 2.0]),     # dearest has no base weight
    ([0.25, 0.25, 0.5], 0.0, [0.0, 1.0, 0.0]),   # no penalty
])
def test_l1_u_step_closed_form_matches_grid_oracle(p, theta, costs):
    spec = L1Penalty(p_nu=np.array(p), theta=theta)
    costs = np.array(costs)
    u, val = u_step(spec, costs)
    q = spec.p_nu + u
    assert np.all(q >= 0.0) and q.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(q[~np.isfinite(costs)] == 0.0)
    assert u_subproblem_value(spec, costs, None, u) == pytest.approx(val, abs=1e-12)
    _, gval = u_step_grid_oracle(spec, costs)
    assert val == pytest.approx(gval, abs=1e-9)


def test_u_step_excludes_infinite_costs():
    spec = QuadraticPenalty(p_nu=np.array([0.5, 0.5]), theta_nu=1.0)
    u, val = u_step(spec, np.array([1.0, INF]))
    q = spec.p_nu + u
    assert q[1] == pytest.approx(0.0, abs=1e-12)
    assert np.isfinite(val)


def test_u_step_all_infinite_costs():
    spec = QuadraticPenalty(p_nu=np.array([0.5, 0.5]), theta_nu=1.0)
    u, val = u_step(spec, np.array([INF, INF]))
    assert val == INF
    assert u == pytest.approx(-spec.p_nu)


def test_u_step_theta_zero_picks_cheapest_vertex():
    spec = QuadraticPenalty(p_nu=np.array([0.5, 0.5]), theta_nu=0.0)
    u, val = u_step(spec, np.array([3.0, -1.0]))
    assert spec.p_nu + u == pytest.approx(np.array([0.0, 1.0]))
    assert val == pytest.approx(-1.0)


def test_u_step_rejects_exact_variant():
    with pytest.raises(TypeError):
        u_step(ExactIndicator(), np.array([1.0]))


def test_composite_u_step_closed_form():
    from rockrelax.rockafellian import CompositePenalty
    spec = CompositePenalty(p_nu=np.array([0.5, 0.5]), theta_nu=2.0,
                            y_nu=np.array([1.0]))
    # unconstrained minimizer y/theta = 0.5 clipped to b - ev
    u, val = composite_u_step(spec, np.array([0.8]), np.array([1.0]),
                              y_nu=np.array([1.0]))
    assert u == pytest.approx(np.array([0.2]))
    assert val == pytest.approx(0.5 * 2.0 * 0.04 - 0.2, abs=1e-12)
    # grid cross-check over feasible u
    best = min(0.5 * 2.0 * uu * uu - 1.0 * uu
               for uu in np.linspace(-3.0, 0.2, 3201))
    assert val <= best + 1e-9


def test_x_step_grid_shifted_weights():
    bundle = build_example("ex21", 100)
    u = bundle.actual.p - bundle.spec.p_nu
    obj = lambda x: eval_approx(bundle.spec, bundle.perturbed, u, x)
    x, _ = x_step(obj, GridMethod(box=((0.0, 1.0),), resolution=1e-3))
    assert x[0] == pytest.approx(1.0, abs=1e-12)


def test_x_step_grid_zero_perturbation():
    bundle = build_example("ex21", 100)
    obj = lambda x: eval_approx(bundle.spec, bundle.perturbed, np.zeros(2), x)
    x, _ = x_step(obj, GridMethod(box=((0.0, 1.0),), resolution=1e-3))
    assert x[0] == pytest.approx(0.0, abs=1e-12)


def test_x_step_tie_breaks_lexicographic():
    x, v = x_step(lambda z: 1.0, GridMethod(box=((0.0, 1.0), (0.0, 1.0)),
                                            resolution=0.5))
    assert x == pytest.approx(np.array([0.0, 0.0]))
    assert v == 1.0


def test_x_step_infeasible_at_resolution():
    with pytest.raises(InfeasibleAtResolution):
        x_step(lambda z: INF, GridMethod(box=((0.0, 1.0),), resolution=0.5))


def test_projected_gradient_on_quadratic():
    obj = lambda x: float((x - 0.3) @ (x - 0.3))
    grad = lambda x: 2.0 * (x - 0.3)
    x, v = x_step(obj, ProjectedGradientMethod(box=((-1.0, 1.0),)), gradient=grad)
    assert x[0] == pytest.approx(0.3, abs=1e-8)
    assert v <= obj(np.zeros(1))


def test_projected_gradient_respects_box():
    obj = lambda x: float(x @ x)
    grad = lambda x: 2.0 * x
    x, _ = x_step(obj, ProjectedGradientMethod(box=((0.5, 1.0),)), gradient=grad)
    assert x[0] == pytest.approx(0.5, abs=1e-10)


def test_projected_gradient_needs_gradient():
    with pytest.raises(ValueError):
        x_step(lambda z: 0.0, ProjectedGradientMethod(box=((0.0, 1.0),)))


def test_solve_joint_single_scenario_degenerate():
    prog = quad_program()
    spec = QuadraticPenalty(p_nu=np.array([1.0]), theta_nu=5.0)
    report = solve_joint(prog, spec,
                         SolveConfig(x_method=GridMethod(box=((-2.0, 2.0),),
                                                         resolution=1e-2)))
    assert report.u_final == pytest.approx(np.zeros(1))
    # min of x^2 + x on the grid is at x = -0.5
    assert report.x_final[0] == pytest.approx(-0.5, abs=1e-9)


def test_solve_joint_recovers_true_decision():
    bundle = build_example("ex21", 100)
    config = SolveConfig(x_method=GridMethod(box=bundle.box, resolution=1e-3))
    report = solve_joint(bundle.perturbed, bundle.spec, config)
    assert report.x_final[0] >= 0.99


def test_solve_joint_support_variant():
    bundle = build_example("ex23", 100)
    config = SolveConfig(x_method=GridMethod(box=bundle.box, resolution=1e-2),
                         v_box=bundle.v_box, v_resolution=bundle.v_resolution)
    report = solve_joint(bundle.perturbed, bundle.spec, config)
    assert report.x_final[0] <= 0.01
    assert report.plain_objective == pytest.approx(0.75, abs=0.01)
    assert report.v_final is not None


def random_nonconvex_program(rng):
    """s = 3 quadratic scenario costs a x^2 + c x + d on [-1, 1], a of either
    sign, under random base weights."""
    coef = rng.uniform(-2.0, 2.0, size=(3, 3))
    coef[:, 2] /= 2.0
    scen = [ScenarioFunction(evaluate=lambda x, a=a, c=c, d=d:
                             float(a * x[0] ** 2 + c * x[0] + d))
            for a, c, d in coef]
    prog = StochasticProgram(f0=ScenarioFunction(evaluate=lambda x: 0.0),
                             scenarios=scen, p=rng.dirichlet(np.ones(3)), n=1)
    return prog, coef


def project_rows_to_simplex(V):
    """Euclidean projection of every row of V onto the probability simplex."""
    S = -np.sort(-V, axis=1)
    css = np.cumsum(S, axis=1) - 1.0
    ks = np.arange(1, V.shape[1] + 1)
    rho = np.sum(S - css / ks > 0, axis=1)
    tau = css[np.arange(len(V)), rho - 1] / rho
    return np.maximum(V - tau[:, None], 0.0)


@pytest.mark.parametrize("seed", range(20))
def test_solve_joint_reaches_grid_exact_joint_minimum(seed):
    # alternating u- and x-steps can stall at a partial minimum on these
    rng = np.random.default_rng(900 + seed)
    prog, coef = random_nonconvex_program(rng)
    theta = float(rng.uniform(0.5, 2.0))
    xs = grid_axis(-1.0, 1.0, 1e-2)
    F = coef[:, 0] * xs[:, None] ** 2 + coef[:, 1] * xs[:, None] + coef[:, 2]
    Q = project_rows_to_simplex(prog.p - F / theta)
    U = Q - prog.p
    joint = float(np.min(np.sum(Q * F, axis=1) + 0.5 * theta * np.sum(U * U, axis=1)))
    spec = QuadraticPenalty(p_nu=prog.p, theta_nu=theta)
    report = solve_joint(prog, spec, SolveConfig(
        x_method=GridMethod(box=((-1.0, 1.0),), resolution=1e-2)))
    assert report.value == pytest.approx(joint, rel=1e-9, abs=1e-12)


def random_support_program(rng):
    """s = 2 support points under the smooth nonconvex generator
    a sin(3z + bx) + c (z - x)^2 + dx, with random weights, penalties and
    tilt; returns the program, the spec and the generator's array form."""
    a, b, c, d = rng.uniform([0.5, -3.0, 0.1, -1.0], [2.0, 3.0, 1.0, 1.0])
    gen = lambda z, x: a * np.sin(3.0 * z + b * x) + c * (z - x) ** 2 + d * x
    xi = rng.uniform(-1.0, 1.0, size=(2, 1))
    p = rng.dirichlet(np.ones(2))
    spec = SupportPerturbation(p_nu=p, xi_nu=xi, theta_nu=float(rng.uniform(0.5, 2.0)),
                               lambda_nu=float(rng.uniform(0.5, 5.0)),
                               y_nu=rng.normal(scale=0.3, size=2))
    scen = [ScenarioFunction(evaluate=lambda x, z=z: float(gen(z[0], x[0])))
            for z in xi]
    prog = StochasticProgram(f0=ScenarioFunction(evaluate=lambda x: 0.0),
                             scenarios=scen, p=p, n=1, support=xi,
                             generator=lambda z, x: float(gen(z[0], x[0])))
    return prog, spec, gen


@pytest.mark.parametrize("seed", range(24))
def test_support_solve_reaches_exact_shift_enumeration(seed):
    # the joint minimum over every decision, every shift pair in V^2 and the
    # exact quadratic weight step at the shifted costs, which a point that is
    # optimal in u alone and in (x, v) alone can miss on these
    prog, spec, gen = random_support_program(np.random.default_rng(1300 + seed))
    xs, vs = grid_axis(-1.0, 1.0, 5e-2), grid_axis(-1.0, 1.0, 1e-1)
    X, V1, V2 = np.meshgrid(xs, vs, vs, indexing="ij")
    C = np.stack([gen(spec.xi_nu[0, 0] + V1, X).ravel(),
                  gen(spec.xi_nu[1, 0] + V2, X).ravel()], axis=1)
    p, theta, y = spec.p_nu, spec.theta_nu, spec.tilt()
    Q = project_rows_to_simplex(p - (C - y) / theta)
    U = Q - p
    exact = float(np.min(np.sum(Q * C, axis=1) + 0.5 * theta * np.sum(U * U, axis=1)
                         - U @ y + 0.5 * spec.lambda_nu * (V1 * V1 + V2 * V2).ravel()))
    report = solve_joint(prog, spec, SolveConfig(
        x_method=GridMethod(box=((-1.0, 1.0),), resolution=5e-2),
        v_box=(-1.0, 1.0), v_resolution=1e-1))
    assert report.value == pytest.approx(exact, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("nu", (10, 100, 1000))
def test_support_solve_not_above_brute_force_oracle(nu):
    b = build_example("ex23", nu)
    report = solve_joint(b.perturbed, b.spec, SolveConfig(
        x_method=GridMethod(box=b.box, resolution=1e-2),
        v_box=b.v_box, v_resolution=b.v_resolution))
    oracle = brute_force_oracle(b.perturbed, b.spec, 1e-2, b.box, 1e-2,
                                v_box=b.v_box, v_resolution=b.v_resolution)
    assert report.value <= oracle.value + 1e-12


def test_support_reduced_values_against_oracle_per_decision():
    # s = 3, so the min-plus program combines more than one pair; f0 is +inf
    # above x = 0.75 and the generator +inf at shifted points above 1.3
    calls = []

    def generator(z, x):
        calls.append(float(x[0]))
        if z[0] > 1.3 + 1e-12:
            return INF
        return float(np.cos(4.0 * z[0] - 2.0 * x[0]) + (z[0] - 0.5) ** 2 * x[0])

    xi = np.array([[-0.5], [0.2], [0.9]])
    f0 = ScenarioFunction(evaluate=lambda x: INF if x[0] > 0.75 + 1e-12
                          else 0.2 * float(x[0]))
    scen = [ScenarioFunction(evaluate=lambda x: 0.0) for _ in xi]
    prog = StochasticProgram(f0=f0, scenarios=scen, p=np.array([0.2, 0.5, 0.3]),
                             n=1, support=xi, generator=generator)
    spec = SupportPerturbation(p_nu=prog.p, xi_nu=xi, theta_nu=0.4, lambda_nu=1.5,
                               y_nu=np.array([0.1, -0.2, 0.05]))
    xs = _grid_array(((0.0, 1.0),), 0.1)
    v_axis = grid_axis(-1.0, 1.0, 0.25)
    vals, U, V = _reduced_grid_values(prog, spec, xs, v_axis)
    finite = xs[:, 0] <= 0.75 + 1e-12
    assert len(calls) == finite.sum() * 3 * v_axis.size
    assert max(calls) <= 0.75 + 1e-12
    grid = np.array(simplex_grid(3, 1e-2)) - spec.p_nu
    want, _, _ = solver._support_grid_values(prog, spec, xs, grid, v_axis)
    assert np.array_equal(np.isinf(vals), ~finite)
    assert np.all(vals[finite] <= want[finite] + 1e-12)
    for x, val, u, v in zip(xs[finite], vals[finite], U[finite], V[finite]):
        assert val == pytest.approx(
            eval_approx(spec, prog, PerturbationPoint(u, v), x), rel=1e-12, abs=1e-12)


def test_support_variant_entry_errors():
    b = build_example("ex23", 100)
    grid = GridMethod(box=b.box, resolution=1e-2)
    with pytest.raises(ValueError, match="grid method"):
        solve_joint(b.perturbed, b.spec, SolveConfig(
            x_method=ProjectedGradientMethod(box=b.box),
            v_box=b.v_box, v_resolution=b.v_resolution))
    with pytest.raises(ValueError, match="v_box"):
        solve_joint(b.perturbed, b.spec, SolveConfig(x_method=grid))
    with pytest.raises(ValueError, match="v_box"):
        brute_force_oracle(b.perturbed, b.spec, 1e-2, b.box, 1e-2)
    flat = SupportPerturbation(p_nu=b.spec.p_nu, xi_nu=np.zeros((2, 2)),
                               theta_nu=1.0, lambda_nu=1.0)
    with pytest.raises(ValueError, match="1-d"):
        solve_joint(b.perturbed, flat, SolveConfig(
            x_method=grid, v_box=b.v_box, v_resolution=b.v_resolution))
    with pytest.raises(ValueError, match="1-d"):
        brute_force_oracle(b.perturbed, flat, 1e-2, b.box, 1e-2,
                           v_box=b.v_box, v_resolution=b.v_resolution)


def variant_cases():
    ex21 = build_example("ex21", 100)
    p21 = ex21.spec.p_nu
    grid21 = GridMethod(box=ex21.box, resolution=1e-2)
    ex22 = build_example("ex22", 1000)
    ex23 = build_example("ex23", 100)
    return [
        ("exact", ex21.perturbed, ExactIndicator(), SolveConfig(x_method=grid21)),
        ("quadratic", ex21.perturbed, ex21.spec, SolveConfig(x_method=grid21)),
        ("kl", ex21.perturbed, PhiDivergencePenalty(p_nu=p21, theta_nu=0.1,
                                                   family=FAMILIES["kl"]),
         SolveConfig(x_method=grid21)),
        ("l1", ex21.perturbed, L1Penalty(p_nu=p21, theta=0.1),
         SolveConfig(x_method=grid21)),
        ("composite", ex22.perturbed, ex22.spec,
         SolveConfig(x_method=GridMethod(box=ex22.box, resolution=5e-2))),
        ("support", ex23.perturbed, ex23.spec,
         SolveConfig(x_method=GridMethod(box=ex23.box, resolution=1e-2),
                     v_box=ex23.v_box, v_resolution=ex23.v_resolution)),
    ]


def test_solve_joint_value_is_relaxation_at_reported_point():
    kinds = set()
    for name, prog, spec, config in variant_cases():
        report = solve_joint(prog, spec, config)
        if isinstance(spec, ExactIndicator):
            expect = eval_exact(prog, report.u_final, report.x_final)
        elif isinstance(spec, SupportPerturbation):
            expect = eval_approx(spec, prog, PerturbationPoint(
                report.u_final, report.v_final), report.x_final)
        else:
            expect = eval_approx(spec, prog, report.u_final, report.x_final)
        assert np.isfinite(report.value), name
        assert report.value == pytest.approx(expect, rel=1e-12, abs=1e-12), name
        assert report.trace == [report.value] and report.iterations == 1, name
        kinds.add(type(spec))
    assert len(kinds) == 6


def test_solve_joint_bit_reproducible():
    bundle = build_example("ex21", 100)
    config = SolveConfig(x_method=GridMethod(box=bundle.box, resolution=1e-3))
    r1 = solve_joint(bundle.perturbed, bundle.spec, config)
    r2 = solve_joint(bundle.perturbed, bundle.spec, config)
    assert np.array_equal(r1.x_final, r2.x_final)
    assert np.array_equal(r1.u_final, r2.u_final)
    assert r1.value == r2.value
    assert r1.trace == r2.trace


def test_solve_joint_detects_unbounded():
    f0 = ScenarioFunction(evaluate=lambda x: 0.0)
    scen = [ScenarioFunction(evaluate=lambda x: -2e15 * float(x[0])),
            ScenarioFunction(evaluate=lambda x: -2e15 * float(x[0]))]
    prog = StochasticProgram(f0=f0, scenarios=scen, p=np.array([0.5, 0.5]), n=1)
    spec = QuadraticPenalty(p_nu=prog.p, theta_nu=1.0)
    report = solve_joint(prog, spec,
                         SolveConfig(x_method=GridMethod(box=((0.0, 1.0),),
                                                         resolution=0.5)))
    assert report.unbounded


def test_oracle_actual_argmins():
    bundle21 = build_example("ex21", 10)
    res = brute_force_oracle(bundle21.actual, ExactIndicator(), 1e-2,
                             bundle21.box, 1e-3, deltas=(0.0,))
    assert res.x[0] == pytest.approx(1.0, abs=1e-12)
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert res.argmin_sets[0.0].shape[0] == 1

    bundle23 = build_example("ex23", 10)
    res = brute_force_oracle(bundle23.actual, ExactIndicator(), 1e-2,
                             bundle23.box, 1e-3, deltas=(0.0,))
    assert res.x[0] == pytest.approx(0.0, abs=1e-12)
    assert res.value == pytest.approx(0.75, abs=1e-12)


def test_oracle_unique_quadratic_tie_set():
    prog = quad_program()
    res = brute_force_oracle(prog, ExactIndicator(), 1e-2, ((-1.0, 1.0),),
                             1e-2, deltas=(0.0,))
    assert res.argmin_sets[0.0].shape[0] == 1
    assert res.x[0] == pytest.approx(-0.5, abs=1e-9)


def test_oracle_rejects_large_simplex():
    prog = StochasticProgram(
        f0=ScenarioFunction(evaluate=lambda x: 0.0),
        scenarios=[ScenarioFunction(evaluate=lambda x: float(i))
                   for i in range(5)],
        p=np.full(5, 0.2), n=1)
    spec = QuadraticPenalty(p_nu=prog.p, theta_nu=1.0)
    with pytest.raises(ValueError):
        brute_force_oracle(prog, spec, 0.5, ((0.0, 1.0),), 0.5)


def test_solve_matches_oracle_on_convex_instance():
    bundle = build_example("ex21", 100)
    config = SolveConfig(x_method=GridMethod(box=bundle.box, resolution=1e-2))
    oracle = brute_force_oracle(bundle.perturbed, bundle.spec, 1e-2,
                                bundle.box, 1e-2)
    report = solve_joint(bundle.perturbed, bundle.spec, config,
                         oracle_value=oracle.value)
    assert report.epsilon_certificate is not None
    assert report.epsilon_certificate <= 1e-2


def test_solve_config_validation():
    with pytest.raises(ValueError):
        GridMethod(box=((0.0, 1.0),), resolution=0.0)


@pytest.mark.parametrize("box,resolution", [
    (((0.0, 1.0),), 1e-3),
    (((-1.0, 1.0), (-1.5, 1.5)), 1e-2),
    (((0.0, 1.0), (-0.3, 0.7), (2.0, 2.5)), 0.05),
])
def test_grid_array_equals_grid_points_bit_for_bit(box, resolution):
    xs = _grid_array(box, resolution)
    ref = np.array(list(grid_points(box, resolution)))
    assert xs.shape == ref.shape == (len(ref), len(box))
    assert np.array_equal(xs.view(np.int64), ref.view(np.int64))


def test_grid_array_keeps_the_evaluation_cap():
    box = ((0.0, 1.0),) * 3
    assert 1001 ** 3 > MAX_GRID_EVALS
    with pytest.raises(ValueError, match="cap"):
        _grid_array(box, 1e-3)


def reweighting_specs(p, theta):
    specs = [QuadraticPenalty(p_nu=p, theta_nu=theta), L1Penalty(p_nu=p, theta=theta)]
    specs += [PhiDivergencePenalty(p_nu=p, theta_nu=theta, family=fam)
              for _, fam in sorted(FAMILIES.items())]
    return specs


def spec_id(spec):
    return getattr(getattr(spec, "family", None), "tag", type(spec).__name__)


#: random costs; an infinite cost; every cost infinite; a spread of exactly
#: 2 theta (theta = 0.5) under which the l1 weights stay put
COST_ROWS = np.array([[0.3, -1.2, 0.8], [1.0, INF, 0.2], [INF, INF, INF],
                      [0.0, 1.0, 1.0], [2.0, -0.5, 1.5]])


def assert_rows_are_one_row_steps(spec, C):
    U, vals = u_step_rows(spec, C)
    for k, costs in enumerate(C):
        u, val = u_step(spec, costs)
        assert np.array_equal(U[k], u) and vals[k] == val, k
    return U, vals


def assert_matches_grid_oracle(spec, costs, val):
    _, gval = u_step_grid_oracle(spec, costs)
    if gval == INF:  # e.g. burg: Phi(0) = +inf, so the +inf cost is unavoidable
        assert val == INF
    else:
        assert abs(val - gval) <= 1e-6, (spec_id(spec), costs, val, gval)


@pytest.mark.parametrize("spec", reweighting_specs(np.array([0.2, 0.5, 0.3]), 0.5),
                         ids=spec_id)
def test_batched_u_step_rows_match_one_row_steps_and_grid_oracle(spec):
    U, vals = assert_rows_are_one_row_steps(spec, COST_ROWS)
    assert np.array_equal(U[2], -spec.p_nu) and vals[2] == INF
    assert np.all(U[1, 1] + spec.p_nu[1] == 0.0)  # no weight on the +inf cost
    for k in (0, 1):
        assert_matches_grid_oracle(spec, COST_ROWS[k], vals[k])
    if isinstance(spec, L1Penalty):
        assert np.all(U[3] == 0.0)
        assert_matches_grid_oracle(spec, COST_ROWS[3], vals[3])


@pytest.mark.parametrize("spec", reweighting_specs(np.array([0.5, 0.5, 0.0]), 0.5),
                         ids=spec_id)
def test_batched_u_step_with_zero_base_weight(spec):
    _, vals = assert_rows_are_one_row_steps(spec, COST_ROWS)
    assert_matches_grid_oracle(spec, COST_ROWS[0], vals[0])


@pytest.mark.parametrize("spec", [s for s in reweighting_specs(
    np.array([0.2, 0.5, 0.3]), 0.0) if spec_id(s) in ("QuadraticPenalty",
                                                       "L1Penalty", "kl")],
    ids=spec_id)
def test_batched_u_step_without_penalty(spec):
    _, vals = assert_rows_are_one_row_steps(spec, COST_ROWS)
    assert_matches_grid_oracle(spec, COST_ROWS[3], vals[3])


def reference_phi_rows(fam, theta, p, c, face, nudge=0.0):
    """The divergence dual by plain bisection on the multiplier: the loop the
    regula falsi step replaced, with the same bracket and 1e-15 tolerance.
    ``nudge`` moves each searched row's multiplier by that many half-widths
    of its stopping tolerance."""
    rows = np.arange(len(c))
    pos = face & (p > 0.0)
    zero_cost = np.where(face & ~pos, c + theta * fam.limit_slope, INF)
    cap = zero_cost.min(axis=1)

    def mass(mu, cost, on):
        return np.where(on, p * fam.dphi_inv((mu[:, None] - cost) / theta),
                        0.0).sum(axis=1)

    with np.errstate(all="ignore"):
        capped = cap < INF
        capped[capped] = mass(cap[capped], c[capped], pos[capped]) < 1.0
        mu = cap.copy()
        at = rows[~capped]
        cost, on = c[at], pos[at]
        lo = np.where(on, cost, INF).min(axis=1)
        hi = np.where(on, cost, -INF).max(axis=1)
        span = np.maximum(1.0, hi - lo)
        short = np.flatnonzero(mass(hi, cost, on) < 1.0)
        while short.size:
            hi[short] += span[short]
            span[short] *= 2.0
            short = short[mass(hi[short], cost[short], on[short]) < 1.0]
        hi = np.minimum(hi, cap[at])
        for _ in range(200):
            if not at.size:
                break
            mid = 0.5 * (lo + hi)
            low = mass(mid, cost, on) < 1.0
            lo, hi = np.where(low, mid, lo), np.where(low, hi, mid)
            done = hi - lo < 1e-15 * np.maximum(1.0, np.abs(hi))
            if done.any():
                mu[at[done]] = 0.5 * (lo[done] + hi[done])
                keep = ~done
                at, cost, on, lo, hi = at[keep], cost[keep], on[keep], lo[keep], hi[keep]
        mu[at] = 0.5 * (lo + hi)
        mu[~capped] += nudge * 0.5e-15 * np.maximum(1.0, np.abs(mu[~capped]))
        t = np.minimum(fam.dphi_inv((mu[:, None] - c) / theta), 1.0 / p)
        Q = np.where(pos, np.maximum(p * t, 0.0), 0.0)
    total = Q.sum(axis=1)
    Q[~capped] /= total[~capped, None]
    Q[rows[capped], np.argmin(zero_cost[capped], axis=1)] = 1.0 - total[capped]
    return Q


#: the families whose u-step solves the divergence dual, and a user-defined
#: one that gives only (Phi')^-1: Phi = 2 kl, so (Phi')^-1(z) = exp(z / 2)
DUAL_FAMILIES = [fam for _, fam in sorted(FAMILIES.items()) if fam.dphi_inv] + [
    PhiFamily("2kl", lambda t: 2.0 * FAMILIES["kl"].phi(t), INF,
              dphi_inv=lambda z: np.exp(np.minimum(z, 1400.0) / 2.0))]


def counted(fam):
    """fam with a (Phi')^-1 that appends to the returned list at each call."""
    evals = []

    def counting(z):
        evals.append(1)
        return fam.dphi_inv(z)

    return dataclasses.replace(fam, dphi_inv=counting), evals


def seeded_dual_cases():
    """(p, theta, C) for s in (1, 2, 4, 24, 64) and five thetas from 0.05 to
    10: base weights drawn as the benchmark draws them (each at least
    1/(2s)), the same with a third of them set to zero (capped under a
    finite limit_slope, excluded under an infinite one), and one weight 1.
    C has six rows with cost spreads from 1e-2 to 1e3; row 1 holds one +inf."""
    rng = np.random.default_rng(2013)
    for s in (1, 2, 4, 24, 64):
        for theta in (0.05, 0.3, 1.0, 2.0, 10.0):
            p = 0.5 / s + 0.5 * rng.dirichlet(np.ones(s))
            zero = p.copy()
            zero[rng.permutation(s)[:(s + 1) // 3]] = 0.0
            one = np.zeros(s)
            one[rng.integers(s)] = 1.0
            for base in (p / p.sum(), zero / zero.sum(), one):
                C = rng.uniform(-0.5, 0.5, (6, s)) * 10.0 ** rng.uniform(-2, 3, (6, 1))
                C[1, rng.integers(s)] = INF
                yield base, theta, C


@pytest.mark.parametrize("fam", DUAL_FAMILIES, ids=lambda fam: fam.tag)
def test_divergence_step_matches_reference_bisection(fam, monkeypatch):
    for p, theta, C in seeded_dual_cases():
        spec = PhiDivergencePenalty(p_nu=p, theta_nu=theta, family=fam)
        U, vals = u_step_rows(spec, C)
        refs = []
        for nudge in (0.0, -1.0, 1.0):
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_phi_rows",
                              functools.partial(reference_phi_rows, nudge=nudge))
                refs.append(u_step_rows(spec, C))
        vals_ref = refs[0][1]
        case = (p.size, theta, p.max())
        assert np.array_equal(np.isfinite(vals), np.isfinite(vals_ref)), case
        finite = np.isfinite(vals_ref)
        # relative to max(1, |value|): a value near 0 is a sum of far larger
        # terms, and rounds in their last place
        np.testing.assert_allclose(vals[finite], vals_ref[finite], rtol=1e-12,
                                   atol=1e-12, err_msg=str(case))
        # the reference fixes its multiplier only to within its stopping
        # width, and next to a pole of (Phi')^-1 its weights move by more
        # than 1e-10 across that width: they must agree to 1e-10 beyond it
        low = np.minimum.reduce([U_ref for U_ref, _ in refs])
        high = np.maximum.reduce([U_ref for U_ref, _ in refs])
        assert np.all(U >= low - 1e-10) and np.all(U <= high + 1e-10), case


@pytest.mark.parametrize("fam", DUAL_FAMILIES, ids=lambda fam: fam.tag)
def test_divergence_step_evaluation_count(fam):
    # the reference bisection takes about 56 evaluations per call here
    family, evals = counted(fam)
    steps = 0
    for p, theta, C in seeded_dual_cases():
        before = len(evals)
        u_step_rows(PhiDivergencePenalty(p_nu=p, theta_nu=theta, family=family), C)
        steps += len(evals) > before
    assert len(evals) / steps <= 20.0


@pytest.mark.parametrize("costs, theta", [([0.0, -1250.0], 2.0),
                                          ([1000.0, 0.0, -1000.0], 0.05),
                                          ([1246.0, 1000.0], 1.0)])
def test_kl_step_when_the_secant_point_rounds_onto_an_end(costs, theta):
    # at |mu| near 1e3 the last secant correction can be below half an ulp
    # of mu, so the secant point rounds onto the bracket's end; it must not
    # start a run of bisections from the far end (about 50 evaluations)
    family, evals = counted(FAMILIES["kl"])
    c = np.array(costs)
    p = np.full(c.size, 1.0 / c.size)
    u, _ = u_step(PhiDivergencePenalty(p_nu=p, theta_nu=theta, family=family), c)
    closed = np.exp(-(c - c.min()) / theta)  # kl's weights are p exp(-c/theta), scaled
    assert np.allclose(p + u, closed / closed.sum(), rtol=0.0, atol=1e-12)
    assert len(evals) <= 10


def test_projected_gradient_takes_one_u_step_per_evaluated_point(monkeypatch):
    f0 = ScenarioFunction(evaluate=lambda x: float(x @ x),
                          gradient=lambda x: 2.0 * x)
    slopes = (np.array([0.3, -0.2]), np.array([-0.25, 0.1]), np.array([0.05, 0.3]))
    scen = [ScenarioFunction(evaluate=lambda x, c=c: float(c @ x) + float(x[0] ** 3),
                             gradient=lambda x, c=c: c + np.array([3.0 * x[0] ** 2, 0.0]))
            for c in slopes]
    prog = StochasticProgram(f0=f0, scenarios=scen, p=np.array([0.5, 0.3, 0.2]), n=2)
    evaluated, u_steps = [], []
    phase = ["objective"]
    real_x_step, real_u_step = solver.x_step, solver.u_step

    def spy_x_step(objective, method, gradient=None, x0=None):
        def counted(z):
            evaluated.append(tuple(z))
            return objective(z)

        def watched(z):
            phase[0] = "gradient"
            try:
                return gradient(z)
            finally:
                phase[0] = "objective"

        result = real_x_step(counted, method, gradient=watched, x0=x0)
        phase[0] = "after"  # solve_joint's u at the final iterate
        return result

    def spy_u_step(*args, **kwargs):
        u_steps.append(phase[0])
        return real_u_step(*args, **kwargs)

    monkeypatch.setattr(solver, "x_step", spy_x_step)
    monkeypatch.setattr(solver, "u_step", spy_u_step)
    for nu in (10, 100, 1000):
        evaluated.clear()
        u_steps.clear()
        phase[0] = "objective"
        p_nu = prog.p + np.array([1.0, -0.5, -0.5]) * (0.3 / nu)
        spec = QuadraticPenalty(p_nu=p_nu, theta_nu=5.0)
        report = solve_joint(prog, spec, SolveConfig(
            x_method=ProjectedGradientMethod(box=((-2.0, 2.0), (-2.0, 2.0)))))
        assert len(evaluated) > 3
        # the gradient and the reported u reuse the u-step of the accepted
        # point; the line search itself revisits some points
        assert set(u_steps) == {"objective"}, nu
        assert len(set(evaluated)) <= len(u_steps) <= len(evaluated), nu
        u, _ = real_u_step(spec, prog.costs(report.x_final), spec.tilt())
        assert np.array_equal(report.u_final, u)


def test_tabulated_reduced_objective_matches_pointwise_steps():
    # f0 is +inf below 0.1, scenario 3 is +inf above 0.6 and scenario 1 is
    # a step; the scalar costs have no evaluate_batch
    f0 = ScenarioFunction(evaluate=lambda x: INF if x[0] < 0.1 - 1e-12
                          else 0.3 * float(x[0]) ** 2)
    scen = [ScenarioFunction(evaluate=lambda x: 1.0 if x[0] > 0.45 else 0.0),
            ScenarioFunction(evaluate=lambda x: 1.0 - float(x[0])),
            ScenarioFunction(evaluate=lambda x: INF if x[0] > 0.6 + 1e-12
                             else -2.0 * float(x[0]))]
    prog = StochasticProgram(f0=f0, scenarios=scen, p=np.array([0.2, 0.5, 0.3]), n=1)
    xs = _grid_array(((0.0, 1.0),), 0.05)
    specs = [ExactIndicator()] + reweighting_specs(prog.p, 0.6)
    for spec in specs:
        vals, U, V = _reduced_grid_values(prog, spec, xs)
        assert V is None
        reduced = _reduced_objective(spec, prog)
        for x, val, u in zip(xs, vals, U):
            want, want_u = reduced(x)
            if want == INF:
                assert val == INF
            else:
                assert val == pytest.approx(want, rel=1e-12, abs=1e-15), spec_id(spec)
                assert np.array_equal(u, want_u), spec_id(spec)

    # the composite variant and the anchored one with a composite block
    b = build_example("ex22", 1000)
    xs = _grid_array(b.box, 0.1)
    block = b.perturbed.composite
    vals, U, _ = _reduced_grid_values(b.perturbed, b.spec, xs)
    for x, val, u in zip(xs, vals, U):
        want_u, _ = composite_u_step(b.spec, block.expectation(b.spec.p_nu, x), block.b)
        assert np.array_equal(u, want_u)
        assert val == pytest.approx(eval_approx(b.spec, b.perturbed, u, x), rel=1e-12)
    vals, _, _ = _reduced_grid_values(b.perturbed, ExactIndicator(), xs)
    want = [eval_exact(b.perturbed, np.zeros(1), x) for x in xs]
    assert np.array_equal(vals, want)
    assert np.isinf(vals).any() and np.isfinite(vals).any()
