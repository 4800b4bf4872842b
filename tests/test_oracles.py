"""Grid oracles against a scalar reference enumeration, and how often they
evaluate the program."""
import dataclasses

import numpy as np
import pytest

from rockrelax.divergence import FAMILIES
from rockrelax.extreal import INF, ScenarioFunction, StochasticProgram, ext_add, ext_mul
from rockrelax.instances import build_example
from rockrelax.rockafellian import (CompositePenalty, ExactIndicator, L1Penalty,
                                    PhiDivergencePenalty, QuadraticPenalty,
                                    SupportPerturbation, eval_approx, eval_exact)
from rockrelax.solver import (brute_force_oracle, grid_axis, grid_points,
                              make_min_value_oracle, simplex_grid)

DELTAS = (0.0, 1e-3, 1e-2, 0.1)


def scalar_candidates(program, spec, u_grid, x, v_axis):
    """(value, u, v) for every perturbation the oracle weighs at decision x,
    one scalar evaluation at a time."""
    if isinstance(spec, ExactIndicator):
        dim = program.composite.m if program.composite is not None else program.s
        u = np.zeros(dim)
        yield eval_exact(program, u, x), u, None
    elif isinstance(spec, CompositePenalty):
        block = program.composite
        u = np.minimum(spec.tilt(block.m) / spec.theta_nu,
                       block.b - block.expectation(spec.p_nu, x))
        yield eval_approx(spec, program, u, x), u, None
    elif isinstance(spec, SupportPerturbation):
        # the shift penalty separates per scenario, so each scenario takes its
        # best shift on its own axis
        f0 = program.f0(x)
        if f0 == INF:
            return
        costs = [[float(program.generator(spec.xi_nu[i] + np.array([vv]), x))
                  for vv in v_axis] for i in range(program.s)]
        pull = [0.5 * spec.lambda_nu * vv * vv for vv in v_axis]
        for u in u_grid:
            q = spec.p_nu + u
            total = f0 + 0.5 * spec.theta_nu * float(u @ u) - float(spec.tilt() @ u)
            v = np.zeros((program.s, 1))
            for i in range(program.s):
                vals = [ext_add(ext_mul(q[i], g), c) for g, c in zip(costs[i], pull)]
                j = int(np.argmin(vals))
                v[i, 0] = v_axis[j]
                total = ext_add(total, vals[j])
            yield total, u, v
    else:
        for u in u_grid:
            yield eval_approx(spec, program, u, x), u, None


def scalar_oracle(program, spec, u_resolution, x_box, x_resolution,
                  v_box=None, v_resolution=None):
    """Reference brute-force oracle: first strict minimum over u, then x."""
    u_grid = [q - spec.p_nu for q in simplex_grid(program.s, u_resolution)] \
        if hasattr(spec, "p_nu") and not isinstance(spec, CompositePenalty) else []
    v_axis = None if v_box is None else grid_axis(v_box[0], v_box[1], v_resolution)
    xs = list(grid_points(x_box, x_resolution))
    x_values = np.full(len(xs), INF)
    best = (INF, None, None, None)
    for ix, x in enumerate(xs):
        local = (INF, None, None)
        for cand in scalar_candidates(program, spec, u_grid, x, v_axis):
            if cand[0] < local[0]:
                local = cand
        x_values[ix] = local[0]
        if local[0] < best[0]:
            best = (local[0], x, local[1], local[2])
    sets = {d: np.array(xs)[x_values <= best[0] + d + 1e-12] for d in DELTAS}
    return best, sets


def assert_same_oracle(program, spec, u_resolution, x_box, x_resolution,
                       v_box=None, v_resolution=None):
    got = brute_force_oracle(program, spec, u_resolution, x_box, x_resolution,
                             deltas=DELTAS, v_box=v_box, v_resolution=v_resolution)
    (value, x, u, v), sets = scalar_oracle(program, spec, u_resolution, x_box,
                                           x_resolution, v_box, v_resolution)
    assert np.array_equal(got.x, x)
    assert np.array_equal(got.u, u)
    assert (got.v is None and v is None) or np.array_equal(got.v, v)
    assert got.value == pytest.approx(value, rel=1e-12, abs=0.0)
    for d in DELTAS:
        assert np.array_equal(got.argmin_sets[d], sets[d]), d
    return got


def scalar_min_value(program, spec, x_box, x_resolution, u):
    best = INF
    for x in grid_points(x_box, x_resolution):
        val = eval_exact(program, u, x) if isinstance(spec, ExactIndicator) \
            else eval_approx(spec, program, u, x)
        if val < best:
            best = val
    return best


def assert_same_min_values(program, spec, x_box, x_resolution, queries):
    oracle = make_min_value_oracle(program, spec, x_box, x_resolution)
    for u in queries:
        want = scalar_min_value(program, spec, x_box, x_resolution, u)
        got = oracle(u)
        if want == INF:
            assert got == INF
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), u


def patchy_program():
    """s = 3 on [0, 1]: f0 is +inf below 0.1, scenario 3 is +inf above 0.6,
    and scenario 1 is a step, so decisions tie."""
    f0 = ScenarioFunction(evaluate=lambda x: INF if x[0] < 0.1 - 1e-12
                          else 0.3 * float(x[0]) ** 2)
    scenarios = [
        ScenarioFunction(evaluate=lambda x: 1.0 if x[0] > 0.45 else 0.0),
        ScenarioFunction(evaluate=lambda x: 1.0 - float(x[0])),
        ScenarioFunction(evaluate=lambda x: INF if x[0] > 0.6 + 1e-12
                         else -2.0 * float(x[0])),
    ]
    return StochasticProgram(f0=f0, scenarios=scenarios,
                             p=np.array([0.2, 0.5, 0.3]), n=1)


def simplex_specs(p):
    specs = [QuadraticPenalty(p_nu=p, theta_nu=0.7, y_nu=np.array([0.1, 0.0, -0.2])),
             L1Penalty(p_nu=p, theta=0.4)]
    specs += [PhiDivergencePenalty(p_nu=p, theta_nu=0.6, family=fam)
              for _, fam in sorted(FAMILIES.items())]
    return specs


@pytest.mark.parametrize("spec", simplex_specs(np.array([0.2, 0.5, 0.3])),
                         ids=lambda s: getattr(getattr(s, "family", None), "tag",
                                               type(s).__name__))
def test_simplex_oracles_match_scalar_enumeration(spec):
    prog = patchy_program()
    got = assert_same_oracle(prog, spec, 0.1, [(0.0, 1.0)], 0.05)
    assert got.x[0] >= 0.1  # the f0 = +inf region never wins
    queries = [np.zeros(3), got.u, np.array([0.8, -0.5, -0.3]),
               np.array([-0.2, -0.5, 0.7]), np.array([0.5, 0.5, -1.0])]
    assert_same_min_values(prog, spec, [(0.0, 1.0)], 0.05, queries)


def test_exact_oracles_match_scalar_enumeration():
    prog = patchy_program()
    assert_same_oracle(prog, ExactIndicator(), 0.1, [(0.0, 1.0)], 0.05)
    assert_same_min_values(prog, ExactIndicator(), [(0.0, 1.0)], 0.05,
                           [np.zeros(3), np.array([0.1, -0.1, 0.0])])
    actual = build_example("ex22", 10).actual  # carries a composite block
    assert_same_min_values(actual, ExactIndicator(), build_example("ex22", 10).box,
                           0.1, [np.zeros(1), np.array([0.2])])


@pytest.mark.parametrize("name,nu,resolution", [
    ("ex21", 10, 1e-3), ("ex22", 1000, 1e-2), ("ex23", 100, 1e-2)])
def test_cli_builtin_oracles_match_scalar_enumeration(name, nu, resolution):
    # the CLI's settings: u-grid 1e-2 and each example's default x resolution
    b = build_example(name, nu)
    assert_same_oracle(b.perturbed, b.spec, 1e-2, b.box, resolution,
                       b.v_box, b.v_resolution)


def test_support_and_composite_min_values_match_scalar_loop():
    b23 = build_example("ex23", 100)
    queries = [np.zeros(2), np.array([0.3, -0.3]), np.array([-0.01, 0.01]),
               np.array([2.0, -2.0])]
    assert_same_min_values(b23.perturbed, b23.spec, b23.box, 1e-2, queries)
    b22 = build_example("ex22", 1000)
    assert_same_min_values(b22.perturbed, b22.spec, b22.box, 0.1,
                           [np.zeros(1), np.array([0.3]), np.array([-0.4]),
                            np.array([5.0])])


def counted(fn, calls):
    def wrapper(*args):
        calls.append(args)
        return fn(*args)
    return wrapper


def counting_program(program, calls):
    """The program with every evaluator appending its arguments to
    calls[name]."""
    wrap = lambda f, key: ScenarioFunction(evaluate=counted(f.evaluate, calls.setdefault(key, [])))
    changes = {"f0": wrap(program.f0, "f0"),
               "scenarios": [wrap(f, i) for i, f in enumerate(program.scenarios)]}
    if program.generator is not None:
        changes["generator"] = counted(program.generator,
                                       calls.setdefault("generator", []))
    return dataclasses.replace(program, **changes)


def test_oracle_evaluates_each_cost_once_per_decision():
    calls = {}
    prog = counting_program(patchy_program(), calls)
    n = len(list(grid_points([(0.0, 1.0)], 0.05)))
    spec = QuadraticPenalty(p_nu=prog.p, theta_nu=0.7)
    brute_force_oracle(prog, spec, 0.1, [(0.0, 1.0)], 0.05)
    for key in ("f0", 0, 1, 2):
        assert len(calls[key]) == n
        assert len({tuple(x[0]) for x in calls[key]}) == n

    # the min-value oracle tabulates on first use and then reuses
    calls.clear()
    prog = counting_program(patchy_program(), calls)
    oracle = make_min_value_oracle(prog, spec, [(0.0, 1.0)], 0.05)
    oracle(np.array([0.8, -0.5, -0.3]))  # weight on scenario 1 only
    assert len(calls["f0"]) == n and len(calls[0]) == n
    assert not calls[1] and not calls[2]
    for u in (np.zeros(3), np.array([-0.2, 0.1, 0.1])):
        oracle(u)
    assert all(len(calls[key]) == n for key in ("f0", 0, 1, 2))


def test_support_oracle_calls_generator_once_per_point_and_shift():
    calls = {}
    b = build_example("ex23", 100)
    prog = counting_program(b.perturbed, calls)
    # +inf f0 on half the box: the oracle must not call the generator there
    f0 = prog.f0
    prog = dataclasses.replace(prog, f0=ScenarioFunction(
        evaluate=lambda x: INF if x[0] > 0.5 + 1e-12 else f0(x)))
    brute_force_oracle(prog, b.spec, 1e-2, b.box, 1e-2,
                       v_box=b.v_box, v_resolution=b.v_resolution)
    nv = grid_axis(b.v_box[0], b.v_box[1], b.v_resolution).size
    finite_xs = [x for x in grid_points(b.box, 1e-2) if x[0] <= 0.5 + 1e-12]
    gen = calls["generator"]
    assert len(gen) == len(finite_xs) * prog.s * nv
    assert max(float(x[0]) for _, x in gen) <= 0.5 + 1e-12
    per_decision = {}
    for _, x in gen:
        per_decision[float(x[0])] = per_decision.get(float(x[0]), 0) + 1
    assert set(per_decision.values()) == {prog.s * nv}
