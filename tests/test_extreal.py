"""Extended-real arithmetic and the scenario-program data model."""
import numpy as np
import pytest

from rockrelax.extreal import (INF, CompositeBlock, ImproperFunctionError,
                               ScenarioFunction, StochasticProgram,
                               check_gradient, check_simplex, ext_add,
                               ext_mul, weighted_objective)


def make_program(values, weights, f0_value=0.0):
    scenarios = [ScenarioFunction(evaluate=lambda x, v=v: v) for v in values]
    f0 = ScenarioFunction(evaluate=lambda x: f0_value)
    return StochasticProgram(f0=f0, scenarios=scenarios,
                             p=np.asarray(weights, dtype=float), n=1)


def test_zero_times_infinity_is_zero():
    assert ext_mul(0.0, INF) == 0.0
    assert ext_mul(INF, 0.0) == 0.0
    assert ext_mul(0.0, -INF) == 0.0


def test_infinity_minus_infinity_is_plus_infinity():
    assert ext_add(INF, -INF) == INF
    assert ext_add(-INF, INF) == INF


def test_plain_arithmetic_untouched():
    assert ext_add(1.5, 2.0) == 3.5
    assert ext_mul(3.0, -2.0) == -6.0
    assert ext_add(-INF, -1.0) == -INF


def test_combine_total_on_all_nine_pairs():
    specials = [-INF, 1.5, INF]
    for a in specials:
        for b in specials:
            for op in (ext_add, ext_mul):
                out = op(a, b)
                assert isinstance(out, float)
                assert not np.isnan(out)


def test_addition_monotone_in_each_argument():
    vals = [-INF, -3.0, 0.0, 2.0, INF]
    for c in vals:
        for a in vals:
            for b in vals:
                if a <= b:
                    assert ext_add(a, c) <= ext_add(b, c)


def test_zero_weight_annihilates_infinite_cost():
    prog = make_program([2.0, INF], [1.0, 0.0])
    assert weighted_objective(prog, prog.p, np.zeros(1)) == 2.0


def test_positive_weight_on_infinite_cost_dominates():
    prog = make_program([3.0, INF], [0.5, 0.5])
    assert weighted_objective(prog, prog.p, np.zeros(1)) == INF


def test_weighted_objective_plain_average():
    prog = make_program([1.0, 2.0], [0.3, 0.7])
    assert weighted_objective(prog, prog.p, np.zeros(1)) == pytest.approx(1.7, abs=1e-12)


def test_zero_weight_scenario_never_evaluated():
    def explode(x):
        raise RuntimeError("must not be called")

    scenarios = [ScenarioFunction(evaluate=lambda x: 1.0),
                 ScenarioFunction(evaluate=explode)]
    prog = StochasticProgram(f0=ScenarioFunction(evaluate=lambda x: 0.0),
                             scenarios=scenarios, p=np.array([1.0, 0.0]), n=1)
    assert weighted_objective(prog, prog.p, np.zeros(1)) == 1.0


def test_weights_length_checked():
    prog = make_program([1.0, 2.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        weighted_objective(prog, np.array([1.0]), np.zeros(1))


def test_improper_function_raises():
    fn = ScenarioFunction(evaluate=lambda x: -INF)
    with pytest.raises(ImproperFunctionError):
        fn(np.zeros(1))


def test_gradient_domain_gates_grad():
    fn = ScenarioFunction(evaluate=lambda x: abs(float(x[0])),
                          gradient=lambda x: np.sign(x),
                          gradient_domain=lambda x: abs(float(x[0])) > 1e-9)
    assert fn.has_grad_at(np.array([1.0]))
    assert not fn.has_grad_at(np.array([0.0]))
    with pytest.raises(ValueError):
        fn.grad(np.array([0.0]))


def test_no_gradient_declared():
    fn = ScenarioFunction(evaluate=lambda x: 0.0)
    assert not fn.has_grad_at(np.zeros(1))
    with pytest.raises(ValueError):
        fn.grad(np.zeros(1))


def test_check_gradient_quadratic():
    fn = ScenarioFunction(evaluate=lambda x: float(x @ x),
                          gradient=lambda x: 2.0 * x, smooth=True)
    worst = check_gradient(fn, np.array([0.3, -0.7]))
    assert worst < 1e-5


def test_check_gradient_flags_wrong_gradient():
    fn = ScenarioFunction(evaluate=lambda x: float(x @ x),
                          gradient=lambda x: 3.0 * x)
    with pytest.raises(ValueError):
        check_gradient(fn, np.array([1.0]))


def test_check_simplex_accepts_and_rejects():
    check_simplex(np.array([0.25, 0.75]))
    with pytest.raises(ValueError):
        check_simplex(np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        check_simplex(np.array([-0.1, 1.1]))


def test_composite_block_skips_zero_weights():
    def explode(x):
        raise RuntimeError("must not be called")

    block = CompositeBlock(G=[lambda x: np.array([2.0 * float(x[0])]), explode],
                           b=np.array([1.0]), m=1)
    out = block.expectation(np.array([1.0, 0.0]), np.array([3.0]))
    assert out == pytest.approx(np.array([6.0]))


def test_program_validates_sizes():
    with pytest.raises(ValueError):
        StochasticProgram(f0=ScenarioFunction(evaluate=lambda x: 0.0),
                          scenarios=[ScenarioFunction(evaluate=lambda x: 0.0)],
                          p=np.array([0.5, 0.5]), n=1)


def test_costs_vector():
    prog = make_program([1.0, INF], [0.5, 0.5])
    fx = prog.costs(np.zeros(1))
    assert fx[0] == 1.0 and fx[1] == INF


def test_tabulate_uses_batch_and_rejects_minus_infinity():
    X = np.linspace(0.0, 1.0, 5)[:, None]
    calls = []
    fn = ScenarioFunction(evaluate=lambda x: calls.append(x) or float(x[0]),
                          evaluate_batch=lambda X: 2.0 * X[:, 0])
    assert fn.tabulate(X) == pytest.approx(2.0 * X[:, 0])
    assert not calls  # the batch evaluator filled the column
    bad = ScenarioFunction(evaluate=lambda x: 0.0,
                           evaluate_batch=lambda X: np.where(X[:, 0] > 0.5, -INF, 0.0))
    with pytest.raises(ImproperFunctionError):
        bad.tabulate(X)


def test_tabulate_without_batch_calls_once_per_row():
    X = np.linspace(0.0, 1.0, 5)[:, None]
    calls = []
    fn = ScenarioFunction(evaluate=lambda x: calls.append(x) or float(x[0]) ** 2)
    assert fn.tabulate(X) == pytest.approx(X[:, 0] ** 2)
    assert len(calls) == 5
    with pytest.raises(ImproperFunctionError):
        ScenarioFunction(evaluate=lambda x: -INF).tabulate(X)


def test_expectation_table_without_batch_maps_skips_zero_weights():
    def explode(x):
        raise RuntimeError("must not be called")

    block = CompositeBlock(G=[lambda x: np.array([2.0 * float(x[0])]), explode],
                           b=np.array([1.0]), m=1)
    X = np.array([[3.0], [0.5]])
    table = block.expectation_table(np.array([1.0, 0.0]), X)
    assert table == pytest.approx(np.array([[6.0], [1.0]]))
