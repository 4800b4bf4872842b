"""Relaxation variants: anchored evaluation, penalties, and certificates."""
import numpy as np
import pytest

from rockrelax.divergence import FAMILIES
from rockrelax.extreal import INF, ScenarioFunction, StochasticProgram
from rockrelax.instances import build_example
from rockrelax.rockafellian import (CertificateReport, CompositePenalty,
                                    ExactIndicator, L1Penalty,
                                    PerturbationPoint, PhiDivergencePenalty,
                                    QuadraticPenalty, SupportPerturbation,
                                    check_exactness_certificate,
                                    default_u_samples, eval_approx, eval_exact)
from rockrelax.solver import make_min_value_oracle, simplex_grid


def constant_program(values, weights, f0_value=0.0):
    scenarios = [ScenarioFunction(evaluate=lambda x, v=v: v) for v in values]
    return StochasticProgram(f0=ScenarioFunction(evaluate=lambda x: f0_value),
                             scenarios=scenarios,
                             p=np.asarray(weights, float), n=1)


def test_exact_value_on_step_function_example():
    bundle = build_example("ex23", 100)
    assert eval_exact(bundle.actual, np.zeros(2), np.array([0.0])) == \
        pytest.approx(0.75, abs=1e-12)


def test_exact_is_infinite_off_anchor():
    prog = constant_program([1.0, 2.0], [0.5, 0.5])
    assert eval_exact(prog, np.array([0.1, -0.1]), np.zeros(1)) == INF


def test_exact_zero_weight_annihilation():
    prog = constant_program([5.0, INF], [1.0, 0.0])
    assert eval_exact(prog, np.zeros(2), np.zeros(1)) == 5.0


def test_exact_dimension_mismatch():
    prog = constant_program([1.0, 2.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        eval_exact(prog, np.zeros(3), np.zeros(1))


def test_quadratic_penalty_at_shifted_anchor():
    # weights moved back to the actual p at x = 1: only the penalty remains
    for nu in (10, 100):
        bundle = build_example("ex21", nu)
        u = bundle.actual.p - bundle.spec.p_nu
        val = eval_approx(bundle.spec, bundle.perturbed, u, np.array([1.0]))
        assert val == pytest.approx(bundle.spec.theta_nu / nu ** 2, rel=1e-12)


def test_quadratic_penalty_at_zero_perturbation():
    bundle = build_example("ex21", 50)
    for x in (0.0, 0.25, 0.5, 1.0):
        val = eval_approx(bundle.spec, bundle.perturbed, np.zeros(2),
                          np.array([x]))
        assert val == pytest.approx(0.5 * (1.0 + x), abs=1e-12)


def test_simplex_indicator_fires():
    prog = constant_program([1.0, 2.0], [0.5, 0.5])
    spec = QuadraticPenalty(p_nu=np.array([0.5, 0.5]), theta_nu=1.0)
    # p_nu + u has a -0.2 entry
    assert eval_approx(spec, prog, np.array([-0.7, 0.7]), np.zeros(1)) == INF


def test_eval_approx_rejects_exact_variant():
    prog = constant_program([1.0], [1.0])
    with pytest.raises(ValueError):
        eval_approx(ExactIndicator(), prog, np.zeros(1), np.zeros(1))


def test_tilt_subtraction():
    prog = constant_program([1.0, 2.0], [0.5, 0.5])
    spec = QuadraticPenalty(p_nu=np.array([0.5, 0.5]), theta_nu=2.0,
                            y_nu=np.array([3.0, -1.0]))
    u = np.array([0.1, -0.1])
    with_tilt = eval_approx(spec, prog, u, np.zeros(1))
    without = eval_approx(spec, prog, u, np.zeros(1), include_tilt=False)
    assert with_tilt == pytest.approx(without - float(spec.y_nu @ u), abs=1e-12)


def test_relaxed_minimum_never_exceeds_actual():
    rng = np.random.default_rng(41)
    for _ in range(10):
        costs = rng.normal(size=3) * 2.0
        p = rng.dirichlet(np.ones(3))
        prog = constant_program(list(costs), p)
        spec = QuadraticPenalty(p_nu=p, theta_nu=float(rng.uniform(0.5, 5.0)))
        actual = eval_exact(prog, np.zeros(3), np.zeros(1))
        best = min(eval_approx(spec, prog, q - p, np.zeros(1))
                   for q in simplex_grid(3, 0.05))
        assert best <= actual + 1e-12


def test_zero_theta_reweighting_lower_bounds_expectation():
    p = np.array([0.3, 0.7])
    prog = constant_program([4.0, 1.0], p)
    spec = QuadraticPenalty(p_nu=p, theta_nu=0.0)
    best = min(eval_approx(spec, prog, q - p, np.zeros(1))
               for q in simplex_grid(2, 0.01))
    assert best <= eval_exact(prog, np.zeros(2), np.zeros(1)) + 1e-12


def test_support_variant_with_zero_shift_matches_quadratic():
    bundle = build_example("ex23", 20)
    spec = bundle.spec
    quad = QuadraticPenalty(p_nu=spec.p_nu, theta_nu=spec.theta_nu)
    for q in simplex_grid(2, 0.25):
        u = q - spec.p_nu
        point = PerturbationPoint(u, np.zeros_like(spec.xi_nu))
        for x in (0.0, 0.5, 1.0):
            a = eval_approx(spec, bundle.perturbed, point, np.array([x]))
            b = eval_approx(quad, bundle.perturbed, u, np.array([x]))
            assert a == pytest.approx(b, abs=1e-12)


def test_support_shape_mismatch():
    bundle = build_example("ex23", 20)
    point = PerturbationPoint(np.zeros(2), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        eval_approx(bundle.spec, bundle.perturbed, point, np.zeros(1))


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadraticPenalty(p_nu=np.array([0.6, 0.6]), theta_nu=1.0)
    with pytest.raises(ValueError):
        QuadraticPenalty(p_nu=np.array([0.5, 0.5]), theta_nu=-1.0)
    with pytest.raises(ValueError):
        L1Penalty(p_nu=np.array([0.5, 0.5]), theta=-0.1)



#: each spec class from its strength, the other fields valid
SPEC_WITH_STRENGTH = {
    "quadratic": lambda p, theta: QuadraticPenalty(p_nu=p, theta_nu=theta),
    "l1": lambda p, theta: L1Penalty(p_nu=p, theta=theta),
    "kl": lambda p, theta: PhiDivergencePenalty(p_nu=p, theta_nu=theta,
                                                family=FAMILIES["kl"]),
    "support": lambda p, theta: SupportPerturbation(
        p_nu=p, xi_nu=np.zeros((2, 1)), theta_nu=theta, lambda_nu=1.0),
    "composite": lambda p, theta: CompositePenalty(p_nu=p, theta_nu=theta),
}


@pytest.mark.parametrize("kind", sorted(SPEC_WITH_STRENGTH))
@pytest.mark.parametrize("theta", [np.nan, np.inf])
def test_specs_reject_non_finite_theta(kind, theta):
    with pytest.raises(ValueError, match="theta_nu"):
        SPEC_WITH_STRENGTH[kind](np.array([0.5, 0.5]), theta)


def test_spec_names_non_finite_base_weights():
    with pytest.raises(ValueError, match="p_nu"):
        QuadraticPenalty(p_nu=np.array([np.nan, 1.0]), theta_nu=1.0)


@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_support_rejects_non_finite_lambda(lam):
    with pytest.raises(ValueError, match="lambda_nu"):
        SupportPerturbation(p_nu=np.array([0.5, 0.5]), xi_nu=np.zeros((2, 1)),
                            theta_nu=1.0, lambda_nu=lam)


def test_spec_rejects_non_finite_tilt():
    with pytest.raises(ValueError, match="y_nu"):
        QuadraticPenalty(p_nu=np.array([0.5, 0.5]), theta_nu=1.0,
                         y_nu=np.array([0.0, np.nan]))


def test_l1_strength_alias():
    p = np.array([0.5, 0.5])
    assert L1Penalty(p_nu=p, theta=0.3).theta_nu == 0.3
    assert L1Penalty(p_nu=p, theta_nu=0.3).theta_nu == 0.3
    with pytest.raises(TypeError):
        L1Penalty(p_nu=p, theta=0.3, theta_nu=0.3)

def test_default_u_samples_feasible():
    p = np.array([0.2, 0.3, 0.5])
    samples = default_u_samples(p, count=20, seed=3)
    assert len(samples) == 1 + 3 + 20
    for u in samples:
        q = p + u
        assert np.all(q >= -1e-9)
        assert q.sum() == pytest.approx(1.0, abs=1e-9)
    again = default_u_samples(p, count=20, seed=3)
    assert all(np.array_equal(a, b) for a, b in zip(samples, again))


def test_certificate_trivial_at_anchor_only():
    prog = constant_program([1.0, 2.0], [0.5, 0.5])
    oracle = make_min_value_oracle(prog, ExactIndicator(), [(0.0, 1.0)], 0.5)
    rep = check_exactness_certificate(ExactIndicator(), prog, np.zeros(2),
                                      [np.zeros(2)], oracle)
    assert rep.passed
    assert rep.n_samples == 1


def test_certificate_exact_variant_strict_for_any_tilt():
    prog = constant_program([1.0, 2.0], [0.5, 0.5])
    oracle = make_min_value_oracle(prog, ExactIndicator(), [(0.0, 1.0)], 0.5)
    samples = default_u_samples(prog.p, count=10, seed=0)
    for y_bar in (np.zeros(2), np.array([5.0, -7.0])):
        rep = check_exactness_certificate(ExactIndicator(), prog, y_bar,
                                          samples, oracle)
        assert rep.passed and rep.strict


def l1_flip_program():
    # scenario costs (0, -x) on x in [0, 1]: the min-value slope in u_2 is 1,
    # so the l1 relaxation is exact only for theta >= 1/2 with p = (1/2, 1/2)
    f0 = ScenarioFunction(evaluate=lambda x: 0.0 if -1e-12 <= float(x[0]) <= 1.0 + 1e-12 else INF)
    scenarios = [ScenarioFunction(evaluate=lambda x: 0.0),
                 ScenarioFunction(evaluate=lambda x: -float(x[0]))]
    return StochasticProgram(f0=f0, scenarios=scenarios,
                             p=np.array([0.5, 0.5]), n=1)


def test_l1_certificate_flips_with_theta():
    prog = l1_flip_program()
    samples = [q - prog.p for q in simplex_grid(2, 1e-2)]
    lo = L1Penalty(p_nu=prog.p, theta=0.1)
    hi = L1Penalty(p_nu=prog.p, theta=1.0)
    oracle_lo = make_min_value_oracle(prog, lo, [(0.0, 1.0)], 1e-2)
    oracle_hi = make_min_value_oracle(prog, hi, [(0.0, 1.0)], 1e-2)
    rep_lo = check_exactness_certificate(lo, prog, np.zeros(2), samples, oracle_lo)
    rep_hi = check_exactness_certificate(hi, prog, np.zeros(2), samples, oracle_hi)
    assert not rep_lo.passed
    assert len(rep_lo.violations) > 0
    assert rep_hi.passed


def test_certificate_requires_finite_anchor():
    prog = constant_program([INF, INF], [0.5, 0.5])
    oracle = make_min_value_oracle(prog, ExactIndicator(), [(0.0, 1.0)], 0.5)
    with pytest.raises(ValueError):
        check_exactness_certificate(ExactIndicator(), prog, np.zeros(2),
                                    [np.zeros(2)], oracle)
