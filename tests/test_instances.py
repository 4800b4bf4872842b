"""Built-in example programs, the catalog, and config-driven construction."""
import numpy as np
import pytest

from rockrelax.extreal import INF, check_gradient
from rockrelax.instances import (BUILTIN_NAMES, ConfigError, HEAVISIDE_ATOL,
                                 build_example, build_from_config, heaviside,
                                 instantiate, make_scenario, perturbed_weights)
from rockrelax.rockafellian import (CompositePenalty, QuadraticPenalty,
                                    SupportPerturbation)


def test_heaviside_threshold():
    assert heaviside(0.0) == 0.0
    assert heaviside(HEAVISIDE_ATOL / 2.0) == 0.0
    assert heaviside(1e-8) == 1.0
    assert heaviside(0.5) == 1.0
    assert heaviside(-1.0) == 0.0


def test_catalog_linear_and_quadratic():
    lin = make_scenario("linear", {"c": [2.0, -1.0], "d": 0.5}, 2)
    x = np.array([1.0, 1.0])
    assert lin(x) == pytest.approx(1.5)
    check_gradient(lin, x)
    quad = make_scenario("quadratic", {"a": [1.0], "c": [0.0], "d": -1.0}, 1)
    assert quad(np.array([2.0])) == pytest.approx(3.0)
    check_gradient(quad, np.array([0.7]))


def test_catalog_hinge_gradient_domain():
    hinge = make_scenario("hinge", {"feature": [1.0], "label": 1.0}, 2)
    # margin = x[0] + x[1]; at margin 1 the kink is excluded
    assert hinge(np.array([0.0, 0.0])) == 1.0
    assert not hinge.has_grad_at(np.array([0.5, 0.5]))
    assert hinge.has_grad_at(np.array([1.0, 1.0]))
    assert hinge.grad(np.array([1.0, 1.0])) == pytest.approx(np.zeros(2))


def test_catalog_indicator_box():
    ind = make_scenario("indicator-box", {"lo": [0.0], "hi": [1.0]}, 1)
    assert ind(np.array([0.5])) == 0.0
    assert ind(np.array([1.5])) == INF


def test_catalog_cross_entropy():
    ce = make_scenario("cross-entropy", {"feature": [1.0], "label": 1.0}, 1)
    assert ce(np.zeros(1)) == pytest.approx(np.log(2.0))
    check_gradient(ce, np.array([0.3]))


def test_catalog_unknown_tag():
    with pytest.raises(ValueError):
        make_scenario("mystery", {}, 1)


def test_builtin_names_and_bounds():
    assert BUILTIN_NAMES == ("ex21", "ex22", "ex23")
    with pytest.raises(ValueError):
        build_example("ex21", 1)
    with pytest.raises(ValueError):
        build_example("nope", 10)


def test_ex21_construction():
    bundle = build_example("ex21", 10)
    assert isinstance(bundle.spec, QuadraticPenalty)
    assert bundle.actual.p == pytest.approx(np.array([1.0, 0.0]))
    assert bundle.spec.p_nu == pytest.approx(np.array([0.9, 0.1]))
    # scenario costs at x = 1: (1, nu)
    assert bundle.actual.costs(np.array([1.0])) == pytest.approx(
        np.array([0.0, 10.0]))


def test_ex22_construction_and_zbar_modes():
    bundle = build_example("ex22", 100)
    assert isinstance(bundle.spec, CompositePenalty)
    assert bundle.perturbed.composite is not None
    frozen = build_example("ex22", 100, zbar_mode="frozen")
    x = np.array([0.5, 0.0])
    ev_p = bundle.perturbed.composite.expectation(bundle.spec.p_nu, x)
    ev_f = frozen.perturbed.composite.expectation(bundle.spec.p_nu, x)
    # the perturbation moves mass between two points sharing z = 1, so the
    # mean of z (and hence the constraint) is the same under both modes
    assert ev_p[0] == pytest.approx(ev_f[0], abs=1e-12)


def test_ex23_construction():
    bundle = build_example("ex23", 100)
    assert isinstance(bundle.spec, SupportPerturbation)
    assert bundle.spec.lambda_nu == pytest.approx(100.0 ** (4.0 / 3.0))
    assert bundle.spec.xi_nu == pytest.approx(np.array([[0.01], [1.0]]))
    assert bundle.v_box == (-1.0, 1.0)


def test_rebuild_is_deterministic():
    for name in BUILTIN_NAMES:
        a = build_example(name, 50)
        b = build_example(name, 50)
        assert np.array_equal(a.spec.p_nu, b.spec.p_nu)
        x = np.array([0.5]) if a.actual.n == 1 else np.array([0.5, 0.0])
        assert a.perturbed.costs(x) == pytest.approx(b.perturbed.costs(x))


def minimal_config():
    return {
        "name": "tiny",
        "n": 1,
        "s": 1,
        "scenarios": [{"tag": "linear", "params": {"c": [1.0]}}],
        "p": [1.0],
        "box": [[0.0, 1.0]],
    }


def test_minimal_config_valid():
    defn = build_from_config(minimal_config())
    assert defn.name == "tiny"
    prog = instantiate(defn)
    assert prog.costs(np.array([0.25]))[0] == pytest.approx(0.25)


def test_config_rejects_bad_simplex():
    cfg = minimal_config()
    cfg["s"] = 2
    cfg["scenarios"] = cfg["scenarios"] * 2
    cfg["p"] = [0.6, 0.6]
    with pytest.raises(ConfigError, match="p"):
        build_from_config(cfg)


def test_config_rejects_missing_field():
    cfg = minimal_config()
    del cfg["box"]
    with pytest.raises(ConfigError, match="box"):
        build_from_config(cfg)


def test_config_rejects_count_mismatch():
    cfg = minimal_config()
    cfg["s"] = 2
    with pytest.raises(ConfigError, match="scenarios"):
        build_from_config(cfg)


def test_config_rejects_unknown_tag():
    cfg = minimal_config()
    cfg["scenarios"] = [{"tag": "mystery"}]
    with pytest.raises(ConfigError):
        build_from_config(cfg)


def test_config_rejects_extra_properties():
    cfg = minimal_config()
    cfg["surprise"] = True
    with pytest.raises(ConfigError):
        build_from_config(cfg)


def test_perturbed_weights_kinds():
    defn = build_from_config(minimal_config())
    assert perturbed_weights(defn, 10) == pytest.approx(np.array([1.0]))

    cfg = minimal_config()
    cfg["s"] = 2
    cfg["scenarios"] = [{"tag": "linear", "params": {"c": [1.0]}},
                        {"tag": "linear", "params": {"c": [-1.0]}}]
    cfg["p"] = [0.5, 0.5]
    cfg["perturbation"] = {"kind": "empirical"}
    defn = build_from_config(cfg)
    a = perturbed_weights(defn, 100, seed=4)
    b = perturbed_weights(defn, 100, seed=4)
    assert np.array_equal(a, b)
    assert a.sum() == pytest.approx(1.0)

    cfg["perturbation"] = {"kind": "explicit",
                           "params": {"weights": {"10": [0.9, 0.1]}}}
    defn = build_from_config(cfg)
    assert perturbed_weights(defn, 10) == pytest.approx(np.array([0.9, 0.1]))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def scalar_values(fn, X):
    return np.array([fn(x) for x in X])


CATALOG = [
    ("linear", {"c": [0.3, -1.7], "d": 0.25}, 2),
    ("quadratic", {"a": [0.7, 1.3], "c": [-0.4, 0.9], "d": -0.1}, 2),
    ("hinge", {"feature": [1.5], "label": -1.0}, 2),
    ("heaviside-composite", {"xi": 0.3}, 1),
    ("indicator-box", {"lo": [-0.5, -0.2], "hi": [0.5, 0.4]}, 2),
    ("cross-entropy", {"feature": [2.0, -3.5], "label": 1.0}, 2),
    ("cross-entropy", {"feature": [40.0, -35.0], "label": -1.0}, 2),
]


@pytest.mark.parametrize("tag,params,n", CATALOG, ids=lambda v: str(v)[:20])
def test_catalog_evaluate_batch_matches_call_bit_for_bit(tag, params, n):
    rng = np.random.default_rng(5)
    fn = make_scenario(tag, params, n)
    X = rng.uniform(-1.0, 1.0, size=(400, n))  # half outside the indicator box
    if tag == "heaviside-composite":
        # arguments on and next to the step's HEAVISIDE_ATOL threshold
        edge = HEAVISIDE_ATOL - 0.3
        X = np.concatenate([X, [[edge], [np.nextafter(edge, 1.0)],
                                [np.nextafter(edge, -1.0)], [-0.3]]])
    if tag == "hinge":
        X = np.concatenate([X, [[0.0, -1.0], [2.0, 2.0]]])  # margins 1 and < 1
    values = fn.tabulate(X)
    assert fn.evaluate_batch is not None
    assert same_bits(values, scalar_values(fn, X))
    if tag == "indicator-box":
        assert np.isinf(values).any() and (values == 0.0).any()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_evaluate_batch_matches_call_bit_for_bit(name):
    bundle = build_example(name, 100)
    lo, hi = np.array(bundle.box).T
    # the box widened by a third on each side, so ex23's f0 is +inf in part
    X = np.random.default_rng(8).uniform(lo - (hi - lo) / 3, hi + (hi - lo) / 3,
                                         size=(500, lo.size))
    if name == "ex23":
        X = np.concatenate([X, [[HEAVISIDE_ATOL - 0.01], [HEAVISIDE_ATOL - 1.0],
                                [0.0], [1.0]]])
    for prog in (bundle.actual, bundle.perturbed):
        for fn in [prog.f0] + list(prog.scenarios):
            assert fn.evaluate_batch is not None
            assert same_bits(fn.tabulate(X), scalar_values(fn, X))
        if name == "ex23":
            assert np.isinf(prog.f0.tabulate(X)).any()
        block = prog.composite
        if block is not None:
            for w in (prog.p, bundle.spec.p_nu, np.array([0.2, 0.0, 0.8])):
                table = block.expectation_table(w, X)
                assert same_bits(table, np.array([block.expectation(w, x) for x in X]))


def test_config_composite_evaluate_batch_matches_call():
    cfg = minimal_config()
    cfg["composite"] = {"b": [0.5], "G": [{"tag": "linear", "params": {"c": [2.0]}}]}
    cfg["f0"] = {"tag": "quadratic", "params": {"a": [1.0]}}
    defn = build_from_config(cfg)
    X = np.linspace(-1.0, 1.0, 41)[:, None]
    assert same_bits(defn.f0.tabulate(X), scalar_values(defn.f0, X))
    block = defn.composite
    assert block.G_batch is not None
    assert same_bits(block.expectation_table(np.array([1.0]), X),
                     np.array([block.expectation(np.array([1.0]), x) for x in X]))
    no_f0 = build_from_config(minimal_config()).f0
    assert same_bits(no_f0.tabulate(X), np.zeros(len(X)))


def test_config_rejects_composite_bound_with_several_entries():
    cfg = minimal_config()
    cfg["composite"] = {"b": [0.5, 1.0],
                        "G": [{"tag": "linear", "params": {"c": [2.0]}}]}
    with pytest.raises(ConfigError, match="composite/b"):
        build_from_config(cfg)


def test_config_rejects_zbar_mode():
    cfg = minimal_config()
    cfg["composite"] = {"b": [0.5], "zbar_mode": "frozen",
                        "G": [{"tag": "linear", "params": {"c": [2.0]}}]}
    with pytest.raises(ConfigError, match="composite"):
        build_from_config(cfg)


def test_explicit_perturbation_without_the_scale_is_a_config_error():
    cfg = minimal_config()
    cfg["perturbation"] = {"kind": "explicit",
                           "params": {"weights": {"10": [1.0]}}}
    defn = build_from_config(cfg)
    assert perturbed_weights(defn, 10) == pytest.approx(np.array([1.0]))
    with pytest.raises(ConfigError, match="nu = 100"):
        perturbed_weights(defn, 100)
    cfg["perturbation"]["params"]["weights"]["100"] = [0.5]
    with pytest.raises(ConfigError, match="weights/100"):
        perturbed_weights(build_from_config(cfg), 100)
