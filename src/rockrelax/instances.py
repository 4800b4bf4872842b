"""Built-in example programs and instance construction from JSON configs."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np
from jsonschema import Draft202012Validator

from .analysis import theta_schedule
from .extreal import (INF, CompositeBlock, ScenarioFunction, StochasticProgram,
                      check_simplex)
from .rockafellian import (CompositePenalty, QuadraticPenalty,
                           RockafellianSpec, SupportPerturbation)
from .simplex import sample_empirical

#: slack for the step function's strict inequality so grid-generated shifts
#: that should cancel an argument exactly are not defeated by rounding
HEAVISIDE_ATOL = 1e-9

#: catalog tags whose evaluators carry no usable gradient anywhere
GRADIENT_FREE_TAGS = frozenset({"heaviside-composite", "indicator-box"})


def heaviside(gamma: float) -> float:
    return 1.0 if gamma > HEAVISIDE_ATOL else 0.0


def _step(gamma):
    """``heaviside`` on an array of arguments."""
    return np.where(gamma > HEAVISIDE_ATOL, 1.0, 0.0)


def _rowwise(fn, **kwargs) -> ScenarioFunction:
    """A scenario function whose evaluator takes one decision (n,) or a batch
    (k, n) alike, so that ``evaluate_batch`` is ``evaluate`` row by row."""
    return ScenarioFunction(evaluate=fn, evaluate_batch=fn, **kwargs)


def make_scenario(tag: str, params: Dict[str, Any], n: int) -> ScenarioFunction:
    """Resolve a catalog tag to an evaluator with declared gradient validity.

    Every evaluator works on the last axis, so it serves as its own
    ``evaluate_batch``. Inner products are ``(a * x).sum(axis=-1)``, not
    ``a @ x``: a BLAS dot product may fuse multiply-adds, and then a batch
    row and the same decision alone would round differently.
    """
    if tag == "linear":
        c = np.asarray(params["c"], dtype=float)
        d = float(params.get("d", 0.0))
        if c.size != n:
            raise ValueError("linear coefficient length mismatch")
        return _rowwise(lambda x: (c * x).sum(axis=-1) + d,
                        gradient=lambda x: c.copy(), smooth=True)
    if tag == "quadratic":
        a = np.asarray(params.get("a", np.ones(n)), dtype=float)
        c = np.asarray(params.get("c", np.zeros(n)), dtype=float)
        d = float(params.get("d", 0.0))
        if a.size != n or c.size != n:
            raise ValueError("quadratic coefficient length mismatch")
        return _rowwise(
            lambda x: (a * (x * x)).sum(axis=-1) + (c * x).sum(axis=-1) + d,
            gradient=lambda x: 2.0 * a * x + c, smooth=True)
    if tag == "hinge":
        feat = np.asarray(params["feature"], dtype=float)
        label = float(params["label"])
        if feat.size != n - 1:
            raise ValueError("hinge feature length must be n - 1")

        def margin(x):
            return label * ((feat * x[..., :-1]).sum(axis=-1) + x[..., -1])

        return _rowwise(
            lambda x: np.maximum(0.0, 1.0 - margin(x)),
            gradient=lambda x: (np.zeros(n) if margin(x) > 1.0
                                else -label * np.append(feat, 1.0)),
            gradient_domain=lambda x: abs(1.0 - margin(x)) > 1e-12)
    if tag == "heaviside-composite":
        xi = float(params["xi"])
        return _rowwise(lambda x: _step(xi + x[..., 0]))
    if tag == "indicator-box":
        lo = np.asarray(params["lo"], dtype=float)
        hi = np.asarray(params["hi"], dtype=float)

        def indicator(x):
            inside = np.all((x >= lo - 1e-12) & (x <= hi + 1e-12), axis=-1)
            return np.where(inside, 0.0, INF)

        return _rowwise(indicator)
    if tag == "cross-entropy":
        feat = np.asarray(params["feature"], dtype=float)
        label = float(params["label"])
        if feat.size != n:
            raise ValueError("cross-entropy feature length mismatch")

        def ce(x):
            z = -label * (feat * x).sum(axis=-1)
            return np.where(z < 30, np.log1p(np.exp(np.minimum(z, 30.0))), z)

        def ce_grad(x):
            z = -label * float(feat @ x)
            return -label * feat / (1.0 + math.exp(-z))

        return _rowwise(ce, gradient=ce_grad, smooth=True)
    raise ValueError(f"unknown catalog tag {tag!r}")


CONFIG_SCHEMA = {
    "type": "object",
    "required": ["name", "n", "s", "scenarios", "p", "box"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        "n": {"type": "integer", "minimum": 1},
        "s": {"type": "integer", "minimum": 1},
        "f0": {"$ref": "#/$defs/fn"},
        "scenarios": {"type": "array", "minItems": 1,
                      "items": {"$ref": "#/$defs/fn"}},
        "p": {"type": "array", "items": {"type": "number"}},
        "box": {"type": "array",
                "items": {"type": "array", "items": {"type": "number"},
                          "minItems": 2, "maxItems": 2}},
        "composite": {
            "type": "object",
            "required": ["b", "G"],
            "additionalProperties": False,
            "properties": {
                "b": {"type": "array", "items": {"type": "number"}},
                "G": {"type": "array", "items": {"$ref": "#/$defs/fn"}},
            },
        },
        "perturbation": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["none", "empirical", "explicit"]},
                "params": {"type": "object"},
            },
        },
    },
    "$defs": {
        "fn": {
            "type": "object",
            "required": ["tag"],
            "additionalProperties": False,
            "properties": {"tag": {"type": "string"},
                           "params": {"type": "object"}},
        },
    },
}

_VALIDATOR = Draft202012Validator(CONFIG_SCHEMA)


class ConfigError(ValueError):
    """Configuration rejected, with a JSON-path diagnostic."""


@dataclass(frozen=True)
class InstanceDef:
    name: str
    n: int
    s: int
    f0: ScenarioFunction
    scenarios: Tuple[ScenarioFunction, ...]
    scenario_tags: Tuple[str, ...]
    p: np.ndarray
    box: Tuple[Tuple[float, float], ...]
    composite: Optional[CompositeBlock] = None
    perturbation: Optional[Dict[str, Any]] = None


def build_from_config(config: Dict[str, Any]) -> InstanceDef:
    """Validate a parsed JSON document and resolve it to an instance."""
    errors = sorted(_VALIDATOR.iter_errors(config), key=lambda e: list(e.path))
    if errors:
        e = errors[0]
        path = "/".join(str(p) for p in e.path) or "<root>"
        raise ConfigError(f"config field {path}: {e.message}")
    n = config["n"]
    s = config["s"]
    if len(config["scenarios"]) != s:
        raise ConfigError("config field scenarios: count does not match s")
    try:
        p = check_simplex(np.asarray(config["p"], dtype=float))
    except ValueError as exc:
        raise ConfigError(f"config field p: {exc}") from None
    if p.size != s:
        raise ConfigError("config field p: length does not match s")
    if len(config["box"]) != n:
        raise ConfigError("config field box: need one interval per dimension")
    try:
        scenarios = tuple(make_scenario(fn["tag"], fn.get("params", {}), n)
                          for fn in config["scenarios"])
        tags = tuple(fn["tag"] for fn in config["scenarios"])
        if "f0" in config:
            f0 = make_scenario(config["f0"]["tag"],
                               config["f0"].get("params", {}), n)
        else:
            f0 = _rowwise(lambda x: np.zeros(x.shape[:-1]),
                          gradient=lambda x: np.zeros(n), smooth=True)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"config field scenarios: {exc}") from None
    composite = None
    if "composite" in config:
        comp = config["composite"]
        b = np.asarray(comp["b"], dtype=float)
        if b.size != 1:
            raise ConfigError("config field composite/b: each map in G is one "
                              "catalog function, so b needs exactly one entry")
        gs = [make_scenario(fn["tag"], fn.get("params", {}), n)
              for fn in comp["G"]]
        if len(gs) != s:
            raise ConfigError("config field composite/G: need one map per scenario")
        composite = CompositeBlock(
            G=[(lambda x, g=g: np.array([g(x)])) for g in gs],
            b=b, m=1, G_batch=[(lambda X, g=g: g.tabulate(X)[:, None]) for g in gs])
    box = tuple((float(lo), float(hi)) for lo, hi in config["box"])
    return InstanceDef(name=config["name"], n=n, s=s, f0=f0,
                       scenarios=scenarios, scenario_tags=tags, p=p, box=box,
                       composite=composite,
                       perturbation=config.get("perturbation"))


def instantiate(defn: InstanceDef, p: Optional[np.ndarray] = None
                ) -> StochasticProgram:
    return StochasticProgram(f0=defn.f0, scenarios=list(defn.scenarios),
                             p=defn.p if p is None else p, n=defn.n,
                             composite=defn.composite)


def perturbed_weights(defn: InstanceDef, nu: int, seed: int = 0) -> np.ndarray:
    """Resolve the instance's perturbation family at scale nu."""
    pert = defn.perturbation or {"kind": "none"}
    kind = pert["kind"]
    if kind == "none":
        return defn.p.copy()
    params = pert.get("params", {})
    if kind == "empirical":
        return sample_empirical(defn.p, nu, seed=seed)
    if kind == "explicit":
        table = params.get("weights", {})
        if str(nu) not in table:
            raise ConfigError("config field perturbation/params/weights: "
                              f"no weights for nu = {nu}")
        try:
            return check_simplex(np.asarray(table[str(nu)], dtype=float))
        except ValueError as exc:
            raise ConfigError(f"config field perturbation/params/weights/{nu}: "
                              f"{exc}") from None
    raise ConfigError(f"unknown perturbation kind {kind!r}")


def check_method_compatibility(tags: Sequence[str], method) -> None:
    """Gradient-based decision steps are rejected on step-function catalogs."""
    from .solver import ProjectedGradientMethod
    if isinstance(method, ProjectedGradientMethod):
        bad = [t for t in tags if t in GRADIENT_FREE_TAGS]
        if bad:
            raise ConfigError(
                f"tags {bad} have no declared gradients anywhere; "
                "use the grid method for these scenarios")


@dataclass(frozen=True)
class ExampleBundle:
    """A built-in example at one perturbation scale."""

    name: str
    nu: int
    actual: StochasticProgram
    perturbed: StochasticProgram
    spec: RockafellianSpec
    box: Tuple[Tuple[float, float], ...]
    v_box: Optional[Tuple[float, float]] = None
    v_resolution: Optional[float] = None


def _box_indicator(lo: float, hi: float) -> ScenarioFunction:
    return make_scenario("indicator-box", {"lo": [lo], "hi": [hi]}, 1)


def _build_ex21(nu: int) -> ExampleBundle:
    # one decision on [0, 1]; scenario costs xi*x + (1 - x)/2 on support {0, nu}
    def cost(xi: float) -> ScenarioFunction:
        return _rowwise(lambda x: xi * x[..., 0] + 0.5 * (1.0 - x[..., 0]),
                        gradient=lambda x: np.array([xi - 0.5]), smooth=True)

    f0 = _box_indicator(0.0, 1.0)
    scenarios = [cost(0.0), cost(float(nu))]
    p = np.array([1.0, 0.0])
    p_nu = np.array([1.0 - 1.0 / nu, 1.0 / nu])
    actual = StochasticProgram(f0=f0, scenarios=scenarios, p=p, n=1)
    perturbed = StochasticProgram(f0=f0, scenarios=scenarios, p=p_nu, n=1)
    spec = QuadraticPenalty(p_nu=p_nu, theta_nu=theta_schedule(p_nu, p))
    return ExampleBundle(name="ex21", nu=nu, actual=actual, perturbed=perturbed,
                         spec=spec, box=((0.0, 1.0),))


def _build_ex22(nu: int, zbar_mode: str = "perturbed",
                theta_nu: float = 0.1) -> ExampleBundle:
    # decision (a, alpha); data points (x, y, z) with hinge losses and a
    # covariance bound of 0.25 on the sensitive attribute
    points = [(-1.0, -1.0, 0.0), (1.0, 1.0, 1.0), (float(nu), 1.0, 1.0)]
    p = np.array([0.5, 0.5, 0.0])
    p_nu = np.array([0.5, 0.5 - 1.0 / nu, 1.0 / nu])
    f0 = _rowwise(lambda x: x[..., 0] ** 2,
                  gradient=lambda x: np.array([2.0 * x[0], 0.0]), smooth=True)
    scenarios = [make_scenario("hinge", {"feature": [xv], "label": yv}, 2)
                 for xv, yv, _ in points]

    def block_for(weights: np.ndarray) -> CompositeBlock:
        zbar = float(sum(w * z for w, (_, _, z) in zip(weights, points)))
        # each map takes one decision or a (k, 2) batch of them
        gs = [(lambda x, xv=xv, z=z:
               ((z - zbar) * (xv * x[..., 0] + x[..., 1]))[..., None])
              for xv, _, z in points]
        return CompositeBlock(G=gs, b=np.array([0.25]), m=1, G_batch=gs)

    actual = StochasticProgram(f0=f0, scenarios=scenarios, p=p, n=2,
                               composite=block_for(p))
    weights_for_zbar = p if zbar_mode == "frozen" else p_nu
    perturbed = StochasticProgram(f0=f0, scenarios=scenarios, p=p_nu, n=2,
                                  composite=block_for(weights_for_zbar))
    spec = CompositePenalty(p_nu=p_nu, theta_nu=theta_nu)
    return ExampleBundle(name="ex22", nu=nu, actual=actual, perturbed=perturbed,
                         spec=spec, box=((-1.0, 1.0), (-1.5, 1.5)))


def _build_ex23(nu: int) -> ExampleBundle:
    # step-function costs H(xi + x) with quadratic pull toward x = 1
    def f0_eval(x):
        v = x[..., 0]
        return np.where((v < -1e-12) | (v > 1.0 + 1e-12), INF,
                        0.25 * (v - 1.0) ** 2)

    f0 = _rowwise(f0_eval)

    def generator(xi: np.ndarray, x: np.ndarray) -> float:
        return heaviside(float(xi[0]) + float(x[0]))

    def cost(xi: float) -> ScenarioFunction:
        return _rowwise(lambda x: _step(xi + x[..., 0]))

    p = np.array([0.5, 0.5])
    xi_actual = np.array([[0.0], [1.0]])
    xi_nu = np.array([[1.0 / nu], [1.0]])
    actual = StochasticProgram(f0=f0, scenarios=[cost(0.0), cost(1.0)], p=p,
                               n=1, support=xi_actual, generator=generator)
    perturbed = StochasticProgram(f0=f0,
                                  scenarios=[cost(1.0 / nu), cost(1.0)], p=p,
                                  n=1, support=xi_nu, generator=generator)
    lam = float(nu) ** (4.0 / 3.0)
    spec = SupportPerturbation(p_nu=p, xi_nu=xi_nu,
                               theta_nu=theta_schedule(p, p), lambda_nu=lam)
    return ExampleBundle(name="ex23", nu=nu, actual=actual, perturbed=perturbed,
                         spec=spec, box=((0.0, 1.0),),
                         v_box=(-1.0, 1.0), v_resolution=1e-2)


BUILTIN_NAMES = ("ex21", "ex22", "ex23")


def build_example(name: str, nu: int, **kwargs) -> ExampleBundle:
    """One of the built-in programs at perturbation scale nu (nu >= 2)."""
    if nu < 2:
        raise ValueError("nu must be at least 2")
    if name == "ex21":
        return _build_ex21(nu)
    if name == "ex22":
        return _build_ex22(nu, **kwargs)
    if name == "ex23":
        return _build_ex23(nu)
    raise ValueError(f"unknown example {name!r}; choose from {BUILTIN_NAMES}")
