"""Extended-real arithmetic and the scenario-program data model.

All scalar values live on the extended real line [-inf, +inf] with the
conventions 0*inf = 0 and inf - inf = inf, so that a zero-probability
scenario annihilates an infinite cost instead of poisoning the sum.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

INF = float("inf")

#: membership tolerance for probability vectors: sum within 1e-12 of 1,
#: components >= -1e-12.
SIMPLEX_ATOL = 1e-12


class ImproperFunctionError(ValueError):
    """An evaluator returned -inf, which proper functions never do."""


def ext_add(a: float, b: float) -> float:
    """Extended-real addition: any +inf operand dominates, even -inf."""
    if a == INF or b == INF:
        return INF
    if a == -INF or b == -INF:
        return -INF
    return a + b


def ext_mul(a: float, b: float) -> float:
    """Extended-real multiplication with the 0*inf = 0 convention."""
    if a == 0.0 or b == 0.0:
        return 0.0
    out = a * b
    # finite*finite can only produce nan from nan inputs, which we pass on
    return out


@dataclass(frozen=True)
class ScenarioFunction:
    """A proper extended-real function of the decision vector.

    ``gradient`` is only trusted on points where ``gradient_domain`` (if
    given) is true; the model permits discontinuous scenario costs, so
    differentiability is declared by the caller, never inferred.

    ``evaluate_batch`` optionally maps a (k, n) array of decisions to the k
    values ``evaluate`` gives at its rows, bit for bit; grid solves and
    oracles then fill whole cost columns with one call instead of k.
    """

    evaluate: Callable[[np.ndarray], float]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    gradient_domain: Optional[Callable[[np.ndarray], bool]] = None
    evaluate_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, x) -> float:
        val = float(self.evaluate(np.atleast_1d(np.asarray(x, dtype=float))))
        if val == -INF:
            raise ImproperFunctionError("scenario function returned -inf")
        return val

    def tabulate(self, X: np.ndarray) -> np.ndarray:
        """The values at each row of X: one ``evaluate_batch`` call if
        declared, else one call per row."""
        if self.evaluate_batch is None:
            return np.fromiter((self(x) for x in X), dtype=float, count=len(X))
        vals = np.asarray(self.evaluate_batch(X), dtype=float).reshape(len(X))
        if np.any(vals == -INF):
            raise ImproperFunctionError("scenario function returned -inf")
        return vals

    def grad(self, x) -> np.ndarray:
        if self.gradient is None:
            raise ValueError("no gradient declared for this scenario function")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.gradient_domain is not None and not self.gradient_domain(x):
            raise ValueError("gradient queried outside its declared validity region")
        return np.atleast_1d(np.asarray(self.gradient(x), dtype=float))

    def has_grad_at(self, x) -> bool:
        if self.gradient is None:
            return False
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self.gradient_domain is None or bool(self.gradient_domain(x))


@dataclass(frozen=True)
class CompositeBlock:
    """Constraint composition h(sum_i p_i G_i(x)) with h an upper-bound indicator.

    ``G_batch``, if given, holds one map per scenario from a (k, n) array of
    decisions to the (k, m) values of the matching ``G`` at its rows.
    """

    G: Sequence[Callable[[np.ndarray], np.ndarray]]
    b: np.ndarray
    m: int
    G_batch: Optional[Sequence[Callable[[np.ndarray], np.ndarray]]] = None

    def expectation(self, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.m)
        for w, g in zip(weights, self.G):
            if w != 0.0:
                out += w * np.atleast_1d(np.asarray(g(x), dtype=float))
        return out

    def expectation_table(self, weights: np.ndarray, X: np.ndarray) -> np.ndarray:
        """``expectation`` at each row of X, shape (k, m): the weighted maps
        are added in scenario order and zero weights skip their map."""
        out = np.zeros((len(X), self.m))
        for i, (w, g) in enumerate(zip(weights, self.G)):
            if w == 0.0:
                continue
            if self.G_batch is not None:
                col = np.asarray(self.G_batch[i](X), dtype=float)
            else:
                col = np.array([np.atleast_1d(np.asarray(g(x), dtype=float))
                                for x in X])
            out += w * col.reshape(len(X), self.m)
        return out


def check_simplex(p, atol: float = SIMPLEX_ATOL) -> np.ndarray:
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if p.ndim != 1 or p.size < 1:
        raise ValueError("probability vector must be a nonempty 1-d array")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"probability vector has a non-finite entry: {p}")
    if np.any(p < -atol):
        raise ValueError(f"negative probability component: min={p.min()}")
    if abs(p.sum() - 1.0) > max(atol, 1e-12 * p.size):
        raise ValueError(f"probabilities sum to {p.sum()}, not 1")
    return p


@dataclass(frozen=True)
class StochasticProgram:
    """f0 plus scenario costs f_1..f_s weighted by a probability vector."""

    f0: ScenarioFunction
    scenarios: Sequence[ScenarioFunction]
    p: np.ndarray
    n: int
    support: Optional[np.ndarray] = None  # shape (s, m)
    generator: Optional[Callable[[np.ndarray, np.ndarray], float]] = None
    composite: Optional[CompositeBlock] = None

    def __post_init__(self):
        if len(self.scenarios) < 1:
            raise ValueError("need at least one scenario")
        p = check_simplex(self.p)
        object.__setattr__(self, "p", p)
        if p.size != len(self.scenarios):
            raise ValueError("p length does not match scenario count")
        if self.support is not None:
            sup = np.atleast_2d(np.asarray(self.support, dtype=float))
            if sup.shape[0] != len(self.scenarios):
                raise ValueError("support size does not match scenario count")
            object.__setattr__(self, "support", sup)
            if self.generator is None:
                raise ValueError("support points require a generator map")

    @property
    def s(self) -> int:
        return len(self.scenarios)

    def costs(self, x) -> np.ndarray:
        """Vector F(x) = (f_1(x), ..., f_s(x)), entries possibly +inf."""
        return np.array([f(x) for f in self.scenarios])


def weighted_objective(program: StochasticProgram, weights, x) -> float:
    """f0(x) + sum_i weights_i f_i(x) under extended-real conventions."""
    weights = np.atleast_1d(np.asarray(weights, dtype=float))
    if weights.size != program.s:
        raise ValueError("weights length does not match scenario count")
    total = program.f0(x)
    for w, f in zip(weights, program.scenarios):
        if w == 0.0:
            continue  # 0*inf = 0: skip without evaluating the weight product
        total = ext_add(total, ext_mul(w, f(x)))
    return total


def check_gradient(fn: ScenarioFunction, x, tol: float = 1e-5, h: float = 1e-6) -> float:
    """Max relative mismatch between declared gradient and central differences."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    g = fn.grad(x)
    fd = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        fd[k] = (fn(x + e) - fn(x - e)) / (2 * h)
    err = np.abs(g - fd) / np.maximum(1.0, np.abs(fd))
    worst = float(err.max())
    if worst > tol:
        raise ValueError(f"gradient mismatch {worst} exceeds tolerance {tol}")
    return worst
