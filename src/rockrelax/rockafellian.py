"""Bivariate relaxations of the scenario program and the exactness certificate.

Every variant is one Rockafellian f(u, x) = f0(x) + sum_i q_i f_i(x) +
penalty(u) - <y, u> whose slice at the anchor u = 0 reproduces the actual
objective. The variants differ only in the weights q they apply, their
penalty (+inf off their perturbation set), a constraint block or support
shifts, and, where u moves the weights on the simplex (q = p_nu + u), the
exact weight step the solver takes. Each spec class states its own; the
solver and the oracles read them from there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .divergence import PhiFamily, phi_divergence_rows
from .extreal import (INF, StochasticProgram, check_simplex, ext_add, ext_mul,
                      weighted_objective)

#: components of p_nu + u may undershoot 0 by this much before the simplex
#: indicator fires; loose enough for grid-generated perturbations.
MEMBERSHIP_ATOL = 1e-9


def _check_strength(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class PerturbationPoint:
    u: np.ndarray
    v: Optional[np.ndarray] = None  # shape (s, m), support shifts

    def __post_init__(self):
        object.__setattr__(self, "u", np.atleast_1d(np.asarray(self.u, dtype=float)))
        if self.v is not None:
            object.__setattr__(self, "v", np.atleast_2d(np.asarray(self.v, dtype=float)))


def _as_point(u) -> PerturbationPoint:
    if isinstance(u, PerturbationPoint):
        return u
    return PerturbationPoint(np.asarray(u, dtype=float))


def _in_simplex(q: np.ndarray) -> bool:
    return bool(np.all(q >= -MEMBERSHIP_ATOL) and abs(q.sum() - 1.0) <= MEMBERSHIP_ATOL)


def _violates(b: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """Where the constraint expectations ev (along the last axis) exceed
    the bound b."""
    return np.any(ev > b + 1e-12, axis=-1)


class Relaxation:
    """What every variant states: ``perturbation_size``, the ``weights`` q
    at u, ``perturbation_cost`` (the penalty, +inf off the perturbation
    set, and -<y, u>) and ``expectation``; ``value`` assembles them."""

    def value(self, program: StochasticProgram, u, x,
              include_tilt: bool = True) -> float:
        """The relaxation at (u, x), u a vector or a PerturbationPoint with
        support shifts, minus the tilt if requested."""
        point = _as_point(u)
        if point.u.size != self.perturbation_size(program):
            raise ValueError("perturbation dimension mismatch")
        pen, tilt = self.perturbation_cost(point.u)
        if pen == INF:
            return INF
        cost, shift = self.expectation(program, point,
                                       np.atleast_1d(np.asarray(x, dtype=float)))
        val = ext_add(cost, pen + shift)
        return ext_add(val, tilt) if include_tilt else val


@dataclass(frozen=True)
class ExactIndicator(Relaxation):
    """Anchor-only relaxation: the program's own weights, and +inf off
    u = 0. On a program with a composite block u lives in R^m and the
    constraint holds at the anchor."""

    def perturbation_size(self, program: StochasticProgram) -> int:
        return program.s if program.composite is None else program.composite.m

    def weights(self, program: StochasticProgram, u) -> np.ndarray:
        return program.p

    def perturbation_cost(self, u: np.ndarray) -> Tuple[float, float]:
        return (INF if np.any(u != 0.0) else 0.0), 0.0

    def expectation(self, program, point, x) -> Tuple[float, float]:
        block = program.composite
        if block is None and point.v is not None and np.any(point.v != 0.0):
            return INF, 0.0
        base = weighted_objective(program, program.p, x)
        if block is not None and _violates(block.b, block.expectation(program.p, x)):
            return INF, 0.0
        return base, 0.0

    def slack_rows(self, base: np.ndarray, ev: np.ndarray, b
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """u = 0 at every row of the anchor's expectations ev; base where
        they meet the bound b, +inf elsewhere."""
        return np.zeros_like(ev), np.where(_violates(b, ev), INF, base)


@dataclass(frozen=True, kw_only=True)
class Rockafellian(Relaxation):
    """What every penalized variant holds: base weights p_nu, a penalty
    strength theta_nu >= 0 and an optional tilt y_nu. The weights are p_nu
    and the penalty (theta_nu/2)|u|^2 unless a subclass states others."""

    p_nu: np.ndarray
    theta_nu: float
    y_nu: Optional[np.ndarray] = None

    def __post_init__(self):
        try:
            object.__setattr__(self, "p_nu", check_simplex(self.p_nu))
        except ValueError as exc:
            raise ValueError(f"p_nu: {exc}") from None
        _check_strength("theta_nu", self.theta_nu)
        if self.y_nu is not None:
            y = np.atleast_1d(np.asarray(self.y_nu, dtype=float))
            if not np.all(np.isfinite(y)):
                raise ValueError(f"y_nu must be finite, got {y}")
            object.__setattr__(self, "y_nu", y)

    def tilt(self, size: Optional[int] = None) -> np.ndarray:
        """y_nu, or zeros of the perturbation's size (that of p_nu unless
        given) when there is no tilt."""
        if self.y_nu is not None:
            return self.y_nu
        return np.zeros(self.p_nu.size if size is None else size)

    def weights(self, program: StochasticProgram, u) -> np.ndarray:
        return self.p_nu

    def penalty_rows(self, U: np.ndarray) -> np.ndarray:
        """The penalty at each row of U."""
        return 0.5 * self.theta_nu * (U * U).sum(axis=1)

    def perturbation_cost(self, u: np.ndarray) -> Tuple[float, float]:
        return weight_penalty(self, u), -float(self.tilt(u.size) @ u)


class CompositePenalty(Rockafellian):
    """Relaxes only the constraint composition: the weights stay p_nu, and
    u in R^m loosens the bound b at the quadratic price."""

    def perturbation_size(self, program: StochasticProgram) -> int:
        if program.composite is None:
            raise ValueError("program has no composite block")
        return program.composite.m

    def expectation(self, program, point, x) -> Tuple[float, float]:
        block = program.composite
        if _violates(block.b, point.u + block.expectation(self.p_nu, x)):
            return INF, 0.0
        return weighted_objective(program, self.p_nu, x), 0.0

    def slack_rows(self, base: np.ndarray, ev: np.ndarray, b
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """The closed-form step at every row of the expectations ev: the
        minimizer y/theta of (theta/2)|u|^2 - <y, u> clipped to u <= b - ev,
        and base plus its value."""
        y = self.tilt(ev.shape[1])
        U = np.minimum(y / self.theta_nu, b - ev)
        return U, base + self.penalty_rows(U) - U @ y


@dataclass(frozen=True, kw_only=True)
class SimplexPenalty(Rockafellian):
    """u moves the weights to q = p_nu + u, and the penalty is +inf off the
    simplex.

    ``row_step`` names the solver's exact weight step for many cost rows at
    once: the projection of p_nu - c/theta_nu, the divergence dual ``phi``,
    the ``l1`` closed form, or ``argmin`` (all weight on a cheapest
    scenario) when the penalty is off.
    """

    #: True where any mass on a zero base weight costs +inf, so that the
    #: weight step leaves those scenarios off its face
    drops_zero_weights = False

    @property
    def row_step(self) -> str:
        return "argmin" if self.theta_nu == 0.0 else "projection"

    def perturbation_size(self, program: StochasticProgram) -> int:
        return program.s

    def weights(self, program: StochasticProgram, u) -> np.ndarray:
        return np.maximum(self.p_nu + u, 0.0)

    def perturbation_cost(self, u: np.ndarray) -> Tuple[float, float]:
        if not _in_simplex(self.p_nu + u):
            return INF, 0.0
        return super().perturbation_cost(u)

    def cost_functions(self, program: StochasticProgram) -> Sequence[Callable]:
        """The cost of each scenario as a function of the decision."""
        return program.scenarios

    def expectation(self, program, point, x) -> Tuple[float, float]:
        """The weighted costs at x, and the price of the support shifts
        (only the support variant has any)."""
        return weighted_objective(program, self.weights(program, point.u), x), 0.0


class QuadraticPenalty(SimplexPenalty):
    """(theta_nu/2)|u|^2 on the simplex weights."""


@dataclass(frozen=True, kw_only=True)
class PhiDivergencePenalty(SimplexPenalty):
    """theta_nu times the phi-divergence of the weights from p_nu."""

    family: PhiFamily

    @property
    def row_step(self) -> str:
        if self.theta_nu == 0.0:
            return "argmin"
        # sum p_i |q_i/p_i - 1| = |u|_1 (a zero base weight adds q_i = |u_i|),
        # so the variational subproblem is exactly the l1 one at strength theta
        return "l1" if self.family.tag == "variational" else "phi"

    @property
    def drops_zero_weights(self) -> bool:
        return self.theta_nu > 0.0 and self.family.limit_slope == INF

    def penalty_rows(self, U: np.ndarray) -> np.ndarray:
        if self.theta_nu == 0.0:
            return np.zeros(len(U))  # 0 * inf = 0
        return self.theta_nu * phi_divergence_rows(
            self.family, np.maximum(self.p_nu + U, 0.0), self.p_nu)


class L1Penalty(SimplexPenalty):
    """theta_nu |u|_1 on the simplex weights; the strength may be given as
    ``theta`` instead."""

    row_step = "l1"

    def __init__(self, *, p_nu, theta_nu: Optional[float] = None,
                 theta: Optional[float] = None, y_nu=None):
        if (theta is None) == (theta_nu is None):
            raise TypeError("L1Penalty takes theta_nu or its alias theta")
        super().__init__(p_nu=p_nu, theta_nu=theta_nu if theta is None else theta,
                         y_nu=y_nu)

    def penalty_rows(self, U: np.ndarray) -> np.ndarray:
        return self.theta_nu * np.abs(U).sum(axis=1)


@dataclass(frozen=True, kw_only=True)
class SupportPerturbation(SimplexPenalty):
    """The quadratic penalty on u, and shifts v of the support points xi_nu
    at the price (lambda_nu/2)|v|^2: scenario i costs the generator at
    xi_i + v_i."""

    xi_nu: np.ndarray  # shape (s, m)
    lambda_nu: float

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "xi_nu", np.atleast_2d(np.asarray(self.xi_nu, dtype=float)))
        _check_strength("lambda_nu", self.lambda_nu)

    def cost_functions(self, program: StochasticProgram, v=0.0) -> Sequence[Callable]:
        """The generator at each support point, shifted by v."""
        if program.generator is None:
            raise ValueError("support perturbation requires a generator map")
        return [lambda x, pt=pt: support_cost(program, pt, x) for pt in self.xi_nu + v]

    def expectation(self, program, point, x) -> Tuple[float, float]:
        v = np.zeros_like(self.xi_nu) if point.v is None else point.v
        if v.shape != self.xi_nu.shape:
            raise ValueError("support perturbation shape mismatch")
        total = program.f0(x)
        for w, cost in zip(self.weights(program, point.u), self.cost_functions(program, v)):
            if w != 0.0:
                total = ext_add(total, ext_mul(w, cost(x)))
        return total, 0.5 * self.lambda_nu * float(np.sum(v * v))


RockafellianSpec = Relaxation


def eval_exact(program: StochasticProgram, u, x) -> float:
    """The anchored relaxation: actual objective at u = 0 (and v = 0), else +inf.

    For programs carrying a composite block, u perturbs the composition
    argument and the actual constraint indicator is applied at the anchor.
    """
    return ExactIndicator().value(program, u, x)


def support_cost(program: StochasticProgram, point: np.ndarray, x) -> float:
    """The generator's cost of support point ``point`` at decision x."""
    val = float(program.generator(point, x))
    if val == -INF:
        raise ValueError("generator returned -inf")
    return val


def weight_penalty(spec: Rockafellian, u: np.ndarray) -> float:
    """The penalty the variant charges for the perturbation u: the one-row
    call of its ``penalty_rows``."""
    return float(spec.penalty_rows(np.atleast_1d(u)[None, :])[0])


def eval_approx(spec: RockafellianSpec, program: StochasticProgram, u, x,
                include_tilt: bool = True) -> float:
    """The variant's approximating value at (u, x), minus the tilt if requested."""
    if isinstance(spec, ExactIndicator):
        raise ValueError("use eval_exact for the anchored variant")
    return spec.value(program, u, x, include_tilt)


@dataclass
class CertificateReport:
    passed: bool
    strict: bool
    worst_gap: float
    n_samples: int
    violations: List[np.ndarray] = field(default_factory=list)


def default_u_samples(p_nu, count: int = 100, seed: int = 0) -> List[np.ndarray]:
    """Vertices of the shifted simplex plus seeded uniform interior points.

    Vertices witness worst cases for piecewise-linear min-value functions.
    """
    p_nu = check_simplex(p_nu)
    s = p_nu.size
    samples = [np.zeros(s)]
    samples += [np.eye(s)[i] - p_nu for i in range(s)]
    rng = np.random.default_rng(seed)
    for _ in range(count):
        q = rng.dirichlet(np.ones(s))
        samples.append(q - p_nu)
    return samples


def check_exactness_certificate(spec: RockafellianSpec, program: StochasticProgram,
                                y_bar, u_samples: Sequence[np.ndarray],
                                x_oracle: Callable[[np.ndarray], float],
                                strict_margin: float = 1e-12) -> CertificateReport:
    """Verify inf_x f(u, x) >= inf_x f(0, x) + <y_bar, u> on each sample.

    ``x_oracle(u)`` must return inf over x of the selected relaxation at
    perturbation u (a grid oracle is acceptable); the anchor is u = 0.
    """
    y_bar = np.atleast_1d(np.asarray(y_bar, dtype=float))
    base = x_oracle(np.zeros(y_bar.size))
    if not np.isfinite(base):
        raise ValueError("min value at the anchor is not finite")
    worst = INF
    violations = []
    strict = True
    for u in u_samples:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        lhs = x_oracle(u)
        rhs = base + float(y_bar @ u)
        gap = lhs - rhs if np.isfinite(lhs) else INF
        if gap < worst:
            worst = gap
        if gap < -1e-9:
            violations.append(u)
        if np.any(u != 0.0) and gap <= strict_margin:
            strict = False
    return CertificateReport(passed=not violations, strict=strict and not violations,
                             worst_gap=float(worst), n_samples=len(u_samples),
                             violations=violations)
