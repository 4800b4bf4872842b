"""Bivariate relaxations of the scenario program and the exactness certificate.

Each variant evaluates a function of a perturbation (u, and optionally v)
and a decision x whose slice at the anchor reproduces the actual objective.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from .divergence import PhiFamily, phi_divergence
from .extreal import (INF, StochasticProgram, check_simplex, ext_add, ext_mul,
                      weighted_objective)

#: components of p_nu + u may undershoot 0 by this much before the simplex
#: indicator fires; loose enough for grid-generated perturbations.
MEMBERSHIP_ATOL = 1e-9


@dataclass(frozen=True)
class ExactIndicator:
    """Anchor-only relaxation: +inf off u = 0."""


@dataclass(frozen=True)
class QuadraticPenalty:
    p_nu: np.ndarray
    theta_nu: float
    y_nu: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "p_nu", check_simplex(self.p_nu))
        if self.theta_nu < 0:
            raise ValueError("theta_nu must be >= 0")

    def tilt(self) -> np.ndarray:
        return np.zeros(self.p_nu.size) if self.y_nu is None else np.asarray(self.y_nu, float)


@dataclass(frozen=True)
class PhiDivergencePenalty:
    p_nu: np.ndarray
    theta_nu: float
    family: PhiFamily
    y_nu: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "p_nu", check_simplex(self.p_nu))
        if self.theta_nu < 0:
            raise ValueError("theta_nu must be >= 0")

    def tilt(self) -> np.ndarray:
        return np.zeros(self.p_nu.size) if self.y_nu is None else np.asarray(self.y_nu, float)


@dataclass(frozen=True)
class SupportPerturbation:
    p_nu: np.ndarray
    xi_nu: np.ndarray  # shape (s, m)
    theta_nu: float
    lambda_nu: float
    y_nu: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "p_nu", check_simplex(self.p_nu))
        object.__setattr__(self, "xi_nu", np.atleast_2d(np.asarray(self.xi_nu, dtype=float)))
        if self.theta_nu < 0 or self.lambda_nu < 0:
            raise ValueError("penalty parameters must be >= 0")

    def tilt(self) -> np.ndarray:
        return np.zeros(self.p_nu.size) if self.y_nu is None else np.asarray(self.y_nu, float)


@dataclass(frozen=True)
class L1Penalty:
    p_nu: np.ndarray
    theta: float
    y_nu: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "p_nu", check_simplex(self.p_nu))
        if self.theta < 0:
            raise ValueError("theta must be >= 0")

    def tilt(self) -> np.ndarray:
        return np.zeros(self.p_nu.size) if self.y_nu is None else np.asarray(self.y_nu, float)


@dataclass(frozen=True)
class CompositePenalty:
    """Relaxes only the constraint composition; u lives in R^m."""

    p_nu: np.ndarray
    theta_nu: float
    y_nu: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "p_nu", check_simplex(self.p_nu))
        if self.theta_nu < 0:
            raise ValueError("theta_nu must be >= 0")

    def tilt_m(self, m: int) -> np.ndarray:
        return np.zeros(m) if self.y_nu is None else np.asarray(self.y_nu, float)


RockafellianSpec = Union[ExactIndicator, QuadraticPenalty, PhiDivergencePenalty,
                         SupportPerturbation, L1Penalty, CompositePenalty]


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


def eval_exact(program: StochasticProgram, u, x) -> float:
    """The anchored relaxation: actual objective at u = 0 (and v = 0), else +inf.

    For programs carrying a composite block, u perturbs the composition
    argument and the actual constraint indicator is applied at the anchor.
    """
    point = _as_point(u)
    if program.composite is not None:
        if point.u.size != program.composite.m:
            raise ValueError("composite perturbation dimension mismatch")
        if np.any(point.u != 0.0):
            return INF
        base = weighted_objective(program, program.p, x)
        ev = program.composite.expectation(program.p, np.atleast_1d(np.asarray(x, float)))
        if np.any(ev > program.composite.b + 1e-12):
            return INF
        return base
    if point.u.size != program.s:
        raise ValueError("perturbation dimension mismatch")
    if np.any(point.u != 0.0):
        return INF
    if point.v is not None and np.any(point.v != 0.0):
        return INF
    return weighted_objective(program, program.p, x)


def support_cost(program: StochasticProgram, point: np.ndarray, x) -> float:
    """The generator's cost of support point ``point`` at decision x."""
    val = float(program.generator(point, x))
    if val == -INF:
        raise ValueError("generator returned -inf")
    return val


def _support_sum(program: StochasticProgram, q: np.ndarray, xi: np.ndarray,
                 v: np.ndarray, x) -> float:
    if program.generator is None:
        raise ValueError("support perturbation requires a generator map")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    total = program.f0(x)
    for i, w in enumerate(q):
        if w == 0.0:
            continue
        total = ext_add(total, ext_mul(w, support_cost(program, xi[i] + v[i], x)))
    return total


def weight_penalty(spec: RockafellianSpec, u: np.ndarray, q: np.ndarray) -> float:
    """The penalty a simplex-reweighting variant charges for perturbation u,
    with q = max(p_nu + u, 0) the weights it applies."""
    if isinstance(spec, (QuadraticPenalty, SupportPerturbation)):
        return 0.5 * spec.theta_nu * float(u @ u)
    if isinstance(spec, PhiDivergencePenalty):
        return ext_mul(spec.theta_nu, phi_divergence(spec.family, q, spec.p_nu))
    if isinstance(spec, L1Penalty):
        return spec.theta * float(np.abs(u).sum())
    raise TypeError(f"unknown spec type {type(spec)!r}")


def eval_approx(spec: RockafellianSpec, program: StochasticProgram, u, x,
                include_tilt: bool = True) -> float:
    """The variant's approximating value at (u, x), minus the tilt if requested."""
    if isinstance(spec, ExactIndicator):
        raise ValueError("use eval_exact for the anchored variant")
    point = _as_point(u)
    x = np.atleast_1d(np.asarray(x, dtype=float))

    if isinstance(spec, CompositePenalty):
        block = program.composite
        if block is None:
            raise ValueError("program has no composite block")
        if point.u.size != block.m:
            raise ValueError("composite perturbation dimension mismatch")
        ev = block.expectation(spec.p_nu, x)
        if np.any(point.u + ev > block.b + 1e-12):
            return INF
        base = weighted_objective(program, spec.p_nu, x)
        val = ext_add(base, 0.5 * spec.theta_nu * float(point.u @ point.u))
        if include_tilt:
            val = ext_add(val, -float(spec.tilt_m(block.m) @ point.u))
        return val

    if point.u.size != program.s:
        raise ValueError("perturbation dimension mismatch")
    q = spec.p_nu + point.u
    if not _in_simplex(q):
        return INF
    q = np.maximum(q, 0.0)

    penalty = weight_penalty(spec, point.u, q)
    if isinstance(spec, SupportPerturbation):
        v = point.v
        if v is None:
            v = np.zeros_like(spec.xi_nu)
        if v.shape != spec.xi_nu.shape:
            raise ValueError("support perturbation shape mismatch")
        penalty += 0.5 * spec.lambda_nu * float(np.sum(v * v))
        val = ext_add(_support_sum(program, q, spec.xi_nu, v, x), penalty)
    else:
        val = ext_add(weighted_objective(program, q, x), penalty)

    if include_tilt:
        val = ext_add(val, -float(spec.tilt() @ point.u))
    return val


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
