"""Quantitative certificates: convergence-rate constants and bounds, penalty
schedules, first-order residuals, empirical-distribution rates, and grid
estimates of the truncated epigraphical distance."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .extreal import INF, StochasticProgram, check_simplex
from .rockafellian import QuadraticPenalty
from .simplex import normal_cone_distance, sample_empirical
from .solver import _grid_array

THETA_CAP = 1e12


@dataclass(frozen=True)
class RateCertificate:
    """Constants entering the distance-to-argmin bound.

    kappa is certified by grid infima over the rho-ball at the recorded
    resolution, not symbolically.
    """

    rho: float
    epsilon: float
    y_sup: float
    kappa: float
    alpha: float
    beta: float
    sigma: float
    tau: float
    resolution: float

    @property
    def theta_min(self) -> float:
        return 9.0 * self.beta ** 2 / self.alpha ** 2

    @property
    def dinf_max(self) -> float:
        return self.alpha / 3.0

    def __post_init__(self):
        if self.sigma < 1.0 - 1e-12:
            raise ValueError("sigma must be at least 1")
        if abs(self.tau - self.beta * self.sigma) > 1e-9 * max(1.0, self.tau):
            raise ValueError("tau must equal beta * sigma")


def rate_constants(program: StochasticProgram, rho: float, epsilon: float,
                   y_sup: float, resolution: float = 1e-3) -> RateCertificate:
    """Grid-certified constants for the distance bound.

    kappa is the smallest nonnegative constant with inf of f0 on the ball
    at least -kappa, and inf of each scenario cost on the ball intersected
    with the domain of f0 at least -kappa.
    """
    if rho <= 0 or resolution <= 0:
        raise ValueError("rho and resolution must be positive")
    if not 0.0 <= epsilon <= 2.0 * rho:
        raise ValueError("epsilon must lie in [0, 2 rho]")
    xs = _grid_array([(-rho, rho)] * program.n, resolution)
    xs = xs[np.linalg.norm(xs, axis=1) <= rho + 1e-12]

    def low(values: np.ndarray) -> float:
        return float(np.min(values[~np.isnan(values)], initial=INF))

    f0 = program.f0.tabulate(xs)
    inf_f0 = low(f0)
    dom = xs[f0 != INF]
    inf_fi = [low(f.tabulate(dom)) for f in program.scenarios]
    if inf_f0 == INF:
        raise ValueError("f0 is infinite on the whole ball grid")
    lows = [inf_f0] + [v for v in inf_fi if v < INF]
    floor = min(lows)
    if floor < -1e15:
        raise ValueError("objective appears unbounded below on the ball")
    kappa = max(0.0, -floor)
    positive = program.p[program.p > 0]
    alpha = float(positive.min())
    beta = math.sqrt(2.0 * rho + 2.0 * rho * y_sup + 4.0 * kappa)
    s = program.s
    sigma = max(1.0, y_sup + math.sqrt(s) * (
        max(kappa, math.sqrt(3.0 / (2.0 * alpha)) * beta) + kappa))
    tau = beta * sigma
    return RateCertificate(rho=rho, epsilon=epsilon, y_sup=y_sup, kappa=kappa,
                           alpha=alpha, beta=beta, sigma=sigma, tau=tau,
                           resolution=resolution)


def eta_bound(cert: RateCertificate, p_nu, p, theta_nu: float) -> float:
    """sigma d + max{theta d^2 / 2, tau / sqrt(theta)} with d the 2-norm gap."""
    d = float(np.linalg.norm(np.asarray(p_nu, float) - np.asarray(p, float)))
    return cert.sigma * d + max(0.5 * theta_nu * d * d,
                                cert.tau / math.sqrt(theta_nu))


def theta_schedule(p_nu, p, floor: float = 1.0) -> float:
    """Penalty growth matched to the weight error: d^(-4/3), floored.

    The coincident case d = 0 returns a finite documented cap so downstream
    arithmetic stays finite.
    """
    if floor <= 0:
        raise ValueError("floor must be positive")
    d = float(np.linalg.norm(np.asarray(p_nu, float) - np.asarray(p, float)))
    if d == 0.0:
        return THETA_CAP
    return min(max(floor, d ** (-4.0 / 3.0)), THETA_CAP)


@dataclass
class RateRow:
    nu: int
    theta_nu: float
    d2: float
    dinf: float
    applicable: bool
    eta_nu: float
    x_nu: np.ndarray
    distance: float
    passed: bool


def verify_rate_inequality(rows: Sequence[Tuple[int, float, np.ndarray, np.ndarray]],
                           cert: RateCertificate, p: np.ndarray,
                           argmin_oracle: Callable[[float], np.ndarray]
                           ) -> List[RateRow]:
    """Check dist(x_nu, (epsilon + 2 eta)-argmin of the actual problem) <= eta.

    ``rows`` carries (nu, theta_nu, p_nu, x_nu) with x_nu from the joint
    solver; ``argmin_oracle(delta)`` returns the grid delta-argmin set of the
    actual problem. Rows outside the theorem's thresholds are marked not
    applicable and never counted as failures.
    """
    p = check_simplex(p)
    out: List[RateRow] = []
    for nu, theta_nu, p_nu, x_nu in rows:
        p_nu = check_simplex(p_nu)
        d2 = float(np.linalg.norm(p_nu - p))
        dinf = float(np.max(np.abs(p_nu - p)))
        applicable = theta_nu >= cert.theta_min and dinf <= cert.dinf_max
        eta = eta_bound(cert, p_nu, p, theta_nu)
        x_nu = np.atleast_1d(np.asarray(x_nu, float))
        if applicable:
            amin = np.atleast_2d(argmin_oracle(cert.epsilon + 2.0 * eta))
            if amin.size == 0:
                dist = INF
            else:
                dist = float(np.min(np.linalg.norm(amin - x_nu[None, :], axis=1)))
            passed = dist <= eta + 1e-12
        else:
            dist = float("nan")
            passed = True
        out.append(RateRow(nu=nu, theta_nu=theta_nu, d2=d2, dinf=dinf,
                           applicable=applicable, eta_nu=eta, x_nu=x_nu,
                           distance=dist, passed=passed))
    return out


@dataclass
class EmpiricalRateReport:
    nus: List[int]
    medians: List[float]
    decrease_fraction: float
    trials: int


def empirical_rate_check(p, epsilon_exp: float, nus: Sequence[int], trials: int,
                         seed: int = 0) -> EmpiricalRateReport:
    """Monte Carlo decay of nu^(1/2 - epsilon) times the sampling error.

    Each trial draws fresh empirical weights at every sample count from an
    independently derived seed; the report carries the median trajectory and
    the fraction of trials where the statistic drops from the first count to
    the last.
    """
    if not 0.0 < epsilon_exp < 0.5:
        raise ValueError("epsilon_exp must lie strictly inside (0, 0.5)")
    nus = list(nus)
    if any(b <= a for a, b in zip(nus, nus[1:])):
        raise ValueError("sample counts must be strictly increasing")
    p = check_simplex(p)
    exponent = 0.5 - epsilon_exp
    stats = np.zeros((trials, len(nus)))
    for t in range(trials):
        for j, nu in enumerate(nus):
            p_nu = sample_empirical(p, nu, seed=seed * 1000003 + t * 1009 + j)
            stats[t, j] = nu ** exponent * float(np.linalg.norm(p_nu - p))
    decreases = stats[:, -1] < stats[:, 0] + 1e-15
    medians = [float(np.median(stats[:, j])) for j in range(len(nus))]
    return EmpiricalRateReport(nus=nus, medians=medians,
                               decrease_fraction=float(np.mean(decreases)),
                               trials=trials)


@dataclass
class ResidualReport:
    u: np.ndarray
    x: np.ndarray
    block1: float
    block2: float

    @property
    def total(self) -> float:
        return max(self.block1, self.block2)


def optimality_residual(program: StochasticProgram, spec: QuadraticPenalty,
                        u, x, y_nu=None,
                        f0_normal_cone_dist: Optional[
                            Callable[[np.ndarray, np.ndarray], float]] = None
                        ) -> ResidualReport:
    """First-order residual of the quadratic-penalty relaxation at (u, x).

    Block one is the exact distance from y - F(x) - theta u to the simplex
    normal cone at p + u (`normal_cone_distance`, in closed form by
    sorting); block two measures stationarity in the decision, using
    declared scenario gradients. An indicator f0 is supported through a
    caller-supplied normal-cone distance oracle.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = spec.tilt() if y_nu is None else np.atleast_1d(np.asarray(y_nu, float))
    q = spec.p_nu + u
    if np.any(q < -1e-9) or abs(q.sum() - 1.0) > 1e-9:
        return ResidualReport(u=u, x=x, block1=INF, block2=INF)
    q = np.maximum(q, 0.0)
    q = q / q.sum()
    fx = program.costs(x)
    if not np.all(np.isfinite(fx)):
        return ResidualReport(u=u, x=x, block1=INF, block2=INF)
    w = y - fx - spec.theta_nu * u
    block1 = normal_cone_distance(q, w)

    grad_sum = np.zeros(x.size)
    for qi, f in zip(q, program.scenarios):
        if qi != 0.0:
            if not f.has_grad_at(x):
                raise ValueError("scenario gradient unavailable at this point")
            grad_sum = grad_sum + qi * f.grad(x)
    if f0_normal_cone_dist is not None:
        if program.f0(x) == INF:
            return ResidualReport(u=u, x=x, block1=block1, block2=INF)
        block2 = float(f0_normal_cone_dist(x, -grad_sum))
    else:
        if program.f0(x) == INF:
            return ResidualReport(u=u, x=x, block1=block1, block2=INF)
        block2 = float(np.linalg.norm(grad_sum + program.f0.grad(x)))
    return ResidualReport(u=u, x=x, block1=block1, block2=block2)


def epi_distance_estimate(fn_a: Callable[[np.ndarray], float],
                          fn_b: Callable[[np.ndarray], float],
                          rho: float, grid: Sequence[np.ndarray]
                          ) -> Tuple[float, float]:
    """Grid estimate of the rho-truncated distance between two epigraphs.

    For each grid point where one function stays within the value cutoff,
    the smallest eta with the other function within eta on an eta-ball is
    found by scanning the grid; the two directions are symmetrized. Returns
    the estimate and the grid spacing as its error bar.
    """
    pts = [np.atleast_1d(np.asarray(g, dtype=float)) for g in grid]
    pts = [g for g in pts if float(np.linalg.norm(g)) <= rho + 1e-12]
    if not pts:
        raise ValueError("no grid points inside the ball")
    if len(pts) > 10 ** 8:
        raise ValueError("grid too large")
    vals_a = np.array([fn_a(g) for g in pts])
    vals_b = np.array([fn_b(g) for g in pts])
    arr = np.array(pts)
    spacing = INF
    if len(pts) > 1:
        diffs = np.linalg.norm(arr[1:] - arr[:-1], axis=1)
        spacing = float(diffs.min())

    def one_way(va: np.ndarray, vb: np.ndarray) -> float:
        worst = 0.0
        for k in range(len(pts)):
            if va[k] > rho:
                continue
            dist_x = np.linalg.norm(arr - arr[k][None, :], axis=1)
            gap = vb - va[k]
            keep = gap != INF
            eta_k = INF
            if keep.any():
                # fmax, like max(dx, gap, 0.0), passes over a nan gap
                eta_k = np.fmax(np.fmax(dist_x[keep], gap[keep]), 0.0).min()
            worst = max(worst, eta_k)
        return worst

    est = max(one_way(vals_a, vals_b), one_way(vals_b, vals_a))
    return float(est), float(spacing)
