"""Joint minimization of the relaxed objective and brute-force grid oracles.

Each simplex variant has an exact reweighting step (a simplex projection, a
regula falsi root of the divergence dual, or the l1 closed form) that takes
many cost rows at once, and the composite variant a closed-form slack step,
so the solver minimizes the reduced objective r(x) = min_u f(u, x) over the
decision alone.

On a grid the solve is tabulate-then-argmin: f0 and each scenario cost are
evaluated once per grid decision (the costs only where f0 is finite), every
row's u-step is taken with array operations, and the first smallest r wins.
A ``ScenarioFunction`` that declares ``evaluate_batch`` fills its column
with one call; one without it (a plain user callable) is called once per
decision, with the same result. The support variant's reduced objective
separates per scenario at a fixed decision, so a min-plus program over a
weight grid minimizes it, polished by the exact u-step at the shifts it
picked. Projected gradient takes the one-row u-step at each point it
evaluates. Grid oracles provide ground truth on small instances.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .extreal import (INF, ScenarioFunction, StochasticProgram, ext_add,
                      weighted_objective)
from .rockafellian import (CompositePenalty, ExactIndicator, PerturbationPoint,
                           RockafellianSpec, SimplexPenalty,
                           SupportPerturbation, _violates, eval_exact)
from .simplex import project_rows_to_simplex, simplex_grid

MAX_GRID_EVALS = 10 ** 8

#: the grid oracles work through their decisions in blocks small enough that
#: no (decisions x perturbations) temporary holds more than this many floats
ORACLE_BLOCK_FLOATS = 2 ** 18

#: the support solve puts weights a / SUPPORT_WEIGHT_STEPS on each scenario,
#: the u-resolution of the CLI's brute-force oracle
SUPPORT_WEIGHT_STEPS = 100


class InfeasibleAtResolution(RuntimeError):
    """Every grid point evaluated to +inf."""


@dataclass(frozen=True)
class GridMethod:
    """Exhaustive search over a box grid; ties go to the first point in
    lexicographic order."""

    box: Sequence[Tuple[float, float]]
    resolution: float

    def __post_init__(self):
        if not (math.isfinite(self.resolution) and self.resolution > 0):
            raise ValueError(f"resolution must be finite and positive, "
                             f"got {self.resolution!r}")


@dataclass(frozen=True)
class ProjectedGradientMethod:
    """Projected gradient descent with Armijo backtracking on a box."""

    box: Sequence[Tuple[float, float]]
    iters: int = 2000
    tol: float = 1e-12


XMethod = Union[GridMethod, ProjectedGradientMethod]


@dataclass(frozen=True)
class SolveConfig:
    x_method: XMethod
    v_box: Optional[Tuple[float, float]] = None
    v_resolution: Optional[float] = None


@dataclass
class SolveReport:
    u_final: np.ndarray
    x_final: np.ndarray
    value: float
    plain_objective: float
    trace: List[float]
    iterations: int
    v_final: Optional[np.ndarray] = None
    epsilon_certificate: Optional[float] = None
    unbounded: bool = False


def grid_axis(lo: float, hi: float, resolution: float) -> np.ndarray:
    count = int(round((hi - lo) / resolution))
    return np.linspace(lo, hi, count + 1)


def _grid_axes(box: Sequence[Tuple[float, float]], resolution: float
               ) -> List[np.ndarray]:
    axes = [grid_axis(lo, hi, resolution) for lo, hi in box]
    total = math.prod(a.size for a in axes)
    if total > MAX_GRID_EVALS:
        raise ValueError(f"grid of {total} points exceeds the evaluation cap")
    return axes


def grid_points(box: Sequence[Tuple[float, float]], resolution: float):
    """Lexicographically ordered grid point iterator over a box."""
    return (np.array(pt) for pt in itertools.product(*_grid_axes(box, resolution)))


def _grid_array(box, resolution: float) -> np.ndarray:
    """The decision grid as one (points, dimension) array, in grid_points order."""
    mesh = np.meshgrid(*_grid_axes(box, resolution), indexing="ij")
    return np.stack([axis.ravel() for axis in mesh], axis=1)


def _checked_costs(costs) -> np.ndarray:
    costs = np.asarray(costs, dtype=float)
    if not (costs > -INF).all():  # false at -inf and at nan
        raise ValueError("costs must avoid -inf and nan")
    return costs


def u_subproblem_rows(spec: SimplexPenalty, costs, y_nu, U) -> np.ndarray:
    """The u-dependent part of the relaxed objective at fixed x, at each row
    u of U: sum of (p + u)_i costs_i, added in scenario order, plus the
    variant's penalty minus <y, u>; infinite costs on zero-weight
    coordinates contribute nothing."""
    costs = _checked_costs(np.atleast_1d(costs))
    U = np.atleast_2d(np.asarray(U, dtype=float))
    y = np.zeros(U.shape[1]) if y_nu is None else np.atleast_1d(np.asarray(y_nu, float))
    Q = spec.p_nu + U
    total = np.zeros(len(U))
    with np.errstate(invalid="ignore"):
        for q, c in zip(Q.T, costs):
            total += np.where(q == 0.0, 0.0, q * c)
    return total + spec.penalty_rows(U) - U @ y


def u_subproblem_value(spec: SimplexPenalty, costs, y_nu, u) -> float:
    """``u_subproblem_rows`` at the one perturbation u."""
    return float(u_subproblem_rows(spec, costs, y_nu, np.atleast_1d(u)[None, :])[0])


def _phi_rows(fam, theta: float, p: np.ndarray, c: np.ndarray,
              face: np.ndarray) -> np.ndarray:
    """The divergence dual (Ben-Tal et al. 2013) on every row of c at once:
    q_i = p_i (Phi')^-1((mu - c_i) / theta), with one multiplier mu per row
    chosen so that the row sums to one.

    mu is the root of log mass(mu), which does not decrease; Anderson-Bjorck
    regula falsi finds it on a bracket, with a bisection step wherever the
    secant point is not finite (an end at a pole of (Phi')^-1). Under kl the
    log mass is linear in mu, so one secant step lands on the root."""
    if fam.dphi_inv is None:
        raise ValueError(f"{fam.tag}: reweighting needs the inverse of Phi'")
    rows = np.arange(len(c))
    pos = face & (p > 0.0)
    # u_step keeps zero base weights on the face only for a finite
    # limit_slope; there mass on them costs c_i + theta * slope linearly,
    # so a row's multiplier mu cannot exceed its cheapest such cost
    zero_cost = np.where(face & ~pos, c + theta * fam.limit_slope, INF)
    cap = zero_cost.min(axis=1)

    def mass(mu: np.ndarray, cost: np.ndarray, on: np.ndarray) -> np.ndarray:
        return np.where(on, p * fam.dphi_inv((mu[:, None] - cost) / theta),
                        0.0).sum(axis=1)

    # (Phi')^-1 overflows far out, and the entries off pos are dropped
    with np.errstate(all="ignore"):
        capped = cap < INF
        capped[capped] = mass(cap[capped], c[capped], pos[capped]) < 1.0
        mu = cap.copy()
        at = rows[~capped]  # the rows still searching, their costs and masks
        cost, on = c[at], pos[at]
        lo = np.where(on, cost, INF).min(axis=1)
        hi = np.where(on, cost, -INF).max(axis=1)
        span = np.maximum(1.0, hi - lo)
        short = np.flatnonzero(mass(hi, cost, on) < 1.0)
        while short.size:
            hi[short] += span[short]
            span[short] *= 2.0
            short = short[mass(hi[short], cost[short], on[short]) < 1.0]
        # Phi' stays below limit_slope, so mu - c_i < theta * limit_slope
        hi = np.minimum(np.minimum(hi, cap[at]), lo + theta * fam.limit_slope)
        f_lo = np.log(mass(lo, cost, on))
        f_hi = np.log(mass(hi, cost, on))
        # the point tried with the least |log mass| (always a bracket end);
        # it is mu once it is a root or the bracket is narrow, since next to
        # a pole of (Phi')^-1 the bracket's midpoint can be far off in mass
        x_best = np.where(np.abs(f_hi) < np.abs(f_lo), hi, lo)
        gap = np.minimum(np.abs(f_lo), np.abs(f_hi))
        last_up = np.ones(len(at), dtype=bool)  # the last point tried was hi
        for _ in range(200):
            tol = 1e-15 * np.maximum(1.0, np.abs(hi))
            done = (gap <= 1.5e-14) | (hi - lo < tol)
            if np.count_nonzero(done):
                mu[at[done]] = x_best[done]
                keep = ~done
                at, cost, on, tol = at[keep], cost[keep], on[keep], tol[keep]
                lo, hi, f_lo, f_hi, x_best, gap, last_up = (
                    v[keep] for v in (lo, hi, f_lo, f_hi, x_best, gap, last_up))
            if not at.size:
                break
            # the secant point, kept tol/2 inside the bracket (rounding can
            # put it on an end) so that a root next to an end closes the
            # bracket at the next step; the midpoint where it is nan
            x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            x = np.where(np.isnan(x), 0.5 * (lo + hi),
                         np.minimum(np.maximum(x, lo + 0.5 * tol), hi - 0.5 * tol))
            f_x = np.log(mass(x, cost, on))
            better = np.abs(f_x) < gap
            x_best, gap = np.where(better, x, x_best), np.where(better, np.abs(f_x), gap)
            # Anderson-Bjorck: when x replaces the same end as the point
            # before it, the kept end's value is scaled by
            # 1 - f(x) / f(replaced end), or by 1/2 if that is not positive
            up = f_x > 0.0
            m = 1.0 - f_x / np.where(up, f_hi, f_lo)
            m = np.where(up == last_up, np.where(m > 0.0, m, 0.5), 1.0)
            f_lo, f_hi = np.where(up, f_lo * m, f_x), np.where(up, f_x, f_hi * m)
            lo, hi, last_up = np.where(up, lo, x), np.where(up, x, hi), up
        mu[at] = 0.5 * (lo + hi)
        t = np.minimum(fam.dphi_inv((mu[:, None] - c) / theta), 1.0 / p)
        Q = np.where(pos, np.maximum(p * t, 0.0), 0.0)
    total = Q.sum(axis=1)
    if np.any(total[~capped] <= 0):
        raise ArithmeticError("divergence dual root-finding collapsed")
    Q[~capped] /= total[~capped, None]
    # a capped row's positive weights fall short of 1; the rest goes to its
    # first cheapest zero-weight scenario
    Q[rows[capped], np.argmin(zero_cost[capped], axis=1)] = 1.0 - total[capped]
    return Q


def _l1_rows(p: np.ndarray, c: np.ndarray, face: np.ndarray,
             theta: float) -> np.ndarray:
    """Moving a unit of weight from scenario i to j changes the objective by
    c_j - c_i + 2 theta, so the minimizer keeps p on the finite face except
    that every scenario costing more than min c + 2 theta hands its weight to
    the first cheapest one, which also receives the weight of the scenarios
    off the face. Ties at exactly 2 theta stay put."""
    rows = np.arange(len(c))
    j = np.argmin(c, axis=1)
    move = ~face | (c > c[rows, j][:, None] + 2.0 * theta)
    Q = np.where(move, 0.0, p)
    Q[rows, j] += np.where(move, p, 0.0).sum(axis=1)
    return Q


#: each simplex variant's exact weight step (its ``row_step``) at every row
#: of the tilted costs c, which are +inf off the face
_ROW_STEPS = {
    "argmin": lambda spec, c, face: np.eye(c.shape[1])[np.argmin(c, axis=1)],
    "projection": lambda spec, c, face: project_rows_to_simplex(
        spec.p_nu - c / spec.theta_nu),
    "phi": lambda spec, c, face: _phi_rows(spec.family, spec.theta_nu,
                                           spec.p_nu, c, face),
    "l1": lambda spec, c, face: _l1_rows(spec.p_nu, c, face, spec.theta_nu),
}


def u_step_rows(spec: SimplexPenalty, C, y_nu=None
                ) -> Tuple[np.ndarray, np.ndarray]:
    """``u_step`` at every row of the (k, s) cost array C: the minimizers
    (k, s) and the u-subproblem values (k,), with array operations.

    The spec names its step: the quadratic one projects each row by
    sort-and-threshold, the l1 and variational steps are closed forms, and
    the divergence steps find every row's dual multiplier by one regula
    falsi search. Each row's result does not depend on the other rows.
    """
    if not isinstance(spec, SimplexPenalty):
        raise TypeError(f"{type(spec).__name__} has no simplex reweighting step")
    C = _checked_costs(C)
    p = spec.p_nu
    if C.ndim != 2 or C.shape[1] != p.size:
        raise ValueError("cost vector length mismatch")
    y = np.zeros(p.size) if y_nu is None else np.atleast_1d(np.asarray(y_nu, float))
    face = np.isfinite(C)
    if spec.drops_zero_weights:
        # any mass on a zero base weight costs +inf under these families
        face &= p > 0.0
    live = face.any(axis=1)
    if not live.all():  # a row with no scenario left: +inf at u = -p
        U = np.tile(-p, (len(C), 1))
        vals = np.full(len(C), INF)
        if live.any():
            U[live], vals[live] = u_step_rows(spec, C[live], y)
        return U, vals
    c = np.where(face, C - y, INF)  # +inf off the face
    Q = _ROW_STEPS[spec.row_step](spec, c, face)
    # the value as u_subproblem_rows forms it: (p + u)_i C_i added in
    # scenario order with 0 * inf = 0, then the penalty, then -<y, u>
    U = Q - p
    W = p + U
    with np.errstate(invalid="ignore"):
        total = np.where(W == 0.0, 0.0, W * C).sum(axis=1)
    return U, total + spec.penalty_rows(U) - (U * y).sum(axis=1)


def u_step(spec: RockafellianSpec, costs, y_nu=None) -> Tuple[np.ndarray, float]:
    """Exact minimizer over {u | p + u in the simplex} at fixed costs.

    Scenarios with infinite cost are excluded from receiving weight (the
    minimization is restricted to the face where they carry none), and so,
    for theta > 0, are zero base weights under a divergence family whose
    limit_slope is infinite; if no scenario is left the value is +inf at
    u = -p. This is the one-row case of ``u_step_rows``.
    """
    U, vals = u_step_rows(
        spec, np.atleast_1d(np.asarray(costs, dtype=float))[None, :], y_nu)
    return U[0], float(vals[0])


def composite_u_step(spec: CompositePenalty, expectation, bound,
                     y_nu=None) -> Tuple[np.ndarray, float]:
    """Closed-form constraint-slack perturbation at a fixed decision.

    Minimizes (theta/2)|u|^2 - <y, u> over u <= bound - expectation; the
    unconstrained minimizer y/theta is clipped componentwise.
    """
    if spec.theta_nu <= 0:
        raise ValueError("composite variant needs theta_nu > 0")
    if y_nu is not None:
        spec = dataclasses.replace(spec, y_nu=y_nu)
    U, vals = spec.slack_rows(0.0, np.atleast_2d(np.asarray(expectation, dtype=float)),
                              np.atleast_1d(np.asarray(bound, dtype=float)))
    return U[0], float(vals[0])


def u_step_grid_oracle(spec: RockafellianSpec, costs, y_nu=None,
                       stages: Sequence[Tuple[float, Optional[float]]] = (
                           (1e-2, None), (1e-3, 2.5e-2), (1e-4, 2.5e-3)),
                       ) -> Tuple[np.ndarray, float]:
    """Multi-stage simplex-grid minimization of the u-subproblem.

    Independent of the closed-form steps: pure enumeration at each stage,
    refined around the incumbent. Intended for s <= 4.
    """
    costs = np.atleast_1d(np.asarray(costs, dtype=float))
    s = spec.p_nu.size
    best_u = np.zeros(s)
    best_v = u_subproblem_value(spec, costs, y_nu, best_u)
    center = spec.p_nu.copy()
    for resolution, radius in stages:
        U = np.array(simplex_grid(s, resolution,
                                  center=None if radius is None else center,
                                  radius=radius)).reshape(-1, s) - spec.p_nu
        # every point scored at once, then taken in grid order: an incumbent
        # gives way only to a strict improvement beyond a relative 1e-15
        for u, v in zip(U, u_subproblem_rows(spec, costs, y_nu, U).tolist()):
            margin = 0.0 if best_v == INF else 1e-15 * max(1.0, abs(best_v))
            if v < best_v - margin:
                best_v = v
                best_u = u
        center = spec.p_nu + best_u
    return best_u, best_v


def _project_box(x: np.ndarray, box) -> np.ndarray:
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    return np.clip(x, lo, hi)


def x_step(objective: Callable[[np.ndarray], float],
           method: ProjectedGradientMethod,
           gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None,
           x0: Optional[np.ndarray] = None) -> Tuple[np.ndarray, float]:
    """Minimize the objective over the method's box by projected gradient,
    from x0 or the box's centre; it needs a gradient callable. (On a grid
    ``solve_joint`` tabulates the objective itself.)
    """
    if not isinstance(method, ProjectedGradientMethod):
        raise TypeError(f"unknown x method {type(method)!r}")
    if gradient is None:
        raise ValueError("projected gradient needs a gradient callable")
    x = np.array([0.5 * (lo + hi) for lo, hi in method.box]) if x0 is None \
        else np.asarray(x0, dtype=float).copy()
    x = _project_box(x, method.box)
    fx = objective(x)
    if fx == INF:
        raise InfeasibleAtResolution("infinite objective at the start point")
    step = 1.0
    for _ in range(method.iters):
        g = gradient(x)
        moved = False
        t = step
        for _ in range(60):
            cand = _project_box(x - t * g, method.box)
            fc = objective(cand)
            drop = float(g @ (x - cand))
            if fc <= fx - 0.5 * drop and fc < fx:
                x, fx = cand, fc
                step = min(t * 2.0, 1e6)
                moved = True
                break
            t *= 0.5
        if not moved:
            break
        if float(np.linalg.norm(_project_box(x - g, method.box) - x)) < method.tol:
            break
    return x, fx


Reduced = Callable[[np.ndarray], Tuple[float, Optional[np.ndarray]]]


def _reduced_objective(spec: RockafellianSpec, program: StochasticProgram) -> Reduced:
    """x -> (min over u of the relaxation at x, a minimizing u), for the
    anchored and simplex variants at one decision.

    These variants have an exact u-step, so this is the relaxation with u
    eliminated; the u is None where the value is +inf.
    """
    if isinstance(spec, ExactIndicator):
        u0 = np.zeros(spec.perturbation_size(program))
        return lambda x: (eval_exact(program, u0, x), u0)
    tilt = spec.tilt()

    def reduced(x: np.ndarray) -> Tuple[float, Optional[np.ndarray]]:
        f0 = program.f0(x)
        if f0 == INF:
            return INF, None
        u, inner = u_step(spec, program.costs(x), tilt)
        return ext_add(f0, inner), u

    return reduced


class _Remembered:
    """A reduced objective that keeps its result at the last point evaluated
    and at the last point kept: projected gradient asks for the gradient at
    the point its line search has just accepted, and solve_joint for the u
    at the final iterate, so no point takes a second u-step."""

    def __init__(self, reduced: Reduced):
        self._reduced = reduced
        self._last: Optional[Tuple[np.ndarray, tuple]] = None
        self._kept: Optional[Tuple[np.ndarray, tuple]] = None

    def __call__(self, x: np.ndarray) -> Tuple[float, Optional[np.ndarray]]:
        for memo in (self._last, self._kept):
            if memo is not None and np.array_equal(memo[0], x):
                return memo[1]
        result = self._reduced(x)
        self._last = (np.array(x, dtype=float), result)
        return result

    def keep(self, x: np.ndarray) -> Tuple[float, Optional[np.ndarray]]:
        result = self(x)
        self._kept = (np.array(x, dtype=float), result)
        return result


def _danskin_gradient(spec: RockafellianSpec, program: StochasticProgram,
                      reduced: _Remembered) -> Callable[[np.ndarray], np.ndarray]:
    """Gradient of the reduced objective: the x-gradient of the relaxation at
    the minimizing weights q* = p + u*(x), which are unique under the
    quadratic and strictly convex divergence penalties."""

    def grad(x: np.ndarray) -> np.ndarray:
        q = spec.weights(program, reduced.keep(x)[1])
        g = program.f0.grad(x)
        for qi, f in zip(q, program.scenarios):
            if qi != 0.0:
                g = g + qi * f.grad(x)
        return g

    return grad


def plain_objective(spec, program: StochasticProgram, u, x, v=None) -> float:
    """Reweighted expectation at the final point, without penalty or tilt;
    at the support shifts v where the support variant reports them."""
    if v is None:
        return weighted_objective(program, spec.weights(program, u), x)
    return spec.expectation(program, PerturbationPoint(u, v), x)[0]


def _v_axis(spec: RockafellianSpec, v_box: Optional[Tuple[float, float]],
            v_resolution: Optional[float]) -> Optional[np.ndarray]:
    """The support variant's shift axis (None for the other variants), with
    the checks every support grid path needs."""
    if not isinstance(spec, SupportPerturbation):
        return None
    if v_box is None or v_resolution is None:
        raise ValueError("the support variant needs v_box and v_resolution")
    if spec.xi_nu.shape[1] != 1:
        raise ValueError("the support variant handles 1-d support points only")
    return grid_axis(v_box[0], v_box[1], v_resolution)


def solve_joint(program: StochasticProgram, spec: RockafellianSpec,
                config: SolveConfig,
                oracle_value: Optional[float] = None) -> SolveReport:
    """Minimize the relaxation jointly over the perturbation and the decision.

    The decision step runs once, on the reduced objective
    r(x) = min_{u, v} f(u, v, x), and the reported perturbation is its
    minimizer at the reported decision. On the grid, r is tabulated at every
    decision with array operations and the first smallest value wins: the
    grid-exact joint minimum (for the support variant, over weights on the
    grid of ``SUPPORT_WEIGHT_STEPS``, then polished by the exact u-step).
    Projected gradient runs on the variants with an exact u-step. The
    reported value is the relaxation evaluated at the reported point.
    """
    method = config.x_method
    v_axis = _v_axis(spec, config.v_box, config.v_resolution)
    if isinstance(method, GridMethod):
        xs = _grid_array(method.box, method.resolution)
        x_values, u_rows, v_rows = _reduced_grid_values(program, spec, xs, v_axis)
        ix = _grid_argmin(x_values, "no finite grid point in the box")
        x, u = xs[ix].copy(), u_rows[ix].copy()
        v = None if v_rows is None else v_rows[ix].copy()
    else:
        if isinstance(spec, (CompositePenalty, SupportPerturbation)):
            raise ValueError(f"{type(spec).__name__} requires the grid method")
        reduced = _Remembered(_reduced_objective(spec, program))
        x, _ = x_step(lambda z: reduced(z)[0], method,
                      gradient=_danskin_gradient(spec, program, reduced))
        u, v = reduced(x)[1], None
    value = spec.value(program, PerturbationPoint(u, v), x)
    unbounded = value < -1e15
    return SolveReport(u_final=u, x_final=x, value=value,
                       plain_objective=-INF if unbounded
                       else plain_objective(spec, program, u, x, v),
                       trace=[value], iterations=1, v_final=v,
                       epsilon_certificate=None if oracle_value is None
                       else value - oracle_value,
                       unbounded=unbounded)


@dataclass
class OracleResult:
    u: np.ndarray
    x: np.ndarray
    value: float
    argmin_sets: Dict[float, np.ndarray]
    v: Optional[np.ndarray] = None


def _tabulate(fn: Callable[[np.ndarray], float], xs: np.ndarray) -> np.ndarray:
    """fn at each row of xs: one batch call for a ScenarioFunction that
    declares ``evaluate_batch``, else one call per row."""
    if isinstance(fn, ScenarioFunction):
        return fn.tabulate(xs)
    return np.fromiter((fn(x) for x in xs), dtype=float, count=len(xs))


def _grid_argmin(values: np.ndarray, message: str) -> int:
    """The first smallest grid value, nan counting as +inf; raises
    InfeasibleAtResolution when every value is +inf."""
    ix = int(np.argmin(_nan_to_inf(values)))
    if values[ix] == INF:
        raise InfeasibleAtResolution(message)
    return ix


class _CostTable:
    """f0 and per-scenario costs on a fixed decision grid.

    f0 and each cost column are evaluated over the whole grid the first time
    a weighting needs them and are kept, so every cost is computed at most
    once per grid decision however many weightings are asked for.
    """

    def __init__(self, xs: np.ndarray, f0: Callable[[np.ndarray], float],
                 costs: Sequence[Callable[[np.ndarray], float]]):
        self.xs = xs
        self._f0_fn = f0
        self._cost_fns = costs
        self._f0: Optional[np.ndarray] = None
        self._F = np.zeros((len(xs), len(costs)))
        self._have = np.zeros(len(costs), dtype=bool)

    def weighted(self, W: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        """f0 + sum_i W[k, i] cost_i at each decision in ``rows`` (axis 0)
        under each weighting k (axis 1).

        Terms are added in scenario order, as ``weighted_objective`` adds
        them, and a zero weight adds nothing, so 0 * inf = 0.
        """
        if self._f0 is None:
            self._f0 = _tabulate(self._f0_fn, self.xs)
        used = np.any(W != 0.0, axis=0)
        for i in np.flatnonzero(used & ~self._have):
            self._F[:, i] = _tabulate(self._cost_fns[i], self.xs)
            self._have[i] = True
        F = self._F[rows]
        total = np.repeat(self._f0[rows][:, None], W.shape[0], axis=1)
        term = np.empty_like(total)
        with np.errstate(invalid="ignore"):
            for i in np.flatnonzero(used):
                w = W[:, i]
                np.multiply.outer(F[:, i], w, out=term)
                term[:, w == 0.0] = 0.0
                total += term
        return total


def _weightings(spec: RockafellianSpec, program: StochasticProgram,
                U: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per perturbation row u: the weights the relaxation puts on the costs,
    its penalty (+inf off the perturbation set) and its -<y, u> term, formed
    as eval_approx forms them."""
    W = np.broadcast_to(spec.weights(program, U), (len(U), program.s))
    pen = np.empty(len(U))
    tilt = np.empty(len(U))
    for k, u in enumerate(U):
        pen[k], tilt[k] = spec.perturbation_cost(u)
    return W, pen, tilt


def _nan_to_inf(vals: np.ndarray) -> np.ndarray:
    """A nan candidate never wins a strict comparison, so it counts as +inf."""
    vals[np.isnan(vals)] = INF
    return vals


def _simplex_grid_values(program: StochasticProgram, spec: RockafellianSpec,
                         xs: np.ndarray, U: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Per decision, the minimum of eval_approx over the rows of U and the
    first row attaining it."""
    W, pen, tilt = _weightings(spec, program, U)
    table = _CostTable(xs, program.f0, program.scenarios)
    x_values = np.empty(len(xs))
    best_k = np.empty(len(xs), dtype=int)
    step = max(1, ORACLE_BLOCK_FLOATS // len(U))
    for start in range(0, len(xs), step):
        rows = slice(start, start + step)
        vals = table.weighted(W, rows)
        vals += pen
        vals += tilt
        k = np.argmin(_nan_to_inf(vals), axis=1)
        best_k[rows] = k
        x_values[rows] = vals[np.arange(k.size), k]
    return x_values, U[best_k]


def _generator_blocks(program: StochasticProgram, spec: SupportPerturbation,
                      xs: np.ndarray, v_axis: np.ndarray, floats_per_decision: int):
    """The decisions in xs where f0 is finite, in blocks of at most
    ORACLE_BLOCK_FLOATS // floats_per_decision: per block their indices, f0
    there, and the generator at each of them (axis 0), support point (axis
    1) and shift on v_axis (axis 2), with one call each."""
    f0 = _tabulate(program.f0, xs)
    keep = np.flatnonzero(f0 != INF)
    shifted = [[pt + v_axis[j:j + 1] for j in range(v_axis.size)] for pt in spec.xi_nu]
    step = max(1, ORACLE_BLOCK_FLOATS // floats_per_decision)
    for start in range(0, keep.size, step):
        rows = keep[start:start + step]
        G = np.array([[[float(program.generator(z, x)) for z in row]
                       for row in shifted] for x in xs[rows]])
        yield rows, f0[rows], G.reshape(rows.size, len(shifted), v_axis.size)


def _shift_minima(G: np.ndarray, w: np.ndarray, shift_pen: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """min over the shifts j of w_a G[k, j] + shift_pen[j], with 0 * inf = 0,
    at each row k of G (axis 0) and weight w_a (axis 1), and the first j
    attaining it."""
    with np.errstate(invalid="ignore"):  # 0 * inf, overwritten next
        terms = w[:, None] * G[:, None, :]
    terms[:, w == 0.0] = 0.0
    terms += shift_pen
    j = np.argmin(terms, axis=2)
    return np.take_along_axis(terms, j[..., None], axis=2)[..., 0], j


def _support_grid_values(program: StochasticProgram, spec: SupportPerturbation,
                         xs: np.ndarray, U: np.ndarray, v_axis: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per decision, the minimum over the rows of U and the shifts on v_axis,
    with the first (u, v) attaining it.

    The shift penalty separates per scenario at fixed (u, x), so the v
    product grid collapses to one axis per scenario, and each scenario's
    best shift depends on its weight alone, which takes few distinct values
    over the rows; the generator is called once per (decision, scenario,
    shift), never where f0 is +inf.
    """
    W, pen, tilt = _weightings(spec, program, U)
    levels = [np.unique(W[:, i], return_inverse=True) for i in range(program.s)]
    shift_pen = 0.5 * spec.lambda_nu * v_axis * v_axis
    x_values = np.full(len(xs), INF)
    u_rows, v_rows = np.zeros((len(xs), program.s)), np.zeros((len(xs), program.s, 1))
    per = max(len(U), max(program.s, *(w.size for w, _ in levels)) * v_axis.size)
    for rows, f0, G in _generator_blocks(program, spec, xs, v_axis, per):
        total = f0[:, None] + pen + tilt
        picks = []
        for i, (w, inv) in enumerate(levels):
            h, j = _shift_minima(G[:, i], w, shift_pen)
            total += h[:, inv]
            picks.append(j[:, inv])
        at = np.arange(rows.size)
        k = np.argmin(_nan_to_inf(total), axis=1)
        x_values[rows], u_rows[rows] = total[at, k], U[k]
        v_rows[rows, :, 0] = v_axis[np.stack([j[at, k] for j in picks], axis=1)]
    return x_values, u_rows, v_rows


def _support_reduced_values(program: StochasticProgram, spec: SupportPerturbation,
                            xs: np.ndarray, v_axis: np.ndarray
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """r(x) = min over (u, v) of the support relaxation at every decision in
    xs, with a minimizing u and v per decision.

    At a fixed decision the term h_i(q_i) = min_v [q_i g(xi_i + v, x) +
    (lambda/2) v^2] + (theta/2) u_i^2 - y_i u_i depends on scenario i's own
    weight q_i = p_i + u_i only. On the weights a / SUPPORT_WEIGHT_STEPS the
    problem is thus a separable allocation under sum q = 1, which a min-plus
    program over the mass solves, ties going to the first a scenario by
    scenario. The exact u-step at the shifts it picked replaces its u where
    that is strictly lower.
    """
    K, s = SUPPORT_WEIGHT_STEPS, program.s
    y = spec.tilt()
    Ua = np.arange(K + 1) / K - spec.p_nu[:, None]  # u putting weight a / K on i
    Wa = spec.p_nu[:, None] + Ua  # the weights enter unclipped
    shift_pen = 0.5 * spec.lambda_nu * v_axis * v_axis
    rest = np.arange(K + 1)[:, None] - np.arange(K + 1)  # mass m less part a
    vals, U, V = np.full(len(xs), INF), np.zeros((len(xs), s)), np.zeros((len(xs), s, 1))
    per = max(s, K + 1) * max(v_axis.size, K + 1)
    for rows, f0, G in _generator_blocks(program, spec, xs, v_axis, per):
        at = np.arange(rows.size)[:, None]
        H, J = zip(*(_shift_minima(G[:, i], Wa[i], shift_pen) for i in range(s)))
        H = _nan_to_inf(np.stack(H, axis=1) + (0.5 * spec.theta_nu * Ua * Ua
                                               - y[:, None] * Ua))
        # best[:, m]: the least sum of h over the scenarios after i at mass
        # m / K; picks[i][:, m]: the first part of scenario i attaining it
        best, picks = H[:, -1], []
        for i in range(s - 2, -1, -1):
            M = best[:, np.maximum(rest, 0)]
            M[:, rest < 0] = INF
            M += H[:, i, None, :]
            picks.insert(0, np.argmin(M, axis=2))
            best = M.min(axis=2)
        A, mass = np.empty((rows.size, s), dtype=int), np.full(rows.size, K)
        for i, pick in enumerate(picks):
            A[:, i] = pick[at[:, 0], mass]
            mass = mass - A[:, i]
        A[:, -1] = mass
        jv = np.stack(J, axis=1)[at, np.arange(s), A]
        grid_vals = f0 + best[:, K]
        # polish: the exact u-step at the shifted costs the program picked
        U_step, inner = u_step_rows(spec, G[at, np.arange(s), jv], y)
        polished = f0 + inner + shift_pen[jv].sum(axis=1)
        better = polished < grid_vals
        U[rows] = np.where(better[:, None], U_step, Ua[np.arange(s), A])
        vals[rows] = np.where(better, polished, grid_vals)
        V[rows, :, 0] = v_axis[jv]
    return vals, U, V


def _anchored_grid_values(program: StochasticProgram, spec: RockafellianSpec,
                          xs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per decision, the minimum over u of the anchored or composite
    relaxation and its minimizer: both keep their anchor's weights, so the
    value is the table at those weights, and where it is finite the
    variant's closed-form step on the constraint block (``slack_rows``),
    whose maps are evaluated only there."""
    anchor = spec.weights(program, None)
    vals = _CostTable(xs, program.f0, program.scenarios).weighted(anchor[None, :])[:, 0]
    U = np.zeros((len(xs), spec.perturbation_size(program)))
    block = program.composite
    if block is not None:
        finite = vals != INF
        U[finite], vals[finite] = spec.slack_rows(
            vals[finite], block.expectation_table(anchor, xs[finite]), block.b)
    return vals, U


def _reduced_grid_values(program: StochasticProgram, spec: RockafellianSpec,
                         xs: np.ndarray, v_axis: Optional[np.ndarray] = None
                         ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """r(x) = min over the perturbation of the relaxation at every decision
    in xs, with a minimizing u per decision and, for the support variant
    (shifts on v_axis), a minimizing v; the v rows are None otherwise.

    The anchored and composite variants tabulate at their anchor's weights;
    the simplex variants evaluate the costs only where f0 is finite and take
    the u-steps of a block of rows at once.
    """
    if v_axis is not None:
        return _support_reduced_values(program, spec, xs, v_axis)
    if not isinstance(spec, SimplexPenalty):
        return (*_anchored_grid_values(program, spec, xs), None)
    f0 = _tabulate(program.f0, xs)
    keep = np.flatnonzero(f0 != INF)
    vals = np.full(len(xs), INF)
    U = np.zeros((len(xs), program.s))
    tilt = spec.tilt()
    step = max(1, ORACLE_BLOCK_FLOATS // program.s)
    for start in range(0, keep.size, step):
        rows = keep[start:start + step]
        C = np.column_stack([_tabulate(f, xs[rows]) for f in program.scenarios])
        U[rows], inner = u_step_rows(spec, C, tilt)
        vals[rows] = f0[rows] + inner
    return vals, U, None


def brute_force_oracle(program: StochasticProgram, spec: RockafellianSpec,
                       u_resolution: float, x_box, x_resolution: float,
                       deltas: Sequence[float] = (),
                       v_box: Optional[Tuple[float, float]] = None,
                       v_resolution: Optional[float] = None) -> OracleResult:
    """Exhaustive ground truth over perturbation and decision grids.

    For each decision point the oracle takes the minimum over its
    perturbation grid, so the delta-argmin sets are sets of decisions.
    It enumerates every grid pair and never calls the solver's steps, but
    evaluates f0, each scenario cost and each constraint map once per grid
    decision (the support generator once per decision, scenario and shift)
    and takes the minimum over the perturbation grid with array operations.
    Ties go to the first decision in lexicographic grid order, then to the
    first perturbation in ``simplex_grid`` order.
    """
    s = program.s
    U = None
    if isinstance(spec, SimplexPenalty):
        if s > 4:
            raise ValueError("simplex grids limited to s <= 4")
        U = np.array(simplex_grid(s, u_resolution)) - spec.p_nu

    xs = _grid_array(x_box, x_resolution)
    v_axis = _v_axis(spec, v_box, v_resolution)
    n_evals = len(xs) * (1 if U is None else len(U)) * (
        s * v_axis.size if v_axis is not None else 1)
    if n_evals > MAX_GRID_EVALS:
        raise ValueError(f"{n_evals} oracle evaluations exceed the cap")

    v_rows = None
    if U is None:
        # one perturbation per decision: the solver's own tabulation
        x_values, u_rows, _ = _reduced_grid_values(program, spec, xs)
    elif v_axis is not None:
        x_values, u_rows, v_rows = _support_grid_values(program, spec, xs, U, v_axis)
    else:
        x_values, u_rows = _simplex_grid_values(program, spec, xs, U)

    ix = _grid_argmin(x_values, "oracle found no finite point")
    best_val = x_values[ix]
    sets = {float(d): xs[x_values <= best_val + d + 1e-12] for d in deltas}
    return OracleResult(u=u_rows[ix].copy(), x=xs[ix].copy(), value=float(best_val),
                        argmin_sets=sets,
                        v=None if v_rows is None else v_rows[ix].copy())


def make_min_value_oracle(program: StochasticProgram, spec: RockafellianSpec,
                          x_box, x_resolution: float) -> Callable[[np.ndarray], float]:
    """u -> grid infimum over x of the selected relaxation at that u.

    f0 and each scenario cost (for the support variant, the generator at the
    unshifted support points) are tabulated on the x-grid the first time a
    query puts weight on them, and the composite expectation the first time
    a query needs it; later queries are array reductions. Queries off the
    shifted simplex, or off u = 0 for the exact variant, evaluate nothing.
    For the composite variant the weighted objective is tabulated on the
    whole grid, including decisions the query finds infeasible.
    """
    xs = _grid_array(x_box, x_resolution)
    if isinstance(spec, SimplexPenalty):  # u moves the weights
        costs, block = spec.cost_functions(program), None
    else:  # the weights stay at the anchor, and u moves the constraint's bound
        costs, block = program.scenarios, program.composite
    table = _CostTable(xs, program.f0, costs)
    size = spec.perturbation_size(program)
    anchor = spec.weights(program, np.zeros(size))
    expectation = functools.cache(lambda: block.expectation_table(anchor, xs))

    def oracle(u: np.ndarray) -> float:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.size != size:
            raise ValueError("perturbation dimension mismatch")
        W, pen, tilt = _weightings(spec, program, u[None, :])
        if pen[0] == INF:
            return INF
        vals = (table.weighted(W) + pen + tilt)[:, 0]
        if block is not None:
            vals[_violates(block.b, u + expectation())] = INF
        return float(np.min(_nan_to_inf(vals)))

    return oracle
