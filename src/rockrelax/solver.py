"""Joint minimization of the relaxed objective and brute-force grid oracles.

Each simplex variant has an exact reweighting step (a simplex projection, a
dual bisection, or the l1 closed form), and the composite variant a
closed-form slack step, so the solver minimizes the reduced objective
min_u f(u, x) with one pluggable decision step. Only the support variant
alternates. Grid oracles provide ground truth on small instances.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .extreal import INF, StochasticProgram, ext_add, ext_mul, weighted_objective
from .rockafellian import (CompositePenalty, ExactIndicator, L1Penalty,
                           PerturbationPoint, PhiDivergencePenalty,
                           QuadraticPenalty, RockafellianSpec,
                           SupportPerturbation, _in_simplex, eval_approx,
                           eval_exact, support_cost, weight_penalty)
from .simplex import project_to_simplex

MAX_GRID_EVALS = 10 ** 8

#: the grid oracles work through their decisions in blocks small enough that
#: no (decisions x perturbations) temporary holds more than this many floats
ORACLE_BLOCK_FLOATS = 2 ** 18


class InfeasibleAtResolution(RuntimeError):
    """Every grid point evaluated to +inf."""


@dataclass(frozen=True)
class GridMethod:
    """Exhaustive search over a box grid; ties go to the first point in
    lexicographic order."""

    box: Sequence[Tuple[float, float]]
    resolution: float

    def __post_init__(self):
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")


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
    max_outer_iters: int = 50
    objective_tolerance: float = 1e-9
    v_box: Optional[Tuple[float, float]] = None
    v_resolution: Optional[float] = None

    def __post_init__(self):
        if self.objective_tolerance <= 0:
            raise ValueError("objective_tolerance must be positive")
        if self.max_outer_iters < 1:
            raise ValueError("need at least one outer iteration")


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


def grid_points(box: Sequence[Tuple[float, float]], resolution: float):
    """Lexicographically ordered grid point iterator over a box."""
    axes = [grid_axis(lo, hi, resolution) for lo, hi in box]
    total = 1
    for a in axes:
        total *= a.size
    if total > MAX_GRID_EVALS:
        raise ValueError(f"grid of {total} points exceeds the evaluation cap")
    return (np.array(pt) for pt in itertools.product(*axes))


def simplex_grid(s: int, resolution: float, center: Optional[np.ndarray] = None,
                 radius: Optional[float] = None) -> List[np.ndarray]:
    """Probability vectors with components that are multiples of resolution.

    With a center and radius, only the points within the sup-norm ball are
    generated, which supports multi-stage refinement.
    """
    k = int(round(1.0 / resolution))
    out: List[np.ndarray] = []

    def bounds(i: int) -> Tuple[int, int]:
        if center is None or radius is None:
            return 0, k
        lo = max(0, int(math.ceil((center[i] - radius) * k - 1e-9)))
        hi = min(k, int(math.floor((center[i] + radius) * k + 1e-9)))
        return lo, hi

    counts = np.zeros(s, dtype=int)

    def rec(i: int, remaining: int):
        if i == s - 1:
            lo, hi = bounds(i)
            if lo <= remaining <= hi:
                counts[i] = remaining
                out.append(counts / k)
            return
        lo, hi = bounds(i)
        for c in range(lo, min(hi, remaining) + 1):
            counts[i] = c
            rec(i + 1, remaining - c)

    rec(0, k)
    return out


def _face_split(costs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    costs = np.atleast_1d(np.asarray(costs, dtype=float))
    if np.any(np.isneginf(costs)) or np.any(np.isnan(costs)):
        raise ValueError("costs must avoid -inf and nan")
    finite = np.isfinite(costs)
    return costs, finite


def u_subproblem_value(spec: RockafellianSpec, costs, y_nu, u) -> float:
    """The u-dependent part of the relaxed objective at fixed x.

    Sum of (p + u)_i costs_i plus the variant's penalty minus <y, u>;
    infinite costs on zero-weight coordinates contribute nothing.
    """
    costs, _ = _face_split(costs)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    y = np.zeros(u.size) if y_nu is None else np.atleast_1d(np.asarray(y_nu, float))
    q = spec.p_nu + u
    total = 0.0
    for qi, ci in zip(q, costs):
        total = ext_add(total, ext_mul(qi, ci))
    pen = weight_penalty(spec, u, np.maximum(q, 0.0))
    return ext_add(ext_add(total, pen), -float(y @ u))


def _quadratic_u_step(spec, costs: np.ndarray, y: np.ndarray, finite: np.ndarray,
                      theta: float) -> np.ndarray:
    p = spec.p_nu
    q = np.zeros(p.size)
    c = costs[finite] - y[finite]
    if theta == 0.0:
        j = int(np.argmin(c))
        q[np.nonzero(finite)[0][j]] = 1.0
        return q
    q[finite] = project_to_simplex(p[finite] - c / theta)
    return q


def _phi_u_step(spec: PhiDivergencePenalty, costs: np.ndarray, y: np.ndarray,
                finite: np.ndarray) -> np.ndarray:
    p = spec.p_nu
    theta = spec.theta_nu
    fam = spec.family
    idx = np.nonzero(finite)[0]
    c = costs[idx] - y[idx]
    psub = p[idx]
    q = np.zeros(p.size)
    if theta == 0.0:
        q[idx[int(np.argmin(c))]] = 1.0
        return q

    if fam.tag == "variational":
        # sum p_i |q_i/p_i - 1| = |u|_1 (a zero base weight adds q_i = |u_i|),
        # so this subproblem is exactly the l1 one at strength theta
        return _l1_u_step(p, costs, y, finite, theta)
    if fam.dphi_inv is None:
        raise ValueError(f"{fam.tag}: reweighting needs the inverse of Phi'")

    # u_step keeps zero base weights on the face only for a finite
    # limit_slope; there mass on them costs c_i + theta * slope linearly,
    # so the multiplier mu cannot exceed the cheapest such cost
    pos = psub > 0.0
    zero_cost = c[~pos] + theta * fam.limit_slope
    cpos, ppos = c[pos], psub[pos]

    def mass(mu: float) -> float:
        total = 0.0
        for ci, pi in zip(cpos, ppos):
            t = fam.dphi_inv((mu - ci) / theta)
            if t == INF:
                return INF
            total += pi * t
        return total

    capped = zero_cost.size > 0 and mass(float(zero_cost.min())) < 1.0
    if capped:
        mu = float(zero_cost.min())
    else:
        lo, hi = float(cpos.min()), float(cpos.max())
        if mass(hi) < 1.0:
            span = max(1.0, hi - lo)
            while mass(hi) < 1.0:
                hi += span
                span *= 2.0
        if zero_cost.size:
            hi = min(hi, float(zero_cost.min()))
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mass(mid) < 1.0:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-15 * max(1.0, abs(hi)):
                break
        mu = 0.5 * (lo + hi)
    t = np.array([min(fam.dphi_inv((mu - ci) / theta), 1.0 / pi)
                  for ci, pi in zip(cpos, ppos)])
    qsub = np.maximum(ppos * t, 0.0)
    if capped:
        # the positive weights fall short of 1 at the cap; the rest goes
        # to the first cheapest zero-weight scenario
        q[idx[pos]] = qsub
        q[idx[~pos][int(np.argmin(zero_cost))]] = 1.0 - qsub.sum()
        return q
    total = qsub.sum()
    if total <= 0:
        raise ArithmeticError("divergence dual bisection collapsed")
    q[idx[pos]] = qsub / total
    return q


def _l1_u_step(p: np.ndarray, costs: np.ndarray, y: np.ndarray,
               finite: np.ndarray, theta: float) -> np.ndarray:
    """Moving a unit of weight from scenario i to j changes the objective by
    c_j - c_i + 2 theta, so the minimizer keeps p on the finite face except
    that every scenario costing more than min c + 2 theta hands its weight to
    the first cheapest one, which also receives the weight of the scenarios
    off the face. Ties at exactly 2 theta stay put."""
    c = np.where(finite, costs - y, INF)
    j = int(np.argmin(c))
    move = ~finite | (c > c[j] + 2.0 * theta)
    q = np.where(move, 0.0, p)
    q[j] += p[move].sum()
    return q


def u_step(spec: RockafellianSpec, costs, y_nu=None) -> Tuple[np.ndarray, float]:
    """Exact minimizer over {u | p + u in the simplex} at fixed costs.

    Scenarios with infinite cost are excluded from receiving weight (the
    minimization is restricted to the face where they carry none), and so,
    for theta > 0, are zero base weights under a divergence family whose
    limit_slope is infinite; if no scenario is left the value is +inf at
    u = -p.
    """
    if isinstance(spec, (ExactIndicator, CompositePenalty)):
        raise TypeError("this variant has no simplex reweighting step")
    costs, finite = _face_split(np.asarray(costs, dtype=float))
    p = spec.p_nu
    if costs.size != p.size:
        raise ValueError("cost vector length mismatch")
    y = np.zeros(p.size) if y_nu is None else np.atleast_1d(np.asarray(y_nu, float))
    if (isinstance(spec, PhiDivergencePenalty) and spec.theta_nu > 0.0
            and spec.family.limit_slope == INF):
        # any mass on a zero base weight costs +inf under these families
        finite = finite & (p > 0.0)
    if not finite.any():
        return -p.copy(), INF
    if isinstance(spec, (QuadraticPenalty, SupportPerturbation)):
        q = _quadratic_u_step(spec, costs, y, finite, spec.theta_nu)
    elif isinstance(spec, PhiDivergencePenalty):
        q = _phi_u_step(spec, costs, y, finite)
    elif isinstance(spec, L1Penalty):
        q = _l1_u_step(p, costs, y, finite, spec.theta)
    else:
        raise TypeError(f"unknown spec type {type(spec)!r}")
    u = q - p
    return u, u_subproblem_value(spec, costs, y, u)


def composite_u_step(spec: CompositePenalty, expectation, bound,
                     y_nu=None) -> Tuple[np.ndarray, float]:
    """Closed-form constraint-slack perturbation at a fixed decision.

    Minimizes (theta/2)|u|^2 - <y, u> over u <= bound - expectation; the
    unconstrained minimizer y/theta is clipped componentwise.
    """
    if spec.theta_nu <= 0:
        raise ValueError("composite variant needs theta_nu > 0")
    ev = np.atleast_1d(np.asarray(expectation, dtype=float))
    b = np.atleast_1d(np.asarray(bound, dtype=float))
    y = spec.tilt_m(ev.size) if y_nu is None \
        else np.atleast_1d(np.asarray(y_nu, float))
    u = np.minimum(y / spec.theta_nu, b - ev)
    return u, 0.5 * spec.theta_nu * float(u @ u) - float(y @ u)


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
        pts = simplex_grid(s, resolution,
                           center=None if radius is None else center,
                           radius=radius)
        for q in pts:
            u = q - spec.p_nu
            v = u_subproblem_value(spec, costs, y_nu, u)
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


def x_step(objective: Callable[[np.ndarray], float], method: XMethod,
           gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None,
           x0: Optional[np.ndarray] = None) -> Tuple[np.ndarray, float]:
    """Minimize the objective over the method's box.

    The grid method handles discontinuous and extended-real objectives;
    projected gradient needs a gradient callable and a start point.
    """
    if isinstance(method, GridMethod):
        best_x = None
        best_v = INF
        for pt in grid_points(method.box, method.resolution):
            v = objective(pt)
            if v < best_v:
                best_v = v
                best_x = pt
        if best_x is None or best_v == INF:
            raise InfeasibleAtResolution("no finite grid point in the box")
        return best_x, best_v

    if isinstance(method, ProjectedGradientMethod):
        if gradient is None:
            raise ValueError("projected gradient needs a gradient callable")
        x = _box_center(method.box) if x0 is None \
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

    raise TypeError(f"unknown x method {type(method)!r}")


def _box_center(box) -> np.ndarray:
    return np.array([0.5 * (lo + hi) for lo, hi in box])


def _shifted_costs(program: StochasticProgram, spec: SupportPerturbation,
                   v: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.array([float(program.generator(spec.xi_nu[i] + v[i], x))
                     for i in range(spec.xi_nu.shape[0])])


Reduced = Callable[[np.ndarray], Tuple[float, Optional[np.ndarray]]]


def _composite_reduced(spec: CompositePenalty, program: StochasticProgram,
                       x: np.ndarray) -> Tuple[float, Optional[np.ndarray]]:
    """(min over u of the composite relaxation at fixed x, its minimizer);
    the minimizer is None where the value is +inf."""
    block = program.composite
    base = weighted_objective(program, spec.p_nu, x)
    if base == INF:
        return INF, None
    ev = block.expectation(spec.p_nu, np.atleast_1d(np.asarray(x, float)))
    u, inner = composite_u_step(spec, ev, block.b)
    return base + inner, u


def _reduced_objective(spec: RockafellianSpec, program: StochasticProgram) -> Reduced:
    """x -> (min over u of the relaxation at x, a minimizing u).

    Every variant but the support one has an exact u-step, so this is the
    relaxation with u eliminated; the u is None where the value is +inf.
    """
    if isinstance(spec, ExactIndicator):
        u0 = np.zeros(program.s if program.composite is None else program.composite.m)
        return lambda x: (eval_exact(program, u0, x), u0)
    if isinstance(spec, CompositePenalty):
        return functools.partial(_composite_reduced, spec, program)
    tilt = spec.tilt()

    def reduced(x: np.ndarray) -> Tuple[float, Optional[np.ndarray]]:
        f0 = program.f0(x)
        if f0 == INF:
            return INF, None
        u, inner = u_step(spec, program.costs(x), tilt)
        return ext_add(f0, inner), u

    return reduced


def _danskin_gradient(spec: RockafellianSpec, program: StochasticProgram,
                      reduced: Reduced) -> Callable[[np.ndarray], np.ndarray]:
    """Gradient of the reduced objective: the x-gradient of the relaxation at
    the minimizing weights q* = p + u*(x), which are unique under the
    quadratic and strictly convex divergence penalties."""

    def grad(x: np.ndarray) -> np.ndarray:
        q = program.p if isinstance(spec, ExactIndicator) \
            else spec.p_nu + reduced(x)[1]
        g = program.f0.grad(x)
        for qi, f in zip(q, program.scenarios):
            if qi != 0.0:
                g = g + qi * f.grad(x)
        return g

    return grad


def plain_objective(spec, program: StochasticProgram, u, x, v=None) -> float:
    """Reweighted expectation at the final point, without penalty or tilt."""
    if isinstance(spec, ExactIndicator):
        return weighted_objective(program, program.p, x)
    if isinstance(spec, CompositePenalty):
        return weighted_objective(program, spec.p_nu, x)
    q = np.maximum(spec.p_nu + np.atleast_1d(np.asarray(u, float)), 0.0)
    if isinstance(spec, SupportPerturbation) and v is not None:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        total = program.f0(x)
        for i, qi in enumerate(q):
            if qi != 0.0:
                total = ext_add(total, ext_mul(qi, float(
                    program.generator(spec.xi_nu[i] + v[i], x))))
        return total
    return weighted_objective(program, q, x)


def _report(spec, program: StochasticProgram, u, x, value: float,
            trace: List[float], oracle_value: Optional[float],
            v: Optional[np.ndarray] = None) -> SolveReport:
    unbounded = value < -1e15
    return SolveReport(u_final=u, x_final=x, value=value,
                       plain_objective=-INF if unbounded
                       else plain_objective(spec, program, u, x, v),
                       trace=trace, iterations=len(trace), v_final=v,
                       epsilon_certificate=None if oracle_value is None
                       else value - oracle_value,
                       unbounded=unbounded)


def _solve_support(program: StochasticProgram, spec: SupportPerturbation,
                   config: SolveConfig,
                   oracle_value: Optional[float]) -> SolveReport:
    """Alternate the exact u-step at the current shifted costs with a joint
    decision/shift grid step at the new weights: the support oracle with one
    perturbation row."""
    method = config.x_method
    if not isinstance(method, GridMethod):
        raise ValueError("the support variant requires the grid method")
    if config.v_box is None or config.v_resolution is None:
        raise ValueError("support variant needs v_box and v_resolution")
    if spec.xi_nu.shape[1] != 1:
        raise ValueError("the grid shift step supports 1-d support points only")
    v_axis = grid_axis(config.v_box[0], config.v_box[1], config.v_resolution)
    xs = _grid_array(method.box, method.resolution)
    x = _box_center(method.box)
    v = np.zeros_like(spec.xi_nu)
    trace: List[float] = []
    for _ in range(config.max_outer_iters):
        u, _ = u_step(spec, _shifted_costs(program, spec, v, x), spec.tilt())
        x_values, _, v_rows = _support_grid_values(program, spec, xs, u[None, :],
                                                   v_axis)
        ix = int(np.argmin(_nan_to_inf(x_values)))
        if x_values[ix] == INF:
            raise InfeasibleAtResolution("no finite point in the decision box")
        x, v = xs[ix].copy(), v_rows[ix]
        trace.append(float(x_values[ix]))
        if trace[-1] < -1e15 or (len(trace) > 1 and
                                 trace[-2] - trace[-1] < config.objective_tolerance):
            break
    value = eval_approx(spec, program, PerturbationPoint(u, v), x)
    return _report(spec, program, u, x, value, trace, oracle_value, v)


def solve_joint(program: StochasticProgram, spec: RockafellianSpec,
                config: SolveConfig,
                oracle_value: Optional[float] = None) -> SolveReport:
    """Minimize the relaxation jointly over the perturbation and the decision.

    Every variant but the support one has an exact u-step, so the decision
    step runs once, on the reduced objective min_u f(u, x), and the reported
    u is its minimizer at the reported decision: on the grid this is the
    grid-exact joint minimum. The support variant, whose shifts and weights
    are coupled, alternates (see ``_solve_support``). The reported value is
    the relaxation evaluated at the reported point.
    """
    if isinstance(spec, SupportPerturbation):
        return _solve_support(program, spec, config, oracle_value)
    method = config.x_method
    if isinstance(spec, CompositePenalty) and not isinstance(method, GridMethod):
        raise ValueError("the composite variant requires the grid method")
    reduced = _reduced_objective(spec, program)
    grad = _danskin_gradient(spec, program, reduced) \
        if isinstance(method, ProjectedGradientMethod) else None
    x, _ = x_step(lambda z: reduced(z)[0], method, gradient=grad)
    u = reduced(x)[1]
    value = eval_exact(program, u, x) if isinstance(spec, ExactIndicator) \
        else eval_approx(spec, program, u, x)
    return _report(spec, program, u, x, value, [value], oracle_value)


@dataclass
class OracleResult:
    u: np.ndarray
    x: np.ndarray
    value: float
    argmin_sets: Dict[float, np.ndarray]
    v: Optional[np.ndarray] = None


def _grid_array(box, resolution: float) -> np.ndarray:
    """The decision grid as one (points, dimension) array, in grid_points order."""
    return np.fromiter(grid_points(box, resolution),
                       dtype=np.dtype((float, len(box))))


def _tabulate(fn: Callable[[np.ndarray], float], xs: np.ndarray) -> np.ndarray:
    return np.fromiter((fn(x) for x in xs), dtype=float, count=len(xs))


def _expectation_table(block, weights: np.ndarray, xs: np.ndarray) -> np.ndarray:
    ev = np.empty((len(xs), block.m))
    for row, x in enumerate(xs):
        ev[row] = block.expectation(weights, x)
    return ev


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


def _weightings(spec: RockafellianSpec, U: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per perturbation row u: the weights max(p + u, 0) the relaxation puts
    on the costs, its penalty and its -<y, u> term, formed as eval_approx
    forms them; a row whose p + u leaves the simplex gets penalty +inf."""
    y = spec.tilt()
    W = np.maximum(spec.p_nu + U, 0.0)
    pen = np.empty(len(U))
    tilt = np.empty(len(U))
    for k, u in enumerate(U):
        pen[k] = weight_penalty(spec, u, W[k]) if _in_simplex(spec.p_nu + u) else INF
        tilt[k] = -float(y @ u)
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
    W, pen, tilt = _weightings(spec, U)
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


def _support_grid_values(program: StochasticProgram, spec: SupportPerturbation,
                         xs: np.ndarray, U: np.ndarray, v_axis: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per decision, the minimum over the rows of U and the shifts on v_axis,
    with the first (u, v) attaining it.

    The shift penalty separates per scenario at fixed (u, x), so the v
    product grid collapses to one axis per scenario; the generator is called
    once per (decision, scenario, shift), never where f0 is +inf.
    """
    s, nv = program.s, v_axis.size
    W = spec.p_nu + U  # the support variant's weights enter unclipped
    y = spec.tilt()
    pen = np.array([weight_penalty(spec, u, w) for u, w in zip(U, W)])
    tilt = np.array([float(y @ u) for u in U])
    shift_pen = 0.5 * spec.lambda_nu * v_axis * v_axis
    step = max(1, ORACLE_BLOCK_FLOATS // nv)
    x_values = np.full(len(xs), INF)
    u_rows = np.zeros((len(xs), s))
    v_rows = np.zeros((len(xs), s, 1))
    for ix, x in enumerate(xs):
        f0 = program.f0(x)
        if f0 == INF:
            continue
        G = np.array([[float(program.generator(spec.xi_nu[i] + v_axis[j:j + 1], x))
                       for j in range(nv)] for i in range(s)])
        total = f0 + pen - tilt
        V = np.empty((len(U), s))
        for i in range(s):
            for start in range(0, len(U), step):
                rows = slice(start, start + step)
                w = W[rows, i:i + 1]
                with np.errstate(invalid="ignore"):
                    vals = np.where(w == 0.0, 0.0, w * G[i]) + shift_pen
                j = np.argmin(vals, axis=1)
                V[rows, i] = v_axis[j]
                total[rows] += vals[np.arange(j.size), j]
        k = int(np.argmin(_nan_to_inf(total)))
        x_values[ix], u_rows[ix], v_rows[ix, :, 0] = total[k], U[k], V[k]
    return x_values, u_rows, v_rows


def _composite_grid_values(program: StochasticProgram, spec: CompositePenalty,
                           xs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per decision, the closed-form minimum over u of the composite
    relaxation and its minimizer; the constraint maps are evaluated only
    where the weighted objective is finite."""
    block = program.composite
    y = spec.tilt_m(block.m)
    base = _CostTable(xs, program.f0, program.scenarios).weighted(
        spec.p_nu[None, :])[:, 0]
    finite = base != INF
    ev = _expectation_table(block, spec.p_nu, xs[finite])
    U = np.zeros((len(xs), block.m))
    U[finite] = np.minimum(y / spec.theta_nu, block.b - ev)
    x_values = np.full(len(xs), INF)
    uf = U[finite]
    x_values[finite] = base[finite] + 0.5 * spec.theta_nu * np.einsum(
        "ij,ij->i", uf, uf) - uf @ y
    return x_values, U


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
    if not isinstance(spec, (ExactIndicator, CompositePenalty)):
        if s > 4:
            raise ValueError("simplex grids limited to s <= 4")
        U = np.array(simplex_grid(s, u_resolution)) - spec.p_nu

    xs = _grid_array(x_box, x_resolution)
    v_axis = None
    if isinstance(spec, SupportPerturbation):
        if v_box is None or v_resolution is None:
            raise ValueError("support oracle needs a v grid")
        if spec.xi_nu.shape[1] != 1:
            raise ValueError("support oracle handles 1-d support points only")
        v_axis = grid_axis(v_box[0], v_box[1], v_resolution)
    n_evals = len(xs) * (1 if U is None else len(U)) * (
        s * v_axis.size if v_axis is not None else 1)
    if n_evals > MAX_GRID_EVALS:
        raise ValueError(f"{n_evals} oracle evaluations exceed the cap")

    v_rows = None
    if isinstance(spec, ExactIndicator):
        # one perturbation per decision: nothing to reuse
        u0 = np.zeros(program.composite.m if program.composite is not None else s)
        x_values = _tabulate(lambda x: eval_exact(program, u0, x), xs)
        u_rows = np.zeros((len(xs), u0.size))
    elif isinstance(spec, CompositePenalty):
        x_values, u_rows = _composite_grid_values(program, spec, xs)
    elif isinstance(spec, SupportPerturbation):
        x_values, u_rows, v_rows = _support_grid_values(program, spec, xs, U, v_axis)
    else:
        x_values, u_rows = _simplex_grid_values(program, spec, xs, U)

    ix = int(np.argmin(_nan_to_inf(x_values)))
    best_val = x_values[ix]
    if best_val == INF:
        raise InfeasibleAtResolution("oracle found no finite point")
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
    block = program.composite
    if isinstance(spec, SupportPerturbation):
        if program.generator is None:
            raise ValueError("support perturbation requires a generator map")
        costs = [lambda x, pt=pt: support_cost(program, pt, x) for pt in spec.xi_nu]
    else:
        costs = program.scenarios
    table = _CostTable(xs, program.f0, costs)
    anchor = program.p if isinstance(spec, ExactIndicator) else spec.p_nu
    expectation = functools.cache(lambda: _expectation_table(block, anchor, xs))

    def values(u: np.ndarray) -> np.ndarray:
        if isinstance(spec, ExactIndicator):
            if u.size != (program.s if block is None else block.m):
                raise ValueError("perturbation dimension mismatch")
            if np.any(u != 0.0):
                return np.array([INF])
            vals = table.weighted(anchor[None, :])[:, 0]
            if block is not None:
                vals[np.any(expectation() > block.b + 1e-12, axis=1)] = INF
            return vals
        if isinstance(spec, CompositePenalty):
            if block is None:
                raise ValueError("program has no composite block")
            if u.size != block.m:
                raise ValueError("composite perturbation dimension mismatch")
            vals = table.weighted(anchor[None, :])[:, 0] \
                + 0.5 * spec.theta_nu * float(u @ u) - float(spec.tilt_m(block.m) @ u)
            vals[np.any(u + expectation() > block.b + 1e-12, axis=1)] = INF
            return vals
        if u.size != program.s:
            raise ValueError("perturbation dimension mismatch")
        W, pen, tilt = _weightings(spec, u[None, :])
        if pen[0] == INF:
            return pen
        return (table.weighted(W) + pen + tilt)[:, 0]

    def oracle(u: np.ndarray) -> float:
        return float(np.min(_nan_to_inf(values(np.atleast_1d(
            np.asarray(u, dtype=float))))))

    return oracle
