"""Independent numpy computations the benchmark checks rockrelax against.

Nothing here calls rockrelax: the catalog scenario functions, the decision
grids and the reweighting subproblems are written out again from their
definitions, so an error in the package cannot hide in its own check.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize_scalar

#: reweighting families whose penalty is theta * |q - p|_1
L1_FAMILIES = ("l1", "variational")


# -- catalog scenario functions over a batch of decisions -----------------
def catalog_values(fn: dict, X: np.ndarray) -> np.ndarray:
    """Values of one catalog function (a config's ``{"tag", "params"}``) at
    every row of X."""
    tag, par = fn["tag"], fn.get("params", {})
    n = X.shape[1]
    if tag == "linear":
        return X @ np.asarray(par["c"], float) + float(par.get("d", 0.0))
    if tag == "quadratic":
        a = np.asarray(par.get("a", np.ones(n)), float)
        c = np.asarray(par.get("c", np.zeros(n)), float)
        return (X * X) @ a + X @ c + float(par.get("d", 0.0))
    if tag == "hinge":
        margin = float(par["label"]) * (X[:, :-1] @ np.asarray(par["feature"], float)
                                        + X[:, -1])
        return np.maximum(0.0, 1.0 - margin)
    if tag == "cross-entropy":
        z = -float(par["label"]) * (X @ np.asarray(par["feature"], float))
        return np.where(z < 30, np.log1p(np.exp(np.minimum(z, 30.0))), z)
    if tag == "indicator-box":
        lo = np.asarray(par["lo"], float)
        hi = np.asarray(par["hi"], float)
        inside = np.all((X >= lo - 1e-12) & (X <= hi + 1e-12), axis=1)
        return np.where(inside, 0.0, np.inf)
    raise ValueError(f"no reference for catalog tag {tag!r}")


def config_costs(config: dict, X: np.ndarray):
    """(f0 values, scenario cost matrix of shape (len(X), s)) of a config."""
    f0 = catalog_values(config["f0"], X) if "f0" in config else np.zeros(len(X))
    F = np.column_stack([catalog_values(fn, X) for fn in config["scenarios"]])
    return f0, F


def box_grid(box, resolution: float) -> np.ndarray:
    """Lexicographically ordered grid over a box, one point per row."""
    axes = [np.linspace(lo, hi, int(round((hi - lo) / resolution)) + 1)
            for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


# -- the reweighting subproblem ---------------------------------------------
#   min over q in the simplex of  <q, c> + penalty(q - p)
def _phi(family: str, t: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        if family == "kl":
            return np.where(t > 0, t * np.log(np.where(t > 0, t, 1.0)) - t + 1.0, 1.0)
        if family == "burg":
            return np.where(t > 0, -np.log(np.where(t > 0, t, 1.0)) + t - 1.0, np.inf)
        if family == "j":
            return np.where(t > 0, (t - 1.0) * np.log(np.where(t > 0, t, 1.0)), np.inf)
        if family == "chi2":
            return (t - 1.0) ** 2
        if family == "mod_chi2":
            return np.where(t > 0, (t - 1.0) ** 2 / np.where(t > 0, t, 1.0), np.inf)
        if family == "hellinger":
            return (np.sqrt(t) - 1.0) ** 2
    raise ValueError(f"unknown family {family!r}")


def _j_ratio(s: np.ndarray) -> np.ndarray:
    """The t > 0 solving log t + 1 - 1/t = s (the j family's conjugate point)."""
    lo = np.full(s.shape, -60.0)
    hi = np.full(s.shape, 60.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        t = np.exp(mid)
        above = np.log(t) + 1.0 - 1.0 / t > s
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return np.exp(0.5 * (lo + hi))


def _phi_conjugate(family: str, s: np.ndarray) -> np.ndarray:
    """sup over t >= 0 of s t - Phi(t)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        room = np.where(s < 1, 1.0 - s, np.nan)  # burg, mod_chi2, hellinger: s < 1
        if family == "kl":
            return np.expm1(s)
        if family == "burg":
            return np.where(s < 1, -np.log(room), np.inf)
        if family == "chi2":
            return np.where(s >= -2, s + s * s / 4.0, -1.0)
        if family == "mod_chi2":
            return np.where(s < 1, 2.0 - 2.0 * np.sqrt(room), np.inf)
        if family == "hellinger":
            return np.where(s < 1, s / room, np.inf)
        if family == "j":
            t = _j_ratio(s)
            return s * t - (t - 1.0) * np.log(t)
    raise ValueError(f"no conjugate for family {family!r}")


def penalty(kind: str, theta: float, p: np.ndarray, q: np.ndarray) -> float:
    """The reweighting penalty of moving the weights from p to q."""
    u = q - p
    if kind == "quadratic":
        return 0.5 * theta * float(u @ u)
    if kind in L1_FAMILIES:
        return theta * float(np.abs(u).sum())
    return theta * float(p @ _phi(kind, q / p))


def subproblem_value(kind: str, theta: float, p, c, q) -> float:
    """<q, c> + penalty, with +inf off the simplex (tolerance 1e-9)."""
    q = np.asarray(q, float)
    if np.any(q < -1e-9) or abs(q.sum() - 1.0) > 1e-9:
        return math.inf
    q = np.maximum(q, 0.0)
    return float(q @ c) + penalty(kind, theta, p, q)


def _project_rows(Z: np.ndarray) -> np.ndarray:
    """Euclidean projection of every row onto the simplex, by bisection on
    the threshold tau of q = max(z - tau, 0)."""
    lo = Z.min(axis=1) - 1.0
    hi = Z.max(axis=1)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        heavy = np.maximum(Z - mid[:, None], 0.0).sum(axis=1) > 1.0
        lo = np.where(heavy, mid, lo)
        hi = np.where(heavy, hi, mid)
    return np.maximum(Z - 0.5 * (lo + hi)[:, None], 0.0)


def quadratic_min_rows(theta: float, p: np.ndarray, C: np.ndarray) -> np.ndarray:
    """min over q of <q, c> + theta/2 |q - p|^2 for every row c of C."""
    Q = _project_rows(p[None, :] - C / theta)
    U = Q - p[None, :]
    return np.sum(Q * C, axis=1) + 0.5 * theta * np.sum(U * U, axis=1)


def subproblem_min(kind: str, theta: float, p, c) -> float:
    """Optimal value of the reweighting subproblem.

    Quadratic: the projection above. L1 (and the variational family, whose
    penalty is the same): moving mass from i to the cheapest scenario gains
    c_i - min c and costs 2 theta, so all mass moves from every i with
    c_i > min c + 2 theta. Other phi families: the Lagrange dual
    max over mu of mu - theta sum_i p_i Phi*((mu - c_i) / theta), a concave
    1-d problem with no duality gap.
    """
    p = np.asarray(p, float)
    c = np.asarray(c, float)
    if kind == "quadratic":
        return float(quadratic_min_rows(theta, p, c[None, :])[0])
    if kind in L1_FAMILIES:
        excess = c - c.min() - 2.0 * theta
        return float(p @ c - p[excess > 0] @ excess[excess > 0])

    def neg_dual(mu: float) -> float:
        return -(mu - theta * float(p @ _phi_conjugate(kind, (mu - c) / theta)))

    lo = float(c.min()) - 60.0 * theta
    if kind in ("burg", "mod_chi2", "hellinger"):
        hi = float(c.min()) + theta * (1.0 - 1e-12)
    else:
        hi = float(c.max()) + 5.0 * theta
    res = minimize_scalar(neg_dual, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-13 * max(1.0, abs(lo), abs(hi)),
                                   "maxiter": 2000})
    return -float(res.fun)
