"""Phi-divergence families with the zero-ratio conventions.

d(q | q_bar) = sum_i q_bar_i * Phi(q_i / q_bar_i), where a zero base weight
contributes 0 when q_i = 0 and q_i * limit_slope when q_i > 0, with
limit_slope = lim_{t -> inf} Phi(t)/t.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import wrightomega

from .extreal import INF, ext_add, ext_mul


@dataclass(frozen=True)
class PhiFamily:
    """Convex Phi with Phi(1) = 0 and a unique minimizer at 1.

    ``dphi_inv`` inverts the derivative of Phi on (0, inf), elementwise on
    arrays, with +inf beyond the range of Phi'; the reweighting step needs
    nothing else, and evaluates it for many cost rows at once while it
    solves the dual for each row's multiplier. Only the variational family,
    whose Phi' is a step, leaves it None: its reweighting is the l1 one.
    """

    tag: str
    phi: Callable[[float], float]
    limit_slope: float
    dphi_inv: Optional[Callable[[np.ndarray], np.ndarray]] = None


def _kl(t: float) -> float:
    if t == 0.0:
        return 1.0
    return t * math.log(t) - t + 1.0


def _burg(t: float) -> float:
    if t == 0.0:
        return INF
    return -math.log(t) + t - 1.0


def _jdiv(t: float) -> float:
    if t == 0.0:
        return INF
    return (t - 1.0) * math.log(t)


def _jdiv_dphi_inv(z):
    # Phi'(t) = log t + 1 - 1/t = z; with t = 1/w this is w + log w = 1 - z,
    # solved by the Wright omega function (real on the real line)
    w = np.real(wrightomega(1.0 - np.asarray(z, dtype=float)))
    with np.errstate(divide="ignore"):
        return 1.0 / w


def _below_one(z, fn):
    """fn(z) where z < 1, +inf elsewhere (Phi' never reaches 1 there)."""
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(z < 1.0, fn(z), INF)


def _chi2(t: float) -> float:
    return (t - 1.0) ** 2


def _mod_chi2(t: float) -> float:
    if t == 0.0:
        return INF
    return (t - 1.0) ** 2 / t


def _variational(t: float) -> float:
    return abs(t - 1.0)


def _hellinger(t: float) -> float:
    return (math.sqrt(t) - 1.0) ** 2


FAMILIES = {
    "kl": PhiFamily("kl", _kl, INF,
                    dphi_inv=lambda z: np.exp(np.minimum(z, 700.0))),
    "burg": PhiFamily("burg", _burg, 1.0,
                      dphi_inv=lambda z: _below_one(z, lambda w: 1.0 / (1.0 - w))),
    "j": PhiFamily("j", _jdiv, INF, dphi_inv=_jdiv_dphi_inv),
    "chi2": PhiFamily("chi2", _chi2, INF,
                      dphi_inv=lambda z: np.maximum(0.0, 1.0 + np.asarray(z) / 2.0)),
    "mod_chi2": PhiFamily("mod_chi2", _mod_chi2, 1.0,
                          dphi_inv=lambda z: _below_one(
                              z, lambda w: 1.0 / np.sqrt(1.0 - w))),
    "variational": PhiFamily("variational", _variational, 1.0),
    "hellinger": PhiFamily("hellinger", _hellinger, 1.0,
                           dphi_inv=lambda z: _below_one(
                               z, lambda w: 1.0 / (1.0 - w) ** 2)),
}


def get_family(tag: str) -> PhiFamily:
    try:
        return FAMILIES[tag]
    except KeyError:
        raise ValueError(f"unknown divergence family {tag!r}") from None


def phi_eval(family: PhiFamily, t: float) -> float:
    """Phi(t), with +inf for t < 0 (leaving the nonnegative orthant)."""
    if t < 0.0:
        return INF
    return float(family.phi(float(t)))


def phi_divergence(family: PhiFamily, q, q_base) -> float:
    q = np.atleast_1d(np.asarray(q, dtype=float))
    qb = np.atleast_1d(np.asarray(q_base, dtype=float))
    if q.size != qb.size:
        raise ValueError("length mismatch")
    total = 0.0
    for qi, bi in zip(q, qb):
        if bi == 0.0:
            term = 0.0 if qi == 0.0 else ext_mul(qi, family.limit_slope)
        else:
            term = ext_mul(bi, phi_eval(family, qi / bi))
        total = ext_add(total, term)
    return total


def phi_divergence_rows(family: PhiFamily, Q: np.ndarray, q_base: np.ndarray
                        ) -> np.ndarray:
    """``phi_divergence`` of each row of Q (entries >= 0) from q_base, the
    terms added in order; Phi itself is called once per entry."""
    pos = q_base > 0.0
    with np.errstate(invalid="ignore"):
        terms = np.where(Q == 0.0, 0.0, Q * family.limit_slope)
    terms[:, pos] = q_base[pos] * np.vectorize(family.phi, otypes=[float])(
        Q[:, pos] / q_base[pos])
    total = np.zeros(len(Q))
    for i in range(Q.shape[1]):
        total += terms[:, i]
    return total


def validate_family(family: PhiFamily, grid_max: float = 10.0, steps: int = 400) -> None:
    """Axiom checks: Phi(1)=0, positivity away from 1, midpoint convexity."""
    if abs(phi_eval(family, 1.0)) > 1e-12:
        raise ValueError(f"{family.tag}: Phi(1) != 0")
    ts = np.linspace(0.0, grid_max, steps + 1)
    for t in ts:
        v = phi_eval(family, float(t))
        if t != 1.0 and not v > 0.0:
            if abs(t - 1.0) > 1e-9:
                raise ValueError(f"{family.tag}: Phi({t}) = {v} not positive")
    finite = [float(t) for t in ts if np.isfinite(phi_eval(family, float(t)))]
    for a, b in zip(finite[:-1], finite[1:]):
        mid = 0.5 * (a + b)
        lhs = phi_eval(family, mid)
        rhs = 0.5 * phi_eval(family, a) + 0.5 * phi_eval(family, b)
        if lhs > rhs + 1e-10:
            raise ValueError(f"{family.tag}: midpoint convexity fails at [{a},{b}]")
