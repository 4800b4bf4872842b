"""Geometry of the probability simplex: projection, normal cones, grids,
sampling."""
from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from .extreal import check_simplex


def project_to_simplex(z) -> np.ndarray:
    """Euclidean projection onto {q >= 0, sum q = 1} by sort-and-threshold."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.size == 0:
        raise ValueError("cannot project an empty vector")
    return project_rows_to_simplex(z[None, :])[0]


def project_rows_to_simplex(Z) -> np.ndarray:
    """Each row of Z projected onto the simplex by sort-and-threshold.

    O(s log s) per row, exact up to floating error: q_i = max(0, z_i - tau)
    with the row's threshold tau chosen so the row sums to one (Duchi et al.
    2008). An entry of -inf gets weight 0, as if it were left out; every row
    needs a finite entry.
    """
    Z = np.asarray(Z, dtype=float)
    u = np.sort(Z, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    with np.errstate(invalid="ignore"):  # -inf - (-inf) past the finite entries
        cond = u - css / np.arange(1, Z.shape[1] + 1) > 0
    k = Z.shape[1] - np.argmax(cond[:, ::-1], axis=1)  # the last True, plus 1
    tau = css[np.arange(len(Z)), k - 1] / k
    return np.maximum(Z - tau[:, None], 0.0)


def projection_threshold(z, q) -> float:
    """The KKT threshold tau with q_i = max(0, z_i - tau)."""
    z = np.asarray(z, dtype=float)
    q = np.asarray(q, dtype=float)
    pos = q > 0
    return float(np.mean(z[pos] - q[pos]))


def normal_cone_distance(q, w) -> float:
    """Distance from w to the normal cone of the simplex at q.

    N(q) = {v : v_i = mu on the support of q, v_i <= mu off it}, so the
    squared distance is min over mu of the convex piecewise quadratic
    g(mu) = sum_{q_i>0} (w_i - mu)^2 + sum_{q_i=0} max(0, w_i - mu)^2.
    Its exact minimizer is the mean of the support entries and the
    off-support entries above it. Sorting the off-support entries in
    descending order gives the candidate means mu_k over the top k of them;
    the first mu_k that the (k+1)-th entry does not exceed is the minimizer,
    as for the threshold of the simplex projection (Duchi et al. 2008).
    """
    q = check_simplex(q)
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if w.size != q.size:
        raise ValueError("dimension mismatch")
    pos = q > 0
    on, off = w[pos], w[~pos]
    top = np.sort(off)[::-1]
    sums = on.sum() + np.concatenate(([0.0], np.cumsum(top)))
    mus = sums / np.arange(on.size, w.size + 1)
    mu = mus[np.argmax(np.append(top, -np.inf) <= mus)]
    d = np.sum((on - mu) ** 2) + np.sum(np.maximum(off - mu, 0.0) ** 2)
    return float(np.sqrt(d))


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


def sample_empirical(p, count: int, seed: int) -> np.ndarray:
    """Relative frequencies of `count` i.i.d. category draws from p.

    Uses numpy's PCG64 generator (counter-based, 64-bit) keyed by the seed;
    runs with the same seed are bit-reproducible.
    """
    p = check_simplex(p)
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(count, p / p.sum())
    return counts / float(count)


GENERATOR_ID = "numpy-PCG64"
