"""Simplex projection, normal-cone distances, and empirical sampling."""
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from rockrelax.simplex import (GENERATOR_ID, normal_cone_distance,
                               project_to_simplex, projection_threshold,
                               sample_empirical)


def grid_projection_oracle(z, resolution):
    """Independent check: enumerate a 1-d simplex grid for s = 2."""
    best = None
    best_d = np.inf
    for k in range(int(round(1.0 / resolution)) + 1):
        q = np.array([k * resolution, 1.0 - k * resolution])
        d = float(np.sum((q - z) ** 2))
        if d < best_d:
            best_d = d
            best = q
    return best


def test_projection_fixes_simplex_points():
    q = np.array([0.2, 0.3, 0.5])
    assert project_to_simplex(q) == pytest.approx(q, abs=1e-15)


def test_projection_of_symmetric_point():
    out = project_to_simplex(np.array([0.5, 0.5, 0.5]))
    assert out == pytest.approx(np.full(3, 1.0 / 3.0), abs=1e-15)


def test_projection_hits_vertex():
    out = project_to_simplex(np.array([2.0, 0.0]))
    assert out == pytest.approx(np.array([1.0, 0.0]), abs=1e-12)
    oracle = grid_projection_oracle(np.array([2.0, 0.0]), 1e-4)
    assert np.max(np.abs(out - oracle)) <= 1e-4


def test_projection_matches_grid_oracle_s2():
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = rng.normal(size=2) * 2.0
        out = project_to_simplex(z)
        oracle = grid_projection_oracle(z, 1e-4)
        assert np.max(np.abs(out - oracle)) <= 1e-4


def test_projection_idempotent_and_feasible():
    rng = np.random.default_rng(11)
    for _ in range(50):
        z = rng.normal(size=4) * 3.0
        q = project_to_simplex(z)
        assert np.all(q >= 0.0)
        assert q.sum() == pytest.approx(1.0, abs=1e-12)
        assert project_to_simplex(q) == pytest.approx(q, abs=1e-12)


def test_projection_is_one_lipschitz():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.normal(size=5)
        b = rng.normal(size=5)
        pa = project_to_simplex(a)
        pb = project_to_simplex(b)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


def test_projection_translation_invariant():
    rng = np.random.default_rng(9)
    for _ in range(20):
        z = rng.normal(size=3)
        shift = rng.normal()
        out1 = project_to_simplex(z)
        out2 = project_to_simplex(z + shift)
        assert np.max(np.abs(out1 - out2)) <= 1e-10


def test_projection_threshold_recovers_tau():
    z = np.array([0.7, -0.2, 0.5])
    q = project_to_simplex(z)
    tau = projection_threshold(z, q)
    assert np.maximum(z - tau, 0.0) == pytest.approx(q, abs=1e-12)


def cone_sq_dist(q, w, mus):
    """g(mu) = sum_{q_i>0} (w_i - mu)^2 + sum_{q_i=0} max(0, w_i - mu)^2 at
    every entry of mus."""
    pos = q > 0
    mus = np.asarray(mus, dtype=float)[..., None]
    return (np.sum((w[pos] - mus) ** 2, axis=-1)
            + np.sum(np.maximum(w[~pos] - mus, 0.0) ** 2, axis=-1))


def mu_scan_distance(q, w, mus):
    """Independent route: brute scan of the single normal-cone parameter."""
    return float(np.sqrt(cone_sq_dist(q, w, mus).min()))


def test_constant_vector_in_interior_normal_cone():
    assert normal_cone_distance(np.array([0.5, 0.5]), np.array([3.0, 3.0])) <= 1e-8


def test_dominated_vector_at_vertex():
    assert normal_cone_distance(np.array([1.0, 0.0]), np.array([0.0, -5.0])) <= 1e-8


def test_distance_matches_mu_scan():
    q = np.array([0.5, 0.5])
    w = np.array([1.0, 0.0])
    d = normal_cone_distance(q, w)
    assert d == pytest.approx(0.70711, abs=1e-5)
    scan = mu_scan_distance(q, w, np.linspace(-2.0, 3.0, 500001))
    assert d == pytest.approx(scan, abs=1e-5)


def test_membership_iff_variational_inequality():
    # w in N(q) iff max_i w_i <= <w, q>; checked both ways on small cases
    rng = np.random.default_rng(21)
    for _ in range(30):
        s = int(rng.integers(2, 5))
        q = rng.dirichlet(np.ones(s))
        w = rng.normal(size=s)
        vi_holds = np.max(w) <= float(w @ q) + 1e-9
        assert (normal_cone_distance(q, w) <= 1e-6) == vi_holds or \
            abs(np.max(w) - float(w @ q)) < 1e-5


def reference_cone_minimum(q, w):
    """Independent route: bounded Brent search on g, then two dense scans of
    4001 points, each around the best mu seen so far; returns that (g, mu)."""
    scale = max(1.0, float(np.max(np.abs(w))))
    lo, hi = float(w.min()) - 1.0, float(w.max()) + 1.0
    res = minimize_scalar(lambda mu: float(cone_sq_dist(q, w, mu)),
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-13 * scale})
    best_g, best_mu = float(res.fun), float(res.x)
    width = 1e-6 * scale  # Brent stops within about 1.5e-8 |mu|
    for _ in range(2):
        mus = best_mu + np.linspace(-width, width, 4001)
        g = cone_sq_dist(q, w, mus)
        i = int(np.argmin(g))
        if g[i] < best_g:
            best_g, best_mu = float(g[i]), float(mus[i])
        width /= 1000.0
    return best_g, best_mu


def seeded_cone_cases():
    rng = np.random.default_rng(2024)
    for s in (1, 2, 3, 8, 64):
        for trial in range(12):
            q = rng.dirichlet(np.ones(s))
            q[rng.random(s) < 0.5] = 0.0
            if q.sum() == 0.0:
                q[rng.integers(s)] = 1.0
            q = q / q.sum()
            if trial % 3 == 2:  # entries near +-1e6
                w = rng.choice([-1e6, 1e6], size=s) + rng.normal(size=s)
            else:
                w = rng.normal(size=s) * 10.0 ** rng.uniform(-3, 1)
            yield q, w


def test_distance_exact_against_reference_search():
    for q, w in seeded_cone_cases():
        d = normal_cone_distance(q, w)
        g_ref, mu_ref = reference_cone_minimum(q, w)
        tol = 1e-9 * max(1.0, float(np.max(np.abs(w))))
        assert abs(d - np.sqrt(g_ref)) <= tol
        # no mu near the reference minimizer does better than the closed
        # form, up to rounding in g
        near = cone_sq_dist(q, w, mu_ref + np.array([-1e-6, 0.0, 1e-6]))
        assert np.all(near >= d * d * (1.0 - 1e-12))


@pytest.mark.parametrize("q, w, expected", [
    # all of q in the support: mu is the mean of w
    (np.array([0.2, 0.3, 0.5]), np.array([1.0, 2.0, 6.0]), np.sqrt(14.0)),
    # a vertex: the top off-support entry 3 joins, the entry 2 equals mu*
    (np.array([1.0, 0.0, 0.0, 0.0]), np.array([1.0, 3.0, 2.0, -1.0]),
     np.sqrt(2.0)),
    # tied off-support entries 4, 4 join together: mu* = 9/4
    (np.array([0.5, 0.5, 0.0, 0.0, 0.0]), np.array([0.0, 1.0, 4.0, 4.0, -3.0]),
     np.sqrt(12.75)),
    # ... and an off-support entry equal to mu* = 9/4 changes nothing
    (np.array([0.5, 0.5, 0.0, 0.0, 0.0]), np.array([0.0, 1.0, 4.0, 4.0, 2.25]),
     np.sqrt(12.75)),
    # an off-support entry equal to the support mean mu* = 2
    (np.array([0.5, 0.0, 0.5]), np.array([1.0, 2.0, 3.0]), np.sqrt(2.0)),
    # a single scenario: w is always in the normal cone
    (np.array([1.0]), np.array([-7.5]), 0.0),
])
def test_distance_closed_form_cases(q, w, expected):
    assert normal_cone_distance(q, w) == pytest.approx(expected, abs=1e-12)
    g_ref, _ = reference_cone_minimum(q, w)
    assert np.sqrt(g_ref) == pytest.approx(expected, abs=1e-9)


def test_cli_import_loads_no_scipy_optimize():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, rockrelax, rockrelax.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy.optimize' or m.startswith('scipy.optimize.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_degenerate_sampling():
    out = sample_empirical(np.array([1.0, 0.0]), 50, seed=1)
    assert out == pytest.approx(np.array([1.0, 0.0]))


def test_single_draw_is_one_hot():
    out = sample_empirical(np.array([0.4, 0.6]), 1, seed=2)
    assert sorted(out.tolist()) == [0.0, 1.0]


def test_large_sample_close_to_p():
    p = np.array([0.3, 0.7])
    out = sample_empirical(p, 100000, seed=5)
    assert np.max(np.abs(out - p)) <= 0.01


def test_sampling_bit_reproducible():
    p = np.array([0.2, 0.5, 0.3])
    a = sample_empirical(p, 1234, seed=42)
    b = sample_empirical(p, 1234, seed=42)
    assert np.array_equal(a, b)
    assert GENERATOR_ID == "numpy-PCG64"


def test_sampling_validates_input():
    with pytest.raises(ValueError):
        sample_empirical(np.array([0.5, 0.5]), 0, seed=0)
