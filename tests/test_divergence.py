"""Divergence families: axioms, conventions, and reference values."""
import math

import numpy as np
import pytest

from rockrelax.divergence import (FAMILIES, get_family, phi_divergence,
                                  phi_eval, validate_family)
from rockrelax.extreal import INF

ALL_TAGS = sorted(FAMILIES)


def test_family_lookup():
    assert get_family("kl").tag == "kl"
    with pytest.raises(ValueError):
        get_family("nope")


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_axioms_hold_for_every_family(tag):
    validate_family(FAMILIES[tag])


def test_kl_at_one_and_zero():
    kl = FAMILIES["kl"]
    assert phi_eval(kl, 1.0) == 0.0
    assert phi_eval(kl, 0.0) == 1.0  # limit of t ln t - t + 1 as t -> 0


def test_variational_absolute_value():
    assert phi_eval(FAMILIES["variational"], 3.0) == 2.0


def test_negative_argument_infinite():
    for tag in ALL_TAGS:
        assert phi_eval(FAMILIES[tag], -0.5) == INF


def test_divergence_zero_on_equal_vectors():
    q = np.array([0.2, 0.3, 0.5])
    for tag in ALL_TAGS:
        assert phi_divergence(FAMILIES[tag], q, q) == pytest.approx(0.0, abs=1e-14)


def test_kl_reference_value_ln2():
    # independent route: sum q_i ln(q_i / qbar_i) with the 0 ln 0 = 0 limit
    q = np.array([1.0, 0.0])
    qb = np.array([0.5, 0.5])
    val = phi_divergence(FAMILIES["kl"], q, qb)
    direct = sum(qi * math.log(qi / bi) for qi, bi in zip(q, qb) if qi > 0)
    assert val == pytest.approx(math.log(2.0), abs=1e-6)
    assert val == pytest.approx(direct, abs=1e-12)


def test_variational_equals_l1():
    q = np.array([1.0, 0.0])
    qb = np.array([0.5, 0.5])
    val = phi_divergence(FAMILIES["variational"], q, qb)
    assert val == pytest.approx(float(np.abs(q - qb).sum()), abs=1e-12)


def test_zero_base_conventions():
    fam = FAMILIES["variational"]  # limit_slope 1
    assert phi_divergence(fam, np.array([0.0, 1.0]), np.array([0.0, 1.0])) == 0.0
    # mass beta on a zero-base coordinate contributes beta * limit_slope
    val = phi_divergence(fam, np.array([0.25, 0.75]), np.array([0.0, 1.0]))
    assert val == pytest.approx(0.25 + phi_eval(fam, 0.75), abs=1e-12)
    kl = FAMILIES["kl"]  # limit_slope +inf
    assert phi_divergence(kl, np.array([0.25, 0.75]), np.array([0.0, 1.0])) == INF


def test_limit_slopes_match_formulas():
    # numeric check of lim Phi(t)/t: finite slopes are approached at large t,
    # infinite slopes keep growing between t = 1e4 and t = 1e8
    for tag in ALL_TAGS:
        fam = FAMILIES[tag]
        ratio_small = phi_eval(fam, 1e4) / 1e4
        ratio_large = phi_eval(fam, 1e8) / 1e8
        if fam.limit_slope == INF:
            assert ratio_large > ratio_small + 1.0
        else:
            assert ratio_large == pytest.approx(fam.limit_slope, abs=1e-3)


def test_nonnegative_on_random_pairs():
    rng = np.random.default_rng(17)
    for _ in range(40):
        s = int(rng.integers(2, 5))
        q = rng.dirichlet(np.ones(s))
        qb = rng.dirichlet(np.ones(s))
        for tag in ALL_TAGS:
            assert phi_divergence(FAMILIES[tag], q, qb) >= -1e-12


def test_midpoint_convexity_in_q():
    rng = np.random.default_rng(19)
    for _ in range(20):
        s = 3
        q1 = rng.dirichlet(np.ones(s))
        q2 = rng.dirichlet(np.ones(s))
        qb = rng.dirichlet(np.ones(s))
        mid = 0.5 * (q1 + q2)
        for tag in ALL_TAGS:
            fam = FAMILIES[tag]
            lhs = phi_divergence(fam, mid, qb)
            rhs = 0.5 * phi_divergence(fam, q1, qb) + 0.5 * phi_divergence(fam, q2, qb)
            if rhs < INF:
                assert lhs <= rhs + 1e-10


def test_continuity_as_component_vanishes():
    # for families finite at 0, the divergence converges to its value at
    # q_i = 0 (the square-root kink of the Hellinger form makes this
    # first-order slow, hence the loose scale)
    qb = np.array([0.5, 0.5])
    for tag in ("kl", "chi2", "variational", "hellinger"):
        fam = FAMILIES[tag]
        at_zero = phi_divergence(fam, np.array([0.0, 1.0]), qb)
        near = phi_divergence(fam, np.array([1e-9, 1.0 - 1e-9]), qb)
        nearer = phi_divergence(fam, np.array([1e-12, 1.0 - 1e-12]), qb)
        assert near == pytest.approx(at_zero, abs=1e-4)
        assert abs(nearer - at_zero) <= abs(near - at_zero) + 1e-15


def test_dphi_inv_inverts_derivative():
    # closed-form inverses against a central-difference derivative of Phi
    h = 1e-6
    for tag in ("kl", "burg", "chi2", "mod_chi2", "hellinger"):
        fam = FAMILIES[tag]
        for t in (0.5, 1.0, 2.0, 5.0):
            slope = (phi_eval(fam, t + h) - phi_eval(fam, t - h)) / (2 * h)
            assert fam.dphi_inv(slope) == pytest.approx(t, rel=1e-4)


def test_j_dphi_inv_inverts_derivative():
    # Phi'(t) = log t + 1 - 1/t for the j family
    fam = FAMILIES["j"]
    prev = 0.0
    for z in np.linspace(-50.0, 50.0, 1001):
        t = fam.dphi_inv(float(z))
        assert 0.0 < t < INF and t > prev
        assert math.log(t) + 1.0 - 1.0 / t == pytest.approx(z, rel=1e-14, abs=1e-14)
        prev = t
    assert fam.dphi_inv(1e4) == INF


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        phi_divergence(FAMILIES["kl"], np.array([1.0]), np.array([0.5, 0.5]))
