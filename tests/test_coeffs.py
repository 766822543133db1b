import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twocurve import InvalidTimeOrder, ModelParams, QuadratureFailure, coeffs
from oracles import linear_b_rk4, riccati_residual, riccati_rk4, simpson_adaptive

from conftest import random_params

tau_st = st.floats(min_value=1e-6, max_value=10.0, allow_nan=False)
b_st = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)
sig_st = st.floats(min_value=0.001, max_value=0.05, allow_nan=False)


def test_zero_tau_boundary(params):
    assert coeffs.c22(1.0, 1.0, params) == 0.0
    assert coeffs.c33_bar(1.0, 1.0, params) == 0.0
    assert coeffs.b1(1.0, 1.0, params) == 0.0
    assert coeffs.a_pair(1.0, 1.0, params) == (0.0, 0.0)


def test_time_order_enforced(params):
    with pytest.raises(InvalidTimeOrder):
        coeffs.c22(2.0, 1.0, params)


@given(tau=tau_st, b=b_st, sig=sig_st)
@settings(max_examples=30, deadline=None)
def test_riccati_closed_form_vs_rk4(tau, b, sig):
    p = ModelParams(b, b, b, sig, sig, sig)
    ref = riccati_rk4(b, sig, tau)
    assert coeffs.c22(0.0, tau, p) == pytest.approx(ref, rel=1e-9, abs=1e-12)


def _riccati_expm1_form(tau, b, sigma):
    """The Riccati closed form in e^{tau h} - 1, which overflows once tau h
    passes about 709: the reference where it is finite."""
    h = math.sqrt(4.0 * b * b + 8.0 * sigma * sigma)
    em1 = math.expm1(tau * h)
    return 2.0 * em1 / (2.0 * h + (2.0 * b + h) * em1)


def test_riccati_closed_form_matches_expm1_form(params):
    # dividing the closed form through by e^{tau h} moves C22 and C33bar at
    # today's horizons by a few ulps at most
    rng = np.random.default_rng(3)
    for p in [params] + [random_params(rng) for _ in range(3)]:
        for tau in np.geomspace(1e-6, 100.0, 201):
            for coef, b, sigma in ((coeffs.c22, p.b2, p.sigma2), (coeffs.c33_bar, p.b3, p.sigma3)):
                ref = _riccati_expm1_form(tau, b, sigma)
                assert abs(coef(0.0, tau, p) - ref) <= 4.0 * math.ulp(ref)


@given(tau=tau_st, b=b_st)
@settings(max_examples=30, deadline=None)
def test_b1_closed_form_vs_rk4(tau, b):
    p = ModelParams(b, b, b, 0.01, 0.01, 0.01)
    ref = linear_b_rk4(b, tau)
    assert coeffs.b1(0.0, tau, p) == pytest.approx(ref, rel=1e-9, abs=1e-12)


@given(tau=tau_st, b=b_st, sig=sig_st)
@settings(max_examples=30, deadline=None)
def test_riccati_positive_and_bounded(tau, b, sig):
    p = ModelParams(b, b, b, sig, sig, sig)
    c = coeffs.c22(0.0, tau, p)
    assert 0.0 < c
    # stationary level of the Riccati flow bounds C from above
    h = math.sqrt(4.0 * b * b + 8.0 * sig * sig)
    assert c <= 2.0 / (2.0 * b + h) + 1e-12


def test_ode_residuals_small(params):
    for ode_id, fn in [
        ("c22", coeffs.c22),
        ("c33_bar", coeffs.c33_bar),
        ("b1", coeffs.b1),
        ("b1_bar", coeffs.b1_bar),
    ]:
        for t in np.linspace(0.1, 4.9, 25):
            assert riccati_residual(fn, ode_id, float(t), 5.0, params) < 1e-9


def test_b1_bar_scaling(params):
    for tau in (0.1, 1.0, 5.0):
        assert coeffs.b1_bar(0.0, tau, params) == (1.0 + params.kappa) * coeffs.b1(0.0, tau, params)


def test_a_quadrature_vs_simpson():
    rng = np.random.default_rng(42)
    for _ in range(5):
        p = random_params(rng)
        f_a, f_abar = coeffs._a_integrands(p)
        tau = rng.uniform(0.5, 6.0)
        a, abar = coeffs.a_pair(0.0, tau, p)
        assert a == pytest.approx(simpson_adaptive(f_a, 0.0, tau), rel=1e-9, abs=1e-13)
        assert abar == pytest.approx(simpson_adaptive(f_abar, 0.0, tau), rel=1e-9, abs=1e-13)


def test_b1_sq_integral_closed_form(params):
    for tau in (0.3, 1.7, 4.0):
        ref = simpson_adaptive(lambda u: coeffs.b1(u, tau, params) ** 2, 0.0, tau)
        assert coeffs.b1_sq_integral(0.0, tau, params) == pytest.approx(ref, rel=1e-10)


def test_derivatives_match_finite_differences(params):
    h = 1e-6
    for T in (0.5, 2.0):
        for fn, dfn in [
            (coeffs.c22, coeffs.c22_dT),
            (coeffs.c33_bar, coeffs.c33_bar_dT),
            (coeffs.b1, coeffs.b1_dT),
        ]:
            fd = (fn(0.0, T + h, params) - fn(0.0, T - h, params)) / (2.0 * h)
            assert dfn(0.0, T, params) == pytest.approx(fd, rel=1e-7, abs=1e-10)
        for afn, adfn in [(0, coeffs.a_dT), (1, coeffs.a_bar_dT)]:
            fd = (
                coeffs.a_pair(0.0, T + h, params)[afn]
                - coeffs.a_pair(0.0, T - h, params)[afn]
            ) / (2.0 * h)
            assert adfn(0.0, T, params) == pytest.approx(fd, rel=1e-6, abs=1e-10)


def test_bundle_matches_direct(params):
    cb = coeffs.bundle(0.25, 2.0, params)
    assert cb.C22 == coeffs.c22(0.25, 2.0, params)
    assert cb.C33_bar == coeffs.c33_bar(0.25, 2.0, params)
    assert cb.B1 == coeffs.b1(0.25, 2.0, params)
    assert cb.B1_bar == coeffs.b1_bar(0.25, 2.0, params)
    a, abar = coeffs.a_pair(0.25, 2.0, params)
    assert cb.A == a and cb.A_bar == abar and cb.A_tilde == abar - a


def test_time_homogeneity(params):
    # all coefficients depend on (t, T) only through T - t
    assert coeffs.c22(0.0, 1.5, params) == pytest.approx(coeffs.c22(2.0, 3.5, params), rel=1e-14)
    assert coeffs.a_pair(0.0, 1.5, params)[1] == pytest.approx(
        coeffs.a_pair(2.0, 3.5, params)[1], rel=1e-12
    )
