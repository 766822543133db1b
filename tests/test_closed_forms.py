"""Closed-form expectation coefficients, A/Abar and forward moments against
the independent RK4/Simpson oracles."""

import math

import numpy as np
import pytest

from twocurve import ModelParams, SwapSpec, coeffs, expectation_coeffs, forward_moments
from oracles import forward_moments_rk4, rho_riccati_rk4, rk4_backward, simpson_adaptive
from conftest import random_params

COEF_TOL = dict(rel=1e-9, abs=1e-12)
MOMENT_TOL = dict(rel=1e-10, abs=1e-12)


def _steps(span: float, h: float = 2.5e-3) -> int:
    return max(16, int(math.ceil(span / h)))


def _oracle_coeffs(k: int, swap: SwapSpec, p: ModelParams, times):
    """(rho_i, Gamma_i) of period k at each t in `times` (descending), by
    RK4 chained backward from the fixing date and Simpson for Gamma1."""
    tf, tp = swap.fix_date(k), swap.pay_date(k)
    s1sq, s2sq, s3sq = p.sigma1 ** 2, p.sigma2 ** 2, p.sigma3 ** 2
    kb = (1.0 + p.kappa) * coeffs.b1(tf, tp, p)
    lam2 = lambda u: p.b2 + 2.0 * s2sq * coeffs.c22(u, tp, p)  # noqa: E731
    rho1, rho2, rho3 = -kb, -coeffs.c22(tf, tp, p), -coeffs.c33_bar(tf, tp, p)

    def gamma1_rate(u):
        r1 = -kb * math.exp(-p.b1 * (tf - u))
        return 0.5 * s1sq * r1 * r1 + s1sq * coeffs.b1(u, tp, p) * r1

    gam1 = gam2 = gam3 = 0.0
    hi = tf
    out = []
    for t in times:
        n = _steps(hi - t)
        rho1 = rk4_backward(lambda u, r: p.b1 * r, rho1, hi, t, n)
        rho2, g2 = rho_riccati_rk4(lam2, s2sq, rho2, hi, t, n)
        rho3, g3 = rho_riccati_rk4(lambda u: p.b3, s3sq, rho3, hi, t, n)
        if hi > t:
            gam1 += simpson_adaptive(gamma1_rate, t, hi)
        gam2, gam3, hi = gam2 + g2, gam3 + g3, t
        out.append((rho1, rho2, rho3, gam1, gam2, gam3))
    return out


def test_expectation_coeffs_vs_oracles_every_period():
    rng = np.random.default_rng(31)
    swap = SwapSpec(0.5, 40, 0.25, 0.01)
    times = (swap.T0, 0.5 * swap.T0, 0.0)
    for _ in range(5):
        p = random_params(rng)
        for k in range(1, swap.n + 1):
            for t, ref in zip(times, _oracle_coeffs(k, swap, p, times)):
                ec = expectation_coeffs(t, k, swap, p)
                got = (ec.rho1, ec.rho2, ec.rho3, ec.gamma1, ec.gamma2, ec.gamma3)
                for name, g, r in zip(("rho1", "rho2", "rho3", "gamma1", "gamma2", "gamma3"),
                                      got, ref):
                    assert g == pytest.approx(r, **COEF_TOL), (k, t, name)


def test_riccati_integral_vs_simpson():
    rng = np.random.default_rng(7)
    for _ in range(5):
        b, sigma = rng.uniform(0.05, 1.0), rng.uniform(0.001, 0.05)
        for tau in (1e-3, 0.5, 10.0, 100.0):
            ref = simpson_adaptive(lambda s: coeffs._riccati_closed(s, b, sigma), 0.0, tau)
            assert coeffs.riccati_integral(tau, b, sigma) == pytest.approx(ref, **COEF_TOL)
    # zero volatility: C is the linear-ODE solution (1 - e^{-2b s}) / (2b)
    b, tau = 0.4, 3.0
    ref = tau / (2.0 * b) + math.expm1(-2.0 * b * tau) / (4.0 * b * b)
    assert coeffs.riccati_integral(tau, b, 0.0) == pytest.approx(ref, rel=1e-14)


def test_a_pair_vs_simpson_short_and_long_horizons():
    rng = np.random.default_rng(41)
    for _ in range(3):
        p = random_params(rng)
        f_a, f_abar = coeffs._a_integrands(p)
        for tau in (1e-3, 0.1, 30.0):
            a, abar = coeffs.a_pair(1.0, 1.0 + tau, p)
            assert a == pytest.approx(simpson_adaptive(f_a, 0.0, tau), rel=1e-9, abs=1e-15)
            assert abar == pytest.approx(simpson_adaptive(f_abar, 0.0, tau), rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("t, T_star", [(0.01, 10.0), (5.0, 5.5), (2.0, 2.0), (30.0, 30.25)])
def test_forward_moments_vs_fine_rk4(t, T_star, params):
    rng = np.random.default_rng(17)
    for p in (params, random_params(rng), random_params(rng)):
        fm = forward_moments(t, T_star, p)
        a1, be1, a2, be2 = forward_moments_rk4(t, T_star, p, _steps(t, 1e-3))
        assert fm.alpha[0] == pytest.approx(a1, **MOMENT_TOL)
        assert fm.beta[0] == pytest.approx(be1, **MOMENT_TOL)
        assert fm.alpha[1] == pytest.approx(a2, **MOMENT_TOL)
        assert fm.beta[1] == pytest.approx(be2, **MOMENT_TOL)


def test_forward_moments_finite_at_long_horizon():
    p = ModelParams(1.0, 1.0, 1.0, 0.05, 0.05, 0.05, psi0=(0.01, 0.05, 0.05))
    fm = forward_moments(99.0, 100.0, p)
    assert all(math.isfinite(x) for x in fm.alpha + fm.beta)
    assert fm.beta[1] > 0.0
