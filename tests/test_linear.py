import math

import numpy as np
import pytest

from twocurve import (
    ExpectationSingularity,
    FactorState,
    FraSpec,
    ModelParams,
    MomentExplosion,
    SwapSpec,
    TwoCurveError,
    adjustment,
    coeffs,
    expectation_coeffs,
    fair_fra_rate,
    fair_swap_rate,
    fra_price,
    ois_bond,
    residual,
    swap_annuity,
    swap_price,
    swap_price_via_fras,
    v_multi,
    v_single,
)
from twocurve.measures import GaussianLaw, forward_moments, gaussian_exp_quadratic
from oracles import rho_riccati_rk4, simpson_adaptive
from conftest import random_params


def test_v_single_is_bond_ratio(params, state):
    v = v_single(state, 1.0, 0.5, params)
    assert v == pytest.approx(
        ois_bond(state, 1.0, params).value / ois_bond(state, 1.5, params).value,
        rel=1e-15,
    )
    assert v > 1.0  # positive forward OIS rate for these parameters


def test_adjustment_properties(params, state):
    ad = adjustment(state, 1.0, 0.5, params)
    assert ad >= 1.0  # kappa >= 0 and a convex quadratic expectation
    res = residual(0.0, 1.0, 0.5, params)
    assert 0.0 < res <= 1.0


def test_residual_is_one_when_kappa_zero(state):
    p = ModelParams(0.5, 0.3, 0.4, 0.01, 0.02, 0.015, kappa=0.0, psi0=state.psi)
    assert residual(0.0, 1.0, 0.5, p) == 1.0


def test_residual_at_t_equals_T(params):
    # no elapsed time, no residual correction
    assert residual(1.0, 1.0, 0.5, params) == 1.0


def test_vbar_vs_direct_moment_route():
    """v_multi's factorized form against a direct evaluation of
    p(t,T) * E[p/pbar-type expectations] via forward moments."""
    rng = np.random.default_rng(11)
    for _ in range(8):
        p = random_params(rng)
        s = FactorState(0.0, p.psi0)
        T = rng.uniform(0.3, 2.0)
        delta = rng.uniform(0.1, 1.0)
        vb = v_multi(s, T, delta, p)
        fm = forward_moments(T, T + delta, p)
        cb = coeffs.bundle(T, T + delta, p)
        lin = math.exp(cb.B1_bar * fm.alpha[0] + 0.5 * cb.B1_bar ** 2 * fm.beta[0])
        q2 = gaussian_exp_quadratic(GaussianLaw(fm.alpha[1], fm.beta[1]), cb.C22)
        q3 = gaussian_exp_quadratic(GaussianLaw(fm.alpha[2], fm.beta[2]), cb.C33_bar)
        ref = math.exp(cb.A_bar) * lin * q2 * q3
        assert vb == pytest.approx(ref, rel=1e-9)


def test_fra_zero_at_fair_rate(params, state):
    r = fair_fra_rate(state, 1.0, 0.5, params)
    assert abs(fra_price(state, FraSpec(1.0, 0.5, r), params)) < 1e-14


def test_fra_price_linearity_in_strike(params, state):
    spec0 = FraSpec(1.0, 0.5, 0.00)
    spec1 = FraSpec(1.0, 0.5, 0.02)
    p_Td = ois_bond(state, 1.5, params).value
    slope = (fra_price(state, spec1, params) - fra_price(state, spec0, params)) / 0.02
    assert slope == pytest.approx(-0.5 * p_Td, rel=1e-12)


def test_multi_curve_rate_dominates_single(params, state):
    # kappa >= 0: adjustment lifts the multi-curve rate above the single-curve one
    r_multi = fair_fra_rate(state, 1.0, 0.5, params)
    r_single = (v_single(state, 1.0, 0.5, params) - 1.0) / 0.5
    assert r_multi >= r_single


def test_expectation_coeffs_terminal_values(params):
    swap = SwapSpec(0.5, 4, 0.25, 0.01)
    k = 2
    ec = expectation_coeffs(swap.fix_date(k), k, swap, params)
    tf, tp = swap.fix_date(k), swap.pay_date(k)
    assert ec.rho1 == pytest.approx(-(1.0 + params.kappa) * coeffs.b1(tf, tp, params), rel=1e-12)
    assert ec.rho2 == pytest.approx(-coeffs.c22(tf, tp, params), rel=1e-12)
    assert ec.rho3 == pytest.approx(-coeffs.c33_bar(tf, tp, params), rel=1e-12)
    assert ec.gamma1 == ec.gamma2 == ec.gamma3 == 0.0


def test_rho2_rho3_vs_independent_rk4(params):
    swap = SwapSpec(0.5, 4, 0.25, 0.01)
    k = 3
    tf, tp = swap.fix_date(k), swap.pay_date(k)
    ec = expectation_coeffs(0.0, k, swap, params)
    s2sq, s3sq = params.sigma2 ** 2, params.sigma3 ** 2
    rho2, gam2 = rho_riccati_rk4(
        lambda u: params.b2 + 2.0 * s2sq * coeffs.c22(u, tp, params),
        s2sq, -coeffs.c22(tf, tp, params), tf, 0.0,
    )
    assert ec.rho2 == pytest.approx(rho2, rel=1e-9, abs=1e-12)
    assert ec.gamma2 == pytest.approx(gam2, rel=1e-8, abs=1e-12)
    rho3, gam3 = rho_riccati_rk4(
        lambda u: params.b3, s3sq, -coeffs.c33_bar(tf, tp, params), tf, 0.0
    )
    assert ec.rho3 == pytest.approx(rho3, rel=1e-9, abs=1e-12)
    assert ec.gamma3 == pytest.approx(gam3, rel=1e-8, abs=1e-12)


def test_gamma1_closed_vs_simpson(params):
    swap = SwapSpec(1.0, 2, 0.5, 0.01)
    k = 2
    tf, tp = swap.fix_date(k), swap.pay_date(k)
    ec = expectation_coeffs(0.0, k, swap, params)
    b1k = coeffs.b1(tf, tp, params)
    kp1 = 1.0 + params.kappa
    s1sq = params.sigma1 ** 2

    def rho1(u):
        return -kp1 * b1k * math.exp(-params.b1 * (tf - u))

    ref = 0.5 * s1sq * simpson_adaptive(lambda u: rho1(u) ** 2, 0.0, tf) + \
        s1sq * simpson_adaptive(lambda u: coeffs.b1(u, tp, params) * rho1(u), 0.0, tf)
    assert ec.gamma1 == pytest.approx(ref, rel=1e-10, abs=1e-15)


def test_swap_route_equivalence():
    rng = np.random.default_rng(23)
    for _ in range(6):
        p = random_params(rng)
        s = FactorState(0.0, p.psi0)
        swap = SwapSpec(rng.uniform(0.25, 1.0), 4, rng.uniform(0.2, 0.6), rng.uniform(0.0, 0.03))
        v1 = swap_price(s, swap, p)
        v2 = swap_price_via_fras(s, swap, p)
        assert v1 == pytest.approx(v2, rel=1e-8, abs=1e-12)


def test_swap_affine_in_rate(params, state):
    swap0 = SwapSpec(0.5, 4, 0.25, 0.0)
    swap1 = SwapSpec(0.5, 4, 0.25, 0.02)
    slope = (swap_price(state, swap1, params) - swap_price(state, swap0, params)) / 0.02
    assert slope == pytest.approx(-swap_annuity(state, swap0, params), rel=1e-12)


def test_fair_swap_rate_zeroes_the_swap(params, state):
    swap = SwapSpec(0.5, 4, 0.25, 0.0)
    r = fair_swap_rate(state, swap, params)
    priced = swap_price(state, SwapSpec(0.5, 4, 0.25, r), params)
    assert abs(priced) < 1e-12


def test_one_period_swap_is_fra(params, state):
    # a single-period swap at rate R is the FRA with delta = gamma
    swap = SwapSpec(1.0, 1, 0.5, 0.013)
    fra = FraSpec(1.0, 0.5, 0.013)
    assert swap_price(state, swap, params) == pytest.approx(
        fra_price(state, fra, params), rel=1e-12
    )
    # the expectation-coefficient route against the v * Ad * Res route, to
    # 1e-12 of the fixed leg N p(t, T+delta) (1 + delta R): a price near 0
    # is a difference of the two legs
    rng = np.random.default_rng(29)
    for _ in range(20):
        p = random_params(rng)
        s = FactorState(float(rng.uniform(0.0, 1.0)), tuple(rng.normal(0.0, 0.05, 3)))
        T, delta = s.t + float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.1, 1.0))
        R, notional = float(rng.uniform(-0.01, 0.05)), float(rng.uniform(0.5, 3.0))
        leg = notional * ois_bond(s, T + delta, p).value * (1.0 + delta * R)
        diff = (swap_price(s, SwapSpec(T, 1, delta, R, notional), p)
                - fra_price(s, FraSpec(T, delta, R, notional), p))
        assert abs(diff) <= 1e-12 * leg


def test_period_count_is_bounded():
    with pytest.raises(ValueError, match=r"n must be in \[1, 4096\]"):
        SwapSpec(0.5, 10**9, 0.25, 0.01)
    with pytest.raises(ValueError):
        SwapSpec(0.5, 4097, 0.25, 0.01)
    with pytest.raises(ValueError):
        SwapSpec(0.5, 0, 0.25, 0.01)
    for n in (2.0, True):
        with pytest.raises(ValueError, match="n must be an int"):
            SwapSpec(0.5, n, 0.25, 0.01)
    assert SwapSpec(0.5, 4096, 0.25, 0.01).pay_date(4096) == 1024.5


@pytest.mark.parametrize("price", [
    lambda s, p: fra_price(s, FraSpec(1e300, 0.25, 0.01), p),
    lambda s, p: fair_fra_rate(s, 1e300, 0.25, p),
    lambda s, p: fair_fra_rate(s, 1.6e6, 0.25, p),
    lambda s, p: v_multi(s, 1e300, 0.25, p),
    lambda s, p: fair_swap_rate(s, SwapSpec(1e300, 4, 0.25, 0.01), p),
], ids=["fra", "fair-fra-rate", "fair-fra-rate-subnormal", "v-multi", "fair-swap-rate"])
def test_bond_ratio_past_bond_underflow_raises(params, state, price):
    # the OIS bonds are 0 at T = 1e300 and the subnormal 5e-324 at 1.6e6,
    # where their ratio read 1 and the fair rate a third of its value
    with pytest.raises(TwoCurveError, match="underflows"):
        price(state, params)


def test_bond_ratio_with_tiny_normal_bonds_keeps_its_level(params, state):
    # at 1.5e6 the bonds are near 1e-303, still normal floats
    assert fair_fra_rate(state, 1.5e6, 0.25, params) == pytest.approx(
        fair_fra_rate(state, 1e4, 0.25, params), rel=1e-8)


def test_rho3_pole_raises():
    # very large sigma3 over a long horizon drives the quadratic expectation
    # through its pole
    p = ModelParams(0.5, 0.3, 0.05, 0.01, 0.02, 1.5, kappa=0.3, psi0=(0.01, 0.05, 0.05))
    swap = SwapSpec(5.0, 1, 1.0, 0.01)
    with pytest.raises(ExpectationSingularity):
        expectation_coeffs(0.0, 1, swap, p)


_POLE_BASE = dict(b1=0.5, b2=0.3, b3=0.05, sigma1=0.01, sigma2=0.02, kappa=0.3,
                  psi0=(0.01, 0.05, 0.05))
_POLE_SWAP = SwapSpec(5.0, 1, 1.0, 0.01)


def _pole_sigma3():
    """sigma3 bisected onto the pole of the period's psi3 expectation."""
    def singular(sigma3):
        try:
            expectation_coeffs(0.0, 1, _POLE_SWAP, ModelParams(sigma3=sigma3, **_POLE_BASE))
        except ExpectationSingularity:
            return True
        return False

    lo, hi = 0.01, 1.5
    assert not singular(lo) and singular(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if singular(mid) else (mid, hi)
    return lo


def test_rho3_just_inside_pole_prices_finite():
    # price just inside the pole: both swap routes stay finite and agree
    base, swap = _POLE_BASE, _POLE_SWAP
    p = ModelParams(sigma3=_pole_sigma3() * (1.0 - 1e-4), **base)
    s = FactorState(0.0, p.psi0)
    ec = expectation_coeffs(0.0, 1, swap, p)
    assert math.isfinite(ec.rho3) and ec.rho3 < -1e3 * coeffs.c33_bar(5.0, 6.0, p)
    v1 = swap_price(s, swap, p)
    assert math.isfinite(v1)
    assert v1 == pytest.approx(swap_price_via_fras(s, swap, p), rel=1e-8)


def test_rho3_closer_to_pole_overflow_is_an_engine_error():
    # at 1 - 1e-6 of the pole the period's expectation exceeds the float
    # range: each route names the blow-up instead of an OverflowError
    p = ModelParams(sigma3=_pole_sigma3() * (1.0 - 1e-6), **_POLE_BASE)
    s = FactorState(0.0, p.psi0)
    with pytest.raises(ExpectationSingularity):
        swap_price(s, _POLE_SWAP, p)
    with pytest.raises(MomentExplosion):
        swap_price_via_fras(s, _POLE_SWAP, p)
    with pytest.raises(MomentExplosion):
        fra_price(s, FraSpec(5.0, 1.0, 0.01), p)
