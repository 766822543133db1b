import math
import warnings

import numpy as np
import pytest

from twocurve import (
    CapletConditionViolated,
    CapletSpec,
    FactorState,
    FraSpec,
    MixedCase,
    ModelParams,
    QuadratureConfig,
    QuadratureFailure,
    RootNotBracketed,
    SwapSpec,
    SwaptionSpec,
    TwoCurveError,
    caplet_price,
    caplet_region,
    coeffs,
    fair_fra_rate,
    fair_swap_rate,
    floorlet_price,
    forward_moments,
    fra_price,
    swap_price,
    swaption_case,
    swaption_price,
    swaption_region,
)
from twocurve import optional
from twocurve.optional import _SwaptionAssembly, _boundary_root, _ndtr
from oracles import caplet_3d_quadrature, swaption_z_quadrature, swaption_z_root_bisect
from conftest import random_params

QUICK_QUAD = QuadratureConfig(n_nodes_per_axis=64)


def _g_caplet(x, y, z, caplet, params):
    cb = coeffs.bundle(caplet.T, caplet.T + caplet.delta, params)
    return math.exp(
        cb.A_bar + (1.0 + params.kappa) * cb.B1 * x + cb.C22 * y * y + cb.C33_bar * z * z
    )


def test_ndtr_matches_math_erfc():
    # both tails down to ~1e-300 (below that the values are subnormal), the
    # branch points of the rational approximations and the non-finite
    # values, against the standard library's erfc
    edges = math.sqrt(2.0) * np.array([0.46875, 4.0])
    x = np.concatenate([np.linspace(-37.0, 9.0, 20001), edges, -edges,
                        np.nextafter(edges, 0.0), -np.nextafter(edges, 0.0)])
    ref = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])
    assert np.max(np.abs(_ndtr(x) / ref - 1.0)) <= 1e-12
    assert np.array_equal(_ndtr(np.array([np.inf, -np.inf, np.nan])), [1.0, 0.0, np.nan],
                          equal_nan=True)


class TestCapletRegion:
    def test_boundary_point_has_zero_roots(self, params):
        cap = CapletSpec(1.0, 0.5, 0.02)
        cb = coeffs.bundle(1.0, 1.5, params)
        y = 0.03
        x = (math.log(cap.r_tilde) - cb.A_bar - cb.C22 * y * y) / (
            (1.0 + params.kappa) * cb.B1
        )
        rb = caplet_region(x, y, cap, params)
        assert rb.in_region
        assert rb.z1 == pytest.approx(0.0, abs=1e-7)
        assert rb.z2 == pytest.approx(0.0, abs=1e-7)

    def test_far_positive_x_outside(self, params):
        cap = CapletSpec(1.0, 0.5, 0.02)
        assert not caplet_region(50.0, 0.0, cap, params).in_region

    def test_interior_plug_back(self, params):
        cap = CapletSpec(1.0, 0.5, 0.02)
        rb = caplet_region(-0.05, 0.01, cap, params)
        assert rb.in_region and rb.z1 == -rb.z2
        for z in (rb.z1, rb.z2):
            assert _g_caplet(-0.05, 0.01, z, cap, params) == pytest.approx(
                cap.r_tilde, rel=1e-12
            )


class TestCapletPrice:
    def test_deep_otm_price_vanishes(self, params):
        cap = CapletSpec(1.0, 0.5, 5.0)  # strike far above any attainable rate
        assert caplet_price(cap, params, QUICK_QUAD) == pytest.approx(0.0, abs=1e-10)

    def test_parity_exact_by_construction(self, params, state):
        cap = CapletSpec(1.0, 0.5, 0.012)
        c = caplet_price(cap, params, QUICK_QUAD)
        f = floorlet_price(cap, params, QUICK_QUAD)
        fra = fra_price(state, FraSpec(1.0, 0.5, 0.012), params)
        assert f == c - fra  # bitwise, by construction

    def test_against_3d_quadrature_generic(self, params, state):
        r0 = fair_fra_rate(state, 1.0, 0.5, params)
        cap = CapletSpec(1.0, 0.5, r0)
        price = caplet_price(cap, params)
        ref = caplet_3d_quadrature(cap, params, n=128)
        assert price == pytest.approx(ref, rel=1e-6)

    def test_against_3d_quadrature_random_draws(self):
        rng = np.random.default_rng(17)
        for _ in range(4):
            p = random_params(rng, caplet_safe=True)
            s = FactorState(0.0, p.psi0)
            T = rng.uniform(0.5, 2.0)
            delta = rng.uniform(0.25, 1.0)
            strike = fair_fra_rate(s, T, delta, p) + rng.uniform(-0.002, 0.002)
            if 1.0 + delta * strike <= 0:
                continue
            cap = CapletSpec(T, delta, strike)
            price = caplet_price(cap, p)
            ref = caplet_3d_quadrature(cap, p, n=128)
            assert price == pytest.approx(ref, rel=1e-6, abs=1e-12)

    def test_monotone_in_strike_and_nonnegative(self, params, state):
        r0 = fair_fra_rate(state, 1.0, 0.5, params)
        strikes = [r0 - 0.004, r0 - 0.002, r0, r0 + 0.002, r0 + 0.004]
        prices = [caplet_price(CapletSpec(1.0, 0.5, k), params, QUICK_QUAD) for k in strikes]
        assert all(p >= 0.0 for p in prices)
        assert all(a >= b for a, b in zip(prices, prices[1:]))

    def test_condition_violated_raises(self):
        p = ModelParams(0.5, 0.3, 0.05, 0.01, 0.02, 0.6, kappa=0.3, psi0=(0.01, 0.05, 0.05))
        with pytest.raises(CapletConditionViolated):
            caplet_price(CapletSpec(3.0, 1.0, 0.01), p, QUICK_QUAD)

    def test_quadrature_failure_carries_history(self, params):
        cap = CapletSpec(1.0, 0.5, 0.012)
        with pytest.raises(QuadratureFailure, match="node doubling did not converge") as info:
            caplet_price(cap, params, QuadratureConfig(n_nodes_per_axis=16, max_refinements=0))
        assert [n for n, _ in info.value.history] == [16]
        assert f"last={info.value.history[-1][1]}" in str(info.value)
        with pytest.raises(QuadratureFailure) as info:
            caplet_price(cap, params, QuadratureConfig(16, rel_tol=0.0, max_refinements=2))
        assert [n for n, _ in info.value.history] == [16, 32, 64]
        assert info.value.history[-1][1] == pytest.approx(caplet_price(cap, params), rel=1e-6)

    def test_node_doubling_converges(self, params, state):
        r0 = fair_fra_rate(state, 1.0, 0.5, params)
        cap = CapletSpec(1.0, 0.5, r0)
        v64 = caplet_price(cap, params, QuadratureConfig(n_nodes_per_axis=64, max_refinements=0 or 3))
        v128 = caplet_price(cap, params, QuadratureConfig(n_nodes_per_axis=128))
        assert abs(v64 - v128) <= 1e-7 * abs(v128) + 1e-15


class TestSwaptionCase:
    def test_small_sigma3_is_case1(self, params):
        assert swaption_case(SwapSpec(0.5, 4, 0.25, 0.01), params) == "case1"

    def test_engineered_straddle_raises_mixed(self):
        p = ModelParams(0.5, 0.3, 0.3, 0.01, 0.02, 1.2, kappa=0.3, psi0=(0.01, 0.05, 0.05))
        with pytest.raises(MixedCase):
            swaption_case(SwapSpec(0.5, 4, 0.5, 0.01), p)

    def test_first_period_always_case1_leaning(self):
        """The first period's spread exponent equals minus the period C33 at
        the swaption expiry, which is strictly negative; a uniform case2
        classification is therefore impossible for any parameters."""
        from twocurve.optional import _swaption_period_rho3

        rng = np.random.default_rng(5)
        for _ in range(50):
            p = ModelParams(
                b1=rng.uniform(0.05, 1.0), b2=rng.uniform(0.05, 1.0),
                b3=rng.uniform(0.01, 1.0),
                sigma1=rng.uniform(0.001, 0.05), sigma2=rng.uniform(0.001, 0.05),
                sigma3=rng.uniform(0.001, 2.0),
                kappa=rng.uniform(-0.5, 1.0),
            )
            swap = SwapSpec(rng.uniform(0.1, 3.0), 4, rng.uniform(0.1, 1.0), 0.01)
            assert _swaption_period_rho3(swap.T0, 1, swap, p) < 0.0


def _grid_nodes(swap, params, n=128):
    """An n x n grid over the +/- 8 standard-deviation (x, y) box at T0,
    split into exercise-region nodes and the rest."""
    fm = forward_moments(swap.T0, swap.T0, params)
    axes = [np.linspace(a - 8.0 * math.sqrt(b), a + 8.0 * math.sqrt(b), n)
            for a, b in zip(fm.alpha[:2], fm.beta[:2])]
    x, y = (v.ravel() for v in np.meshgrid(*axes))
    asm = _SwaptionAssembly(swap, params)
    inside = asm.g(x, y, 0.0) <= asm.h(x, y)
    return asm, x, y, inside


class TestSwaptionRegion:
    @pytest.mark.parametrize("n_periods", [1, 4, 20])
    def test_newton_boundary_plug_back(self, params, state, n_periods):
        swap = SwapSpec(1.0, n_periods, 0.25,
                        fair_swap_rate(state, SwapSpec(1.0, n_periods, 0.25, 0.0), params))
        asm, x, y, inside = _grid_nodes(swap, params)
        assert 0 < inside.sum() < inside.size
        xi, yi = x[inside], y[inside]
        z2 = _boundary_root(asm, xi, yi)
        h = asm.h(xi, yi)
        assert np.max(np.abs(asm.g(xi, yi, z2) - h) / h) <= 1e-12
        # the same boundary as the bracket-and-bisect reference, in u = z^2
        assert np.max(np.abs(z2 ** 2 - swaption_z_root_bisect(asm, xi, yi) ** 2)) <= 1e-11
        # off the region F(0) > 0 and the clamp puts the root at z = 0
        assert np.all(_boundary_root(asm, x[~inside], y[~inside]) == 0.0)

    def test_newton_iteration_cap_raises(self, params, monkeypatch):
        asm, x, y, inside = _grid_nodes(SwapSpec(1.0, 4, 0.25, 0.0085), params, n=16)
        monkeypatch.setattr(optional, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(RootNotBracketed):
            _boundary_root(asm, x[inside], y[inside])

    def test_plug_back(self, params):
        swap = SwapSpec(0.5, 4, 0.25, 0.012)
        rb = swaption_region(-0.05, 0.01, swap, params, "case1")
        if rb.in_region:
            from twocurve.optional import _SwaptionAssembly

            asm = _SwaptionAssembly(swap, params)
            g = float(asm.g(rb.z2 * 0 + (-0.05), 0.01, rb.z2))
            h = float(asm.h(-0.05, 0.01))
            assert abs(g - h) / h < 1e-10
            assert rb.z1 == -rb.z2

    def test_membership_threshold(self, params):
        swap = SwapSpec(0.5, 4, 0.25, 0.012)
        assert swaption_region(-0.5, 0.0, swap, params, "case1").in_region
        assert not swaption_region(0.5, 0.0, swap, params, "case1").in_region


@pytest.mark.parametrize("n_periods", [1, 4, 20])
def test_swap_value_at_expiry_is_g_minus_h(params, n_periods):
    # swap_price at T0 and the swaption's exercise functions are built from
    # the same period rows; compared on the scale of the fixed leg h
    swap = SwapSpec(1.0, n_periods, 0.25, 0.012, notional=1.7)
    asm, x, y, _ = _grid_nodes(swap, params, n=16)
    fm = forward_moments(swap.T0, swap.T0, params)
    z = fm.alpha[2] + math.sqrt(fm.beta[2]) * np.linspace(-8.0, 8.0, x.size)
    direct = np.array([swap_price(FactorState(swap.T0, psi), swap, params)
                       for psi in zip(x, y, z)])
    h = asm.h(x, y)
    assert np.max(np.abs(direct - swap.notional * (asm.g(x, y, z) - h)) / h) <= 1e-13


class TestSwaptionPrice:
    @pytest.mark.parametrize("draw", [None, 0, 1, 2])
    def test_against_z_quadrature_oracle(self, params, draw):
        # README parameters and three random draws, 1-, 4- and 20-period
        # at-the-money swaptions from 1 y
        if draw is not None:
            rng = np.random.default_rng(11)
            for _ in range(draw + 1):
                params = random_params(rng)
        s = FactorState(0.0, params.psi0)
        for n in (1, 4, 20):
            swap = SwapSpec(1.0, n, 0.25, fair_swap_rate(s, SwapSpec(1.0, n, 0.25, 0.0), params))
            spec = SwaptionSpec(swap)
            assert swaption_price(spec, params) == pytest.approx(
                swaption_z_quadrature(spec, params), rel=1e-7)

    def test_single_period_equals_caplet(self, params, state):
        r = fair_fra_rate(state, 1.0, 0.5, params)
        cap_px = caplet_price(CapletSpec(1.0, 0.5, r), params)
        sw_px = swaption_price(SwaptionSpec(SwapSpec(1.0, 1, 0.5, r)), params)
        assert sw_px == pytest.approx(cap_px, rel=1e-6)

    def test_deep_otm_vanishes(self, params):
        sw = SwaptionSpec(SwapSpec(0.5, 4, 0.25, 5.0))
        assert swaption_price(sw, params, QUICK_QUAD) == pytest.approx(0.0, abs=1e-10)

    def test_jensen_bound(self, params, state):
        for r in (0.005, 0.0104, 0.02):
            swap = SwapSpec(0.5, 4, 0.25, r)
            sw_px = swaption_price(SwaptionSpec(swap), params, QUICK_QUAD)
            assert sw_px >= max(0.0, swap_price(state, swap, params)) - 1e-12

    def test_node_doubling_converges(self, params, state):
        swap = SwapSpec(0.5, 4, 0.25, fair_swap_rate(state, SwapSpec(0.5, 4, 0.25, 0.0), params))
        v64 = swaption_price(SwaptionSpec(swap), params, QuadratureConfig(n_nodes_per_axis=64))
        v128 = swaption_price(SwaptionSpec(swap), params, QuadratureConfig(n_nodes_per_axis=128))
        assert abs(v64 - v128) <= 1e-7 * abs(v128) + 1e-15


@pytest.mark.parametrize("n, refinements", [(2049, 0), (1024, 2), (16, 8), (48, 10 ** 30)])
def test_quadrature_size_bounded(n, refinements):
    # validation only: no rule is built
    with pytest.raises(ValueError, match="2048"):
        QuadratureConfig(n, max_refinements=refinements)
    QuadratureConfig(2048, max_refinements=0)
    QuadratureConfig(256, max_refinements=3)


def _estimate(price, spec, params, n):
    """The single n-node estimate of a price: with no refinement allowed the
    node doubling stops at once and reports it in its history."""
    with pytest.raises(QuadratureFailure) as info:
        price(spec, params, QuadratureConfig(n, max_refinements=0))
    return info.value.history[0][1]


@pytest.mark.parametrize("kind, T, n", [("caplet", 1.0, 1), ("caplet", 5.0, 1),
                                         ("swaption", 0.5, 4), ("swaption", 2.0, 20)])
@pytest.mark.parametrize("draw", [None, 0, 1, 2])
def test_mapped_rule_converges_spectrally(params, draw, kind, T, n):
    # README parameters and three random draws: at-the-money caplets on
    # [T, T + 0.5] and swaptions of n quarterly periods from T; without the
    # endpoint map the 64-node error is 1e-9 to 1e-7
    if draw is not None:
        rng = np.random.default_rng(11)
        for _ in range(draw + 1):
            params = random_params(rng, caplet_safe=True)
    s = FactorState(0.0, params.psi0)
    if kind == "caplet":
        price, spec = caplet_price, CapletSpec(T, 0.5, fair_fra_rate(s, T, 0.5, params))
    else:
        swap = SwapSpec(T, n, 0.25, fair_swap_rate(s, SwapSpec(T, n, 0.25, 0.0), params))
        price, spec = swaption_price, SwaptionSpec(swap)
    ref = _estimate(price, spec, params, 512)
    assert abs(_estimate(price, spec, params, 64) / ref - 1.0) <= 1e-11
    assert abs(price(spec, params) / ref - 1.0) <= 1e-12


# the caplet and swaption rows of perfbench/reference.py at the converged
# 256-node estimates of the plain (unmapped) rule, whose own error is up to
# about 1.5e-10 relative
PINNED_PRICES = [
    (caplet_price, CapletSpec(1.0, 0.5, 0.012), 0.001295570522983659),
    (caplet_price, CapletSpec(5.0, 0.5, 0.012), 0.000581903797465897),
    (swaption_price, SwaptionSpec(SwapSpec(0.5, 4, 0.25, 0.01)), 0.0030643228532978998),
    (swaption_price, SwaptionSpec(SwapSpec(2.0, 20, 0.25, 0.01)), 0.0005172883439272596),
]


@pytest.mark.parametrize("price, spec, pinned", PINNED_PRICES)
def test_reference_rows_keep_their_prices(params, price, spec, pinned):
    assert abs(price(spec, params) / pinned - 1.0) <= 1e-9


def test_caplet_accrual_past_bond_underflow_refused(params):
    # p(0, 1 + 1e300) is 0 and 1 / pbar overflows: refused before the
    # integrand, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TwoCurveError, match="accrual delta = 1e\\+300"):
            caplet_price(CapletSpec(1.0, 1e300, 0.01), params)
