import math

import numpy as np
import pytest

from twocurve import (
    BiasDominates,
    CapletSpec,
    FactorState,
    FraSpec,
    McConfig,
    ModelParams,
    SwapSpec,
    SwaptionSpec,
    TwoCurveError,
    caplet_price,
    fair_fra_rate,
    forward_moments,
    libor_bond,
    mc_bond,
    mc_forward_expectation,
    mc_price,
    ois_bond,
    q_conditional_law,
    simulate_paths,
    swap_price,
    swaption_price,
)
from twocurve.oracle import _make_grid, _run

CFG = McConfig(n_paths=40_000, steps_per_year=64, seed=12345)


def test_zero_vol_paths_are_deterministic(params):
    p = ModelParams(params.b1, params.b2, params.b3, 0.0, 0.0, 0.0,
                    kappa=params.kappa, psi0=params.psi0)
    times, psi = simulate_paths(p, 1.0, McConfig(n_paths=1000, steps_per_year=32, seed=1))
    for i in range(3):
        expected = p.psi0[i] * np.exp(-p.b(i + 1) * times)
        assert np.allclose(psi[i], expected[None, :], rtol=1e-13, atol=1e-15)
        assert np.ptp(psi[i], axis=0).max() == 0.0


def test_terminal_moments_match_transition_law(params):
    T = 1.5
    times, psi = simulate_paths(params, T, McConfig(n_paths=200_000, steps_per_year=32, seed=7))
    s = FactorState(0.0, params.psi0)
    for i in (1, 2, 3):
        law = q_conditional_law(i, 0.0, T, s, params)
        x = psi[i - 1][:, -1]
        se_mean = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - law.mean) < 3.0 * se_mean
        se_var = x.var(ddof=1) * math.sqrt(2.0 / (x.size - 1))
        assert abs(x.var(ddof=1) - law.variance) < 3.0 * se_var


def test_fixed_seed_reproducibility(params):
    cfg = McConfig(n_paths=8192, steps_per_year=32, seed=99)
    t1, p1 = simulate_paths(params, 1.0, cfg)
    t2, p2 = simulate_paths(params, 1.0, cfg)
    assert np.array_equal(t1, t2)
    assert all(np.array_equal(a, b) for a, b in zip(p1, p2))
    est1 = mc_bond(params, 2.0, "OIS", cfg)
    est2 = mc_bond(params, 2.0, "OIS", cfg)
    assert est1 == est2  # bit-identical dataclasses


def test_mc_bond_matches_closed_form(params, state):
    for T, curve, closed in [
        (2.0, "OIS", ois_bond(state, 2.0, params).value),
        (2.0, "LIBOR", libor_bond(state, 2.0, params).value),
    ]:
        est = mc_bond(params, T, curve, CFG)
        assert abs(est.mean - closed) < 3.0 * est.std_error
        assert est.bias_proxy < est.std_error


def test_standard_error_scaling(params):
    e1 = mc_bond(params, 2.0, "OIS", McConfig(n_paths=20_000, steps_per_year=32, seed=3))
    e2 = mc_bond(params, 2.0, "OIS", McConfig(n_paths=80_000, steps_per_year=32, seed=3))
    ratio = e1.std_error / e2.std_error
    assert 2.0 * 0.85 < ratio < 2.0 * 1.15


def test_forward_measure_normalization(params):
    est = mc_forward_expectation(params, 1.0, 1.5, lambda psi_T: np.ones(psi_T.shape[1]), CFG)
    assert abs(est.mean - 1.0) < 3.0 * est.std_error


def test_forward_measure_factor_means(params):
    T, T_star = 1.0, 1.5
    fm = forward_moments(T, T_star, params)
    for i in range(3):
        est = mc_forward_expectation(params, T, T_star, lambda psi_T, i=i: psi_T[i], CFG)
        assert abs(est.mean - fm.alpha[i]) < 3.0 * est.std_error


def test_fra_at_fair_strike_near_zero(params, state):
    r = fair_fra_rate(state, 1.0, 0.5, params)
    est = mc_price(params, FraSpec(1.0, 0.5, r), CFG)
    assert abs(est.mean) < 3.0 * est.std_error


def test_deep_otm_caplet_near_zero(params):
    est = mc_price(params, CapletSpec(1.0, 0.5, 1.0), CFG)
    assert est.mean < 1e-8


def test_caplet_mc_vs_analytic(params):
    cap = CapletSpec(1.0, 0.5, 0.0104)
    est = mc_price(params, cap, CFG)
    assert abs(est.mean - caplet_price(cap, params)) < 3.0 * est.std_error


def test_swap_mc_vs_analytic(params, state):
    swap = SwapSpec(0.5, 4, 0.25, 0.01)
    est = mc_price(params, swap, CFG)
    assert abs(est.mean - swap_price(state, swap, params)) < 3.0 * est.std_error


def test_swaption_mc_vs_analytic(params):
    swap = SwapSpec(0.5, 4, 0.25, 0.0104)
    est = mc_price(params, SwaptionSpec(swap), CFG)
    assert abs(est.mean - swaption_price(SwaptionSpec(swap), params)) < 3.0 * est.std_error


def test_antithetic_reduces_variance(params):
    base = McConfig(n_paths=40_000, steps_per_year=32, seed=5, antithetic=False)
    anti = McConfig(n_paths=40_000, steps_per_year=32, seed=5, antithetic=True)
    e_plain = mc_bond(params, 2.0, "OIS", base)
    e_anti = mc_bond(params, 2.0, "OIS", anti)
    assert e_anti.std_error <= 1.05 * e_plain.std_error


def test_bias_dominates_on_coarse_grid(params):
    # one step per year over five years: discretization bias swamps the noise
    with pytest.raises(BiasDominates):
        mc_bond(params, 5.0, "LIBOR", McConfig(n_paths=400_000, steps_per_year=1, seed=2))


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(n_paths=10)
    with pytest.raises(ValueError):
        McConfig(steps_per_year=48)  # not a power of two
    with pytest.raises(ValueError, match="n_paths"):
        McConfig(n_paths=100_000_001)
    with pytest.raises(ValueError, match="steps_per_year"):
        McConfig(steps_per_year=1 << 17)
    McConfig(n_paths=100_000_000, steps_per_year=1 << 16)


def test_grid_past_the_block_budget_refused():
    # counted, not built: a block of 4096 paths over 100 years at 512 steps
    # a year would be a 9.4 GiB array
    with pytest.raises(TwoCurveError, match="block budget"):
        _make_grid([100.0], 512)
    with pytest.raises(TwoCurveError, match="block budget"):
        _make_grid([0.25, 1.0], 1 << 16)
    assert _make_grid([5.0], 512).size == 5121


def test_libor_payoffs_agree_path_by_path(params):
    # one payoff for every Libor product: on the same dates, seed and
    # notional, caplet - floorlet is the FRA, and the FRA is the one-period
    # swap
    cfg = McConfig(n_paths=4096, steps_per_year=32, seed=17)
    fra = mc_price(params, FraSpec(1.0, 0.5, 0.012, 2.5), cfg).mean
    cap = CapletSpec(1.0, 0.5, 0.012, 2.5)
    caplet, floorlet = (mc_price(params, cap, cfg, floorlet=f).mean for f in (False, True))
    assert caplet - floorlet == pytest.approx(fra, rel=1e-12)
    assert mc_price(params, SwapSpec(1.0, 1, 0.5, 0.012, 2.5), cfg).mean == pytest.approx(
        fra, rel=1e-12)


@pytest.mark.parametrize("antithetic", [False, True])
def test_estimates_reduce_the_simulated_paths_block_by_block(params, antithetic):
    # the estimators and simulate_paths draw the same blocks: 5000 paths are
    # blocks of 4096 + 904 paths, or 2048 + 452 antithetic pairs, each pair
    # block followed by its mirror in the ensemble
    cfg = McConfig(n_paths=5000, steps_per_year=16, seed=21, antithetic=antithetic)
    times, psi = simulate_paths(params, 1.0, cfg)
    est = _run(params, times, cfg, lambda ts, p: p[0, :, -1])
    x = psi[0, :, -1]
    s1, start = 0.0, 0
    for n in ([2048, 452] if antithetic else [4096, 904]):
        if antithetic:
            vals = 0.5 * (x[start:start + n] + x[start + n:start + 2 * n])
            start += 2 * n
        else:
            vals = x[start:start + n]
            start += n
        s1 += float(np.sum(vals))
    assert start == x.size == 5000
    assert est.mean == s1 / (2500 if antithetic else 5000)
    assert est.n_paths == 5000
