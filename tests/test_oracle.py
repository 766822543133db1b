import math
import sys
import threading
import warnings

import numpy as np
import pytest

from twocurve import (
    BiasDominates,
    CapletSpec,
    FactorState,
    FraSpec,
    InvalidTimeOrder,
    McConfig,
    ModelParams,
    SwapSpec,
    SwaptionSpec,
    TwoCurveError,
    caplet_price,
    coeffs,
    fair_fra_rate,
    forward_moments,
    libor_bond,
    mc_bond,
    mc_forward_expectation,
    mc_price,
    ois_bond,
    oracle,
    q_conditional_law,
    swap_price,
    swaption_price,
)
from twocurve.oracle import _Reads, _make_grid, _run, _step_constants
from oracles import simulate_paths, step_constants_decimal

trapezoid = getattr(np, "trapezoid", None) or np.trapz

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


def test_swaption_with_fixed_leg_below_zero_is_the_swap(params, state):
    # 1 + R gamma = -0.125 makes the fixed leg h < 0 < g on every path: the
    # option is always exercised and its estimate is the swap's price
    swap = SwapSpec(0.5, 4, 0.25, -4.5)
    est = mc_price(params, SwaptionSpec(swap), McConfig(n_paths=20_000, steps_per_year=64, seed=41))
    assert abs(est.mean - swap_price(state, swap, params)) <= 4.0 * est.std_error


@pytest.mark.parametrize("b", [1e-300, 1e-100, 1e-30, 1e-8, 1e-3, 0.05, 1.0, 30.0, 1e3])
def test_step_constants_match_a_decimal_reference(b):
    # steps of 1e-6 to 25 wherever the e^{b t} scaling fits a float; that
    # factor inherits the rounding of b t, hence the (1 + b t) in the bound
    for dt in np.geomspace(1e-6, 25.0, 9):
        times = dt * np.arange(4.0)
        if b * times[-1] > 700.0:
            continue
        got = _step_constants(times, b, 0.013)
        ref = np.array(step_constants_decimal(times, b, 0.013))
        assert np.all(np.abs(got / ref - 1.0) <= 5e-16 * (1.0 + b * times[1:]))


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
    # not ints, or not a bool, refused rather than coerced or failing in the draw
    for name, bad in [("n_paths", 1000.5), ("n_paths", True), ("steps_per_year", 64.0),
                      ("steps_per_year", True), ("seed", 1.5), ("seed", True),
                      ("antithetic", "no"), ("antithetic", 1)]:
        with pytest.raises(ValueError, match=name):
            McConfig(**{name: bad})


def test_grid_past_the_block_budget_refused():
    # counted, not built: a block of 4096 paths over 100 years at 512 steps
    # a year would be a 9.4 GiB array
    with pytest.raises(TwoCurveError, match="block budget"):
        _make_grid([100.0], 512)
    with pytest.raises(TwoCurveError, match="block budget"):
        _make_grid([0.25, 1.0], 1 << 16)
    assert _make_grid([5.0], 512).size == 5121


@pytest.mark.parametrize("estimate", [
    lambda p, cfg: mc_bond(p, -1.0, "OIS", cfg),
    lambda p, cfg: mc_bond(p, -1.0, "LIBOR", cfg),
    lambda p, cfg: mc_bond(p, math.nan, "OIS", cfg),
    lambda p, cfg: mc_bond(p, math.inf, "LIBOR", cfg),
    lambda p, cfg: mc_price(p, FraSpec(-1.0, 0.5, 0.01), cfg),
    lambda p, cfg: mc_price(p, SwapSpec(-1.0, 2, 0.25, 0.01), cfg),
    lambda p, cfg: mc_price(p, CapletSpec(-0.25, 0.5, 0.01), cfg),
    lambda p, cfg: mc_price(p, CapletSpec(-0.25, 0.5, 0.01), cfg, floorlet=True),
    lambda p, cfg: mc_price(p, SwaptionSpec(SwapSpec(-1.0, 2, 0.25, 0.01)), cfg),
    lambda p, cfg: mc_forward_expectation(p, -1.0, 0.5, lambda psi: psi[0], cfg),
], ids=["ois-bond", "libor-bond", "bond-nan", "bond-inf", "fra", "swap", "caplet",
        "floorlet", "swaption", "forward-expectation"])
def test_dates_before_0_or_not_finite_refused(params, estimate):
    # a date before 0 would sort into a grid that runs backwards, with NaN
    # estimates or a finite one read off the wrong dates
    with pytest.raises(InvalidTimeOrder):
        estimate(params, McConfig(1000, 8, 1))


def test_unknown_bond_curve_refused(params):
    # any curve but "LIBOR" would otherwise price the OIS bond
    with pytest.raises(ValueError, match="unknown curve 'libor'"):
        mc_bond(params, 1.0, "libor", McConfig(1000, 8, 1))


def test_step_scaling_past_the_float_range_refused(params):
    # the exact steps are scaled by e^{b t}: b1 T = 1000 would overflow it
    # and leave NaN estimates
    p = ModelParams(1000.0, params.b2, params.b3, params.sigma1, params.sigma2,
                    params.sigma3, kappa=params.kappa, psi0=params.psi0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TwoCurveError, match="overflows"):
            mc_bond(p, 1.0, "OIS", McConfig(n_paths=1000, steps_per_year=8))


def test_payoff_past_the_float_range_refused(params):
    # sigma2 = 1000 draws psi2 near 1000, and the swap's 1 / pbar holds
    # exp(C22 psi2^2): an inf payoff would leave an inf or NaN estimate
    p = ModelParams(params.b1, params.b2, params.b3, params.sigma1, 1000.0,
                    params.sigma3, kappa=params.kappa, psi0=params.psi0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TwoCurveError, match="passes the float range"):
            mc_price(p, SwapSpec(0.5, 2, 0.25, 0.01), McConfig(n_paths=1000, steps_per_year=8))


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


@pytest.mark.parametrize("spread", [False, True])
def test_reads_match_the_simulated_paths(params, spread):
    # the reads of one block, by matrix product or off the psi2 (and psi3)
    # path, against the same quantities taken off simulate_paths' paths
    cfg = McConfig(n_paths=1000, steps_per_year=16, seed=4, antithetic=False)
    times, psi = simulate_paths(params, 2.0, cfg)
    at, to = (8, 20), (12, times.size - 1)
    seen = []
    _run(params, times, cfg, lambda p, ints: seen.append((p, ints)) or p[0, :, 0],
         _Reads(at=at, to=to, spread=spread))
    (p_fine, fine), (p_coarse, coarse) = seen
    np.testing.assert_allclose(p_fine, psi[:, :, list(at)], rtol=1e-12, atol=1e-16)
    np.testing.assert_array_equal(p_fine, p_coarse)
    rate_terms = [psi[0], psi[1] ** 2] + ([psi[2] ** 2] if spread else [])
    for ints, step in ((fine, 1), (coarse, 2)):
        want = [[trapezoid(f[:, :k + 1:step], times[:k + 1:step], axis=1) for k in to]
                for f in rate_terms]
        np.testing.assert_allclose(ints, np.transpose(want, (0, 2, 1)), rtol=1e-12, atol=1e-16)


@pytest.mark.parametrize("antithetic", [False, True])
def test_estimates_reduce_the_simulated_paths_block_by_block(params, antithetic):
    # the estimators and simulate_paths draw the same blocks: 5000 paths are
    # blocks of 4096 + 904 paths, or 2048 + 452 antithetic pairs, each pair
    # block followed by its mirror in the ensemble; psi2, which both build
    # with the one path builder, is read at the horizon
    cfg = McConfig(n_paths=5000, steps_per_year=16, seed=21, antithetic=antithetic)
    times, psi = simulate_paths(params, 1.0, cfg)
    est = _run(params, times, cfg, lambda p, ints: p[1, :, 0], _Reads(at=(times.size - 1,)))
    x = psi[1, :, -1]
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


# (mean, std_error, bias_proxy, n_paths) of each estimator at 4096 paths,
# 32 steps a year and seed 2026: the path builder may change rounding, never
# the draws or what is estimated
_PIN_CFG = dict(n_paths=4096, steps_per_year=32, seed=2026)
_PINS = {
    ("ois_bond", False): (0.9841575748064016, 0.00017731175766814823, 5.538381886438515e-08, 4096),
    ("libor_bond", False): (0.9777894055424915, 0.00022836311112445595, 5.6869284947858034e-08, 4096),
    ("fra", False): (-0.00031839324216778435, 7.154693388318942e-05, 1.026272326669353e-09, 4096),
    ("swap", False): (0.0008084687214502003, 0.00012576411039389392, 5.834858116744897e-09, 4096),
    ("caplet", False): (0.0012377916637028798, 3.457262844976502e-05, 4.862987332699548e-10, 4096),
    ("floorlet", False): (0.002543013578804672, 4.9021379723908726e-05, 8.637258482220578e-10, 4096),
    ("swaption", False): (0.003086915986438633, 6.305401368354206e-05, 3.8151281786524827e-10, 4096),
    ("forward", False): (1.0047274472069048, 6.35956311888173e-05, 3.291425885176835e-07, 4096),
    ("ois_bond", True): (0.9841092387059731, 1.2744169140197535e-05, 3.131788038901462e-07, 4096),
    ("libor_bond", True): (0.9777015154912183, 1.4713694623208758e-05, 4.4714902991405125e-07, 4096),
    ("fra", True): (-0.00020937254620291326, 4.5384145096188055e-06, 6.0924372527709596e-09, 4096),
    ("swap", True): (0.0009201725142122287, 7.158166985652157e-06, 6.032077561621621e-09, 4096),
    ("caplet", True): (0.0012822176557313872, 2.879920246192563e-05, 3.761374304253953e-09, 4096),
    ("floorlet", True): (0.0024783530986382096, 2.9502370382226902e-05, 1.943235666997112e-09, 4096),
    ("swaption", True): (0.003104479671729999, 4.1885781829364354e-05, 9.086157266684214e-09, 4096),
    ("forward", True): (1.004790833296467, 4.48320015599843e-06, 2.923051658498821e-07, 4096),
}


def _pinned_estimate(params, name, config):
    cb = coeffs.bundle(1.0, 1.5, params)

    def recip_libor_bond(psi):
        return np.exp(cb.A_bar + cb.B1_bar * psi[0] + cb.C22 * psi[1] ** 2
                      + cb.C33_bar * psi[2] ** 2)

    swap = SwapSpec(0.5, 4, 0.25, 0.01)
    cap = CapletSpec(1.0, 0.5, 0.012)
    return {
        "ois_bond": lambda: mc_bond(params, 2.0, "OIS", config),
        "libor_bond": lambda: mc_bond(params, 2.0, "LIBOR", config),
        "fra": lambda: mc_price(params, FraSpec(1.0, 0.5, 0.01), config),
        "swap": lambda: mc_price(params, swap, config),
        "caplet": lambda: mc_price(params, cap, config),
        "floorlet": lambda: mc_price(params, cap, config, floorlet=True),
        "swaption": lambda: mc_price(params, SwaptionSpec(swap), config),
        "forward": lambda: mc_forward_expectation(params, 1.0, 1.5, recip_libor_bond, config),
    }[name]()


@pytest.mark.parametrize("name, antithetic", list(_PINS))
def test_estimates_are_pinned(params, name, antithetic):
    mean, se, bias, n_paths = _PINS[name, antithetic]
    est = _pinned_estimate(params, name, McConfig(antithetic=antithetic, **_PIN_CFG))
    assert est.mean == pytest.approx(mean, rel=1e-13, abs=0.0)
    assert est.std_error == pytest.approx(se, rel=1e-12, abs=0.0)
    assert abs(est.bias_proxy - bias) <= 1e-15
    assert est.n_paths == n_paths


@pytest.mark.parametrize("antithetic", [False, True])
def test_estimates_do_not_depend_on_the_worker_count(params, monkeypatch, antithetic):
    # 10,000 paths are 3 blocks, on a pool of one worker or of two
    config = McConfig(n_paths=10_000, steps_per_year=16, seed=8, antithetic=antithetic)
    names = sorted({name for name, _ in _PINS})
    got = {}
    for workers in (1, 2):
        monkeypatch.setattr(oracle, "_worker_count", lambda *_: workers)
        got[workers] = [_pinned_estimate(params, name, config) for name in names]
        seen = set()
        mc_forward_expectation(params, 1.0, 1.5,
                               lambda psi: seen.add(threading.get_ident()) or psi[0], config)
        assert seen and threading.get_ident() not in seen
        # the caller's numpy error state holds on every worker
        with np.errstate(invalid="raise"), pytest.raises(TwoCurveError, match="invalid"):
            mc_forward_expectation(params, 1.0, 1.5, lambda psi: np.sqrt(-1.0 - psi[0] ** 2),
                                   config)
    assert got[1] == got[2]


def test_workers_never_share_a_workspace(params, monkeypatch):
    # five workers for five blocks, more than the CPUs, switching threads
    # every 10 us: two blocks on one workspace would move the estimate
    config = McConfig(n_paths=20_000, steps_per_year=16, seed=9)
    swap = SwapSpec(0.5, 4, 0.25, 0.01)
    monkeypatch.setattr(oracle, "_worker_count", lambda *_: 1)
    want = mc_price(params, swap, config)
    monkeypatch.setattr(oracle, "_worker_count", lambda *_: 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = [mc_price(params, swap, config) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 3


def test_first_failing_block_raises_and_the_pool_closes(params, monkeypatch):
    # 5000 paths are blocks of 4096 and 904 paths, on one worker or two
    config = McConfig(n_paths=5000, steps_per_year=8, seed=3, antithetic=False)

    def overflow_in_second(psi):
        return np.exp(1e3 * np.ones(psi.shape[1])) if psi.shape[1] == 904 else psi[0]

    def fail_in_both(psi):
        # the smaller second block fails too, most likely first in time
        if psi.shape[1] == 904:
            raise ValueError("second block")
        return np.exp(1e3 * np.ones(psi.shape[1]))

    before = threading.active_count()
    for workers in (1, 2):
        monkeypatch.setattr(oracle, "_worker_count", lambda *_: workers)
        for payoff in (overflow_in_second, fail_in_both):
            with pytest.raises(TwoCurveError, match="passes the float range"):
                mc_forward_expectation(params, 1.0, 1.5, payoff, config)
            assert threading.active_count() == before
