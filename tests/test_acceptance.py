"""End-to-end acceptance suite.

Eight numbered criteria, each printing a single PASS/FAIL line on the
terminal (bypassing pytest capture).  Criterion 7's uniform-spread-sign
("case 2") Monte Carlo comparison is expected to fail: that regime is
mathematically unattainable in this model (see the analysis in the test
docstring), and the test reports the impossibility honestly instead of
weakening the check.
"""

import math

import numpy as np
import pytest

from twocurve import (
    CapletSpec,
    FactorState,
    McConfig,
    MixedCase,
    ModelParams,
    SwapSpec,
    SwaptionSpec,
    adjustment,
    caplet_price,
    coeffs,
    fair_fra_rate,
    fair_swap_rate,
    forward_moments,
    fra_price,
    inst_forward,
    libor_bond,
    libor_bond_via_ois,
    mc_bond,
    mc_forward_expectation,
    mc_price,
    ois_bond,
    residual,
    short_rate,
    spread,
    swap_price,
    swap_price_via_fras,
    swaption_case,
    swaption_price,
    v_multi,
    v_single,
)
from twocurve.optional import QuadratureConfig, _swaption_period_rho3
from oracles import (
    caplet_3d_quadrature,
    forward_moments_printed,
    linear_b_rk4,
    riccati_residual,
    riccati_rk4,
    simpson_adaptive,
)
from conftest import random_params

MC_PATHS = 1_000_000
MC_STEPS = 32  # discretization bias measured ~1e-9, far below MC noise


def _report(capsys, line):
    with capsys.disabled():
        print(line)


def test_criterion_1_riccati_correctness(capsys):
    """Closed-form second-order and first-order coefficients satisfy their
    defining ODEs and match an independent Runge-Kutta integration."""
    rng = np.random.default_rng(101)
    T = 5.0
    grid = np.linspace(0.05, T - 0.05, 50)
    for _ in range(20):
        p = random_params(rng)
        for ode_id, fn in [
            ("c22", coeffs.c22),
            ("c33_bar", coeffs.c33_bar),
            ("b1", coeffs.b1),
        ]:
            for t in grid:
                assert riccati_residual(fn, ode_id, float(t), T, p) < 1e-8
        tau = float(rng.uniform(0.2, 8.0))
        assert coeffs.c22(0.0, tau, p) == pytest.approx(
            riccati_rk4(p.b2, p.sigma2, tau), rel=1e-8, abs=1e-12
        )
        assert coeffs.c33_bar(0.0, tau, p) == pytest.approx(
            riccati_rk4(p.b3, p.sigma3, tau), rel=1e-8, abs=1e-12
        )
        assert coeffs.b1(0.0, tau, p) == pytest.approx(
            linear_b_rk4(p.b1, tau), rel=1e-8, abs=1e-12
        )
    _report(capsys, "ACCEPTANCE 1 (Riccati correctness): PASS")


def test_criterion_2_boundary_identities(capsys):
    rng = np.random.default_rng(102)
    for _ in range(10):
        p = random_params(rng)
        s = FactorState(float(rng.uniform(0.0, 2.0)), tuple(rng.normal(0.0, 0.05, 3)))
        # unit price at maturity
        assert ois_bond(s, s.t, p).value == 1.0
        assert libor_bond(s, s.t, p).value == 1.0
        # instantaneous forwards collapse to the short rate / rate + spread
        assert abs(inst_forward(s, s.t, p, "OIS") - short_rate(s, p)) < 1e-10
        assert abs(
            inst_forward(s, s.t, p, "LIBOR") - short_rate(s, p) - spread(s, p)
        ) < 1e-10
        # exact scaling of the first-order fictitious-bond coefficient
        tau = float(rng.uniform(0.1, 5.0))
        assert coeffs.b1_bar(0.0, tau, p) == (1.0 + p.kappa) * coeffs.b1(0.0, tau, p)
        # two independent routes to the fictitious bond price
        T = s.t + float(rng.uniform(0.2, 4.0))
        assert libor_bond(s, T, p).value == pytest.approx(
            libor_bond_via_ois(s, T, p).value, rel=1e-12
        )
        # bond reconstruction from integrated instantaneous forwards
        T = s.t + 1.5
        for fn, curve in [(ois_bond, "OIS"), (libor_bond, "LIBOR")]:
            integral = simpson_adaptive(
                lambda u: inst_forward(s, u, p, curve), s.t, T
            )
            assert fn(s, T, p).value == pytest.approx(math.exp(-integral), rel=1e-8)
    _report(capsys, "ACCEPTANCE 2 (boundary/identity suite): PASS")


@pytest.mark.slow
def test_criterion_3_forward_measure_moments(capsys):
    """Radon-Nikodym-weighted Monte Carlo reproduces the ODE-integrated
    forward-measure factor means for all three factors; the same runs
    adjudicate the (defective) transcribed closed form for factor 1."""
    rng = np.random.default_rng(103)
    printed_rejected = 0
    for draw in range(10):
        p = random_params(rng)
        T = float(rng.uniform(0.5, 1.5))
        T_star = T + float(rng.uniform(0.25, 1.0))
        fm = forward_moments(T, T_star, p)
        fp = forward_moments_printed(T, T_star, p)
        cfg = McConfig(n_paths=MC_PATHS, steps_per_year=MC_STEPS, seed=1000 + draw)
        for i in range(3):
            est = mc_forward_expectation(p, T, T_star, lambda psi, i=i: psi[i], cfg)
            assert abs(est.mean - fm.alpha[i]) < 3.0 * est.std_error, (
                f"draw {draw} factor {i + 1}: mc={est.mean} ode={fm.alpha[i]} "
                f"se={est.std_error}"
            )
            if i == 0 and abs(est.mean - fp.alpha[0]) > 3.0 * est.std_error:
                printed_rejected += 1
    # the transcribed factor-1 closed form should be rejected on most draws
    assert printed_rejected >= 8
    _report(
        capsys,
        "ACCEPTANCE 3 (forward-measure moments vs MC, ODE route confirmed, "
        f"transcribed factor-1 form rejected on {printed_rejected}/10 draws): PASS",
    )


@pytest.mark.slow
def test_criterion_4_fra_factorization(capsys):
    rng = np.random.default_rng(104)
    for draw in range(20):
        p = random_params(rng)
        s = FactorState(0.0, p.psi0)
        T = float(rng.uniform(0.3, 1.5))
        delta = float(rng.uniform(0.25, 1.0))
        vb = v_multi(s, T, delta, p)
        v = v_single(s, T, delta, p)
        cb = coeffs.bundle(T, T + delta, p)

        def recip_libor_bond(psi):
            return np.exp(
                cb.A_bar + cb.B1_bar * psi[0] + cb.C22 * psi[1] ** 2
                + cb.C33_bar * psi[2] ** 2
            )

        cfg = McConfig(n_paths=MC_PATHS, steps_per_year=MC_STEPS, seed=2000 + draw)
        est = mc_forward_expectation(p, T, T + delta, recip_libor_bond, cfg)
        assert abs(est.mean - vb) < 3.0 * est.std_error, (
            f"draw {draw}: mc={est.mean} analytic={vb} se={est.std_error}"
        )
        # with zero basis loading the residual is exactly 1 and the
        # structural domination inequalities hold
        p0 = ModelParams(p.b1, p.b2, p.b3, p.sigma1, p.sigma2, p.sigma3,
                         kappa=0.0, psi0=p.psi0)
        assert residual(0.0, T, delta, p0) == 1.0
        assert adjustment(s, T, delta, p0) >= 1.0
        vb0, v0 = v_multi(s, T, delta, p0), v_single(s, T, delta, p0)
        assert vb0 >= v0
        assert (vb0 - 1.0) / delta >= (v0 - 1.0) / delta  # multi-curve rate dominates
    _report(capsys, "ACCEPTANCE 4 (FRA adjustment factorization vs MC): PASS")


def test_criterion_5_swap_routes(capsys):
    rng = np.random.default_rng(105)
    for _ in range(10):
        p = random_params(rng)
        s = FactorState(0.0, p.psi0)
        swap = SwapSpec(float(rng.uniform(0.25, 1.0)), 4,
                        float(rng.uniform(0.2, 0.6)), float(rng.uniform(0.0, 0.03)))
        assert swap_price(s, swap, p) == pytest.approx(
            swap_price_via_fras(s, swap, p), rel=1e-8, abs=1e-12
        )
        r = fair_swap_rate(s, swap, p)
        assert abs(swap_price(s, SwapSpec(swap.T0, swap.n, swap.gamma, r), p)) < 1e-10
    # Monte Carlo agreement on three independent draws
    rng = np.random.default_rng(1055)
    for draw in range(3):
        p = random_params(rng)
        s = FactorState(0.0, p.psi0)
        swap = SwapSpec(0.5, 4, 0.25, float(rng.uniform(0.0, 0.02)))
        cfg = McConfig(n_paths=MC_PATHS, steps_per_year=MC_STEPS, seed=3000 + draw)
        est = mc_price(p, swap, cfg)
        assert abs(est.mean - swap_price(s, swap, p)) < 3.0 * est.std_error
    _report(capsys, "ACCEPTANCE 5 (swap route equivalence, fair rate, MC): PASS")


@pytest.mark.slow
def test_criterion_6_caplet_triple_agreement(capsys):
    rng = np.random.default_rng(106)
    for draw in range(10):
        p = random_params(rng, caplet_safe=True)
        s = FactorState(0.0, p.psi0)
        T = float(rng.uniform(0.5, 1.5))
        delta = float(rng.uniform(0.25, 0.75))
        r0 = fair_fra_rate(s, T, delta, p)
        strike = r0 + float(rng.uniform(-0.002, 0.002))
        if 1.0 + delta * strike <= 0.0:
            strike = r0
        cap = CapletSpec(T, delta, strike)
        price = caplet_price(cap, p)
        # independent dense 3-D quadrature of the terminal payoff
        ref = caplet_3d_quadrature(cap, p, n=128)
        assert price == pytest.approx(ref, rel=1e-6, abs=1e-12), f"draw {draw}"
        # Monte Carlo
        cfg = McConfig(n_paths=MC_PATHS, steps_per_year=MC_STEPS, seed=4000 + draw)
        est = mc_price(p, cap, cfg)
        assert abs(est.mean - price) < 3.0 * est.std_error, (
            f"draw {draw}: mc={est.mean} analytic={price} se={est.std_error}"
        )
        # cap/floor parity holds exactly (bitwise) by construction
        from twocurve import FraSpec, floorlet_price

        assert floorlet_price(cap, p) == price - fra_price(
            s, FraSpec(T, delta, strike), p
        )
        # price decreases in strike
        up = caplet_price(CapletSpec(T, delta, strike + 0.002), p)
        assert up <= price
    _report(capsys, "ACCEPTANCE 6 (caplet analytic vs 3-D quadrature vs MC): PASS")


def test_criterion_7_swaption(capsys, params, state):
    # single-period swaption degenerates to the caplet
    r = fair_fra_rate(state, 1.0, 0.5, params)
    assert swaption_price(SwaptionSpec(SwapSpec(1.0, 1, 0.5, r)), params) == \
        pytest.approx(caplet_price(CapletSpec(1.0, 0.5, r), params), rel=1e-6)
    # four-period swaption vs Monte Carlo (uniformly negative spread exponents)
    rng = np.random.default_rng(107)
    for draw in range(3):
        p = random_params(rng)
        s = FactorState(0.0, p.psi0)
        swap = SwapSpec(0.5, 4, 0.25, fair_swap_rate(s, SwapSpec(0.5, 4, 0.25, 0.0), p))
        assert swaption_case(swap, p) == "case1"
        spec = SwaptionSpec(swap)
        price = swaption_price(spec, p)
        cfg = McConfig(n_paths=MC_PATHS, steps_per_year=MC_STEPS, seed=5000 + draw)
        est = mc_price(p, spec, cfg)
        assert abs(est.mean - price) < 3.0 * est.std_error, (
            f"draw {draw}: mc={est.mean} analytic={price} se={est.std_error}"
        )
        # Jensen bound: option on the swap dominates the swap's positive part
        assert price >= max(0.0, swap_price(s, swap, p)) - 1e-12
    # mixed spread-exponent signs are detected and refused
    p_mix = ModelParams(0.5, 0.3, 0.3, 0.01, 0.02, 1.2, kappa=0.3,
                        psi0=(0.01, 0.05, 0.05))
    with pytest.raises(MixedCase):
        swaption_case(SwapSpec(0.5, 4, 0.5, 0.01), p_mix)
    _report(capsys, "ACCEPTANCE 7 (swaption: n=1 caplet limit, case-1 MC, "
                    "Jensen, mixed-case detection): PASS")


def test_criterion_7_case2_mc_comparison(capsys):
    """Swaption Monte Carlo comparison for a uniformly positive
    spread-exponent parameter set ("case 2").

    This configuration is unattainable: the first period's spread exponent
    at the option expiry equals minus the period spread coefficient
    C33(T0, T1), because its terminal condition is imposed at the expiry
    itself and no backward evolution occurs.  C33 is strictly positive for
    any positive maturity gap, so the first exponent is strictly negative
    for every parameter choice, and a uniformly positive classification can
    never occur.  The numeric search below documents this constructively;
    the test then fails honestly rather than fabricating an input.  See
    the project decision ledger for the full analysis.
    """
    rng = np.random.default_rng(777)
    found = None
    for _ in range(300):
        p = ModelParams(
            b1=float(rng.uniform(0.01, 2.0)), b2=float(rng.uniform(0.01, 2.0)),
            b3=float(rng.uniform(0.005, 2.0)),
            sigma1=float(rng.uniform(1e-4, 0.5)), sigma2=float(rng.uniform(1e-4, 0.5)),
            sigma3=float(rng.uniform(1e-4, 3.0)),
            kappa=float(rng.uniform(-0.9, 2.0)),
        )
        swap = SwapSpec(float(rng.uniform(0.05, 5.0)), 4,
                        float(rng.uniform(0.05, 2.0)), 0.01)
        try:
            rho3_first = _swaption_period_rho3(swap.T0, 1, swap, p)
        except Exception:
            continue
        if rho3_first > 0.0:
            found = (p, swap)
            break
    _report(capsys, "ACCEPTANCE 7 (case-2 swaption vs MC): FAIL — uniformly "
                    "positive spread exponents are unattainable (first-period "
                    "exponent is always negative); see decision ledger")
    assert found is not None, (
        "no parameter set yields a uniformly positive spread-exponent swaption: "
        "the first period's exponent -C33(T0, T1) is strictly negative for all "
        "parameters (300-draw search over a wide box confirms the algebraic "
        "argument), so the case-2 Monte Carlo comparison cannot be run"
    )


def test_criterion_8_robustness(capsys, params, state):
    # node-doubling stability of the quadrature-based prices
    r = fair_fra_rate(state, 1.0, 0.5, params)
    cap = CapletSpec(1.0, 0.5, r)
    c64 = caplet_price(cap, params, QuadratureConfig(n_nodes_per_axis=64))
    c128 = caplet_price(cap, params, QuadratureConfig(n_nodes_per_axis=128))
    assert abs(c64 - c128) <= 1e-7 * abs(c128)
    swap = SwapSpec(0.5, 4, 0.25, fair_swap_rate(state, SwapSpec(0.5, 4, 0.25, 0.0), params))
    s64 = swaption_price(SwaptionSpec(swap), params, QuadratureConfig(n_nodes_per_axis=64))
    s128 = swaption_price(SwaptionSpec(swap), params, QuadratureConfig(n_nodes_per_axis=128))
    assert abs(s64 - s128) <= 1e-7 * abs(s128)
    # discretization bias below the Monte Carlo noise at default stepping
    est = mc_bond(params, 2.0, "LIBOR", McConfig(n_paths=100_000, seed=8))
    assert est.bias_proxy < est.std_error
    # fixed-seed determinism: the block-substream design makes the result
    # independent of scheduling; repeated runs are bit-identical
    cfg = McConfig(n_paths=50_000, steps_per_year=MC_STEPS, seed=42)
    runs = [mc_price(params, cap, cfg) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    _report(capsys, "ACCEPTANCE 8 (quadrature refinement, MC bias control, "
                    "determinism): PASS")
