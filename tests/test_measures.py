import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from twocurve import (
    FactorState,
    GaussianLaw,
    MomentExplosion,
    forward_moments,
    gaussian_exp_quadratic,
    q_conditional_law,
)
from conftest import random_params
from oracles import forward_moments_printed, forward_moments_rk4


def test_forward_moments_at_zero(params):
    fm = forward_moments(0.0, 2.0, params)
    assert fm.alpha == params.psi0
    assert fm.beta == (0.0, 0.0, 0.0)


def test_factor3_moments_closed_form(params):
    t = 1.3
    fm = forward_moments(t, 2.0, params)
    b, s = params.b3, params.sigma3
    assert fm.alpha[2] == pytest.approx(math.exp(-b * t) * params.psi0[2], rel=1e-12)
    assert fm.beta[2] == pytest.approx(
        s * s * (1.0 - math.exp(-2.0 * b * t)) / (2.0 * b), rel=1e-12
    )


def test_moment_odes_step_halving():
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = random_params(rng)
        t, T = 1.0, 1.5
        fm = forward_moments(t, T, p)
        # re-integrate on a manual fine grid and compare
        a1, be1, a2, be2 = forward_moments_rk4(t, T, p, 4000)
        assert fm.alpha[0] == pytest.approx(a1, rel=1e-10, abs=1e-13)
        assert fm.beta[0] == pytest.approx(be1, rel=1e-10, abs=1e-13)
        assert fm.alpha[1] == pytest.approx(a2, rel=1e-10, abs=1e-13)
        assert fm.beta[1] == pytest.approx(be2, rel=1e-10, abs=1e-13)


def test_printed_factor1_moments_are_inconsistent(params):
    """The transcribed closed-form factor-1 moments disagree with the ODE
    solution (documented transcription defect); factors 2-3 agree."""
    fm = forward_moments(1.0, 1.5, params)
    fp = forward_moments_printed(1.0, 1.5, params)
    assert abs(fm.alpha[0] - fp.alpha[0]) > 1e-8
    assert abs(fm.beta[0] - fp.beta[0]) > 1e-8
    assert fm.alpha[1] == pytest.approx(fp.alpha[1], rel=1e-7)
    assert fm.alpha[2] == pytest.approx(fp.alpha[2], rel=1e-12)
    assert fm.beta[2] == pytest.approx(fp.beta[2], rel=1e-12)


def test_conditional_law_is_ou_transition(params):
    s = FactorState(0.5, (0.02, 0.03, 0.04))
    law = q_conditional_law(3, 0.5, 1.5, s, params)
    b, sig = params.b3, params.sigma3
    assert law.mean == pytest.approx(math.exp(-b) * 0.04, rel=1e-12)
    assert law.variance == pytest.approx(
        sig * sig * (1.0 - math.exp(-2.0 * b)) / (2.0 * b), rel=1e-12
    )
    law0 = q_conditional_law(3, 0.5, 0.5, s, params)
    assert (law0.mean, law0.variance) == (0.04, 0.0)


@given(
    mean=st.floats(-1.0, 1.0),
    var=st.floats(1e-6, 1.0),
    c=st.floats(-5.0, 5.0),
)
# next to the pole 1 - 2cv = 0: a peak far from the mean, and a value past
# the float range
@example(mean=1.0, var=0.703125, c=0.703125)
@example(mean=1.0, var=0.70703125, c=0.70703125)
@settings(max_examples=40, deadline=None)
def test_gaussian_exp_quadratic_vs_quadrature(mean, var, c):
    law = GaussianLaw(mean, var)
    d = 1.0 - 2.0 * c * var
    if d <= 0.0:
        with pytest.raises(MomentExplosion):
            gaussian_exp_quadratic(law, c)
        return
    s = math.sqrt(var)
    # the integrand exp(f(z)) peaks at mean / d, where its effective scale
    # widens by 1/sqrt(1 - 2cv); it is integrated as exp(f(z) - f(peak)),
    # the difference of the quadratics factored so that it does not cancel,
    # and rescaled, so that nothing overflows
    s_eff = s / math.sqrt(d)
    peak = mean / d
    f_peak = c * peak * peak - 0.5 * ((peak - mean) / s) ** 2

    def f_from_peak(z):
        return (z - peak) * (c * (z + peak) - 0.5 * (z + peak - 2.0 * mean) / var)

    lo, hi = peak - 15 * s_eff - 15 * s, peak + 15 * s_eff + 15 * s
    scaled, _ = quad(lambda z: math.exp(f_from_peak(z)) / (s * math.sqrt(2 * math.pi)),
                     lo, hi, points=[peak], limit=400, epsabs=0.0, epsrel=1e-12)
    log_ref = f_peak + math.log(scaled)
    if log_ref > math.log(sys.float_info.max):
        with pytest.raises(MomentExplosion, match="overflows"):
            gaussian_exp_quadratic(law, c)
        return
    assert gaussian_exp_quadratic(law, c) == pytest.approx(math.exp(log_ref), rel=1e-8)


def test_gaussian_exp_quadratic_degenerate():
    assert gaussian_exp_quadratic(GaussianLaw(0.5, 0.0), 2.0) == pytest.approx(
        math.exp(0.5), rel=1e-15
    )
