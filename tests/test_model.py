import math
import sys

import pytest
from hypothesis import given, strategies as st

from twocurve import (
    FactorState,
    ModelParams,
    NonPositiveCoefficient,
    short_rate,
    spread,
    validate,
)

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
pos = st.floats(min_value=1e-3, max_value=2.0, allow_nan=False)


def test_short_rate_and_spread(params):
    s = FactorState(0.0, (0.01, 0.05, 0.05))
    assert short_rate(s, params) == pytest.approx(0.01 + 0.05 ** 2, abs=0)
    assert spread(s, params) == pytest.approx(0.3 * 0.01 + 0.05 ** 2, abs=0)


@given(p1=finite, p2=finite, p3=finite, b=pos, sig=pos, kap=finite)
def test_rate_decomposition(p1, p2, p3, b, sig, kap):
    params = ModelParams(b, b, b, sig, sig, sig, kappa=kap)
    s = FactorState(1.0, (p1, p2, p3))
    total = short_rate(s, params) + spread(s, params)
    assert total == pytest.approx((1.0 + kap) * p1 + p2 * p2 + p3 * p3, rel=1e-12, abs=1e-12)


@given(p1=finite, p2=finite)
def test_short_rate_bounded_below_by_linear_part(p1, p2):
    params = ModelParams(0.5, 0.5, 0.5, 0.01, 0.01, 0.01)
    s = FactorState(0.0, (p1, p2, 0.0))
    assert short_rate(s, params) >= p1


@pytest.mark.parametrize("field", ["b1", "b2", "b3", "sigma1", "sigma2", "sigma3"])
def test_validate_rejects_nonpositive(field, params):
    bad = {f: getattr(params, f) for f in
           ("b1", "b2", "b3", "sigma1", "sigma2", "sigma3", "kappa", "psi0")}
    bad[field] = 0.0
    with pytest.raises(NonPositiveCoefficient) as err:
        validate(ModelParams(**bad))
    assert field in str(err.value)


def test_validate_warns_on_caplet_condition():
    p = ModelParams(0.5, 0.5, 0.01, 0.01, 0.01, 0.5)
    assert not p.caplet_condition
    assert validate(p) == ("b3 < sigma3/sqrt(2): caplet finiteness is not guaranteed "
                           "for all maturities",)
    assert validate(ModelParams(0.5, 0.5, 0.5, 0.01, 0.01, 0.5)) == ()


def test_caplet_condition_threshold():
    sigma3 = 0.4
    assert ModelParams(1, 1, sigma3 / math.sqrt(2.0) + 1e-12, 0.01, 0.01, sigma3).caplet_condition
    assert not ModelParams(1, 1, sigma3 / math.sqrt(2.0) - 1e-3, 0.01, 0.01, sigma3).caplet_condition


def test_state_rejects_bad_time():
    with pytest.raises(ValueError):
        FactorState(-1.0, (0, 0, 0))
    with pytest.raises(ValueError):
        FactorState(float("nan"), (0, 0, 0))


@pytest.mark.parametrize("field, value", [
    ("b1", 0.0), ("b2", -0.1), ("b3", float("inf")),
    ("sigma1", float("nan")), ("sigma2", -0.01), ("sigma3", float("inf")),
])
def test_params_reject_bad_coefficient_at_construction(field, value, params):
    kw = {f: getattr(params, f) for f in ("b1", "b2", "b3", "sigma1", "sigma2", "sigma3")}
    kw[field] = value
    with pytest.raises(NonPositiveCoefficient) as err:
        ModelParams(**kw)
    assert field in str(err.value)


def test_params_reject_non_finite_kappa_and_psi0():
    with pytest.raises(ValueError):
        ModelParams(0.5, 0.5, 0.5, 0.01, 0.01, 0.01, kappa=float("nan"))
    with pytest.raises(ValueError):
        ModelParams(0.5, 0.5, 0.5, 0.01, 0.01, 0.01, psi0=(0.0, float("inf"), 0.0))


@pytest.mark.parametrize("field", ["b1", "b2", "b3"])
def test_params_reject_subnormal_mean_reversion(field, params):
    # B1 = -expm1(-b tau)/b keeps no digits at a subnormal b: at b1 = 5e-324
    # B1(0, 1.5) read 2.0
    kw = {f: getattr(params, f) for f in ("b1", "b2", "b3", "sigma1", "sigma2", "sigma3")}
    kw[field] = 5e-324
    with pytest.raises(ValueError, match=f"{field} = 5e-324 is subnormal.*{sys.float_info.min}"):
        ModelParams(**kw)
    kw[field] = sys.float_info.min
    assert getattr(ModelParams(**kw), field) == sys.float_info.min
