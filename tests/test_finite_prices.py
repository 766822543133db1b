"""Property: any valid parameters and finite horizons give a finite price or
a TwoCurveError, never a bare OverflowError, a NaN or a numpy warning; and
each input outside the domain is refused by name."""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twocurve import (
    CapletSpec,
    FactorState,
    FraSpec,
    GaussianLaw,
    InvalidTimeOrder,
    McConfig,
    McEstimate,
    ModelParams,
    QuadratureConfig,
    SwapSpec,
    SwaptionSpec,
    TwoCurveError,
    adjustment,
    caplet_price,
    fair_fra_rate,
    fair_swap_rate,
    floorlet_price,
    forward_moments,
    fra_price,
    inst_forward,
    libor_bond,
    mc_price,
    ois_bond,
    swap_price,
    swaption_price,
)

QUICK = QuadratureConfig(n_nodes_per_axis=16, rel_tol=1e-3, max_refinements=1)

# the validation ranges of conftest.random_params
PARAMS = st.builds(
    ModelParams,
    b1=st.floats(0.05, 1.0), b2=st.floats(0.05, 1.0), b3=st.floats(0.05, 1.0),
    sigma1=st.floats(0.001, 0.05), sigma2=st.floats(0.001, 0.05), sigma3=st.floats(0.001, 0.05),
    kappa=st.floats(-0.5, 1.0),
    psi0=st.tuples(*[st.floats(-0.02, 0.06)] * 3),
)
# any positive finite horizon or accrual, the ends of the float range included
HORIZONS = st.one_of(st.floats(1e-300, 1e300), st.sampled_from([1e-300, 1e-3, 1.0, 1e3, 1e300]))


def _state(p):
    return FactorState(0.0, p.psi0)


PRICERS = {
    "ois_bond": lambda p, T, d, R: ois_bond(_state(p), T, p).value,
    "libor_bond": lambda p, T, d, R: libor_bond(_state(p), T, p).value,
    "fra": lambda p, T, d, R: fra_price(_state(p), FraSpec(T, d, R), p),
    "fair_fra_rate": lambda p, T, d, R: fair_fra_rate(_state(p), T, d, p),
    "swap": lambda p, T, d, R: swap_price(_state(p), SwapSpec(T, 3, d, R), p),
    "fair_swap_rate": lambda p, T, d, R: fair_swap_rate(_state(p), SwapSpec(T, 3, d, R), p),
    "caplet": lambda p, T, d, R: caplet_price(CapletSpec(T, d, R), p, QUICK),
    "floorlet": lambda p, T, d, R: floorlet_price(CapletSpec(T, d, R), p, QUICK),
    "swaption": lambda p, T, d, R: swaption_price(SwaptionSpec(SwapSpec(T, 2, d, R)), p, QUICK),
}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(params=PARAMS, T=HORIZONS, delta=HORIZONS, R=st.floats(-0.05, 0.1),
       name=st.sampled_from(sorted(PRICERS)))
def test_valid_inputs_price_finite_or_raise_two_curve_error(params, T, delta, R, name):
    if name in ("caplet", "floorlet") and not 1.0 + delta * R > 0.0:
        R = 0.0  # CapletSpec refuses 1 + delta R <= 0 with a ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = PRICERS[name](params, T, delta, R)
        except TwoCurveError:
            return
    assert math.isfinite(value), f"{name}: {value}"


# (call on the README parameters, the error it raises, its message)
REFUSALS = {
    "fra-delta": (lambda p: FraSpec(1.0, 0.0, 0.01), ValueError, "delta must be > 0"),
    "caplet-delta": (lambda p: CapletSpec(1.0, -0.5, 0.01), ValueError, "delta must be > 0"),
    "caplet-1+delta*R": (lambda p: CapletSpec(1.0, 0.5, -2.0), ValueError,
                         r"1 \+ delta\*R > 0"),
    "swap-gamma": (lambda p: SwapSpec(0.5, 4, 0.0, 0.01), ValueError, "gamma must be > 0"),
    "fra-R": (lambda p: FraSpec(1.0, 0.5, math.nan), ValueError, "R must be finite"),
    "fra-notional": (lambda p: FraSpec(1.0, 0.5, 0.01, math.inf), ValueError,
                     "notional must be finite"),
    "swap-R": (lambda p: SwapSpec(0.5, 4, 0.25, -math.inf), ValueError, "R must be finite"),
    "swap-notional": (lambda p: SwapSpec(0.5, 4, 0.25, 0.01, math.nan), ValueError,
                      "notional must be finite"),
    "caplet-R": (lambda p: CapletSpec(1.0, 0.5, math.nan), ValueError, "R must be finite"),
    "caplet-notional": (lambda p: CapletSpec(1.0, 0.5, 0.01, math.inf), ValueError,
                        "notional must be finite"),
    "quadrature-nodes": (lambda p: QuadratureConfig(8), ValueError, ">= 16"),
    "quadrature-nodes-float": (lambda p: QuadratureConfig(48.0), ValueError,
                               "n_nodes_per_axis must be an int, got 48.0"),
    "quadrature-refinements-float": (lambda p: QuadratureConfig(max_refinements=2.0), ValueError,
                                     "max_refinements must be an int, got 2.0"),
    "quadrature-refinements-bool": (lambda p: QuadratureConfig(max_refinements=True), ValueError,
                                    "max_refinements must be an int, got True"),
    "swaption-T0": (lambda p: swaption_price(SwaptionSpec(SwapSpec(0.0, 4, 0.25, 0.01)), p),
                    InvalidTimeOrder, "t=0.0, T=0.0"),
    "forward-moments-after-T*": (lambda p: forward_moments(2.0, 1.0, p), InvalidTimeOrder,
                                 "t=2.0, T=1.0"),
    "forward-moments-before-0": (lambda p: forward_moments(-0.5, 1.0, p), InvalidTimeOrder,
                                 "t=0.0, T=-0.5"),
    "inst-forward-after-T": (lambda p: inst_forward(FactorState(1.0, p.psi0), 0.5, p),
                             InvalidTimeOrder, "t=1.0, T=0.5"),
    "inst-forward-curve": (lambda p: inst_forward(_state(p), 1.0, p, "libor"), ValueError,
                           "unknown curve 'libor'"),
    "gaussian-variance": (lambda p: GaussianLaw(0.0, -1.0), ValueError, "variance must be >= 0"),
    "mc-std-error": (lambda p: McEstimate(0.0, -1.0, 1000, 0.0), ValueError,
                     "std_error must be >= 0"),
    "mc-product": (lambda p: mc_price(p, object(), McConfig(1000, 8)), TypeError,
                   "unsupported product type object"),
    # exp(kappa B1 mean + (kappa B1)^2 variance / 2) of psi1 passes the float range
    "adjustment-overflow": (lambda p: adjustment(_state(p), 1.0, 0.5, ModelParams(
        p.b1, p.b2, p.b3, p.sigma1, p.sigma2, p.sigma3, kappa=1e5, psi0=p.psi0)),
        TwoCurveError, r"adjustment factor over \[1.0, 1.5\] overflows"),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_inputs_outside_the_domain_are_refused(params, name):
    call, error, match = REFUSALS[name]
    with pytest.raises(error, match=match):
        call(params)
