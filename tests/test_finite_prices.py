"""Property: any valid parameters and finite horizons give a finite price or
a TwoCurveError, never a bare OverflowError, a NaN or a numpy warning."""

import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from twocurve import (
    CapletSpec,
    FactorState,
    FraSpec,
    ModelParams,
    QuadratureConfig,
    SwapSpec,
    SwaptionSpec,
    TwoCurveError,
    caplet_price,
    fair_fra_rate,
    fair_swap_rate,
    floorlet_price,
    fra_price,
    libor_bond,
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
