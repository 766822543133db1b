import dataclasses
import math

import numpy as np
import pytest

from twocurve import (
    CapletSpec,
    FactorState,
    FraSpec,
    InvalidTimeOrder,
    caplet_price,
    fra_price,
    inst_forward,
    libor_bond,
    libor_bond_via_ois,
    ois_bond,
    short_rate,
    spread,
)
from oracles import fd_forward, simpson_adaptive
from conftest import random_params


def test_unit_price_at_maturity(params):
    s = FactorState(1.3, (0.02, -0.01, 0.04))
    assert ois_bond(s, 1.3, params).value == 1.0
    assert libor_bond(s, 1.3, params).value == 1.0


@pytest.mark.parametrize("T", [math.inf, math.nan, -math.inf])
def test_non_finite_maturity_rejected(params, state, T):
    # the coefficient layer refuses the times instead of pricing a silent NaN
    with pytest.raises(InvalidTimeOrder):
        ois_bond(state, T, params)
    with pytest.raises(InvalidTimeOrder):
        libor_bond(state, T, params)
    with pytest.raises(InvalidTimeOrder):
        fra_price(state, FraSpec(T, 0.5, 0.01), params)
    with pytest.raises(InvalidTimeOrder):
        caplet_price(CapletSpec(T, 0.5, 0.01), params)


@pytest.mark.parametrize("T", [80.0, 1e300])
def test_bonds_finite_at_long_horizons(params, state, T):
    # with b3 = 5 the Riccati exponent tau*h passes 709, where e^{tau h}
    # overflows, before T = 80
    p = dataclasses.replace(params, b3=5.0)
    for bond in (ois_bond, libor_bond):
        assert 0.0 <= bond(state, T, p).value < math.inf


def test_libor_below_ois_price(params, state):
    # positive spread exponent makes the fictitious bond cheaper
    for T in (0.5, 2.0, 5.0):
        assert libor_bond(state, T, params).value < ois_bond(state, T, params).value


def test_two_route_libor_bond():
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = random_params(rng)
        s = FactorState(rng.uniform(0.0, 1.0), tuple(rng.normal(0.0, 0.05, 3)))
        T = s.t + rng.uniform(0.1, 5.0)
        v1 = libor_bond(s, T, p).value
        v2 = libor_bond_via_ois(s, T, p).value
        assert v1 == pytest.approx(v2, rel=1e-12)


def test_forward_at_t_equals_short_rates(params):
    s = FactorState(0.7, (0.015, 0.04, -0.03))
    assert inst_forward(s, s.t, params, "OIS") == pytest.approx(
        short_rate(s, params), abs=1e-10
    )
    assert inst_forward(s, s.t, params, "LIBOR") == pytest.approx(
        short_rate(s, params) + spread(s, params), abs=1e-10
    )


def test_forward_matches_fd_of_log_bond(params):
    s = FactorState(0.0, params.psi0)
    for T in (0.5, 1.5, 4.0):
        assert inst_forward(s, T, params, "OIS") == pytest.approx(
            fd_forward(s, T, params, ois_bond), rel=1e-6, abs=1e-9
        )
        assert inst_forward(s, T, params, "LIBOR") == pytest.approx(
            fd_forward(s, T, params, libor_bond), rel=1e-6, abs=1e-9
        )


def test_bond_reconstruction_from_forwards(params, state):
    for T in (1.0, 3.0):
        integral = simpson_adaptive(
            lambda u: inst_forward(state, u, params, "OIS"), state.t, T
        )
        assert ois_bond(state, T, params).value == pytest.approx(
            math.exp(-integral), rel=1e-9
        )
        integral = simpson_adaptive(
            lambda u: inst_forward(state, u, params, "LIBOR"), state.t, T
        )
        assert libor_bond(state, T, params).value == pytest.approx(
            math.exp(-integral), rel=1e-9
        )


def test_bond_quote_metadata(params, state):
    q = ois_bond(state, 2.0, params)
    assert (q.t, q.T, q.curve) == (0.0, 2.0, "OIS")
    q = libor_bond(state, 2.0, params)
    assert q.curve == "LIBOR"
