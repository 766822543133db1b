"""OIS and Libor bond prices and instantaneous forward rates.

    p(t, T)    = exp[-A - B1*psi1 - C22*psi2^2]
    pbar(t, T) = exp[-Abar - (1+kappa)*B1*psi1 - C22*psi2^2 - C33bar*psi3^2]
               = p(t, T) * exp[-Atilde - kappa*B1*psi1 - C33bar*psi3^2]

Forward rates f(t, T) = -d/dT log p(t, T) are fully analytic: the
T-derivatives of B1, C22, C33bar follow from their ODEs and the
T-derivative of A is its integrand evaluated at T - t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from . import coeffs
from .errors import InvalidTimeOrder, TwoCurveError
from .model import FactorState, ModelParams

__all__ = ["BondQuote", "ois_bond", "libor_bond", "libor_bond_via_ois", "inst_forward"]

Curve = Literal["OIS", "LIBOR"]


def _bond_value(log_value: float, t: float, T: float, curve: Curve) -> float:
    try:
        return math.exp(log_value)
    except OverflowError:
        raise TwoCurveError(
            f"{curve} bond over [{t}, {T}] = exp({log_value:.6g}) overflows") from None


@dataclass(frozen=True)
class BondQuote:
    t: float
    T: float
    value: float
    curve: Curve


def ois_bond(state: FactorState, T: float, params: ModelParams) -> BondQuote:
    """Price of the OIS discount bond p(t, T) at the given factor state."""
    cb = coeffs.bundle(state.t, T, params)
    p1, p2, _ = state.psi
    value = _bond_value(-cb.A - cb.B1 * p1 - cb.C22 * p2 * p2, state.t, T, "OIS")
    return BondQuote(t=state.t, T=T, value=value, curve="OIS")


def libor_bond(state: FactorState, T: float, params: ModelParams) -> BondQuote:
    """Price of the fictitious Libor bond pbar(t, T)."""
    cb = coeffs.bundle(state.t, T, params)
    p1, p2, p3 = state.psi
    value = _bond_value(
        -cb.A_bar - cb.B1_bar * p1 - cb.C22 * p2 * p2 - cb.C33_bar * p3 * p3,
        state.t, T, "LIBOR")
    return BondQuote(t=state.t, T=T, value=value, curve="LIBOR")


def libor_bond_via_ois(state: FactorState, T: float, params: ModelParams) -> BondQuote:
    """pbar(t, T) through the multiplicative decomposition off the OIS bond.

    Must agree with libor_bond to floating-point accuracy; kept as an
    independent route for identity checks.
    """
    cb = coeffs.bundle(state.t, T, params)
    p1, _, p3 = state.psi
    base = ois_bond(state, T, params).value
    value = base * math.exp(
        -cb.A_tilde - params.kappa * cb.B1 * p1 - cb.C33_bar * p3 * p3
    )
    return BondQuote(t=state.t, T=T, value=value, curve="LIBOR")


def inst_forward(state: FactorState, T: float, params: ModelParams, curve: Curve = "OIS") -> float:
    """Instantaneous forward rate -d/dT log bond(t, T) for the chosen curve.

    At T = t this returns the short rate (OIS) or short rate + spread (LIBOR).
    """
    if state.t > T:
        raise InvalidTimeOrder(state.t, T)
    t = state.t
    p1, p2, p3 = state.psi
    db1 = coeffs.b1_dT(t, T, params)
    dc22 = coeffs.c22_dT(t, T, params)
    if curve == "OIS":
        return coeffs.a_dT(t, T, params) + db1 * p1 + dc22 * p2 * p2
    if curve == "LIBOR":
        dc33 = coeffs.c33_bar_dT(t, T, params)
        return (
            coeffs.a_bar_dT(t, T, params)
            + (1.0 + params.kappa) * db1 * p1
            + dc22 * p2 * p2
            + dc33 * p3 * p3
        )
    raise ValueError(f"unknown curve {curve!r}")
