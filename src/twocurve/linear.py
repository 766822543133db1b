"""Linear derivatives: FRAs, the single-to-multi-curve adjustment factor,
and the payer swap pricer.

The multi-curve FRA quantity vbar (forward expectation of 1/pbar over the
accrual period) factors as

    vbar = v * Ad * Res

with v the classical single-curve bond ratio, Ad the expectation of
p/pbar at inception, and Res a deterministic residual.

The swap pricer evaluates, for each period k, the forward-measure
expectation of 1/pbar(T_{k-1}, T_k) through exponential-quadratic
expectation coefficients (rho_i, Gamma_i), all in closed form.  The
expectation horizon is the fixing date T_{k-1} (the factor values that set
the Libor rate); measure-change drifts are those of the payment-date
forward measure Q^{T_k}.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from . import coeffs
from .curves import _bond_value, ois_bond
from .errors import ExpectationSingularity, InvalidTimeOrder, TwoCurveError
from .measures import (_exp_quadratic, _ou_moments, _psi1_drift, gaussian_exp_quadratic,
                       q_conditional_law)
from .model import FactorState, ModelParams

__all__ = [
    "FraSpec",
    "SwapSpec",
    "ExpectationCoeffs",
    "v_single",
    "adjustment",
    "residual",
    "v_multi",
    "fra_price",
    "fair_fra_rate",
    "expectation_coeffs",
    "swap_price",
    "swap_price_via_fras",
    "fair_swap_rate",
    "swap_annuity",
]

# periods of a swap, swaption or cap: a swaption's exercise-set scan takes
# about 9 KiB a period, and from 8192 periods on a block of the option
# kernel holds one node
_MAX_PERIODS = 4096


def _require_finite_terms(spec) -> None:
    """Refuse a spec whose fixed rate or notional is NaN or infinite: every
    price of it would be NaN or infinite."""
    for name in ("R", "notional"):
        value = getattr(spec, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class FraSpec:
    """Forward rate agreement: fixing at T, accrual delta, fixed rate R."""

    T: float
    delta: float
    R: float
    notional: float = 1.0

    def __post_init__(self):
        if self.delta <= 0.0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        _require_finite_terms(self)


@dataclass(frozen=True)
class SwapSpec:
    """Payer swap: first reset T0, n periods of length gamma, fixed rate R.

    Libor fixes in advance at T_{k-1} and both legs pay in arrears at
    T_k = T0 + k*gamma.
    """

    T0: float
    n: int
    gamma: float
    R: float
    notional: float = 1.0

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ValueError(f"n must be an int, got {self.n!r}")
        if not 1 <= self.n <= _MAX_PERIODS:
            raise ValueError(f"n must be in [1, {_MAX_PERIODS}], got {self.n}")
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        _require_finite_terms(self)

    def pay_date(self, k: int) -> float:
        return self.T0 + k * self.gamma

    def fix_date(self, k: int) -> float:
        return self.T0 + (k - 1) * self.gamma


@dataclass(frozen=True)
class ExpectationCoeffs:
    """Coefficients of exp[Gamma_i - rho_i * psi_i(^2)] for the three
    per-period expectations of the swap pricer, evaluated at time t."""

    rho1: float
    rho2: float
    rho3: float
    gamma1: float
    gamma2: float
    gamma3: float
    k: int


def v_single(state: FactorState, T: float, delta: float, params: ModelParams) -> float:
    """Single-curve quantity v = p(t, T) / p(t, T + delta)."""
    if state.t > T:
        raise InvalidTimeOrder(state.t, T)
    p_end = ois_bond(state, T + delta, params).value
    # a subnormal bond has lost digits, and 0 has lost them all
    if p_end < sys.float_info.min:
        raise TwoCurveError(f"p({state.t}, {T + delta}) = {p_end} underflows: no bond ratio v")
    return ois_bond(state, T, params).value / p_end


def adjustment(state: FactorState, T: float, delta: float, params: ModelParams) -> float:
    """Adjustment factor Ad = E[p(T, T+delta) / pbar(T, T+delta) | F_t].

    Closed form: exp(Atilde) times a Gaussian MGF in psi1 and an
    exponential-quadratic expectation in psi3, both over [t, T].
    """
    if state.t > T:
        raise InvalidTimeOrder(state.t, T)
    at = coeffs.a_tilde(T, T + delta, params)
    b1p = coeffs.b1(T, T + delta, params)
    c33p = coeffs.c33_bar(T, T + delta, params)
    law1 = q_conditional_law(1, state.t, T, state, params)
    a = params.kappa * b1p
    law3 = q_conditional_law(3, state.t, T, state, params)
    e_quad = gaussian_exp_quadratic(law3, c33p)
    try:
        e_lin = math.exp(a * law1.mean + 0.5 * a * a * law1.variance)
        return math.exp(at) * e_lin * e_quad
    except OverflowError:
        raise TwoCurveError(f"the adjustment factor over [{T}, {T + delta}] overflows") from None


def residual(t: float, T: float, delta: float, params: ModelParams) -> float:
    """Deterministic residual factor of the vbar = v * Ad * Res decomposition:
    exp(-1/2 kappa sigma1^2 B1(T, T+delta) B1(t, T)^2)."""
    b_tau = coeffs.b1(t, T, params)
    return math.exp(
        -0.5 * params.kappa * params.sigma1 ** 2 * coeffs.b1(T, T + delta, params) * b_tau * b_tau
    )


def v_multi(state: FactorState, T: float, delta: float, params: ModelParams) -> float:
    """Multi-curve quantity vbar = v * Ad * Res."""
    return (
        v_single(state, T, delta, params)
        * adjustment(state, T, delta, params)
        * residual(state.t, T, delta, params)
    )


def fra_price(state: FactorState, spec: FraSpec, params: ModelParams) -> float:
    """Price of the FRA: N * p(t, T+delta) * (vbar - (1 + delta*R))."""
    vbar = v_multi(state, spec.T, spec.delta, params)
    p = ois_bond(state, spec.T + spec.delta, params).value
    return spec.notional * p * (vbar - (1.0 + spec.delta * spec.R))


def fair_fra_rate(state: FactorState, T: float, delta: float, params: ModelParams) -> float:
    """Fixed rate making the FRA costless: (vbar - 1) / delta."""
    return (v_multi(state, T, delta, params) - 1.0) / delta


def expectation_coeffs(
    t: float, k: int, swap: SwapSpec, params: ModelParams
) -> ExpectationCoeffs:
    """(rho_i, Gamma_i) for period k of the swap, evaluated at time t.

    Boundary values at t = T_{k-1}: rho1 = -(1+kappa)*B1_k,
    rho2 = -C22_k, rho3 = -C33bar_k, Gamma_i = 0.  Away from the boundary
    every coefficient is closed form (tau = T_{k-1} - t):

    - rho1 and Gamma1 are the Gaussian MGF of psi1 over the OU transition of
      length tau, its mean shifted by the T_k-forward drift
      (measures._psi1_drift);
    - rho2(t) = C22(t, T_{k-1}) - C22(t, T_k) solves the rho2 Riccati, and
      Gamma2 is -sigma2^2 times its time-integral, read off riccati_integral;
    - rho3 and Gamma3 are the Gaussian expectation of exp(C33bar_k psi3^2)
      over the OU transition of length tau (measures._exp_quadratic), whose
      pole raises ExpectationSingularity.
    """
    t_fix = swap.fix_date(k)
    t_pay = swap.pay_date(k)
    if t > t_fix:
        raise InvalidTimeOrder(t, t_fix)
    tau = t_fix - t
    cb_k = coeffs.bundle(t_fix, t_pay, params)
    c33_k, kb = cb_k.C33_bar, cb_k.B1_bar

    m1, v1 = _ou_moments(1.0, params.b1, params.sigma1, tau)
    rho1 = -kb * m1
    gamma1 = kb * (0.5 * kb * v1 - params.sigma1 ** 2 * _psi1_drift(tau, t_pay - t_fix, params.b1))

    rho2 = coeffs.c22(t, t_fix, params) - coeffs.c22(t, t_pay, params)
    b2_, s2_ = params.b2, params.sigma2
    gamma2 = -s2_ * s2_ * (
        coeffs.riccati_integral(tau, b2_, s2_)
        - coeffs.riccati_integral(t_pay - t, b2_, s2_)
        + coeffs.riccati_integral(t_pay - t_fix, b2_, s2_)
    )

    # the law of psi3(T_{k-1}) from psi3(t) = 1: q3 scales as psi3(t)^2
    q3, d3 = _exp_quadratic(*_ou_moments(1.0, params.b3, params.sigma3, tau), c33_k,
                            lambda d: ExpectationSingularity(
                                f"rho3 pole inside [{t}, {t_fix}]: psi3 expectation is infinite"))
    rho3, gamma3 = -q3, -0.5 * math.log(d3)
    return ExpectationCoeffs(rho1, rho2, rho3, gamma1, gamma2, gamma3, k)


def _period_row(t: float, k: int, swap: SwapSpec, params: ModelParams) -> tuple:
    """Period k's exponents at t, (log d0, A, B1+rho1, C22+rho2, rho3, B1, C22):
    p(t,T_k) = exp(-A - B1 psi1 - C22 psi2^2), and p(t,T_k) E^{T_k}[1/pbar(T_{k-1},T_k)]
    = d0 exp(-A - (B1+rho1) psi1 - (C22+rho2) psi2^2 - rho3 psi3^2)."""
    t_pay = swap.pay_date(k)
    cb = coeffs.bundle(t, t_pay, params)
    a_bar_k = coeffs.bundle(swap.fix_date(k), t_pay, params).A_bar
    ec = expectation_coeffs(t, k, swap, params)
    return (a_bar_k + ec.gamma1 + ec.gamma2 + ec.gamma3, cb.A, cb.B1 + ec.rho1,
            cb.C22 + ec.rho2, ec.rho3, cb.B1, cb.C22)


def swap_price(state: FactorState, swap: SwapSpec, params: ModelParams) -> float:
    """Payer swap price at t <= T0 via the per-period expectation coefficients."""
    if state.t > swap.T0:
        raise InvalidTimeOrder(state.t, swap.T0)
    p1, p2, p3 = state.psi
    total = 0.0
    rg1 = swap.R * swap.gamma + 1.0
    for k in range(1, swap.n + 1):
        log_d0, a, b1t, c22t, rho3, b1, c22 = _period_row(state.t, k, swap, params)
        try:
            float_term = math.exp(log_d0 - a - b1t * p1 - c22t * p2 * p2 - rho3 * p3 * p3)
        except OverflowError:
            raise ExpectationSingularity(
                f"period {k}: the psi3 expectation overflows next to the rho3 pole "
                f"(rho3 = {rho3})"
            ) from None
        total += float_term - rg1 * _bond_value(-a - b1 * p1 - c22 * p2 * p2, state.t,
                                                swap.pay_date(k), "OIS")
    return swap.notional * total


def swap_price_via_fras(state: FactorState, swap: SwapSpec, params: ModelParams) -> float:
    """Independent route: assemble the swap from per-period multi-curve FRA
    quantities, each under its own payment-date forward measure."""
    if state.t > swap.T0:
        raise InvalidTimeOrder(state.t, swap.T0)
    total = 0.0
    rg1 = swap.R * swap.gamma + 1.0
    for k in range(1, swap.n + 1):
        vbar = v_multi(state, swap.fix_date(k), swap.gamma, params)
        p_k = ois_bond(state, swap.pay_date(k), params).value
        total += p_k * (vbar - rg1)
    return swap.notional * total


def swap_annuity(state: FactorState, swap: SwapSpec, params: ModelParams) -> float:
    """gamma * sum_k p(t, T_k): the slope of the swap price in -R."""
    return swap.gamma * sum(
        ois_bond(state, swap.pay_date(k), params).value for k in range(1, swap.n + 1)
    )


def fair_swap_rate(state: FactorState, swap: SwapSpec, params: ModelParams) -> float:
    """Fixed rate at which the swap prices to zero (the price is affine in R)."""
    zero_spec = SwapSpec(swap.T0, swap.n, swap.gamma, 0.0, 1.0)
    price_at_zero = swap_price(state, zero_spec, params)
    annuity = swap_annuity(state, swap, params)
    if annuity < sys.float_info.min:
        raise TwoCurveError(f"the annuity {annuity} underflows at T0 = {swap.T0}: no fair rate")
    return price_at_zero / annuity
