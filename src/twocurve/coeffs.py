"""Term-structure coefficient functions A, Abar, B1, C22, C33bar.

Bond prices are exponentials of quadratic forms in the factors; the
coefficients below solve scalar Riccati / linear ODEs in t with zero
boundary values at t = T and depend on (t, T) only through tau = T - t:

    dC/dt = 2 b C + 2 sigma^2 C^2 - 1,   C(T, T) = 0     (C22, C33bar)
    dB/dt = b B - 1,                     B(T, T) = 0     (B1; B1bar = (1+kappa) B1)
    dA/dt = -(sigma2^2 C22 - 1/2 sigma1^2 B1^2),  A(T, T) = 0

Every coefficient is closed form; A and Abar integrate the Riccati
solutions (riccati_integral) and B1^2 (b1_sq_integral).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .errors import InvalidTimeOrder
from .model import ModelParams

__all__ = [
    "CoeffBundle",
    "c22",
    "c33_bar",
    "b1",
    "b1_bar",
    "a_pair",
    "a_tilde",
    "bundle",
    "c22_dT",
    "c33_bar_dT",
    "b1_dT",
    "b1_sq_integral",
    "riccati_integral",
]

def _check_order(t: float, T: float) -> float:
    tau = T - t
    # also false for a NaN or infinite t or T
    if not 0.0 <= tau < math.inf:
        raise InvalidTimeOrder(t, T)
    return tau


def _h(b: float, sigma: float) -> float:
    return math.sqrt(4.0 * b * b + 8.0 * sigma * sigma)


def _riccati_closed(tau: float, b: float, sigma: float) -> float:
    # 2(e^{tau h} - 1) / (2h + (2b + h)(e^{tau h} - 1)),  h = sqrt(4b^2 + 8 sigma^2),
    # divided through by e^{tau h} so that nothing overflows at long horizons:
    # 2m / ((2b - h) m - 2h) with m = e^{-tau h} - 1
    h = _h(b, sigma)
    m = math.expm1(-tau * h)
    return 2.0 * m / ((2.0 * b - h) * m - 2.0 * h)


def riccati_integral(tau: float, b: float, sigma: float) -> float:
    """Integral of the Riccati solution C(s) over s in [0, tau].

    Linearising C = w' / (2 sigma^2 w) with w(0) = 1, w'(0) = 0 gives
    w(tau) = e^{r1 tau} (1 + (r1/h) expm1(-h tau)), r1 = -b + h/2, so the
    integral is log(w) / (2 sigma^2).  r1 is formed as 2 sigma^2 q with
    q = 1 / (b + h/2), which keeps the sigma -> 0 limit exact.
    """
    h = _h(b, sigma)
    q = 2.0 / (2.0 * b + h)
    em = math.expm1(-h * tau)
    x = 2.0 * sigma * sigma * q * em / h  # (r1/h) expm1(-h tau), in (-1/2, 0]
    return q * tau + q * em / h * (math.log1p(x) / x if x else 1.0)


def c22(t: float, T: float, params: ModelParams) -> float:
    """Quadratic coefficient on psi2^2 in the OIS (and Libor) bond exponent."""
    tau = _check_order(t, T)
    return _riccati_closed(tau, params.b2, params.sigma2)


def c33_bar(t: float, T: float, params: ModelParams) -> float:
    """Quadratic coefficient on psi3^2 in the Libor bond exponent."""
    tau = _check_order(t, T)
    return _riccati_closed(tau, params.b3, params.sigma3)


def b1(t: float, T: float, params: ModelParams) -> float:
    """Linear coefficient on psi1 in the OIS bond exponent."""
    tau = _check_order(t, T)
    return -math.expm1(-params.b1 * tau) / params.b1


def b1_bar(t: float, T: float, params: ModelParams) -> float:
    """Linear coefficient on psi1 in the Libor bond exponent: (1+kappa)*B1."""
    return (1.0 + params.kappa) * b1(t, T, params)


def c22_dT(t: float, T: float, params: ModelParams) -> float:
    """d/dT of c22, read off the Riccati equation (the coefficient depends on
    T - t only, so the T-derivative is minus the t-derivative)."""
    c = c22(t, T, params)
    return 1.0 - 2.0 * params.b2 * c - 2.0 * params.sigma2 ** 2 * c * c


def c33_bar_dT(t: float, T: float, params: ModelParams) -> float:
    c = c33_bar(t, T, params)
    return 1.0 - 2.0 * params.b3 * c - 2.0 * params.sigma3 ** 2 * c * c


def b1_dT(t: float, T: float, params: ModelParams) -> float:
    return math.exp(-params.b1 * (T - t))


def b1_sq_integral(t: float, T: float, params: ModelParams) -> float:
    """Closed form of the integral of B1(u, T)^2 over u in [t, T]."""
    tau = _check_order(t, T)
    b = params.b1
    btau = b1(t, T, params)
    return (tau - 2.0 * btau - math.expm1(-2.0 * b * tau) / (2.0 * b)) / (b * b)


def _a_integrands(params: ModelParams) -> tuple[Callable[[float], float], Callable[[float], float]]:
    s1sq, s2sq, s3sq = params.sigma1 ** 2, params.sigma2 ** 2, params.sigma3 ** 2
    kp1sq = (1.0 + params.kappa) ** 2

    def f_a(tau: float) -> float:
        bb = -math.expm1(-params.b1 * tau) / params.b1
        return s2sq * _riccati_closed(tau, params.b2, params.sigma2) - 0.5 * s1sq * bb * bb

    def f_abar(tau: float) -> float:
        bb = -math.expm1(-params.b1 * tau) / params.b1
        return (
            s2sq * _riccati_closed(tau, params.b2, params.sigma2)
            + s3sq * _riccati_closed(tau, params.b3, params.sigma3)
            - 0.5 * s1sq * kp1sq * bb * bb
        )

    return f_a, f_abar


def a_pair(t: float, T: float, params: ModelParams) -> tuple[float, float]:
    """(A, Abar) at (t, T): the integrals over [t, T] of the integrands in
    _a_integrands, term by term in closed form."""
    tau = _check_order(t, T)
    a2 = params.sigma2 ** 2 * riccati_integral(tau, params.b2, params.sigma2)
    a3 = params.sigma3 ** 2 * riccati_integral(tau, params.b3, params.sigma3)
    a1 = 0.5 * params.sigma1 ** 2 * b1_sq_integral(t, T, params)
    return a2 - a1, a2 + a3 - (1.0 + params.kappa) ** 2 * a1


def a_tilde(t: float, T: float, params: ModelParams) -> float:
    """Atilde = Abar - A, the log-level discrepancy between the two curves."""
    a, abar = a_pair(t, T, params)
    return abar - a


def a_dT(t: float, T: float, params: ModelParams) -> float:
    """d/dT of A: the integrand depends on T - u only, so this is the integrand
    evaluated at tau = T - t."""
    tau = _check_order(t, T)
    return _a_integrands(params)[0](tau)


def a_bar_dT(t: float, T: float, params: ModelParams) -> float:
    tau = _check_order(t, T)
    return _a_integrands(params)[1](tau)


@dataclass(frozen=True)
class CoeffBundle:
    """All term-structure coefficients evaluated at a single (t, T)."""

    t: float
    T: float
    A: float
    A_bar: float
    A_tilde: float
    B1: float
    B1_bar: float
    C22: float
    C33_bar: float


@lru_cache(maxsize=4096)
def _bundle_cached(t: float, T: float, params: ModelParams) -> CoeffBundle:
    a, abar = a_pair(t, T, params)
    bb = b1(t, T, params)
    return CoeffBundle(
        t=t,
        T=T,
        A=a,
        A_bar=abar,
        A_tilde=abar - a,
        B1=bb,
        B1_bar=(1.0 + params.kappa) * bb,
        C22=c22(t, T, params),
        C33_bar=c33_bar(t, T, params),
    )


def bundle(t: float, T: float, params: ModelParams) -> CoeffBundle:
    """Memoized coefficient bundle; results are bit-identical to the direct
    evaluations (the cache is a transparent layer)."""
    _check_order(t, T)
    return _bundle_cached(float(t), float(T), params)
