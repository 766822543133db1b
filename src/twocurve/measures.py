"""Forward-measure machinery.

Under the T*-forward measure (OIS bond p(., T*) as numeraire) the factors
stay Gaussian but factors 1 and 2 pick up measure-change drifts:

    dpsi1 = -[b1*psi1 + sigma1^2 * B1(u, T*)] du + sigma1 dw1*
    dpsi2 = -[b2 + 2*sigma2^2*C22(u, T*)] psi2 du + sigma2 dw2*
    dpsi3 = -b3*psi3 du + sigma3 dw3*

forward_moments solves the induced linear mean/variance ODEs in closed
form: factor 1 is an OU process shifted by its drift (_psi1_drift), and
factor 2's time-dependent mean reversion integrates through the
linearisation C22 = w'/(2 sigma2^2 w) of its Riccati equation.  Factor 3 is
an unchanged OU process with textbook moments.  E[exp(c Z^2)], its pole and
its tilted law are written once, in _exp_quadratic, for every pricer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import coeffs
from .errors import InvalidTimeOrder, MomentExplosion
from .model import FactorState, ModelParams

__all__ = [
    "ForwardMoments",
    "GaussianLaw",
    "forward_moments",
    "q_conditional_law",
    "gaussian_exp_quadratic",
]


@dataclass(frozen=True)
class ForwardMoments:
    """Mean (alpha) and variance (beta) of each factor at time t under the
    T*-forward measure, started from psi0 at time 0."""

    t: float
    T_star: float
    alpha: tuple[float, float, float]
    beta: tuple[float, float, float]


@dataclass(frozen=True)
class GaussianLaw:
    mean: float
    variance: float

    def __post_init__(self):
        if self.variance < 0.0:
            raise ValueError(f"variance must be >= 0, got {self.variance}")


def _ou_moments(psi: float, b: float, sigma: float, tau: float) -> tuple[float, float]:
    mean = math.exp(-b * tau) * psi
    var = sigma * sigma * -math.expm1(-2.0 * b * tau) / (2.0 * b)
    return mean, var


def _psi1_drift(tau: float, delta: float, b: float) -> float:
    """Integral over s in [0, tau] of e^{-b s} B(s + delta), B(x) = (1 - e^{-b x}) / b;
    times -sigma1^2 (b = b1), the shift of psi1's T*-forward mean over
    [T* - delta - tau, T* - delta].  B(s + delta) = B(delta) + e^{-b delta} B(s)
    makes it B(delta) B(tau) + e^{-b delta} B(tau)^2 / 2: no division by b
    beyond B's own."""
    b_tau, b_delta = -math.expm1(-b * tau) / b, -math.expm1(-b * delta) / b
    return b_tau * (b_delta + 0.5 * math.exp(-b * delta) * b_tau)


def forward_moments(t: float, T_star: float, params: ModelParams) -> ForwardMoments:
    """Moments of (psi1, psi2, psi3) at time t under the T*-forward measure;
    psi1's mean carries the drift of _psi1_drift, exact down to b1 -> 0."""
    if t > T_star:
        raise InvalidTimeOrder(t, T_star)
    if t < 0.0:
        raise InvalidTimeOrder(0.0, t)
    p1, p2, p3 = params.psi0
    a3, b3v = _ou_moments(p3, params.b3, params.sigma3, t)
    m1, be1 = _ou_moments(p1, params.b1, params.sigma1, t)
    a1 = m1 - params.sigma1 ** 2 * _psi1_drift(t, T_star - t, params.b1)

    # factor 2: mean reversion b2 + 2 sigma2^2 C22(u, T*).  With
    # C = w'/(2 sigma2^2 w), w(tau) = e^{r1 tau} g(tau) and
    # g(tau) = 1 + (r1/h) expm1(-h tau), both moments reduce to g(T* - t)/g(T*).
    b2_, s2_ = params.b2, params.sigma2
    h = coeffs._h(b2_, s2_)
    r1_h = 2.0 * s2_ * s2_ / ((b2_ + 0.5 * h) * h)
    ratio = (1.0 + r1_h * math.expm1(-h * (T_star - t))) / (
        1.0 + r1_h * math.expm1(-h * T_star)
    )
    a2 = p2 * math.exp(-0.5 * h * t) * ratio
    be2 = s2_ * s2_ * -math.expm1(-h * t) / h * ratio
    return ForwardMoments(t, T_star, (a1, a2, a3), (be1, be2, b3v))


def q_conditional_law(
    i: int, t: float, T: float, state: FactorState, params: ModelParams
) -> GaussianLaw:
    """Law of factor i at T given its value at t under the risk-neutral
    measure: a plain OU transition."""
    if t > T:
        raise InvalidTimeOrder(t, T)
    mean, var = _ou_moments(state.psi[i - 1], params.b(i), params.sigma(i), T - t)
    return GaussianLaw(mean=mean, variance=var)


def _exp_quadratic(mean: float, variance: float, c: float, error) -> tuple[float, float]:
    """E[exp(c Z^2)] for Z ~ N(mean, variance) as (q, d), E = exp(q) / sqrt(d):
    d = 1 - 2 c variance and q = c mean^2 / d.  The tilted law
    exp(c Z^2) N(mean, variance) / E is N(mean / d, variance / d).  E is
    finite iff d > 0; otherwise raises error(d)."""
    d = 1.0 - 2.0 * c * variance
    if not d > 0.0:
        raise error(d)
    return c * mean * mean / d, d


def gaussian_exp_quadratic(law: GaussianLaw, c: float) -> float:
    """E[exp(c Z^2)] for Z ~ N(mean, variance), by _exp_quadratic.

    Finite iff 1 - 2*c*variance > 0; otherwise, and where the finite value
    overflows a float next to that pole, raises MomentExplosion rather than
    silently truncating.
    """
    q, d = _exp_quadratic(law.mean, law.variance, c, lambda d: MomentExplosion(
        f"E[exp(c Z^2)] diverges: c={c}, variance={law.variance}"))
    try:
        return math.exp(q - 0.5 * math.log(d))
    except OverflowError:
        raise MomentExplosion(
            f"E[exp(c Z^2)] overflows: c={c}, mean={law.mean}, variance={law.variance}"
        ) from None
