"""The benchmark's own reference computations.

Nothing here calls the pricing chain it is used to check: coefficients are
transcribed from the model's ODEs, forward-measure moments come from their
linear ODEs solved by Gauss-Legendre quadrature, bonds are integrated from
instantaneous forwards, and the caplet is a direct 3-D quadrature of the raw
discounted payoff.  Only numpy is used.
"""

from __future__ import annotations

import math

import numpy as np

_GL = {}


def gauss_legendre(n: int):
    if n not in _GL:
        _GL[n] = np.polynomial.legendre.leggauss(n)
    return _GL[n]


def integrate(f, lo, hi, n: int = 48):
    """Gauss-Legendre integral of a vectorised f over [lo, hi]; lo and hi
    may be arrays of the same shape, integrated elementwise."""
    x, w = gauss_legendre(n)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)[..., None]
    pts = 0.5 * (hi + lo)[..., None] + half * x
    return np.sum(half * w * f(pts), axis=-1)


def riccati(tau, b: float, sigma: float):
    """C(t, t+tau) solving dC/dt = 2bC + 2 sigma^2 C^2 - 1, C(T, T) = 0."""
    h = math.sqrt(4.0 * b * b + 8.0 * sigma * sigma)
    e = np.expm1(h * np.asarray(tau, dtype=float))
    return 2.0 * e / (2.0 * h + (2.0 * b + h) * e)


def b_linear(tau, b: float):
    """B(t, t+tau) solving dB/dt = bB - 1, B(T, T) = 0."""
    return -np.expm1(-b * np.asarray(tau, dtype=float)) / b


def bond_exponent(tau: float, p, libor: bool):
    """(A, B1, C22, C33) of the OIS (or Libor) bond over a span tau.

    dA/dt = -(sigma2^2 C22 [+ sigma3^2 C33] - (1/2) sigma1^2 B1^2), so A is
    the integral of that drift over the remaining life.
    """
    kp = (1.0 + p.kappa) if libor else 1.0

    def drift(u):
        out = p.sigma2 ** 2 * riccati(u, p.b2, p.sigma2) - 0.5 * (
            p.sigma1 * kp * b_linear(u, p.b1)) ** 2
        if libor:
            out = out + p.sigma3 ** 2 * riccati(u, p.b3, p.sigma3)
        return out

    a = float(integrate(drift, 0.0, tau, 64)) if tau > 0.0 else 0.0
    c33 = float(riccati(tau, p.b3, p.sigma3)) if libor else 0.0
    return a, kp * float(b_linear(tau, p.b1)), float(riccati(tau, p.b2, p.sigma2)), c33


def bond_from_forwards(inst_forward, state, T: float, params, curve: str) -> float:
    """exp(-integral of the instantaneous forward over [t, T]), by 32-point
    Gauss-Legendre; inst_forward is the library function under test."""
    if T <= state.t:
        return 1.0
    x, w = gauss_legendre(32)
    half = 0.5 * (T - state.t)
    mid = 0.5 * (T + state.t)
    total = sum(wi * inst_forward(state, mid + half * xi, params, curve) for xi, wi in zip(x, w))
    return math.exp(-half * total)


def forward_law(t: float, t_star: float, p):
    """Means and variances of (psi1, psi2, psi3) at t under the t_star-forward
    measure, started from psi0 at time 0.

    The measure change adds -sigma1^2 B1(u, t_star) to the drift of psi1 and
    -2 sigma2^2 C22(u, t_star) psi2 to that of psi2; psi3 keeps its OU law.
    """
    x1, x2, x3 = p.psi0
    e1 = math.exp(-p.b1 * t)
    m1 = e1 * x1 - p.sigma1 ** 2 * float(integrate(
        lambda u: np.exp(-p.b1 * (t - u)) * b_linear(t_star - u, p.b1), 0.0, t, 64))
    v1 = p.sigma1 ** 2 * -math.expm1(-2.0 * p.b1 * t) / (2.0 * p.b1)

    def decay(s):
        # integral of lambda(u) = b2 + 2 sigma2^2 C22(u, t_star) over [s, t]
        s = np.asarray(s, dtype=float)
        extra = integrate(lambda u: riccati(t_star - u, p.b2, p.sigma2), s, np.full_like(s, t), 64)
        return p.b2 * (t - s) + 2.0 * p.sigma2 ** 2 * extra

    m2 = x2 * math.exp(-float(decay(np.array(0.0))))
    v2 = p.sigma2 ** 2 * float(integrate(lambda s: np.exp(-2.0 * decay(s)), 0.0, t, 64))
    m3 = math.exp(-p.b3 * t) * x3
    v3 = p.sigma3 ** 2 * -math.expm1(-2.0 * p.b3 * t) / (2.0 * p.b3)
    return (m1, m2, m3), (v1, v2, v3)


def caplet_3d(T: float, delta: float, R: float, p, n: int = 96, trunc: float = 8.0) -> float:
    """p(0, T+delta) * E^{T+delta}[(1/pbar(T, T+delta) - (1 + delta R))^+]
    by tensor Gauss-Legendre over (x, y, z) on +/- trunc standard deviations.

    For each (y, z) the payoff kinks at one x, so the x-axis is integrated
    from that point only and every panel is smooth.
    """
    a_bar, kb, c22, c33 = bond_exponent(delta, p, libor=True)
    a0, b0, c0, _ = bond_exponent(T + delta, p, libor=False)
    x1, x2, _ = p.psi0
    p0 = math.exp(-a0 - b0 * x1 - c0 * x2 * x2)
    (m1, m2, m3), (v1, v2, v3) = forward_law(T, T + delta, p)
    s1, s2, s3 = math.sqrt(v1), math.sqrt(v2), math.sqrt(v3)
    rt = 1.0 + delta * R
    gx, gw = gauss_legendre(n)

    def axis(m, s):
        pts = m + trunc * s * gx
        dens = np.exp(-0.5 * ((pts - m) / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
        return pts, trunc * s * gw * dens

    ys, wy = axis(m2, s2)
    zs, wz = axis(m3, s3)
    base = a_bar + c22 * ys[:, None] ** 2 + c33 * zs[None, :] ** 2  # (y, z)
    lo, hi = m1 - trunc * s1, m1 + trunc * s1
    if kb > 0.0:
        a = np.clip((math.log(rt) - base) / kb, lo, hi)
        b = np.full_like(a, hi)
    else:
        a = np.full_like(base, lo)
        b = np.clip((math.log(rt) - base) / kb, lo, hi)
    half = 0.5 * (b - a)
    xs = 0.5 * (a + b)[..., None] + half[..., None] * gx  # (y, z, x)
    dens = np.exp(-0.5 * ((xs - m1) / s1) ** 2) / (s1 * math.sqrt(2.0 * math.pi))
    payoff = np.maximum(np.exp(base[..., None] + kb * xs) - rt, 0.0)
    inner = half * np.sum(gw * dens * payoff, axis=-1)
    return p0 * float(wy @ inner @ wz)
