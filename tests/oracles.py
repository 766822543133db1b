"""Independent numerical oracles used by the test suite.

Everything here deliberately avoids the production code paths it is used
to validate: the Riccati coefficients are re-solved by brute-force
backward RK4, their ODE residuals taken by fourth-order finite differences,
integrals by composite Simpson with step halving, forward rates by finite
differences of log bond prices, and the caplet by direct
3-D integration of the raw discounted payoff (with the x-axis split at
the payoff kink so Gauss-Legendre converges spectrally).

The quadrature oracles use the plain Gauss-Legendre rule, not the
library's cubic endpoint map (optional._gl_rule), so that they share no
rule with it.  The 3-D caplet needs no map: it splits every x-line at the
kink for each (y, z) node, and the payoff vanishes only linearly there.
The swaption oracle integrates z by nodes outside +/- z2, so each of its
x-panels meets the same slack^{3/2} growth from a cut as the library's
closed-form z-tail and converges like n^-5: about 2e-10 relative at its
default 96 nodes, inside the 1e-7 its tests ask.

The psi1 closed forms (the integral of B1^2, the forward drift and the FRA
residual), the simulator's scaled OU step constants and its exact joint
steps of a factor and its integral have decimal references: each is
evaluated in the textbook form that cancels as b -> 0, at a precision that
grows with the digits the cancellation costs.

Three helpers read the library instead of re-deriving it: simulate_paths
builds a whole three-factor path ensemble with the simulator's substreams
and path builder, for the transition-law tests; simulate_reads draws what
the estimators draw, in their order, and steps psi1 and psi3 one read
interval at a time in a plain loop, so that tests can check the
estimators' reads; and swaption_case classifies a swaption by the signs
of its spread exponents rho3 (_swaption_period_rho3).
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np
from scipy.integrate import quad

from twocurve import InvalidTimeOrder, coeffs, expectation_coeffs, ois_bond
from twocurve.measures import ForwardMoments, forward_moments
from twocurve.model import FactorState
from twocurve.optional import _period_rows
from twocurve.oracle import _block_sizes, _make_grid, _ou_deviation, _step_constants, _substream


def rk4_backward(f, terminal: float, t_hi: float, t_lo: float, n_steps: int) -> float:
    """Integrate y' = f(t, y) backward from y(t_hi) = terminal to t_lo."""
    h = (t_hi - t_lo) / n_steps
    y, t = terminal, t_hi
    for _ in range(n_steps):
        k1 = f(t, y)
        k2 = f(t - 0.5 * h, y - 0.5 * h * k1)
        k3 = f(t - 0.5 * h, y - 0.5 * h * k2)
        k4 = f(t - h, y - h * k3)
        y -= (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t -= h
    return y


def riccati_rk4(b: float, sigma: float, tau: float, n_steps: int = 2000) -> float:
    """C(t, t+tau) for dC/dt = 2bC + 2 sigma^2 C^2 - 1, C(T, T) = 0."""
    return rk4_backward(
        lambda t, c: 2.0 * b * c + 2.0 * sigma * sigma * c * c - 1.0,
        0.0, tau, 0.0, n_steps,
    )


def linear_b_rk4(b: float, tau: float, n_steps: int = 2000) -> float:
    """B(t, t+tau) for dB/dt = b B - 1, B(T, T) = 0."""
    return rk4_backward(lambda t, y: b * y - 1.0, 0.0, tau, 0.0, n_steps)


_ODE_RESIDUALS = {
    # residual(f, f_t) for each ODE, zero when f solves it
    "c22": lambda f, ft, p: ft - 2.0 * p.b2 * f - 2.0 * p.sigma2 ** 2 * f * f + 1.0,
    "c33_bar": lambda f, ft, p: ft - 2.0 * p.b3 * f - 2.0 * p.sigma3 ** 2 * f * f + 1.0,
    "b1": lambda f, ft, p: ft - p.b1 * f + 1.0,
    "b1_bar": lambda f, ft, p: ft - p.b1 * f + 1.0 + p.kappa,
}


def riccati_residual(
    coef_fn,
    ode_id: str,
    t: float,
    T: float,
    params,
    step: float = 1e-3,
) -> float:
    """Magnitude of the ODE residual for coef_fn at interior time t.

    The t-derivative is taken by fourth-order central finite differences, so
    the residual of an exact solution scales as O(step^4).
    """
    if not t < T:
        raise InvalidTimeOrder(t, T)
    h = min(step, (T - t) / 4.0)
    f = coef_fn(t, T, params)
    fm2 = coef_fn(t - 2.0 * h, T, params)
    fm1 = coef_fn(t - h, T, params)
    fp1 = coef_fn(t + h, T, params)
    fp2 = coef_fn(t + 2.0 * h, T, params)
    ft = (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)
    return abs(_ODE_RESIDUALS[ode_id](f, ft, params))


def simpson(f, lo: float, hi: float, n: int = 512) -> float:
    if n % 2:
        n += 1
    xs = np.linspace(lo, hi, n + 1)
    ys = np.array([f(x) for x in xs])
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((hi - lo) / (3.0 * n) * np.dot(w, ys))


def simpson_adaptive(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    n = 64
    prev = simpson(f, lo, hi, n)
    for _ in range(10):
        n *= 2
        cur = simpson(f, lo, hi, n)
        if abs(cur - prev) <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    return prev


def fd_forward(state: FactorState, T: float, params, bond_fn, h: float = 1e-5) -> float:
    """-d/dT log bond via 4th-order central differences of the bond price."""
    vals = [math.log(bond_fn(state, T + k * h, params).value) for k in (-2, -1, 1, 2)]
    return -(-vals[3] + 8.0 * vals[2] - 8.0 * vals[1] + vals[0]) / (12.0 * h)


def caplet_3d_quadrature(caplet, params, n: int = 96, trunc: float = 8.0) -> float:
    """Direct 3-D integration of p(0,T+d) * E[(exp(quadratic) - Rtilde)^+].

    Integrates x innermost: for fixed (y, z) the payoff kinks at a single
    closed-form x*, so each x-panel is smooth.  Independent of the
    production pricer's region/assembly logic.
    """
    T, delta = caplet.T, caplet.delta
    cb = coeffs.bundle(T, T + delta, params)
    kb = (1.0 + params.kappa) * cb.B1
    rt = 1.0 + delta * caplet.R
    ln_rt = math.log(rt)
    fm = forward_moments(T, T + delta, params)
    a1, a2, a3 = fm.alpha
    s1, s2, s3 = (math.sqrt(v) for v in fm.beta)

    gx, gw = np.polynomial.legendre.leggauss(n)

    def axis(mu, s):
        lo, hi = mu - trunc * s, mu + trunc * s
        pts = 0.5 * (hi + lo) + 0.5 * (hi - lo) * gx
        wts = 0.5 * (hi - lo) * gw * np.exp(-0.5 * ((pts - mu) / s) ** 2) / (
            s * math.sqrt(2.0 * math.pi)
        )
        return pts, wts

    ys, wys = axis(a2, s2)
    zs, wzs = axis(a3, s3)
    x_lo, x_hi = a1 - trunc * s1, a1 + trunc * s1

    total = 0.0
    for yj, wyj in zip(ys, wys):
        for zk, wzk in zip(zs, wzs):
            c0 = cb.A_bar + cb.C22 * yj * yj + cb.C33_bar * zk * zk
            if kb == 0.0:
                panels = [(x_lo, x_hi)] if c0 >= ln_rt else []
            else:
                x_star = (ln_rt - c0) / kb
                if kb > 0.0:
                    lo = min(max(x_star, x_lo), x_hi)
                    panels = [(lo, x_hi)]
                else:
                    hi = min(max(x_star, x_lo), x_hi)
                    panels = [(x_lo, hi)]
            acc = 0.0
            for lo, hi in panels:
                if hi <= lo:
                    continue
                xs = 0.5 * (hi + lo) + 0.5 * (hi - lo) * gx
                wxs = 0.5 * (hi - lo) * gw
                f1 = np.exp(-0.5 * ((xs - a1) / s1) ** 2) / (s1 * math.sqrt(2.0 * math.pi))
                acc += float(np.sum(wxs * f1 * (np.exp(c0 + kb * xs) - rt)))
            total += wyj * wzk * acc
    p0 = ois_bond(FactorState(0.0, params.psi0), T + delta, params).value
    return caplet.notional * p0 * total


def rho_riccati_rk4(lam, sigma_sq: float, terminal: float, t_hi: float,
                    t_lo: float, n_steps: int = 4000):
    """Backward RK4 for rho' = 2 lam(t) rho + 2 sigma^2 rho^2 from
    rho(t_hi) = terminal, returning (rho(t_lo), Gamma(t_lo)) with
    Gamma' = sigma^2 rho and Gamma(t_hi) = 0."""
    h = (t_hi - t_lo) / n_steps
    rho, gam, t = terminal, 0.0, t_hi

    def f(u, r):
        return 2.0 * lam(u) * r + 2.0 * sigma_sq * r * r

    for _ in range(n_steps):
        k1, g1 = f(t, rho), sigma_sq * rho
        r2 = rho - 0.5 * h * k1
        k2, g2 = f(t - 0.5 * h, r2), sigma_sq * r2
        r3 = rho - 0.5 * h * k2
        k3, g3 = f(t - 0.5 * h, r3), sigma_sq * r3
        r4 = rho - h * k3
        k4, g4 = f(t - h, r4), sigma_sq * r4
        rho -= (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        gam -= (h / 6.0) * (g1 + 2.0 * g2 + 2.0 * g3 + g4)
        t -= h
    return rho, gam


def forward_moments_rk4(t: float, T_star: float, params, n_steps: int):
    """Forward RK4 of the T*-forward-measure moment ODEs of factors 1 and 2
    from (psi0, 0) at time 0, returning (alpha1, beta1, alpha2, beta2) at t."""
    s1sq, s2sq = params.sigma1 ** 2, params.sigma2 ** 2

    def rhs(u, y):
        x1, v1, x2, v2 = y
        u = min(u, T_star)
        bb = coeffs.b1(u, T_star, params)
        lam = params.b2 + 2.0 * s2sq * coeffs.c22(u, T_star, params)
        return (-params.b1 * x1 - s1sq * bb, -2.0 * params.b1 * v1 + s1sq,
                -lam * x2, -2.0 * lam * v2 + s2sq)

    h = t / n_steps
    y = (params.psi0[0], 0.0, params.psi0[1], 0.0)
    u = 0.0
    for _ in range(n_steps):
        k1 = rhs(u, y)
        k2 = rhs(u + h / 2, tuple(a + h / 2 * b for a, b in zip(y, k1)))
        k3 = rhs(u + h / 2, tuple(a + h / 2 * b for a, b in zip(y, k2)))
        k4 = rhs(u + h, tuple(a + h * b for a, b in zip(y, k3)))
        y = tuple(a + h / 6 * (b + 2 * c + 2 * d + e)
                  for a, b, c, d, e in zip(y, k1, k2, k3, k4))
        u += h
    return y


def forward_moments_printed(t: float, T_star: float, params) -> ForwardMoments:
    """The closed-form factor-1/2 moments exactly as printed, for comparison
    tests only.  The factor-1 entries are known to be inconsistent with the
    dynamics (wrong sign in the mean correction, extra 1/b1 in the variance);
    the library uses measures.forward_moments.  Factor 3 is the plain OU law."""
    if t > T_star:
        raise InvalidTimeOrder(t, T_star)
    b1_, b2_ = params.b1, params.b2
    s1sq, s2sq = params.sigma1 ** 2, params.sigma2 ** 2
    p1, p2, p3 = params.psi0

    a1 = math.exp(-b1_ * t) * (
        p1
        - s1sq / (2.0 * b1_ ** 2) * math.exp(-b1_ * T_star) * (1.0 - math.exp(2.0 * b1_ * t))
        - s1sq / (b1_ ** 2) * (1.0 - math.exp(b1_ * t))
    )
    be1 = math.exp(-2.0 * b1_ * t) * (math.exp(2.0 * b1_ * t) - 1.0) * s1sq / (2.0 * b1_ ** 2)

    # the printed "C22 integral" symbol is read as the running time-integral
    # of C22(s, T*) over [0, t]
    c22_int, _ = quad(lambda s: coeffs.c22(s, T_star, params), 0.0, t, epsrel=1e-10)
    a2 = math.exp(-(b2_ * t + 2.0 * s2sq * c22_int)) * p2
    inner, _ = quad(
        lambda s: math.exp(
            2.0 * b2_ * s
            + 4.0 * s2sq * quad(lambda u: coeffs.c22(u, T_star, params), 0.0, s, epsrel=1e-8)[0]
        )
        * s2sq,
        0.0,
        t,
        epsrel=1e-8,
    )
    be2 = math.exp(-(2.0 * b2_ * t + 4.0 * s2sq * c22_int)) * inner

    a3 = math.exp(-params.b3 * t) * p3
    be3 = params.sigma3 ** 2 * -math.expm1(-2.0 * params.b3 * t) / (2.0 * params.b3)
    return ForwardMoments(t, T_star, (a1, a2, a3), (be1, be2, be3))


def _swaption_period_rho3(t: float, k: int, swap, params) -> float:
    """rho3(t, period k) of expectation_coeffs; past the pole, where it would
    turn positive, ExpectationSingularity."""
    return expectation_coeffs(t, k, swap, params).rho3


def swaption_case(swap, params) -> str:
    """Classify the swaption by the sign of the spread-factor exponent
    rho3(T0, .) across periods: "case1" when all are negative (payoff
    convex in |z|).  That is the only attainable case, because the first
    period's exponent is -C33bar(T0, T1) < 0; mixed signs are refused
    (MixedCase, from optional._period_rows)."""
    _period_rows(swap, params)
    return "case1"


def swaption_z_root_bisect(asm, x, y):
    """Reference exercise boundary z2 of g(x, y, z) = h(x, y) where
    g(x, y, 0) <= h: bracket doubling from z = 1, then bisection, vectorised
    over x for one y.  g grows in |z| (every period's z-exponent is
    negative), so the root is unique."""
    x = np.asarray(x, dtype=float)
    h_val = asm.h(x, y)
    lo, hi = np.zeros_like(x), np.ones_like(x)
    for _ in range(80):
        above = asm.g(x, y, hi) - h_val > 0.0
        if np.all(above):
            break
        hi = np.where(above, hi, 2.0 * hi)
    else:
        raise RuntimeError("no sign change of g - h in z")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        go_up = asm.g(x, y, mid) - h_val < 0.0
        lo, hi = np.where(go_up, mid, lo), np.where(go_up, hi, mid)
        if float(np.max(hi - lo, initial=0.0)) <= 1e-12 * (1.0 + float(np.max(hi, initial=0.0))):
            break
    return 0.5 * (lo + hi)


def _swaption_x_cuts(asm, y, x_lo, x_hi, n_scan=256):
    """Roots in x of g(x, y, 0) - h(x, y) on [x_lo, x_hi]: a grid scan, then
    a scalar bisection per bracket."""
    xs = np.linspace(x_lo, x_hi, n_scan + 1)
    phi = asm.g(xs, y, 0.0) - asm.h(xs, y)
    cuts = []
    for i in np.nonzero((phi[:-1] < 0.0) != (phi[1:] < 0.0))[0]:
        lo, hi, neg_lo = xs[i], xs[i + 1], phi[i] < 0.0
        while hi - lo > 1e-13 * (1.0 + abs(hi)):
            mid = 0.5 * (lo + hi)
            if (float(asm.g(mid, y, 0.0) - asm.h(mid, y)) < 0.0) == neg_lo:
                lo = mid
            else:
                hi = mid
        cuts.append(0.5 * (lo + hi))
    return cuts


def swaption_z_quadrature(spec, params, n: int = 96, n_z: int = 64, trunc: float = 8.0) -> float:
    """Payer swaption by Gauss-Legendre in z as well: p(0, T0) E[(g - h)^+]
    over the +/- trunc standard-deviation (x, y, z) box of the T0-forward
    law.  x-lines are split at the exercise-region boundary, z-lines at the
    boundary roots +/- z2 from swaption_z_root_bisect, so every panel is
    smooth.  Independent of the library's closed-form z-integral, Newton
    boundary and blocked kernel; g and h are _SwaptionAssembly's reference
    evaluations."""
    from twocurve.optional import _SwaptionAssembly

    swap = spec.swap
    asm = _SwaptionAssembly(swap, params)
    fm = forward_moments(swap.T0, swap.T0, params)
    (a1, a2, a3), (s1, s2, s3) = fm.alpha, [math.sqrt(v) for v in fm.beta]
    gx, gw = np.polynomial.legendre.leggauss(n)
    gz, gwz = np.polynomial.legendre.leggauss(n_z)

    def nodes(lo, hi, g, w):
        # Gauss-Legendre nodes and weights on [lo, hi], broadcast over lo/hi
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        return mid[..., None] + half[..., None] * g, half[..., None] * w

    def pdf(v, mean, sd):
        return np.exp(-0.5 * ((v - mean) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))

    z_lo, z_hi = a3 - trunc * s3, a3 + trunc * s3
    x_lo, x_hi = a1 - trunc * s1, a1 + trunc * s1
    ys, wys = nodes(np.array(a2 - trunc * s2), np.array(a2 + trunc * s2), gx, gw)
    total = 0.0
    for y, wy in zip(ys, wys * pdf(ys, a2, s2)):
        edges = [x_lo, *_swaption_x_cuts(asm, y, x_lo, x_hi), x_hi]
        for lo, hi in zip(edges[:-1], edges[1:]):
            xs, wxs = nodes(np.array(lo), np.array(hi), gx, gw)
            h_val = asm.h(xs, y)
            z2 = np.zeros_like(xs)
            inside = asm.g(xs, y, 0.0) <= h_val
            if inside.any():
                z2[inside] = swaption_z_root_bisect(asm, xs[inside], y)
            col = 0.0
            for zl, zh in ((z_lo, np.clip(-z2, z_lo, z_hi)), (np.clip(z2, z_lo, z_hi), z_hi)):
                zs, wzs = nodes(np.broadcast_to(zl, xs.shape), zh, gz, gwz)
                pay = asm.g(xs[:, None], y, zs) - h_val[:, None]
                col = col + np.sum(wzs * pdf(zs, a3, s3) * pay, axis=1)
            total += wy * float(np.sum(wxs * pdf(xs, a1, s1) * col))
    p0 = ois_bond(FactorState(0.0, params.psi0), swap.T0, params).value
    return swap.notional * p0 * total


def _decimal_digits(x: float, power: int = 3) -> int:
    """Working digits for a form that cancels like x^power as x -> 0."""
    return 40 + power * max(0, -math.floor(math.log10(x)))


def b1_sq_integral_decimal(tau: float, b: float) -> float:
    """Integral of B1(u)^2 over [0, tau] as
    tau^3 (x - 3/2 + 2 e^{-x} - e^{-2x} / 2) / x^3, x = b tau."""
    with localcontext() as ctx:
        ctx.prec = _decimal_digits(b * tau)
        x = Decimal(b) * Decimal(tau)
        num = x - Decimal(1.5) + 2 * (-x).exp() - (-2 * x).exp() / 2
        return float(Decimal(tau) ** 3 * num / x ** 3)


def psi1_drift_decimal(tau: float, delta: float, b: float) -> float:
    """Integral over s in [0, tau] of e^{-b s} B1(s + delta) as
    (1 - e^{-b tau} - e^{-b delta} (1 - e^{-2 b tau}) / 2) / b^2."""
    with localcontext() as ctx:
        ctx.prec = _decimal_digits(b * tau)
        bd, y = Decimal(b), Decimal(b) * Decimal(tau)
        num = 1 - (-y).exp() - (-bd * Decimal(delta)).exp() * (1 - (-2 * y).exp()) / 2
        return float(num / (bd * bd))


def residual_decimal(tau: float, delta: float, params) -> float:
    """The FRA residual exp(-kappa sigma1^2 (1 - e^{-b delta}) (1 - e^{-b tau})^2 / (2 b^3))."""
    b = params.b1
    with localcontext() as ctx:
        ctx.prec = _decimal_digits(b * min(tau, delta))
        bd = Decimal(b)
        e_delta, e_tau = 1 - (-bd * Decimal(delta)).exp(), 1 - (-bd * Decimal(tau)).exp()
        k = Decimal(params.kappa) * Decimal(params.sigma1) ** 2
        return float((-k * e_delta * e_tau * e_tau / (2 * bd ** 3)).exp())


def step_constants_decimal(times, b: float, sigma: float) -> list:
    """The exact OU steps' standard deviations sigma sqrt((1 - e^{-2 b dt})
    / (2 b)), each scaled by e^{b t} at its step's end, over the float steps
    dt = np.diff(times) the simulator takes; 1 - e^{-2 b dt} cancels like
    b dt."""
    out = []
    for t, dt in zip(times[1:], np.diff(times)):
        with localcontext() as ctx:
            ctx.prec = _decimal_digits(2.0 * b * dt, power=1)
            bd = Decimal(b)
            var = (1 - (-2 * bd * Decimal(float(dt))).exp()) / (2 * bd)
            out.append(float(Decimal(sigma) * var.sqrt() * (bd * Decimal(float(t))).exp()))
    return out


def exact_step_decimal(h: float, b: float, sigma: float) -> tuple:
    """The exact step over h of an OU factor (b, sigma) and its integral,
    (e^{-bh}, B, a, c, d) as in the simulator's _exact_steps, from the
    textbook forms: B = (1 - e^{-bh}) / b, the variances sigma^2 (1 -
    e^{-2bh}) / (2b) of the factor and sigma^2 h^3 (x - 3/2 + 2 e^{-x} -
    e^{-2x} / 2) / x^3 (x = bh) of the integral, their covariance
    sigma^2 B^2 / 2, and its Cholesky factors a, c and d."""
    with localcontext() as ctx:
        ctx.prec = _decimal_digits(b * h)
        bd, hd, s = Decimal(b), Decimal(h), Decimal(sigma)
        x = bd * hd
        e1, e2 = (-x).exp(), (-2 * x).exp()
        B = (1 - e1) / bd
        a = ((1 - e2) / (2 * bd)).sqrt()
        c = B * B / 2 / a
        d = (hd ** 3 * (x - Decimal(1.5) + 2 * e1 - e2 / 2) / x ** 3 - c * c).sqrt()
        return tuple(float(v) for v in (e1, B, s * a, s * c, s * d))


def _blocks(config, n_steps: int, factors: int):
    """Standard normals for every block, in block order, each block from its
    own substream of config.seed: shape (factors, n, n_steps) with n paths,
    or n antithetic pairs."""
    for block, n in enumerate(_block_sizes(config)):
        yield _substream(config.seed, block).standard_normal((factors, n, n_steps))


def simulate_paths(params, horizon: float, config):
    """Materialize a full factor-path ensemble up to the horizon, with the
    simulator's blocks, substreams and path builder, each block followed by
    its antithetic mirror: all three factors on the whole grid, for the
    transition-law tests.  The estimators draw less, in their own order
    (simulate_reads).

    Returns (times, psi) with psi of shape (3, n_paths, len(times)).  Memory
    scales with n_paths * steps; the library's estimators stream in blocks
    instead and never materialize the ensemble.
    """
    times = _make_grid([horizon], config.steps_per_year)
    chunks = []
    for z in _blocks(config, times.size - 1, 3):
        mean = np.empty((3, 1, times.size))
        dev = np.empty((3, z.shape[1], times.size))
        for i in range(3):
            b = params.b(i + 1)
            decay = np.exp(-b * times)
            mean[i] = params.psi0[i] * decay
            _ou_deviation(z[i], _step_constants(times, b, params.sigma(i + 1)), decay, dev[i])
        chunks.append(mean + dev)
        if config.antithetic:
            chunks.append(mean - dev)
    return times, np.concatenate(chunks, axis=1)


def simulate_reads(params, times, config, at: tuple, to: tuple, spread: bool = False):
    """What the estimators read off their blocks, drawn from each block's
    substream in the estimators' order, each block followed by its
    antithetic mirror:

    - psi2's path over times[:end + 1], end the last read (and psi3's with
      spread), built with the simulator's path builder as simulate_paths
      builds it;
    - psi1 and its integral, stepped one read interval at a time by the
      decimal exact step (exact_step_decimal), on two normals per interval;
    - psi3, unless spread, stepped the same way from one date in `at` to
      the next, on one normal per interval.

    Returns (psi, int1, paths): the factors at `at`, shape (3, n_paths,
    len(at)), or (2, ...) when nothing reads psi3; psi1's integrals to `to`,
    shape (n_paths, len(to)); the built paths, shape (1 or 2, n_paths,
    end + 1)."""
    end = max(at + to)
    grid = times[:end + 1]
    dates = sorted((set(at) | set(to)) - {0})
    fixes = sorted(set(at) - {0}) if at and not spread else []
    step1 = [exact_step_decimal(h, params.b1, params.sigma1) for h in np.diff(grid[[0] + dates])]
    step3 = [exact_step_decimal(h, params.b3, params.sigma3) for h in np.diff(grid[[0] + fixes])]
    built = (1, 2) if spread else (1,)
    out = []
    for block, n in enumerate(_block_sizes(config)):
        rng = _substream(config.seed, block)
        means, devs = {}, {}
        for i in built:
            b = params.b(i + 1)
            decay = np.exp(-b * grid)
            means[i], devs[i] = params.psi0[i] * decay, np.empty((n, end + 1))
            _ou_deviation(rng.standard_normal((n, end)),
                          _step_constants(grid, b, params.sigma(i + 1)), decay, devs[i])
        w1 = rng.standard_normal((n, len(dates), 2))
        w3 = rng.standard_normal((n, len(fixes)))
        for sign in (1.0, -1.0) if config.antithetic else (1.0,):
            x, ix = np.full(n, params.psi0[0]), np.zeros(n)
            value, integral = {0: x}, {0: ix}
            for k, (date, (decay, B, a, c, d)) in enumerate(zip(dates, step1)):
                xi, eta = sign * w1[:, k, 0], sign * w1[:, k, 1]
                ix = integral[date] = ix + B * x + c * xi + d * eta
                x = value[date] = decay * x + a * xi
            x3, value3 = np.full(n, params.psi0[2]), {0: np.full(n, params.psi0[2])}
            for k, (date, (decay, _, a, _, _)) in enumerate(zip(fixes, step3)):
                x3 = value3[date] = decay * x3 + a * sign * w3[:, k]
            paths = np.array([means[i] + sign * devs[i] for i in built])
            psi = [[value[k] for k in at], [paths[0][:, k] for k in at]]
            if at or spread:
                psi.append([paths[1][:, k] for k in at] if spread else [value3[k] for k in at])
            psi = np.transpose(np.array(psi).reshape(len(psi), len(at), n), (0, 2, 1))
            int1 = np.array([integral[k] for k in to]).reshape(len(to), n).T
            out.append((psi, int1, paths))
    return tuple(np.concatenate(part, axis=1 if k != 1 else 0)
                 for k, part in enumerate(zip(*out)))
