"""Semi-closed caplet, floorlet and payer-swaption pricers.

Both option payoffs are positive parts of exponential-quadratic functions
of the three Gaussian factors at expiry; the swaption's is the swap's value
at T0, g - h, from the per-period rows linear.swap_price uses
(linear._period_row).  Outside the exercise boundary |z| = zbar(x, y) the
spread factor z integrates in closed Gaussian form, for both products
through the same tilted laws (_z_tilt, from measures._exp_quadratic, as
for the linear pricers) and tail sum (_z_tail); neither prices sigma3 = 0.
The (x, y) integral is one tensor Gauss-Legendre kernel for both products
(_tensor_gl) on a +/- _TRUNCATION standard-deviation box, each y-row's
x-line split where the exercise function at z = 0 crosses the strike.  On
the exercise side of such a cut the z-tail grows like slack^{3/2} from the
panel edge, an endpoint singularity that holds plain Gauss-Legendre to an
n^-5 error; every rule is therefore pushed through a cubic map that is flat
at both ends (_gl_rule), after which the rule converges spectrally (Davis &
Rabinowitz, Methods of Numerical Integration, 1984), and a half-octave
ladder of node counts, n, 4n/3, 2n, ..., confirms each estimate with the
next (_refine).  Integrands are evaluated on blocks of whole panels as
arrays, the swaption's periods on the leading axis.  The caplet's split and
boundary are closed form; the swaption's splits in x (_column_panels, on
the brackets of one scan over all rows) and its boundary in u = zbar^2
(_boundary_root) both solve log g = log h by one safeguarded Newton
(_newton_root).  The exp(C33*zbar^2)-type boundary terms fold back into the
strike level (Rtilde, or h(x, y) for the swaption), so nothing overflows.
With 1 + R gamma <= 0 the swaption is always exercised and is priced as the
swap.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import coeffs
from .curves import ois_bond
from .errors import (
    CapletConditionViolated,
    DegenerateSpreadFactor,
    ExpectationSingularity,
    InvalidTimeOrder,
    MixedCase,
    MomentExplosion,
    QuadratureFailure,
    RootNotBracketed,
    TwoCurveError,
)
from .linear import FraSpec, SwapSpec, _period_row, _require_finite_terms, fra_price, swap_price
from .measures import _exp_quadratic, forward_moments
from .model import FactorState, ModelParams

__all__ = [
    "CapletSpec",
    "SwaptionSpec",
    "QuadratureConfig",
    "caplet_price",
    "floorlet_price",
    "swaption_price",
]

# array elements (nodes x periods) per block of the quadrature kernel and of
# the split-point scan: 128 KiB per float64 temporary, so that a price's
# temporaries stay at a few MiB whatever the node and period counts
_BLOCK = 1 << 14
_N_SCAN = 256
_NEWTON_MAX_ITER = 100
# half-width of the (x, y) quadrature box, in standard deviations
_TRUNCATION = 8.0


@dataclass(frozen=True)
class CapletSpec:
    """Caplet on the period [T, T+delta]: pays delta*(L - R)^+ at T+delta."""

    T: float
    delta: float
    R: float
    notional: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.delta < math.inf:
            raise ValueError(f"delta must be > 0 and finite, got {self.delta}")
        _require_finite_terms(self)
        if 1.0 + self.delta * self.R <= 0.0:
            raise ValueError("require 1 + delta*R > 0")

    @property
    def r_tilde(self) -> float:
        return 1.0 + self.delta * self.R


@dataclass(frozen=True)
class SwaptionSpec:
    """Option expiring at the swap's first reset date T0 to enter the swap."""

    swap: SwapSpec


# the largest rule a price may ask for: _gl_rule(n) solves a dense n x n
# eigenproblem, 32 MiB at 2048 nodes
_MAX_NODES = 2048


@dataclass(frozen=True)
class QuadratureConfig:
    """Refinement of the option quadrature: estimates on the half-octave
    ladder n, 4n/3, 2n, 8n/3, ... up to n * 2**max_refinements nodes per
    axis (at most 2048; max_refinements counts octaves), until two in a row
    agree to rel_tol; (x, y) is truncated at +/- _TRUNCATION standard
    deviations.  The rule's endpoint map (_gl_rule) makes the error fall
    spectrally, so the default 48 nodes usually stop at 64."""

    n_nodes_per_axis: int = 48
    rel_tol: float = 1e-7
    max_refinements: int = 3

    def __post_init__(self):
        for name in ("n_nodes_per_axis", "max_refinements"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.n_nodes_per_axis < 16:
            raise ValueError("n_nodes_per_axis must be >= 16")
        if not 0.0 <= self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and >= 0, got {self.rel_tol}")
        if self.max_refinements < 0:
            raise ValueError(f"max_refinements must be >= 0, got {self.max_refinements}")
        # n >= 16, so more than 7 refinements always exceed the bound; testing
        # that first keeps a huge max_refinements from building a huge integer
        if self.max_refinements > 7 or self.n_nodes_per_axis << self.max_refinements > _MAX_NODES:
            raise ValueError(
                f"n_nodes_per_axis * 2**max_refinements must be <= {_MAX_NODES}, got "
                f"{self.n_nodes_per_axis} * 2**{self.max_refinements}")


# ---------------------------------------------------------------------------
# quadrature kernel


# The normal CDF in numpy alone, so that the library does not import scipy
# (about 25 MiB resident and 0.3 s to import): W. J. Cody's rational
# approximations of erfc (Math. Comp. 23, 1969), coefficients from the
# highest power down.  erfc(y) = 1 - y A(y^2)/B(y^2) up to y = 0.46875,
# exp(-y^2) C(y)/D(y) up to 4, and above that
# exp(-y^2) (1/sqrt(pi) - w P(w)/Q(w)) / y with w = 1/y^2.
_ERFC_A = (1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
           3.77485237685302021e02, 3.20937758913846947e03)
_ERFC_B = (1.0, 2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
           2.84423683343917062e03)
_ERFC_C = (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
           6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
           1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03)
_ERFC_D = (1.0, 1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
           1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)
_ERFC_P = (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
           1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4)
_ERFC_Q = (1.0, 2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
           6.05183413124413191e-2, 2.33520497626869185e-3)


def _ratio(num, den, v):
    p, q = np.full_like(v, num[0]), np.full_like(v, den[0])
    for a, b in zip(num[1:], den[1:]):
        p *= v
        p += a
        q *= v
        q += b
    return p / q


def _ndtr(x):
    """Standard normal CDF 0.5 erfc(-x / sqrt(2)), elementwise, within 1e-12
    relative error in both tails down to 1e-300."""
    y = np.abs(x) * math.sqrt(0.5)
    erfc = np.empty_like(y)
    small, big = y <= 0.46875, y > 4.0
    v = y[small]
    erfc[small] = 1.0 - v * _ratio(_ERFC_A, _ERFC_B, v * v)
    mid = ~(small | big)
    v = y[mid]
    erfc[mid] = np.exp(-v * v) * _ratio(_ERFC_C, _ERFC_D, v)
    v = y[big]
    w = 1.0 / (v * v)
    erfc[big] = np.exp(-v * v) * (1.0 / math.sqrt(math.pi) - w * _ratio(_ERFC_P, _ERFC_Q, w)) / v
    erfc *= 0.5
    return np.where(x < 0.0, erfc, 1.0 - erfc)


@lru_cache(maxsize=16)
def _gl_rule(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1] pushed through the cubic
    x = t(3 - t^2)/2, weights times dx/dt = 3(1 - t^2)/2.

    The map is flat at both ends: 1 + x ~ 3(1 + t)^2/2 near t = -1, and
    likewise at t = 1.  On the exercise side of a cut the z-tail grows like
    slack^{3/2} from the panel edge, which limits the plain rule to an n^-5
    error; through the map that term is (1 + t)^3 times an analytic factor,
    so the rule converges spectrally."""
    t, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * t * (3.0 - t * t), 1.5 * w * (1.0 - t * t)


def _normal_pdf(x, mean: float, sd: float):
    return np.exp(-0.5 * ((x - mean) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))


def _refine(estimate, quad: QuadratureConfig) -> float:
    """Estimates on the half-octave ladder n, 4n/3, 2n, 8n/3, ..., up to
    n * 2**max_refinements nodes, until two in a row agree to rel_tol: the
    mapped rule converges spectrally, so a ratio of 4/3 is enough to confirm,
    at 64^2 node evaluations instead of 96^2 from 48."""
    n = quad.n_nodes_per_axis
    # the last entry, 4n/3 past the last octave, is not a rung
    rungs = [m << k for k in range(quad.max_refinements + 1) for m in (n, round(4 * n / 3))]
    prev = estimate(n)
    history = [(n, prev)]
    for m in rungs[1:-1]:
        cur = estimate(m)
        history.append((m, cur))
        if abs(cur - prev) <= quad.rel_tol * abs(cur) + 1e-15:
            return cur
        prev = cur
    raise QuadratureFailure(
        f"node doubling did not converge to rel {quad.rel_tol}: last={prev}", history
    )


def _z_tilt(c, fm, error):
    """(sq, gam, shift), shape (len(c), 1), of the factors exp(c_k z^2) with z ~
    N(a3, b3) the spread factor's law in fm (measures._exp_quadratic): sq =
    sqrt(d_k), gam = E[exp(c_k z^2)], tilted law N(shift/sq, b3/sq^2).  A pole
    d_k <= 0 raises error(k, d_k); b3 = 0, a point mass whose kink the panel
    cuts miss, DegenerateSpreadFactor."""
    a3, b3v = fm.alpha[2], fm.beta[2]
    if b3v == 0.0:
        raise DegenerateSpreadFactor(
            f"the spread factor has zero variance at {fm.t} (sigma3 = 0): the option "
            "pricers need sigma3 > 0")
    rows = [_exp_quadratic(a3, b3v, ck, partial(error, k))
            for k, ck in enumerate(np.atleast_1d(c))]
    q, d = np.array(rows).T[:, :, None]
    sq = np.sqrt(d)
    return sq, np.exp(q) / sq, a3 / sq


def _z_tail(ge, h, z2, sq, shift, fm):
    """The closed-form z-tail sum_k ge_k P_k(|z| > z2) - h P(|z| > z2) at nodes
    where |z| > z2 exercises: P_k the tilted laws of _z_tilt, P the plain one;
    ge has shape (len(sq), nodes)."""
    a3, s3 = fm.alpha[2], math.sqrt(fm.beta[2])
    sz = sq * z2
    p = _ndtr(np.concatenate([-sz - shift, shift - sz, [-z2 - a3, a3 - z2]]) / s3)
    n = len(sq)
    return (ge * (p[:n] + p[n:2 * n])).sum(axis=0) - h * (p[-2] + p[-1])


def _tensor_gl(n: int, fm, cuts, member, integrand, width: int = 1) -> float:
    """E[integrand] over (x, y) ~ N(alpha, beta) on the truncated box.

    cuts(ys, x_lo, x_hi) returns the points (row index, x) where the y-rows'
    x-lines cross the exercise-region boundary.  They split each line into
    panels, and member(x, y) tags each panel by its midpoint.  The y-axis
    and every panel get the n-node mapped rule of _gl_rule.  integrand(x, y, in_m)
    takes flat node arrays, in blocks of about _BLOCK elements of
    nodes x (width + 1); width is the integrand's period count.
    """
    gx, gw = _gl_rule(n)
    (a1, a2, _), (b1v, b2v, _) = fm.alpha, fm.beta
    s1, s2 = math.sqrt(b1v), math.sqrt(b2v)
    y_lo, y_hi = a2 - _TRUNCATION * s2, a2 + _TRUNCATION * s2
    ys = 0.5 * (y_hi + y_lo) + 0.5 * (y_hi - y_lo) * gx
    wys = 0.5 * (y_hi - y_lo) * gw * _normal_pdf(ys, a2, s2)
    x_lo, x_hi = a1 - _TRUNCATION * s1, a1 + _TRUNCATION * s1
    row, cut = cuts(ys, x_lo, x_hi)
    # each row's edges x_lo, cuts, x_hi in order: consecutive edges of one
    # row bound a panel
    row = np.concatenate([np.arange(n), row, np.arange(n)])
    edge = np.concatenate([np.full(n, x_lo), cut, np.full(n, x_hi)])
    order = np.lexsort((edge, row))
    row, edge = row[order], edge[order]
    keep = (row[1:] == row[:-1]) & (edge[1:] > edge[:-1])
    row, lo, hi = row[1:][keep], edge[:-1][keep], edge[1:][keep]
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    # blocks of whole panels, or pieces of one panel when it alone exceeds
    # _BLOCK elements
    per = max(1, _BLOCK // (width + 1))
    step, piece = max(1, per // n), min(n, per)
    total = 0.0
    for p in range(0, row.size, step):
        blk = slice(p, p + step)
        in_m = member(mid[blk], ys[row[blk]])
        for k in range(0, n, piece):
            xs = mid[blk, None] + half[blk, None] * gx[k:k + piece]
            wxs = (wys[row[blk]] * half[blk])[:, None] * gw[k:k + piece] * _normal_pdf(xs, a1, s1)
            m = xs.shape[1]
            f = integrand(xs.ravel(), np.repeat(ys[row[blk]], m), np.repeat(in_m, m))
            total += float(np.dot(wxs.ravel(), f))
    return total


# ---------------------------------------------------------------------------
# caplet


def _caplet_slack(caplet: CapletSpec, params: ModelParams):
    """(coefficient bundle, kb, slack): (x, y) is in the continuation set M
    where slack(x, y) = log Rtilde - Abar - C22 y^2 - kb x >= 0, kb = (1+kappa)
    B1, and there the z-roots are +/- sqrt(slack / C33)."""
    cb = coeffs.bundle(caplet.T, caplet.T + caplet.delta, params)
    if cb.C33_bar == 0.0:
        raise DegenerateSpreadFactor(
            "C33 coefficient vanishes over the accrual period"
        )
    kb, w0 = cb.B1_bar, math.log(caplet.r_tilde) - cb.A_bar
    return cb, kb, lambda x, y: w0 - cb.C22 * y * y - kb * x


def caplet_price(
    caplet: CapletSpec,
    params: ModelParams,
    quad: QuadratureConfig = QuadratureConfig(),
) -> float:
    """Time-0 caplet price.

    The z-integral over the exercise region is in closed Gaussian form; the
    (x, y) integral is the tensor Gauss-Legendre kernel with each x-line
    split at the closed-form membership boundary kb*x = w0(y).
    """
    if caplet.T <= 0.0:
        raise InvalidTimeOrder(caplet.T, 0.0)
    t_pay = caplet.T + caplet.delta
    p0 = ois_bond(FactorState(0.0, params.psi0), t_pay, params).value
    # a subnormal bond has lost digits, and 0 has lost them all; there the
    # integrand's 1 / pbar(T, T + delta) overflows as well
    if p0 < sys.float_info.min:
        raise TwoCurveError(f"caplet accrual delta = {caplet.delta}: p(0, {t_pay}) = {p0} "
                            "underflows, no caplet price")
    cb, kb, slack = _caplet_slack(caplet, params)
    c33, r_t = cb.C33_bar, caplet.r_tilde

    fm = forward_moments(caplet.T, caplet.T + caplet.delta, params)
    sq, gam, shift = _z_tilt(c33, fm, lambda k, disc: CapletConditionViolated(
        f"1 - 2*beta3*C33 = {disc} <= 0: the spread-factor expectation diverges"))

    def cuts(ys, x_lo, x_hi):
        if kb == 0.0:
            return np.empty(0, dtype=int), np.empty(0)
        x = slack(0.0, ys) / kb
        row = np.nonzero((x > x_lo) & (x < x_hi))[0]
        return row, x[row]

    def integrand(x, y, in_m):
        ge = np.exp(cb.A_bar + kb * x + cb.C22 * y * y) * gam[0]
        val = ge - r_t
        z2 = np.sqrt(np.maximum(slack(x[in_m], y[in_m]), 0.0) / c33)
        # the boundary terms E * exp(C33*z2^2) equal Rtilde
        val[in_m] = _z_tail(ge[None, in_m], r_t, z2, sq, shift, fm)
        return val

    def estimate(n: int) -> float:
        return p0 * _tensor_gl(n, fm, cuts, lambda x, y: slack(x, y) >= 0.0, integrand)

    return caplet.notional * _refine(estimate, quad)


def floorlet_price(
    caplet: CapletSpec,
    params: ModelParams,
    quad: QuadratureConfig = QuadratureConfig(),
) -> float:
    """Floorlet via parity: floorlet = caplet - FRA at the same strike."""
    cpl = caplet_price(caplet, params, quad)
    state = FactorState(0.0, params.psi0)
    fra = fra_price(
        state, FraSpec(caplet.T, caplet.delta, caplet.R, caplet.notional), params
    )
    return cpl - fra


# ---------------------------------------------------------------------------
# swaption


def _period_rows(swap: SwapSpec, params: ModelParams) -> list:
    """linear._period_row at T0 for every period.  A pole of a period's psi3
    expectation inside [T0, T_{k-1}] is exactly a positive rho3(T0, k), so
    it raises MixedCase."""
    try:
        return [_period_row(swap.T0, k, swap, params) for k in range(1, swap.n + 1)]
    except ExpectationSingularity:
        raise MixedCase(
            "periods fall in both monotonicity cases; the semi-closed pricer "
            "requires a uniform sign of rho3 across periods"
        ) from None


class _SwaptionAssembly:
    """Per-period coefficients (_period_rows, which refuses mixed cases) of
    the exercise functions g and h:

        g(x, y, z) = sum_k d0_k exp(-a0_k - b1t_k x - c22t_k y^2 - c33t_k z^2)
        h(x, y)    = rg1 sum_k exp(-a0_k - b1_k x - c22_k y^2)

    as arrays over the periods k; g - h is the swap's value at T0.  rg1 =
    1 + R gamma may have either sign; log_rg1 is -inf for rg1 <= 0, where
    h <= 0 < g leaves the exercise region empty and no root reads it."""

    def __init__(self, swap: SwapSpec, params: ModelParams):
        self.swap = swap
        log_d0, self.a0, self.b1t, self.c22t, self.c33t, self.b1, self.c22 = (
            np.array(col) for col in zip(*_period_rows(swap, params)))
        self.rg1 = swap.R * swap.gamma + 1.0
        self.log_rg1 = math.log(self.rg1) if self.rg1 > 0.0 else -math.inf
        # the exponents of the terms of g(., ., 0) and of h / rg1 are linear
        # in (1, x, y^2): one matrix, g's periods first
        self.lin = np.concatenate([
            np.stack([log_d0 - self.a0, -self.b1t, -self.c22t], axis=1),
            np.stack([-self.a0, -self.b1, -self.c22], axis=1),
        ])

    def g(self, x, y, z):
        x, y, z = np.broadcast_arrays(x, y, z)
        lt = self.log_terms(x, y)[:self.swap.n]
        return np.exp(lt - np.multiply.outer(self.c33t, z * z)).sum(axis=0)

    def h(self, x, y):
        return self.rg1 * np.exp(self.log_terms(x, y)[self.swap.n:]).sum(axis=0)

    def log_terms(self, x, y):
        """Logs of the terms of g(x, y, 0) (the first n_periods rows) and of
        h(x, y) / rg1 (the rest), shape (2 n_periods,) + the broadcast shape."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        v = np.stack([np.ones(x.size), x.ravel(), (y * y).ravel()])
        return (self.lin @ v).reshape((len(self.lin),) + x.shape)


def _lse(a, b, s):
    """log sum_k exp(a_k + b_k s) over the leading axis, shifted by its
    largest term, and its s-derivative."""
    e = a + b * s
    m = e.max(axis=0)
    w = np.exp(e - m)
    tot = w.sum(axis=0)
    return m + np.log(tot), (b * w).sum(axis=0) / tot


def _newton_root(g, h, lo, hi):
    """Per column, the root in [lo, hi] (hi may be inf) of the increasing
    F(s) = lse(g, s) - lse(h, s), g and h the (intercepts, slopes) of their
    terms' exponents.  Safeguarded Newton (rtsafe: Press et al., Numerical
    Recipes, 3rd ed., 2007, 9.4): F's sign at each iterate moves one end of
    the bracket there, and a step outside the bracket, ends included,
    bisects instead; F(lo) >= 0 collapses the bracket onto lo.  Stops when
    every F is within rounding of 0 or every bracket within rounding of a
    point (an infinite one never is), after a last, polishing step."""
    s = lo
    for _ in range(_NEWTON_MAX_ITER):
        lg, dg = _lse(*g, s)
        lh, dh = _lse(*h, s)
        f = lg - lh
        lo, hi = np.where(f < 0.0, s, lo), np.where(f < 0.0, hi, s)
        step = s - f / (dg - dh)
        s = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        if np.all((np.abs(f) <= 1e-13 * (1.0 + np.abs(lh)))
                  | (hi - lo <= 1e-13 * (1.0 + np.abs(lo)))):
            return s
    raise RootNotBracketed(f"Newton iteration for the exercise boundary did not converge "
                           f"in {_NEWTON_MAX_ITER} steps")


def _boundary_root(asm: _SwaptionAssembly, x, y):
    """Positive root z2 of g(x, y, z) = h(x, y) at the nodes x, y (1-D
    arrays) of the exercise region (g(x, y, 0) <= h); g is even in z, so
    z1 = -z2.  In u = z^2, log g - log h is convex and increasing (every
    c33t_k < 0, case 1): from u = 0 Newton overshoots once, then converges
    from the right.  A node whose F(0) is a hair above 0 gets z = 0."""
    n, terms = asm.swap.n, asm.log_terms(x, y)
    lh = asm.log_rg1 + np.log(np.exp(terms[n:]).sum(axis=0))
    return np.sqrt(_newton_root((terms[:n], -asm.c33t[:, None]), (lh[None], 0.0),
                                np.zeros_like(lh), np.full_like(lh, np.inf)))


def _column_panels(asm: _SwaptionAssembly, ys, x_lo: float, x_hi: float):
    """The points (row index, x) where the y-rows' x-lines on [x_lo, x_hi]
    cross g(., y, 0) = h(., y), which split them into panels: one scan of
    every row on a _N_SCAN-interval grid finds the brackets, and one
    _newton_root refines them all, on log g - log h or on its negative,
    whichever rises across the bracket."""
    xs = np.linspace(x_lo, x_hi, _N_SCAN + 1)
    # g(x, y, 0) and h(x, y) separate into row and grid factors: the scan
    # is one matrix product per block of rows
    n = asm.swap.n
    t_rows = np.exp(asm.log_terms(0.0, ys)).T
    g_rows, h_rows = t_rows[:, :n], -asm.rg1 * t_rows[:, n:]
    g_grid, h_grid = np.exp(-np.outer(asm.b1t, xs)), np.exp(-np.outer(asm.b1, xs))
    step = max(1, _BLOCK // xs.size)
    found = []
    for r in range(0, ys.size, step):
        neg = g_rows[r:r + step] @ g_grid + h_rows[r:r + step] @ h_grid < 0.0
        j, i = np.nonzero(neg[:, :-1] != neg[:, 1:])
        found.append((j + r, i, neg[j, i]))
    row, col, rises = (np.concatenate(v) for v in zip(*found))
    # the terms' exponents a + b x per bracket, shape (a or b, g or h,
    # period, bracket); g and h swap places where g - h falls
    a = asm.lin[:, :1] + asm.lin[:, 2:] * ys[row] ** 2
    a[n:] += asm.log_rg1
    ab = np.stack(np.broadcast_arrays(a, asm.lin[:, 1:2])).reshape(2, 2, n, -1)
    ab = np.where(rises, ab, ab[:, ::-1])
    return row, _newton_root(ab[:, 0], ab[:, 1], xs[col], xs[col + 1])


def swaption_price(
    spec: SwaptionSpec,
    params: ModelParams,
    quad: QuadratureConfig = QuadratureConfig(),
) -> float:
    """Time-0 payer-swaption price with expiry at the swap's first reset T0.

    The payoff is (g(x,y,z) - h(x,y))^+ in the T0 factor values under the
    T0-forward measure.  Every period's z-exponent is negative, so g grows
    in |z|: off the exercise region (g(., 0) > h) the payoff is the plain
    mean, and on it the z-integral is closed-form Gaussian outside the
    boundary |z| = z2 from _boundary_root.  (x, y) is the tensor
    Gauss-Legendre kernel with x-lines split at the region boundary by
    _column_panels, periods on the leading axis of every array.  With
    1 + R gamma <= 0 the option is always exercised and is the swap.
    """
    swap = spec.swap
    if swap.T0 <= 0.0:
        raise InvalidTimeOrder(swap.T0, 0.0)
    if not swap.R * swap.gamma + 1.0 > 0.0:
        return swap_price(FactorState(0.0, params.psi0), swap, params)
    asm = _SwaptionAssembly(swap, params)

    fm = forward_moments(swap.T0, swap.T0, params)
    sq, gam, shift = _z_tilt(-asm.c33t, fm, lambda k, disc: MomentExplosion(
        f"1 + 2*beta3*C33_tilde = {disc} <= 0 for period {k + 1}"))
    p0 = ois_bond(FactorState(0.0, params.psi0), swap.T0, params).value

    def integrand(x, y, in_m):
        t = np.exp(asm.log_terms(x, y))
        ge, h = gam * t[:swap.n], asm.rg1 * t[swap.n:].sum(axis=0)
        # off the region g >= h for every z: the positive part is the mean
        val = ge.sum(axis=0) - h
        z2 = _boundary_root(asm, x[in_m], y[in_m])
        # the boundary terms sum_k E_k exp(-c33t_k z2^2) equal h
        val[in_m] = _z_tail(ge[:, in_m], h[in_m], z2, sq, shift, fm)
        return val

    def estimate(n: int) -> float:
        return p0 * _tensor_gl(n, fm, partial(_column_panels, asm),
                               lambda x, y: asm.g(x, y, 0.0) <= asm.h(x, y), integrand, swap.n)

    # past the float range (horizons or accruals near 1e300 or 1e-300) the
    # period terms overflow or lose their boundary root
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            return swap.notional * _refine(estimate, quad)
        except FloatingPointError as exc:
            raise TwoCurveError(f"swaption on {swap}: {exc} in the exercise integral") from None
