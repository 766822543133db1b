"""Monte Carlo validation engine.

Factor paths use exact Ornstein-Uhlenbeck transitions, so the simulated
factor law carries no discretization error; the only bias is the
trapezoid approximation of time-integrals (bank account, discounting),
which is monitored by re-evaluating every payoff on the half-resolution
subgrid of the same paths.  Because the exact transitions nest (two fine
steps compose to one coarse step), the fine/coarse difference isolates
the quadrature bias with no Monte Carlo noise in the proxy.

Determinism: paths are generated in fixed-size blocks of 4096 (2048
antithetic pairs), each block drawing from its own counter-derived
substream of the master seed, and block results are reduced in block
order - the estimate is bit-identical regardless of how blocks are
scheduled.  Sizes are bounded: McConfig caps n_paths and steps_per_year, and
a grid whose path array per block passes _BLOCK_BYTES is refused unbuilt.

Payoffs: FRAs, caplets, floorlets and swaps share one payoff over their
(fix, pay, accrual) Libor periods, the discounted cash flow
N (1/pbar(fix, pay) - 1 - accrual R) of each period; a caplet takes its
positive part and a floorlet that of its negative.  A swaption pays the
positive part of the analytic swap value at expiry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import coeffs
from .curves import ois_bond
from .errors import BiasDominates, TwoCurveError
from .linear import FraSpec, SwapSpec
from .model import FactorState, ModelParams
from .optional import CapletSpec, SwaptionSpec, _SwaptionAssembly

__all__ = [
    "McConfig",
    "McEstimate",
    "simulate_paths",
    "mc_bond",
    "mc_forward_expectation",
    "mc_price",
]

_BLOCK = 4096  # paths per block; fixed so results never depend on scheduling
# the largest factor-path array of one block, 3 x _BLOCK x grid points in
# float64 (5461 points); a block's normals and payoff temporaries come to a
# few times this
_BLOCK_BYTES = 512 << 20
_MAX_PATHS = 100_000_000
_MAX_STEPS_PER_YEAR = 1 << 16

_trapz = getattr(np, "trapezoid", None) or np.trapz

ProductSpec = Union[FraSpec, SwapSpec, CapletSpec, SwaptionSpec]


@dataclass(frozen=True)
class McConfig:
    n_paths: int = 100_000
    steps_per_year: int = 512
    seed: int = 0
    antithetic: bool = True

    def __post_init__(self):
        if not 1000 <= self.n_paths <= _MAX_PATHS:
            raise ValueError(f"n_paths must be in [1000, {_MAX_PATHS}], got {self.n_paths}")
        s = self.steps_per_year
        if s < 1 or (s & (s - 1)) != 0 or s > _MAX_STEPS_PER_YEAR:
            raise ValueError(
                f"steps_per_year must be a power of two <= {_MAX_STEPS_PER_YEAR}, got {s}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n_paths: int
    bias_proxy: float

    def __post_init__(self):
        if self.std_error < 0.0:
            raise ValueError("std_error must be >= 0")


def _make_grid(dates, steps_per_year: int) -> np.ndarray:
    """Fine time grid from 0 through max(dates): every date is a grid point,
    each inter-date span is cut into equal steps near 1/steps_per_year, and
    each such step is then halved so that grid[::2] is a valid coarse grid
    containing all the dates too.  A grid whose block path array would pass
    _BLOCK_BYTES is refused before it is built."""
    pts = sorted({0.0} | {float(d) for d in dates})
    # steps per span, counted in Python floats (inf past the float range)
    # before anything is built
    steps = np.maximum(1.0, np.ceil([(b - a) * steps_per_year - 1e-12
                                     for a, b in zip(pts[:-1], pts[1:])]))
    n_points = 1.0 + 2.0 * steps.sum()
    if 3 * _BLOCK * 8 * n_points > _BLOCK_BYTES:
        raise TwoCurveError(
            f"a Monte Carlo grid of {n_points:.3g} points to T = {pts[-1]} passes the "
            f"{_BLOCK_BYTES >> 20} MiB block budget; lower steps_per_year")
    times = [0.0]
    for a, b, m in zip(pts[:-1], pts[1:], map(int, steps)):
        span = b - a
        for j in range(1, 2 * m + 1):
            times.append(a + span * j / (2 * m))
        times[-1] = b
    return np.asarray(times)


def _step_constants(times: np.ndarray, b: float, sigma: float):
    dt = np.diff(times)
    stds = sigma * np.sqrt(-np.expm1(-2.0 * b * dt) / (2.0 * b))
    return stds * np.exp(b * times[1:])


def _paths_from_normals(
    z: np.ndarray, times: np.ndarray, params: ModelParams
) -> np.ndarray:
    """Exact OU paths for all three factors from standard normals z of shape
    (3, n, n_steps); returns psi of shape (3, n, n_steps + 1)."""
    n = z.shape[1]
    out = np.empty((3, n, times.size))
    for i in range(3):
        b, sigma = params.b(i + 1), params.sigma(i + 1)
        scaled = _step_constants(times, b, sigma)  # (n_steps,)
        cum = np.cumsum(z[i] * scaled[None, :], axis=1)
        out[i, :, 0] = params.psi0[i]
        out[i, :, 1:] = np.exp(-b * times[1:])[None, :] * (
            params.psi0[i] + cum
        )
    return out


def _block_normals(seed: int, block_index: int, n: int, n_steps: int) -> np.ndarray:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block_index,))
    rng = np.random.Generator(np.random.Philox(ss))
    return rng.standard_normal((3, n, n_steps))


def _blocks(config: McConfig, n_steps: int):
    """The standard normals of every block, in block order, each block from
    its own substream of config.seed: shape (3, n, n_steps) with n paths,
    or n antithetic pairs."""
    if config.antithetic:
        n_pairs_total, per_block = (config.n_paths + 1) // 2, _BLOCK // 2
    else:
        n_pairs_total, per_block = config.n_paths, _BLOCK
    for block, start in enumerate(range(0, n_pairs_total, per_block)):
        yield _block_normals(config.seed, block, min(per_block, n_pairs_total - start), n_steps)


def _run(
    params: ModelParams,
    times: np.ndarray,
    config: McConfig,
    payoff: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> McEstimate:
    """Estimate E[payoff] with the fine grid, plus the coarse-subgrid bias
    proxy evaluated on the identical paths.

    payoff(times, psi) -> per-path values; psi has shape (3, n, len(times)).
    """
    coarse = times[::2]
    n_samples = 0
    s1 = s2 = sc = 0.0
    for z in _blocks(config, times.size - 1):
        psi = _paths_from_normals(z, times, params)
        vals = payoff(times, psi)
        vals_c = payoff(coarse, psi[:, :, ::2])
        if config.antithetic:
            psi_a = _paths_from_normals(-z, times, params)
            vals = 0.5 * (vals + payoff(times, psi_a))
            vals_c = 0.5 * (vals_c + payoff(coarse, psi_a[:, :, ::2]))
        s1 += float(np.sum(vals))
        s2 += float(np.sum(vals * vals))
        sc += float(np.sum(vals_c))
        n_samples += z.shape[1]
    mean = s1 / n_samples
    var = max(0.0, s2 / n_samples - mean * mean)
    se = math.sqrt(var / n_samples)
    bias = abs(mean - sc / n_samples)
    est = McEstimate(
        mean=mean,
        std_error=se,
        n_paths=n_samples * (2 if config.antithetic else 1),
        bias_proxy=bias,
    )
    if bias >= 3.0 * se + 1e-15:
        raise BiasDominates(
            f"time-integral bias {bias} >= 3 * std_error {se}; refine the grid"
        )
    return est


def simulate_paths(params: ModelParams, horizon: float, config: McConfig):
    """Materialize the full factor-path ensemble up to the horizon.

    Returns (times, psi) with psi of shape (3, n_paths, len(times)).  Memory
    scales with n_paths * steps; the pricing entry points below stream in
    blocks instead and never materialize the ensemble.
    """
    times = _make_grid([horizon], config.steps_per_year)
    chunks = []
    for z in _blocks(config, times.size - 1):
        chunks.append(_paths_from_normals(z, times, params))
        if config.antithetic:
            chunks.append(_paths_from_normals(-z, times, params))
    return times, np.concatenate(chunks, axis=1)


def _short_rate_paths(psi: np.ndarray) -> np.ndarray:
    return psi[0] + psi[1] ** 2


def _spread_paths(psi: np.ndarray, params: ModelParams) -> np.ndarray:
    return params.kappa * psi[0] + psi[2] ** 2


def _cum_trapz_to(times: np.ndarray, vals: np.ndarray, t: float) -> np.ndarray:
    """Trapezoid integral of vals(u) over [0, t]; t must be a grid point."""
    idx = int(np.searchsorted(times, t))
    if idx == 0:
        return np.zeros(vals.shape[0])
    return _trapz(vals[:, : idx + 1], times[: idx + 1], axis=1)


def mc_bond(
    params: ModelParams, T: float, curve: str, config: McConfig
) -> McEstimate:
    """Bond price as E[exp(-integral of the short rate (plus spread))]."""
    times = _make_grid([T], config.steps_per_year)

    def payoff(ts, psi):
        rate = _short_rate_paths(psi)
        if curve == "LIBOR":
            rate = rate + _spread_paths(psi, params)
        return np.exp(-_cum_trapz_to(ts, rate, T))

    return _run(params, times, config, payoff)


def mc_forward_expectation(
    params: ModelParams,
    T: float,
    T_star: float,
    payoff: Callable[[np.ndarray], np.ndarray],
    config: McConfig,
) -> McEstimate:
    """E under the T_star-forward measure of payoff(psi_T), estimated under
    the risk-neutral measure with the density p(T,T*)/(B_T p(0,T*)) built
    from the closed-form bond and the trapezoid bank account.

    payoff takes the factor values at T, shape (3, n), and returns (n,).
    """
    p0 = ois_bond(FactorState(0.0, params.psi0), T_star, params).value
    cb = coeffs.bundle(T, T_star, params)

    times = _make_grid([T, T_star], config.steps_per_year)

    def discounted(ts, psi):
        idx = int(np.searchsorted(ts, T))
        psi_t = psi[:, :, idx]
        bank = np.exp(_cum_trapz_to(ts, _short_rate_paths(psi), T))
        p_t = np.exp(-cb.A - cb.B1 * psi_t[0] - cb.C22 * psi_t[1] ** 2)
        return p_t / (bank * p0) * payoff(psi_t)

    return _run(params, times, config, discounted)


def mc_price(
    params: ModelParams,
    product: ProductSpec,
    config: McConfig,
    floorlet: bool = False,
) -> McEstimate:
    """Discounted-payoff Monte Carlo price of a FRA, swap, caplet/floorlet,
    or swaption under the risk-neutral measure.

    The swaption uses the analytic swap valuation at expiry (no nested
    simulation); that inner formula is validated separately against the
    nested-free swap estimator.
    """
    if isinstance(product, SwaptionSpec):
        swap = product.swap
        asm = _SwaptionAssembly(swap, params)
        t0 = swap.T0
        times = _make_grid([t0], config.steps_per_year)

        def payoff(ts, psi):
            x, y, z = psi[0, :, -1], psi[1, :, -1], psi[2, :, -1]
            value = asm.g(x, y, z) - asm.h(x, y)
            disc = np.exp(-_cum_trapz_to(ts, _short_rate_paths(psi), t0))
            return swap.notional * disc * np.maximum(value, 0.0)

        return _run(params, times, config, payoff)

    # (fix, pay, accrual) per Libor period, read off the spec itself so that
    # every date is a grid point
    if isinstance(product, SwapSpec):
        periods = [(product.fix_date(k), product.pay_date(k), product.gamma)
                   for k in range(1, product.n + 1)]
    elif isinstance(product, (FraSpec, CapletSpec)):
        periods = [(product.T, product.T + product.delta, product.delta)]
    else:
        raise TypeError(f"unsupported product type {type(product).__name__}")
    # a caplet pays the positive part of each cash flow, a floorlet that of
    # its negative
    sign = (-1.0 if floorlet else 1.0) if isinstance(product, CapletSpec) else None
    times = _make_grid([d for fix, pay, _ in periods for d in (fix, pay)],
                       config.steps_per_year)

    def payoff(ts, psi):
        rate = _short_rate_paths(psi)
        total = 0.0
        for t_fix, t_pay, accrual in periods:
            # 1 / pbar(t_fix, t_fix + accrual) at the simulated factor values
            cb = coeffs.bundle(t_fix, t_fix + accrual, params)
            x, y, z = psi[:, :, int(np.searchsorted(ts, t_fix))]
            flow = (np.exp(cb.A_bar + cb.B1_bar * x + cb.C22 * y ** 2 + cb.C33_bar * z ** 2)
                    - (1.0 + accrual * product.R))
            if sign is not None:
                flow = np.maximum(sign * flow, 0.0)
            total = total + product.notional * np.exp(-_cum_trapz_to(ts, rate, t_pay)) * flow
        return total

    return _run(params, times, config, payoff)
