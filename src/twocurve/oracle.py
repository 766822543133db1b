"""Monte Carlo validation engine.

Factors move by exact Ornstein-Uhlenbeck transitions, so the simulated
factor law carries no discretization error, and psi1's time integral is
drawn exactly with it.  The only bias is the trapezoid approximation of the
integrals of psi2^2 (and psi3^2 for the Libor spread) in the bank account
and the discounting.  It is monitored by re-evaluating every payoff on the
half-resolution subgrid of the same paths: because the exact transitions
nest (two fine steps compose to one coarse step), the fine/coarse
difference isolates the quadrature bias with no Monte Carlo noise in the
proxy.

Determinism: paths are generated in fixed-size blocks of 4096 (2048
antithetic pairs), each block drawing from its own counter-derived
substream of the master seed.  The blocks run on a pool of W threads, W = 1
included, and their sums are reduced in block order, so the estimate is
bit-identical for any W and any schedule.  W is the least of the CPUs this
process may run on, the blocks, and the per-worker workspaces that fit in
_BLOCK_BYTES.  A workspace is one factor's normals over the grid and one
built path (the exact steps' normals fit in the first), allocated by the
calling thread and taken by one worker thread for all its blocks.  Sizes
are bounded: McConfig caps n_paths and steps_per_year, and a grid whose
block of normals, 3 x 4096 x grid points, passes _BLOCK_BYTES is refused
unbuilt, so one workspace always fits.

What is built: each estimator declares its reads (_Reads), the grid indices
where its payoff reads the factors and those to which it reads the time
integrals of psi1 and psi2^2 (and psi3^2 for the Libor bond's spread).  Only
psi2, whose square is integrated, needs the fine grid: its path is built, in
place, by _ou_deviation, up to the last read only, and so is psi3's for the
Libor bond.  psi1 enters only through its values and its integrals, and
psi3 otherwise only at the fix dates, so both are stepped exactly from one
read date to the next (_exact_steps): (psi1, its integral) as a joint
Gaussian step of two normals (Glasserman, Monte Carlo Methods in Financial
Engineering, 2003, sec. 3.3), psi3 by one exact OU step.  Every read stays
affine in the normals, psi_i = mean_i + (deviation linear in the normals),
so the stepped factors are one matrix product of the block's normals
(_exact_reads), and the antithetic mirror, which negates every deviation,
costs no second pass.  The trapezoid integrals of psi2^2 (and psi3^2) are
taken on the fine grid and on its coarse subgrid; psi1's integral is exact
on both.

Same normals: a block draws from its substream in one fixed order: psi2's
normals over the grid to the last read, psi3's over the same grid for the
Libor bond, two per read interval for psi1, and one per fix interval for
psi3 where it is read.  Estimates therefore change with the rounding of
the products only, never with the draws.

Payoffs: FRAs, caplets, floorlets and swaps share one payoff over their
(fix, pay, accrual) Libor periods, the discounted cash flow
N (1/pbar(fix, pay) - 1 - accrual R) of each period; a caplet takes its
positive part and a floorlet that of its negative.  A swaption pays the
positive part of the analytic swap value at expiry.
"""

from __future__ import annotations

import contextvars
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import coeffs
from .curves import ois_bond
from .errors import BiasDominates, InvalidTimeOrder, TwoCurveError
from .linear import FraSpec, SwapSpec
from .model import FactorState, ModelParams
from .optional import CapletSpec, SwaptionSpec, _SwaptionAssembly

__all__ = [
    "McConfig",
    "McEstimate",
    "mc_bond",
    "mc_forward_expectation",
    "mc_price",
]

_BLOCK = 4096  # paths per block; fixed so results never depend on scheduling
# a block's normals, 3 x _BLOCK x grid points in float64 (5461 points), are
# refused past this; a worker's workspace, one factor's normals and one path
# of a block, is at most 2/3 of it, and the workers' workspaces together fit
# in it
_BLOCK_BYTES = 512 << 20
# OpenBLAS runs larger products on its thread pool, whose wake-up cost up to
# 8 ms a product on a 2-CPU box: a (2048 x 192) @ (192 x 3) product took 8 ms
# whole against 0.2 ms in row blocks of at most this many multiply-adds.  A
# 100k-path caplet mc_price (64 steps a year, best of 5, 2 CPUs) took 0.31 s
# with row blocks against 0.51 s without, a 20-period swap 1.53 s against
# 2.06 s; with OPENBLAS_NUM_THREADS=1 the two were equal
_MATMUL_MADDS = 1 << 18
_MAX_PATHS = 100_000_000
_MAX_STEPS_PER_YEAR = 1 << 16
_LOG_FLOAT_MAX = math.log(sys.float_info.max)

ProductSpec = Union[FraSpec, SwapSpec, CapletSpec, SwaptionSpec]


@dataclass(frozen=True)
class McConfig:
    n_paths: int = 100_000
    steps_per_year: int = 512
    seed: int = 0
    antithetic: bool = True

    def __post_init__(self):
        for name in ("n_paths", "steps_per_year", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if not isinstance(self.antithetic, bool):
            raise ValueError(f"antithetic must be a bool, got {self.antithetic!r}")
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
        if not self.std_error >= 0.0:  # NaN too
            raise ValueError(f"std_error must be >= 0, got {self.std_error}")


def _make_grid(dates, steps_per_year: int) -> np.ndarray:
    """Fine time grid from 0 through max(dates): every date is a grid point,
    each inter-date span is cut into equal steps near 1/steps_per_year, and
    each such step is then halved so that grid[::2] is a valid coarse grid
    containing all the dates too.  A grid whose block of normals would pass
    _BLOCK_BYTES is refused before it is built, and so is a date before 0
    or not finite."""
    for d in dates:
        if not 0.0 <= d < math.inf:
            raise InvalidTimeOrder(0.0, d)
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
    # the steps are scaled by e^{b t}: refused where it would overflow and
    # leave NaN paths
    if b * times[-1] > _LOG_FLOAT_MAX:
        raise TwoCurveError(f"b * T = {b} * {times[-1]} passes {_LOG_FLOAT_MAX:.1f}: "
                            "the exact OU steps' e^(b t) scaling overflows")
    dt = np.diff(times)
    stds = sigma * np.sqrt(-np.expm1(-2.0 * b * dt) / (2.0 * b))
    return stds * np.exp(b * times[1:])


def _ou_deviation(z: np.ndarray, consts: np.ndarray, decay: np.ndarray, out: np.ndarray):
    """Exact OU paths' deviations from their mean path, into out of shape
    (n, n_steps + 1), from one factor's standard normals z of shape
    (n, n_steps), which are overwritten.  consts are the factor's
    _step_constants and decay its e^{-b t} over the grid: the paths of z are
    mean + out, those of -z mean - out."""
    out[:, 0] = 0.0
    z *= consts
    np.cumsum(z, axis=1, out=out[:, 1:])
    out[:, 1:] *= decay[1:]
    return out


def _relexpm1(x: np.ndarray) -> np.ndarray:
    """(1 - e^{-x}) / x for x >= 0, 1 at x = 0."""
    safe = np.where(x > 0.0, x, 1.0)
    return np.where(x > 0.0, -np.expm1(-safe) / safe, 1.0)


# g(x) / x^3 = sum over j >= 2 of (-1)^j (2^j - 2) x^(j - 2) / (j + 1)!, for
# g(x) = x - 3/2 + 2 e^{-x} - e^{-2x} / 2: the terms to j = 25 leave a
# remainder below 1e-20 for x < 1, where g itself cancels like x^3
_G_SERIES = np.array([(-1) ** j * (2 ** j - 2) / math.factorial(j + 1)
                      for j in range(25, 1, -1)])


def _exact_steps(h: np.ndarray, b: float, sigma: float):
    """The exact step over h > 0 of an OU factor X (b, sigma) and of its
    time integral I over the step:

        X(t + h) = e^{-x} X(t) + a xi,   I = B X(t) + c xi + d eta,   x = b h,

    for independent standard normals xi and eta.  B = (1 - e^{-x}) / b;
    X(t + h) has variance a^2 = sigma^2 (1 - e^{-2x}) / (2b), I has sigma^2
    h^3 g(x) / x^3 (g as in _G_SERIES) and their covariance is
    sigma^2 B^2 / 2; c and d are its Cholesky factors.  Only b, sigma and
    the steps enter.  Returns (e^{-x}, B, a, c, d), arrays like h."""
    x = b * h
    direct = x >= 1.0
    xd = np.where(direct, x, 1.0)
    g_x3 = np.where(direct, (xd - 1.5 + 2.0 * np.exp(-xd) - 0.5 * np.exp(-2.0 * xd)) / xd ** 3,
                    np.polyval(_G_SERIES, np.where(direct, 0.0, x)))
    B = h * _relexpm1(x)
    a = np.sqrt(h * _relexpm1(2.0 * x))
    c = 0.5 * B * B / a
    d = np.sqrt(h ** 3 * g_x3 - c * c)
    return np.exp(-x), B, sigma * a, sigma * c, sigma * d


def _exact_reads(grid: np.ndarray, params: ModelParams, i: int, at: tuple, to: tuple):
    """Factor i (0-based) at the grid indices `at` and, for psi1 (i = 0), its
    time integrals from 0 to the indices `to`, stepped exactly from each
    read date to the next: psi1 by the joint step of _exact_steps on two
    normals (xi_k, eta_k) per step, psi3 by the OU step alone on one.  Each
    read is const + w @ M for the steps' normals w, in step order.  Returns
    (const, M), one entry and one column of M per read, `at` first."""
    b, sigma = params.b(i + 1), params.sigma(i + 1)
    dates = sorted((set(at) | set(to)) - {0})
    decay, B, a, c, d = _exact_steps(np.diff(grid[[0] + dates]), b, sigma)
    joint = i == 0
    width = (1 + joint) * len(dates)
    # (mean, deviation's weights on the normals) of the factor and of its
    # integral at each read date
    x, ix = (params.psi0[i], np.zeros(width)), (0.0, np.zeros(width))
    value, integral = {0: x}, {0: ix}
    for k, date in enumerate(dates):
        if joint:
            dev = ix[1] + B[k] * x[1]
            dev[2 * k:2 * k + 2] += c[k], d[k]
            ix = integral[date] = (ix[0] + B[k] * x[0], dev)
        dev = decay[k] * x[1]
        dev[(1 + joint) * k] += a[k]
        x = value[date] = (decay[k] * x[0], dev)
    rows = [value[k] for k in at] + [integral[k] for k in to]
    return np.array([mean for mean, _ in rows]), np.array([dev for _, dev in rows]).T


def _trapezoid_columns(times: np.ndarray, to) -> np.ndarray:
    """Trapezoid weights over the grid points, one column per integral from
    0 to times[k], k in `to`: first on the fine grid, then on the coarse
    subgrid times[::2] (every read date is a coarse point)."""
    cols = np.zeros((times.size, 2 * len(to)))
    for col, (step, k) in enumerate((s, k) for s in (1, 2) for k in to):
        w = cols[:k + 1:step, col]
        half = 0.5 * np.diff(times[:k + 1:step])
        w[:-1] += half
        w[1:] += half
    return cols


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b in row blocks of at most _MATMUL_MADDS multiply-adds each."""
    rows = max(1, _MATMUL_MADDS // max(1, a.shape[1] * b.shape[1]))
    out = np.empty((a.shape[0], b.shape[1]))
    for r in range(0, a.shape[0], rows):
        np.matmul(a[r:r + rows], b, out=out[r:r + rows])
    return out


def _substream(seed: int, block_index: int) -> np.random.Generator:
    """The generator of one block: its own counter-derived Philox substream
    of the master seed."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block_index,))
    return np.random.Generator(np.random.Philox(ss))


def _block_sizes(config: McConfig) -> list:
    """Paths per block in block order, or antithetic pairs per block."""
    if config.antithetic:
        total, per_block = (config.n_paths + 1) // 2, _BLOCK // 2
    else:
        total, per_block = config.n_paths, _BLOCK
    return [min(per_block, total - start) for start in range(0, total, per_block)]


def _worker_count(blocks: int, workspace_bytes: int) -> int:
    """Threads to run the blocks on: at most the CPUs this process may run
    on, the blocks, and the workspaces that fit in _BLOCK_BYTES (one always
    does: a grid is refused at 3/2 of the largest workspace)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, blocks, _BLOCK_BYTES // workspace_bytes)


@dataclass(frozen=True)
class _Reads:
    """What a payoff reads off each path: the factors at the grid indices
    `at`, and the time integrals of psi1 and psi2^2 (and of psi3^2 with
    `spread`) from 0 to each grid index in `to`."""
    at: tuple = ()
    to: tuple = ()
    spread: bool = False

    @property
    def factors(self) -> int:
        """Factors read: reading only the short rate's integrals (the OIS
        bond) leaves psi3 out, and draws none of its normals."""
        return 3 if self.at or self.spread else 2


def _run(
    params: ModelParams,
    times: np.ndarray,
    config: McConfig,
    payoff: Callable[[np.ndarray, np.ndarray], np.ndarray],
    reads: _Reads,
) -> McEstimate:
    """Estimate E[payoff] with the fine grid, plus the coarse-subgrid bias
    proxy evaluated on the identical paths.

    payoff(psi, ints) -> per-path values: psi has shape (reads.factors, n,
    len(reads.at)), the factors at reads.at; ints has shape (2, n,
    len(reads.to)), or (3, ...) with reads.spread, the integrals of psi1,
    psi2^2 and psi3^2 to reads.to on one grid.  Only the grid up to the
    last read is built.
    """
    end = max(reads.at + reads.to)
    grid = times[:end + 1]
    at, n_at, n_to = list(reads.at), len(reads.at), len(reads.to)
    trap = _trapezoid_columns(grid, reads.to)
    # psi1, and psi3 unless its square is integrated, are stepped exactly
    # between the read dates: one product each with their normals; psi2 (and
    # psi3 with reads.spread) is built as a path on the grid
    exact = {0: _exact_reads(grid, params, 0, reads.at, reads.to)}
    if reads.at and not reads.spread:
        exact[2] = _exact_reads(grid, params, 2, reads.at, ())
    # every read is c + d on the paths of the normals and c - d on those of
    # their mirror; the integrals of psi2^2 and psi3^2 add e, that of the
    # squared deviation.  c, the mean path's reads, is the same in every block
    paths = {}  # factor -> (its row of the integrals, step constants, decay, cross weights)
    val_c = np.empty((reads.factors, 1, n_at))
    int_c = np.empty((2 + reads.spread, 1, 2 * n_to))
    for i, (const, _) in exact.items():
        val_c[i, 0] = const[:n_at]
    # psi1's integral is exact: the same on the fine grid and the coarse one
    int_c[0, 0, :n_to] = int_c[0, 0, n_to:] = exact[0][0][n_at:]
    for row, i in enumerate((1, 2) if reads.spread else (1,), start=1):
        b = params.b(i + 1)
        decay = np.exp(-b * grid)
        mean = params.psi0[i] * decay
        val_c[i, 0] = mean[at]
        int_c[row, 0] = mean ** 2 @ trap
        paths[i] = (row, _step_constants(grid, b, params.sigma(i + 1)), decay,
                    mean[:, None] * trap)

    # a worker's workspace: normals, for one path over the grid or for the
    # exact steps (two per read date at most, and read dates are two fine
    # steps apart or more), which the square of a built path reuses once
    # they are spent, and that path
    sizes = _block_sizes(config)
    largest, width = max(sizes), max(end + 1, *(m.shape[0] for _, m in exact.values()))
    workers = _worker_count(len(sizes), 8 * largest * (width + end + 1))
    # allocated here, on the calling thread: blocks that allocated their own
    # grew the process through glibc's per-thread malloc arenas; each worker
    # thread takes one as it starts
    workspaces = [(np.empty(largest * width), np.empty(largest * (end + 1)))
                  for _ in range(workers)]
    local = threading.local()

    def take_workspace():
        local.workspace = workspaces.pop()

    def block(index: int, n: int):
        """(sum of the values, of their squares, of the coarse values) of
        block `index`, n paths or antithetic pairs."""
        normals, path = local.workspace
        rng = _substream(config.seed, index)
        val_d = np.empty((reads.factors, n, n_at))
        int_d = np.empty((len(int_c), n, 2 * n_to))
        int_e = np.zeros_like(int_d)
        # the draws, in their fixed order: the paths' normals over [0, end],
        # psi2's then psi3's, then the exact steps', psi1's then psi3's
        dev = path[:n * (end + 1)].reshape(n, end + 1)
        for i, (row, consts, decay, cross) in paths.items():
            z = rng.standard_normal(out=normals[:n * end].reshape(n, end))
            _ou_deviation(z, consts, decay, dev)
            val_d[i] = dev[:, at]
            int_d[row] = 2.0 * _matmul(dev, cross)
            square = np.multiply(dev, dev, out=normals[:dev.size].reshape(dev.shape))
            int_e[row] = _matmul(square, trap)
        for i, (_, weights) in exact.items():
            z = rng.standard_normal(out=normals[:n * weights.shape[0]].reshape(n, -1))
            d = _matmul(z, weights)
            val_d[i] = d[:, :n_at]
            if i == 0:
                int_d[0, :, :n_to] = int_d[0, :, n_to:] = d[:, n_at:]
        halves = [(val_c + val_d, int_c + int_d + int_e)]
        if config.antithetic:
            halves.append((val_c - val_d, int_c - int_d + int_e))
        # a payoff past the float range would leave an inf or NaN mean
        try:
            with np.errstate(over="raise"):
                vals = sum(payoff(psi, ints[:, :, :n_to]) for psi, ints in halves)
                vals_c = sum(payoff(psi, ints[:, :, n_to:]) for psi, ints in halves)
                if config.antithetic:
                    vals, vals_c = 0.5 * vals, 0.5 * vals_c
                sums = float(np.sum(vals)), float(np.sum(vals * vals)), float(np.sum(vals_c))
        except FloatingPointError as exc:
            raise TwoCurveError(f"a simulated payoff passes the float range ({exc})") from exc
        # a NaN payoff would pass the bias gate below with a NaN estimate
        if not all(map(math.isfinite, sums)):
            raise TwoCurveError(f"a simulated payoff is not finite: block sums {sums}")
        return sums

    with ThreadPoolExecutor(workers, initializer=take_workspace) as pool:
        # each block in a copy of the caller's context, which holds numpy's
        # error state; map yields in block order, so the first block to fail
        # raises, and cancels the blocks not yet started
        contexts = [contextvars.copy_context() for _ in sizes]
        sums = list(pool.map(lambda context, index, n: context.run(block, index, n),
                             contexts, range(len(sizes)), sizes))
    # reduced in block order, whatever order the blocks ran in
    s1 = s2 = sc = 0.0
    for b1, b2, bc in sums:
        s1, s2, sc = s1 + b1, s2 + b2, sc + bc
    n_samples = sum(sizes)
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


def mc_bond(
    params: ModelParams, T: float, curve: str, config: McConfig
) -> McEstimate:
    """Bond price as E[exp(-integral of the short rate (plus spread))]."""
    if curve not in ("OIS", "LIBOR"):
        raise ValueError(f"unknown curve {curve!r}")
    times = _make_grid([T], config.steps_per_year)
    end = (times.size - 1,)
    if curve == "LIBOR":
        # rate psi1 + psi2^2 plus spread kappa psi1 + psi3^2
        one_kappa = 1.0 + params.kappa
        return _run(params, times, config,
                    lambda psi, ints: np.exp(-(one_kappa * ints[0, :, 0] + ints[1, :, 0]
                                               + ints[2, :, 0])),
                    _Reads(to=end, spread=True))
    return _run(params, times, config,
                lambda psi, ints: np.exp(-(ints[0, :, 0] + ints[1, :, 0])),
                _Reads(to=end))


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
    It runs on a worker thread, concurrently with its calls for other
    blocks of paths.
    """
    p0 = ois_bond(FactorState(0.0, params.psi0), T_star, params).value
    cb = coeffs.bundle(T, T_star, params)

    # the factors are read at T only, so the grid ends there
    times = _make_grid([T], config.steps_per_year)
    at_T = (times.size - 1,)

    def discounted(psi, ints):
        psi_t = psi[:, :, 0]
        bank = np.exp(ints[0, :, 0] + ints[1, :, 0])
        p_t = np.exp(-cb.A - cb.B1 * psi_t[0] - cb.C22 * psi_t[1] ** 2)
        return p_t / (bank * p0) * payoff(psi_t)

    return _run(params, times, config, discounted, _Reads(at=at_T, to=at_T))


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
        times = _make_grid([swap.T0], config.steps_per_year)
        at_t0 = (times.size - 1,)

        def payoff(psi, ints):
            x, y, z = psi[:, :, 0]
            value = asm.g(x, y, z) - asm.h(x, y)
            disc = np.exp(-(ints[0, :, 0] + ints[1, :, 0]))
            return swap.notional * disc * np.maximum(value, 0.0)

        return _run(params, times, config, payoff, _Reads(at=at_t0, to=at_t0))

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
    # 1 / pbar(t_fix, t_fix + accrual) is exp of these coefficients at the
    # simulated factor values
    bundles = [(coeffs.bundle(fix, fix + accrual, params), 1.0 + accrual * product.R)
               for fix, _, accrual in periods]
    reads = _Reads(at=tuple(int(np.searchsorted(times, fix)) for fix, _, _ in periods),
                   to=tuple(int(np.searchsorted(times, pay)) for _, pay, _ in periods))

    def payoff(psi, ints):
        disc = np.exp(-(ints[0] + ints[1]))
        total = 0.0
        for k, (cb, par) in enumerate(bundles):
            x, y, z = psi[:, :, k]
            flow = (np.exp(cb.A_bar + cb.B1_bar * x + cb.C22 * y ** 2 + cb.C33_bar * z ** 2)
                    - par)
            if sign is not None:
                flow = np.maximum(sign * flow, 0.0)
            total = total + product.notional * disc[:, k] * flow
        return total

    return _run(params, times, config, payoff, reads)
