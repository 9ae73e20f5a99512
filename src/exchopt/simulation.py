"""Correlated three-factor Monte Carlo for the shared-volatility model.

Variance follows full-truncation Euler (the negative part of v is truncated
inside both drift and diffusion), assets follow log-Euler on the truncated
variance.  A constant-volatility Margrabe/Black-Scholes control variate rides
on the same Brownian increments.

Paths are generated in fixed blocks of ``BLOCK_SIZE``; block b of a run with
seed s draws from a dedicated Philox stream keyed (s, b), so results are
bit-identical for a given (seed, n_paths, n_steps) no matter how blocks are
scheduled across workers.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import margrabe
from .errors import InputError, NumericalError
from .models import TwoAssetModel, cholesky3, validate_correlation

__all__ = [
    "McConfig",
    "PriceEstimate",
    "TerminalSample",
    "cholesky3",
    "simulate_terminal",
    "simulate_exchange",
    "simulate_vanilla",
    "exchange_estimate_from_sample",
    "BLOCK_SIZE",
    "DEFAULT_STEPS_PER_YEAR",
]

BLOCK_SIZE = 4096

# Full-truncation Euler bias is O(dt); dt = 1/2000 keeps it below one standard
# error at 1e5 paths for the short maturities where the control variate makes
# stderr small.  (Coarser "daily" stepping fails the step-refinement check.)
DEFAULT_STEPS_PER_YEAR = 2000

# The control-variate beta is fitted only when at least this many control
# payoffs are non-zero; a regression on a handful of hits can move the estimate
# many standard errors (deep out-of-the-money controls at short maturity), so
# sparser controls keep beta = 1.
_MIN_FIT_NONZERO_CONTROL = 10


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo settings.  ``n_steps`` counts Euler steps per year; a run of
    maturity T uses ceil(n_steps * T) steps."""

    n_paths: int = 100_000
    n_steps: int = DEFAULT_STEPS_PER_YEAR
    seed: int = 0
    use_control_variate: bool = True
    jobs: int = 1

    def __post_init__(self):
        if self.n_paths < 1:
            raise InputError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.n_steps < 1:
            raise InputError(f"n_steps must be >= 1, got {self.n_steps}")
        if not 0 <= self.seed < 2**64:
            raise InputError(f"seed must fit in 64 bits, got {self.seed}")
        if self.jobs < 1:
            raise InputError(f"jobs must be >= 1, got {self.jobs}")

    def steps_for(self, T: float) -> int:
        return max(1, math.ceil(self.n_steps * T))


@dataclass(frozen=True)
class PriceEstimate:
    """Monte Carlo value with standard error and reproducibility metadata."""

    value: float
    stderr: float
    n_paths: int
    seed: int
    beta: float | None = None  # control-variate coefficient actually applied

    def __post_init__(self):
        if self.stderr < 0:
            raise InputError(f"stderr must be >= 0, got {self.stderr}")


@dataclass(frozen=True)
class TerminalSample:
    """Terminal unit-spot factors of one simulation run.

    ``rx, ry``: gross returns S_T^i / S_0^i of the Heston legs.
    ``gx, gy``: gross returns of the constant-vol control-variate legs driven
    by the same increments.  Prices for any spot pair follow by homogeneity.
    """

    rx: np.ndarray
    ry: np.ndarray
    gx: np.ndarray
    gy: np.ndarray
    T: float
    sigma_cv_x: float
    sigma_cv_y: float


def _simulate_block(
    block_index: int,
    n_in_block: int,
    model: TwoAssetModel,
    L: np.ndarray,
    T: float,
    n_steps: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One fixed block of paths from its own Philox stream."""
    dt = T / n_steps
    sdt = math.sqrt(dt)
    h = model.heston
    lam_x, lam_y = model.lam_x, model.lam_y
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, block_index], dtype=np.uint64))
    )
    v = np.full(n_in_block, h.v0)
    log_x = np.zeros(n_in_block)
    log_y = np.zeros(n_in_block)
    w_x = np.zeros(n_in_block)
    w_y = np.zeros(n_in_block)
    # draws come in fixed step chunks (layout independent of scheduling; the
    # generator consumes values sequentially, so chunking is memory-only)
    chunk = 256
    for start in range(0, n_steps, chunk):
        todo = min(chunk, n_steps - start)
        Z = rng.standard_normal((todo, 3, BLOCK_SIZE))[:, :, :n_in_block]
        for t in range(todo):
            e = L @ Z[t]
            v_pos = np.maximum(v, 0.0)
            sq = np.sqrt(v_pos)
            log_x += (-0.5 * lam_x * lam_x) * v_pos * dt + lam_x * sdt * sq * e[0]
            log_y += (-0.5 * lam_y * lam_y) * v_pos * dt + lam_y * sdt * sq * e[1]
            w_x += e[0]
            w_y += e[1]
            v = v + h.kappa * (h.theta - v_pos) * dt + h.nu * sdt * sq * e[2]
    if not (np.all(np.isfinite(log_x)) and np.all(np.isfinite(log_y))):
        raise NumericalError(
            f"non-finite path values in block {block_index} (T={T}, steps={n_steps})"
        )
    s0 = h.sigma0
    gx = np.exp(-0.5 * (lam_x * s0) ** 2 * T + lam_x * s0 * sdt * w_x)
    gy = np.exp(-0.5 * (lam_y * s0) ** 2 * T + lam_y * s0 * sdt * w_y)
    return np.exp(log_x), np.exp(log_y), gx, gy


def simulate_terminal(model: TwoAssetModel, T: float, mc: McConfig) -> TerminalSample:
    """Simulate terminal normalized returns for both legs and their
    control-variate companions.  Deterministic in (seed, n_paths, n_steps)
    regardless of ``mc.jobs``."""
    if not (np.isfinite(T) and T > 0):
        raise InputError(f"T must be positive, got {T}")
    L = cholesky3(model.corr)
    n_steps = mc.steps_for(T)
    n_blocks = (mc.n_paths + BLOCK_SIZE - 1) // BLOCK_SIZE

    sizes = [
        min(mc.n_paths, (b + 1) * BLOCK_SIZE) - b * BLOCK_SIZE for b in range(n_blocks)
    ]

    def run(b: int):
        return _simulate_block(b, sizes[b], model, L, T, n_steps, mc.seed)

    if mc.jobs > 1 and n_blocks > 1:
        with ThreadPoolExecutor(max_workers=mc.jobs) as pool:
            parts = list(pool.map(run, range(n_blocks)))
    else:
        parts = [run(b) for b in range(n_blocks)]

    rx = np.concatenate([p[0] for p in parts])
    ry = np.concatenate([p[1] for p in parts])
    gx = np.concatenate([p[2] for p in parts])
    gy = np.concatenate([p[3] for p in parts])
    return TerminalSample(
        rx=rx, ry=ry, gx=gx, gy=gy, T=T,
        sigma_cv_x=model.lam_x * model.heston.sigma0,
        sigma_cv_y=model.lam_y * model.heston.sigma0,
    )


def _estimate(
    leg_x: np.ndarray, leg_y: np.ndarray | float, cv_x: np.ndarray, cv_y: np.ndarray | float,
    s0x: float, s0y: float, sigma_cv: float, T: float, mc: McConfig,
) -> PriceEstimate:
    """Estimate of E(leg_x - leg_y)^+ from terminal leg values.  With the
    control variate on, (cv_x - cv_y)^+ is the control; its mean is the
    Margrabe price of (s0x, s0y) at sigma_cv, or the intrinsic value when
    sigma_cv or s0y is 0."""
    payoff = np.maximum(leg_x - leg_y, 0.0)
    n = payoff.shape[0]
    beta = None
    if mc.use_control_variate:
        cv_payoff = np.maximum(cv_x - cv_y, 0.0)
        if sigma_cv == 0.0 or s0y == 0.0:
            cv_mean = max(s0x - s0y, 0.0)
        else:
            cv_mean = margrabe.margrabe_price(math.log(s0x), math.log(s0y), sigma_cv, T)
        beta = 1.0  # kept when the control is too sparse or constant to fit
        if np.count_nonzero(cv_payoff) >= _MIN_FIT_NONZERO_CONTROL:
            var_cv = float(np.var(cv_payoff, ddof=1))
            if var_cv > 0.0:
                beta = float(np.cov(payoff, cv_payoff, ddof=1)[0, 1]) / var_cv
        payoff = payoff - beta * (cv_payoff - cv_mean)
    value = float(np.mean(payoff))
    err = float(np.std(payoff, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return PriceEstimate(value, err, n, mc.seed, beta=beta)


def exchange_estimate_from_sample(
    sample: TerminalSample,
    s0x: float,
    s0y: float,
    rho: float,
    mc: McConfig,
) -> PriceEstimate:
    """Exchange-option estimate for the spot pair (s0x, s0y) from an existing
    normalized sample (payoff homogeneity in the initial spots)."""
    sx, sy = sample.sigma_cv_x, sample.sigma_cv_y
    # not margrabe.convention_gamma: x**2 and x*x differ in the last bit for some x
    sigma_cv = math.sqrt(max(sx**2 + sy**2 - 2.0 * rho * sx * sy, 0.0))
    return _estimate(
        s0x * sample.rx, s0y * sample.ry, s0x * sample.gx, s0y * sample.gy,
        s0x, s0y, sigma_cv, sample.T, mc,
    )


def simulate_exchange(model: TwoAssetModel, T: float, mc: McConfig) -> PriceEstimate:
    """Monte Carlo value of E(S_T^X - S_T^Y)^+ with the constant-volatility
    Margrabe control variate (beta fitted per run unless disabled or the
    control is too sparse to fit)."""
    sample = simulate_terminal(model, T, mc)
    return exchange_estimate_from_sample(sample, model.s0x, model.s0y, model.rho, mc)


def simulate_vanilla(
    model: TwoAssetModel, asset_id: str, strike: float, T: float, mc: McConfig
) -> PriceEstimate:
    """One-leg vanilla call estimate with a Black-Scholes control variate at
    the leg's spot volatility lam_i sigma0.  Uses the same three-factor path
    engine so the leg dynamics match simulate_exchange exactly.  A call struck
    at K is the option to exchange the leg for a riskless asset worth K
    (Margrabe 1978), so it goes through the exchange estimator."""
    if not (np.isfinite(strike) and strike >= 0):
        raise InputError(f"strike must be >= 0, got {strike}")
    s0 = model.asset(asset_id).s0
    sample = simulate_terminal(model, T, mc)
    if asset_id == "X":
        r, g, sigma_cv = sample.rx, sample.gx, sample.sigma_cv_x
    else:
        r, g, sigma_cv = sample.ry, sample.gy, sample.sigma_cv_y
    return _estimate(s0 * r, strike, s0 * g, strike, s0, strike, sigma_cv, T, mc)
