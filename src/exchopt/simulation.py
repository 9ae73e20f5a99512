"""Monte Carlo for the shared-volatility model, conditional on the variance path.

Variance follows full-truncation Euler (the negative part of v is truncated
inside both drift and diffusion), and each step draws only its driver Z.
Given the variance path, each leg's log-return is Gaussian (Romano & Touzi
1997; Willard 1997): its Z part sum sqrt(v+) dZ (left point, compensated with
the left-point sum of v+) is read off the path, and its part orthogonal to Z
(variance the trapezoid sum of v+) comes from one standard normal per path and
orthogonal factor, drawn after the last step.  The constant-volatility
Margrabe/Black-Scholes control legs read the same Z sums and the same normals,
so each control is exact geometric Brownian motion whatever the variance path.

Paths are generated in fixed blocks of ``BLOCK_SIZE``; block b of a run with
seed s draws from its own SFC64 stream, child b of ``SeedSequence(s)``, so
results are bit-identical for a given (seed, n_paths, n_steps) no matter how
blocks are scheduled across workers.  A block draws one step's normals at a
time, so memory does not grow with the step count; each step draws a full
``BLOCK_SIZE`` row, so a path's draws do not depend on n_paths.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import margrabe
from .errors import InputError, NumericalError, non_negative, positive
from .models import CorrelationStructure, TwoAssetModel, cholesky3, validate_correlation

__all__ = [
    "McConfig",
    "PriceEstimate",
    "TerminalSample",
    "cholesky3",
    "validate_correlation",
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
    maturity T uses ceil(n_steps * T) steps, a product within 1e-12 (relative)
    of a whole number counting as that number (2000 * 4.03 is 8060.000000000001)."""

    n_paths: int = 100_000
    n_steps: int = DEFAULT_STEPS_PER_YEAR
    seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        for name, low in (("n_paths", 1), ("n_steps", 1), ("seed", 0), ("jobs", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InputError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise InputError(f"{name} must be >= {low}, got {value}")
        if self.seed >= 2**64:
            raise InputError(f"seed must fit in 64 bits, got {self.seed}")

    def steps_for(self, T: float) -> int:
        steps = self.n_steps * T
        whole = round(steps)
        return max(1, whole if abs(steps - whole) <= 1e-12 * steps else math.ceil(steps))


@dataclass(frozen=True)
class PriceEstimate:
    """Monte Carlo value with standard error and reproducibility metadata."""

    value: float
    stderr: float
    n_paths: int
    seed: int
    beta: float  # control-variate coefficient actually applied

    def __post_init__(self):
        non_negative(stderr=self.stderr)


@dataclass(frozen=True)
class TerminalSample:
    """Terminal unit-spot factors of one simulation run and its inputs.

    ``rx, ry``: gross returns S_T^i / S_0^i of the Heston legs.
    ``gx, gy``: gross returns of the constant-vol (lam_i sigma0) control legs,
    exact GBM with correlation rho, driven by the Z path and orthogonal normals
    of their own leg.  Prices for any spot pair follow by homogeneity.
    """

    rx: np.ndarray
    ry: np.ndarray
    gx: np.ndarray
    gy: np.ndarray
    T: float
    model: TwoAssetModel
    mc: McConfig


def _simulate_block(
    block_index: int, n_in_block: int, model: TwoAssetModel, L: np.ndarray, T: float,
    n_steps: int, seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(rx, gx, ry, gy) of one block of paths drawn under SFC64 from child
    ``block_index`` of ``SeedSequence(seed)``; rows 1 and 2 of the Z-first ``L``
    load W^X and W^Y on Z and on two factors orthogonal to Z, shared by leg and control."""
    dt = T / n_steps
    sdt = math.sqrt(dt)
    h = model.heston
    rng = np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(block_index,)))
    )
    z_row = np.empty(BLOCK_SIZE)
    z = z_row[:n_in_block]
    v = np.full(n_in_block, h.v0)
    v_pos, sq, drift = np.empty((3, n_in_block))
    # per path: sum v+ (left point), sum sqrt(v+) z, sum z
    i_left, j, z_sum = np.zeros((3, n_in_block))
    for _ in range(n_steps):
        rng.standard_normal(out=z_row)
        np.sqrt(np.maximum(v, 0.0, out=v_pos), out=sq)
        i_left += v_pos
        sq *= z
        j += sq
        z_sum += z
        np.multiply(np.subtract(h.theta, v_pos, out=drift), h.kappa * dt, out=drift)
        drift += np.multiply(sq, h.nu * sdt, out=sq)
        v += drift
    # trapezoid sum Q of v+: half weight on v_0 and v_N
    q = 0.5 * (np.maximum(v, 0.0, out=v_pos) - h.v0) + i_left
    # given the path, sum sqrt(v+) dW over unit-variance steps dW of a factor
    # orthogonal to Z is N(0, Q), and sum dW is N(0, n_steps): one standard
    # normal per path and factor, scaled by sqrt(Q) for the leg and by
    # sqrt(n_steps) for its control
    e1, e2 = rng.standard_normal((2, BLOCK_SIZE))[:, :n_in_block]
    root_q = np.sqrt(q, out=v)
    out = []
    for lam, (rho_i, l_1, l_2) in ((model.lam_x, L[1]), (model.lam_y, L[2])):
        # the leg's orthogonal normal, in buffers the step loop is done with
        e = np.multiply(e1, l_1, out=sq)
        e += np.multiply(e2, l_2, out=z)
        log_r = e * root_q
        log_r += rho_i * j
        log_r *= lam * sdt
        log_r -= (0.5 * lam * lam * dt * rho_i * rho_i) * i_left
        log_r -= (0.5 * lam * lam * dt * (1.0 - rho_i * rho_i)) * q
        if not np.all(np.isfinite(log_r)):
            raise NumericalError(
                f"non-finite path values in block {block_index} (T={T}, steps={n_steps})"
            )
        log_g = e * math.sqrt(n_steps)
        log_g += rho_i * z_sum
        log_g *= lam * h.sigma0 * sdt
        log_g -= 0.5 * (lam * h.sigma0) ** 2 * T
        out += [np.exp(log_r, out=log_r), np.exp(log_g, out=log_g)]
    return tuple(out)


def simulate_terminal(model: TwoAssetModel, T: float, mc: McConfig) -> TerminalSample:
    """Simulate terminal normalized returns for both legs and their
    control-variate companions.  Deterministic in (seed, n_paths, n_steps)
    regardless of ``mc.jobs``."""
    positive(T=T)
    c = model.corr
    # the verdict runs inside cholesky3 and does not depend on the factor order
    L = cholesky3(CorrelationStructure(rho=c.rho_x, rho_x=c.rho_y, rho_y=c.rho))
    n_steps = mc.steps_for(T)
    n_blocks = (mc.n_paths + BLOCK_SIZE - 1) // BLOCK_SIZE

    def run(b: int):
        n_in_block = min(BLOCK_SIZE, mc.n_paths - b * BLOCK_SIZE)
        return _simulate_block(b, n_in_block, model, L, T, n_steps, mc.seed)

    with ThreadPoolExecutor(max_workers=mc.jobs) as pool:
        parts = list(pool.map(run, range(n_blocks)))
    rx, gx, ry, gy = (np.concatenate(leg) for leg in zip(*parts))
    return TerminalSample(rx=rx, ry=ry, gx=gx, gy=gy, T=T, model=model, mc=mc)


def _estimate(
    leg_x: np.ndarray, leg_y: np.ndarray | float, cv_x: np.ndarray, cv_y: np.ndarray | float,
    s0x: float, s0y: float, sigma_cv: float, T: float, mc: McConfig,
) -> PriceEstimate:
    """Estimate of E(leg_x - leg_y)^+ from terminal leg values, with the
    control (cv_x - cv_y)^+; its mean is the Margrabe price of (s0x, s0y) at
    sigma_cv, or the intrinsic value when sigma_cv or s0y is 0."""
    payoff = np.maximum(leg_x - leg_y, 0.0)
    n = payoff.shape[0]
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
    sample: TerminalSample, s0x: float, s0y: float
) -> PriceEstimate:
    """Exchange-option estimate for the spot pair (s0x, s0y) from an existing
    normalized sample (payoff homogeneity in the initial spots)."""
    positive(s0x=s0x, s0y=s0y)
    model = sample.model
    sx, sy = model.lam_x * model.heston.sigma0, model.lam_y * model.heston.sigma0
    sigma_cv = margrabe.convention_gamma(sx, sy, model.rho)
    return _estimate(
        s0x * sample.rx, s0y * sample.ry, s0x * sample.gx, s0y * sample.gy,
        s0x, s0y, sigma_cv, sample.T, sample.mc,
    )


def simulate_exchange(model: TwoAssetModel, T: float, mc: McConfig) -> PriceEstimate:
    """Monte Carlo value of E(S_T^X - S_T^Y)^+ with the constant-volatility
    Margrabe control variate (beta fitted per run unless the control is too
    sparse to fit)."""
    sample = simulate_terminal(model, T, mc)
    return exchange_estimate_from_sample(sample, model.s0x, model.s0y)


def simulate_vanilla(
    model: TwoAssetModel, asset_id: str, strike: float, T: float, mc: McConfig
) -> PriceEstimate:
    """One-leg vanilla call estimate with a Black-Scholes control variate at
    the leg's spot volatility lam_i sigma0.  Uses the same path engine as
    simulate_exchange, so the leg dynamics match it exactly.  A call struck
    at K is the option to exchange the leg for a riskless asset worth K
    (Margrabe 1978), so it goes through the exchange estimator."""
    non_negative(strike=strike)
    leg = model.asset(asset_id)
    s0, sigma_cv = leg.s0, leg.lam * model.heston.sigma0
    sample = simulate_terminal(model, T, mc)
    r, g = (sample.rx, sample.gx) if asset_id == "X" else (sample.ry, sample.gy)
    return _estimate(s0 * r, strike, s0 * g, strike, s0, strike, sigma_cv, T, mc)
