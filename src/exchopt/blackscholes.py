"""Black-Scholes call pricing in log coordinates (r = 0) and robust implied vol.

Everything works on log spot ``x`` and log strike ``k``; prices are undiscounted
(zero rates throughout the library).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr  # erfc-based normal CDF, abs error < 1e-15

from .errors import DomainError, InputError, NumericalError

__all__ = [
    "bs_price",
    "bs_vega",
    "implied_vol",
    "norm_cdf",
    "norm_pdf",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Newton/bisection settings for implied_vol
_IV_BRACKET_LO = 1e-6
_IV_BRACKET_HI = 5.0
_IV_NEWTON_SEED = 0.5
_IV_MAX_ITER = 100
_IV_PRICE_TOL = 1e-12  # relative to e^x


def norm_cdf(z):
    """Standard normal CDF via the complementary error function."""
    return ndtr(z)


def norm_pdf(z):
    return np.exp(-0.5 * np.asarray(z) ** 2) / _SQRT_2PI


def _check_finite(**kwargs):
    for name, v in kwargs.items():
        if not np.isfinite(v):
            raise InputError(f"non-finite {name}={v}")


def bs_price(t: float, x: float, k: float, sigma: float, T: float) -> float:
    """Undiscounted Black-Scholes call: e^x N(d1) - e^k N(d2).

    d1 = (x - k)/(sigma sqrt(T-t)) + sigma sqrt(T-t)/2.  Zero total standard
    deviation (T == t or sigma == 0) returns the intrinsic value so terminal
    payoffs can be evaluated through the same code path.
    """
    _check_finite(t=t, x=x, k=k, sigma=sigma, T=T)
    if T < t:
        raise InputError(f"T={T} < t={t}")
    if sigma < 0:
        raise InputError(f"negative sigma={sigma}")
    return _call(x, k, sigma, T - t)


def bs_vega(t: float, x: float, k: float, sigma: float, T: float) -> float:
    """Analytic dBS/dsigma = e^x phi(d1) sqrt(T-t); zero at expiry."""
    _check_finite(t=t, x=x, k=k, sigma=sigma, T=T)
    if T < t:
        raise InputError(f"T={T} < t={t}")
    tau = T - t
    if tau == 0.0 or sigma <= 0.0:
        return 0.0
    return _vega(x, k, sigma, tau)


def _call(x: float, k: float, sigma: float, tau: float) -> float:
    """bs_price without argument checks, for tau = T - t >= 0 and sigma >= 0."""
    s = sigma * math.sqrt(tau)
    if s == 0.0:
        return max(math.exp(x) - math.exp(k), 0.0)
    d1 = (x - k) / s + 0.5 * s
    return float(math.exp(x) * ndtr(d1) - math.exp(k) * ndtr(d1 - s))


def _vega(x: float, k: float, sigma: float, tau: float) -> float:
    """bs_vega without argument checks, for tau > 0 and sigma > 0."""
    s = sigma * math.sqrt(tau)
    d1 = (x - k) / s + 0.5 * s
    return float(math.exp(x) * norm_pdf(d1) * math.sqrt(tau))


def implied_vol(price: float, t: float, x: float, k: float, T: float) -> float:
    """Invert the call price for sigma.

    Newton iteration seeded at sigma = 0.5 with a maintained bisection bracket;
    the bracket starts at [1e-6, 5] and the upper end doubles while the quote
    exceeds it.  Converges to |BS(sigma) - price| <= 1e-12 e^x.

    Raises DomainError when the price violates the strict no-arbitrage bracket
    intrinsic < price < e^x, NumericalError when the iteration cap is hit.
    """
    _check_finite(price=price, t=t, x=x, k=k, T=T)
    if T <= t:
        raise DomainError(f"cannot invert at expiry: T={T} <= t={t}")
    spot = math.exp(x)
    intrinsic = max(spot - math.exp(k), 0.0)
    if not (intrinsic < price < spot):
        raise DomainError(
            f"price {price} outside arbitrage bounds ({intrinsic}, {spot})"
        )
    tol = _IV_PRICE_TOL * spot
    tau = T - t

    lo, hi = _IV_BRACKET_LO, _IV_BRACKET_HI
    while _call(x, k, hi, tau) < price:
        hi *= 2.0
        if hi > 1e3:
            raise DomainError(f"price {price} not attainable below sigma={hi}")
    if _call(x, k, lo, tau) > price:
        raise DomainError(f"price {price} below sigma={lo} value")

    sigma = _IV_NEWTON_SEED if lo < _IV_NEWTON_SEED < hi else 0.5 * (lo + hi)
    for _ in range(_IV_MAX_ITER):
        diff = _call(x, k, sigma, tau) - price
        if abs(diff) <= tol:
            return sigma
        # maintain the bracket around the root
        if diff > 0.0:
            hi = sigma
        else:
            lo = sigma
        v = _vega(x, k, sigma, tau)
        newton = sigma - diff / v if v > 0.0 else math.inf
        sigma = newton if lo < newton < hi else 0.5 * (lo + hi)
        if hi - lo < 1e-14:
            # bracket collapsed to float resolution; accept the midpoint
            return 0.5 * (lo + hi)
    raise NumericalError(
        f"implied vol did not converge after {_IV_MAX_ITER} iterations "
        f"(price={price}, x={x}, k={k}, T-t={T - t}, bracket=[{lo}, {hi}])"
    )
