"""Black-Scholes call pricing in log coordinates (r = 0) and robust implied vol.

Everything works on log spot ``x``, log strike ``k`` and time to expiry ``T``;
prices are undiscounted (zero rates throughout the library).
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


def bs_price(x: float, k: float, sigma: float, T: float) -> float:
    """Undiscounted Black-Scholes call: e^x N(d1) - e^k N(d2).

    d1 = (x - k)/(sigma sqrt(T)) + sigma sqrt(T)/2 with T the time to expiry.
    Zero total standard deviation (T == 0 or sigma == 0) returns the intrinsic
    value so terminal payoffs can be evaluated through the same code path.
    """
    _check_finite(x=x, k=k, sigma=sigma, T=T)
    if T < 0:
        raise InputError(f"negative time to expiry T={T}")
    if sigma < 0:
        raise InputError(f"negative sigma={sigma}")
    return _call(x, k, sigma, T)


def bs_vega(x: float, k: float, sigma: float, T: float) -> float:
    """Analytic dBS/dsigma = e^x phi(d1) sqrt(T); zero at expiry."""
    _check_finite(x=x, k=k, sigma=sigma, T=T)
    if T < 0:
        raise InputError(f"negative time to expiry T={T}")
    if T == 0.0 or sigma <= 0.0:
        return 0.0
    return _vega(x, k, sigma, T)


def _call(x: float, k: float, sigma: float, T: float) -> float:
    """bs_price without argument checks, for T >= 0 and sigma >= 0."""
    s = sigma * math.sqrt(T)
    if s == 0.0:
        return max(math.exp(x) - math.exp(k), 0.0)
    d1 = (x - k) / s + 0.5 * s
    return float(math.exp(x) * ndtr(d1) - math.exp(k) * ndtr(d1 - s))


def _vega(x: float, k: float, sigma: float, T: float) -> float:
    """bs_vega without argument checks, for T > 0 and sigma > 0."""
    s = sigma * math.sqrt(T)
    d1 = (x - k) / s + 0.5 * s
    return float(math.exp(x) * norm_pdf(d1) * math.sqrt(T))


def implied_vol(price: float, x: float, k: float, T: float) -> float:
    """Invert the call price for sigma at time to expiry T.

    Newton iteration seeded at sigma = 0.5 with a maintained bisection bracket;
    the bracket starts at [1e-6, 5] and the upper end doubles while the quote
    exceeds it.  Converges to |BS(sigma) - price| <= 1e-12 e^x.

    Raises DomainError at expiry (T == 0) or when the price violates the strict
    no-arbitrage bracket intrinsic < price < e^x, NumericalError when the
    iteration cap is hit.
    """
    _check_finite(price=price, x=x, k=k, T=T)
    if T <= 0:
        raise DomainError(f"cannot invert at expiry: T={T} <= 0")
    spot = math.exp(x)
    intrinsic = max(spot - math.exp(k), 0.0)
    if not (intrinsic < price < spot):
        raise DomainError(
            f"price {price} outside arbitrage bounds ({intrinsic}, {spot})"
        )
    tol = _IV_PRICE_TOL * spot

    lo, hi = _IV_BRACKET_LO, _IV_BRACKET_HI
    while _call(x, k, hi, T) < price:
        hi *= 2.0
        if hi > 1e3:
            raise DomainError(f"price {price} not attainable below sigma={hi}")
    if _call(x, k, lo, T) > price:
        raise DomainError(f"price {price} below sigma={lo} value")

    sigma = _IV_NEWTON_SEED
    for _ in range(_IV_MAX_ITER):
        diff = _call(x, k, sigma, T) - price
        if abs(diff) <= tol:
            return sigma
        # maintain the bracket around the root
        if diff > 0.0:
            hi = sigma
        else:
            lo = sigma
        v = _vega(x, k, sigma, T)
        newton = sigma - diff / v if v > 0.0 else math.inf
        sigma = newton if lo < newton < hi else 0.5 * (lo + hi)
        if hi - lo < 1e-14:
            # bracket collapsed to float resolution; accept the midpoint
            return 0.5 * (lo + hi)
    raise NumericalError(
        f"implied vol did not converge after {_IV_MAX_ITER} iterations "
        f"(price={price}, x={x}, k={k}, T={T}, bracket=[{lo}, {hi}])"
    )


def _implied_vols(prices, x: float, ks, T: float) -> np.ndarray:
    """implied_vol over log-strikes ``ks`` at one x and T: each element takes the
    scalar loop's steps and exits on arrays (e^k by math.exp), so its vol has the
    scalar bits.  If any element fails, the scalar loop runs and raises its error."""
    prices, ks = np.array(prices, dtype=float), np.array(ks, dtype=float)
    lo, hi, sigma = (np.full_like(prices, v) for v in
                     (_IV_BRACKET_LO, _IV_BRACKET_HI, _IV_NEWTON_SEED))
    ok = math.isfinite(x) and math.isfinite(T) and T > 0
    spot, ek, sq = math.exp(x), np.array([math.exp(k) for k in ks]), math.sqrt(T) if ok else 0.0
    fail = ~(ok & np.isfinite(ks) & (np.maximum(spot - ek, 0.0) < prices) & (prices < spot))

    def diff_d1(sig):  # _call(x, k, sig, T) - price on arrays, and its d1
        s = sig * sq
        d1 = (x - ks) / s + 0.5 * s
        return spot * ndtr(d1) - ek * ndtr(d1 - s) - prices, d1

    # failed elements compute junk, and an overflow gives inf as a Python float does
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        up = ~fail
        while up.any() and hi.max() <= 1e3:  # the upper end doubles while the quote exceeds it
            up &= diff_d1(hi)[0] < 0.0
            hi = np.where(up, hi * 2.0, hi)
        fail |= (hi > 1e3) | (diff_d1(lo)[0] > 0.0)
        live = ~fail
        for _ in range(_IV_MAX_ITER):
            if not live.any():
                break
            diff, d1 = diff_d1(sigma)
            live &= np.abs(diff) > _IV_PRICE_TOL * spot  # converged elements keep their sigma
            above = diff > 0.0  # maintain the bracket around the root
            hi, lo = np.where(above, sigma, hi), np.where(above, lo, sigma)
            # a zero vega steps to -+inf, outside the bracket, as the scalar's inf
            newton, mid = sigma - diff / (spot * norm_pdf(d1) * sq), 0.5 * (lo + hi)
            step = np.where((lo < newton) & (newton < hi), newton, mid)
            shut = live & (hi - lo < 1e-14)  # collapsed: the scalar loop returns the midpoint
            sigma = np.where(shut, mid, np.where(live, step, sigma))
            live ^= shut
    if (fail | live).any():
        return np.array([implied_vol(p, x, k, T) for p, k in zip(prices.tolist(), ks.tolist())])
    return sigma
