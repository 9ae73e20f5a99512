"""Black-Scholes call pricing in log coordinates (r = 0) and robust implied vol.

Everything works on log spot ``x``, log strike ``k`` and time to expiry ``T``;
prices are undiscounted (zero rates throughout the library).  One
bracket-and-Newton loop inverts a price (``implied_vol``); a caller with many
prices maps it over them.

Pricing and inversion run on Python floats: the normal CDF is
``0.5 * math.erfc(-d / sqrt 2)`` and the vega density takes ``math.exp``, so
the module needs no numpy.  Against a 50-digit reference the CDF errs by at
most about 2.1 ulp on [-1, 8.2], and below -1 by no more than SciPy's
``ndtr``, which the tests keep as an oracle only.
"""

from __future__ import annotations

import math

from .errors import DomainError, InputError, NumericalError, finite

__all__ = ["bs_price", "bs_vega", "implied_vol"]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT1_2 = math.sqrt(0.5)

# Newton/bisection settings for implied_vol
_IV_BRACKET_LO = 1e-6
_IV_BRACKET_HI = 5.0
_IV_NEWTON_SEED = 0.5
_IV_MAX_ITER = 100
_IV_PRICE_TOL = 1e-12  # relative to e^x


def _ncdf(d: float) -> float:
    """The standard normal CDF, N(d) = erfc(-d/sqrt(2))/2."""
    return 0.5 * math.erfc(-d * _SQRT1_2)


def _exp(name: str, v: float) -> float:
    """e^v, or InputError naming ``name`` when it overflows a float."""
    try:
        return math.exp(v)
    except OverflowError:
        raise InputError(f"{name}={v} too large: e^{name} overflows a float") from None


def _exp_legs(x: float, k: float, sigma: float, T: float) -> tuple[float, float]:
    """(e^x, e^k) once bs_price's arguments pass its checks: all finite,
    T >= 0, sigma >= 0, and neither exponential overflowing."""
    finite(x=x, k=k, sigma=sigma, T=T)
    if T < 0:
        raise InputError(f"negative time to expiry T={T}")
    if sigma < 0:
        raise InputError(f"negative sigma={sigma}")
    return _exp("x", x), _exp("k", k)


def bs_price(x: float, k: float, sigma: float, T: float) -> float:
    """Undiscounted Black-Scholes call: e^x N(d1) - e^k N(d2).

    d1 = (x - k)/(sigma sqrt(T)) + sigma sqrt(T)/2 with T the time to expiry.
    Zero total standard deviation (T == 0 or sigma == 0) returns the intrinsic
    value so terminal payoffs can be evaluated through the same code path.
    InputError when x or k exceeds log(DBL_MAX), where e^x or e^k overflows.
    """
    spot, ek = _exp_legs(x, k, sigma, T)
    s = sigma * math.sqrt(T)
    if s == 0.0:
        return max(spot - ek, 0.0)
    d1 = (x - k) / s + 0.5 * s
    return spot * _ncdf(d1) - ek * _ncdf(d1 - s)


def bs_vega(x: float, k: float, sigma: float, T: float) -> float:
    """Analytic dBS/dsigma = e^x phi(d1) sqrt(T); zero at expiry and at sigma = 0.

    Refuses what bs_price refuses, with the same errors."""
    spot, _ = _exp_legs(x, k, sigma, T)
    if T == 0.0 or sigma == 0.0:
        return 0.0
    s = sigma * math.sqrt(T)
    d1 = (x - k) / s + 0.5 * s
    return spot * (math.exp(-0.5 * (d1 * d1)) / _SQRT_2PI) * math.sqrt(T)


def implied_vol(price: float, x: float, k: float, T: float) -> float:
    """Invert the call price for sigma at time to expiry T.

    Newton iteration seeded at sigma = 0.5 with a maintained bisection bracket;
    the bracket starts at [1e-6, 5] and the upper end doubles while the quote
    exceeds it.  Converges to |BS(sigma) - price| <= 1e-12 e^x.

    Raises InputError for a non-finite argument or an x or k above
    log(DBL_MAX), DomainError at expiry (T == 0) or when the price violates the
    strict no-arbitrage bracket intrinsic < price < e^x, NumericalError when
    the iteration cap is hit.
    """
    if not math.isfinite(price + x + k + T):  # a term is not finite, or the sum overflows
        finite(price=price, x=x, k=k, T=T)
    if T <= 0:
        raise DomainError(f"cannot invert at expiry: T={T} <= 0")
    spot, ek = _exp("x", x), _exp("k", k)
    intrinsic = max(spot - ek, 0.0)
    if not (intrinsic < price < spot):
        raise DomainError(f"price {price} outside arbitrage bounds ({intrinsic}, {spot})")
    sq, tol, xk = math.sqrt(T), _IV_PRICE_TOL * spot, x - k

    def excess(sigma):  # (BS(sigma) - price, d1)
        s = sigma * sq
        d1 = xk / s + 0.5 * s
        return spot * _ncdf(d1) - ek * _ncdf(d1 - s) - price, d1

    lo, hi = _IV_BRACKET_LO, _IV_BRACKET_HI
    while excess(hi)[0] < 0.0:  # the upper end doubles while the quote exceeds it
        hi *= 2.0
        if hi > 1e3:
            raise DomainError(f"price {price} not attainable below sigma={hi}")
    if excess(lo)[0] > 0.0:
        raise DomainError(f"price {price} below sigma={lo} value")
    sigma = _IV_NEWTON_SEED
    for _ in range(_IV_MAX_ITER):
        diff, d1 = excess(sigma)
        if abs(diff) <= tol:
            return sigma
        if diff > 0.0:  # maintain the bracket around the root
            hi = sigma
        else:
            lo = sigma
        if hi - lo < 1e-14:
            return 0.5 * (lo + hi)  # bracket collapsed to float resolution; accept the midpoint
        v = spot * (math.exp(-0.5 * (d1 * d1)) / _SQRT_2PI) * sq
        newton = sigma - diff / v if v > 0.0 else math.inf
        sigma = newton if lo < newton < hi else 0.5 * (lo + hi)
    raise NumericalError(
        f"implied vol did not converge after {_IV_MAX_ITER} iterations "
        f"(price={price}, x={x}, k={k}, T={T}, bracket=[{lo}, {hi}])"
    )

