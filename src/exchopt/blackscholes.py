"""Black-Scholes call pricing in log coordinates (r = 0) and robust implied vol.

Everything works on log spot ``x``, log strike ``k`` and time to expiry ``T``;
prices are undiscounted (zero rates throughout the library).  One
bracket-and-Newton loop inverts prices: ``implied_vol`` runs it on one price,
``_implied_vols`` on a smile's log-strikes at one x and T.

The normal CDF is SciPy's ``ndtr``, bound on the first price: importing this
module, and everything that never prices through it (the Monte Carlo engine,
the exact exchange pricer, the CLI's config paths), does not load SciPy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InputError, NumericalError, finite

__all__ = ["bs_price", "bs_vega", "implied_vol"]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Newton/bisection settings for implied_vol
_IV_BRACKET_LO = 1e-6
_IV_BRACKET_HI = 5.0
_IV_NEWTON_SEED = 0.5
_IV_MAX_ITER = 100
_IV_PRICE_TOL = 1e-12  # relative to e^x


def _ndtr(d):
    """The standard normal CDF: replaces itself with scipy.special.ndtr
    (erfc-based, abs error < 1e-15) on the first call."""
    global _ndtr
    from scipy.special import ndtr as _ndtr

    return _ndtr(d)


def _check_exp(**kwargs):
    for name, v in kwargs.items():
        try:
            math.exp(v)
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
    try:
        return math.exp(x), math.exp(k)
    except OverflowError:
        _check_exp(x=x, k=k)


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
    return float(spot * _ndtr(d1) - ek * _ndtr(d1 - s))


def bs_vega(x: float, k: float, sigma: float, T: float) -> float:
    """Analytic dBS/dsigma = e^x phi(d1) sqrt(T); zero at expiry and at sigma = 0.

    Refuses what bs_price refuses, with the same errors."""
    spot, _ = _exp_legs(x, k, sigma, T)
    if T == 0.0 or sigma == 0.0:
        return 0.0
    s = sigma * math.sqrt(T)
    d1 = (x - k) / s + 0.5 * s
    return float(spot * (np.exp(-0.5 * (d1 * d1)) / _SQRT_2PI) * math.sqrt(T))


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
    return _invert([price], x, [k], T)[0]


def _implied_vols(prices, x: float, ks, T: float) -> np.ndarray:
    """implied_vol over log-strikes ``ks`` at one x and T, as an array."""
    prices, ks = np.asarray(prices, dtype=float).tolist(), np.asarray(ks, dtype=float).tolist()
    return np.array(_invert(prices, x, ks, T), dtype=float)


def _invert(prices: list, x: float, ks: list, T: float) -> list:
    """implied_vol's loop over (price, log-strike) pairs at one x and T.

    Each element takes the steps implied_vol takes for it alone, in Python
    floats; each round prices all its elements in one _ndtr call and takes the
    densities of their vegas from one np.exp call.  The lowest failing element
    raises the error implied_vol raises for it."""
    rows, refused = [], None  # a row: index, x - k, e^k, price, lo, hi, sigma
    try:  # elements after the first refused one cannot fail first
        for i, (price, k) in enumerate(zip(prices, ks)):
            if not math.isfinite(price + x + k + T):  # a term is not finite, or the sum overflows
                finite(price=price, x=x, k=k, T=T)
            if T <= 0:
                raise DomainError(f"cannot invert at expiry: T={T} <= 0")
            try:
                spot, ek = math.exp(x), math.exp(k)
            except OverflowError:
                _check_exp(x=x, k=k)
            intrinsic = max(spot - ek, 0.0)
            if not (intrinsic < price < spot):
                raise DomainError(f"price {price} outside arbitrage bounds ({intrinsic}, {spot})")
            rows.append([i, x - k, ek, price, _IV_BRACKET_LO, _IV_BRACKET_HI, _IV_NEWTON_SEED])
    except (InputError, DomainError) as err:
        refused = err
    if not rows:
        if refused:
            raise refused
        return []
    sq, tol = math.sqrt(T), _IV_PRICE_TOL * spot

    def cdf(rows, col):  # (row, N(d1), N(d2)) at each row's sigma r[col], and the d1s
        d1s, d2s = [], []
        for r in rows:
            s = r[col] * sq
            d1 = r[1] / s + 0.5 * s
            d1s.append(d1)
            d2s.append(d1 - s)
        c = _ndtr(d1s + d2s).tolist()
        return zip(rows, c, c[len(rows):]), d1s

    failed = {}
    up = [r for r, a, b in cdf(rows, 5)[0] if spot * a - r[2] * b - r[3] < 0.0]
    while up:  # the upper end doubles while the quote exceeds it
        for r in up:
            r[5] *= 2.0
            if r[5] > 1e3:
                failed[r[0]] = DomainError(f"price {r[3]} not attainable below sigma={r[5]}")
        up = [r for r in up if r[0] not in failed]
        up = [r for r, a, b in cdf(up, 5)[0] if spot * a - r[2] * b - r[3] < 0.0]
    for r, a, b in cdf(rows, 4)[0]:
        if spot * a - r[2] * b - r[3] > 0.0:
            failed.setdefault(r[0], DomainError(f"price {r[3]} below sigma={r[4]} value"))
    live, sigma = [r for r in rows if r[0] not in failed], [_IV_NEWTON_SEED] * len(rows)
    for _ in range(_IV_MAX_ITER):
        if not live:
            break
        rcs, d1s = cdf(live, 6)
        live = []
        # np.exp, not math.exp: their last bits differ, and the vega steers each step
        for (r, a, b), pdf in zip(rcs, np.exp([-0.5 * (d1 * d1) for d1 in d1s]).tolist()):
            i, _, ek, price, lo, hi, sig = r
            diff = spot * a - ek * b - price
            if abs(diff) <= tol:
                sigma[i] = sig
                continue
            if diff > 0.0:  # maintain the bracket around the root
                r[5] = hi = sig
            else:
                r[4] = lo = sig
            v = spot * (pdf / _SQRT_2PI) * sq
            newton = sig - diff / v if v > 0.0 else math.inf
            mid = 0.5 * (lo + hi)
            if hi - lo < 1e-14:
                sigma[i] = mid  # bracket collapsed to float resolution; accept the midpoint
            else:
                r[6] = newton if lo < newton < hi else mid
                live.append(r)
    for r in live:
        i, _, _, price, lo, hi, _ = r
        failed[i] = NumericalError(
            f"implied vol did not converge after {_IV_MAX_ITER} iterations "
            f"(price={price}, x={x}, k={ks[i]}, T={T}, bracket=[{lo}, {hi}])"
        )
    if failed:
        raise failed[min(failed)]
    if refused:
        raise refused
    return sigma
