"""Margrabe exchange-option closed form and the two exchange volatilities.

The exchange option pays (S_T^X - S_T^Y)^+.  Under joint lognormality its
price is Black-Scholes with the second asset's log spot in the strike slot.
``convention_gamma`` combines two leg implied vols and a correlation into the
substitute volatility; ``exchange_implied_vol`` backs the exact volatility out
of an observed price; ``implied_correlation`` inverts the combination for rho.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import blackscholes
from .errors import InputError

__all__ = [
    "margrabe_price",
    "convention_gamma",
    "exchange_implied_vol",
    "implied_correlation",
    "ImpliedCorrelationBoundsWarning",
]


class ImpliedCorrelationBoundsWarning(UserWarning):
    """Implied correlation fell outside [-1, 1] (kept as-is, not clamped)."""


def margrabe_price(x: float, y: float, gamma: float, T: float) -> float:
    """BS(x, y, gamma, T): e^x N(d1) - e^y N(d2) with the Y leg as strike.

    bs_price's errors name y as k, the strike slot it fills."""
    if not np.isfinite(gamma) or gamma < 0:
        raise InputError(f"gamma must be finite and >= 0, got {gamma}")
    if not (np.isfinite(T) and T > 0):
        raise InputError(f"T must be positive, got {T}")
    return blackscholes.bs_price(x, y, gamma, T)


def convention_gamma(i_x: float, i_y: float, rho: float) -> float:
    """sqrt(I_X^2 + I_Y^2 - 2 rho I_X I_Y), the substitute exchange vol."""
    if not (np.isfinite(i_x) and i_x > 0 and np.isfinite(i_y) and i_y > 0):
        raise InputError(f"leg vols must be positive, got {i_x}, {i_y}")
    if not (np.isfinite(rho) and -1.0 <= rho <= 1.0):
        raise InputError(f"correlation must lie in [-1, 1], got {rho}")
    # real for any rho in [-1, 1]; clip float noise at the rho = 1 boundary
    return math.sqrt(max(i_x * i_x + i_y * i_y - 2.0 * rho * i_x * i_y, 0.0))


def exchange_implied_vol(price: float, x: float, y: float, T: float) -> float:
    """gamma_hat with margrabe_price(x, y, gamma_hat, T) = price.

    Reuses the vanilla implied-vol inversion with k = y; same tolerance and
    error behaviour, and its errors name y as k.
    """
    return blackscholes.implied_vol(price, x, y, T)


def implied_correlation(gamma_hat: float, i_x: float, i_y: float) -> float:
    """rho_hat = (I_X^2 + I_Y^2 - gamma_hat^2) / (2 I_X I_Y).

    The unique rho reproducing gamma_hat through convention_gamma, whose leg
    vols it likewise requires finite and positive (InputError).  Values
    outside [-1, 1] are possible for distorted inputs; they are returned
    unchanged with an ImpliedCorrelationBoundsWarning rather than clamped so
    implied-correlation curves stay visible.
    """
    if not (np.isfinite(gamma_hat) and gamma_hat >= 0):
        raise InputError(f"gamma_hat must be finite and >= 0, got {gamma_hat}")
    if not (np.isfinite(i_x) and i_x > 0 and np.isfinite(i_y) and i_y > 0):
        raise InputError(f"leg vols must be positive, got {i_x}, {i_y}")
    rho_hat = (i_x * i_x + i_y * i_y - gamma_hat * gamma_hat) / (2.0 * i_x * i_y)
    if abs(rho_hat) > 1.0:
        warnings.warn(
            f"implied correlation {rho_hat:.6f} outside [-1, 1]",
            ImpliedCorrelationBoundsWarning,
            stacklevel=2,
        )
    return rho_hat
