"""Log-linear strike conventions and the optimal mixing coefficient a*.

A convention maps the two log spots (x, y) to the log strikes whose implied
vols feed the Margrabe substitution:

    k_X = (1 - a) x + a y,      k_Y = a x + (1 - a) y.

a = 0 reads each leg at its own money; a = 1 swaps the spots (the look-up
heuristic).  The unique first-order-optimal a* is available in closed form
from model limits or from measured ATM levels and skews.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateConventionError, DomainError, InputError
from .heston import SmileObservables
from .models import CorrelationStructure

__all__ = [
    "strikes",
    "a_star_parametric",
    "a_star_observables",
    "bound_a",
    "linear_convention_residual",
    "general_residual",
    "A_BOUNDS",
]

A_BOUNDS = (-1.0, 2.0)
_DENOM_TOL = 1e-12


def strikes(a: float, x: float, y: float) -> tuple[float, float]:
    """(k_X, k_Y) = ((1-a) x + a y, a x + (1-a) y).

    Evaluated as x + a (y - x) so that both strikes equal x *exactly* (not just
    to rounding) when x == y; downstream coincidence checks rely on that.
    """
    if not (np.isfinite(a) and np.isfinite(x) and np.isfinite(y)):
        raise InputError(f"non-finite input: a={a}, x={x}, y={y}")
    return x + a * (y - x), y + a * (x - y)


def _a_star_terms(
    i_x: float, i_y: float, s_x: float, s_y: float, rho: float
) -> tuple[float, float]:
    """Numerator and denominator of a* from levels I_i and skews S_i; the
    parametric form is the same expression with I_i = lam_i, S_i = rho_i."""
    numer = s_x * i_x - s_y * i_y
    denom = s_x * (i_x - rho * i_y) - s_y * (i_y - rho * i_x)
    return numer, denom


def _a_star(numer: float, denom: float) -> float:
    if abs(denom) < _DENOM_TOL:
        raise DegenerateConventionError(
            f"convention denominator {denom:.3e} below {_DENOM_TOL}: "
            "no unique first-order optimum"
        )
    return numer / denom


def _limit_terms(
    lam_x: float, lam_y: float, corr: CorrelationStructure
) -> tuple[float, float]:
    """_a_star_terms at the short-time limits: levels lam_i, skews rho_i."""
    for name, lam in (("lam_x", lam_x), ("lam_y", lam_y)):
        if not (np.isfinite(lam) and lam > 0):
            raise InputError(f"{name} must be > 0, got {lam}")
    return _a_star_terms(lam_x, lam_y, corr.rho_x, corr.rho_y, corr.rho)


def a_star_parametric(lam_x: float, lam_y: float, corr: CorrelationStructure) -> float:
    """a* = (rho_X lam_X - rho_Y lam_Y) /
    (rho_X (lam_X - rho lam_Y) - rho_Y (lam_Y - rho lam_X))."""
    return _a_star(*_limit_terms(lam_x, lam_y, corr))


def a_star_observables(obs: SmileObservables, rho: float) -> float:
    """a* from measured ATM levels I_i and skews S_i:

        a* = (S_X I_X - S_Y I_Y) /
             (S_X (I_X - rho I_Y) - S_Y (I_Y - rho I_X)).

    Reduces to a_star_parametric when the observables sit at their short-time
    limits I_i = lam_i sigma0, S_Y / S_X = rho_Y / rho_X.
    """
    if not (np.isfinite(rho) and abs(rho) <= 1.0):
        raise InputError(f"rho must lie in [-1, 1], got {rho}")
    return _a_star(*_a_star_terms(obs.level_x, obs.level_y, obs.skew_x, obs.skew_y, rho))


def bound_a(a: float) -> float:
    """Clamp a into A_BOUNDS = [-1, 2] (extreme a pick vols from unquotable
    strikes)."""
    if not np.isfinite(a):
        raise InputError(f"a must be finite, got {a}")
    return min(max(a, A_BOUNDS[0]), A_BOUNDS[1])


def linear_convention_residual(
    a: float, lam_x: float, lam_y: float, corr: CorrelationStructure
) -> float:
    """First-order optimality defect of the log-linear convention:

        a [rho_X (lam_X - rho lam_Y) - rho_Y (lam_Y - rho lam_X)]
          - (lam_X rho_X - rho_Y lam_Y),

    zero exactly at a = a_star_parametric.
    """
    numer, denom = _limit_terms(lam_x, lam_y, corr)
    if not np.isfinite(a):
        raise InputError(f"a must be finite, got {a}")
    return a * denom - numer


def general_residual(
    sigma0_x: float,
    sigma0_y: float,
    dplus_x: float,
    dplus_y: float,
    corr: CorrelationStructure,
    dkx_dy: float,
    dky_dy: float,
) -> float:
    """First-order condition defect for an arbitrary strike convention.

    Left side: short-time slope of the exact exchange vol in the second log
    spot,

        (rho_X s_X - rho_Y s_Y) / (2 st^3)
            * [D_X (s_X - rho s_Y) + D_Y (s_Y - rho s_X)],

    with s_i the spot vols, D_i the short-time volatility response constants
    and st = sqrt(s_X^2 + s_Y^2 - 2 rho s_X s_Y).  Right side: same slope for
    the convention vol, with the limit substitutions skew_i =
    rho_i D_i / (2 s_i) and dI_Y/dy = -dI_Y/dz at the money.  Returns
    left - right; a convention is first-order optimal iff this vanishes.
    """
    for name, v in (
        ("sigma0_x", sigma0_x), ("sigma0_y", sigma0_y),
        ("dplus_x", dplus_x), ("dplus_y", dplus_y),
        ("dkx_dy", dkx_dy), ("dky_dy", dky_dy),
    ):
        if not np.isfinite(v):
            raise InputError(f"non-finite {name}={v}")
    rho, rho_x, rho_y = corr.rho, corr.rho_x, corr.rho_y
    st2 = sigma0_x**2 + sigma0_y**2 - 2.0 * rho * sigma0_x * sigma0_y
    if st2 <= 0.0:
        raise DomainError(f"degenerate model: sigma_tilde0^2 = {st2} <= 0")
    st = math.sqrt(st2)
    left = (
        (rho_x * sigma0_x - rho_y * sigma0_y)
        / (2.0 * st**3)
        * (dplus_x * (sigma0_x - rho * sigma0_y) + dplus_y * (sigma0_y - rho * sigma0_x))
    )
    skew_x = rho_x * dplus_x / (2.0 * sigma0_x)
    skew_y = rho_y * dplus_y / (2.0 * sigma0_y)
    # dI_Y/dz dk_Y/dy + dI_Y/dy collapses to skew_y (dk_Y/dy - 1) at the money
    right = (
        (sigma0_x - rho * sigma0_y) * skew_x * dkx_dy
        + (sigma0_y - rho * sigma0_x) * skew_y * (dky_dy - 1.0)
    ) / st
    return left - right
