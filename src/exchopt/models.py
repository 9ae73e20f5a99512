"""Model dataclasses and the correlation factorisation for the shared-volatility two-asset setup.

Both assets load on a single CIR variance process v_t = sigma_t^2:

    d v_t = kappa (theta - v_t) dt + nu sqrt(v_t) dZ_t,
    dS^i / S^i = lambda_i sigma_t dW^i,        i = X, Y,

with corr(W^X, W^Y) = rho, corr(W^i, Z) = rho_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, correlation, positive

__all__ = [
    "HestonParams", "AssetSpec", "CorrelationStructure", "TwoAssetModel",
    "validate_correlation", "cholesky3",
]

_PIVOT_TOL = 1e-12


@dataclass(frozen=True)
class HestonParams:
    """CIR variance parameters: mean-reversion kappa, long-run variance theta,
    vol-of-vol nu, initial volatility sigma0 (so v_0 = sigma0^2).

    All strictly positive.  The Feller condition 2 kappa theta >= nu^2 is not
    enforced: the full-truncation simulation and the pricer tolerate its
    violation, and grid studies may wander outside it.
    """

    kappa: float
    theta: float
    nu: float
    sigma0: float

    def __post_init__(self):
        positive(kappa=self.kappa, theta=self.theta, nu=self.nu, sigma0=self.sigma0)

    @property
    def v0(self) -> float:
        return self.sigma0 * self.sigma0


@dataclass(frozen=True)
class AssetSpec:
    """One leg of the spread: volatility scaling lambda (sigma^i = lambda sigma),
    spot-vol correlation rho_sv, and spot price s0."""

    lam: float
    rho_sv: float
    s0: float

    def __post_init__(self):
        positive(lam=self.lam)
        correlation(rho_sv=self.rho_sv)
        positive(s0=self.s0)

    @property
    def x0(self) -> float:
        return math.log(self.s0)


@dataclass(frozen=True)
class CorrelationStructure:
    """corr(W^X, W^Y) = rho, corr(W^X, Z) = rho_x, corr(W^Y, Z) = rho_y.

    Entries are validated to [-1, 1] on construction; joint validity (positive
    semi-definiteness of the 3x3 matrix) is a separate checked property, see
    validate_correlation, which a TwoAssetModel requires.
    """

    rho: float
    rho_x: float
    rho_y: float

    def __post_init__(self):
        correlation(rho=self.rho, rho_x=self.rho_x, rho_y=self.rho_y)

    def matrix(self) -> np.ndarray:
        """3x3 correlation matrix in the factor order (W^X, W^Y, Z)."""
        return np.array(
            [
                [1.0, self.rho, self.rho_x],
                [self.rho, 1.0, self.rho_y],
                [self.rho_x, self.rho_y, 1.0],
            ]
        )


def _pivots(rho: float, rho_x: float, rho_y: float) -> tuple[float, float, float] | None:
    """(L[1,1], L[2,1], L[2,2]) of the pivoted Cholesky factor L of the matrix of
    CorrelationStructure(rho, rho_x, rho_y), or None when there is none: a second
    pivot 1 - rho^2 <= 1e-12 is taken as zero and then needs |rho_y - rho rho_x|
    <= 1e-12, and the final pivot must be >= -1e-12 (it is clamped to zero).  So
    L L^T differs from the matrix by at most 1e-12 in any entry."""
    d22 = 1.0 - rho * rho
    resid = rho_y - rho * rho_x
    if d22 > _PIVOT_TOL:
        # through resid / d22, so a repeated row (resid == d22) repeats exactly
        l11, ratio = math.sqrt(d22), resid / d22
    elif abs(resid) <= _PIVOT_TOL:
        l11 = ratio = 0.0
    else:
        return None
    d33 = 1.0 - rho_x * rho_x - ratio * resid
    return None if d33 < -_PIVOT_TOL else (l11, ratio * l11, math.sqrt(max(d33, 0.0)))


def validate_correlation(c: CorrelationStructure) -> tuple[bool, float]:
    """(valid, det): valid means the pivoted Cholesky factor (see _pivots) exists
    with each pair of factors leading, in the orders (W^X, W^Y, Z), (Z, W^X, W^Y)
    and (W^Y, Z, W^X), so the verdict does not depend on the order cholesky3 gets
    and a singular structure such as (1, 0.3, 0.3) is valid; det is for messages.
    The one validity verdict: cholesky3 (so every TwoAssetModel) and run_grid use it."""
    det = (
        1.0
        + 2.0 * c.rho * c.rho_x * c.rho_y
        - c.rho * c.rho - c.rho_x * c.rho_x - c.rho_y * c.rho_y
    )
    r = (c.rho, c.rho_x, c.rho_y)  # rotated by i: the three orders above
    return all(_pivots(*r[i:], *r[:i]) is not None for i in range(3)), det


def cholesky3(c: CorrelationStructure) -> np.ndarray:
    """Lower-triangular L with L L^T equal to c.matrix() (factor order (W^X,
    W^Y, Z) for a model's structure); singular structures pivot to zero
    columns.  A structure validate_correlation rejects raises DomainError."""
    valid, det = validate_correlation(c)
    if not valid:
        raise DomainError(f"correlation structure not PSD (det={det:.6e})")
    l11, l21, l22 = _pivots(c.rho, c.rho_x, c.rho_y)
    return np.array([[1.0, 0.0, 0.0], [c.rho, l11, 0.0], [c.rho_x, l21, l22]])


@dataclass(frozen=True)
class TwoAssetModel:
    """Full shared-volatility specification: shared variance params, per-leg scaling factors
    and spots, and the correlation structure of (W^X, W^Y, Z), which must be
    PSD (a structure validate_correlation rejects raises DomainError).  The
    per-leg AssetSpec views are derived so the spot-vol correlations cannot
    drift out of sync with the joint structure."""

    heston: HestonParams
    lam_x: float
    lam_y: float
    s0x: float
    s0y: float
    corr: CorrelationStructure

    def __post_init__(self):
        positive(lam_x=self.lam_x, lam_y=self.lam_y, s0x=self.s0x, s0y=self.s0y)
        cholesky3(self.corr)  # the one PSD check

    @property
    def rho(self) -> float:
        return self.corr.rho

    @property
    def asset_x(self) -> AssetSpec:
        return AssetSpec(lam=self.lam_x, rho_sv=self.corr.rho_x, s0=self.s0x)

    @property
    def asset_y(self) -> AssetSpec:
        return AssetSpec(lam=self.lam_y, rho_sv=self.corr.rho_y, s0=self.s0y)

    def asset(self, asset_id: str) -> AssetSpec:
        if asset_id == "X":
            return self.asset_x
        if asset_id == "Y":
            return self.asset_y
        raise InputError(f"asset_id must be 'X' or 'Y', got {asset_id!r}")
