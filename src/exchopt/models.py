"""Model dataclasses for the shared-volatility two-asset setup.

Both assets load on a single CIR variance process v_t = sigma_t^2:

    d v_t = kappa (theta - v_t) dt + nu sqrt(v_t) dZ_t,
    dS^i / S^i = lambda_i sigma_t dW^i,        i = X, Y,

with corr(W^X, W^Y) = rho, corr(W^i, Z) = rho_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = [
    "HestonParams", "AssetSpec", "CorrelationStructure", "TwoAssetModel",
    "validate_correlation",
]


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
        for name in ("kappa", "theta", "nu", "sigma0"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise InputError(f"{name} must be finite and > 0, got {v}")

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
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise InputError(f"lam must be finite and > 0, got {self.lam}")
        if not (np.isfinite(self.rho_sv) and abs(self.rho_sv) <= 1.0):
            raise InputError(f"rho_sv must lie in [-1, 1], got {self.rho_sv}")
        if not (np.isfinite(self.s0) and self.s0 > 0):
            raise InputError(f"s0 must be finite and > 0, got {self.s0}")

    @property
    def x0(self) -> float:
        return math.log(self.s0)


@dataclass(frozen=True)
class CorrelationStructure:
    """corr(W^X, W^Y) = rho, corr(W^X, Z) = rho_x, corr(W^Y, Z) = rho_y.

    Entries are validated to [-1, 1] on construction; joint validity (positive
    semi-definiteness of the 3x3 matrix) is a separate checked property, see
    validate_correlation.
    """

    rho: float
    rho_x: float
    rho_y: float

    def __post_init__(self):
        for name in ("rho", "rho_x", "rho_y"):
            v = getattr(self, name)
            if not (np.isfinite(v) and abs(v) <= 1.0):
                raise InputError(f"{name} must lie in [-1, 1], got {v}")

    def matrix(self) -> np.ndarray:
        """3x3 correlation matrix in the factor order (W^X, W^Y, Z)."""
        return np.array(
            [
                [1.0, self.rho, self.rho_x],
                [self.rho, 1.0, self.rho_y],
                [self.rho_x, self.rho_y, 1.0],
            ]
        )


def validate_correlation(c: CorrelationStructure) -> tuple[bool, float]:
    """(valid, det) where det is the 3x3 determinant
    1 + 2 rho rho_x rho_y - rho^2 - rho_x^2 - rho_y^2.

    Valid means det >= 0 and every 2x2 principal minor >= 0 (the latter holds
    automatically for entries in [-1, 1] but is checked anyway).
    """
    det = (
        1.0
        + 2.0 * c.rho * c.rho_x * c.rho_y
        - c.rho * c.rho - c.rho_x * c.rho_x - c.rho_y * c.rho_y
    )
    minors_ok = (
        1.0 - c.rho * c.rho >= 0.0
        and 1.0 - c.rho_x * c.rho_x >= 0.0
        and 1.0 - c.rho_y * c.rho_y >= 0.0
    )
    return (det >= 0.0 and minors_ok), det


@dataclass(frozen=True)
class TwoAssetModel:
    """Full shared-volatility specification: shared variance params, per-leg scaling factors
    and spots, and the three-factor correlation structure.  The per-leg
    AssetSpec views are derived so the spot-vol correlations cannot drift out
    of sync with the joint structure."""

    heston: HestonParams
    lam_x: float
    lam_y: float
    s0x: float
    s0y: float
    corr: CorrelationStructure

    def __post_init__(self):
        for name in ("lam_x", "lam_y", "s0x", "s0y"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise InputError(f"{name} must be finite and > 0, got {v}")

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
