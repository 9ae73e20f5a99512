"""Exception types shared across the library, and its four scalar argument checks.

Each check takes keyword arguments in the order the caller lists them and
raises InputError naming the first one it refuses and its value."""

import math


class InputError(ValueError):
    """Malformed or non-finite inputs (wrong sign, NaN, out-of-range correlation)."""


class DomainError(ValueError):
    """Inputs are well-formed but outside the mathematical domain of the
    operation (price violates arbitrage bounds, correlation matrix not PSD)."""


class NumericalError(RuntimeError):
    """An iterative or quadrature scheme failed to converge; carries diagnostics."""


class DegenerateConventionError(DomainError):
    """The strike-convention denominator is (near) zero: no unique optimum."""


def finite(**values: float) -> None:
    """Refuse NaN and +-inf: ``non-finite {name}={value}``."""
    for name, v in values.items():
        if not math.isfinite(v):
            raise InputError(f"non-finite {name}={v}")


def positive(**values: float) -> None:
    """Refuse anything but a finite value > 0."""
    for name, v in values.items():
        if not (math.isfinite(v) and v > 0.0):
            raise InputError(f"{name} must be finite and > 0, got {v}")


def non_negative(**values: float) -> None:
    """Refuse anything but a finite value >= 0."""
    for name, v in values.items():
        if not (math.isfinite(v) and v >= 0.0):
            raise InputError(f"{name} must be finite and >= 0, got {v}")


def correlation(**values: float) -> None:
    """Refuse anything outside [-1, 1], NaN included."""
    for name, v in values.items():
        if not -1.0 <= v <= 1.0:  # NaN fails every comparison
            raise InputError(f"{name} must lie in [-1, 1], got {v}")
