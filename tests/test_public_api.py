import importlib
import pkgutil

import pytest

import exchopt

MODULES = [exchopt] + [
    importlib.import_module(f"exchopt.{info.name}")
    for info in pkgutil.iter_modules(exchopt.__path__)
]

REMOVED = (
    "ExchangeQuote", "VanillaSpec", "price", "vega", "LinearConvention", "ModelLimits",
)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_removed_names_not_exported(module):
    assert not set(REMOVED) & set(getattr(module, "__all__", ()))


def test_validate_correlation_reachable_from_package_and_simulation():
    from exchopt import models, simulation

    assert exchopt.validate_correlation is models.validate_correlation
    assert simulation.validate_correlation is models.validate_correlation
