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
    "measure_atm_observables",
)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_removed_names_not_exported(module):
    assert not set(REMOVED) & set(getattr(module, "__all__", ()))


def test_no_second_smile_lookup_or_unused_grid_knob():
    from dataclasses import fields

    for name in ("vol", "atm_vol", "x0"):
        assert not hasattr(exchopt.Smile, name), name
    assert "conventions" not in {f.name for f in fields(exchopt.experiments.GridSpec)}


def test_validate_correlation_reachable_from_package_and_simulation():
    from exchopt import models, simulation

    assert exchopt.validate_correlation is models.validate_correlation
    assert simulation.validate_correlation is models.validate_correlation
    assert exchopt.cholesky3 is simulation.cholesky3 is models.cholesky3


def test_sample_carries_its_inputs():
    import inspect
    from dataclasses import fields

    from exchopt import simulation

    params = inspect.signature(simulation.exchange_estimate_from_sample).parameters
    assert list(params) == ["sample", "s0x", "s0y"]
    names = {f.name for f in fields(simulation.TerminalSample)}
    assert {"model", "mc", "T"} <= names
    assert not {"sigma_cv_x", "sigma_cv_y"} & names


def test_control_variate_is_not_optional():
    from dataclasses import fields

    from exchopt import simulation

    assert "use_control_variate" not in {f.name for f in fields(simulation.McConfig)}
