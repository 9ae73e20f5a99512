import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys
import textwrap

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
    assert not hasattr(exchopt.experiments.GridSpec, "combos")


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


def test_quote_price_and_paths_leave_scipy_interpolate_unloaded():
    # a fresh interpreter: this test session has imported SciPy for its oracles
    script = textwrap.dedent("""
        import sys
        import exchopt, exchopt.cli
        from exchopt import experiments, heston, simulation
        model, T = experiments.reference_case_model(1), 0.25
        heston.measure_smile_observables(model.heston, model.asset_x, model.asset_y, T)
        smile_x = heston.build_smile_grid(model.heston, model.asset_x, T, asset_id="X")
        heston.build_smile_grid(model.heston, model.asset_y, T, asset_id="Y")
        smile_x.vol_at_moneyness(0.01)
        heston.exchange_option_price(model, T)
        simulation.simulate_terminal(model, 0.05, simulation.McConfig(n_paths=64, seed=1))
        print(" ".join(m for m in ("scipy.interpolate", "scipy.optimize", "scipy.linalg")
                       if m in sys.modules))
    """)
    src = pathlib.Path(exchopt.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
