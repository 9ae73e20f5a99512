import ast
import importlib
import inspect
import json
import math
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


def test_scipy_loads_on_the_first_inversion_only(tmp_path):
    # a fresh interpreter: this test session has imported SciPy for its oracles
    script = textwrap.dedent("""
        import contextlib, io, json, math, sys
        import exchopt, exchopt.cli
        from exchopt import blackscholes, experiments, heston, simulation

        def scipy_modules():
            return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

        loaded = {"import": scipy_modules()}
        model = experiments.reference_case_model(1)
        simulation.simulate_terminal(model, 0.05, simulation.McConfig(n_paths=64, seed=1))
        heston.exchange_option_price(model, 0.25)
        loaded["simulate_terminal, exchange_option_price"] = scipy_modules()
        for argv, code in ((["--print-config"], 0), (["experiment", "run", "--dry-run"], 0),
                           (["price", "exchange", "--T", "-1"], 2)):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert exchopt.cli.main(["--out", sys.argv[1], *argv]) == code
            loaded[" ".join(argv)] = scipy_modules()
        x, k = math.log(100.0), math.log(110.0)
        first = blackscholes.implied_vol(3.0, x, k, 0.25)
        special = "scipy.special" in sys.modules
        import scipy.special
        # the quote path prices through the bound ndtr and nothing else of SciPy
        heston.measure_smile_observables(model.heston, model.asset_x, model.asset_y, 0.25)
        smile_x = heston.build_smile_grid(model.heston, model.asset_x, 0.25, asset_id="X")
        smile_x.vol_at_moneyness(0.01)
        print(json.dumps({
            "loaded": loaded, "special": special,
            "bound": blackscholes._ndtr is scipy.special.ndtr,
            "vols": [first.hex(), blackscholes.implied_vol(3.0, x, k, 0.25).hex()],
            "quote": [m for m in ("scipy.interpolate", "scipy.optimize", "scipy.linalg")
                      if m in sys.modules],
        }))
    """)
    src = pathlib.Path(exchopt.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert all(not modules for modules in out["loaded"].values()), out["loaded"]
    assert out["special"] and out["bound"]
    here = exchopt.implied_vol(3.0, math.log(100.0), math.log(110.0), 0.25).hex()
    assert out["vols"] == [here, here]
    assert out["quote"] == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_module_imports_a_name_it_never_uses(module):
    # a name the module lists in __all__ counts as used: it is re-exported
    tree = ast.parse(inspect.getsource(module))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(((a.asname or a.name).split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(getattr(module, "__all__", ()))
    assert {name: line for name, line in imported.items() if name not in used} == {}
