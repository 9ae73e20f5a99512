import ast
import importlib
import inspect
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import textwrap

import pytest

import exchopt

MODULES = [exchopt] + [
    importlib.import_module(f"exchopt.{info.name}")
    for info in pkgutil.iter_modules(exchopt.__path__)
]
_PACKAGE = pathlib.Path(exchopt.__file__).resolve().parent

REMOVED = (
    "ExchangeQuote", "VanillaSpec", "price", "vega", "LinearConvention", "ModelLimits",
    "measure_atm_observables", "ImpliedCorrelationBoundsWarning",
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


def test_no_runtime_path_loads_scipy(tmp_path):
    # a fresh interpreter: this test session has imported SciPy for its oracles
    script = textwrap.dedent("""
        import contextlib, io, json, math, sys
        import exchopt, exchopt.cli
        from exchopt import (
            a_star_observables, build_smile_grid, convention_gamma, exchange_implied_vol,
            exchange_option_price, implied_vol, margrabe_price, measure_smile_observables,
            simulation, strikes,
        )
        from exchopt.experiments import reference_case_model

        loaded = {}

        def step(name):
            loaded[name] = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

        step("import exchopt, exchopt.cli")
        model, T = reference_case_model(1), 0.25
        x, y = math.log(model.s0x), math.log(model.s0y)
        simulation.simulate_exchange(model, 0.05, simulation.McConfig(n_paths=64, seed=1))
        step("simulate_exchange")
        exchange_implied_vol(exchange_option_price(model, T), x, y, T)
        step("exchange_option_price, exchange_implied_vol")
        obs = measure_smile_observables(model.heston, model.asset_x, model.asset_y, T)
        smile_x = build_smile_grid(model.heston, model.asset_x, T, asset_id="X")
        smile_y = build_smile_grid(model.heston, model.asset_y, T, asset_id="Y")
        k_x, k_y = strikes(a_star_observables(obs, model.rho), x, y)
        gamma = convention_gamma(
            smile_x.vol_at_moneyness(k_x - x), smile_y.vol_at_moneyness(k_y - y), model.rho
        )
        margrabe_price(x, y, gamma, T)
        step("quote")
        implied_vol(3.0, math.log(100.0), math.log(110.0), T)
        step("implied_vol")
        for argv in (["price", "exchange"], ["convention", "solve"], ["surface", "--asset", "X"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert exchopt.cli.main(["--out", sys.argv[1], *argv]) == 0
            step("exchopt " + " ".join(argv))
        print(json.dumps(loaded))
    """)
    src = pathlib.Path(exchopt.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert len(loaded) == 8
    assert {name: modules for name, modules in loaded.items() if modules} == {}


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


def test_every_private_module_name_is_used_in_the_package():
    # a module-level _name (function, class or constant) that nothing in
    # src/exchopt reads is a leftover of a deleted code path
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(_PACKAGE.glob("*.py"))}
    defined, used = {}, set()
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined.update((name, f"{file}:{node.lineno}") for name in names
                           if name.startswith("_") and not name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined
    assert {name: where for name, where in defined.items() if name not in used} == {}


def _import_roots(path: pathlib.Path) -> set[str]:
    """Top-level names of every absolute import in one module, at module
    level or inside a function."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            roots.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_runtime_imports_are_the_declared_dependencies():
    # every import in src/exchopt is exchopt's own, the standard library's or
    # a runtime dependency, and each runtime dependency is imported: SciPy
    # cannot creep back in unlisted
    roots = set().union(*map(_import_roots, _PACKAGE.glob("*.py")))
    third_party = roots - set(sys.stdlib_module_names) - {"exchopt"}
    pyproject = (_PACKAGE.parents[1] / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S).group(1)
    distributions = re.findall(r'"([A-Za-z0-9_.-]+)', block)
    assert third_party == {{"pyyaml": "yaml"}.get(d.lower(), d.lower()) for d in distributions}
    assert third_party == {"numpy", "yaml"}


def test_no_module_imports_warnings():
    # exchopt reports through return values, typed errors and exit codes: an
    # implied correlation outside [-1, 1] is returned as is, so no caller has
    # a warning filter to set
    assert [p.name for p in _PACKAGE.glob("*.py") if "warnings" in _import_roots(p)] == []
