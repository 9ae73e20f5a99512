"""Command-line front end.

Subcommands: ``price`` (closed-form quote or Monte Carlo), ``surface`` (smile
CSV export), ``convention`` (solve for a*), ``experiment`` (grid sweeps and
reports).  Configuration comes from an optional YAML file plus flag overrides
(flags win); all artifacts land inside the ``--out`` directory.

Exit codes: 0 success, 2 invalid configuration or inputs, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
from dataclasses import asdict, dataclass, fields

import yaml

from . import convention as conv
from . import experiments, heston, margrabe
from .errors import DomainError, InputError, NumericalError
from .models import CorrelationStructure, HestonParams, TwoAssetModel
from .simulation import McConfig, simulate_exchange

__all__ = ["main", "RunConfig", "load_config"]

_REFERENCE = asdict(experiments.reference_case_model(1))
# every accepted config key, with the value whose type it is read as; the
# model and Monte Carlo defaults are the reference case's and McConfig's, and
# the model section is flat (heston and correlation fields beside the rest)
_SCHEMA = {
    "model": {**_REFERENCE.pop("heston"), **_REFERENCE.pop("corr"), **_REFERENCE},
    "mc": asdict(McConfig()),
    "grid": {
        f.name: getattr(experiments.GridSpec, f.name)
        for f in fields(experiments.GridSpec)
        if f.name not in ("heston", "mc")
    },
}
# jobs stays unset so that an unpinned worker count defaults to all cores
_DEFAULT_CONFIG = {
    "model": _SCHEMA["model"],
    "maturity": 0.05,
    "mc": {k: v for k, v in _SCHEMA["mc"].items() if k != "jobs"},
    "grid": None,
}
# CLI spellings of the experiments conventions; ``a=<v>`` passes through
_CONVENTION_ALIASES = {
    "atm": "a=0", "lookup": "a=1", "a-star": "a_star", "a-star-bounded": "a_star_bounded",
}


@dataclass(frozen=True)
class RunConfig:
    model: TwoAssetModel
    maturity: float
    mc: McConfig
    grid: experiments.GridSpec
    out_dir: str
    raw: dict

    def out_path(self, name: str) -> str:
        path = os.path.join(self.out_dir, name)
        out_dir = os.path.abspath(self.out_dir)
        if os.path.commonpath([out_dir, os.path.abspath(path)]) != out_dir:
            raise InputError(f"output name {name!r} escapes the output directory")
        os.makedirs(os.path.dirname(path), exist_ok=True)  # here, where a command writes
        return path


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def load_config(path: str | None, overrides: dict | None = None) -> dict:
    raw = dict(_DEFAULT_CONFIG)
    if path is not None:
        if not os.path.exists(path):
            raise InputError(f"config file not found: {path}")
        with open(path) as fh:
            loaded = yaml.safe_load(fh) or {}
        if not isinstance(loaded, dict):
            raise InputError(f"config root must be a mapping, got {type(loaded).__name__}")
        raw = _merge(raw, loaded)
    if overrides:
        raw = _merge(raw, overrides)
    return raw


def _typed(name: str, key: str, like: object, value: object) -> object:
    """``value`` read as the type of the schema value ``like``: an integral
    number for an int key, a number for a float key, and a list of numbers for
    a list key; no key takes a YAML bool or string."""
    if isinstance(like, tuple):
        if not isinstance(value, (list, tuple)):
            raise InputError(
                f"{name} config key {key} must be a list of numbers, got {value!r}"
            )
        return tuple(_typed(name, key, 0.0, x) for x in value)
    kind = "an integer" if type(like) is int else "a number"
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or type(like) is int and not integral):
        raise InputError(f"{name} config key {key} must be {kind}, got {value!r}")
    return type(like)(value)


def _section(name: str, given: dict) -> dict:
    """The keys given in one config section, each read by ``_typed``; a key
    outside the schema is an InputError."""
    schema = _SCHEMA[name]
    unknown = [str(k) for k in given if k not in schema]
    if unknown:
        raise InputError(f"unknown {name} config key(s): {', '.join(unknown)}")
    return {k: _typed(name, k, schema[k], v) for k, v in given.items()}


def _build_run_config(raw: dict, out_dir: str) -> RunConfig:
    try:
        unknown = [str(k) for k in raw if k not in _DEFAULT_CONFIG]
        if unknown:
            raise InputError(f"unknown config key(s): {', '.join(unknown)}")
        m = _section("model", raw["model"])
        heston = HestonParams(**{f.name: m.pop(f.name) for f in fields(HestonParams)})
        corr = CorrelationStructure(
            **{f.name: m.pop(f.name) for f in fields(CorrelationStructure)}
        )
        model = TwoAssetModel(heston=heston, corr=corr, **m)
        mc = McConfig(**{"jobs": os.cpu_count() or 1, **_section("mc", raw["mc"])})
        maturity = _typed("top-level", "maturity", 0.0, raw["maturity"])
        if not (maturity > 0 and math.isfinite(maturity)):
            raise InputError(f"maturity must be positive, got {maturity}")
        grid = experiments.GridSpec(
            heston=model.heston, mc=mc, **_section("grid", raw["grid"] or {})
        )
    except (InputError, DomainError):
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        raise InputError(f"config is missing or mistypes a field: {err}") from err
    return RunConfig(model=model, maturity=maturity, mc=mc, grid=grid,
                     out_dir=out_dir, raw=raw)


def _solve_a_star(cfg: RunConfig) -> tuple[heston.SmileObservables, float]:
    model = cfg.model
    obs = heston.measure_smile_observables(
        model.heston, model.asset_x, model.asset_y, cfg.maturity
    )
    return obs, conv.a_star_observables(obs, model.rho)


def _cmd_price_exchange(cfg: RunConfig, args) -> int:
    model = cfg.model
    name = args.convention
    if name not in _CONVENTION_ALIASES and not name.startswith("a="):
        raise InputError(
            f"unknown convention {name!r}: expected atm|lookup|a=<v>|a-star|a-star-bounded"
        )
    a = experiments._convention_a(
        _CONVENTION_ALIASES.get(name, name), lambda: _solve_a_star(cfg)[1]
    )
    smile_x = heston.build_smile_grid(model.heston, model.asset_x, cfg.maturity, asset_id="X")
    smile_y = heston.build_smile_grid(model.heston, model.asset_y, cfg.maturity, asset_id="Y")
    x, y = math.log(model.s0x), math.log(model.s0y)
    k_x, k_y, i_x, i_y, gamma, price = experiments._price_points(
        smile_x, smile_y, model.rho, x, [y], cfg.maturity, a
    )[0]
    print(f"convention {name} (a={a:.6f})")
    print(f"strikes kX={k_x:.6f} kY={k_y:.6f} (K_X={math.exp(k_x):.4f} K_Y={math.exp(k_y):.4f})")
    print(f"leg vols IX={i_x:.6f} IY={i_y:.6f}")
    print(f"gamma {gamma:.6f}")
    print(f"price {price:.6f}")
    return 0


def _cmd_price_mc(cfg: RunConfig, args) -> int:
    model = cfg.model
    est = simulate_exchange(model, cfg.maturity, cfg.mc)
    # each leg's ATM vol: its smile at the one strike k = x0
    i_x, i_y = (heston.build_smile(model.heston, asset, cfg.maturity, [asset.x0])[0][1]
                for asset in (model.asset_x, model.asset_y))
    x, y = math.log(model.s0x), math.log(model.s0y)
    print(f"mc price {est.value:.6f}")
    print(f"mc stderr {est.stderr:.6f}")
    print(f"paths {est.n_paths} seed {est.seed} beta {est.beta}")
    try:
        gamma_hat = margrabe.exchange_implied_vol(est.value, x, y, cfg.maturity)
        rho_hat = margrabe.implied_correlation(gamma_hat, i_x, i_y)
        print(f"gamma_hat {gamma_hat:.6f}")
        print(f"implied_corr {rho_hat:.6f} (atm leg vols)")
    except DomainError:
        print("gamma_hat n/a (price at or below intrinsic)")
    return 0


def _cmd_surface(cfg: RunConfig, args) -> int:
    model = cfg.model
    asset = model.asset(args.asset)
    smile = heston.build_smile_grid(model.heston, asset, cfg.maturity, asset_id=args.asset)
    rows = heston.smile_csv_rows(smile)
    path = cfg.out_path(args.output)
    with open(path, "w", newline="") as fh:
        fh.write(experiments._csv(list(rows[0]), [list(row.values()) for row in rows]))
    print(f"wrote {len(rows)} strikes to {path}")
    return 0


def _cmd_convention_solve(cfg: RunConfig, args) -> int:
    model = cfg.model
    obs, a_star = _solve_a_star(cfg)
    lo, hi = obs.window
    print(f"inputs: rho={model.rho} T={cfg.maturity} window=({lo:.6f}, {hi:.6f})")
    print(f"levels IX={obs.level_x:.6f} IY={obs.level_y:.6f}")
    print(f"skews  SX={obs.skew_x:.6f} SY={obs.skew_y:.6f}")
    print(f"a_star_observables {a_star:.6f}")
    print(f"a_star_bounded {conv.bound_a(a_star):.6f}")
    try:
        a_param = conv.a_star_parametric(model.lam_x, model.lam_y, model.corr)
        print(f"a_star_parametric {a_param:.6f}")
    except DomainError as err:
        print(f"a_star_parametric n/a ({err})")
    return 0


def _write_report(cfg: RunConfig, path: str, rows: list[dict]) -> str:
    with open(path, "w") as fh:
        json.dump(experiments.report_json_payload(cfg.grid, rows), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _cmd_experiment_run(cfg: RunConfig, args) -> int:
    summary = experiments.grid_exclusion_summary(cfg.grid)
    print(
        f"grid: {summary.total_points} points, "
        f"{summary.invalid_triples}/{summary.total_triples} correlation triples invalid "
        f"({100.0 * summary.invalid_triple_fraction:.1f}%)"
    )
    if args.dry_run:
        print("dry run: no simulation (sub-cent and degenerate counts need prices)")
        return 0
    # both names are checked before the sweep, which can run for hours
    results_path, report_path = cfg.out_path(args.results), cfg.out_path(args.report)
    rows = experiments.run_grid(cfg.grid)
    experiments.write_results_csv(rows, results_path)
    _write_report(cfg, report_path, rows)
    summary = experiments.summarize_exclusions(rows)
    print(
        f"included {summary.included}, invalid-corr {summary.invalid_correlation}, "
        f"sub-cent {summary.sub_cent}, unresolvable-smile {summary.unresolvable_smile}, "
        f"degenerate-a* {summary.degenerate_convention}"
    )
    print(f"wrote {results_path} and {report_path}")
    return 0


def _cmd_experiment_report(cfg: RunConfig, args) -> int:
    if not os.path.exists(args.results):
        raise InputError(f"results file not found: {args.results}")
    rows = experiments.read_results_csv(args.results)
    reports = experiments.compute_metrics(rows)
    if all(r.empty for r in reports) or not reports:
        print("empty results: no included rows")
        return 0
    for rep in reports:
        if rep.empty:
            print(f"{rep.group} {rep.convention}: empty group")
            continue
        print(
            f"{rep.group} {rep.convention}: n={rep.n_points} MAE={rep.mae:.6f} "
            f"MAPE={rep.mape:.4%} RMSE={rep.rmse:.6f} MaxAE={rep.max_ae:.6f} "
            f"MStd={rep.mstd:.6f} ATM={rep.atm_error:.6f}"
        )
    if args.report:
        print(f"wrote {_write_report(cfg, cfg.out_path(args.report), rows)}")
    return 0


def _add_global_flags(parser: argparse.ArgumentParser, root: bool) -> None:
    # present on the root and on every leaf so they may come before or after
    # the subcommand; SUPPRESS keeps an omitted leaf copy from shadowing the
    # root value
    kw: dict = {} if root else {"default": argparse.SUPPRESS}
    parser.add_argument("--config", help="YAML configuration file", **kw)
    parser.add_argument("--seed", type=int, dest="mc.seed", help="Monte Carlo seed", **kw)
    parser.add_argument("--jobs", type=int, dest="mc.jobs",
                        help="parallel workers (default: all cores)", **kw)
    parser.add_argument("--out", help="output directory",
                        **({"default": "."} if root else kw))
    parser.add_argument("--print-config", action="store_true",
                        help="echo the effective config and exit", **kw)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exchopt",
        description="Exchange-option pricing with smile-aware strike conventions",
    )
    _add_global_flags(parser, root=True)
    sub = parser.add_subparsers(dest="command")

    price = sub.add_parser("price", help="price an exchange option")
    price_sub = price.add_subparsers(dest="subcommand", required=True)
    pe = price_sub.add_parser("exchange", help="closed form via a strike convention")
    pe.add_argument("--convention", default="a-star",
                    help="atm | lookup | a=<v> | a-star | a-star-bounded")
    pm = price_sub.add_parser("mc", help="Monte Carlo benchmark")
    pm.add_argument("--paths", type=int, dest="mc.n_paths")
    for leaf in (pe, pm):
        leaf.add_argument("--s0y", type=float, dest="model.s0y", help="the Y spot")

    surface = sub.add_parser("surface", help="write a leg smile CSV")
    surface.add_argument("--asset", choices=("X", "Y"), required=True)
    surface.add_argument("--output", default="smile.csv")

    convention = sub.add_parser("convention", help="solve for the optimal a")
    conv_sub = convention.add_subparsers(dest="subcommand", required=True)
    cs = conv_sub.add_parser("solve")
    for leaf in (pe, pm, surface, cs):
        leaf.add_argument("--T", type=float, dest="maturity", help="the maturity")

    experiment = sub.add_parser("experiment", help="grid sweeps and reports")
    exp_sub = experiment.add_subparsers(dest="subcommand", required=True)
    er = exp_sub.add_parser("run")
    er.add_argument("--dry-run", action="store_true")
    er.add_argument("--results", default="results.csv")
    er.add_argument("--report", default="report.json")
    ep = exp_sub.add_parser("report")
    ep.add_argument("--results", required=True)
    ep.add_argument("--report", default=None)
    for leaf in (er, ep):
        leaf.add_argument("--T", type=float, action="append", dest="grid.T_list")
        leaf.add_argument("--rho", type=float, action="append", dest="grid.rho_list")
        leaf.add_argument("--paths", type=int, dest="mc.n_paths")

    for leaf, handler in (
        (pe, _cmd_price_exchange), (pm, _cmd_price_mc), (surface, _cmd_surface),
        (cs, _cmd_convention_solve), (er, _cmd_experiment_run), (ep, _cmd_experiment_report),
    ):
        _add_global_flags(leaf, root=False)
        leaf.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # a flag's dest names the config key it overrides: "section.key" or
        # the top-level "maturity"
        overrides: dict = {}
        for dest, value in vars(args).items():
            if value is None:
                continue
            if "." in dest:
                section, key = dest.split(".")
                overrides.setdefault(section, {})[key] = value
            elif dest == "maturity":
                overrides[dest] = value
        raw = load_config(args.config, overrides)
        cfg = _build_run_config(raw, args.out)
        if args.print_config:
            print(yaml.safe_dump(cfg.raw, sort_keys=True, default_flow_style=False), end="")
            return 0
        if args.command is None:
            parser.print_help()
            return 0
        return args.handler(cfg, args)
    except (InputError, DomainError, OSError, yaml.YAMLError) as err:
        print(f'ERROR code=2 type={type(err).__name__} msg="{err}"', file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f'ERROR code=3 type={type(err).__name__} msg="{err}"', file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
