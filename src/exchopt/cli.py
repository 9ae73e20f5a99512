"""Command-line front end.

Subcommands: ``price`` (closed-form quote or Monte Carlo), ``surface`` (smile
CSV export), ``convention`` (solve for a*), ``experiment`` (grid sweeps and
reports).  Configuration comes from an optional YAML file plus flag overrides
(flags win); all artifacts land inside the ``--out`` directory.

Exit codes: 0 success, 2 invalid configuration or inputs, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import yaml

from . import convention as conv
from . import experiments, heston, margrabe
from .errors import DomainError, InputError, NumericalError
from .models import CorrelationStructure, HestonParams, TwoAssetModel
from .simulation import McConfig, simulate_exchange

__all__ = ["main", "RunConfig", "load_config"]

_DEFAULT_CONFIG = {
    "model": {
        "kappa": 1.5, "theta": 0.15, "nu": 0.5, "sigma0": 0.15,
        "lam_x": 1.5, "lam_y": 1.0,
        "rho": 0.5, "rho_x": -0.4, "rho_y": -0.6,
        "s0x": 100.0, "s0y": 100.0,
    },
    "maturity": 0.05,
    "mc": {
        "n_paths": 100_000,
        "n_steps": 2000,
        "seed": 0,
        "use_control_variate": True,
    },
    "grid": None,
}


@dataclass(frozen=True)
class RunConfig:
    model: TwoAssetModel
    maturity: float
    mc: McConfig
    grid: experiments.GridSpec | None
    out_dir: str
    raw: dict

    def out_path(self, name: str) -> str:
        path = os.path.join(self.out_dir, name)
        out_dir = os.path.abspath(self.out_dir)
        if os.path.commonpath([out_dir, os.path.abspath(path)]) != out_dir:
            raise InputError(f"output name {name!r} escapes the output directory")
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


def _build_run_config(raw: dict, out_dir: str) -> RunConfig:
    m = raw["model"]
    try:
        model = TwoAssetModel(
            heston=HestonParams(
                kappa=float(m["kappa"]), theta=float(m["theta"]),
                nu=float(m["nu"]), sigma0=float(m["sigma0"]),
            ),
            lam_x=float(m["lam_x"]), lam_y=float(m["lam_y"]),
            s0x=float(m["s0x"]), s0y=float(m["s0y"]),
            corr=CorrelationStructure(
                rho=float(m["rho"]), rho_x=float(m["rho_x"]), rho_y=float(m["rho_y"]),
            ),
        )
        mc_raw = raw["mc"]
        mc = McConfig(
            n_paths=int(mc_raw["n_paths"]),
            n_steps=int(mc_raw["n_steps"]),
            seed=int(mc_raw["seed"]),
            use_control_variate=bool(mc_raw["use_control_variate"]),
            jobs=int(mc_raw.get("jobs", 1)),
        )
        maturity = float(raw["maturity"])
        if not (maturity > 0 and math.isfinite(maturity)):
            raise InputError(f"maturity must be positive, got {maturity}")
        grid = None
        if raw.get("grid"):
            g, default = raw["grid"], experiments.GridSpec
            grid = default(
                heston=model.heston,
                mc=mc,
                **{k: float(g.get(k, getattr(default, k))) for k in ("s0x", "lam_x", "lam_y")},
                **{
                    k: tuple(float(v) for v in g.get(k, getattr(default, k)))
                    for k in ("T_list", "s0y_list", "rho_list", "rho_x_list", "rho_y_list")
                },
            )
    except (KeyError, TypeError) as err:
        raise InputError(f"config is missing or mistypes a field: {err}") from err
    return RunConfig(model=model, maturity=maturity, mc=mc, grid=grid,
                     out_dir=out_dir, raw=raw)


def _print_config(cfg: RunConfig) -> None:
    print(yaml.safe_dump(cfg.raw, sort_keys=True, default_flow_style=False), end="")


def _solve_a_star(cfg: RunConfig) -> tuple[heston.SmileObservables, float]:
    model = cfg.model
    obs = heston.measure_smile_observables(
        model.heston, model.asset_x, model.asset_y, cfg.maturity
    )
    return obs, conv.a_star_observables(obs, model.rho)


def _convention_value(name: str, cfg: RunConfig) -> float:
    if name == "atm":
        return 0.0
    if name == "lookup":
        return 1.0
    if name.startswith("a="):
        try:
            return float(name[2:])
        except ValueError as err:
            raise InputError(f"bad convention value {name!r}") from err
    if name in ("a-star", "a-star-bounded"):
        a = _solve_a_star(cfg)[1]
        return conv.bound_a(a) if name == "a-star-bounded" else a
    raise InputError(
        f"unknown convention {name!r}: expected atm|lookup|a=<v>|a-star|a-star-bounded"
    )


def _cmd_price_exchange(cfg: RunConfig, args) -> int:
    model = cfg.model
    a = _convention_value(args.convention, cfg)
    smile_x = heston.build_smile_grid(model.heston, model.asset_x, cfg.maturity, asset_id="X")
    smile_y = heston.build_smile_grid(model.heston, model.asset_y, cfg.maturity, asset_id="Y")
    x, y = math.log(model.s0x), math.log(model.s0y)
    k_x, k_y, i_x, i_y, gamma, price = experiments._price_point(
        smile_x, smile_y, model.rho, x, y, cfg.maturity, a
    )
    print(f"convention {args.convention} (a={a:.6f})")
    print(f"strikes kX={k_x:.6f} kY={k_y:.6f} (K_X={math.exp(k_x):.4f} K_Y={math.exp(k_y):.4f})")
    print(f"leg vols IX={i_x:.6f} IY={i_y:.6f}")
    print(f"gamma {gamma:.6f}")
    print(f"price {price:.6f}")
    return 0


def _cmd_price_mc(cfg: RunConfig, args) -> int:
    model = cfg.model
    est = simulate_exchange(model, cfg.maturity, cfg.mc)
    atm = heston.measure_atm_observables(model.heston, model.asset_x, model.asset_y, cfg.maturity)
    x, y = math.log(model.s0x), math.log(model.s0y)
    print(f"mc price {est.value:.6f}")
    print(f"mc stderr {est.stderr:.6f}")
    print(f"paths {est.n_paths} seed {est.seed} beta {est.beta if est.beta is not None else 'off'}")
    try:
        gamma_hat = margrabe.exchange_implied_vol(est.value, x, y, cfg.maturity)
        rho_hat = margrabe.implied_correlation(gamma_hat, atm.level_x, atm.level_y)
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
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} strikes to {path}")
    return 0


def _cmd_convention_solve(cfg: RunConfig, args) -> int:
    model = cfg.model
    obs, a_star = _solve_a_star(cfg)
    limits = conv.ModelLimits(
        lam_x=model.lam_x, lam_y=model.lam_y,
        rho=model.rho, rho_x=model.corr.rho_x, rho_y=model.corr.rho_y,
    )
    print(f"inputs: rho={model.rho} T={cfg.maturity} skew_span=+-{obs.dz:.6f}")
    print(f"levels IX={obs.level_x:.6f} IY={obs.level_y:.6f}")
    print(f"skews  SX={obs.skew_x:.6f} SY={obs.skew_y:.6f}")
    print(f"a_star_observables {a_star:.6f}")
    print(f"a_star_bounded {conv.bound_a(a_star):.6f}")
    try:
        print(f"a_star_parametric {conv.a_star_parametric(limits):.6f}")
    except DomainError as err:
        print(f"a_star_parametric n/a ({err})")
    return 0


def _grid_from_args(cfg: RunConfig, args) -> experiments.GridSpec:
    spec = cfg.grid or experiments.GridSpec(heston=cfg.model.heston, mc=cfg.mc)
    spec = replace(spec, mc=cfg.mc)
    if args.T:
        spec = replace(spec, T_list=tuple(args.T))
    if args.rho:
        spec = replace(spec, rho_list=tuple(args.rho))
    if args.paths:
        spec = replace(spec, mc=replace(spec.mc, n_paths=args.paths))
    return spec


def _write_report(
    cfg: RunConfig, name: str, spec: experiments.GridSpec, rows: list[dict]
) -> str:
    path = cfg.out_path(name)
    with open(path, "w") as fh:
        json.dump(experiments.report_json_payload(spec, rows), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _cmd_experiment_run(cfg: RunConfig, args) -> int:
    spec = _grid_from_args(cfg, args)
    summary = experiments.grid_exclusion_summary(spec)
    print(
        f"grid: {summary.total_points} points, "
        f"{summary.invalid_triples}/{summary.total_triples} correlation triples invalid "
        f"({100.0 * summary.invalid_triple_fraction:.1f}%)"
    )
    if args.dry_run:
        print("dry run: no simulation (sub-cent and degenerate counts need prices)")
        return 0
    rows = experiments.run_grid(spec)
    results_path = cfg.out_path(args.results)
    experiments.write_results_csv(rows, results_path)
    report_path = _write_report(cfg, args.report, spec, rows)
    summary = experiments.summarize_exclusions(rows)
    print(
        f"included {summary.included}, invalid-corr {summary.invalid_correlation}, "
        f"sub-cent {summary.sub_cent}, degenerate-a* {summary.degenerate_convention}"
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
            f"MStd={rep.mstd if not math.isnan(rep.mstd) else float('nan'):.6f} "
            f"ATM={rep.atm_error if not math.isnan(rep.atm_error) else float('nan'):.6f}"
        )
    if args.report:
        spec = _grid_from_args(cfg, args)
        print(f"wrote {_write_report(cfg, args.report, spec, rows)}")
    return 0


def _add_global_flags(parser: argparse.ArgumentParser, root: bool) -> None:
    # present on the root and on every leaf so they may come before or after
    # the subcommand; SUPPRESS keeps an omitted leaf copy from shadowing the
    # root value
    kw: dict = {} if root else {"default": argparse.SUPPRESS}
    parser.add_argument("--config", help="YAML configuration file", **kw)
    parser.add_argument("--seed", type=int, help="override mc.seed", **kw)
    parser.add_argument("--jobs", type=int,
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
    pm.add_argument("--paths", type=int)
    for leaf in (pe, pm):
        leaf.add_argument("--s0y", type=float, help="override the Y spot")
        leaf.add_argument("--T", type=float, help="override the maturity")

    surface = sub.add_parser("surface", help="write a leg smile CSV")
    surface.add_argument("--asset", choices=("X", "Y"), required=True)
    surface.add_argument("--T", type=float)
    surface.add_argument("--output", default="smile.csv")

    convention = sub.add_parser("convention", help="solve for the optimal a")
    conv_sub = convention.add_subparsers(dest="subcommand", required=True)
    cs = conv_sub.add_parser("solve")
    cs.add_argument("--T", type=float)

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
        leaf.add_argument("--T", type=float, action="append")
        leaf.add_argument("--rho", type=float, action="append")
        leaf.add_argument("--paths", type=int)

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
        overrides: dict = {}
        if args.seed is not None:
            overrides.setdefault("mc", {})["seed"] = args.seed
        if args.jobs is not None:
            overrides.setdefault("mc", {})["jobs"] = args.jobs
        if args.command in ("price", "surface", "convention") and args.T is not None:
            overrides["maturity"] = args.T
        if getattr(args, "s0y", None) is not None:
            overrides.setdefault("model", {})["s0y"] = args.s0y
        if getattr(args, "paths", None) is not None and args.command == "price":
            overrides.setdefault("mc", {})["n_paths"] = args.paths
        raw = load_config(args.config, overrides)
        os.makedirs(args.out, exist_ok=True)
        cfg = _build_run_config(raw, args.out)
        # default to all cores only when neither flag nor config pins jobs
        if args.jobs is None and "jobs" not in raw.get("mc", {}):
            cfg = replace(cfg, mc=replace(cfg.mc, jobs=os.cpu_count() or 1))
        if args.print_config:
            _print_config(cfg)
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
