"""Reproduction harness: test cases, the parameter-grid sweep, error metrics
and plot-ready CSV extracts.

The Monte Carlo benchmark simulates one normalized path set per parameter
combination and reprices every moneyness from it (payoff homogeneity in the
initial spots), which both speeds the sweep up an order of magnitude and
smooths error curves across moneyness via common random numbers.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from . import convention as conv
from . import heston, margrabe
from .errors import DegenerateConventionError, DomainError, InputError, NumericalError
from .models import CorrelationStructure, HestonParams, TwoAssetModel, validate_correlation
from .simulation import (
    BLOCK_SIZE,
    McConfig,
    PriceEstimate,
    exchange_estimate_from_sample,
    simulate_terminal,
)

__all__ = [
    "GridSpec",
    "ErrorReport",
    "ExclusionSummary",
    "TestCaseResult",
    "CONVENTIONS",
    "SUB_CENT_THRESHOLD",
    "reference_case_model",
    "run_test_case",
    "run_grid",
    "grid_exclusion_summary",
    "compute_metrics",
    "emit_plot_data",
    "results_csv",
    "write_results_csv",
    "read_results_csv",
    "report_json_payload",
]

CONVENTIONS = ("a=0", "a=1", "a_star", "a_star_bounded")
SUB_CENT_THRESHOLD = 0.01

# the grid point a results row is priced at; every row key is built from it
POINT = ("T", "rho", "rho_X", "rho_Y", "s0X", "s0Y")
RESULT_COLUMNS = POINT + (
    "convention", "a_value",
    "kX", "kY", "IX", "IY", "margrabe_price", "mc_price", "mc_stderr",
    "error", "implied_corr", "excluded", "exclusion_reason",
)

_BASE_PARAMS_HESTON = HestonParams(kappa=1.5, theta=0.15, nu=0.5, sigma0=0.15)


def _frange(start: float, stop: float, step: float) -> tuple[float, ...]:
    n = int(round((stop - start) / step)) + 1
    return tuple(start + i * step for i in range(n))


@dataclass(frozen=True)
class GridSpec:
    """Sweep specification; the defaults mirror the reference study exactly."""

    T_list: tuple[float, ...] = (0.05, 0.1, 0.25, 0.5, 1.0)
    s0x: float = 100.0
    s0y_list: tuple[float, ...] = _frange(80.0, 120.0, 4.0)
    lam_x: float = 1.0
    lam_y: float = 1.24
    heston: HestonParams = _BASE_PARAMS_HESTON
    rho_list: tuple[float, ...] = (-0.9, -0.7, -0.5, -0.3, -0.1, 0.1, 0.3, 0.5, 0.7, 0.9)
    rho_x_list: tuple[float, ...] = (-0.72, -0.42, -0.12, 0.18, 0.48)
    rho_y_list: tuple[float, ...] = (-0.61, -0.31, -0.01, 0.29, 0.59)
    mc: McConfig = field(default_factory=McConfig)

    def combos(self):
        """(iT, irho, irx, iry, T, rho, rho_x, rho_y) in canonical order."""
        for i_t, T in enumerate(self.T_list):
            for i_r, rho in enumerate(self.rho_list):
                for i_x, rho_x in enumerate(self.rho_x_list):
                    for i_y, rho_y in enumerate(self.rho_y_list):
                        yield i_t, i_r, i_x, i_y, T, rho, rho_x, rho_y

    def n_points(self) -> int:
        return (
            len(self.T_list) * len(self.rho_list) * len(self.rho_x_list)
            * len(self.rho_y_list) * len(self.s0y_list)
        )


@dataclass(frozen=True)
class ExclusionSummary:
    """Grid-point accounting: included + excluded categories == total."""

    total_points: int
    included: int
    invalid_correlation: int
    sub_cent: int
    degenerate_convention: int
    total_triples: int
    invalid_triples: int

    @property
    def invalid_triple_fraction(self) -> float:
        return self.invalid_triples / self.total_triples if self.total_triples else 0.0


@dataclass(frozen=True)
class ErrorReport:
    """Error metrics of one convention within one group of grid rows."""

    group: dict
    convention: str
    n_points: int
    mae: float
    mape: float
    rmse: float
    max_ae: float
    mstd: float
    atm_error: float

    @property
    def empty(self) -> bool:
        return self.n_points == 0


def _derived_seed(master: int, *indices: int) -> int:
    ss = np.random.SeedSequence((int(master),) + tuple(int(i) for i in indices))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def reference_case_model(case_id: int) -> TwoAssetModel:
    """The two reference parameterisations; they differ only in rho_Y."""
    if case_id not in (1, 2):
        raise ValueError(f"case_id must be 1 or 2, got {case_id}")
    rho_y = -0.6 if case_id == 1 else 0.4
    return TwoAssetModel(
        heston=_BASE_PARAMS_HESTON,
        lam_x=1.5,
        lam_y=1.0,
        s0x=100.0,
        s0y=100.0,
        corr=CorrelationStructure(rho=0.5, rho_x=-0.4, rho_y=rho_y),
    )


@dataclass
class TestCaseResult:
    case_id: int
    T: float
    a_star: float
    a_star_parametric: float
    observables: heston.SmileObservables
    smile_x: heston.Smile
    smile_y: heston.Smile
    rows: list[dict]


def _convention_a(name: str, a_star: Callable[[], float | None]) -> float:
    """The log-linear weight of a named convention: ``a=<v>`` (so ``a=0`` is
    own-ATM vols and ``a=1`` the look-up rule), ``a_star`` or
    ``a_star_bounded``; ``a_star`` is called only for the last two."""
    if name.startswith("a="):
        try:
            return float(name[2:])
        except ValueError as err:
            raise InputError(f"bad convention value {name!r}") from err
    if name not in ("a_star", "a_star_bounded"):
        raise InputError(f"unknown convention {name!r}")
    a = a_star()
    if a is None:
        raise DegenerateConventionError("a_star unavailable for this point")
    return conv.bound_a(a) if name == "a_star_bounded" else a


def _price_point(
    smile_x: heston.Smile,
    smile_y: heston.Smile,
    rho: float,
    x: float,
    y: float,
    T: float,
    a: float,
) -> tuple[float, float, float, float, float, float]:
    """(k_X, k_Y, I_X, I_Y, gamma, margrabe price) for one convention at one
    point."""
    k_x, k_y = conv.strikes(a, x, y)
    i_x = smile_x.vol_at_moneyness(k_x - x)
    i_y = smile_y.vol_at_moneyness(k_y - y)
    gamma = margrabe.convention_gamma(i_x, i_y, rho)
    return k_x, k_y, i_x, i_y, gamma, margrabe.margrabe_price(x, y, gamma, T)


def _point(T: float, corr: CorrelationStructure, s0x: float, s0y: float) -> dict:
    return dict(zip(POINT, (T, corr.rho, corr.rho_x, corr.rho_y, s0x, s0y)))


def _point_rows(
    smile_x: heston.Smile,
    smile_y: heston.Smile,
    point: dict,
    est: PriceEstimate,
    a_star: float | None,
    conventions: Sequence[str],
) -> list[dict]:
    """Rows of one priced grid point, one per convention; a convention whose
    a* is unavailable gets an excluded row."""
    T, rho = point["T"], point["rho"]
    x, y = math.log(point["s0X"]), math.log(point["s0Y"])
    try:
        gamma_hat = margrabe.exchange_implied_vol(est.value, x, y, T)
    except (DomainError, NumericalError):
        gamma_hat = math.nan
    rows: list[dict] = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", margrabe.ImpliedCorrelationBoundsWarning)
        for name in conventions:
            try:
                a = _convention_a(name, lambda: a_star)
            except DegenerateConventionError:
                rows.append(_excluded_row(point, name, "degenerate_convention", est))
                continue
            k_x, k_y, i_x, i_y, _, price = _price_point(
                smile_x, smile_y, rho, x, y, T, a
            )
            rho_hat = (
                margrabe.implied_correlation(gamma_hat, i_x, i_y)
                if np.isfinite(gamma_hat)
                else math.nan
            )
            rows.append(
                {
                    **point, "convention": name, "a_value": a,
                    "kX": k_x, "kY": k_y, "IX": i_x, "IY": i_y,
                    "margrabe_price": price,
                    "mc_price": est.value, "mc_stderr": est.stderr,
                    "error": price - est.value,
                    "implied_corr": rho_hat,
                    "excluded": False, "exclusion_reason": "",
                }
            )
    return rows


def run_test_case(
    case_id: int,
    T: float = 0.05,
    mc: McConfig | None = None,
    s0y_values: Sequence[float] | None = None,
) -> TestCaseResult:
    """Per-moneyness comparison table for one reference case: smiles, prices
    under a = 0 / a = 1 / a*, the MC benchmark and implied correlations."""
    mc = mc or McConfig()
    model = reference_case_model(case_id)
    if s0y_values is None:
        s0y_values = _frange(80.0, 120.0, 2.0)

    params = model.heston
    smile_x = heston.build_smile_grid(params, model.asset_x, T, asset_id="X")
    smile_y = heston.build_smile_grid(params, model.asset_y, T, asset_id="Y")
    obs = heston.measure_smile_observables(params, model.asset_x, model.asset_y, T)
    a_star = conv.a_star_observables(obs, model.rho)
    a_param = conv.a_star_parametric(model.lam_x, model.lam_y, model.corr)

    sample = simulate_terminal(model, T, mc)
    rows: list[dict] = []
    for s0y in s0y_values:
        est = exchange_estimate_from_sample(sample, model.s0x, s0y)
        rows += _point_rows(
            smile_x, smile_y, _point(T, model.corr, model.s0x, s0y), est, a_star,
            ("a=0", "a=1", "a_star"),
        )
    return TestCaseResult(
        case_id=case_id, T=T, a_star=a_star, a_star_parametric=a_param,
        observables=obs, smile_x=smile_x, smile_y=smile_y, rows=rows,
    )


def grid_exclusion_summary(spec: GridSpec) -> ExclusionSummary:
    """Deterministic point counts (no simulation): how many correlation
    triples, and hence grid points, the PSD test excludes."""
    triples = [
        CorrelationStructure(rho=rho, rho_x=rho_x, rho_y=rho_y)
        for rho in spec.rho_list for rho_x in spec.rho_x_list for rho_y in spec.rho_y_list
    ]
    total_triples = len(triples)
    invalid_triples = sum(not validate_correlation(c)[0] for c in triples)
    points_per_triple = len(spec.T_list) * len(spec.s0y_list)
    return ExclusionSummary(
        total_points=spec.n_points(),
        included=(total_triples - invalid_triples) * points_per_triple,
        invalid_correlation=invalid_triples * points_per_triple,
        sub_cent=0,
        degenerate_convention=0,
        total_triples=total_triples,
        invalid_triples=invalid_triples,
    )


def _excluded_row(point: dict, name: str, reason: str, est: PriceEstimate | None = None):
    row = dict.fromkeys(RESULT_COLUMNS, math.nan)
    row.update(point, convention=name, excluded=True, exclusion_reason=reason)
    if est is not None:
        row.update(mc_price=est.value, mc_stderr=est.stderr)
    return row


def run_grid(spec: GridSpec) -> list[dict]:
    """Run the sweep; one row per (grid point, convention), excluded points
    included with their reason so the accounting closes."""
    # smiles and observables depend on a leg only through its AssetSpec, which
    # repeats across rho; every leg sits at the reference spot s0x, and
    # lookups go through log-moneyness
    smile = functools.cache(heston.build_smile_grid)
    observables = functools.cache(heston.measure_smile_observables)
    rows: list[dict] = []
    for i_t, i_r, i_x, i_y, T, rho, rho_x, rho_y in spec.combos():
        model = TwoAssetModel(
            heston=spec.heston, lam_x=spec.lam_x, lam_y=spec.lam_y,
            s0x=spec.s0x, s0y=spec.s0x,
            corr=CorrelationStructure(rho=rho, rho_x=rho_x, rho_y=rho_y),
        )
        points = [_point(T, model.corr, spec.s0x, s0y) for s0y in spec.s0y_list]
        if not validate_correlation(model.corr)[0]:
            rows += [
                _excluded_row(point, name, "invalid_correlation")
                for point in points for name in CONVENTIONS
            ]
            continue

        smile_x = smile(spec.heston, model.asset_x, T, asset_id="X")
        smile_y = smile(spec.heston, model.asset_y, T, asset_id="Y")
        try:
            a_star = conv.a_star_observables(
                observables(spec.heston, model.asset_x, model.asset_y, T), rho
            )
        except (DegenerateConventionError, DomainError):
            a_star = None

        mc = replace(spec.mc, seed=_derived_seed(spec.mc.seed, i_t, i_r, i_x, i_y))
        sample = simulate_terminal(model, T, mc)

        for point in points:
            est = exchange_estimate_from_sample(sample, spec.s0x, point["s0Y"])
            if est.value < SUB_CENT_THRESHOLD:
                rows += [_excluded_row(point, name, "sub_cent", est) for name in CONVENTIONS]
                continue
            rows += _point_rows(smile_x, smile_y, point, est, a_star, CONVENTIONS)
    rows.sort(key=_row_key)
    return rows


def _row_key(row: dict):
    return tuple(row[k] for k in POINT) + (CONVENTIONS.index(row["convention"]),)


def summarize_exclusions(rows: Iterable[dict]) -> ExclusionSummary:
    """Close the accounting from actual sweep rows.

    A grid point counts as excluded when every convention row at it is
    (invalid correlation, sub-cent benchmark); a degenerate a* only loses the
    a_star rows, so those points stay included and are tallied separately.
    """
    reasons: dict[tuple, set[str]] = {}
    for row in rows:
        key = tuple(row[k] for k in POINT)
        reasons.setdefault(key, set()).add(
            row["exclusion_reason"] if row["excluded"] else ""
        )
    counts = {"": 0, "invalid_correlation": 0, "sub_cent": 0}
    degenerate = 0
    # triple counts come from the rows themselves so reports recomputed from a
    # CSV stay correct even when the spec in hand differs from the producing run
    invalid_triples = set()
    for key, tags in reasons.items():
        if "degenerate_convention" in tags:
            degenerate += 1
        point_tags = tags - {"degenerate_convention"}
        if point_tags == {"invalid_correlation"}:
            counts["invalid_correlation"] += 1
            invalid_triples.add(key[1:4])
        elif point_tags == {"sub_cent"}:
            counts["sub_cent"] += 1
        else:
            counts[""] += 1
    return ExclusionSummary(
        total_points=len(reasons),
        included=counts[""],
        invalid_correlation=counts["invalid_correlation"],
        sub_cent=counts["sub_cent"],
        degenerate_convention=degenerate,
        total_triples=len({key[1:4] for key in reasons}),
        invalid_triples=len(invalid_triples),
    )


def compute_metrics(
    rows: Iterable[dict],
    group_by: Sequence[str] = ("T", "rho"),
    exclude_extreme_a: bool = False,
) -> list[ErrorReport]:
    """Per-group, per-convention error metrics over included rows.

    MAE/MAPE/RMSE/MaxAE act on |margrabe - mc|; MStd is the mean over
    (T, rho, rho_X, rho_Y) combinations of the standard deviation of signed
    errors across the moneyness grid; atm_error is the MAE restricted to
    s0Y == s0X.  ``exclude_extreme_a`` drops every grid point whose raw a*
    falls outside [-1, 2] (all conventions, mirroring the reference study's
    exclusion variant).
    """
    rows = [r for r in rows if not r["excluded"]]
    if exclude_extreme_a:
        extreme_keys = {
            tuple(r[k] for k in POINT)
            for r in rows
            if r["convention"] == "a_star"
            and not conv.A_BOUNDS[0] <= r["a_value"] <= conv.A_BOUNDS[1]
        }
        rows = [r for r in rows if tuple(r[k] for k in POINT) not in extreme_keys]

    groups: dict[tuple, dict[str, list[dict]]] = {}
    for r in rows:
        gkey = tuple(r[k] for k in group_by)
        groups.setdefault(gkey, {}).setdefault(r["convention"], []).append(r)
    conventions = dict.fromkeys(r["convention"] for r in rows)

    reports: list[ErrorReport] = []
    for gkey in sorted(groups):
        for name in conventions:
            sel = groups[gkey].get(name, [])
            group = dict(zip(group_by, gkey))
            if not sel:
                reports.append(
                    ErrorReport(group, name, 0, math.nan, math.nan, math.nan,
                                math.nan, math.nan, math.nan)
                )
                continue
            err = np.array([r["error"] for r in sel])
            mc_val = np.array([r["mc_price"] for r in sel])
            abs_err = np.abs(err)
            combos: dict[tuple, list[float]] = {}
            for r in sel:
                # the point without s0Y: one combination's moneyness grid
                combos.setdefault(tuple(r[k] for k in POINT[:-1]), []).append(r["error"])
            # population std: a single-moneyness combo contributes zero spread
            stds = [float(np.std(v)) for v in combos.values()]
            atm = [abs(r["error"]) for r in sel if r["s0Y"] == r["s0X"]]
            reports.append(
                ErrorReport(
                    group=group,
                    convention=name,
                    n_points=len(sel),
                    mae=float(np.mean(abs_err)),
                    mape=float(np.mean(abs_err / mc_val)),
                    rmse=float(np.sqrt(np.mean(err * err))),
                    max_ae=float(np.max(abs_err)),
                    mstd=float(np.mean(stds)) if stds else math.nan,
                    atm_error=float(np.mean(atm)) if atm else math.nan,
                )
            )
    return reports


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    v = float(value)
    if math.isnan(v):
        return ""
    return repr(v)


def results_csv(rows: Iterable[dict]) -> str:
    """Serialize sweep rows with full float precision; byte-stable for a given
    row list."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RESULT_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row.get(col)) for col in RESULT_COLUMNS])
    return buf.getvalue()


def write_results_csv(rows: Iterable[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(results_csv(rows))


def read_results_csv(path) -> list[dict]:
    """Rows of a results file.  A file without every column, a row whose field
    count differs from the header's, a number cell that does not parse or an
    ``excluded`` cell other than true/false is an InputError naming the line."""
    rows: list[dict] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [col for col in RESULT_COLUMNS if col not in header]
        if missing:
            raise InputError(f"results file {path} lacks column(s): {', '.join(missing)}")
        pos = {col: header.index(col) for col in RESULT_COLUMNS}
        for cells in reader:
            if not cells:
                continue  # blank line
            where = f"results file {path} line {reader.line_num}"
            if len(cells) != len(header):
                raise InputError(f"{where}: {len(cells)} fields, header has {len(header)}")
            row: dict = {}
            for col, i in pos.items():
                raw = cells[i]
                if col == "convention" or col == "exclusion_reason":
                    row[col] = raw
                elif col == "excluded":
                    if raw not in ("true", "false"):
                        raise InputError(f"{where} column {col}: {raw!r} is not true or false")
                    row[col] = raw == "true"
                else:
                    try:
                        row[col] = float(raw) if raw != "" else math.nan
                    except ValueError:
                        raise InputError(f"{where} column {col}: {raw!r} is not a number") from None
            rows.append(row)
    return rows


def emit_plot_data(result, kind: str) -> str:
    """Tidy plot extracts as CSV text with columns series, x, y.

    kinds: ``skew`` (leg smiles, needs a TestCaseResult), ``implied_corr``,
    ``ratio``, ``difference`` (per-convention curves vs S0^Y) and
    ``moneyness_error`` (mean absolute error vs S0^Y across a row set).
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["series", "x", "y"])

    if kind == "skew":
        if not isinstance(result, TestCaseResult):
            raise ValueError("kind='skew' needs a TestCaseResult with smiles")
        for smile in (result.smile_x, result.smile_y):
            for rec in heston.smile_csv_rows(smile):
                writer.writerow(
                    [smile.asset_id, _fmt(rec["strike"]), _fmt(rec["implied_vol"])]
                )
        return buf.getvalue()

    rows = result.rows if isinstance(result, TestCaseResult) else result
    rows = [r for r in rows if not r["excluded"]]
    if kind in ("implied_corr", "difference", "ratio"):
        for r in rows:
            if kind == "ratio":
                value = (
                    r["margrabe_price"] / r["mc_price"] if r["mc_price"] else math.nan
                )
            else:
                value = r["implied_corr" if kind == "implied_corr" else "error"]
            writer.writerow([r["convention"], _fmt(r["s0Y"]), _fmt(value)])
        return buf.getvalue()

    if kind == "moneyness_error":
        acc: dict[tuple[str, float], list[float]] = {}
        for r in rows:
            acc.setdefault((r["convention"], r["s0Y"]), []).append(abs(r["error"]))
        for (name, s0y) in sorted(acc, key=lambda k: (k[0], k[1])):
            writer.writerow([name, _fmt(s0y), _fmt(float(np.mean(acc[(name, s0y)])))])
        return buf.getvalue()

    raise ValueError(f"unknown plot kind {kind!r}")


def report_json_payload(spec: GridSpec, rows: list[dict]) -> dict:
    """Metrics per grouping ((T, rho) and T) and convention plus exclusion
    accounting and the run configuration (seed and stream layout included),
    in a JSON-serializable layout."""
    def clean(v):
        return None if isinstance(v, float) and math.isnan(v) else v

    config = {**asdict(spec), "conventions": CONVENTIONS}
    del config["mc"]["jobs"]  # results do not depend on the worker count
    # per-combination streams: SeedSequence((seed, iT, irho, irx, iry)) gives
    # the stream seed, then block b of BLOCK_SIZE paths draws SFC64 from child b
    # of SeedSequence(stream seed)
    config["mc"]["stream_derivation"] = (
        f"seedseq(seed, iT, irho, irhoX, irhoY); sfc64 blocks of {BLOCK_SIZE}, "
        "block b from child b of seedseq(stream)"
    )
    payload: dict = {
        "config": config,
        "exclusions": asdict(summarize_exclusions(rows)),
        "metrics": {},
    }
    for group_by in (("T", "rho"), ("T",)):
        for variant, flag in (("all", False), ("exclude_extreme_a", True)):
            reports = compute_metrics(rows, group_by=group_by, exclude_extreme_a=flag)
            key = "+".join(group_by) + ":" + variant
            payload["metrics"][key] = [
                {k: clean(v) for k, v in asdict(r).items()} for r in reports
            ]
    return payload
