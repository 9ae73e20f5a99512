"""Reproduction harness: test cases, the parameter-grid sweep, error metrics
and plot-ready CSV extracts.

The sweep (``run_grid``) follows one plan, walked one maturity at a time.  The
grid's correlation triples and their one PSD verdict are listed once
(``_triples``, which ``grid_exclusion_summary`` reads too).  At each maturity
every leg a valid triple uses gets one smile and every (rho_X, rho_Y) pair one
observables measurement; each valid triple then gets one a*, one Monte Carlo
sample and the rows of all its S0Y together, each convention's a resolved once
and each point priced with one vol read per leg (``_triple_rows`` over
``_price_point``, which ``run_test_case`` shares).  The sample is one
normalized path set, repriced at every moneyness by payoff homogeneity in the
initial spots, which also smooths error curves across moneyness via common
random numbers.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from . import convention as conv
from . import heston, margrabe
from .errors import (
    DegenerateConventionError, DomainError, InputError, NumericalError, correlation, positive,
)
from .models import (
    AssetSpec, CorrelationStructure, HestonParams, TwoAssetModel, validate_correlation,
)
from .simulation import (
    BLOCK_SIZE, McConfig, PriceEstimate, exchange_estimate_from_sample, simulate_terminal,
)

__all__ = [
    "GridSpec", "ErrorReport", "ExclusionSummary", "TestCaseResult", "CONVENTIONS",
    "SUB_CENT_THRESHOLD", "reference_case_model", "run_test_case", "run_grid",
    "grid_exclusion_summary", "compute_metrics", "emit_plot_data", "results_csv",
    "write_results_csv", "read_results_csv", "report_json_payload",
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

    def __post_init__(self):
        # an empty list would simulate for no row, and a repeated value would price
        # its points twice: either way the accounting could not close
        for name in ("T_list", "s0y_list", "rho_list", "rho_x_list", "rho_y_list"):
            values = getattr(self, name)
            if not values:
                raise InputError(f"{name} is empty")
            if len(set(values)) != len(values):
                raise InputError(f"{name} repeats a value: {list(values)}")
        for T in self.T_list:
            positive(T_list=T)
        for name in ("rho_list", "rho_x_list", "rho_y_list"):
            for rho in getattr(self, name):
                correlation(**{name: rho})
        positive(s0x=self.s0x)
        for s0y in self.s0y_list:
            positive(s0y_list=s0y)
        positive(lam_x=self.lam_x, lam_y=self.lam_y)

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
    unresolvable_smile: int
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
        raise InputError(f"case_id must be 1 or 2, got {case_id}")
    rho_y = -0.6 if case_id == 1 else 0.4
    return TwoAssetModel(
        heston=_BASE_PARAMS_HESTON, lam_x=1.5, lam_y=1.0, s0x=100.0, s0y=100.0,
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


def _convention_a(name: str, a_star: Callable[[], float | None]) -> float | None:
    """The log-linear weight of a named convention: ``a=<v>`` (``a=0`` is own-ATM
    vols, ``a=1`` the look-up rule), ``a_star`` or ``a_star_bounded``; ``a_star`` is
    called only for the last two, and its None (a* unavailable) passes through."""
    if name.startswith("a="):
        try:
            return float(name[2:])
        except ValueError as err:
            raise InputError(f"bad convention value {name!r}") from err
    if name not in ("a_star", "a_star_bounded"):
        raise InputError(f"unknown convention {name!r}")
    a = a_star()
    return conv.bound_a(a) if name == "a_star_bounded" and a is not None else a


def _price_point(
    smile_x: heston.Smile, smile_y: heston.Smile, rho: float, x: float, y: float, T: float,
    a: float,
) -> tuple[float, float, float, float, float, float]:
    """(k_X, k_Y, I_X, I_Y, gamma, margrabe price) of convention a at log spots (x, y)."""
    k_x, k_y = conv.strikes(a, x, y)
    i_x, i_y = smile_x.vol_at_moneyness(k_x - x), smile_y.vol_at_moneyness(k_y - y)
    gamma = margrabe.convention_gamma(i_x, i_y, rho)
    return k_x, k_y, i_x, i_y, gamma, margrabe.margrabe_price(x, y, gamma, T)


def _point(T: float, corr: CorrelationStructure, s0x: float, s0y: float) -> dict:
    return dict(zip(POINT, (T, corr.rho, corr.rho_x, corr.rho_y, s0x, s0y)))


def _row(point: dict, name: str, est: PriceEstimate | None = None, reason: str = "",
         **priced) -> dict:
    """The one results row: ``point``'s convention ``name`` row, NaN in every
    column it does not price, with the Monte Carlo estimate when there is one;
    a ``reason`` marks it excluded."""
    row = dict.fromkeys(RESULT_COLUMNS, math.nan)
    row.update(point, convention=name, excluded=bool(reason), exclusion_reason=reason, **priced)
    if est is not None:
        row.update(mc_price=est.value, mc_stderr=est.stderr)
    return row


def _triple_rows(
    smile_x: heston.Smile, smile_y: heston.Smile, priced: Sequence[tuple[dict, PriceEstimate]],
    a_star: float | None, conventions: Sequence[str],
) -> list[dict]:
    """Rows of one (T, triple)'s priced points, point by point and one per
    convention: each convention's a is resolved once (None where a* is
    unavailable, whose rows are excluded), then each point's rows are built
    together."""
    if not priced:
        return []
    T, rho, s0x = (priced[0][0][k] for k in ("T", "rho", "s0X"))
    x = math.log(s0x)
    a_values = [(name, _convention_a(name, lambda: a_star)) for name in conventions]
    rows = []
    for point, est in priced:
        y = math.log(point["s0Y"])
        try:
            g_hat = margrabe.exchange_implied_vol(est.value, x, y, T)
        except (DomainError, NumericalError):
            g_hat = math.nan
        for name, a in a_values:
            if a is None:
                rows.append(_row(point, name, est, "degenerate_convention"))
                continue
            k_x, k_y, i_x, i_y, _, price = _price_point(smile_x, smile_y, rho, x, y, T, a)
            rho_hat = (margrabe.implied_correlation(g_hat, i_x, i_y)
                       if math.isfinite(g_hat) else math.nan)
            rows.append(_row(point, name, est, a_value=a, kX=k_x, kY=k_y, IX=i_x, IY=i_y,
                             margrabe_price=price, error=price - est.value,
                             implied_corr=rho_hat))
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
    priced = [(_point(T, model.corr, model.s0x, s0y),
               exchange_estimate_from_sample(sample, model.s0x, s0y)) for s0y in s0y_values]
    return TestCaseResult(
        case_id=case_id, T=T, a_star=a_star, a_star_parametric=a_param,
        observables=obs, smile_x=smile_x, smile_y=smile_y,
        rows=_triple_rows(smile_x, smile_y, priced, a_star, ("a=0", "a=1", "a_star")),
    )


def _triples(spec: GridSpec) -> list[tuple[tuple[int, int, int], CorrelationStructure, bool]]:
    """The sweep's correlation triples in canonical order: their (irho, irhoX,
    irhoY) indices, the structure and its one validate_correlation verdict."""
    return [
        ((i_r, i_x, i_y), corr, validate_correlation(corr)[0])
        for i_r, rho in enumerate(spec.rho_list)
        for i_x, rho_x in enumerate(spec.rho_x_list)
        for i_y, rho_y in enumerate(spec.rho_y_list)
        for corr in (CorrelationStructure(rho=rho, rho_x=rho_x, rho_y=rho_y),)
    ]


def grid_exclusion_summary(spec: GridSpec) -> ExclusionSummary:
    """Deterministic point counts (no simulation): how many correlation
    triples, and hence grid points, the PSD test excludes."""
    verdicts = [valid for _, _, valid in _triples(spec)]
    invalid, per_triple = verdicts.count(False), len(spec.T_list) * len(spec.s0y_list)
    return ExclusionSummary(
        total_points=spec.n_points(), included=(len(verdicts) - invalid) * per_triple,
        invalid_correlation=invalid * per_triple, sub_cent=0, unresolvable_smile=0,
        degenerate_convention=0, total_triples=len(verdicts), invalid_triples=invalid,
    )


def run_grid(spec: GridSpec) -> list[dict]:
    """Run the sweep, one maturity at a time; one row per (grid point,
    convention), excluded points included with their reason so the accounting
    closes."""
    triples = _triples(spec)
    rows = [
        _row(_point(T, corr, spec.s0x, s0y), name, reason="invalid_correlation")
        for T in spec.T_list for _, corr, ok in triples if not ok
        for s0y in spec.s0y_list for name in CONVENTIONS
    ]
    valid = [(indices, corr) for indices, corr, ok in triples if ok]
    # the legs the valid triples use; every leg sits at the reference spot s0x,
    # and lookups go through log-moneyness
    legs: dict[tuple[str, float], AssetSpec] = {}
    for _, c in valid:
        legs["X", c.rho_x] = AssetSpec(lam=spec.lam_x, rho_sv=c.rho_x, s0=spec.s0x)
        legs["Y", c.rho_y] = AssetSpec(lam=spec.lam_y, rho_sv=c.rho_y, s0=spec.s0x)
    for i_t, T in enumerate(spec.T_list):
        smiles: dict[tuple[str, float], heston.Smile | None] = {}
        for (side, rho_sv), asset in legs.items():
            try:
                smiles[side, rho_sv] = heston.build_smile_grid(
                    spec.heston, asset, T, asset_id=side)
            except DomainError:  # fewer than two resolvable smile strikes at this T
                smiles[side, rho_sv] = None
        observables: dict[tuple[float, float], heston.SmileObservables | None] = {}
        for rho_x, rho_y in dict.fromkeys((c.rho_x, c.rho_y) for _, c in valid):
            if smiles["X", rho_x] is not None and smiles["Y", rho_y] is not None:
                try:
                    observables[rho_x, rho_y] = heston.measure_smile_observables(
                        spec.heston, legs["X", rho_x], legs["Y", rho_y], T)
                except DomainError:
                    observables[rho_x, rho_y] = None
        for indices, corr in valid:
            points = [_point(T, corr, spec.s0x, s0y) for s0y in spec.s0y_list]
            smile_x, smile_y = smiles["X", corr.rho_x], smiles["Y", corr.rho_y]
            if smile_x is None or smile_y is None:
                rows += [_row(p, name, reason="unresolvable_smile")
                         for p in points for name in CONVENTIONS]
                continue
            obs = observables[corr.rho_x, corr.rho_y]
            try:
                a_star = None if obs is None else conv.a_star_observables(obs, corr.rho)
            except DegenerateConventionError:
                a_star = None
            model = TwoAssetModel(heston=spec.heston, lam_x=spec.lam_x, lam_y=spec.lam_y,
                                  s0x=spec.s0x, s0y=spec.s0x, corr=corr)
            mc = replace(spec.mc, seed=_derived_seed(spec.mc.seed, i_t, *indices))
            sample = simulate_terminal(model, T, mc)
            priced = []
            for point in points:
                est = exchange_estimate_from_sample(sample, spec.s0x, point["s0Y"])
                if est.value < SUB_CENT_THRESHOLD:
                    rows += [_row(point, name, est, "sub_cent") for name in CONVENTIONS]
                else:
                    priced.append((point, est))
            rows += _triple_rows(smile_x, smile_y, priced, a_star, CONVENTIONS)
    rows.sort(key=_row_key)
    return rows


def _row_key(row: dict):
    return tuple(row[k] for k in POINT) + (CONVENTIONS.index(row["convention"]),)


def summarize_exclusions(rows: Iterable[dict]) -> ExclusionSummary:
    """Close the accounting from actual sweep rows.

    A grid point counts as excluded when every convention row at it is (invalid
    correlation, sub-cent benchmark, unresolvable smile); a degenerate a* only
    loses the a_star rows, so those points stay included and are tallied apart.
    """
    reasons: dict[tuple, set[str]] = {}
    for row in rows:
        key = tuple(row[k] for k in POINT)
        reasons.setdefault(key, set()).add(
            row["exclusion_reason"] if row["excluded"] else ""
        )
    counts = {"": 0, "invalid_correlation": 0, "sub_cent": 0, "unresolvable_smile": 0}
    degenerate = 0
    # triple counts come from the rows themselves so reports recomputed from a
    # CSV stay correct even when the spec in hand differs from the producing run
    invalid_triples = set()
    for key, tags in reasons.items():
        if "degenerate_convention" in tags:
            degenerate += 1
        point_tags = tags - {"degenerate_convention"}
        reason = next(iter(point_tags)) if len(point_tags) == 1 else ""
        reason = reason if reason in counts else ""  # an unknown tag counts as included
        counts[reason] += 1
        if reason == "invalid_correlation":
            invalid_triples.add(key[1:4])
    return ExclusionSummary(
        total_points=len(reasons), included=counts[""],
        invalid_correlation=counts["invalid_correlation"], sub_cent=counts["sub_cent"],
        unresolvable_smile=counts["unresolvable_smile"], degenerate_convention=degenerate,
        total_triples=len({key[1:4] for key in reasons}), invalid_triples=len(invalid_triples),
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
                reports.append(ErrorReport(group, name, 0, *[math.nan] * 6))
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
            reports.append(ErrorReport(
                group=group, convention=name, n_points=len(sel),
                mae=float(np.mean(abs_err)), mape=float(np.mean(abs_err / mc_val)),
                rmse=float(np.sqrt(np.mean(err * err))), max_ae=float(np.max(abs_err)),
                mstd=float(np.mean(stds)) if stds else math.nan,
                atm_error=float(np.mean(atm)) if atm else math.nan,
            ))
    return reports


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None or isinstance(value, str):
        return value or ""
    v = float(value)
    return "" if math.isnan(v) else repr(v)


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The one CSV writer: a header, then rows of cells each written by _fmt
    (floats at full precision), so the text is byte-stable for given cells."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(cell) for cell in cells] for cells in rows)
    return buf.getvalue()


def results_csv(rows: Iterable[dict]) -> str:
    """Serialize sweep rows with full float precision; byte-stable for a given
    row list."""
    return _csv(RESULT_COLUMNS, ([row.get(col) for col in RESULT_COLUMNS] for row in rows))


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
    if kind == "skew" and not isinstance(result, TestCaseResult):
        raise InputError("kind='skew' needs a TestCaseResult with smiles")
    rows = result.rows if isinstance(result, TestCaseResult) else result
    rows = [r for r in rows if not r["excluded"]]
    if kind == "skew":
        cells = [(smile.asset_id, rec["strike"], rec["implied_vol"])
                 for smile in (result.smile_x, result.smile_y)
                 for rec in heston.smile_csv_rows(smile)]
    elif kind in ("implied_corr", "difference", "ratio"):
        cells = []
        for r in rows:
            if kind == "ratio":
                value = r["margrabe_price"] / r["mc_price"] if r["mc_price"] else math.nan
            else:
                value = r["implied_corr" if kind == "implied_corr" else "error"]
            cells.append((r["convention"], r["s0Y"], value))
    elif kind == "moneyness_error":
        reports = [rep for rep in compute_metrics(rows, group_by=("s0Y",)) if rep.n_points]
        cells = [(rep.convention, rep.group["s0Y"], rep.mae)
                 for rep in sorted(reports, key=lambda rep: (rep.convention, rep.group["s0Y"]))]
    else:
        raise InputError(f"unknown plot kind {kind!r}")
    return _csv(("series", "x", "y"), cells)


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
    payload: dict = {"config": config, "exclusions": asdict(summarize_exclusions(rows)),
                     "metrics": {}}
    for group_by in (("T", "rho"), ("T",)):
        for variant, flag in (("all", False), ("exclude_extreme_a", True)):
            reports = compute_metrics(rows, group_by=group_by, exclude_extreme_a=flag)
            key = "+".join(group_by) + ":" + variant
            payload["metrics"][key] = [
                {k: clean(v) for k, v in asdict(r).items()} for r in reports
            ]
    return payload
