"""Acceptance gate: every shipped claim exercised at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Criterion 4 is a known, documented failure: the max pricing
gap of the optimal convention across moneyness is bounded by the smile
curvature the first-order convention cannot carry (about 0.028 / 0.056 price
units for the two reference cases, confirmed against both a semi-analytic
benchmark and high-resolution Monte Carlo); the stated 0.01 / 0.03 levels hold
for the *mean* absolute error across moneyness, which is also printed.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from exchopt.blackscholes import bs_price, bs_vega, implied_vol
from exchopt.convention import a_star_observables, a_star_parametric
from exchopt.errors import DegenerateConventionError
from exchopt.experiments import (
    GridSpec,
    compute_metrics,
    grid_exclusion_summary,
    results_csv,
    run_grid,
    run_test_case,
    reference_case_model,
)
from exchopt.heston import (
    heston_vanilla_price,
    measure_atm_observables,
    measure_smile_observables,
)
from exchopt.margrabe import convention_gamma, exchange_implied_vol, implied_correlation
from exchopt.models import AssetSpec, CorrelationStructure, HestonParams, TwoAssetModel
from exchopt.simulation import (
    McConfig,
    exchange_estimate_from_sample,
    simulate_exchange,
    simulate_terminal,
    simulate_vanilla,
    validate_correlation,
)

BASE_PARAMS = HestonParams(kappa=1.5, theta=0.15, nu=0.5, sigma0=0.15)
SIGMA_TILDE0 = 0.19843134832984429429  # sigma0 sqrt(1.75), frozen


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


@pytest.fixture(scope="module")
def case_results():
    """Both reference cases at desk scale (1e5 paths, control variate)."""
    out = {}
    for case in (1, 2):
        out[case] = run_test_case(
            case, mc=McConfig(n_paths=100_000, n_steps=2000, seed=2024)
        )
    return out


def test_criterion_1_correlation_exclusion_exactness():
    start = time.perf_counter()
    summary = grid_exclusion_summary(GridSpec())
    elapsed = time.perf_counter() - start
    ok = (
        summary.total_triples == 250
        and summary.invalid_triples == 49
        and abs(summary.invalid_triple_fraction - 0.196) < 1e-15
        and elapsed < 1.0
    )
    report(
        "criterion 1",
        ok,
        f"invalid triples {summary.invalid_triples}/250 "
        f"({100 * summary.invalid_triple_fraction:.1f}%), {elapsed:.3f}s",
    )
    assert summary.invalid_triples == 49
    assert summary.total_triples == 250
    assert summary.invalid_triple_fraction == pytest.approx(0.196, abs=0.0)
    assert elapsed < 1.0


def test_criterion_2_special_case_closed_forms():
    # agreement of two algebraically identical rational expressions is a few
    # ulps times their condition number, so the draws keep the cancelling
    # denominators separated by at least 0.3
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    checks = 0
    for _ in range(500):
        lam_x, lam_y = rng.uniform(0.3, 2.5, size=2)
        rho = rng.uniform(-0.9, 0.9)
        rho_x, rho_y = rng.uniform(-0.95, 0.95, size=2)
        cases = []  # ((lam_X, lam_Y, corr), closed form)
        # case 1: uncorrelated assets -> the look-up heuristic
        if abs(rho_x * lam_x - rho_y * lam_y) > 0.3:
            cases.append(((lam_x, lam_y, CorrelationStructure(0.0, rho_x, rho_y)), 1.0))
        # case 2: equal volatility levels
        if abs(rho_x - rho_y) > 0.3:
            cases.append(
                ((lam_x, lam_x, CorrelationStructure(rho, rho_x, rho_y)), 1.0 / (1.0 - rho))
            )
        # case 3: equal spot-vol correlations
        if abs(lam_x - lam_y) > 0.3 and abs(rho_x) > 0.3:
            cases.append(
                ((lam_x, lam_y, CorrelationStructure(rho, rho_x, rho_x)), 1.0 / (1.0 + rho))
            )
        # case 4: rho_Y = 0
        if abs(rho_x) > 0.3 and abs(lam_x - rho * lam_y) > 0.3:
            cases.append((
                (lam_x, lam_y, CorrelationStructure(rho, rho_x, 0.0)),
                lam_x / (lam_x - rho * lam_y),
            ))
        for limits, expected in cases:
            try:
                got = a_star_parametric(*limits)
            except DegenerateConventionError:
                continue
            checks += 1
            worst = max(worst, abs(got - expected) / max(1.0, abs(expected)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-14 and checks > 800 and elapsed < 1.0
    report("criterion 2", ok, f"{checks} draws, worst rel dev {worst:.2e}, {elapsed:.3f}s")
    assert checks > 800
    assert worst <= 1e-14
    assert elapsed < 1.0


def test_criterion_3_test_case_a_star():
    start = time.perf_counter()
    values = {}
    for case, (target, tol) in ((1, (0.429, 0.05)), (2, (1.917, 0.10))):
        model = reference_case_model(case)
        obs = measure_smile_observables(BASE_PARAMS, model.asset_x, model.asset_y, 0.05)
        values[case] = a_star_observables(obs, model.rho)
    elapsed = time.perf_counter() - start
    ok = (
        abs(values[1] - 0.429) <= 0.05
        and abs(values[2] - 1.917) <= 0.10
        and elapsed < 30.0
    )
    report(
        "criterion 3",
        ok,
        f"a*(case 1) = {values[1]:.4f} (target 0.429 +- 0.05), "
        f"a*(case 2) = {values[2]:.4f} (target 1.917 +- 0.10), {elapsed:.1f}s",
    )
    assert values[1] == pytest.approx(0.429, abs=0.05)
    assert values[2] == pytest.approx(1.917, abs=0.10)
    assert elapsed < 30.0


def test_criterion_4_test_case_pricing_bounds(case_results):
    """KNOWN FAILURE (see decisions ledger): the stated bounds hold for the
    mean absolute error across moneyness, not the max; the max gap is real
    smile curvature confirmed by two independent benchmarks."""
    start = time.perf_counter()
    failures = []
    for case, base in ((1, 0.01), (2, 0.03)):
        rows = [r for r in case_results[case].rows if r["convention"] == "a_star"]
        worst_excess = -math.inf
        worst_desc = ""
        abs_errs = []
        for r in rows:
            bound = base + 3.0 * r["mc_stderr"]
            abs_errs.append(abs(r["error"]))
            excess = abs(r["error"]) - bound
            if excess > worst_excess:
                worst_excess = excess
                worst_desc = (
                    f"s0Y={r['s0Y']:.0f} |err|={abs(r['error']):.4f} bound={bound:.4f}"
                )
        mean_err = float(np.mean(abs_errs))
        ok = worst_excess <= 0.0
        report(
            "criterion 4",
            ok,
            f"case {case}: worst point {worst_desc}; "
            f"mean |err| across moneyness = {mean_err:.4f} (stated level {base})",
        )
        if not ok:
            failures.append((case, worst_desc))
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    assert not failures, (
        "max |Margrabe(a*) - MC| exceeds the stated bound at: "
        + "; ".join(f"case {c}: {d}" for c, d in failures)
        + " -- known spec-level defect, see decisions ledger (the bound holds "
        "for the mean absolute error across moneyness, printed above)"
    )


def test_criterion_5_atm_implied_correlation(case_results):
    start = time.perf_counter()
    devs = {}
    for case in (1, 2):
        rows = [
            r for r in case_results[case].rows
            if r["convention"] == "a_star" and r["s0Y"] == 100.0
        ]
        assert len(rows) == 1
        r = rows[0]
        # propagate 3 stderr of price noise through the inversion into rho_hat
        x = math.log(100.0)
        gamma_hat = exchange_implied_vol(r["mc_price"], x, x, r["T"])
        vega = 100.0 * math.sqrt(r["T"]) / math.sqrt(2.0 * math.pi) * math.exp(
            -(gamma_hat * math.sqrt(r["T"])) ** 2 / 8.0
        )
        dgamma = 3.0 * r["mc_stderr"] / vega
        drho = gamma_hat * dgamma / (r["IX"] * r["IY"])
        devs[case] = (abs(r["implied_corr"] - 0.5), 0.02 + drho)
    elapsed = time.perf_counter() - start
    ok = all(dev <= tol for dev, tol in devs.values())
    report(
        "criterion 5",
        ok,
        ", ".join(
            f"case {c}: |rho_hat - 0.5| = {dev:.4f} (tol {tol:.4f})"
            for c, (dev, tol) in devs.items()
        )
        + f", {elapsed:.1f}s",
    )
    for dev, tol in devs.values():
        assert dev <= tol


def test_criterion_6_table1_ordering_reduced_scale():
    start = time.perf_counter()
    spec = GridSpec(
        T_list=(0.05, 0.25),
        rho_list=(-0.7,),
        mc=McConfig(n_paths=100_000, n_steps=2000, seed=60),
    )
    rows = run_grid(spec)
    reports = compute_metrics(rows, group_by=("T", "rho"))
    paper_mae = {0.05: 0.0069, 0.25: 0.039}
    ok = True
    details = []
    for T in (0.05, 0.25):
        mae = {
            rep.convention: rep.mae
            for rep in reports
            if rep.group == {"T": T, "rho": -0.7} and not rep.empty
        }
        ordering = mae["a_star"] < mae["a=1"] < mae["a=0"]
        within = mae["a_star"] <= 2.0 * paper_mae[T]
        ok = ok and ordering and within
        details.append(
            f"T={T}: MAE a=0/a=1/a* = {mae['a=0']:.4f}/{mae['a=1']:.4f}/"
            f"{mae['a_star']:.4f} (ref {paper_mae[T]})"
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1800.0
    report("criterion 6", ok, "; ".join(details) + f", {elapsed:.0f}s")
    for T in (0.05, 0.25):
        mae = {
            rep.convention: rep.mae
            for rep in reports
            if rep.group == {"T": T, "rho": -0.7} and not rep.empty
        }
        assert mae["a_star"] < mae["a=1"] < mae["a=0"]
        assert mae["a_star"] <= 2.0 * paper_mae[T]
    assert elapsed < 1800.0


def test_criterion_7_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    checks = []

    # implied-vol round trips to 1e-8 on representable quotes: the 1e-12 e^x
    # price tolerance maps inside 1e-8 of vol only when vega >= 1e-4 e^x
    worst = 0.0
    n = 0
    while n < 150:
        x = math.log(100.0) + rng.uniform(-0.3, 0.3)
        k = x + rng.uniform(-1.0, 1.0)
        T = rng.uniform(0.01, 2.0)
        sigma = rng.uniform(0.01, 3.0)
        if bs_vega(x, k, sigma, T) < 1e-4 * math.exp(x):
            continue
        p = bs_price(x, k, sigma, T)
        n += 1
        worst = max(worst, abs(implied_vol(p, x, k, T) - sigma))
    checks.append(("iv round trip", worst <= 1e-8, f"worst {worst:.2e}"))

    # implied_correlation o convention_gamma identity to 1e-12
    worst = 0.0
    for _ in range(200):
        i_x, i_y = rng.uniform(0.05, 0.8, size=2)
        rho = rng.uniform(-1.0, 1.0)
        worst = max(
            worst,
            abs(implied_correlation(convention_gamma(i_x, i_y, rho), i_x, i_y) - rho),
        )
    checks.append(("corr identity", worst <= 1e-12, f"worst {worst:.2e}"))

    # martingale + CV variance reduction on every valid corner of the sweep
    corners = [
        (rho, rho_x, rho_y, T)
        for rho in (-0.9, 0.9)
        for rho_x in (-0.72, 0.48)
        for rho_y in (-0.61, 0.59)
        for T in (0.05, 1.0)
        if validate_correlation(CorrelationStructure(rho, rho_x, rho_y))[0]
    ]
    mart_ok = True
    cv_ok = True
    for rho, rho_x, rho_y, T in corners:
        model = TwoAssetModel(
            heston=BASE_PARAMS, lam_x=1.0, lam_y=1.24, s0x=100.0, s0y=100.0,
            corr=CorrelationStructure(rho, rho_x, rho_y),
        )
        steps = 2000 if T <= 0.25 else 250
        mc = McConfig(n_paths=20_000, n_steps=steps, seed=77)
        est_x = simulate_vanilla(model, "X", 0.0, T, mc)
        est_y = simulate_vanilla(model, "Y", 0.0, T, mc)
        mart_ok = mart_ok and abs(est_x.value - 100.0) <= max(3 * est_x.stderr, 1e-9)
        mart_ok = mart_ok and abs(est_y.value - 100.0) <= max(3 * est_y.stderr, 1e-9)
        # the plain estimator reads the same paths' payoffs without the control
        sample = simulate_terminal(model, T, mc)
        on = exchange_estimate_from_sample(sample, model.s0x, model.s0y)
        plain = np.maximum(model.s0x * sample.rx - model.s0y * sample.ry, 0.0)
        cv_ok = cv_ok and on.stderr < np.std(plain, ddof=1) / math.sqrt(plain.size)
    checks.append(("martingale corners", mart_ok, f"{len(corners)} corners"))
    checks.append(("cv reduction corners", cv_ok, f"{len(corners)} corners"))

    # determinism across worker counts: bit-identical CSV
    spec = GridSpec(
        T_list=(0.05,), rho_list=(0.5,), rho_x_list=(-0.12,),
        rho_y_list=(-0.01, 0.59), s0y_list=(90.0, 100.0, 110.0),
        mc=McConfig(n_paths=8_000, n_steps=1000, seed=5, jobs=1),
    )
    csv_1 = results_csv(run_grid(spec))
    csv_4 = results_csv(run_grid(replace(spec, mc=replace(spec.mc, jobs=4))))
    checks.append(("jobs determinism", csv_1 == csv_4, "bit-identical CSV"))

    # short-time: gamma_hat(x, x) -> sigma_tilde0 as T -> 0 (MC benchmark)
    model = reference_case_model(1)
    gaps = []
    for T in (0.05, 0.02, 0.01, 0.005):
        est = simulate_exchange(model, T, McConfig(n_paths=100_000, n_steps=2000, seed=11))
        gamma_hat = exchange_implied_vol(est.value, math.log(100.0), math.log(100.0), T)
        vega = 100.0 * math.sqrt(T) / math.sqrt(2.0 * math.pi)
        gaps.append((abs(gamma_hat - SIGMA_TILDE0), 3.0 * est.stderr / vega))
    decreasing = all(g2 <= g1 + 1e-3 for (g1, _), (g2, _) in zip(gaps, gaps[1:]))
    final_ok = gaps[-1][0] < 0.01 + gaps[-1][1]
    checks.append(
        ("short-time convergence", decreasing and final_ok,
         f"final gap {gaps[-1][0]:.4f} (noise allowance {gaps[-1][1]:.4f})")
    )

    # short-time ATM skew -> rho_i nu / (4 sigma0) within 15% at T = 0.005
    obs = measure_atm_observables(
        BASE_PARAMS,
        AssetSpec(lam=1.5, rho_sv=-0.4, s0=100.0),
        AssetSpec(lam=1.0, rho_sv=0.4, s0=100.0),
        0.005,
    )
    limits = (-0.4 * 0.5 / 0.6, 0.4 * 0.5 / 0.6)
    skew_ok = (
        abs(obs.skew_x - limits[0]) <= 0.15 * abs(limits[0])
        and abs(obs.skew_y - limits[1]) <= 0.15 * abs(limits[1])
    )
    checks.append(
        ("short-T skew limit", skew_ok,
         f"measured ({obs.skew_x:.4f}, {obs.skew_y:.4f}) vs "
         f"({limits[0]:.4f}, {limits[1]:.4f})")
    )

    elapsed = time.perf_counter() - start
    ok = all(flag for _, flag, _ in checks)
    report(
        "criterion 7", ok,
        "; ".join(f"{name}: {'ok' if flag else 'FAIL'} ({note})" for name, flag, note in checks)
        + f", {elapsed:.0f}s",
    )
    for name, flag, note in checks:
        assert flag, f"{name}: {note}"


def test_criterion_8_cross_oracle_on_corners():
    """Sub-cent corners are skipped, mirroring the sweep's own exclusion rule:
    a short-dated far-OTM corner worth ~1e-8 has zero paying paths at 2e5
    samples, so the 3-stderr comparison is vacuous there."""
    start = time.perf_counter()
    worst = 0.0
    n_checked = 0
    n_subcent = 0
    for T in (0.05, 1.0):
        for lam in (1.0, 1.24):
            for rho_sv in (-0.72, 0.59):
                for strike in (80.0, 100.0, 120.0):
                    asset = AssetSpec(lam=lam, rho_sv=rho_sv, s0=100.0)
                    exact = heston_vanilla_price(BASE_PARAMS, asset, strike, T)
                    if exact - max(100.0 - strike, 0.0) < 0.01:
                        n_subcent += 1
                        continue
                    model = TwoAssetModel(
                        heston=BASE_PARAMS, lam_x=lam, lam_y=1.0, s0x=100.0, s0y=100.0,
                        corr=CorrelationStructure(rho=0.0, rho_x=rho_sv, rho_y=0.0),
                    )
                    steps = 2000 if T <= 0.25 else 250
                    mc = McConfig(n_paths=200_000, n_steps=steps, seed=88)
                    est = simulate_vanilla(model, "X", strike, T, mc)
                    n_checked += 1
                    worst = max(worst, abs(est.value - exact) / est.stderr)
    elapsed = time.perf_counter() - start
    ok = worst <= 3.0 and elapsed < 600.0
    report(
        "criterion 8", ok,
        f"{n_checked} corners ({n_subcent} sub-cent skipped), "
        f"worst |quadrature - MC| = {worst:.2f} stderr, {elapsed:.0f}s",
    )
    assert n_checked >= 12
    assert worst <= 3.0
    assert elapsed < 600.0
