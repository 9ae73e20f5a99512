import hashlib
import math
import re
from dataclasses import asdict

import pytest

from exchopt.convention import a_star_parametric
from exchopt.errors import DegenerateConventionError, InputError
from exchopt.experiments import (
    CONVENTIONS,
    GridSpec,
    _convention_a,
    compute_metrics,
    emit_plot_data,
    grid_exclusion_summary,
    read_results_csv,
    reference_case_model,
    report_json_payload,
    results_csv,
    run_grid,
    run_test_case,
    summarize_exclusions,
)
from exchopt.models import CorrelationStructure
from exchopt.simulation import McConfig


def tiny_spec(**overrides):
    base = dict(
        T_list=(0.05,),
        rho_list=(0.5,),
        rho_x_list=(-0.12,),
        rho_y_list=(-0.01, 0.59),
        s0y_list=(80.0, 100.0, 120.0),
        mc=McConfig(n_paths=10_000, n_steps=2000, seed=123),
    )
    base.update(overrides)
    return GridSpec(**base)


@pytest.fixture(scope="module")
def tiny_rows():
    return run_grid(tiny_spec())


@pytest.mark.parametrize("name", ["T_list", "s0y_list", "rho_list", "rho_x_list", "rho_y_list"])
def test_grid_refuses_an_empty_list(name):
    with pytest.raises(InputError, match=f"^{name} is empty$"):
        tiny_spec(**{name: ()})


class TestExclusionCounts:
    def test_paper_grid_fraction(self):
        summary = grid_exclusion_summary(GridSpec())
        assert summary.total_triples == 250
        assert summary.invalid_triples == 49
        assert summary.invalid_triple_fraction == pytest.approx(0.196)

    def test_extreme_rho_excludes_about_half(self):
        for rho, expected in ((-0.9, 14), (0.9, 13)):
            summary = grid_exclusion_summary(GridSpec(rho_list=(rho,)))
            assert summary.total_triples == 25
            assert summary.invalid_triples == expected

    def test_row_summary_matches_spec_summary_with_invalid_triple(self):
        # (rho, rho_X, rho_Y) = (-0.9, 0.48, 0.59) is not PSD; (-0.9, 0.48, -0.61) is
        spec = GridSpec(
            T_list=(0.05,), rho_list=(-0.9,), rho_x_list=(0.48,),
            rho_y_list=(-0.61, 0.59), s0y_list=(90.0, 100.0),
            mc=McConfig(n_paths=4096, n_steps=500, seed=1),
        )
        from_spec = grid_exclusion_summary(spec)
        assert from_spec.invalid_triples == 1
        assert asdict(summarize_exclusions(run_grid(spec))) == asdict(from_spec)

    @pytest.mark.parametrize("rhos", [(1.0, 0.3, 0.3), (1.0, -0.5, -0.5), (-1.0, -0.95, 0.95)])
    def test_singular_triples_are_priced(self, rhos):
        rho, rho_x, rho_y = rhos
        spec = GridSpec(
            T_list=(0.05,), rho_list=(rho,), rho_x_list=(rho_x,), rho_y_list=(rho_y,),
            s0y_list=(92.0, 100.0), mc=McConfig(n_paths=4096, n_steps=500, seed=1),
        )
        rows = run_grid(spec)
        assert not [r for r in rows if r["exclusion_reason"] == "invalid_correlation"]
        assert asdict(summarize_exclusions(rows)) == asdict(grid_exclusion_summary(spec))

    # det within 1e-12 of zero, but the pivoted factorisation fails
    @pytest.mark.parametrize("rhos", [(1.0, 0.3, 0.3000001), (1.0 - 1e-9, 0.3, 0.300042667)])
    def test_near_singular_non_psd_triples_are_excluded(self, rhos):
        rho, rho_x, rho_y = rhos
        spec = GridSpec(
            T_list=(0.05,), rho_list=(rho,), rho_x_list=(rho_x,), rho_y_list=(rho_y,),
            s0y_list=(92.0, 100.0), mc=McConfig(n_paths=4096, n_steps=500, seed=1),
        )
        rows = run_grid(spec)
        assert {r["exclusion_reason"] for r in rows} == {"invalid_correlation"}
        assert asdict(summarize_exclusions(rows)) == asdict(grid_exclusion_summary(spec))

    def test_identical_legs_exclude_only_the_a_star_rows(self):
        # equal leg specs make a*'s numerator and denominator exactly 0
        spec = GridSpec(
            T_list=(0.05,), lam_x=1.1, lam_y=1.1, rho_list=(0.5,), rho_x_list=(-0.4,),
            rho_y_list=(-0.4,), s0y_list=(96.0, 100.0, 104.0),
            mc=McConfig(n_paths=4096, seed=3),
        )
        rows = run_grid(spec)
        assert len(rows) == 3 * len(CONVENTIONS)
        for row in rows:
            if row["convention"] in ("a=0", "a=1"):
                assert not row["excluded"] and math.isfinite(row["margrabe_price"])
            else:
                assert row["exclusion_reason"] == "degenerate_convention"
        summary = summarize_exclusions(rows)
        assert (summary.included, summary.degenerate_convention) == (3, 3)
        assert summary.invalid_correlation == summary.sub_cent == 0
        assert report_json_payload(spec, rows)["exclusions"] == asdict(summary)

    def test_point_accounting_identity(self, tiny_rows):
        spec = tiny_spec()
        summary = summarize_exclusions(tiny_rows)
        assert (
            summary.included + summary.invalid_correlation + summary.sub_cent
            + summary.unresolvable_smile
            == summary.total_points
            == spec.n_points()
        )


class TestSweepPlan:
    def test_each_leg_pair_and_triple_is_read_once(self, monkeypatch):
        # (0.5, -0.42, 0.59) is not PSD; at T 0.0003 the X leg with rho_X -0.42
        # keeps fewer than two smile knots
        from exchopt import experiments, heston

        spec = GridSpec(
            T_list=(0.0003, 0.05), rho_list=(0.1, 0.5), rho_x_list=(-0.42, 0.18),
            rho_y_list=(-0.01, 0.59), s0y_list=(96.0, 100.0, 104.0),
            mc=McConfig(n_paths=4096, n_steps=500, seed=1),
        )
        calls = {"smile": [], "observables": [], "validate": []}

        def spy(key, fn, record):
            def wrapper(*args, **kwargs):
                calls[key].append(record(*args, **kwargs))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(heston, "build_smile_grid", spy(
            "smile", heston.build_smile_grid,
            lambda params, asset, T, asset_id="X": (asset_id, asset.rho_sv, T)))
        monkeypatch.setattr(heston, "measure_smile_observables", spy(
            "observables", heston.measure_smile_observables,
            lambda params, asset_x, asset_y, T: (asset_x.rho_sv, asset_y.rho_sv, T)))
        monkeypatch.setattr(experiments, "validate_correlation", spy(
            "validate", experiments.validate_correlation, lambda c: (c.rho, c.rho_x, c.rho_y)))
        rows = run_grid(spec)

        legs = [("X", r) for r in spec.rho_x_list] + [("Y", r) for r in spec.rho_y_list]
        assert sorted(calls["smile"]) == sorted((*leg, T) for leg in legs for T in spec.T_list)
        pairs = [(rx, ry) for rx in spec.rho_x_list for ry in spec.rho_y_list]
        assert sorted(calls["observables"]) == sorted(
            [(*pair, 0.05) for pair in pairs] + [(0.18, ry, 0.0003) for ry in spec.rho_y_list]
        )
        assert sorted(calls["validate"]) == sorted(
            (rho, rx, ry) for rho in spec.rho_list for rx, ry in pairs
        )
        reasons = {(r["T"], r["rho"], r["rho_X"], r["rho_Y"]): r["exclusion_reason"]
                   for r in rows if r["exclusion_reason"] != "sub_cent"}
        assert {k for k, v in reasons.items() if v == "invalid_correlation"} == {
            (T, 0.5, -0.42, 0.59) for T in spec.T_list
        }
        assert {k for k, v in reasons.items() if v == "unresolvable_smile"} == {
            (0.0003, rho, -0.42, ry) for rho, ry in ((0.1, -0.01), (0.1, 0.59), (0.5, -0.01))
        }
        assert len(rows) == spec.n_points() * len(CONVENTIONS)
        summary = summarize_exclusions(rows)
        assert summary.invalid_triples == grid_exclusion_summary(spec).invalid_triples == 1


class TestAStarRangeOnGrid:
    def test_rho_05_exceeds_bounds(self):
        # at rho = 0.5 the closed-form optimum spikes beyond [-1, 2]
        spec = GridSpec()
        values = []
        for rho_x in spec.rho_x_list:
            for rho_y in spec.rho_y_list:
                corr = CorrelationStructure(rho=0.5, rho_x=rho_x, rho_y=rho_y)
                try:
                    values.append(a_star_parametric(1.0, 1.24, corr))
                except DegenerateConventionError:
                    continue
        assert max(values) == pytest.approx(7.592760180995471, abs=1e-12)
        assert min(values) == pytest.approx(-3.7391304347826115, abs=1e-12)
        assert max(values) > 2.0 and min(values) < -1.0


@pytest.fixture(scope="module")
def small_case():
    return run_test_case(
        1,
        mc=McConfig(n_paths=20_000, n_steps=2000, seed=5),
        s0y_values=(80.0, 100.0, 120.0),
    )


class TestRunTestCase:
    def test_conventions_coincide_at_the_money(self, small_case):
        atm = [r for r in small_case.rows if r["s0Y"] == 100.0]
        prices = {r["margrabe_price"] for r in atm}
        assert len(atm) == 3
        assert max(prices) - min(prices) < 1e-12

    def test_row_schema(self, small_case):
        row = small_case.rows[0]
        for col in ("T", "s0Y", "convention", "a_value", "kX", "kY", "IX", "IY",
                    "margrabe_price", "mc_price", "mc_stderr", "error",
                    "implied_corr"):
            assert col in row

    def test_case1_a_star_value(self, small_case):
        assert small_case.a_star == pytest.approx(0.4186, abs=1e-3)
        assert small_case.a_star_parametric == pytest.approx(0.0, abs=1e-12)


class TestRunGrid:
    def test_rows_cover_every_point_and_convention(self, tiny_rows):
        spec = tiny_spec()
        assert len(tiny_rows) == spec.n_points() * len(CONVENTIONS)

    def test_sub_cent_exclusion_happens(self, tiny_rows):
        reasons = {r["exclusion_reason"] for r in tiny_rows if r["excluded"]}
        assert "sub_cent" in reasons  # deep OTM point at T=0.05 is < 1 cent

    def test_csv_bytes_deterministic(self, tiny_rows):
        again = run_grid(tiny_spec())
        assert results_csv(tiny_rows) == results_csv(again)

    def test_csv_round_trip(self, tiny_rows, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text(results_csv(tiny_rows))
        # each row names its whole grid point
        assert path.read_text().startswith("T,rho,rho_X,rho_Y,s0X,s0Y,convention,")
        back = read_results_csv(path)
        assert len(back) == len(tiny_rows)
        for a, b in zip(back, tiny_rows):
            assert a["s0X"] == tiny_spec().s0x
            assert a["convention"] == b["convention"]
            assert a["excluded"] == b["excluded"]
            if not a["excluded"]:
                assert a["margrabe_price"] == b["margrabe_price"]  # exact repr round trip

    @pytest.mark.parametrize("dropped", [("rho_X",), ("s0X",), ("excluded", "error")])
    def test_read_rejects_missing_columns(self, tiny_rows, tmp_path, dropped):
        # a missing key column would read as one shared NaN and merge points
        lines = [line.split(",") for line in results_csv(tiny_rows).splitlines()]
        keep = [i for i, col in enumerate(lines[0]) if col not in dropped]
        path = tmp_path / "rows.csv"
        path.write_text("".join(",".join(f[i] for i in keep) + "\n" for f in lines))
        with pytest.raises(InputError, match="lacks column") as err:
            read_results_csv(path)
        assert all(col in str(err.value) for col in dropped)

    def test_included_rows_have_prices(self, tiny_rows):
        for r in tiny_rows:
            if not r["excluded"]:
                assert math.isfinite(r["margrabe_price"])
                assert math.isfinite(r["mc_price"])
                assert r["mc_stderr"] >= 0.0


class TestComputeMetrics:
    def _mk_row(self, error, s0y=100.0, convention="a=0", mc=1.0, **kw):
        row = {
            "T": 0.05, "rho": 0.5, "rho_X": -0.12, "rho_Y": -0.01,
            "s0X": 100.0, "s0Y": s0y, "convention": convention, "a_value": 0.0,
            "kX": 0.0, "kY": 0.0, "IX": 0.2, "IY": 0.2,
            "margrabe_price": mc + error, "mc_price": mc, "mc_stderr": 0.0,
            "error": error, "implied_corr": 0.5,
            "excluded": False, "exclusion_reason": "",
        }
        row.update(kw)
        return row

    def test_zero_errors_zero_metrics(self):
        rows = [self._mk_row(0.0, s0y=s) for s in (80.0, 100.0, 120.0)]
        rep = compute_metrics(rows)[0]
        assert rep.mae == rep.mape == rep.rmse == rep.max_ae == rep.mstd == 0.0

    def test_single_point(self):
        rep = compute_metrics([self._mk_row(0.5)])[0]
        assert rep.mae == rep.rmse == rep.max_ae == 0.5
        assert rep.mstd == 0.0
        assert rep.atm_error == 0.5

    def test_atm_error_read_at_each_rows_s0x(self):
        rows = [self._mk_row(0.1 * i, s0y=s, s0X=90.0)
                for i, s in enumerate((86.0, 90.0, 94.0), start=1)]
        rows.append(self._mk_row(0.5, s0y=100.0, rho_Y=0.29))  # s0X 100
        rep = compute_metrics(rows, group_by=("T",))[0]
        assert rep.atm_error == pytest.approx((0.2 + 0.5) / 2, abs=1e-15)

    def test_empty_group_marker(self):
        reports = compute_metrics([])
        assert reports == []
        rep = compute_metrics([self._mk_row(0.1, convention="a=1")])
        assert all(not r.empty for r in rep)
        # a convention with rows in one group only is reported empty in the other
        rows = [self._mk_row(0.1), self._mk_row(0.2, convention="a_star"),
                self._mk_row(0.3, T=0.25)]
        reports = {(r.group["T"], r.convention): r for r in compute_metrics(rows)}
        assert set(reports) == {(0.05, "a=0"), (0.05, "a_star"), (0.25, "a=0"), (0.25, "a_star")}
        empty = reports[0.25, "a_star"]
        assert empty.empty and empty.group == {"T": 0.25, "rho": 0.5}
        assert all(math.isnan(v) for v in (empty.mae, empty.rmse, empty.max_ae, empty.atm_error))
        assert not any(r.empty for key, r in reports.items() if key != (0.25, "a_star"))

    def test_max_ae_dominates_mae(self, tiny_rows):
        for rep in compute_metrics(tiny_rows):
            if not rep.empty:
                assert rep.max_ae >= rep.mae >= 0.0

    def test_extreme_a_filter_drops_points_for_all_conventions(self):
        rows = []
        for s0y in (80.0, 100.0):
            for name, a in (("a=0", 0.0), ("a_star", 5.0)):
                rows.append(self._mk_row(0.1, s0y=s0y, convention=name, a_value=a))
        filtered = compute_metrics(rows, exclude_extreme_a=True)
        assert all(r.n_points == 0 for r in filtered) or filtered == []
        unfiltered = compute_metrics(rows, exclude_extreme_a=False)
        assert any(r.n_points == 2 for r in unfiltered)


class TestEmitPlotData:
    def test_implied_corr_series(self, tiny_rows):
        text = emit_plot_data(tiny_rows, "implied_corr")
        lines = text.strip().splitlines()
        assert lines[0] == "series,x,y"
        assert any(line.startswith("a_star,") for line in lines[1:])

    def test_skew_needs_test_case(self, tiny_rows):
        with pytest.raises(ValueError):
            emit_plot_data(tiny_rows, "skew")

    def test_skew_from_test_case(self):
        res = run_test_case(
            1, mc=McConfig(n_paths=5_000, n_steps=500, seed=1),
            s0y_values=(100.0,),
        )
        text = emit_plot_data(res, "skew")
        assert text.splitlines()[0] == "series,x,y"
        assert any(line.startswith("X,") for line in text.splitlines())
        assert any(line.startswith("Y,") for line in text.splitlines())

    def test_ratio_derived_from_prices(self, small_case):
        lines = emit_plot_data(small_case, "ratio").strip().splitlines()[1:]
        assert len(lines) == len(small_case.rows)
        for line, row in zip(lines, small_case.rows):
            assert float(line.split(",")[2]) == row["margrabe_price"] / row["mc_price"]

    def test_moneyness_error(self, tiny_rows):
        text = emit_plot_data(tiny_rows, "moneyness_error")
        assert text.splitlines()[0] == "series,x,y"

    def test_empty_rows_header_only(self):
        assert emit_plot_data([], "difference") == "series,x,y\n"

    def test_unknown_kind(self, tiny_rows):
        with pytest.raises(ValueError):
            emit_plot_data(tiny_rows, "nope")

    @pytest.mark.parametrize("call, message", [
        (lambda: emit_plot_data([], "nope"), "unknown plot kind 'nope'"),
        (lambda: emit_plot_data([], "skew"), "kind='skew' needs a TestCaseResult with smiles"),
        (lambda: reference_case_model(3), "case_id must be 1 or 2, got 3"),
    ])
    def test_bad_arguments_raise_input_error(self, call, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            call()

    # sha256 of every plot extract: all five kinds on small_case, and the four
    # row kinds on tiny_rows; a change that alters these bytes records the new
    # digests and says why
    EXTRACT_DIGESTS = {
        ("case", "skew"): "7b272078420487e12df4bf5b52378d4f1ec4d1b4181f61681b6b61980701f9d8",
        ("case", "implied_corr"):
            "dcffef600e755fc3ad6a60f218ccd2f201ac173753da5dec009f4fe31857020e",
        ("case", "ratio"): "2c5d5a9bec92102900d764bca0318ede9dfae3d440c0b2cd5590f94f83641f81",
        ("case", "difference"):
            "06a12f6096157906b25637c1a2dac202813d16f6138af646afdc66bbf9c7e146",
        ("case", "moneyness_error"):
            "ee4fd6c04c25f10e2916ae8eb9b1068a9c83052de455896b943b1a73dcb8e1aa",
        ("grid", "implied_corr"):
            "3f5eea2259f85fcedd7d1fcdd40fbd5434ef43053893781ea5e6612f08df2370",
        ("grid", "ratio"): "2e088dfc7ab96756f95d67cc08b0c49f2a5afe2916b471a167395254a084bc9f",
        ("grid", "difference"):
            "2de483d7b71f3288e4fce62e473883f32982ea5d6c9c5dafae88c311ea994a9d",
        ("grid", "moneyness_error"):
            "dee311303ec5460527fbd861d463cbbd68ff255afbaafd9eb9da13b04110ddce",
    }

    @pytest.mark.parametrize("source, kind", list(EXTRACT_DIGESTS))
    def test_extract_bytes_pinned(self, small_case, tiny_rows, source, kind):
        text = emit_plot_data(small_case if source == "case" else tiny_rows, kind)
        assert hashlib.sha256(text.encode()).hexdigest() == self.EXTRACT_DIGESTS[source, kind]


def test_test_case_refuses_a_spot_that_is_not_finite_and_positive():
    mc = McConfig(n_paths=64, n_steps=20, seed=1)
    with pytest.raises(InputError, match=r"^s0y must be finite and > 0, got 0\.0$"):
        run_test_case(1, mc=mc, s0y_values=[0.0])
    with pytest.raises(InputError, match=r"^s0y must be finite and > 0, got nan$"):
        run_test_case(1, mc=mc, s0y_values=[100.0, math.nan])


class TestReportPayload:
    def test_json_serializable(self, tiny_rows):
        import json

        payload = report_json_payload(tiny_spec(), tiny_rows)
        text = json.dumps(payload)
        assert "exclusions" in payload and "metrics" in payload
        assert "NaN" not in text

    def test_config_is_the_spec_without_jobs(self, tiny_rows):
        spec = tiny_spec(mc=McConfig(n_paths=10_000, n_steps=2000, seed=123, jobs=2))
        payload = report_json_payload(spec, tiny_rows)
        config = payload["config"]
        assert "jobs" not in config["mc"]
        assert config["mc"]["stream_derivation"] == (
            "seedseq(seed, iT, irho, irhoX, irhoY); sfc64 blocks of 4096, "
            "block b from child b of seedseq(stream)"
        )
        del config["mc"]["stream_derivation"]
        expected = {**asdict(spec), "conventions": CONVENTIONS}
        del expected["mc"]["jobs"]
        assert config == expected
        assert sorted(payload["metrics"]) == [
            "T+rho:all", "T+rho:exclude_extreme_a", "T:all", "T:exclude_extreme_a",
        ]


class TestConventionTable:
    @pytest.mark.parametrize(
        "name, a", [("a=0", 0.0), ("a=1", 1.0), ("a=-0.25", -0.25),
                    ("a_star", 7.5), ("a_star_bounded", 2.0)],
    )
    def test_weights(self, name, a):
        assert _convention_a(name, lambda: 7.5) == a

    def test_a_star_read_only_when_needed(self):
        def refuse():
            raise AssertionError("a fixed-a convention needs no a*")

        assert _convention_a("a=0.3", refuse) == 0.3

    def test_unavailable_a_star_is_degenerate(self):
        with pytest.raises(DegenerateConventionError):
            _convention_a("a_star_bounded", lambda: None)

    @pytest.mark.parametrize("name", ["a-star", "atm", "a=x"])
    def test_unknown_names(self, name):
        with pytest.raises(InputError):
            _convention_a(name, lambda: 1.0)
