import hashlib
import json
import math
import os
import pathlib
import re

import pytest
import yaml

from exchopt import experiments, heston
from exchopt.cli import _build_run_config, load_config, main
from exchopt.errors import InputError, NumericalError
from exchopt.experiments import results_csv
from exchopt.simulation import PriceEstimate


# `price exchange` stdout of the default model at (s0y 95, T 0.05) and
# (s0y 110, T 1.0), recorded before the CLI names became aliases of the
# experiments conventions
PRICE_EXCHANGE_STDOUT = {
    "atm": {
        "95": (
            "convention atm (a=0.000000)\n"
            "strikes kX=4.605170 kY=4.553877 (K_X=100.0000 K_Y=95.0000)\n"
            "leg vols IX=0.242800 IY=0.161937\n"
            "gamma 0.214143\n"
            "price 5.338854\n"
        ),
        "110": (
            "convention atm (a=0.000000)\n"
            "strikes kX=4.605170 kY=4.700480 (K_X=100.0000 K_Y=110.0000)\n"
            "leg vols IX=0.411015 IY=0.273579\n"
            "gamma 0.362400\n"
            "price 10.610904\n"
        ),
    },
    "lookup": {
        "95": (
            "convention lookup (a=1.000000)\n"
            "strikes kX=4.553877 kY=4.605170 (K_X=95.0000 K_Y=100.0000)\n"
            "leg vols IX=0.259213 IY=0.143124\n"
            "gamma 0.224891\n"
            "price 5.392960\n"
        ),
        "110": (
            "convention lookup (a=1.000000)\n"
            "strikes kX=4.700480 kY=4.605170 (K_X=110.0000 K_Y=100.0000)\n"
            "leg vols IX=0.402862 IY=0.287006\n"
            "gamma 0.359230\n"
            "price 10.484892\n"
        ),
    },
    "a=0.3": {
        "95": (
            "convention a=0.3 (a=0.300000)\n"
            "strikes kX=4.589782 kY=4.569265 (K_X=98.4730 K_Y=96.4732)\n"
            "leg vols IX=0.247434 IY=0.155424\n"
            "gamma 0.216617\n"
            "price 5.351050\n"
        ),
        "110": (
            "convention a=0.3 (a=0.300000)\n"
            "strikes kX=4.633763 kY=4.671887 (K_X=102.9006 K_Y=106.8993)\n"
            "leg vols IX=0.408447 IY=0.277560\n"
            "gamma 0.361248\n"
            "price 10.565091\n"
        ),
    },
    "a-star": {
        "95": (
            "convention a-star (a=0.418571)\n"
            "strikes kX=4.583700 kY=4.575347 (K_X=97.8759 K_Y=97.0617)\n"
            "leg vols IX=0.249350 IY=0.152962\n"
            "gamma 0.217789\n"
            "price 5.356880\n"
        ),
        "110": (
            "convention a-star (a=0.045990)\n"
            "strikes kX=4.609554 kY=4.696097 (K_X=100.4393 K_Y=109.5189)\n"
            "leg vols IX=0.410615 IY=0.274186\n"
            "gamma 0.362212\n"
            "price 10.603441\n"
        ),
    },
    "a-star-bounded": {
        "95": (
            "convention a-star-bounded (a=0.418571)\n"
            "strikes kX=4.583700 kY=4.575347 (K_X=97.8759 K_Y=97.0617)\n"
            "leg vols IX=0.249350 IY=0.152962\n"
            "gamma 0.217789\n"
            "price 5.356880\n"
        ),
        "110": (
            "convention a-star-bounded (a=0.045990)\n"
            "strikes kX=4.609554 kY=4.696097 (K_X=100.4393 K_Y=109.5189)\n"
            "leg vols IX=0.410615 IY=0.274186\n"
            "gamma 0.362212\n"
            "price 10.603441\n"
        ),
    },
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def extract(pattern, text):
    match = re.search(pattern, text)
    assert match, f"pattern {pattern!r} not found in:\n{text}"
    return match.group(1)


# one included results row, the unset columns empty
REPORT_ROW = {
    "T": 0.05, "rho": 0.5, "rho_X": -0.12, "rho_Y": -0.01, "s0X": 100.0,
    "s0Y": 100.0, "convention": "a=0", "margrabe_price": 1.01, "mc_price": 1.0,
    "error": 0.01, "excluded": False, "exclusion_reason": "",
}


@pytest.fixture()
def out_dir(tmp_path):
    return str(tmp_path / "out")


class TestPriceExchange:
    def test_atm_and_lookup_coincide_at_equal_spots(self, capsys, out_dir):
        prices = {}
        for name in ("atm", "lookup"):
            code, out, _ = run_cli(
                capsys, "--out", out_dir, "price", "exchange",
                "--convention", name, "--s0y", "100",
            )
            assert code == 0
            prices[name] = extract(r"price ([0-9.]+)", out)
        assert prices["atm"] == prices["lookup"]

    def test_explicit_a_value(self, capsys, out_dir):
        code, out, _ = run_cli(
            capsys, "--out", out_dir, "price", "exchange",
            "--convention", "a=0.5", "--s0y", "95",
        )
        assert code == 0
        assert extract(r"\(a=([0-9.]+)\)", out) == "0.500000"

    def test_unknown_convention_exit_2(self, capsys, out_dir):
        # the experiments spelling a_star is not a CLI name
        for name in ("bogus", "a_star"):
            code, out, err = run_cli(
                capsys, "--out", out_dir, "price", "exchange", "--convention", name,
            )
            assert code == 2
            assert out == ""
            assert err == (
                f'ERROR code=2 type=InputError msg="unknown convention \'{name}\': '
                'expected atm|lookup|a=<v>|a-star|a-star-bounded"\n'
            )

    def test_bad_a_value_exit_2(self, capsys, out_dir):
        code, _, err = run_cli(
            capsys, "--out", out_dir, "price", "exchange", "--convention", "a=0.5x",
        )
        assert code == 2
        assert err == 'ERROR code=2 type=InputError msg="bad convention value \'a=0.5x\'"\n'

    @pytest.mark.parametrize("name", sorted(PRICE_EXCHANGE_STDOUT))
    @pytest.mark.parametrize("s0y, T", [("95", "0.05"), ("110", "1.0")])
    def test_stdout_pinned(self, capsys, out_dir, name, s0y, T):
        code, out, _ = run_cli(
            capsys, "--out", out_dir, "price", "exchange",
            "--convention", name, "--s0y", s0y, "--T", T,
        )
        assert code == 0
        assert out == PRICE_EXCHANGE_STDOUT[name][s0y]

    def test_bounded_a_star_clamps(self, capsys, out_dir, tmp_path):
        cfg = tmp_path / "steep.yaml"
        cfg.write_text(yaml.safe_dump(
            {"model": {"lam_x": 1.0, "lam_y": 1.24, "rho_x": -0.12, "rho_y": -0.01}}
        ))
        outs = {}
        for name in ("a-star", "a-star-bounded"):
            code, outs[name], _ = run_cli(
                capsys, "--config", str(cfg), "--out", out_dir, "price", "exchange",
                "--convention", name, "--s0y", "95", "--T", "0.05",
            )
            assert code == 0
        assert outs["a-star"].splitlines()[0] == "convention a-star (a=8.064462)"
        assert outs["a-star-bounded"] == (
            "convention a-star-bounded (a=2.000000)\n"
            "strikes kX=4.502584 kY=4.656463 (K_X=90.2500 K_Y=105.2632)\n"
            "leg vols IX=0.183997 IY=0.214802\n"
            "gamma 0.201176\n"
            "price 5.277640\n"
        )

    def test_a_star_solved_only_when_asked(self, capsys, out_dir, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a fixed-a convention needs no a*")

        monkeypatch.setattr(heston, "measure_smile_observables", refuse)
        for name in ("atm", "lookup", "a=0.3"):
            code, _, _ = run_cli(
                capsys, "--out", out_dir, "price", "exchange", "--convention", name,
            )
            assert code == 0

    def test_numerical_failure_exit_3(self, capsys, out_dir, monkeypatch):
        def fail(*args, **kwargs):
            raise NumericalError("smile did not converge")

        monkeypatch.setattr(heston, "build_smile_grid", fail)
        code, out, err = run_cli(
            capsys, "--out", out_dir, "price", "exchange", "--convention", "atm",
        )
        assert code == 3
        assert err.startswith("ERROR code=3 type=NumericalError")
        assert out == ""

    def test_one_resolvable_knot_exit_2(self, capsys, out_dir):
        # at T 3e-4 the Y leg keeps one of its 41 smile knots
        code, out, err = run_cli(capsys, "--out", out_dir, "price", "exchange", "--T", "0.0003")
        assert code == 2 and out == ""
        assert err.startswith('ERROR code=2 type=DomainError msg="1 of 41 strikes')
        assert "at T=0.0003; a smile needs two" in err


class TestPriceMc:
    def test_deterministic_output(self, capsys, out_dir):
        runs = []
        for _ in range(2):
            code, out, _ = run_cli(
                capsys, "--out", out_dir, "--seed", "7", "price", "mc",
                "--paths", "20000",
            )
            assert code == 0
            runs.append(out)
        assert runs[0] == runs[1]

    def test_atm_implied_corr_near_half(self, capsys, out_dir):
        code, out, _ = run_cli(
            capsys, "--out", out_dir, "--seed", "3", "price", "mc",
            "--paths", "60000",
        )
        assert code == 0
        rho_hat = float(extract(r"implied_corr (-?[0-9.]+)", out))
        assert abs(rho_hat - 0.5) < 0.03

    def test_builds_no_smile(self, capsys, out_dir, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("price mc needs only the ATM vols")

        monkeypatch.setattr(heston, "build_smile_grid", refuse)
        code, out, _ = run_cli(
            capsys, "--out", out_dir, "--seed", "7", "price", "mc", "--paths", "2000",
        )
        assert code == 0
        assert "implied_corr" in out

    def test_reads_atm_vols_where_no_skew_window_resolves(self, capsys, out_dir):
        # at T 2e-5 no wing of either leg is resolvable; the ATM vols are
        code, out, _ = run_cli(
            capsys, "--out", out_dir, "--jobs", "1", "price", "mc",
            "--paths", "4096", "--T", "0.00002",
        )
        assert code == 0
        assert "implied_corr 0.499956 (atm leg vols)" in out

    def test_price_at_intrinsic_has_no_gamma_hat(self, capsys, out_dir, monkeypatch):
        def at_intrinsic(model, T, mc):
            return PriceEstimate(value=0.0, stderr=0.0, n_paths=mc.n_paths, seed=mc.seed, beta=1.0)

        monkeypatch.setattr("exchopt.cli.simulate_exchange", at_intrinsic)
        code, out, _ = run_cli(
            capsys, "--out", out_dir, "--seed", "7", "price", "mc", "--paths", "2000",
        )
        assert code == 0
        assert out.endswith("gamma_hat n/a (price at or below intrinsic)\n")
        assert "implied_corr" not in out

    # exchopt emits no warnings: an implied correlation outside [-1, 1] is
    # returned as is, and this line is where a person sees it marked. At the
    # default model and T 0.05, a price of 0.4 puts gamma_hat below
    # |I_X - I_Y| (rho_hat > 1) and 5.0 puts it above I_X + I_Y (rho_hat < -1)
    @pytest.mark.parametrize("value, line", [
        (0.4, "implied_corr 1.057587 (atm leg vols, outside [-1, 1])"),
        (2.0, "implied_corr 0.443800 (atm leg vols)"),
        (5.0, "implied_corr -2.917221 (atm leg vols, outside [-1, 1])"),
    ])
    def test_marks_implied_corr_outside_bounds(self, capsys, out_dir, monkeypatch, value, line):
        def priced_at(model, T, mc):
            return PriceEstimate(value=value, stderr=0.0, n_paths=mc.n_paths, seed=mc.seed,
                                 beta=1.0)

        monkeypatch.setattr("exchopt.cli.simulate_exchange", priced_at)
        code, out, _ = run_cli(
            capsys, "--out", out_dir, "--seed", "7", "price", "mc", "--paths", "2000",
        )
        assert code == 0
        assert out.endswith(f"\n{line}\n")


class TestConventionSolve:
    def test_uncorrelated_assets_give_lookup(self, capsys, out_dir, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        # rho_y such that rho_X lam_X != rho_Y lam_Y (the default model is
        # exactly balanced there, which makes rho = 0 the degenerate point)
        cfg.write_text(yaml.safe_dump({"model": {"rho": 0.0, "rho_y": 0.4}}))
        code, out, _ = run_cli(
            capsys, "--config", str(cfg), "--out", out_dir, "convention", "solve",
        )
        assert code == 0
        assert float(extract(r"a_star_parametric ([0-9.-]+)", out)) == pytest.approx(1.0)
        # measured-smile optimum sits near the closed form away from degeneracy
        assert float(extract(r"a_star_observables ([0-9.-]+)", out)) == pytest.approx(
            1.0, abs=0.15
        )

    def test_no_spot_vol_correlation_has_no_parametric_optimum(self, capsys, out_dir, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({"model": {"rho_x": 0, "rho_y": 0}}))
        code, out, _ = run_cli(
            capsys, "--config", str(cfg), "--out", out_dir, "convention", "solve",
        )
        assert code == 0
        assert "a_star_observables 0.701251\n" in out
        assert "a_star_parametric n/a (convention denominator" in out

    def test_short_maturity_shrinks_the_window(self, capsys, out_dir):
        # the smile grid of the Y leg is unresolvable at T 3e-4; the skew
        # window shrinks instead.  a* read -0.069967 before the kernel's first
        # panel of each level became two panels of half its width: the skews
        # invert wing time values that the price tolerance fixes only loosely
        code, out, _ = run_cli(capsys, "--out", out_dir, "convention", "solve", "--T", "0.0003")
        assert code == 0
        assert "a_star_observables -0.069964\n" in out

    # the window the skews were measured over: (log 0.8, log 1.2) at T 0.05,
    # and the 0.07 rung of the shrink ladder at T 3e-4; neither is symmetric
    @pytest.mark.parametrize("T, window", [
        ("0.05", "(-0.223144, 0.182322)"),
        ("0.0003", "(-0.015620, 0.012763)"),
    ])
    def test_prints_the_measured_window(self, capsys, out_dir, T, window):
        code, out, _ = run_cli(capsys, "--out", out_dir, "convention", "solve", "--T", T)
        assert code == 0
        assert out.splitlines()[0] == f"inputs: rho=0.5 T={T} window={window}"


class TestExperiment:
    def test_output_names_in_subdirectories_are_written(self, capsys, out_dir, monkeypatch):
        monkeypatch.setattr(experiments, "run_grid", lambda spec: [REPORT_ROW])
        code, _, _ = run_cli(
            capsys, "--out", out_dir, "experiment", "run",
            "--results", "r/x.csv", "--report", "q/y.json",
        )
        assert code == 0
        for name in ("r/x.csv", "q/y.json"):
            assert os.path.isfile(os.path.join(out_dir, name))

    def test_escaping_report_is_refused_before_the_sweep(self, capsys, out_dir, monkeypatch):
        sweeps = []
        monkeypatch.setattr(experiments, "run_grid", lambda spec: sweeps.append(spec) or [])
        code, _, err = run_cli(
            capsys, "--out", out_dir, "experiment", "run", "--report", "../report.json",
        )
        assert code == 2 and "escapes the output directory" in err
        assert sweeps == []

    def test_dry_run_reports_exclusions(self, capsys, out_dir):
        code, out, _ = run_cli(
            capsys, "--out", out_dir, "experiment", "run", "--dry-run",
        )
        assert code == 0
        assert "49/250" in out
        assert "19.6%" in out
        assert not os.path.exists(os.path.join(out_dir, "results.csv"))

    def test_unresolvable_smile_excludes_its_points(self, capsys, out_dir):
        # at T 3e-4 some legs' smile grids keep fewer than two strikes: their
        # points are excluded with a reason, and the rest of the sweep runs
        code, out, _ = run_cli(
            capsys, "--jobs", "1", "--out", out_dir,
            "experiment", "run", "--T", "0.0003", "--rho", "0.5", "--paths", "2000",
        )
        assert code == 0
        tags = "included|invalid-corr|sub-cent|unresolvable-smile"
        counts = dict(re.findall(rf"({tags}) (\d+)", out))
        assert int(counts["unresolvable-smile"]) > 0 and int(counts["included"]) > 0
        assert sum(map(int, counts.values())) == int(extract(r"grid: (\d+) points", out))
        with open(os.path.join(out_dir, "report.json")) as fh:
            exclusions = json.load(fh)["exclusions"]
        assert exclusions["unresolvable_smile"] == int(counts["unresolvable-smile"])

    def test_report_on_empty_results(self, capsys, out_dir, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(
            "T,rho,rho_X,rho_Y,s0X,s0Y,convention,a_value,kX,kY,IX,IY,"
            "margrabe_price,mc_price,mc_stderr,error,implied_corr,excluded,"
            "exclusion_reason\n"
        )
        code, out, _ = run_cli(
            capsys, "--out", out_dir, "experiment", "report",
            "--results", str(empty),
        )
        assert code == 0
        assert "empty results" in out

    def test_report_marks_an_empty_group(self, capsys, out_dir, tmp_path):
        # a_star has rows at T 0.05 only, so the T 0.25 group lacks it
        rows = [REPORT_ROW, {**REPORT_ROW, "convention": "a_star", "a_value": 0.4},
                {**REPORT_ROW, "T": 0.25}]
        results = tmp_path / "results.csv"
        results.write_text(results_csv(rows))
        code, out, _ = run_cli(
            capsys, "--out", out_dir, "experiment", "report", "--results", str(results),
        )
        assert code == 0
        assert "{'T': 0.25, 'rho': 0.5} a_star: empty group" in out.splitlines()
        assert "{'T': 0.05, 'rho': 0.5} a_star: n=1" in out

    def test_report_on_results_without_a_column_exit_2(self, capsys, out_dir, tmp_path):
        # the header of a results file written before rows carried s0X
        old = tmp_path / "old.csv"
        old.write_text(
            "T,rho,rho_X,rho_Y,s0Y,convention,a_value,kX,kY,IX,IY,"
            "margrabe_price,mc_price,mc_stderr,error,implied_corr,excluded,"
            "exclusion_reason\n"
        )
        code, out, err = run_cli(
            capsys, "--out", out_dir, "experiment", "report", "--results", str(old),
        )
        assert code == 2
        assert "type=InputError" in err and "lacks column(s): s0X" in err
        assert out == ""

    @pytest.mark.parametrize("edit, message", [
        (lambda cells: cells[:8] + ["abc"] + cells[9:], "column kX: 'abc' is not a number"),
        (lambda cells: cells[:5], "5 fields, header has 19"),
        (lambda cells: cells[:-2] + ["maybe", ""], "column excluded: 'maybe' is not true or false"),
        (lambda cells: cells[:-1], "18 fields, header has 19"),  # no exclusion_reason
    ], ids=["non-numeric", "five-fields", "excluded-not-boolean", "missing-text-cell"])
    def test_report_on_malformed_cell_exit_2(self, capsys, out_dir, tmp_path, edit, message):
        header, line = results_csv([REPORT_ROW]).splitlines()
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{header}\n{line}\n{','.join(edit(line.split(',')))}\n")
        code, out, err = run_cli(
            capsys, "--out", out_dir, "experiment", "report", "--results", str(bad),
        )
        assert code == 2 and out == ""
        assert err.startswith("ERROR code=2 type=InputError")
        assert f"results file {bad} line 3" in err and message in err

    def test_missing_results_exit_2(self, capsys, out_dir):
        code, _, err = run_cli(
            capsys, "--out", out_dir, "experiment", "report",
            "--results", "/nonexistent.csv",
        )
        assert code == 2

    def test_report_records_config_and_flags(self, capsys, out_dir, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({"model": {"kappa": 2.0}}))
        results = tmp_path / "results.csv"
        results.write_text(results_csv([REPORT_ROW]))
        code, _, _ = run_cli(
            capsys, "--config", str(cfg), "--out", out_dir, "experiment", "report",
            "--results", str(results), "--report", "report.json", "--T", "0.05",
        )
        assert code == 0
        with open(os.path.join(out_dir, "report.json")) as fh:
            config = json.load(fh)["config"]
        assert config["heston"]["kappa"] == 2.0
        assert config["T_list"] == [0.05]

    def test_small_run_writes_inside_out_dir(self, capsys, out_dir, tmp_path):
        cfg = tmp_path / "grid.yaml"
        cfg.write_text(
            yaml.safe_dump(
                {
                    "mc": {"n_paths": 5000, "n_steps": 500, "seed": 1},
                    "grid": {
                        "T_list": [0.05],
                        "rho_list": [0.5],
                        "rho_x_list": [-0.12],
                        "rho_y_list": [-0.01],
                        "s0y_list": [90.0, 100.0],
                    },
                }
            )
        )
        before = set()
        tmp_root = str(tmp_path)
        code, out, _ = run_cli(
            capsys, "--config", str(cfg), "--out", out_dir, "experiment", "run",
        )
        assert code == 0
        assert os.path.exists(os.path.join(out_dir, "results.csv"))
        assert os.path.exists(os.path.join(out_dir, "report.json"))
        stray = [
            name for name in os.listdir(tmp_root)
            if name not in {"out", "grid.yaml"} and not name.startswith(".")
        ]
        assert stray == [], f"wrote outside --out: {stray}"

    def test_jobs_setting_does_not_change_csv(self, capsys, out_dir, tmp_path):
        cfg = tmp_path / "grid.yaml"
        cfg.write_text(
            yaml.safe_dump(
                {
                    "mc": {"n_paths": 6000, "n_steps": 500, "seed": 9},
                    "grid": {
                        "T_list": [0.05],
                        "rho_list": [0.5],
                        "rho_x_list": [-0.12],
                        "rho_y_list": [-0.01, 0.59],
                        "s0y_list": [90.0, 100.0, 110.0],
                    },
                }
            )
        )
        blobs = []
        for jobs in ("1", "2", "4"):
            sub_out = str(tmp_path / f"j{jobs}")
            code, _, _ = run_cli(
                capsys, "--config", str(cfg), "--out", sub_out, "--jobs", jobs,
                "experiment", "run",
            )
            assert code == 0
            blobs.append([
                pathlib.Path(sub_out, name).read_bytes()
                for name in ("results.csv", "report.json")
            ])
        assert blobs[0] == blobs[1] == blobs[2]

    def test_flags_write_what_the_equivalent_config_writes(self, capsys, tmp_path):
        grid = {"rho_x_list": [-0.72], "rho_y_list": [-0.61, 0.29],
                "s0y_list": [90.0, 100.0, 110.0]}
        base, full = tmp_path / "base.yaml", tmp_path / "full.yaml"
        base.write_text(yaml.safe_dump({"mc": {"n_steps": 500}, "grid": grid}))
        full.write_text(yaml.safe_dump({
            "mc": {"n_steps": 500, "n_paths": 4096},
            "grid": {**grid, "T_list": [0.05], "rho_list": [-0.1]},
        }))
        flag_out, config_out = str(tmp_path / "flags"), str(tmp_path / "config")
        code, _, _ = run_cli(
            capsys, "--config", str(base), "--out", flag_out, "experiment", "run",
            "--T", "0.05", "--rho", "-0.1", "--paths", "4096",
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys, "--config", str(full), "--out", config_out, "experiment", "run",
        )
        assert code == 0
        for name in ("results.csv", "report.json"):
            assert (pathlib.Path(flag_out, name).read_bytes()
                    == pathlib.Path(config_out, name).read_bytes())

    def test_atm_error_read_at_the_grid_s0x(self, capsys, out_dir, tmp_path):
        cfg = tmp_path / "grid.yaml"
        cfg.write_text(yaml.safe_dump({
            "grid": {"s0x": 90.0, "s0y_list": [86.0, 90.0, 94.0], "T_list": [0.25],
                     "rho_list": [0.5], "rho_x_list": [-0.42], "rho_y_list": [-0.31]},
            "mc": {"n_paths": 4096, "n_steps": 500},
        }))
        code, _, _ = run_cli(
            capsys, "--config", str(cfg), "--out", out_dir, "experiment", "run",
        )
        assert code == 0
        with open(os.path.join(out_dir, "report.json")) as fh:
            metrics = json.load(fh)["metrics"]["T+rho:all"]
        assert len(metrics) == 4
        assert all(m["atm_error"] == pytest.approx(0.010775, abs=1e-6) for m in metrics)
        # rows carry their s0X, so the report needs no config to find it
        for config in (["--config", str(cfg)], []):
            code, out, _ = run_cli(
                capsys, *config, "--out", out_dir, "experiment", "report",
                "--results", os.path.join(out_dir, "results.csv"),
            )
            assert code == 0
            assert re.findall(r"ATM=(\S+)", out) == ["0.010775"] * 4


class TestConfigHandling:
    @pytest.mark.parametrize("argv, expected", [
        (("--print-config",), 0),
        (("price", "exchange", "--T", "-1"), 2),
        (("surface", "--asset", "X", "--output", "../escape.csv"), 2),
    ], ids=["print-config", "refused-T", "escaping-output"])
    def test_run_that_writes_nothing_creates_no_out_dir(self, capsys, out_dir, argv, expected):
        code, _, _ = run_cli(capsys, "--out", out_dir, *argv)
        assert code == expected
        assert not os.path.exists(out_dir)

    def test_print_config_round_trip(self, capsys, out_dir, tmp_path):
        code, first, _ = run_cli(capsys, "--out", out_dir, "--print-config")
        assert code == 0
        cfg = tmp_path / "echo.yaml"
        cfg.write_text(first)
        code, second, _ = run_cli(
            capsys, "--config", str(cfg), "--out", out_dir, "--print-config",
        )
        assert code == 0
        assert first == second

    def test_default_print_config(self, capsys, out_dir):
        code, out, _ = run_cli(capsys, "--out", out_dir, "--print-config")
        assert code == 0
        assert out == (
            "grid: null\n"
            "maturity: 0.05\n"
            "mc:\n"
            "  n_paths: 100000\n"
            "  n_steps: 2000\n"
            "  seed: 0\n"
            "model:\n"
            "  kappa: 1.5\n"
            "  lam_x: 1.5\n"
            "  lam_y: 1.0\n"
            "  nu: 0.5\n"
            "  rho: 0.5\n"
            "  rho_x: -0.4\n"
            "  rho_y: -0.6\n"
            "  s0x: 100.0\n"
            "  s0y: 100.0\n"
            "  sigma0: 0.15\n"
            "  theta: 0.15\n"
        )

    def test_print_config_shows_experiment_flags(self, capsys, out_dir):
        code, out, _ = run_cli(
            capsys, "--out", out_dir, "experiment", "run",
            "--T", "0.05", "--T", "0.25", "--rho", "0.5", "--paths", "10", "--print-config",
        )
        assert code == 0
        echoed = yaml.safe_load(out)
        assert echoed["grid"] == {"T_list": [0.05, 0.25], "rho_list": [0.5]}
        assert echoed["mc"]["n_paths"] == 10

    # sha256 of results.csv and report.json of the benchmark's sweep config at
    # seed 7, T 0.05 and 0.25, 4096 paths; a change that alters these bytes
    # records the new digests and says why
    SWEEP_DIGESTS = {
        # re-pinned when the kernel's tail cut-off became the first doubling
        # where |f| is below tolerance for all of a side's strikes: 120 of 1056
        # rows moved, by at most 1.9e-13 in IX, 3.1e-12 in margrabe_price and
        # error, and 1.8e-12 in implied_corr; re-pinned again when the normal
        # CDF became 0.5 erfc(-d/sqrt 2): 845 of 1056 rows moved, by at most
        # 1.2e-12 in IX, 1.3e-12 in margrabe_price and error, 7.1e-12 in
        # a_value and 1.1e-11 in implied_corr; re-pinned again when the kernel's
        # first panel of each level became two panels of half its width: 836 of
        # 1056 rows moved, by at most 4.8e-9 in IX, 5.7e-9 in IY, 3.8e-9 in kX
        # and kY, 1.8e-9 in margrabe_price and error, 1.7e-8 in a_value and
        # 6.2e-8 in implied_corr (wing vols the inversion's price tolerance
        # fixes only loosely)
        "results.csv": "6a964f8ea6a0b89773528993fb48bc567fc8dad8baf6398097493776b6283244",
        # re-pinned when the exclusions gained "unresolvable_smile": 0, and for
        # the same cut-off: its metrics moved by at most 1.7e-12 (max_ae); and
        # for the erfc CDF: 308 figures moved, by at most 6.4e-13 (max_ae); and
        # for the half-width first panel: 358 figures moved, by at most 1.6e-9 (max_ae)
        "report.json": "9c1b465bbb22973580e7db6f3a785757c5f5761d91d9c2474c8a4dddc5340521",
    }

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_benchmark_sweep_bytes_pinned(self, capsys, out_dir, jobs):
        sweep = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "sweep.yaml"
        code, _, _ = run_cli(
            capsys, "--config", str(sweep), "--seed", "7", "--jobs", jobs, "--out", out_dir,
            "experiment", "run", "--T", "0.05", "--T", "0.25", "--paths", "4096",
        )
        assert code == 0
        for name, digest in self.SWEEP_DIGESTS.items():
            data = pathlib.Path(out_dir, name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name

    def test_benchmark_sweep_config_loads(self, capsys, out_dir):
        sweep = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "sweep.yaml"
        code, out, _ = run_cli(
            capsys, "--config", str(sweep), "--out", out_dir,
            "experiment", "run", "--dry-run",
        )
        assert code == 0
        assert out.startswith("grid: 264 points, 2/12 correlation triples invalid")

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"modle": {"kappa": 2.0}}, "modle"),
            ({"model": {"kapa": 9.0}}, "kapa"),
            ({"mc": {"n_path": 10}}, "n_path"),
            ({"mc": {"use_control_variate": False}}, "use_control_variate"),
            ({"grid": {"rho_lst": [0.5], "T_list": [0.05]}}, "rho_lst"),
        ],
        ids=["top", "model", "mc", "mc-removed-switch", "grid"],
    )
    def test_unknown_key_exit_2(self, capsys, out_dir, tmp_path, config, key):
        cfg = tmp_path / "typo.yaml"
        cfg.write_text(yaml.safe_dump(config))
        code, out, err = run_cli(
            capsys, "--config", str(cfg), "--out", out_dir,
            "experiment", "run", "--dry-run",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("ERROR code=2 type=InputError")
        assert key in err

    # an empty grid list would simulate every other list for no row, a repeated
    # grid value would price its points twice, and a maturity, spot or leg scale
    # at or below zero cannot be priced: all are refused before any simulation
    @pytest.mark.parametrize(
        "flags, grid, message",
        [
            (["--T", "0.05", "--T", "0.05", "--rho", "0.5"], {}, "T_list repeats a value"),
            (["--rho", "0.5", "--rho", "0.5"], {}, "rho_list repeats a value"),
            ([], {"s0y_list": [90.0, 100.0, 90.0]}, "s0y_list repeats a value"),
            ([], {"rho_y_list": [0.29, 0.29]}, "rho_y_list repeats a value"),
            (["--T", "-0.05"], {}, "T_list must be finite and > 0"),
            ([], {"T_list": [0.05, math.inf]}, "T_list must be finite and > 0"),
            ([], {"s0y_list": [0.0, 100.0]}, "s0y_list must be finite and > 0"),
            ([], {"s0x": -100.0}, "s0x must be finite and > 0"),
            ([], {"lam_x": -1.0}, "lam_x must be finite and > 0"),
            ([], {"lam_y": math.nan}, "lam_y must be finite and > 0"),
            *(([], {name: []}, f"{name} is empty")
              for name in ("T_list", "s0y_list", "rho_list", "rho_x_list", "rho_y_list")),
        ],
        ids=["T-repeat", "rho-repeat", "s0y-repeat", "rhoY-repeat", "T-negative",
             "T-infinite", "s0y-zero", "s0x-negative", "lam_x-negative", "lam_y-nan",
             "T-empty", "s0y-empty", "rho-empty", "rhoX-empty", "rhoY-empty"],
    )
    @pytest.mark.parametrize("dry_run", [True, False], ids=["dry-run", "run"])
    def test_grid_whose_accounting_cannot_close_exit_2(
        self, capsys, out_dir, tmp_path, monkeypatch, flags, grid, message, dry_run
    ):
        runs, simulate = [], experiments.simulate_terminal
        monkeypatch.setattr(experiments, "simulate_terminal",
                            lambda *args: runs.append(args) or simulate(*args))
        cfg = tmp_path / "grid.yaml"
        cfg.write_text(yaml.safe_dump({"grid": grid}))
        code, out, err = run_cli(
            capsys, "--config", str(cfg), "--out", out_dir, "experiment", "run",
            "--paths", "64", *flags, *(["--dry-run"] if dry_run else []),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("ERROR code=2 type=InputError")
        assert message in err
        assert runs == []
        assert not os.path.exists(os.path.join(out_dir, "results.csv"))

    def test_flags_override_config(self, capsys, out_dir, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({"mc": {"seed": 1}}))
        code, out, _ = run_cli(
            capsys, "--config", str(cfg), "--out", out_dir, "--seed", "42",
            "--print-config",
        )
        assert code == 0
        assert yaml.safe_load(out)["mc"]["seed"] == 42

    def test_invalid_config_exit_2(self, capsys, out_dir, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump({"model": {"sigma0": -1.0}}))
        code, _, err = run_cli(
            capsys, "--config", str(cfg), "--out", out_dir, "convention", "solve",
        )
        assert code == 2
        assert "ERROR code=2" in err

    @pytest.mark.parametrize(
        "config",
        [{"model": {"kappa": "abc"}}, {"grid": [1, 2]}, {"model": None}, {"maturity": 10**400}],
        ids=["value", "attribute", "null-model", "huge-maturity"],
    )
    def test_mistyped_config_exit_2(self, capsys, out_dir, tmp_path, config):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(config))
        code, _, err = run_cli(
            capsys, "--config", str(cfg), "--out", out_dir, "convention", "solve",
        )
        assert code == 2
        assert "ERROR code=2 type=InputError" in err

    # every command builds the grid from the config, so each refuses it
    @pytest.mark.parametrize("argv", [
        ["--print-config"], ["price", "exchange"], ["price", "mc"], ["surface", "--asset", "X"],
        ["convention", "solve"], ["experiment", "run", "--dry-run"],
        ["experiment", "report", "--results", "results.csv"],
    ], ids=lambda argv: "-".join(a.strip("-") for a in argv[:2]))
    def test_grid_correlation_outside_minus_one_one_exit_2(self, capsys, out_dir, tmp_path, argv):
        cfg = tmp_path / "grid.yaml"
        cfg.write_text(yaml.safe_dump({"grid": {"rho_x_list": [-0.12, 1.5]}}))
        code, out, err = run_cli(capsys, "--config", str(cfg), "--out", out_dir, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("ERROR code=2 type=InputError")
        assert "rho_x_list must lie in [-1, 1], got 1.5" in err

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"mc": {"n_paths": 2000.9}}, "n_paths"),
            ({"mc": {"seed": True}}, "seed"),
            ({"model": {"kappa": True}}, "kappa"),
            ({"grid": {"rho_list": [0.5, False]}}, "rho_list"),
            ({"model": {"kappa": "2.5"}}, "kappa"),
            ({"grid": {"T_list": "15"}}, "T_list"),
            ({"grid": {"T_list": 0.05}}, "T_list"),
            ({"grid": {"rho_list": [0.5, "0.1"]}}, "rho_list"),
            ({"maturity": "0.05"}, "maturity"),
            ({"maturity": 10**400}, "maturity"),
            ({"model": {"kappa": 10**400}}, "kappa"),
            ({"grid": {"T_list": [0.05, 10**400]}}, "T_list"),
        ],
        ids=["int", "bool-as-int", "bool-as-float", "bool-in-list", "string-as-float",
             "string-as-list", "number-as-list", "string-in-list", "string-maturity",
             "huge-maturity", "huge-float", "huge-in-list"],
    )
    def test_mistyped_scalar_key_exit_2(self, capsys, out_dir, tmp_path, config, key):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(config))
        code, out, err = run_cli(
            capsys, "--config", str(cfg), "--out", out_dir, "--print-config",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("ERROR code=2 type=InputError")
        assert key in err

    def test_integral_number_is_read_and_removed_switch_refused(self, out_dir):
        raw = load_config(None, {"mc": {"n_paths": 2000.0}})
        mc = _build_run_config(raw, out_dir).mc
        assert mc.n_paths == 2000 and isinstance(mc.n_paths, int)
        raw = load_config(None, {"mc": {"use_control_variate": True}})
        with pytest.raises(InputError, match="unknown mc config key.*use_control_variate"):
            _build_run_config(raw, out_dir)

    def test_config_without_model_is_input_error(self, out_dir):
        raw = {k: v for k, v in load_config(None).items() if k != "model"}
        with pytest.raises(InputError, match="model"):
            _build_run_config(raw, out_dir)

    def test_missing_config_file_exit_2(self, capsys, out_dir):
        code, _, err = run_cli(
            capsys, "--config", "/no/such/file.yaml", "--out", out_dir,
            "convention", "solve",
        )
        assert code == 2


class TestNonPsdModel:
    # (rho, rho_X, rho_Y) = (0.9, -0.72, 0.59) has det -1.44: every command
    # refuses the model with the config, before any kernel pass or simulation
    @pytest.mark.parametrize(
        "argv",
        [["price", "exchange"], ["price", "mc"], ["convention", "solve"],
         ["surface", "--asset", "X"], ["experiment", "run", "--dry-run"]],
        ids=["price-exchange", "price-mc", "convention-solve", "surface", "experiment-dry-run"],
    )
    def test_every_command_refuses(self, capsys, out_dir, tmp_path, monkeypatch, argv):
        from exchopt import simulation

        work = []
        monkeypatch.setattr(heston, "_time_values", lambda *args: work.append("kernel"))
        monkeypatch.setattr(simulation, "simulate_terminal", lambda *args: work.append("mc"))
        cfg = tmp_path / "not_psd.yaml"
        cfg.write_text(yaml.safe_dump({"model": {"rho": 0.9, "rho_x": -0.72, "rho_y": 0.59}}))
        code, out, err = run_cli(capsys, "--config", str(cfg), "--out", out_dir, *argv)
        assert code == 2
        assert out == ""
        assert err == ('ERROR code=2 type=DomainError '
                       'msg="correlation structure not PSD (det=-1.441140e+00)"\n')
        assert work == []
        assert not os.path.exists(out_dir)


class TestSurface:
    @pytest.mark.parametrize("name", ["x_smile.csv", "a/b.csv"])
    def test_writes_smile_csv(self, capsys, out_dir, name):
        code, out, _ = run_cli(
            capsys, "--out", out_dir, "surface", "--asset", "X", "--output", name,
        )
        assert code == 0
        path = os.path.join(out_dir, name)
        with open(path) as fh:
            header = fh.readline().strip()
        assert header == "asset,T,log_strike,strike,implied_vol"

    # sha256 of the default model's (reference case 1) smile export of each leg
    # at T 0.25; a change that alters these bytes records the new digests and says why.
    # Re-pinned when the normal CDF became 0.5 erfc(-d/sqrt 2): 29 (X) and 34 (Y)
    # of 41 vols moved, by at most 7.7e-15; and when the kernel's first panel of
    # each level became two panels of half its width: 33 (X) and 30 (Y) of 41
    # vols moved, by at most 2.3e-15 (X) and 8.2e-15 (Y)
    SURFACE_DIGESTS = {
        "X": "3fe079efe519edc5d52edaaf43d1f47e3b86e499fecb9cb5b8beb26889167b4d",
        "Y": "39427ebba8bab76f74d7cf94dd17b53ca03c046229609bd05f6c59f8cad46fdb",
    }

    @pytest.mark.parametrize("asset", ["X", "Y"])
    def test_smile_csv_bytes_pinned(self, capsys, out_dir, asset):
        code, _, _ = run_cli(
            capsys, "--out", out_dir, "surface", "--asset", asset, "--T", "0.25",
        )
        assert code == 0
        data = pathlib.Path(out_dir, "smile.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.SURFACE_DIGESTS[asset]

    def test_output_cannot_escape_out_dir(self, capsys, out_dir):
        code, _, err = run_cli(
            capsys, "--out", out_dir, "surface", "--asset", "X",
            "--output", "../escape.csv",
        )
        assert code == 2

    def test_name_starting_with_dots_stays_inside_out_dir(self, capsys, out_dir):
        code, _, _ = run_cli(
            capsys, "--out", out_dir, "surface", "--asset", "X",
            "--output", "..results.csv",
        )
        assert code == 0
        assert os.path.exists(os.path.join(out_dir, "..results.csv"))
