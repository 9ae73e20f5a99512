import json
import os
import re

import pytest
import yaml

from exchopt import heston
from exchopt.cli import _build_run_config, load_config, main
from exchopt.errors import InputError
from exchopt.experiments import results_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def extract(pattern, text):
    match = re.search(pattern, text)
    assert match, f"pattern {pattern!r} not found in:\n{text}"
    return match.group(1)


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
        code, _, err = run_cli(
            capsys, "--out", out_dir, "price", "exchange", "--convention", "bogus",
        )
        assert code == 2
        assert "ERROR code=2" in err


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


class TestExperiment:
    def test_dry_run_reports_exclusions(self, capsys, out_dir):
        code, out, _ = run_cli(
            capsys, "--out", out_dir, "experiment", "run", "--dry-run",
        )
        assert code == 0
        assert "49/250" in out
        assert "19.6%" in out
        assert not os.path.exists(os.path.join(out_dir, "results.csv"))

    def test_report_on_empty_results(self, capsys, out_dir, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(
            "T,rho,rho_X,rho_Y,s0Y,convention,a_value,kX,kY,IX,IY,"
            "margrabe_price,mc_price,mc_stderr,error,implied_corr,excluded,"
            "exclusion_reason\n"
        )
        code, out, _ = run_cli(
            capsys, "--out", out_dir, "experiment", "report",
            "--results", str(empty),
        )
        assert code == 0
        assert "empty results" in out

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
        row = {
            "T": 0.05, "rho": 0.5, "rho_X": -0.12, "rho_Y": -0.01, "s0Y": 100.0,
            "convention": "a=0", "margrabe_price": 1.01, "mc_price": 1.0,
            "error": 0.01, "excluded": False, "exclusion_reason": "",
        }
        results.write_text(results_csv([row]))
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
        for jobs, sub in (("1", "j1"), ("4", "j4")):
            sub_out = str(tmp_path / sub)
            code, _, _ = run_cli(
                capsys, "--config", str(cfg), "--out", sub_out, "--jobs", jobs,
                "experiment", "run",
            )
            assert code == 0
            with open(os.path.join(sub_out, "results.csv"), "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1]


class TestConfigHandling:
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
        [{"model": {"kappa": "abc"}}, {"grid": [1, 2]}, {"model": None}],
        ids=["value", "attribute", "null-model"],
    )
    def test_mistyped_config_exit_2(self, capsys, out_dir, tmp_path, config):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(config))
        code, _, err = run_cli(
            capsys, "--config", str(cfg), "--out", out_dir, "convention", "solve",
        )
        assert code == 2
        assert "ERROR code=2 type=InputError" in err

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


class TestSurface:
    def test_writes_smile_csv(self, capsys, out_dir):
        code, out, _ = run_cli(
            capsys, "--out", out_dir, "surface", "--asset", "X",
            "--output", "x_smile.csv",
        )
        assert code == 0
        path = os.path.join(out_dir, "x_smile.csv")
        with open(path) as fh:
            header = fh.readline().strip()
        assert header == "asset,T,log_strike,strike,implied_vol"

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
