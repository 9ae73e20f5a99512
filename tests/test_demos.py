import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_demo(name: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_convention_tour_runs():
    out = run_demo("convention_tour.py")
    # each special case prints the solved a* beside its closed form
    cases = re.findall(r"a\* = ([+-][0-9.]+) \(closed form ([+-][0-9.]+)\)", out)
    assert len(cases) == 4
    assert all(got == expected for got, expected in cases)
    assert re.search(r"\[\.8,1\.2\]\s+0\.4186\s+1\.8193", out)


def test_reference_cases_demo_runs():
    # the one demo whose prices go through the Monte Carlo estimator
    out = run_demo("test_cases.py")
    a_star = re.findall(r"a\* \(observables\) = (\S+)\s+a\* \(model limits, T->0\) = (\S+)", out)
    assert a_star == [("0.4186", "0.0000"), ("1.8193", "2.0000")]
    # the ATM row's stderr bounds the gap to the semi-analytic price
    atm_rows = re.findall(r"^\s+100\s+(\S+)\s+(\S+)", out, flags=re.M)
    benchmarks = re.findall(r"ATM benchmark: MC = (\S+) vs semi-analytic = (\S+)", out)
    assert len(atm_rows) == len(benchmarks) == 2
    for (row_mc, stderr), (mc, exact) in zip(atm_rows, benchmarks):
        assert row_mc == mc
        assert abs(float(mc) - float(exact)) <= 3.0 * float(stderr)
