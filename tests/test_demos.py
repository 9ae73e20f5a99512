import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_convention_tour_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "convention_tour.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # each special case prints the solved a* beside its closed form
    cases = re.findall(r"a\* = ([+-][0-9.]+) \(closed form ([+-][0-9.]+)\)", proc.stdout)
    assert len(cases) == 4
    assert all(got == expected for got, expected in cases)
    assert re.search(r"\[\.8,1\.2\]\s+0\.4186\s+1\.8193", proc.stdout)
