"""The benchmark's reference panel, run as a test.

``perfbench/run.py`` checks the first operations of the semi-analytic
workloads at a fixed seed against outputs stored in
``perfbench/reference.json`` (a* to ``gate.A_STAR_TOL``, exact prices to
``gate.PRICE_TOL``).  Running the same check here makes a change that moves
those outputs fail locally.  Nothing under ``perfbench/`` is written: the
workloads' output directory goes to a temporary root.
"""

import importlib.util
import pathlib

import pytest

import exchopt

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench_run():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))  # run.py imports gate, workloads, ... by name
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["quote", "exact_grid"])
def test_reference_panel_passes(bench_run, workload, tmp_path):
    assert bench_run.PANEL_OPS[workload] > 0
    assert bench_run.check_reference(exchopt, workload, str(tmp_path)) == []
