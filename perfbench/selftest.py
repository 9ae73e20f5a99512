#!/usr/bin/env python3
"""Self-test of the benchmark harness (not of exchopt).

    python3 perfbench/selftest.py

Run from the repository root; takes a few seconds.  Checks that:

- the reference gate passes the stored outputs and flags a price, a vol and
  a* perturbed by 1e-6;
- the z-score gate flags Monte Carlo prices biased by 10 stderr and names a
  single point 6 stderr off;
- the paths workload passes a real sample and flags its at-the-money price
  and its X-leg mean each moved by 10 stderr;
- an operation that raises is counted as a failed operation and the loop
  goes on;
- after a traced call, also one that raised, every wrapped attribute holds
  the original function again.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import sys

import gate
import run
import tracer
import workloads

PERTURBATION = 1e-6
_passed = 0


def expect(cond: bool, what: str) -> None:
    global _passed
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    _passed += 1


def reference_gate(eo, root: str) -> None:
    with open(run.REFERENCE) as fh:
        stored = json.load(fh)
    for name, compare in (("quote", gate.compare_quote), ("exact_grid", gate.compare_exact)):
        wl = workloads.make(name, eo, run.PANEL_SEED, run.out_dir(root, name))
        ops = list(itertools.islice(wl.ops(), run.PANEL_OPS[name]))
        expect(len(ops) == len(stored[name]), f"{name}: panel size matches the reference")
        for op, ref in zip(ops, stored[name]):
            expect(wl.describe(op) == ref["op"], f"{name}: panel inputs match the reference")
            out = ref["out"]
            if out is None or (name == "exact_grid" and out["gamma"] is None):
                continue  # excluded by rule: nothing to perturb
            expect(compare(op, out, out) == [], f"{name}: stored outputs pass")
            keys = ["price", "a_star"] if name == "quote" else ["price", "gamma"]
            for key in keys:
                bad = copy.deepcopy(out)
                bad[key] += PERTURBATION
                expect(compare(op, bad, out) != [], f"{name}: {key} + 1e-6 is flagged")
            if name == "quote":
                bad = copy.deepcopy(out)
                mid = len(bad["vols_x"]) // 2
                bad["vols_x"][mid] += PERTURBATION
                expect(compare(op, bad, out) != [], "quote: knot vol + 1e-6 is flagged")


def z_gate() -> None:
    scored = [((-1) ** i * 0.9, f"point {i}") for i in range(200)]
    expect(gate.check_z_scores(scored, "test") == [], "unbiased z-scores pass")
    biased = [(z + 10.0, p) for z, p in scored]
    expect(gate.check_z_scores(biased, "test") != [], "a 10-stderr bias is flagged")
    one_off = scored[:-1] + [(6.0, "point 199")]
    expect(any("point 199" in f for f in gate.check_z_scores(one_off, "test")),
           "a single point 6 stderr off is flagged and named")
    expect(gate.check_z_scores([], "test") != [], "a sweep with no included point is flagged")


def paths_gate(eo) -> None:
    wl = workloads.make("paths", eo, 0, "")
    op = next(wl.ops())
    out = wl.run(op)
    expect(wl.check([(op, out)])[0] == [], "paths: an engine sample passes")
    for key in ("atm_price", "rx"):
        mean, se = out[key]
        bad = dict(out, **{key: (mean + 10.0 * se, se)})
        expect(wl.check([(op, bad)])[0] != [], f"paths: {key} + 10 stderr is flagged")


class Raises(workloads.Workload):
    name = "raises"

    def run(self, op):
        if op == 1:
            raise RuntimeError("planted failure")
        return op


def failure_accounting(eo) -> None:
    phase = run.Phase()
    wl = Raises(eo, 0)
    for op in range(3):
        phase.run(wl, op)
    expect(phase.attempted == 3, "every operation counts as attempted")
    expect(len(phase.errors) == 1 and "planted failure" in phase.errors[0],
           "the raising operation counts as failed")
    expect([op for op, _ in phase.done] == [0, 2], "the loop goes on after a failure")
    expect(len(phase.latency) == 2, "a failed operation has no latency sample")


def tracer_restores(eo, root: str) -> None:
    originals = {
        (mod, fn): getattr(sys.modules[f"exchopt.{mod}"], fn) for mod, fn in tracer.TRACED
    }
    package_original = eo.exchange_option_price
    wl = workloads.make("exact_grid", eo, 0, run.out_dir(root, "exact_grid"))
    tr = tracer.Tracer(eo)
    with tr:
        expect(eo.heston.build_smile_grid is not originals[("heston", "build_smile_grid")],
               "exchopt.heston.build_smile_grid is wrapped while tracing")
        expect(eo.experiments.simulate_terminal is not originals[("simulation", "simulate_terminal")],
               "simulate_terminal is wrapped where experiments imported it")
        wl.warmup()
        try:
            eo.exchange_option_price(None, 0.25)
        except AttributeError:
            pass
    calls = {k: s.calls for k, s in tr.stats.items()}
    expect(calls["heston.exchange_option_price"] == 2, "calls through the package are traced")
    expect(calls["margrabe.exchange_implied_vol"] == 1, "the warm-up inversion is traced")
    expect(calls["blackscholes.implied_vol"] == 1, "calls between modules are traced")
    expect(calls["blackscholes.bs_price"] >= 1, "calls inside a module are traced")
    expect(tracer.wrapped_attributes(eo) == [], "no wrapper is left after tracing")
    for (mod, fn), f in originals.items():
        expect(getattr(sys.modules[f"exchopt.{mod}"], fn) is f, f"exchopt.{mod}.{fn} restored")
    expect(eo.heston.build_smile_grid is originals[("heston", "build_smile_grid")],
           "exchopt.heston.build_smile_grid is the original function again")
    expect(eo.exchange_option_price is package_original, "package attributes restored")


def main() -> int:
    root = os.getcwd()
    eo = run.import_exchopt(root)
    reference_gate(eo, root)
    z_gate()
    paths_gate(eo)
    failure_accounting(eo)
    tracer_restores(eo, root)
    print(f"selftest: {_passed} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
