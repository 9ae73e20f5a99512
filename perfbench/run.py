#!/usr/bin/env python3
"""exchopt benchmark: one command, seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload quote --seed 1 --seconds 30 --trace 0

The program is imported from ``./src``; nothing needs installing.  Everything
runs in this one process as a closed loop with one caller: each operation
starts when the previous one returns.  Monte Carlo runs with ``--jobs 1``.

``--trace 0`` times the workload for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` runs the workload for a third of the time, replays
the same operations untraced and then with every layer function wrapped (see
``tracer.py``), removes the wrappers, and reports the per-layer metrics per
operation plus the tracing overhead.

The outputs are checked (see ``gate.py``) after the timed phase.  Report
lines go to standard output; the last line is one JSON object whose metrics
are those ``BENCHMARK.json`` declares for the mode.  Every figure, declared
or not, and the latency of each timed operation go to a report under
``.perfbench_out/``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import gate
import hostref
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
OUT_ROOT = ".perfbench_out"
# set-up probes before and after the timed phase, so that their median
# spans more than one spell of the host's load
SETUP_PROBES = (3, 4)
# Reference panel: the first operations of each semi-analytic workload at a
# fixed seed, checked in every run against outputs stored at the commit that
# defined the benchmark.  Five quotes cover the five maturities.
PANEL_SEED = 1807
PANEL_OPS = {"quote": 5, "exact_grid": 110}
# simulate_terminal draws its normals in chunks of this many steps per block
# (``_simulate_block``); the draw-only replay mirrors that layout.
MC_DRAW_CHUNK = 256
TARGET_STDERR = 0.01  # one cent, for mc_time_to_tol_s
T_TAGS = {  # per-call times at these maturities, as in the ROADMAP baseline
    "heston.heston_vanilla_price": (0.05, 1.0),
    "heston.build_smile_grid": (0.05, 1.0),
    "heston.measure_smile_observables": (0.05, 1.0),
    "heston.exchange_option_price": (0.05, 1.0),
    "simulation.simulate_terminal": (0.05, 0.25),
}

# The host-speed reference (hostref.py) is sampled before an operation when
# REF_EVERY_S have passed since the last sample; each latency is scaled by
# the median of the REF_NEAREST samples nearest to it in time.
REF_EVERY_S = 0.25
REF_NEAREST = 5


def import_exchopt(root: str):
    """Import exchopt from ``<root>/src``, never from an installed copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "exchopt", "__init__.py")):
        raise SystemExit(
            f"perfbench: no exchopt sources under {src}; run from the repository root"
        )
    sys.path.insert(0, src)
    import exchopt
    import exchopt.cli  # noqa: F401  (the sweep calls exchopt.cli.main)

    if not os.path.abspath(exchopt.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"perfbench: imported exchopt from {exchopt.__file__}, not {src}")
    return exchopt


def out_dir(root: str, name: str) -> str:
    path = os.path.join(root, OUT_ROOT, name)
    os.makedirs(path, exist_ok=True)
    return path


class Phase:
    """Operations of one timed phase: inputs, outputs, latencies, failures."""

    def __init__(self):
        self.inputs: list = []
        self.done: list = []  # (op, output) of the operations that returned
        self.latency: list[float] = []
        self.started: list[float] = []  # perf_counter at the start of each timed op
        self.errors: list[str] = []
        self.wall = 0.0
        self.ref: list[tuple[float, float]] = []  # (perf_counter, reference seconds)

    @property
    def attempted(self) -> int:
        return len(self.inputs)

    def run(self, wl, op) -> None:
        self.inputs.append(op)
        start = time.perf_counter()
        try:
            out = wl.run(op)
        except Exception:  # a failed operation is counted, the loop goes on
            self.errors.append(traceback.format_exc(limit=3))
            return
        self.latency.append(time.perf_counter() - start)
        self.started.append(start)
        self.done.append((op, out))


def closed_loop(wl, ops, seconds: float, ref: hostref.HostReference | None = None) -> Phase:
    """Operations until ``seconds`` have passed; with ``ref``, the host-speed
    reference is sampled between operations, at most once per REF_EVERY_S,
    and once more at the end."""
    phase = Phase()
    start = due = time.perf_counter()
    while (now := time.perf_counter()) - start < seconds:
        if ref is not None and now >= due:
            phase.ref.append((now, ref.sample()))
            due = now + REF_EVERY_S
        phase.run(wl, next(ops))
    if ref is not None:
        phase.ref.append((time.perf_counter(), ref.sample()))
    phase.wall = time.perf_counter() - start
    return phase


def replay(wl, inputs: list, tr: tracer.Tracer | None = None) -> Phase:
    phase = Phase()
    start = time.perf_counter()
    for i, op in enumerate(inputs):
        if tr is not None:
            tr.op = i
        phase.run(wl, op)
    phase.wall = time.perf_counter() - start
    return phase


def setup_probe(root: str, name: str) -> None:
    """Child process: import exchopt plus one warm-up operation, then the
    host-speed reference (median of three samples) right after."""
    start = time.perf_counter()
    eo = import_exchopt(root)
    imported = time.perf_counter()
    wl = workloads.make(name, eo, 0, out_dir(root, name + "-setup"))
    built = time.perf_counter()
    wl.warmup()
    done = time.perf_counter()
    ref = hostref.HostReference()
    ref_s = statistics.median(ref.sample() for _ in range(3))
    print(json.dumps({"setup_s": (imported - start) + (done - built), "ref_s": ref_s}))


def measure_setup(root: str, name: str, repeats: int) -> list[tuple[float, float]]:
    """(set-up seconds, reference seconds) of fresh processes."""
    probes = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", name],
            cwd=root, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        probes.append((out["setup_s"], out["ref_s"]))
    return probes


def panel(eo, name: str, root: str):
    """The reference panel of a semi-analytic workload: the workload at
    PANEL_SEED and the (op, output) pairs of its first operations."""
    wl = workloads.make(name, eo, PANEL_SEED, out_dir(root, name))
    return wl, [(op, wl.run(op)) for op in itertools.islice(wl.ops(), PANEL_OPS[name])]


def check_reference(eo, name: str, root: str) -> list[str]:
    with open(REFERENCE) as fh:
        stored = json.load(fh)[name]
    compare = gate.compare_quote if name == "quote" else gate.compare_exact
    wl, pairs = panel(eo, name, root)
    bad = []
    for (op, out), ref in zip(pairs, stored, strict=True):
        if wl.describe(op) != ref["op"]:
            bad.append(f"{name} reference: inputs {wl.describe(op)} != stored {ref['op']}")
            continue
        bad += compare(op, out, ref["out"])
    return bad


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def rng_floor_s(eo, records) -> float:
    """Seconds to draw, alone, the Philox normals of the recorded
    ``simulate_terminal`` calls: same (seed, block) keys, same shapes."""
    import numpy as np

    block = eo.simulation.BLOCK_SIZE
    start = time.perf_counter()
    for _, args, kwargs, _ in records:
        T, mc = args[1], args[2]
        n_steps = mc.steps_for(T)
        for b in range((mc.n_paths + block - 1) // block):
            rng = np.random.Generator(np.random.Philox(key=np.array([mc.seed, b], dtype=np.uint64)))
            for first in range(0, n_steps, MC_DRAW_CHUNK):
                rng.standard_normal((min(MC_DRAW_CHUNK, n_steps - first), 3, block))
    return time.perf_counter() - start


def layer_metrics(eo, wl, tr: tracer.Tracer, untraced: Phase, traced: Phase) -> dict:
    """Per-layer figures per operation of the traced replay, name -> (value, unit)."""
    n = max(traced.attempted, 1)
    m: dict[str, tuple[float, str]] = {}
    for mod, fn in tracer.TRACED:
        st = tr.stats.get(f"{mod}.{fn}", tracer.Stat())
        m[f"{mod}.{fn}.calls"] = (st.calls / n, "count/op")
        m[f"{mod}.{fn}.s"] = (st.s / n, "s/op")
        m[f"{mod}.{fn}.self_s"] = (st.self_s / n, "s/op")
    for name, tags in T_TAGS.items():
        st = tr.stats.get(name, tracer.Stat())
        for T in tags:
            calls, secs = st.by_T.get(T, (0, 0.0))
            m[f"{name}.ms_per_call.T{T}"] = (1e3 * secs / calls if calls else 0.0, "ms")
    m["experiments.write_results_csv.bytes"] = (
        tr.stats["experiments.write_results_csv"].bytes / n, "B/op"
    )

    # Monte Carlo split; path_steps and normals_drawn are calculated from the
    # run configuration of each call, not measured
    sim = tr.stats["simulation.simulate_terminal"]
    block = eo.simulation.BLOCK_SIZE
    path_steps = normals = 0
    for _, args, _, _ in sim.records:
        T, mc = args[1], args[2]
        steps = mc.steps_for(T)
        path_steps += mc.n_paths * steps
        normals += -(-mc.n_paths // block) * block * 3 * steps
    floor = rng_floor_s(eo, sim.records) if sim.records else 0.0
    m["simulation.path_steps"] = (path_steps / n, "count/op")
    m["simulation.normals_drawn"] = (normals / n, "count/op")
    m["simulation.ns_per_path_step"] = (1e9 * sim.s / path_steps if path_steps else 0.0, "ns")
    m["simulation.rng_floor_s"] = (floor / n, "s/op")
    m["simulation.update_s"] = ((sim.s - floor) / n, "s/op")
    to_tol = []
    if sim.records:
        stderr = [wl.atm_stderr(op, out) for op, out in traced.done]
        for op_index, args, _, dur in sim.records:
            model, T = args[0], args[1]
            c = model.corr
            se = stderr[op_index].get((T, c.rho, c.rho_x, c.rho_y))
            if se:
                to_tol.append(dur * (se / TARGET_STDERR) ** 2)
    m["simulation.mc_time_to_tol_s"] = (statistics.median(to_tol) if to_tol else 0.0, "s")

    busy_u, busy_t = sum(untraced.latency), sum(traced.latency)
    m["trace.overhead_s"] = (busy_t - busy_u, "s")
    m["trace.overhead_pct"] = (100.0 * (busy_t - busy_u) / busy_u if busy_u else 0.0, "%")
    return m


def adjusted(phase: Phase) -> list[float]:
    """Each latency scaled to the nominal host speed: latency times
    NOMINAL_S over the median of the REF_NEAREST reference samples nearest
    to the operation's start."""
    times = [t for t, _ in phase.ref]
    out = []
    for start, lat in zip(phase.started, phase.latency):
        i = bisect.bisect_left(times, start)
        lo = max(0, min(i - REF_NEAREST // 2, len(times) - REF_NEAREST))
        near = statistics.median(r for _, r in phase.ref[lo:lo + REF_NEAREST])
        out.append(lat * hostref.NOMINAL_S / near)
    return out


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return cuts[round(q * 1000) - 1]


def end_to_end(wl, phase: Phase, setup: list[tuple[float, float]]) -> dict:
    """Every end-to-end figure of a timed phase, name -> (value, unit)."""
    if not phase.latency:  # every operation failed: nothing to time
        return {}
    by_class: dict[str, list[float]] = {}
    for (op, _), lat in zip(phase.done, adjusted(phase)):
        by_class.setdefault(wl.op_class(op), []).append(lat)
    mean = {c: 1e3 * statistics.fmean(lat) for c, lat in sorted(by_class.items())}
    p90 = {c: 1e3 * quantile(lat, 0.9) for c, lat in sorted(by_class.items())}
    m = {
        "setup_s": (statistics.median(s * hostref.NOMINAL_S / r for s, r in setup), "s"),
        "op_adj_mean_ms": (statistics.fmean(mean.values()), "ms"),
        "op_adj_p90_ms": (statistics.fmean(p90.values()), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_raw_s": (statistics.median(s for s, _ in setup), "s"),
        "op_p50_ms": (1e3 * quantile(phase.latency, 0.5), "ms"),
        "op_p90_ms": (1e3 * quantile(phase.latency, 0.9), "ms"),
        "ops_per_s": (len(phase.latency) / phase.wall, "1/s"),
        "host_ref_ms": (1e3 * statistics.median(r for _, r in phase.ref), "ms"),
    }
    for c in mean:
        m[f"op_adj_mean_ms.{c}"] = (mean[c], "ms")
        m[f"ops.{c}"] = (len(by_class[c]), "count")
    return m


def declared_metrics(root: str, trace: int) -> list[str] | None:
    """Names of the metrics BENCHMARK.json declares for this mode, or None
    without a BENCHMARK.json (then every figure is printed)."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=workloads.NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if args.setup_probe:
        setup_probe(root, args.setup_probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    eo = import_exchopt(root)
    name = args.workload
    setup = [] if args.trace else measure_setup(root, name, SETUP_PROBES[0])
    wl = workloads.make(name, eo, args.seed, out_dir(root, name))
    wl.warmup()
    ops = wl.ops()
    failures: list[str] = []

    if args.trace:
        # first pass makes the inputs; the overhead compares two replays of
        # them, untraced then traced, so neither carries a first execution
        first = closed_loop(wl, ops, args.seconds / 3)
        untraced = replay(wl, first.inputs)
        tr = tracer.Tracer(eo)
        with tr:
            traced = replay(wl, first.inputs, tr)
        failures += [f"tracer left a wrapper at {a}" for a in tracer.wrapped_attributes(eo)]
        phases = [first, untraced, traced]
        figures = layer_metrics(eo, wl, tr, untraced, traced)
    else:
        timed = closed_loop(wl, ops, args.seconds, hostref.HostReference())
        setup += measure_setup(root, name, SETUP_PROBES[1])
        phases = [timed]
        figures = end_to_end(wl, timed, setup)
    declared = declared_metrics(root, args.trace)
    names = list(figures) if declared is None else declared
    failures += [f"declared metric {k} was not measured" for k in names if k not in figures]
    metrics = {k: {"value": figures[k][0], "unit": figures[k][1]} for k in names if k in figures}

    done = [pair for p in phases for pair in p.done]
    bad, extra = wl.check(done)
    failures += bad
    if name in PANEL_OPS:
        failures += check_reference(eo, name, root)
    attempted = sum(p.attempted for p in phases)
    failed = sum(len(p.errors) for p in phases)
    failures += [f"operation failed:\n{e}" for p in phases for e in p.errors]
    correct = not failures and attempted > 0 and failed == 0

    main_phase = phases[0]
    t0 = main_phase.started[0] if main_phase.started else 0.0
    extra.update({
        "wall_s": main_phase.wall,
        "ops_completed": len(main_phase.latency),
        "ops_failed_ratio": failed / attempted if attempted else math.nan,
    })
    if name == "sweep" and not args.trace:
        extra["points_per_s"] = extra["included_points"] / main_phase.wall
    report = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics, "extra": extra,
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        "exclusions": {k: {"count": c, "base": b} for k, (c, b) in wl.exclusions.items()},
        "setup_samples_s": setup,
        "failures": failures[:20],
        "latency_s": main_phase.latency,
        "started_s": [t - t0 for t in main_phase.started],
        "host_ref_s": [(t - t0, r) for t, r in main_phase.ref],
    }
    path = os.path.join(
        out_dir(root, name), f"report-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, default=str)
        fh.write("\n")

    print_report(report, os.path.relpath(path, root))
    return 0 if correct else 1


def print_report(r: dict, path: str) -> None:
    """Readable lines, then the result as one JSON object on the last line.
    A star marks the figures BENCHMARK.json declares."""
    env = r["environment"]
    print(f"perfbench {r['workload']} seed={r['seed']} seconds={r['seconds']} "
          f"trace={r['trace']} nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']}")
    print(f"  operations: {r['attempted']} attempted, {r['failed']} failed, "
          f"{r['extra']['ops_completed']} timed in {r['extra']['wall_s']:.3f} s")
    for key, m in r["figures"].items():
        mark = "*" if key in r["metrics"] else " "
        print(f" {mark}{key:<50} {m['value']:>14.6g} {m['unit']}")
    for key, v in r["extra"].items():
        print(f"  {key:<50} {v:>14.6g}")
    for key, e in r["exclusions"].items():
        print(f"  excluded {key:<41} {e['count']:>7d} of {e['base']}")
    for f in r["failures"]:
        print(f"  CHECK FAILED: {f}")
    print(f"  report: {path}")
    print(json.dumps({k: r[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    sys.exit(main())
