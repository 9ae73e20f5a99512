"""The benchmark workloads: inputs made from the seed, one operation, a
warm-up, and the checks on what the operations returned.

Every operation goes through exchopt's public API; the library receives only
the generated inputs, never the seed.

- ``quote``: one desk quote of a fresh seeded model, the path of
  ``exchopt price exchange --convention a-star``.
- ``paths``: one ``simulate_terminal`` run of the sweep's model.
- ``exact_grid``: one point of the paper grid priced exactly, then inverted
  for the exchange implied vol.
- ``sweep``: one validation sweep, ``exchopt experiment run`` in-process.
  Not in BENCHMARK.json: its gate fails on some seeds (NOTES.md, "Known
  defect the gate finds").
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics

import numpy as np
import yaml

import gate

HERE = os.path.dirname(os.path.abspath(__file__))
MATURITIES = (0.05, 0.1, 0.25, 0.5, 1.0)
# The quote workload draws its correlations uniformly over the spans of the
# paper grid and redraws until the 3x3 matrix is positive semi-definite.
QUOTE_RHO_SPAN = (-0.9, 0.9)
QUOTE_RHO_X_SPAN = (-0.72, 0.48)
QUOTE_RHO_Y_SPAN = (-0.61, 0.59)
QUOTE_S0Y_SPAN = (80.0, 120.0)
# astar_mae averages the first two cycles through the maturities, so the
# figure depends on the seed only and not on how many operations a run fits.
ASTAR_MAE_OPS = 10


class Workload:
    """One workload; ``run.py`` drives it in a closed loop with one caller."""

    name = ""

    def __init__(self, eo, seed: int):
        self.eo = eo
        self.rng = np.random.default_rng(seed)
        # rule-based exclusions, reason -> [count, base]; not failures
        self.exclusions: dict[str, list[int]] = {}

    def tally(self, reason: str, count: int, base: int) -> None:
        cell = self.exclusions.setdefault(reason, [0, 0])
        cell[0] += int(count)
        cell[1] += int(base)

    def ops(self):
        """Endless iterator of operation inputs."""
        raise NotImplementedError

    def run(self, op):
        """One operation; an exception is a failed operation."""
        raise NotImplementedError

    def warmup(self) -> None:
        """One operation on fixed inputs, independent of the seed."""
        raise NotImplementedError

    def describe(self, op) -> dict:
        """The operation's inputs as JSON."""
        T, m = op
        c = m.corr
        return {"T": T, "rho": c.rho, "rho_x": c.rho_x, "rho_y": c.rho_y, "s0y": m.s0y}

    def check(self, done: list) -> tuple[list[str], dict]:
        """(failures, extra figures) for the (op, output) pairs of a run."""
        raise NotImplementedError

    def op_class(self, op) -> str:
        """The group whose latencies are summarised together: the maturity."""
        return f"T{op[0]}"


class Quote(Workload):
    name = "quote"

    def __init__(self, eo, seed: int):
        super().__init__(eo, seed)
        self.heston = eo.HestonParams(kappa=1.5, theta=0.15, nu=0.5, sigma0=0.15)

    def _corr(self):
        eo = self.eo
        while True:
            c = eo.CorrelationStructure(
                rho=float(self.rng.uniform(*QUOTE_RHO_SPAN)),
                rho_x=float(self.rng.uniform(*QUOTE_RHO_X_SPAN)),
                rho_y=float(self.rng.uniform(*QUOTE_RHO_Y_SPAN)),
            )
            valid = eo.validate_correlation(c)[0]
            self.tally("invalid_correlation_draws", not valid, 1)
            if valid:
                return c

    def ops(self):
        i = 0
        while True:
            corr = self._corr()
            s0y = float(self.rng.uniform(*QUOTE_S0Y_SPAN))
            model = self.eo.TwoAssetModel(
                heston=self.heston, lam_x=1.5, lam_y=1.0, s0x=100.0, s0y=s0y, corr=corr,
            )
            yield MATURITIES[i % len(MATURITIES)], model
            i += 1

    def run(self, op):
        eo = self.eo
        T, model = op
        h = model.heston
        obs = eo.measure_smile_observables(h, model.asset_x, model.asset_y, T)
        try:
            a = eo.a_star_observables(obs, model.rho)
        except eo.DegenerateConventionError:
            return None
        smile_x = eo.build_smile_grid(h, model.asset_x, T, asset_id="X")
        smile_y = eo.build_smile_grid(h, model.asset_y, T, asset_id="Y")
        x, y = math.log(model.s0x), math.log(model.s0y)
        k_x, k_y = eo.strikes(a, x, y)
        gamma = eo.convention_gamma(
            smile_x.vol_at_moneyness(k_x - x), smile_y.vol_at_moneyness(k_y - y), model.rho
        )
        return {
            "a_star": a,
            "knots_x": smile_x.log_moneyness.tolist(), "vols_x": smile_x.vols.tolist(),
            "knots_y": smile_y.log_moneyness.tolist(), "vols_y": smile_y.vols.tolist(),
            "price": eo.margrabe_price(x, y, gamma, T),
        }

    def warmup(self) -> None:
        self.run((0.25, self.eo.experiments.reference_case_model(1)))

    def check(self, done):
        failures: list[str] = []
        errors = []
        seen = set()  # a traced run replays the same operations
        for op, out in done:
            self.tally("degenerate_a_star", out is None, 1)
            if out is None:
                continue
            failures += gate.check_quote_output(op, out)
            if len(seen) < ASTAR_MAE_OPS and id(op) not in seen:
                seen.add(id(op))
                T, model = op
                errors.append(abs(out["price"] - self.eo.exchange_option_price(model, T)))
        extra = {
            "astar_mae": statistics.fmean(errors) if errors else math.nan,
            "astar_mae_ops": len(errors),
        }
        return failures, extra


class ExactGrid(Workload):
    name = "exact_grid"

    def __init__(self, eo, seed: int):
        super().__init__(eo, seed)
        spec = self.spec = eo.experiments.GridSpec()
        triples = [
            (rho, rx, ry) for rho in spec.rho_list
            for rx in spec.rho_x_list for ry in spec.rho_y_list
        ]
        valid = [
            t for t in triples if eo.validate_correlation(eo.CorrelationStructure(*t))[0]
        ]
        self.tally("invalid_correlation_triples", len(triples) - len(valid), len(triples))
        self.points = [
            (T, t, s0y) for T in spec.T_list for t in valid for s0y in spec.s0y_list
        ]

    def model(self, triple, s0y: float):
        eo, spec = self.eo, self.spec
        return eo.TwoAssetModel(
            heston=spec.heston, lam_x=spec.lam_x, lam_y=spec.lam_y,
            s0x=spec.s0x, s0y=s0y, corr=eo.CorrelationStructure(*triple),
        )

    def ops(self):
        # a seeded permutation of the grid; once it is exhausted, further
        # passes draw S0Y uniformly over the grid's span, so that no point
        # repeats and a memo cache would find nothing to reuse
        for j in self.rng.permutation(len(self.points)):
            T, triple, s0y = self.points[j]
            yield T, self.model(triple, s0y)
        lo, hi = min(self.spec.s0y_list), max(self.spec.s0y_list)
        while True:
            for j in self.rng.permutation(len(self.points)):
                T, triple, _ = self.points[j]
                yield T, self.model(triple, float(self.rng.uniform(lo, hi)))

    def run(self, op):
        eo = self.eo
        T, model = op
        price = eo.exchange_option_price(model, T)
        # sub-cent time value: the inversion is ill-posed (and raises
        # DomainError below about 1e-14), so the point is excluded, not failed
        if price - max(model.s0x - model.s0y, 0.0) < eo.experiments.SUB_CENT_THRESHOLD:
            return {"price": price, "gamma": None}
        gamma = eo.exchange_implied_vol(price, math.log(model.s0x), math.log(model.s0y), T)
        return {"price": price, "gamma": gamma}

    def warmup(self) -> None:
        self.run((0.25, self.model((0.5, -0.42, -0.31), 100.0)))

    def check(self, done):
        failures: list[str] = []
        for op, out in done:
            self.tally("sub_cent_time_value", out["gamma"] is None, 1)
            failures += gate.check_exact_output(op, out)
        return failures, {}


class Sweep(Workload):
    """One operation is a whole ``exchopt experiment run`` over ``sweep.yaml``."""

    name = "sweep"
    config = os.path.join(HERE, "sweep.yaml")

    def __init__(self, eo, seed: int, out_dir: str):
        super().__init__(eo, seed)
        self.out_dir = out_dir
        with open(self.config) as fh:
            self.raw = yaml.safe_load(fh)
        self._exact: dict[tuple, float] = {}

    def ops(self):
        while True:
            yield int(self.rng.integers(0, 2**31))

    def op_class(self, op) -> str:
        return "sweep"

    def _main(self, argv: list[str]) -> list[dict]:
        results = os.path.join(self.out_dir, "results.csv")
        if os.path.exists(results):
            os.remove(results)
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.eo.cli.main(
                ["--config", self.config, "--out", self.out_dir, "--jobs", "1"] + argv
            )
        if code != 0:
            raise RuntimeError(f"exchopt experiment run exited with {code}")
        return self.eo.experiments.read_results_csv(results)

    def run(self, op):
        return self._main(["--seed", str(op), "experiment", "run"])

    def warmup(self) -> None:
        self._main(["--seed", "1", "experiment", "run",
                    "--T", "0.25", "--rho", "-0.1", "--paths", "4096"])

    def exact_price(self, T, rho, rho_x, rho_y, s0y) -> float:
        key = (T, rho, rho_x, rho_y, s0y)
        if key not in self._exact:
            eo, m, g = self.eo, self.raw["model"], self.raw["grid"]
            model = eo.TwoAssetModel(
                heston=eo.HestonParams(
                    kappa=m["kappa"], theta=m["theta"], nu=m["nu"], sigma0=m["sigma0"]
                ),
                lam_x=g["lam_x"], lam_y=g["lam_y"], s0x=g["s0x"], s0y=s0y,
                corr=eo.CorrelationStructure(rho=rho, rho_x=rho_x, rho_y=rho_y),
            )
            self._exact[key] = eo.exchange_option_price(model, T)
        return self._exact[key]

    def n_points(self) -> int:
        g = self.raw["grid"]
        return math.prod(
            len(g[k]) for k in ("T_list", "rho_list", "rho_x_list", "rho_y_list", "s0y_list")
        )

    def check(self, done):
        failures: list[str] = []
        scored: list[tuple[float, str]] = []
        included = 0
        for mc_seed, rows in done:
            s = self.eo.experiments.summarize_exclusions(rows)
            self.tally("invalid_correlation_points", s.invalid_correlation, s.total_points)
            self.tally("sub_cent_points", s.sub_cent, s.total_points - s.invalid_correlation)
            self.tally("degenerate_a_star_points", s.degenerate_convention, s.included)
            included += s.included
            failures += gate.check_sweep_accounting(mc_seed, s, self.n_points())
            scored += gate.sweep_z_scores(rows, self.exact_price)
        failures += gate.check_z_scores(scored, "sweep")
        rms, worst = gate.z_stats([z for z, _ in scored])
        extra = {"included_points": included, "z_points": len(scored),
                 "z_rms": rms, "z_max_abs": worst}
        return failures, extra

    @staticmethod
    def atm_stderr(op, rows) -> dict[tuple, float]:
        """MC stderr at S0Y = 100 per (T, rho, rho_X, rho_Y) of one sweep."""
        return {
            (r["T"], r["rho"], r["rho_X"], r["rho_Y"]): r["mc_stderr"]
            for r in rows if not r["excluded"] and r["s0Y"] == 100.0
        }


class Paths(Workload):
    """One operation is one ``simulate_terminal`` run: the Monte Carlo engine
    of the sweep on its own, without the control-variate estimator."""

    name = "paths"
    maturities = (0.05, 0.1, 0.25)

    def __init__(self, eo, seed: int):
        super().__init__(eo, seed)
        with open(Sweep.config) as fh:
            raw = yaml.safe_load(fh)
        m, g = raw["model"], raw["grid"]
        self.mc = raw["mc"]
        self.heston = eo.HestonParams(
            kappa=m["kappa"], theta=m["theta"], nu=m["nu"], sigma0=m["sigma0"]
        )
        self.lam = (g["lam_x"], g["lam_y"])
        self.s0 = g["s0x"]  # both legs: the gate prices at the money
        triples = [
            eo.CorrelationStructure(rho=r, rho_x=rx, rho_y=ry)
            for r in g["rho_list"] for rx in g["rho_x_list"] for ry in g["rho_y_list"]
        ]
        self.triples = [c for c in triples if eo.validate_correlation(c)[0]]
        self.tally("invalid_correlation_triples", len(triples) - len(self.triples), len(triples))
        self._exact: dict[tuple, float] = {}

    def model(self, corr):
        return self.eo.TwoAssetModel(
            heston=self.heston, lam_x=self.lam[0], lam_y=self.lam[1],
            s0x=self.s0, s0y=self.s0, corr=corr,
        )

    def ops(self):
        i = 0
        while True:
            corr = self.triples[int(self.rng.integers(len(self.triples)))]
            mc_seed = int(self.rng.integers(0, 2**31))
            yield self.maturities[i % len(self.maturities)], self.model(corr), mc_seed
            i += 1

    def run(self, op):
        eo = self.eo
        T, model, mc_seed = op
        mc = eo.McConfig(
            n_paths=self.mc["n_paths"], n_steps=self.mc["n_steps"], seed=mc_seed, jobs=1
        )
        sample = eo.simulation.simulate_terminal(model, T, mc)
        # reduced at once, so memory does not grow with the number of operations
        payoff = np.maximum(model.s0x * sample.rx - model.s0y * sample.ry, 0.0)
        return {
            key: (float(np.mean(a)), float(np.std(a, ddof=1) / math.sqrt(a.shape[0])))
            for key, a in (("rx", sample.rx), ("ry", sample.ry), ("atm_price", payoff))
        }

    def warmup(self) -> None:
        self.run((0.05, self.model(self.triples[0]), 1))

    def exact_price(self, T, model) -> float:
        c = model.corr
        key = (T, c.rho, c.rho_x, c.rho_y)
        if key not in self._exact:
            self._exact[key] = self.eo.exchange_option_price(model, T)
        return self._exact[key]

    def check(self, done):
        scored: list[tuple[float, str]] = []
        seen = set()  # a traced run replays the same operations
        for op, out in done:
            if id(op) in seen:
                continue
            seen.add(id(op))
            T, model, mc_seed = op
            scored += gate.paths_z_scores(
                out, self.exact_price(T, model), f"T={T} corr={model.corr} seed={mc_seed}"
            )
        failures = gate.check_z_scores(scored, "paths", gate.familywise_z_max(len(scored)))
        rms, worst = gate.z_stats([z for z, _ in scored])
        return failures, {"z_points": len(scored), "z_rms": rms, "z_max_abs": worst}

    @staticmethod
    def atm_stderr(op, out) -> dict[tuple, float]:
        """Standard error of the plain Monte Carlo price at S0Y = S0X, keyed
        like ``Sweep.atm_stderr``."""
        T, model, _ = op
        c = model.corr
        return {(T, c.rho, c.rho_x, c.rho_y): out["atm_price"][1]}


def make(name: str, eo, seed: int, out_dir: str) -> Workload:
    if name == "quote":
        return Quote(eo, seed)
    if name == "exact_grid":
        return ExactGrid(eo, seed)
    if name == "paths":
        return Paths(eo, seed)
    if name == "sweep":
        return Sweep(eo, seed, out_dir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("quote", "paths", "exact_grid", "sweep")
