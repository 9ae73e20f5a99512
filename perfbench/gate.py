"""Correctness gate: checks on operation outputs and the stored reference.

Every check returns a list of failure messages; an empty list passes.  The
Black-Scholes formula used for round trips is written out here from
``math.erfc`` so that the gate does not check the library against itself.

Tolerances, as shares of the spot of the priced asset:

- ``PRICE_TOL``: exact prices against the reference, five times the
  pricer's documented accuracy of 1e-13 of spot.
- ``INVERSION_TOL``: implied-vol inversion stops within 1e-12 of spot on
  each side of a round trip.
- A vol is compared through its price: |d sigma| * vega must stay within
  (PRICE_TOL + INVERSION_TOL) of spot, so wing knots with little vega get a
  tolerance as wide as their price allows and no wider.
- ``A_STAR_TOL``: a* is a ratio of skew differences over the skew window;
  the vol tolerance above carried through that ratio stays below 1e-8.
- ``QUOTE_PRICE_TOL``: the a* Margrabe price moves with a* and two vols.
"""

from __future__ import annotations

import math
from statistics import NormalDist

PRICE_TOL = 5e-13
INVERSION_TOL = 2e-12
A_STAR_TOL = 1e-8
QUOTE_PRICE_TOL = 1e-10
# Monte Carlo against the exact value, z = (mc - exact) / stderr over the
# included points of a sweep or the figures of the paths workload.  Sweeps of
# about 210 points gave RMS 0.9 to 1.06 and maxima 2.2 to 3.3; the maximum of
# a thousand standard normals passes 5 with probability below 1e-3.
Z_RMS_MAX = 1.6
Z_MAX = 5.0
# The paths workload checks three figures of each of a few hundred
# operations a run; its |z| bound is set so that a run of unbiased figures
# fails with probability below PATHS_FALSE_ALARM, and is never below Z_MAX.
PATHS_FALSE_ALARM = 1e-6


def familywise_z_max(n: int) -> float:
    return max(Z_MAX, NormalDist().inv_cdf(1.0 - PATHS_FALSE_ALARM / (2 * max(n, 1))))


def _ncdf(d: float) -> float:
    return 0.5 * math.erfc(-d / math.sqrt(2.0))


def bs_call(x: float, k: float, sigma: float, T: float) -> float:
    """Undiscounted call on e^x struck at e^k."""
    s = sigma * math.sqrt(T)
    d1 = (x - k) / s + 0.5 * s
    return math.exp(x) * _ncdf(d1) - math.exp(k) * _ncdf(d1 - s)


def bs_vega(x: float, k: float, sigma: float, T: float) -> float:
    s = sigma * math.sqrt(T)
    d1 = (x - k) / s + 0.5 * s
    return math.exp(x) * math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi) * math.sqrt(T)


def _finite(*values) -> bool:
    return all(isinstance(v, float) and math.isfinite(v) for v in values)


def _within_bounds(price: float, model) -> bool:
    """max(S0X - S0Y, 0) <= price <= S0X, up to PRICE_TOL of spot."""
    tol = PRICE_TOL * model.s0x
    return max(model.s0x - model.s0y, 0.0) - tol <= price <= model.s0x + tol


def check_quote_output(op, out: dict) -> list[str]:
    T, model = op
    where = f"quote T={T} s0y={model.s0y!r} corr={model.corr}"
    bad = []
    if not _finite(out["a_star"], out["price"]):
        bad.append(f"{where}: non-finite a*={out['a_star']} or price={out['price']}")
        return bad
    if not _within_bounds(out["price"], model):
        bad.append(f"{where}: price {out['price']} outside the no-arbitrage bounds")
    for leg in ("x", "y"):
        z, v = out[f"knots_{leg}"], out[f"vols_{leg}"]
        if len(z) < 2 or len(z) != len(v):
            bad.append(f"{where}: leg {leg} has {len(z)} knots and {len(v)} vols")
        elif any(b <= a for a, b in zip(z, z[1:])):
            bad.append(f"{where}: leg {leg} knots not increasing")
        elif not all(_finite(s) and s > 0 for s in v):
            bad.append(f"{where}: leg {leg} has a non-positive or non-finite vol")
    return bad


def check_exact_output(op, out: dict) -> list[str]:
    T, model = op
    where = f"exact_grid T={T} s0y={model.s0y!r} corr={model.corr}"
    price, gamma = out["price"], out["gamma"]
    if not _finite(price):
        return [f"{where}: non-finite price {price}"]
    bad = []
    if not _within_bounds(price, model):
        bad.append(f"{where}: price {price} outside the no-arbitrage bounds")
    if gamma is not None:
        if not (_finite(gamma) and gamma > 0):
            bad.append(f"{where}: implied vol {gamma}")
        else:
            back = bs_call(math.log(model.s0x), math.log(model.s0y), gamma, T)
            if abs(back - price) > INVERSION_TOL * model.s0x:
                bad.append(f"{where}: implied vol {gamma} reprices to {back}, not {price}")
    return bad


def _vol_close(v: float, ref: float, x: float, k: float, T: float) -> bool:
    tol = (PRICE_TOL + INVERSION_TOL) * math.exp(x)
    return abs(v - ref) * bs_vega(x, k, ref, T) <= tol


def compare_quote(op, out: dict | None, ref: dict | None) -> list[str]:
    T, model = op
    where = f"quote reference T={T} s0y={model.s0y!r}"
    if out is None or ref is None:
        return [] if out is ref else [f"{where}: a* degenerate in one of output and reference"]
    bad = []
    if abs(out["a_star"] - ref["a_star"]) > A_STAR_TOL:
        bad.append(f"{where}: a* {out['a_star']!r} != {ref['a_star']!r}")
    if abs(out["price"] - ref["price"]) > QUOTE_PRICE_TOL * model.s0x:
        bad.append(f"{where}: price {out['price']!r} != {ref['price']!r}")
    for leg, s0 in (("x", model.s0x), ("y", model.s0y)):
        z, v = out[f"knots_{leg}"], out[f"vols_{leg}"]
        z_ref, v_ref = ref[f"knots_{leg}"], ref[f"vols_{leg}"]
        if len(z) != len(z_ref) or any(abs(a - b) > 1e-15 for a, b in zip(z, z_ref)):
            bad.append(f"{where}: leg {leg} knots differ ({len(z)} vs {len(z_ref)})")
            continue
        x = math.log(s0)
        for zi, vi, ri in zip(z, v, v_ref):
            if not _vol_close(vi, ri, x, x + zi, T):
                bad.append(f"{where}: leg {leg} vol at z={zi:.4f} {vi!r} != {ri!r}")
    return bad


def compare_exact(op, out: dict, ref: dict) -> list[str]:
    T, model = op
    where = f"exact_grid reference T={T} s0y={model.s0y!r} corr={model.corr}"
    bad = []
    if abs(out["price"] - ref["price"]) > PRICE_TOL * model.s0x:
        bad.append(f"{where}: price {out['price']!r} != {ref['price']!r}")
    if (out["gamma"] is None) != (ref["gamma"] is None):
        bad.append(f"{where}: sub-cent exclusion differs from the reference")
    elif out["gamma"] is not None and not _vol_close(
        out["gamma"], ref["gamma"], math.log(model.s0x), math.log(model.s0y), T
    ):
        bad.append(f"{where}: implied vol {out['gamma']!r} != {ref['gamma']!r}")
    return bad


def check_sweep_accounting(mc_seed: int, summary, n_points: int) -> list[str]:
    parts = summary.included + summary.invalid_correlation + summary.sub_cent
    if summary.total_points == n_points == parts:
        return []
    return [
        f"sweep seed {mc_seed}: {summary.included} included + "
        f"{summary.invalid_correlation} invalid + {summary.sub_cent} sub-cent points "
        f"of {summary.total_points} read back, grid has {n_points}"
    ]


def sweep_z_scores(rows: list[dict], exact_price) -> list[tuple[float, str]]:
    """(z, point) with z = (mc - exact) / stderr, once per included point of
    one sweep."""
    seen = {}
    for r in rows:
        if r["excluded"]:
            continue
        key = (r["T"], r["rho"], r["rho_X"], r["rho_Y"], r["s0Y"])
        seen.setdefault(key, (r["mc_price"], r["mc_stderr"]))
    out = []
    for key, (mc, se) in seen.items():
        exact = exact_price(*key)
        z = (mc - exact) / se if se > 0 else math.nan
        point = "T={} rho={} rho_X={} rho_Y={} s0Y={}".format(*key)
        out.append((z, f"{point}: mc {mc!r} stderr {se!r} exact {exact!r}"))
    return out


def z_stats(zs: list[float]) -> tuple[float, float]:
    """(RMS, max |z|) of the finite z-scores."""
    finite = [z for z in zs if math.isfinite(z)]
    if not finite:
        return math.nan, math.nan
    return math.sqrt(sum(z * z for z in finite) / len(finite)), max(abs(z) for z in finite)


def paths_z_scores(out: dict, exact: float, where: str) -> list[tuple[float, str]]:
    """(z, what) for one ``simulate_terminal`` sample reduced to (mean,
    stderr) pairs: each gross return is a martingale with mean 1, and the
    plain at-the-money exchange payoff has the exact price as its mean."""
    targets = {"rx": 1.0, "ry": 1.0, "atm_price": exact}
    out_z = []
    for key, target in targets.items():
        mean, se = out[key]
        z = (mean - target) / se if se > 0 else math.nan
        out_z.append((z, f"{where} {key}: mean {mean!r} stderr {se!r} expected {target!r}"))
    return out_z


def check_z_scores(
    scored: list[tuple[float, str]], label: str, z_max: float = Z_MAX
) -> list[str]:
    if not scored:
        return [f"{label}: no Monte Carlo figure to check against its exact value"]
    zs = [z for z, _ in scored]
    if not all(math.isfinite(z) for z in zs):
        return [f"{label}: non-finite z-score (zero stderr or missing price)"]
    rms, worst = z_stats(zs)
    bad = []
    if rms > Z_RMS_MAX:
        bad.append(f"{label}: RMS z {rms:.3f} over {len(zs)} figures above {Z_RMS_MAX}")
    bad += [
        f"{label}: |z| {abs(z):.3f} above {z_max:.3f} at {point}"
        for z, point in scored if abs(z) > z_max
    ]
    return bad
