"""Semi-analytic Heston pricing, smile construction and smile observables.

Each leg of the two-asset model is itself a Heston asset after rescaling
(``effective_heston``), and the exact exchange price is a vanilla on the ratio
asset, so one Fourier kernel (``_time_values``) prices everything: a batch of
log-strikes for unit spot, each as the damped integral of the characteristic
function on its out-of-the-money side (in-the-money values follow by parity),
accurate near 1e-13 of spot even for far strikes worth almost nothing.  The
characteristic function over the damping denominator, f, is evaluated once per
node for the whole batch, in chunks of whole panels (at most 3072 nodes, so
memory does not grow with the cut-off), and each strike reads it as
cos(uk) Re f + sin(uk) Im f, summed panel by panel with its phase split at the
panel midpoint (``_panel_sums``, one stacked product per chunk), so trig runs
per panel, not per node: a 41-strike smile costs little more than one strike,
and vanilla and exchange prices are one-strike batches.  A leg's smile knots
and the first rung of its convention-window strikes are one batch per (leg, T)
(``_leg_quote``), kept for the last few legs; a leg's kept knots, and both
legs' window strikes of a rung, are inverted as one batch.  The complex log1p
inside the characteristic function is taken in real arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.interpolate import PchipInterpolator

from . import blackscholes, margrabe
from .errors import DomainError, InputError, NumericalError
from .models import AssetSpec, HestonParams, TwoAssetModel, validate_correlation

__all__ = [
    "SmileObservables",
    "Smile",
    "effective_heston",
    "heston_vanilla_price",
    "exchange_option_price",
    "build_smile",
    "build_smile_grid",
    "measure_smile_observables",
    "smile_csv_rows",
    "SMILE_GRID_SPAN",
    "SMILE_GRID_POINTS",
    "CONVENTION_SKEW_WINDOW",
    "WINDOW_SHRINK_LADDER",
    "MIN_TIME_VALUE",
]

# Experiment smile grid: 41 strikes evenly spaced in log-moneyness.  Wings with
# time value below MIN_TIME_VALUE * s0 are trimmed (float64 cannot resolve
# them; lookups beyond the kept knots fall back to flat extrapolation).
SMILE_GRID_SPAN = (math.log(0.7), math.log(1.3))
SMILE_GRID_POINTS = 41
MIN_TIME_VALUE = 1e-12

# Convention skews are measured as the endpoint slope of the smile across the
# quoted moneyness window [0.8, 1.2] (the span the reference study tabulates),
# shrunk proportionally when a parameter corner cannot resolve the wings.
CONVENTION_SKEW_WINDOW = (math.log(0.8), math.log(1.2))
WINDOW_SHRINK_LADDER = (1.0, 0.8, 0.6, 0.45, 0.3, 0.2, 0.12, 0.07, 0.04)
_QUOTE_WINDOW = (CONVENTION_SKEW_WINDOW[0], 0.0, CONVENTION_SKEW_WINDOW[1])

_DAMPING_ALPHA = 0.75  # e^{alpha k} damping; alpha and -1-alpha share alpha^2+alpha
_TAIL_TOL = 1e-14
_ABS_TOL = 1e-13
_REL_TOL = 1e-11
_GL_NODES = 24
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_NODES)
_MAX_REFINE = 9
_CHUNK_PANELS = 128  # 3072 nodes: no level allocates more at once
_QUOTE_MEMO = 16  # legs whose quote batch is kept: a sweep maturity has 10


@dataclass(frozen=True)
class SmileObservables:
    """ATM implied-vol levels and skews of the two legs at maturity T.

    Skews are d(implied vol)/d(log strike): the endpoint slope over the
    log-moneyness ``window`` (lo, hi).
    """

    level_x: float
    level_y: float
    skew_x: float
    skew_y: float
    T: float
    window: tuple[float, float]

    def __post_init__(self):
        if not (self.level_x > 0 and self.level_y > 0):
            raise InputError("ATM levels must be positive")
        if not (np.isfinite(self.skew_x) and np.isfinite(self.skew_y)):
            raise InputError("skews must be finite")


def effective_heston(params: HestonParams, asset: AssetSpec) -> HestonParams:
    """Parameters of the scaled leg: v_i = lam^2 sigma^2 is CIR with
    (kappa, lam^2 theta, lam nu, lam sigma0)."""
    lam = asset.lam
    return HestonParams(
        kappa=params.kappa,
        theta=lam * lam * params.theta,
        nu=lam * params.nu,
        sigma0=lam * params.sigma0,
    )


def _clog1p(w: np.ndarray) -> np.ndarray:
    """log(1 + w) for complex w = x + iy in real arithmetic, relative error below
    4e-16 at |w| <= 0.5: log|1 + w| = log1p(x(2 + x) + y^2)/2, arg = atan2(y, 1 + x)."""
    x, y = w.real, w.imag
    return 0.5 * np.log1p(x * (2.0 + x) + y * y) + 1j * np.arctan2(y, 1.0 + x)


def _cf_log_return(
    u: np.ndarray, kappa: float, kappa_theta: float, nu: float, v0: float,
    rho_sv: float, T: float,
) -> np.ndarray:
    """Characteristic function of log(S_T/S_0), r = q = 0.

    Stabilised variant of the usual formulation: the (b - d) difference is
    rewritten as -nu^2 (iu + u^2) / (b + d), which removes the catastrophic
    cancellation at small nu and stays on the continuous branch for all T.
    """
    u = np.asarray(u, dtype=complex)
    q = 1j * u + u * u
    b = kappa - 1j * rho_sv * nu * u
    d = np.sqrt(b * b + nu * nu * q)  # principal branch, Re(d) >= 0
    bpd = b + d
    q_bpd = q / bpd
    g = -nu * nu * q_bpd / bpd  # (b - d)/(b + d)
    edt = np.exp(d * -T)  # signs sit on scalars: no array negation
    one_m_edt = 1.0 - edt
    A = kappa_theta * (q_bpd * -T - 2.0 * _clog1p(g * one_m_edt / (1.0 - g)) / (nu * nu))
    minus_D = q_bpd * one_m_edt / (1.0 - g * edt)
    return np.exp(A - minus_D * v0)


def _panel_sums(
    f: np.ndarray, mids: np.ndarray, half: float, ks: np.ndarray
) -> np.ndarray:
    """Sum of w_g [cos(uk) Re f + sin(uk) Im f] over the Gauss-Legendre nodes
    u = m + half x_g of panels with midpoints ``mids`` (f has one row of
    _GL_NODES values per panel), for each log-strike in ``ks``.

    Splitting uk = mk + (half x_g) k, a panel sums to cos(mk) A + sin(mk) B,
    where A + iB = f @ (w e^{-i half x k}): A = Re f (w cos(half x k)) +
    Im f (w sin(half x k)) and B = Im f (w cos(half x k)) - Re f (w sin(half x k)).
    Trig runs once per panel and once per abscissa, not once per node.  Each strike's
    stacked f @ w is its own gemv, so its bits do not depend on the rest of ``ks``."""
    hk = np.multiply.outer(ks, half * _GL_X)
    weights = _GL_W * (np.cos(hk) - 1j * np.sin(hk))
    mk = np.multiply.outer(ks, mids)
    phases = np.cos(mk) + 1j * np.sin(mk)
    return np.matmul(phases.conj()[:, None, :], np.matmul(f, weights[:, :, None]))[:, 0, 0].real


def _damped_values(
    cf: Callable[[np.ndarray], np.ndarray], ks: Sequence[float], alpha: float
) -> list[float]:
    """Damped-transform values for unit spot at log-strikes ``ks`` of calls
    (alpha > 0) or puts (alpha < -1): Re(e^{-iuk} f) = cos(uk) Re f + sin(uk) Im f,
    f = cf(u - (alpha+1)i) / den(u) computed once per node for the whole batch,
    on Gauss-Legendre panels over [0, upper], _CHUNK_PANELS panels at a time,
    and read by each strike through its per-panel phases (``_panel_sums``).
    A strike's ``upper`` is the first doubling where its integrand is below
    _TAIL_TOL; panels then double until its estimate moves by less than
    max(_ABS_TOL, _REL_TOL |est|), and it keeps the estimate of that level."""

    def damped_cf(u: np.ndarray) -> np.ndarray:
        den = alpha * alpha + alpha - u * u + 1j * (2.0 * alpha + 1.0) * u
        return cf(u - (alpha + 1.0) * 1j) / den

    est: dict[int, float] = {}
    pending, upper = list(range(len(ks))), 100.0
    while pending:
        if upper > 2e6:
            raise NumericalError(f"integrand tail above {_TAIL_TOL} out to u={upper} "
                                 f"at log-strikes {[ks[i] for i in pending]}")
        u = np.linspace(upper, 1.25 * upper, 7)
        f, uk = damped_cf(u), np.multiply.outer([ks[i] for i in pending], u)
        tail = np.max(np.abs(np.cos(uk) * f.real + np.sin(uk) * f.imag), axis=1)
        over = [i for i, t in zip(pending, tail) if t > _TAIL_TOL]
        todo, prev, n_panels = [i for i in pending if i not in over], {}, max(32, int(upper / 4.0))
        for _ in range(_MAX_REFINE + 1):
            if not todo:
                break
            half, k_todo = 0.5 * upper / n_panels, np.array([ks[i] for i in todo])
            mids, sums = half * np.arange(1, 2 * n_panels, 2), np.zeros(len(todo))
            for mid in np.array_split(mids, -(-n_panels // _CHUNK_PANELS)):
                f = damped_cf(mid[:, None] + half * _GL_X[None, :])
                sums += _panel_sums(f, mid, half, k_todo)
            cur = {i: v * half for i, v in zip(todo, sums.tolist())}
            step = {i: abs(v - prev.get(i, math.inf)) for i, v in cur.items()}
            est.update((i, v) for i, v in cur.items() if step[i] < max(_ABS_TOL, _REL_TOL * abs(v)))
            todo, prev, n_panels = [i for i in todo if i not in est], cur, 2 * n_panels
        if todo:
            raise NumericalError(f"quadrature not converged at log-strikes {[ks[i] for i in todo]}"
                                 f": upper={upper}, panels={n_panels // 2}, "
                                 f"last delta={max(step[i] for i in todo):.3e}")
        pending, upper = over, 2.0 * upper
    return [math.exp(-alpha * k) / math.pi * est[i] for i, k in enumerate(ks)]


def _time_values(
    kappa: float, kappa_theta: float, nu: float, v0: float, rho_sv: float,
    T: float, ks: Sequence[float],
) -> np.ndarray:
    """Out-of-the-money time values for unit spot at log-strikes ``ks`` (the
    call for k >= 0, the put for k < 0): the one Fourier pricing kernel."""
    ks = [float(k) for k in ks]
    if not (math.isfinite(T) and T > 0):
        raise InputError(f"T must be positive, got {T}")
    if not all(map(math.isfinite, ks)):
        raise InputError(f"log-strikes must be finite, got {ks}")
    cf = lambda u: _cf_log_return(u, kappa, kappa_theta, nu, v0, rho_sv, T)
    out = np.empty(len(ks))
    for alpha in (_DAMPING_ALPHA, -1.0 - _DAMPING_ALPHA):
        side = [i for i, k in enumerate(ks) if (k >= 0.0) == (alpha > 0.0)]
        if side:
            out[side] = _damped_values(cf, [ks[i] for i in side], alpha)
    return out


def _unit_call(k: float, *cf_args: float) -> float:
    """Call value for unit spot at log-strike k; ``cf_args`` as _time_values."""
    tv = float(_time_values(*cf_args, [k])[0])
    return tv if k >= 0.0 else tv + 1.0 - math.exp(k)


def _leg_args(params: HestonParams, asset: AssetSpec) -> tuple[float, ...]:
    """Kernel arguments (kappa, kappa theta, nu, v0, rho_sv) of one scaled leg."""
    eff = effective_heston(params, asset)
    return eff.kappa, eff.kappa * eff.theta, eff.nu, eff.v0, asset.rho_sv


def _leg_time_values(
    params: HestonParams, asset: AssetSpec, zs: Sequence[float], T: float
) -> np.ndarray:
    """Time values for unit spot of one leg at log-moneyness ``zs``."""
    return _time_values(*_leg_args(params, asset), T, zs)


def _leg_quote(params: HestonParams, asset: AssetSpec, T: float) -> np.ndarray:
    """Read-only time values for unit spot of one leg at the SMILE_GRID_POINTS
    smile knots, then at the first-rung window strikes _QUOTE_WINDOW: the one
    kernel batch that build_smile_grid and measure_smile_observables share,
    kept for the last _QUOTE_MEMO legs (keyed on the kernel's floats, so the
    spot does not split them).  Batching leaves each strike's bits unchanged."""
    return _quote_time_values(*_leg_args(params, asset), T)


@functools.lru_cache(maxsize=_QUOTE_MEMO)
def _quote_time_values(*cf_args: float) -> np.ndarray:
    zs = [*np.linspace(*SMILE_GRID_SPAN, SMILE_GRID_POINTS), *_QUOTE_WINDOW]
    tv = _time_values(*cf_args, zs)
    tv.flags.writeable = False
    return tv


def heston_vanilla_price(
    params: HestonParams, asset: AssetSpec, strike: float, T: float
) -> float:
    """European call (r = 0) on one leg: ``params`` are the shared variance
    parameters, scaled to the leg by ``effective_heston``."""
    if not (np.isfinite(strike) and strike > 0):
        raise InputError(f"strike must be positive, got {strike}")
    k = math.log(strike / asset.s0)
    return asset.s0 * _unit_call(k, *_leg_args(params, asset), T)


def _vols_from_time_values(tvs: Sequence[float], zs: Sequence[float], T: float) -> np.ndarray:
    """Implied vols at log-moneyness ``zs`` from unit-spot time values, one batch."""
    prices = np.add(tvs, [max(1.0 - math.exp(z), 0.0) for z in zs])
    return blackscholes._implied_vols(prices, 0.0, zs, T)


def exchange_option_price(model: TwoAssetModel, T: float) -> float:
    """Exact exchange-option value E(S_T^X - S_T^Y)^+ under the shared-volatility model.

    Under the measure associated with the Y-asset numeraire the ratio
    U = S^X/S^Y is again a Heston asset: the variance drift rate becomes
    kappa - nu lam_Y rho_Y (the level product kappa*theta is unchanged), the
    vol scale is lam = sqrt(lam_X^2 + lam_Y^2 - 2 rho lam_X lam_Y) and the
    spot-vol correlation (lam_X rho_X - lam_Y rho_Y)/lam.  The option is then
    a vanilla call on U struck at 1.  Used as an independent benchmark for the
    Monte Carlo engine.
    """
    if not (np.isfinite(T) and T > 0):
        raise InputError(f"T must be positive, got {T}")
    c = model.corr
    valid, det = validate_correlation(c)
    if not valid:
        raise DomainError(f"correlation structure not PSD (det={det:.6e})")
    h = model.heston
    lx, ly = model.lam_x, model.lam_y
    lam_u = margrabe.convention_gamma(lx, ly, model.rho)
    if lam_u == 0.0:
        return max(model.s0x - model.s0y, 0.0)  # identical legs never cross
    kappa_hat = h.kappa - h.nu * ly * c.rho_y
    rho_u = (lx * c.rho_x - ly * c.rho_y) / lam_u
    rho_u = min(1.0, max(-1.0, rho_u))  # clips only the 1e-12 slack of a valid structure
    k = math.log(model.s0y / model.s0x)
    kappa_theta, v0 = h.kappa * h.theta * lam_u * lam_u, h.v0 * lam_u * lam_u
    return model.s0x * _unit_call(k, kappa_hat, kappa_theta, h.nu * lam_u, v0, rho_u, T)


class Smile:
    """Implied-vol smile of one leg: interpolating vol lookup over log-moneyness.

    Monotone cubic (PCHIP) interpolation between knots, flat extrapolation
    beyond them; strikes are stored as log-moneyness relative to the leg spot.
    """

    def __init__(
        self, asset_id: str, s0: float, T: float,
        log_moneyness: Sequence[float], vols: Sequence[float],
    ):
        z = np.asarray(log_moneyness, dtype=float)
        v = np.asarray(vols, dtype=float)
        if z.ndim != 1 or z.size < 2 or z.size != v.size:
            raise InputError("need at least two (log_moneyness, vol) knots")
        if np.any(np.diff(z) <= 0):
            raise InputError("log-moneyness knots must be strictly increasing")
        if np.any(v <= 0) or not np.all(np.isfinite(v)):
            raise InputError("vols must be positive and finite")
        self.asset_id = asset_id
        self.s0 = float(s0)
        self.T = float(T)
        self.log_moneyness = z
        self.vols = v
        self._interp = PchipInterpolator(z, v, extrapolate=False)

    @property
    def z_bounds(self) -> tuple[float, float]:
        return float(self.log_moneyness[0]), float(self.log_moneyness[-1])

    def vol_at_moneyness(self, z: float) -> float:
        """Implied vol at log-moneyness z = log(K / s0), flat beyond the knots."""
        if not math.isfinite(z):
            raise InputError(f"log-moneyness must be finite, got {z}")
        return float(self._interp(np.clip(z, *self.z_bounds)))


def build_smile(
    params: HestonParams, asset: AssetSpec, T: float, log_strikes: Iterable[float]
) -> list[tuple[float, float]]:
    """Price and invert each absolute log strike; returns sorted
    (log_strike, implied_vol) pairs.  Pricing or inversion failures propagate
    (nothing is skipped silently)."""
    ks = sorted(log_strikes)
    zs = [k - asset.x0 for k in ks]
    tv = _leg_time_values(params, asset, zs, T)
    return list(zip(ks, _vols_from_time_values(tv, zs, T)))


def build_smile_grid(
    params: HestonParams, asset: AssetSpec, T: float, asset_id: str = "X"
) -> Smile:
    """Experiment-grade smile on an even log-moneyness grid with trimmed wings.

    Strikes whose out-of-the-money time value falls below
    ``MIN_TIME_VALUE * s0`` cannot be inverted in float64 and are dropped from
    the contiguous wing (lookups past the kept knots use flat extrapolation).
    """
    zs = np.linspace(SMILE_GRID_SPAN[0], SMILE_GRID_SPAN[1], SMILE_GRID_POINTS)
    tv = _leg_quote(params, asset, T)[:SMILE_GRID_POINTS]
    keep = np.flatnonzero(tv >= MIN_TIME_VALUE)
    if keep.size < 2:
        raise DomainError(
            f"{keep.size} of {SMILE_GRID_POINTS} strikes in "
            f"[{math.exp(SMILE_GRID_SPAN[0]):.3f}, {math.exp(SMILE_GRID_SPAN[1]):.3f}] "
            f"moneyness have resolvable time value at T={T}; a smile needs two"
        )
    zs, tv = zs[keep[0] : keep[-1] + 1], tv[keep[0] : keep[-1] + 1]
    return Smile(asset_id, asset.s0, T, zs, _vols_from_time_values(tv, zs, T))


def measure_smile_observables(
    params: HestonParams, asset_x: AssetSpec, asset_y: AssetSpec, T: float
) -> SmileObservables:
    """Observables for the strike-convention optimum: exact ATM levels plus
    endpoint skews across CONVENTION_SKEW_WINDOW.

    The window shrinks through WINDOW_SHRINK_LADDER (both ends proportionally)
    until every wing read of both legs has time value at least
    MIN_TIME_VALUE of spot and inverts; corners where even the tightest
    window fails raise DomainError.  The first rung reads the legs' quote
    batches (``_leg_quote``).
    """
    last_err: Exception | None = None
    for factor in WINDOW_SHRINK_LADDER:
        zs = (factor * CONVENTION_SKEW_WINDOW[0], 0.0, factor * CONVENTION_SKEW_WINDOW[1])
        tvs = []
        for asset in (asset_x, asset_y):
            tv = (_leg_quote(params, asset, T)[SMILE_GRID_POINTS:]
                  if factor == WINDOW_SHRINK_LADDER[0]
                  else _leg_time_values(params, asset, zs, T))
            if min(tv[0], tv[2]) < MIN_TIME_VALUE:
                break
            tvs.append(tv)
        if len(tvs) < 2:
            continue
        lo, hi = zs[0], zs[2]
        try:  # both legs' (lo, 0, hi) in one batch
            vols = _vols_from_time_values(np.concatenate(tvs), zs * 2, T)
            (dn_x, atm_x, up_x), (dn_y, atm_y, up_y) = vols.reshape(2, 3)
        except (DomainError, NumericalError) as err:
            last_err = err
            continue
        return SmileObservables(
            level_x=atm_x, level_y=atm_y, skew_x=(up_x - dn_x) / (hi - lo),
            skew_y=(up_y - dn_y) / (hi - lo), T=T, window=(lo, hi),
        )
    raise DomainError(
        f"no shrink of window {CONVENTION_SKEW_WINDOW} has resolvable wings at T={T}"
    ) from last_err


def smile_csv_rows(smile: Smile) -> list[dict[str, object]]:
    """Rows for the smile export CSV: asset, T, log_strike, strike, implied_vol."""
    rows, x0 = [], math.log(smile.s0)
    for z, v in zip(smile.log_moneyness, smile.vols):
        k = x0 + float(z)
        rows.append(
            {
                "asset": smile.asset_id,
                "T": smile.T,
                "log_strike": k,
                "strike": math.exp(k),
                "implied_vol": float(v),
            }
        )
    return rows
