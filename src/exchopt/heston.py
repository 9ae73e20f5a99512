"""Semi-analytic Heston pricing, smile construction and smile observables.

Each leg of the two-asset model is itself a Heston asset after rescaling
(``effective_heston``), and the exact exchange price is a vanilla on the ratio
asset, so one Fourier kernel (``_time_values``) prices everything: a batch of
log-strikes for unit spot, each as the damped integral of the characteristic
function on its out-of-the-money side (on the Lewis contour, one batch for the
strikes of every side whose damping moment explodes), accurate near 1e-13 of
spot even for far strikes worth almost nothing.  The characteristic function
over the damping denominator, f, is evaluated in place once per node for the
whole batch, in chunks of whole panels (at most 3072 nodes), out to one cut-off
per side: where |f|, a bound on every strike's integrand, falls below
tolerance.  Each strike reads f panel by panel through its weights and midpoint
phases (``_panel_sums``), which depend on no model and are kept in a bounded
table of (strike, chunk) rows keyed by the chunk's integer panel index, so trig
runs per panel and only on a miss.  The kernel keeps its last few batches,
read-only, so every caller shares one memo.  A leg's smile knots (one
read-only grid) and first-rung convention-window strikes are one batch per
(leg, T) (``_QUOTE_STRIKES``), which the smile and the observables both read;
a leg's kept knots, and both legs' window strikes of a rung, are inverted as
one batch.  The complex log1p is taken in real arithmetic.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import blackscholes, margrabe
from .errors import DomainError, InputError, NumericalError
from .models import AssetSpec, HestonParams, TwoAssetModel

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
# time value below MIN_TIME_VALUE * s0, the inversion's price tolerance, are
# trimmed (lookups beyond the kept knots fall back to flat extrapolation).
SMILE_GRID_SPAN = (math.log(0.7), math.log(1.3))
SMILE_GRID_POINTS = 41
MIN_TIME_VALUE = blackscholes._IV_PRICE_TOL
_SMILE_KNOTS = np.linspace(*SMILE_GRID_SPAN, SMILE_GRID_POINTS)
_SMILE_KNOTS.flags.writeable = False

# Convention skews are measured as the endpoint slope of the smile across the
# quoted moneyness window [0.8, 1.2] (the span the reference study tabulates),
# shrunk proportionally when a parameter corner cannot resolve the wings.
CONVENTION_SKEW_WINDOW = (math.log(0.8), math.log(1.2))
WINDOW_SHRINK_LADDER = (1.0, 0.8, 0.6, 0.45, 0.3, 0.2, 0.12, 0.07, 0.04)
_QUOTE_WINDOW = (CONVENTION_SKEW_WINDOW[0], 0.0, CONVENTION_SKEW_WINDOW[1])
_QUOTE_STRIKES = (*_SMILE_KNOTS.tolist(), *_QUOTE_WINDOW)  # a leg's knots, then its first rung

_DAMPING_ALPHA = 0.75  # e^{alpha k} damping; alpha and -1-alpha share alpha^2+alpha
_LEWIS_ALPHA = -0.5  # where a side's moment explodes: E[S_T^0.5] lies in (0, 1]
_TAIL_TOL = 1e-14
# 7 tail probes on [u, 1.25 u] for each cut-off u = 100 * 2^j up to 2e6, in one batch
_TAIL_NODES = np.ldexp(np.linspace(100.0, 125.0, 7), np.arange(15)[:, None])
_ABS_TOL = 1e-13
_REL_TOL = 1e-11
_GL_NODES = 24
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_NODES)
_MAX_REFINE = 9
_CHUNK_PANELS = 128  # 3072 nodes: no level allocates more at once
_ROW_MEMO = 512  # (strike, chunk) rows of _panel_row: at most about 1.5 MB
_KERNEL_MEMO = 16  # kernel batches kept: a sweep maturity has 10 legs' quote batches


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
    Evaluated on reused buffers, each complex product's operands in their
    textbook order: numpy rounds complex products through fused multiply-adds.
    """
    u = np.asarray(u, dtype=complex)
    q = 1j * u + u * u
    b = np.subtract(kappa, 1j * rho_sv * nu * u)
    d = b * b
    d += nu * nu * q
    np.sqrt(d, out=d)  # principal branch, Re(d) >= 0
    bpd = np.add(b, d, out=b)
    q_bpd = np.divide(q, bpd, out=q)
    g = -nu * nu * q_bpd
    g /= bpd  # (b - d)/(b + d)
    edt = np.exp(np.multiply(d, -T, out=d), out=d)  # signs sit on scalars: no array negation
    one_m_edt = np.subtract(1.0, edt, out=bpd)
    A = kappa_theta * (q_bpd * -T - 2.0 * _clog1p(g * one_m_edt / (1.0 - g)) / (nu * nu))
    minus_D = np.multiply(q_bpd, one_m_edt, out=q)
    minus_D /= np.subtract(1.0, np.multiply(g, edt, out=g), out=g)
    A -= np.multiply(minus_D, v0, out=minus_D)
    return np.exp(A, out=A)


def _panel_sums(f: np.ndarray, first: int, half: float, ks: np.ndarray) -> np.ndarray:
    """Sum of w_g [cos(uk) Re f + sin(uk) Im f] over the Gauss-Legendre nodes
    u = m + half x_g of consecutive panels with midpoints m = half (first + 2i)
    (f has one row of _GL_NODES values per panel), for each log-strike in ``ks``.

    Splitting uk = mk + (half x_g) k, a panel sums to cos(mk) A + sin(mk) B,
    where A + iB = f @ (w e^{-i half x k}): A = Re f (w cos(half x k)) +
    Im f (w sin(half x k)) and B = Im f (w cos(half x k)) - Re f (w sin(half x k)).
    Trig runs per panel and abscissa, only for rows ``_panel_row`` does not hold; each
    strike's stacked f @ w is its own gemv, so its bits do not depend on the rest of ``ks``."""
    rows = [_panel_row(k, half, first, len(f)) for k in map(float, ks)]
    weights, phases = np.array([w for w, _ in rows]), np.array([p for _, p in rows])
    return np.matmul(phases[:, None, :], np.matmul(f, weights[:, :, None]))[:, 0, 0].real


@functools.lru_cache(maxsize=_ROW_MEMO)
def _panel_row(k: float, half: float, first: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only weights w e^{-i half x k} and conjugate phases e^{-imk} of log-strike
    k over the n panels with midpoints m = half (first + 2i): no model enters."""
    hk = k * (half * _GL_X)
    weights = _GL_W * (np.cos(hk) - 1j * np.sin(hk))
    mk = k * (half * np.arange(first, first + 2 * n, 2))
    phases = (np.cos(mk) + 1j * np.sin(mk)).conj()
    weights.flags.writeable = phases.flags.writeable = False
    return weights, phases


def _damped_values(
    cf: Callable[[np.ndarray], np.ndarray], ks: Sequence[float], alpha: float
) -> list[float] | None:
    """Damped-transform values for unit spot at log-strikes ``ks`` of calls
    (alpha > 0), puts (alpha < -1) or calls less the spot (-1 < alpha < 0, the
    Lewis contour): Re(e^{-iuk} f) = cos(uk) Re f + sin(uk) Im f,
    f = cf(u - (alpha+1)i) / den(u) computed once per node for the whole batch,
    on Gauss-Legendre panels over [0, upper], _CHUNK_PANELS panels at a time,
    and read by each strike through its per-panel phases (``_panel_sums``).
    The strikes share the first doubling ``upper`` where |f|, a bound on each
    integrand, is below _TAIL_TOL at every probe; panels then double until a strike's
    estimate moves by less than max(_ABS_TOL, _REL_TOL |est|), the estimate it keeps.
    None where the damping moment E[S_T^(1+alpha)] = f(0) (alpha^2 + alpha) is not real and
    within Jensen's bounds, at least 1 or in (0, 1] for -1 < alpha < 0, as past its
    explosion time (Andersen & Piterbarg, 2007)."""

    def damped_cf(u: np.ndarray) -> np.ndarray:
        den = alpha * alpha + alpha - u * u + 1j * (2.0 * alpha + 1.0) * u
        return cf(u - (alpha + 1.0) * 1j) / den

    k_all, est = np.array(ks, dtype=float), np.empty(len(ks))
    with np.errstate(over="ignore", invalid="ignore"):  # an exploding moment may overflow
        probe = damped_cf(np.append(0.0, _TAIL_NODES))
    moment = complex(probe[0]) * (alpha * alpha + alpha)  # rounding leaves |Im| < 1e-10 Re
    m = moment.real
    within = 0.0 < m <= 1.0 if -1.0 < alpha < 0.0 else 1.0 <= m < math.inf
    if not (within and abs(moment.imag) <= 1e-8 * m):
        return None
    below = np.abs(probe[1:]).reshape(_TAIL_NODES.shape).max(axis=1) <= _TAIL_TOL
    if not below.any():
        raise NumericalError(f"integrand tail above {_TAIL_TOL} out to u={2.0 * _TAIL_NODES[-1, 0]}"
                             f" at log-strikes {k_all.tolist()}")
    upper = float(_TAIL_NODES[np.argmax(below), 0])
    todo, prev = np.arange(len(ks)), np.full(len(ks), math.inf)
    for level in range(_MAX_REFINE + 1):
        n_panels = max(32, int(upper / 4.0)) << level
        half, k_todo = 0.5 * upper / n_panels, k_all[todo]
        n_chunks, sums, xs = -(-n_panels // _CHUNK_PANELS), np.zeros(todo.size), half * _GL_X
        size, extra = divmod(n_panels, n_chunks)
        for c in range(n_chunks):  # as even as possible, the first `extra` one panel longer
            first = 2 * (c * size + min(c, extra)) + 1  # the chunk's first midpoint is first * half
            mid = half * np.arange(first, first + 2 * (size + (c < extra)), 2)
            f = damped_cf(mid[:, None] + xs[None, :])
            sums += _panel_sums(f, first, half, k_todo)
        cur = sums * half
        step = np.abs(cur - prev)
        done = step < np.maximum(_ABS_TOL, _REL_TOL * np.abs(cur))
        est[todo[done]] = cur[done]
        todo, prev, step = todo[~done], cur[~done], step[~done]
        if not todo.size:
            return [math.exp(-alpha * k) / math.pi * e for k, e in zip(ks, est.tolist())]
    raise NumericalError(f"quadrature not converged at log-strikes {k_all[todo].tolist()}"
                         f": upper={upper}, panels={n_panels}, last delta={step.max():.3e}")


@functools.lru_cache(maxsize=_KERNEL_MEMO)
def _time_values(
    kappa: float, kappa_theta: float, nu: float, v0: float, rho_sv: float,
    T: float, ks: tuple[float, ...],
) -> np.ndarray:
    """Read-only out-of-the-money time values for unit spot at log-strikes ``ks``
    (the call for k >= 0, the put for k < 0): the one Fourier pricing kernel,
    kept for the last _KERNEL_MEMO batches (keyed on the kernel's floats, so a
    leg's spot does not split them).  Each side integrates on its own damping
    contour; the strikes of a side whose damping moment explodes, or whose
    quadrature fails to converge, are priced in one batch on the Lewis contour,
    whose moment stays in (0, 1].  Batching leaves each strike's bits unchanged."""
    ks = [float(k) for k in ks]
    if not (math.isfinite(T) and T > 0):
        raise InputError(f"T must be positive, got {T}")
    if not all(map(math.isfinite, ks)):
        raise InputError(f"log-strikes must be finite, got {ks}")
    cf = lambda u: _cf_log_return(u, kappa, kappa_theta, nu, v0, rho_sv, T)
    out, lewis = np.empty(len(ks)), []
    for alpha in (_DAMPING_ALPHA, -1.0 - _DAMPING_ALPHA):
        side = [i for i, k in enumerate(ks) if (k >= 0.0) == (alpha > 0.0)]
        if not side:
            continue
        try:
            tv = _damped_values(cf, [ks[i] for i in side], alpha)
        except NumericalError:  # as next to the moment's explosion: the Lewis contour
            tv = None
        if tv is None:
            lewis += side
        else:
            out[side] = tv
    if lewis:
        lewis.sort()  # input order
        lewis_ks = [ks[i] for i in lewis]
        tv = _damped_values(cf, lewis_ks, _LEWIS_ALPHA)
        if tv is None:
            raise NumericalError(
                f"every damping moment explodes at kappa={kappa}, kappa_theta={kappa_theta}, "
                f"nu={nu}, v0={v0}, rho_sv={rho_sv}, T={T}")
        # C - 1 plus min(1, e^k): the call for k >= 0, the put (parity) below
        out[lewis] = [v + min(1.0, math.exp(k)) for k, v in zip(lewis_ks, tv)]
    np.maximum(out, 0.0, out=out)  # far out of the money, quadrature noise straddles 0
    out.flags.writeable = False
    return out


def _unit_call(k: float, *cf_args: float) -> float:
    """Call value for unit spot at log-strike k; ``cf_args`` as _time_values."""
    tv = float(_time_values(*cf_args, (k,))[0])
    return tv if k >= 0.0 else tv + 1.0 - math.exp(k)


def _leg_args(params: HestonParams, asset: AssetSpec) -> tuple[float, ...]:
    """Kernel arguments (kappa, kappa theta, nu, v0, rho_sv) of one scaled leg."""
    eff = effective_heston(params, asset)
    return eff.kappa, eff.kappa * eff.theta, eff.nu, eff.v0, asset.rho_sv


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


def _pchip_pieces(x: np.ndarray, y: np.ndarray) -> list[list[float]]:
    """[x_i, c0, c1, c2, c3] of each interval [x_i, x_i+1), coefficients highest
    power first, of the monotone cubic through (x, y): SciPy 1.17's
    ``PchipInterpolator`` step by step, so with its bits.

    Knot slopes: the weighted harmonic mean of the neighbouring secants m
    (Fritsch & Carlson, 1980), 0 where they change sign or either is 0; at
    each end the one-sided three-point rule (Moler's pchiptx), 0 where its
    sign differs from the end secant's and 3 m where the secants change sign
    and it exceeds that; two knots make a line.  The coefficients are
    ``CubicHermiteSpline``'s [t/h, (m - d_i)/h - t, d_i, y_i] with
    t = (d_i + d_i+1 - 2 m)/h."""
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.empty_like(y)
    if x.size == 2:
        d[:] = m[0]
    else:
        w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
        sign = np.sign(m)
        harmonic = (sign[1:] == sign[:-1]) & (m[1:] != 0.0) & (m[:-1] != 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):  # at zero secants, discarded
            d[1:-1] = np.where(harmonic, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)), 0.0)
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        end = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3.0 * np.abs(m0))
        d[[0, -1]] = np.where(np.sign(end) != np.sign(m0), 0.0,
                              np.where(overshoot, 3.0 * m0, end))
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    return np.stack((x[:-1], t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]), axis=1).tolist()


class Smile:
    """Implied-vol smile of one leg: interpolating vol lookup over log-moneyness.

    Monotone cubic (PCHIP, ``_pchip_pieces``) interpolation between
    knots, flat extrapolation beyond them; strikes are stored as log-moneyness
    relative to the leg spot.  Reads have the bits of SciPy's
    ``PchipInterpolator`` at the knot-clipped point.
    """

    def __init__(
        self, asset_id: str, s0: float, T: float,
        log_moneyness: Sequence[float], vols: Sequence[float],
    ):
        z = np.array(log_moneyness, dtype=float)  # a copy: no smile shares _SMILE_KNOTS
        v = np.asarray(vols, dtype=float)
        if z.ndim != 1 or z.size < 2 or z.size != v.size:
            raise InputError("need at least two (log_moneyness, vol) knots")
        if not np.isfinite(z).all():
            raise InputError("log-moneyness knots must be finite")
        if np.any(np.diff(z) <= 0):
            raise InputError("log-moneyness knots must be strictly increasing")
        if np.any(v <= 0) or not np.all(np.isfinite(v)):
            raise InputError("vols must be positive and finite")
        s0, T = float(s0), float(T)
        if not (math.isfinite(s0) and s0 > 0):
            raise InputError(f"s0 must be positive, got {s0}")
        if not (math.isfinite(T) and T > 0):
            raise InputError(f"T must be positive, got {T}")
        self.asset_id = asset_id
        self.s0 = s0
        self.T = T
        self.log_moneyness = z
        self.vols = v
        self._knots = z.tolist()
        self._pieces = _pchip_pieces(z, v)

    @property
    def z_bounds(self) -> tuple[float, float]:
        return float(self.log_moneyness[0]), float(self.log_moneyness[-1])

    def vol_at_moneyness(self, z: float | np.ndarray) -> float | np.ndarray:
        """Implied vol at log-moneyness z = log(K / s0), flat beyond the knots;
        an array of z gives the array of its scalar reads."""
        if np.ndim(z):
            z = np.asarray(z, dtype=float)
            return np.fromiter(map(self._read, z.ravel().tolist()), float, z.size).reshape(z.shape)
        return self._read(float(z))

    def _read(self, z: float) -> float:
        """SciPy's ``PPoly`` read of the cubic at z clipped to the knots: on the
        interval x_i <= z < x_i+1 (the last one closed), c3 + c2 s + c1 s^2 +
        c0 s^2 s with s = z - x_i, summed in that order."""
        if not math.isfinite(z):
            raise InputError(f"log-moneyness must be finite, got {z}")
        knots = self._knots
        if z < knots[0]:
            z = knots[0]
        elif z > knots[-1]:
            z = knots[-1]
        x, c0, c1, c2, c3 = self._pieces[bisect.bisect_right(knots, z, hi=len(knots) - 1) - 1]
        s = z - x
        ss = s * s
        return c3 + c2 * s + c1 * ss + c0 * (ss * s)


def build_smile(
    params: HestonParams, asset: AssetSpec, T: float, log_strikes: Iterable[float]
) -> list[tuple[float, float]]:
    """Price and invert each absolute log strike; returns sorted (log_strike,
    implied_vol) pairs.  Pricing or inversion failures propagate, and a time value
    below MIN_TIME_VALUE of spot raises DomainError (nothing is skipped silently)."""
    ks = sorted(log_strikes)
    zs = [k - asset.x0 for k in ks]
    tv = _time_values(*_leg_args(params, asset), T, tuple(zs))
    low = [k for k, t in zip(ks, tv) if t < MIN_TIME_VALUE]
    if low:
        raise DomainError(f"time value below {MIN_TIME_VALUE} of spot at log strikes {low}, T={T}")
    return list(zip(ks, _vols_from_time_values(tv, zs, T)))


def build_smile_grid(
    params: HestonParams, asset: AssetSpec, T: float, asset_id: str = "X"
) -> Smile:
    """Experiment-grade smile on an even log-moneyness grid with trimmed wings.

    Strikes whose out-of-the-money time value falls below
    ``MIN_TIME_VALUE * s0``, the inversion's tolerance, are dropped from
    the contiguous wing (lookups past the kept knots use flat extrapolation).
    """
    tv = _time_values(*_leg_args(params, asset), T, _QUOTE_STRIKES)[:SMILE_GRID_POINTS]
    keep = np.flatnonzero(tv >= MIN_TIME_VALUE)
    if keep.size < 2:
        raise DomainError(
            f"{keep.size} of {SMILE_GRID_POINTS} strikes in "
            f"[{math.exp(SMILE_GRID_SPAN[0]):.3f}, {math.exp(SMILE_GRID_SPAN[1]):.3f}] "
            f"moneyness have resolvable time value at T={T}; a smile needs two"
        )
    zs, tv = _SMILE_KNOTS[keep[0] : keep[-1] + 1], tv[keep[0] : keep[-1] + 1]
    return Smile(asset_id, asset.s0, T, zs, _vols_from_time_values(tv, zs, T))


def measure_smile_observables(
    params: HestonParams, asset_x: AssetSpec, asset_y: AssetSpec, T: float
) -> SmileObservables:
    """Observables for the strike-convention optimum: exact ATM levels plus
    endpoint skews across CONVENTION_SKEW_WINDOW.

    The window shrinks through WINDOW_SHRINK_LADDER (both ends proportionally)
    until every wing read of both legs has time value at least
    MIN_TIME_VALUE of spot and inverts; corners where even the tightest
    window fails raise DomainError.  The first rung reads the last three
    strikes of the legs' quote batches (_QUOTE_STRIKES), a later rung its own.
    """
    last_err: Exception | None = None
    for factor in WINDOW_SHRINK_LADDER:
        zs = (factor * CONVENTION_SKEW_WINDOW[0], 0.0, factor * CONVENTION_SKEW_WINDOW[1])
        batch = _QUOTE_STRIKES if zs == _QUOTE_WINDOW else zs
        tvs = []
        for asset in (asset_x, asset_y):
            tv = _time_values(*_leg_args(params, asset), T, batch)[-3:]
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
