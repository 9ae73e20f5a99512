import hashlib
import inspect
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from exchopt import blackscholes, heston
from exchopt.blackscholes import bs_price, bs_vega, implied_vol
from exchopt.errors import DomainError, InputError, NumericalError
from exchopt.experiments import GridSpec, reference_case_model
from exchopt.margrabe import exchange_implied_vol, margrabe_price
from exchopt.models import (
    AssetSpec, CorrelationStructure, HestonParams, TwoAssetModel, validate_correlation,
)
from test_heston import leg_models

X100 = math.log(100.0)

# frozen with a 50-digit erfc oracle: 100 (2 N(0.1) - 1)
ATM_PRICE_S02_T1 = 7.9655674554057962931
# frozen: 100 phi(0.1) sqrt(1)
ATM_VEGA_S02_T1 = 39.695254747701176551
# frozen: BS(x=ln 100, k=x+0.5, sigma=1.3, tau=0.05)
DEEP_OTM_PRICE = 0.64478659121506750759


def bisect_iv(price, x, k, T, lo=1e-8, hi=5.0, tol=1e-12):
    """Bisection-only inversion oracle, independent of the Newton path."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if bs_price(x, k, mid, T) > price:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def checked_implied_vol(price, x, k, T, tol=1e-12):
    """The Newton/bracket loop of implied_vol, one price at a time on the
    public, argument-checking bs_price and bs_vega: the reference for
    implied_vol's loop."""
    lo, hi = 1e-6, 5.0
    while bs_price(x, k, hi, T) < price:
        hi *= 2.0
    sigma = 0.5 if lo < 0.5 < hi else 0.5 * (lo + hi)
    for _ in range(100):
        diff = bs_price(x, k, sigma, T) - price
        if abs(diff) <= tol * math.exp(x):
            return sigma
        if diff > 0.0:
            hi = sigma
        else:
            lo = sigma
        v = bs_vega(x, k, sigma, T)
        newton = sigma - diff / v if v > 0.0 else math.inf
        sigma = newton if lo < newton < hi else 0.5 * (lo + hi)
        if hi - lo < 1e-14:
            return 0.5 * (lo + hi)
    raise AssertionError("reference loop did not converge")


@pytest.mark.parametrize("fn, params", [
    (bs_price, ["x", "k", "sigma", "T"]),
    (bs_vega, ["x", "k", "sigma", "T"]),
    (implied_vol, ["price", "x", "k", "T"]),
])
def test_signatures_take_time_to_expiry(fn, params):
    assert list(inspect.signature(fn).parameters) == params


class TestBsPrice:
    def test_atm_zero_vol_worthless(self):
        assert bs_price(X100, X100, 1e-12, 1.0) < 1e-9
        assert bs_price(X100, X100, 0.0, 1.0) == 0.0

    def test_zero_strike_equals_spot(self):
        assert bs_price(X100, X100 - 45.0, 0.3, 1.0) == pytest.approx(100.0, abs=1e-10)

    def test_atm_against_high_precision_oracle(self):
        assert bs_price(X100, X100, 0.2, 1.0) == pytest.approx(
            ATM_PRICE_S02_T1, abs=1e-12
        )

    def test_expiry_returns_intrinsic(self):
        assert bs_price(X100, math.log(90.0), 0.2, 0.0) == pytest.approx(10.0)
        assert bs_price(X100, math.log(110.0), 0.2, 0.0) == 0.0

    def test_negative_time_to_expiry_rejected(self):
        with pytest.raises(InputError):
            bs_price(X100, X100, 0.2, -1e-9)
        with pytest.raises(InputError):
            bs_vega(X100, X100, 0.2, -1e-9)

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            bs_price(math.nan, X100, 0.2, 1.0)
        with pytest.raises(InputError):
            bs_price(X100, X100, -0.1, 1.0)

    def test_monotone_in_sigma(self, rng):
        for _ in range(200):
            x = X100 + rng.uniform(-1, 1)
            k = x + rng.uniform(-1, 1)
            T = rng.uniform(0.01, 2.0)
            s1, s2 = sorted(rng.uniform(0.01, 3.0, size=2))
            if s2 - s1 < 1e-6:
                continue
            assert bs_price(x, k, s1, T) < bs_price(x, k, s2, T)

    def test_bounded_by_intrinsic_and_spot(self, rng):
        for _ in range(200):
            x = X100 + rng.uniform(-1, 1)
            k = x + rng.uniform(-1, 1)
            p = bs_price(x, k, rng.uniform(0.01, 3.0), rng.uniform(0.01, 2.0))
            assert max(math.exp(x) - math.exp(k), 0.0) <= p < math.exp(x)


class TestBsVega:
    def test_zero_at_expiry(self):
        assert bs_vega(X100, X100, 0.2, 0.0) == 0.0

    def test_zero_vol_is_zero_and_negative_vol_refused(self):
        assert bs_vega(X100, X100, 0.0, 1.0) == 0.0
        for fn in (bs_price, bs_vega):
            with pytest.raises(InputError, match=r"^negative sigma=-0\.2$"):
                fn(X100, X100, -0.2, 1.0)

    def test_deep_itm_vanishes(self):
        assert bs_vega(X100, X100 - 4.0, 0.2, 1.0) < 1e-10

    def test_atm_closed_form(self):
        assert bs_vega(X100, X100, 0.2, 1.0) == pytest.approx(
            ATM_VEGA_S02_T1, abs=1e-12
        )

    def test_matches_finite_difference(self, rng):
        for _ in range(50):
            x = X100 + rng.uniform(-0.5, 0.5)
            k = x + rng.uniform(-0.5, 0.5)
            T = rng.uniform(0.05, 2.0)
            s = rng.uniform(0.05, 1.5)
            h = 1e-6
            fd = (bs_price(x, k, s + h, T) - bs_price(x, k, s - h, T)) / (2 * h)
            v = bs_vega(x, k, s, T)
            if v > 10.0:
                assert v == pytest.approx(fd, rel=1e-8)
            else:
                # FD round-off (~eps * price / h ~ 1e-8) dominates small vegas
                assert v == pytest.approx(fd, rel=1e-8, abs=1e-7)


class TestImpliedVol:
    def test_round_trip(self):
        p = bs_price(X100, X100 + 0.1, 0.15, 0.5)
        assert implied_vol(p, X100, X100 + 0.1, 0.5) == pytest.approx(0.15, abs=1e-8)

    def test_expiry_rejected(self):
        with pytest.raises(DomainError, match=r"^cannot invert at expiry: T=0\.0 <= 0$"):
            implied_vol(5.0, X100, X100, 0.0)

    def test_intrinsic_price_rejected(self):
        bounds = r"outside arbitrage bounds \(10\.000000000000043, 100\.00000000000004\)$"
        with pytest.raises(DomainError, match=r"^price 10\.0 " + bounds):
            implied_vol(10.0, X100, math.log(90.0), 1.0)
        with pytest.raises(DomainError, match=r"^price 100\.00000000000004 " + bounds):
            implied_vol(math.exp(X100), X100, math.log(90.0), 1.0)

    def test_deep_otm_short_dated_vs_bisection_oracle(self):
        x, k, T = X100, X100 + 0.5, 0.05
        p = bs_price(x, k, 1.3, T)
        assert p == pytest.approx(DEEP_OTM_PRICE, abs=1e-12)
        newton = implied_vol(p, x, k, T)
        oracle = bisect_iv(p, x, k, T)
        assert newton == pytest.approx(1.3, abs=1e-6)
        assert newton == pytest.approx(oracle, abs=1e-6)

    def test_round_trip_over_domain(self, rng):
        checked = 0
        while checked < 300:
            x = X100 + rng.uniform(-0.3, 0.3)
            k = x + rng.uniform(-1.0, 1.0)
            T = rng.uniform(0.01, 2.0)
            sigma = rng.uniform(0.01, 3.0)
            # the 1e-12 e^x price tolerance resolves sigma to 1e-8 only where
            # vega >= 1e-4 e^x; below that the quote is not representable
            if bs_vega(x, k, sigma, T) < 1e-4 * math.exp(x):
                continue
            p = bs_price(x, k, sigma, T)
            checked += 1
            assert implied_vol(p, x, k, T) == pytest.approx(sigma, abs=1e-8)

    def test_high_vol_bracket_expands(self):
        p = bs_price(X100, X100, 7.0, 1.0)
        assert implied_vol(p, X100, X100, 1.0) == pytest.approx(7.0, abs=1e-7)

    @pytest.mark.parametrize("case", [1, 2])
    @pytest.mark.parametrize("T", [0.05, 1.0])
    def test_bit_identical_to_checked_loop_on_smile_knots(self, case, T):
        model = reference_case_model(case)
        for asset in (model.asset_x, model.asset_y):
            smile = heston.build_smile_grid(model.heston, asset, T)
            args = heston._leg_args(model.heston, asset)
            tvs = heston._time_values(*args, T, tuple(smile.log_moneyness.tolist()))
            for z, tv, vol in zip(smile.log_moneyness, tvs, smile.vols):
                price = tv + max(1.0 - math.exp(z), 0.0)
                got = implied_vol(price, 0.0, z, T)
                assert got == checked_implied_vol(price, 0.0, z, T)
                assert got == vol


def overflow_message(name):
    return f"^{re.escape(f'{name}=800.0 too large: e^{name} overflows a float')}$"


# e^800 overflows a float: every entry point refuses x or k = 800 with an
# InputError naming the argument (margrabe's y fills the strike slot k),
# at zero vol and at expiry too
@pytest.mark.parametrize("fn, args", [
    (bs_price, (0.2, 1.0)), (bs_price, (0.0, 1.0)), (bs_price, (0.2, 0.0)),
    (bs_vega, (0.2, 1.0)), (bs_vega, (0.0, 1.0)), (bs_vega, (0.2, 0.0)),
    (margrabe_price, (0.2, 1.0)),
    (lambda x, k, T: implied_vol(0.5, x, k, T), (1.0,)),
    (lambda x, k, T: exchange_implied_vol(0.5, x, k, T), (1.0,)),
], ids=["bs_price", "bs_price-zero-vol", "bs_price-expiry", "bs_vega", "bs_vega-zero-vol",
        "bs_vega-expiry", "margrabe_price", "implied_vol", "exchange_implied_vol"])
@pytest.mark.parametrize("name", ["x", "k"])
def test_overflowing_log_argument_refused(fn, args, name):
    x, k = (800.0, 0.0) if name == "x" else (0.0, 800.0)
    with pytest.raises(InputError, match=overflow_message(name)):
        fn(x, k, *args)


def checked_loop(prices, x, ks, T, tol=1e-12):
    """checked_implied_vol one element at a time."""
    return [checked_implied_vol(p, x, k, T, tol) for p, k in zip(prices, ks)]


def raised(fn, *args):
    """(type, message) of the error fn raises, or None with its value."""
    try:
        return None, fn(*args)
    except (InputError, DomainError, NumericalError) as err:
        return (type(err), str(err)), None


class TestInversionLoop:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @leg_models
    def test_smile_vols_equal_the_checked_loop(self, kappa, theta, nu, sigma0, lam, rho_sv, T):
        # each drawn leg at three fixed maturities (the drawn T is not used)
        params = HestonParams(kappa=kappa, theta=theta, nu=nu, sigma0=sigma0)
        asset = AssetSpec(lam=lam, rho_sv=rho_sv, s0=100.0)
        for T in (0.005, 0.05, 1.0):
            smile = heston.build_smile_grid(params, asset, T)
            args = heston._leg_args(params, asset)
            tvs = heston._time_values(*args, T, tuple(smile.log_moneyness.tolist()))
            for z, tv, vol in zip(smile.log_moneyness, tvs, smile.vols):
                assert vol == checked_implied_vol(tv + max(1.0 - math.exp(z), 0.0), 0.0, z, T)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(x=st.floats(-1.0, 6.0), T=st.floats(1e-4, 5.0), dk=st.floats(-1.5, 1.5),
           sigma=st.floats(1e-3, 10.0))
    def test_equals_the_checked_loop(self, x, T, dk, sigma):
        # wherever the price inverts, with the checked loop's bits
        price = bs_price(x, x + dk, sigma, T)
        err, vol = raised(implied_vol, price, x, x + dk, T)
        if err is None:
            assert vol == checked_implied_vol(price, x, x + dk, T)

    def test_bracket_doubling_and_collapse_exits(self, monkeypatch):
        # deep out of the money and short-dated at vols above the starting
        # bracket [1e-6, 5]: the vega at the seed is 0, so the first step
        # bisects up to the doubled upper end
        T, ks = 0.01, np.repeat([0.3, 0.4, 0.5], 5).tolist()
        prices = [bs_price(0.0, k, s, T) for k, s in zip(ks, [6.0, 7.0, 9.0, 12.0, 20.0] * 3)]
        got = [implied_vol(p, 0.0, k, T) for p, k in zip(prices, ks)]
        assert got == checked_loop(prices, 0.0, ks, T)
        # with the price tolerance at 1e-16 of spot these knots leave through
        # the collapsed bracket just after a Newton step inside it, at a
        # midpoint whose price misses by more than the tolerance
        monkeypatch.setattr(blackscholes, "_IV_PRICE_TOL", 1e-16)
        T, ks = 1.0, [0.28, 0.24, 0.38, 0.48]
        prices = [bs_price(0.0, k, s, T) for k, s in zip(ks, [0.76, 0.83, 1.43, 1.14])]
        got = [implied_vol(p, 0.0, k, T) for p, k in zip(prices, ks)]
        assert got == checked_loop(prices, 0.0, ks, T, tol=1e-16)
        assert all(abs(bs_price(0.0, k, v, T) - p) > 1e-16 for k, v, p in zip(ks, got, prices))

    @pytest.mark.parametrize("price, error, message", [
        (math.nan, InputError, "non-finite price=nan"),
        (0.0, DomainError, "price 0.0 outside arbitrage bounds (0.0, 1.0)"),
        (1.0, DomainError, "price 1.0 outside arbitrage bounds (0.0, 1.0)"),
        (1e-10, DomainError, "price 1e-10 below sigma=1e-06 value"),
    ], ids=["nan", "intrinsic", "spot", "below_lo"])
    def test_refused_price_raises_its_own_error(self, price, error, message):
        # at the money, where 1e-10 lies below the sigma = 1e-6 price 9e-8
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            implied_vol(price, 0.0, 0.0, 0.05)

    def test_iteration_cap_raises_with_its_bracket(self, monkeypatch):
        # at zero price tolerance a deep out-of-the-money price runs into the
        # iteration cap
        monkeypatch.setattr(blackscholes, "_IV_PRICE_TOL", 0.0)
        T, k = 0.05, 0.2
        message = (
            "implied vol did not converge after 100 iterations (price=4.971561606701643e-75, "
            "x=0.0, k=0.2, T=0.05, bracket=[1e-06, 0.06392256632842405])"
        )
        with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
            implied_vol(bs_price(0.0, k, 0.05, T), 0.0, k, T)

    def test_unattainable_price_raises(self):
        # half the spot at the money and T 1e-12 needs sigma above the 1e3 cap:
        # the upper end doubles past it
        with pytest.raises(DomainError, match=r"^price 0\.5 not attainable below sigma=1280\.0$"):
            implied_vol(0.5, 0.0, 0.0, 1e-12)


# sha256 of the inversion's bits: implied_vol on the quote batches (each
# leg's kept smile knots, then both legs' first-rung window strikes) of both
# reference cases at T 0.05, 0.25 and 1.0, then implied_vol on the exact
# exchange prices of 200 seeded paper-grid points whose time value is at least
# a cent; a change that alters these bits records the new digest and says why.
# Re-pinned when the normal CDF became 0.5 erfc(-d/sqrt 2) and the vega density
# math.exp: 420 of 717 vols moved, by at most 7.1e-11 (a deep-wing knot, whose
# vol the 1e-12 price tolerance fixes only to 1e-12/vega).  Re-pinned when the
# kernel's first panel of each level became two panels of half its width: 490
# of 717 vols moved, by at most 5.4e-9 (a T 0.05 wing knot at z -0.217 whose
# vega is 1.1e-8, so the price tolerance fixes its vol only to 9e-5)
INVERSION_DIGEST = "4bc9d9041149062a53ed2d98165b3914454fb39e1ef24a6b0234e49a4962d1d9"


@pytest.fixture(scope="module")
def pinned_inversions():
    """(price, x, k, T, vol) of every inversion INVERSION_DIGEST pins, in order."""
    out, n = [], heston.SMILE_GRID_POINTS
    for case in (1, 2):
        m = reference_case_model(case)
        for T in (0.05, 0.25, 1.0):
            quotes = [
                heston._time_values(*heston._leg_args(m.heston, asset), T, heston._QUOTE_STRIKES)
                for asset in (m.asset_x, m.asset_y)
            ]
            batches = []
            for quote in quotes:
                kept = np.flatnonzero(quote[:n] >= heston.MIN_TIME_VALUE)
                knots = slice(kept[0], kept[-1] + 1)
                batches.append((quote[knots], heston._SMILE_KNOTS[knots]))
            batches.append((np.concatenate([q[n:] for q in quotes]), heston._QUOTE_WINDOW * 2))
            for tv, zs in batches:
                for t, z in zip(tv.tolist(), map(float, zs)):
                    price = t + max(1.0 - math.exp(z), 0.0)
                    out.append((price, 0.0, z, T, implied_vol(price, 0.0, z, T)))
    spec, rng, inverted = GridSpec(), np.random.default_rng(24), 0
    triples = [
        (rho, rx, ry) for rho in spec.rho_list for rx in spec.rho_x_list for ry in spec.rho_y_list
        if validate_correlation(CorrelationStructure(rho, rx, ry))[0]
    ]
    while inverted < 200:
        T = spec.T_list[rng.integers(len(spec.T_list))]
        s0y = spec.s0y_list[rng.integers(len(spec.s0y_list))]
        model = TwoAssetModel(
            heston=spec.heston, lam_x=spec.lam_x, lam_y=spec.lam_y, s0x=spec.s0x, s0y=s0y,
            corr=CorrelationStructure(*triples[rng.integers(len(triples))]),
        )
        price = heston.exchange_option_price(model, T)
        if price - max(spec.s0x - s0y, 0.0) >= 0.01:
            x, k = math.log(spec.s0x), math.log(s0y)
            out.append((price, x, k, T, implied_vol(price, x, k, T)))
            inverted += 1
    return out


def test_inversion_bits_pinned(pinned_inversions):
    vols = np.array([vol for *_, vol in pinned_inversions])
    assert hashlib.sha256(vols.tobytes()).hexdigest() == INVERSION_DIGEST


def mp_bs_price(x, k, sigma, T):
    """Black-Scholes call at 50 digits from mpmath's own normal CDF."""
    with mpmath.workdps(50):
        x, k, s = mpmath.mpf(x), mpmath.mpf(k), mpmath.mpf(sigma) * mpmath.sqrt(T)
        d1 = (x - k) / s + s / 2
        return mpmath.exp(x) * mpmath.ncdf(d1) - mpmath.exp(k) * mpmath.ncdf(d1 - s)


def test_pinned_vols_reprice_at_50_digits(pinned_inversions):
    # independent of the library's CDF (perfbench's gate prices with math.erfc
    # too): every pinned vol reprices its price within the inversion's 1e-12
    # of spot
    misses = [
        (price, x, k, T, vol) for price, x, k, T, vol in pinned_inversions
        if abs(mp_bs_price(x, k, vol, T) - price) > 1e-12 * math.exp(x)
    ]
    assert len(pinned_inversions) == 717
    assert misses == []


def ulp_errors(cdf, ds):
    """|cdf(d) - N(d)| in units in the last place of N(d), N at 50 digits."""
    with mpmath.workdps(50):
        exact = [mpmath.ncdf(d) for d in ds]
        return [float(abs(cdf(d) - e)) / math.ulp(float(e)) for d, e in zip(ds, exact)]


@pytest.mark.parametrize("lo, hi", [(-37.0, -10.0), (-10.0, -1.0), (-1.0, 1.0), (1.0, 8.2)])
def test_normal_cdf_against_50_digits(lo, hi):
    # 2000 seeded draws a band; SciPy's ndtr is the reference the CDF replaced.
    # On [-1, 1] the rounding of -d/sqrt 2 is amplified near d = -1: the worst
    # seen over 60 000 draws there is 2.12 ulp, so the bound is 2.5, not 2
    ds = np.random.default_rng(29).uniform(lo, hi, 2000).tolist()
    ours = max(ulp_errors(blackscholes._ncdf, ds))
    scipy_ndtr = max(ulp_errors(lambda d: float(ndtr(d)), ds))
    if lo >= -1.0:
        assert ours <= 2.5
    assert ours <= scipy_ndtr
