import hashlib
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exchopt import blackscholes, heston
from exchopt.blackscholes import _implied_vols, bs_price, bs_vega, implied_vol
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
    public, argument-checking bs_price and bs_vega: the reference for the
    loop that implied_vol and the batch inversion share."""
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
    """checked_implied_vol one element at a time: the reference for _implied_vols."""
    return [checked_implied_vol(p, x, k, T, tol) for p, k in zip(prices, ks)]


def bad_price(kind, x, k, T):
    return {
        "nan": math.nan,
        "intrinsic": max(math.exp(x) - math.exp(k), 0.0),
        "spot": math.exp(x),
        "below_lo": bs_price(x, k, 1e-7, T),  # at the money, below the sigma = 1e-6 price
    }[kind]


def raised(fn, *args):
    """(type, message) of the error fn raises, or None with its value."""
    try:
        return None, fn(*args)
    except (InputError, DomainError, NumericalError) as err:
        return (type(err), str(err)), None


class TestBatchImpliedVols:
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
    @given(
        x=st.floats(-1.0, 6.0),
        T=st.floats(1e-4, 5.0),
        legs=st.integers(1, 50).flatmap(lambda n: st.lists(
            st.tuples(st.floats(-1.5, 1.5), st.floats(1e-3, 10.0)), min_size=n, max_size=n)),
        bad=st.lists(st.tuples(
            st.integers(0, 49), st.sampled_from(("nan", "intrinsic", "spot", "below_lo"))), max_size=3),
    )
    def test_batch_equals_each_element_alone(self, x, T, legs, bad):
        # every valid element carries the checked loop's bits, and the batch
        # raises the lowest failing element's error as that element raises it
        ks = [x + dk for dk, _ in legs]
        prices = [bs_price(x, k, sigma, T) for k, (_, sigma) in zip(ks, legs)]
        for i, kind in bad:
            if i < len(ks):
                if kind == "below_lo":
                    ks[i] = x
                prices[i] = bad_price(kind, x, ks[i], T)
        alone = [raised(implied_vol, p, x, k, T) for p, k in zip(prices, ks)]
        for (err, vol), p, k in zip(alone, prices, ks):
            if err is None:
                assert vol == checked_implied_vol(p, x, k, T)
        first = next((err for err, _ in alone if err), None)
        err, vols = raised(_implied_vols, prices, x, ks, T)
        assert err == first
        if first is None:
            assert vols.tolist() == [vol for _, vol in alone]

    def test_bracket_doubling_and_collapse_exits(self, monkeypatch):
        # deep out of the money and short-dated at vols above the starting
        # bracket [1e-6, 5]: the vega at the seed is 0, so the first step
        # bisects up to the doubled upper end
        T, ks = 0.01, np.repeat([0.3, 0.4, 0.5], 5)
        prices = [bs_price(0.0, k, s, T) for k, s in zip(ks, [6.0, 7.0, 9.0, 12.0, 20.0] * 3)]
        assert _implied_vols(prices, 0.0, ks, T).tolist() == checked_loop(prices, 0.0, ks, T)
        # with the price tolerance at 1e-16 of spot these knots leave through
        # the collapsed bracket just after a Newton step inside it, at a
        # midpoint whose price misses by more than the tolerance
        monkeypatch.setattr(blackscholes, "_IV_PRICE_TOL", 1e-16)
        T, ks = 1.0, [0.3, 0.24, 0.38, 0.48]
        prices = [bs_price(0.0, k, s, T) for k, s in zip(ks, [0.23, 0.44, 0.53, 1.14])]
        got = _implied_vols(prices, 0.0, ks, T)
        assert got.tolist() == checked_loop(prices, 0.0, ks, T, tol=1e-16)
        assert all(abs(bs_price(0.0, k, v, T) - p) > 1e-16 for k, v, p in zip(ks, got, prices))

    @pytest.mark.parametrize("i", [0, 2, 5])
    @pytest.mark.parametrize("bad, error, message", [
        ("nan", InputError, "non-finite price=nan"),
        ("intrinsic", DomainError, "price 0.0 outside arbitrage bounds (0.0, 1.0)"),
        ("spot", DomainError, "price 1.0 outside arbitrage bounds (0.0, 1.0)"),
        ("below_lo", DomainError, "price 1e-10 below sigma=1e-06 value"),
    ])
    def test_first_failure_raises_its_own_error(self, i, bad, error, message):
        # at the money, where 1e-10 lies below the sigma = 1e-6 price 9e-8
        T, ks = 0.05, np.zeros(7)
        prices = [bs_price(0.0, 0.0, s, T) for s in np.linspace(0.1, 0.7, 7)]
        prices[i] = {"nan": math.nan, "intrinsic": 0.0, "spot": 1.0, "below_lo": 1e-10}[bad]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            implied_vol(prices[i], 0.0, 0.0, T)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            _implied_vols(prices, 0.0, ks, T)

    def test_lowest_of_two_failing_elements_wins(self):
        # both below the sigma = 1e-6 price, so both fail inside the loop
        T, ks = 0.05, np.zeros(7)
        prices = [bs_price(0.0, 0.0, s, T) for s in np.linspace(0.1, 0.7, 7)]
        prices[2], prices[5] = 2e-10, 1e-10
        with pytest.raises(DomainError, match=r"^price 2e-10 below sigma=1e-06 value$"):
            _implied_vols(prices, 0.0, ks, T)

    def test_lowest_index_wins_over_an_earlier_stage(self, monkeypatch):
        # at zero price tolerance the deep out-of-the-money element 1 runs
        # into the iteration cap, after element 3 has already failed the
        # arbitrage check: the batch raises element 1's error
        monkeypatch.setattr(blackscholes, "_IV_PRICE_TOL", 0.0)
        T, ks = 0.05, [0.0, 0.2, 0.1, 0.3]
        prices = [bs_price(0.0, k, 0.05, T) for k in ks]
        prices[3] = 1.0
        message = (
            "implied vol did not converge after 100 iterations (price=4.971561606834354e-75, "
            "x=0.0, k=0.2, T=0.05, bracket=[1e-06, 0.06392256632844111])"
        )
        with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
            implied_vol(prices[1], 0.0, ks[1], T)
        with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
            _implied_vols(prices, 0.0, ks, T)

    def test_overflowing_strike_is_refused_in_index_order(self):
        # the lowest refused element wins, whichever check refuses it
        T, ks = 0.05, np.zeros(6)
        prices = [bs_price(0.0, 0.0, s, T) for s in np.linspace(0.1, 0.6, 6)]
        batch = prices[:]
        batch[2], ks[4] = 1.0, 800.0
        with pytest.raises(DomainError, match=r"^price 1\.0 outside arbitrage bounds \(0\.0, 1\.0\)$"):
            _implied_vols(batch, 0.0, ks, T)
        ks[1] = 800.0
        with pytest.raises(InputError, match=overflow_message("k")):
            _implied_vols(batch, 0.0, ks, T)
        # a lower element that fails inside the loop wins over the overflow
        batch[0] = 1e-10
        with pytest.raises(DomainError, match=r"^price 1e-10 below sigma=1e-06 value$"):
            _implied_vols(batch, 0.0, ks, T)
        with pytest.raises(InputError, match=overflow_message("x")):
            _implied_vols(prices, 800.0, np.zeros(6), T)

    def test_unattainable_price_raises_the_scalar_error(self):
        # half the spot at the money and T 1e-12 needs sigma above the 1e3 cap:
        # the batch's upper end doubles past it and the scalar loop raises
        msg = r"^price 0\.5 not attainable below sigma=1280\.0$"
        with pytest.raises(DomainError, match=msg):
            implied_vol(0.5, 0.0, 0.0, 1e-12)
        with pytest.raises(DomainError, match=msg):
            _implied_vols([0.5], 0.0, [0.0], 1e-12)

    def test_expiry_and_empty_batch(self):
        with pytest.raises(DomainError, match=r"^cannot invert at expiry: T=0\.0 <= 0$"):
            _implied_vols([0.1, 0.2], 0.0, [0.0, 0.1], 0.0)
        assert _implied_vols([], 0.0, [], 1.0).size == 0


# sha256 of the inversion's bits: _implied_vols on the quote batches (each
# leg's kept smile knots, then both legs' first-rung window strikes) of both
# reference cases at T 0.05, 0.25 and 1.0, then implied_vol on the exact
# exchange prices of 200 seeded paper-grid points whose time value is at least
# a cent; a change that alters these bits records the new digest and says why
INVERSION_DIGEST = "84eb4a686482a3a5ba467d23a69fa98c6abead3d7dfcc24b7f1f79b6f2732934"


def inversion_digest_values():
    values, n = [], heston.SMILE_GRID_POINTS
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
                prices = np.add(tv, [max(1.0 - math.exp(z), 0.0) for z in zs])
                values.extend(_implied_vols(prices, 0.0, zs, T))
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
            values.append(implied_vol(price, math.log(spec.s0x), math.log(s0y), T))
            inverted += 1
    return np.array(values)


def test_inversion_bits_pinned():
    digest = hashlib.sha256(inversion_digest_values().tobytes()).hexdigest()
    assert digest == INVERSION_DIGEST
