import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import settings

from exchopt import blackscholes, heston
from exchopt.blackscholes import _implied_vols, bs_price, bs_vega, implied_vol
from exchopt.errors import DomainError, InputError, NumericalError
from exchopt.experiments import reference_case_model
from exchopt.models import AssetSpec, HestonParams
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


def checked_implied_vol(price, x, k, T):
    """The Newton/bracket loop of implied_vol on the public, argument-checking
    bs_price and bs_vega: the reference for the unchecked helpers."""
    lo, hi = 1e-6, 5.0
    while bs_price(x, k, hi, T) < price:
        hi *= 2.0
    sigma = 0.5 if lo < 0.5 < hi else 0.5 * (lo + hi)
    for _ in range(100):
        diff = bs_price(x, k, sigma, T) - price
        if abs(diff) <= 1e-12 * math.exp(x):
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
        with pytest.raises(DomainError, match="at expiry"):
            implied_vol(5.0, X100, X100, 0.0)

    def test_intrinsic_price_rejected(self):
        with pytest.raises(DomainError):
            implied_vol(10.0, X100, math.log(90.0), 1.0)
        with pytest.raises(DomainError):
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
            tvs = heston._leg_time_values(model.heston, asset, smile.log_moneyness, T)
            for z, tv, vol in zip(smile.log_moneyness, tvs, smile.vols):
                price = tv + max(1.0 - math.exp(z), 0.0)
                got = implied_vol(price, 0.0, z, T)
                assert got == checked_implied_vol(price, 0.0, z, T)
                assert got == vol


def scalar_loop(prices, x, ks, T):
    """implied_vol one element at a time: the reference for _implied_vols."""
    return [implied_vol(p, x, k, T) for p, k in zip(prices, ks)]


class TestBatchImpliedVols:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @leg_models
    def test_smile_vols_equal_the_checked_loop(self, kappa, theta, nu, sigma0, lam, rho_sv, T):
        # each drawn leg at three fixed maturities (the drawn T is not used)
        params = HestonParams(kappa=kappa, theta=theta, nu=nu, sigma0=sigma0)
        asset = AssetSpec(lam=lam, rho_sv=rho_sv, s0=100.0)
        for T in (0.005, 0.05, 1.0):
            smile = heston.build_smile_grid(params, asset, T)
            tvs = heston._leg_time_values(params, asset, smile.log_moneyness, T)
            for z, tv, vol in zip(smile.log_moneyness, tvs, smile.vols):
                assert vol == checked_implied_vol(tv + max(1.0 - math.exp(z), 0.0), 0.0, z, T)

    def test_bracket_doubling_and_collapse_exits(self, monkeypatch):
        # deep out of the money and short-dated at vols above the starting
        # bracket [1e-6, 5]: the vega at the seed is 0, so the first step
        # bisects up to the doubled upper end
        T, ks = 0.01, np.repeat([0.3, 0.4, 0.5], 5)
        prices = [bs_price(0.0, k, s, T) for k, s in zip(ks, [6.0, 7.0, 9.0, 12.0, 20.0] * 3)]
        assert _implied_vols(prices, 0.0, ks, T).tolist() == scalar_loop(prices, 0.0, ks, T)
        # with the price tolerance at 1e-16 of spot these knots leave through
        # the collapsed bracket just after a Newton step inside it, at a
        # midpoint whose price misses by more than the tolerance
        monkeypatch.setattr(blackscholes, "_IV_PRICE_TOL", 1e-16)
        T, ks = 1.0, [0.3, 0.24, 0.38, 0.48]
        prices = [bs_price(0.0, k, s, T) for k, s in zip(ks, [0.23, 0.44, 0.53, 1.14])]
        got = _implied_vols(prices, 0.0, ks, T)
        assert got.tolist() == scalar_loop(prices, 0.0, ks, T)
        assert all(abs(bs_price(0.0, k, v, T) - p) > 1e-16 for k, v, p in zip(ks, got, prices))

    @pytest.mark.parametrize("i", [0, 2, 5])
    @pytest.mark.parametrize("bad", ["nan", "intrinsic", "spot", "below_lo"])
    def test_first_failure_raises_the_scalar_error(self, i, bad):
        # at the money, where 1e-10 lies below the sigma = 1e-6 price 9e-8
        T, ks = 0.05, np.zeros(7)
        prices = [bs_price(0.0, 0.0, s, T) for s in np.linspace(0.1, 0.7, 7)]
        prices[i] = {"nan": math.nan, "intrinsic": 0.0, "spot": 1.0, "below_lo": 1e-10}[bad]
        with pytest.raises((InputError, DomainError)) as scalar:
            scalar_loop(prices, 0.0, ks, T)
        with pytest.raises(scalar.type, match=f"^{re.escape(str(scalar.value))}$"):
            _implied_vols(prices, 0.0, ks, T)

    def test_lowest_index_wins_over_an_earlier_stage(self, monkeypatch):
        # at zero price tolerance the deep out-of-the-money element 1 runs
        # into the iteration cap, after element 3 has already failed the
        # arbitrage check: the scalar loop raises for element 1
        monkeypatch.setattr(blackscholes, "_IV_PRICE_TOL", 0.0)
        T, ks = 0.05, [0.0, 0.2, 0.1, 0.3]
        prices = [bs_price(0.0, k, 0.05, T) for k in ks]
        prices[3] = 1.0
        with pytest.raises(NumericalError) as scalar:
            scalar_loop(prices, 0.0, ks, T)
        assert "k=0.2" in str(scalar.value)
        with pytest.raises(NumericalError, match=f"^{re.escape(str(scalar.value))}$"):
            _implied_vols(prices, 0.0, ks, T)

    def test_expiry_and_empty_batch(self):
        with pytest.raises(DomainError, match="at expiry"):
            _implied_vols([0.1, 0.2], 0.0, [0.0, 0.1], 0.0)
        assert _implied_vols([], 0.0, [], 1.0).size == 0
