import inspect
import math

import numpy as np
import pytest

from exchopt import heston
from exchopt.blackscholes import bs_price, bs_vega, implied_vol
from exchopt.errors import DomainError, InputError
from exchopt.experiments import reference_case_model

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
