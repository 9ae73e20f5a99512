import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from exchopt.errors import DomainError, InputError
from exchopt.heston import exchange_option_price
from exchopt.margrabe import (
    convention_gamma,
    exchange_implied_vol,
    implied_correlation,
    margrabe_price,
)
from exchopt.simulation import McConfig, simulate_exchange

X100 = math.log(100.0)

# frozen with a 50-digit erfc oracle: BS(x=ln 100, y=ln 90, gamma=0.25, T=0.05)
MARGRABE_100_90 = 10.060970042014870775
# sigma0 sqrt(lamX^2 + lamY^2 - 2 rho lamX lamY) for the reference cases
SIGMA_TILDE0 = 0.19843134832984429429


class TestMargrabePrice:
    def test_symmetric_atm_closed_form(self):
        gamma, T = 0.3, 0.25
        s = gamma * math.sqrt(T)
        expected = 100.0 * (2.0 * ndtr(s / 2.0) - 1.0)
        assert margrabe_price(X100, X100, gamma, T) == pytest.approx(expected, abs=1e-12)

    def test_worthless_second_leg(self):
        assert margrabe_price(X100, X100 - 40.0, 0.4, 1.0) == pytest.approx(100.0, abs=1e-10)

    def test_against_high_precision_oracle(self):
        assert margrabe_price(X100, math.log(90.0), 0.25, 0.05) == pytest.approx(
            MARGRABE_100_90, abs=1e-10
        )

    def test_homogeneous_degree_one(self, rng):
        for _ in range(50):
            x = X100 + rng.uniform(-0.5, 0.5)
            y = x + rng.uniform(-0.4, 0.4)
            gamma = rng.uniform(0.05, 0.8)
            T = rng.uniform(0.02, 2.0)
            c = 2.0
            scaled = margrabe_price(x + math.log(c), y + math.log(c), gamma, T)
            assert scaled == pytest.approx(c * margrabe_price(x, y, gamma, T), rel=1e-12)

    def test_input_validation(self):
        with pytest.raises(InputError):
            margrabe_price(X100, X100, -0.1, 1.0)
        with pytest.raises(InputError):
            margrabe_price(X100, X100, 0.2, 0.0)


class TestConventionGamma:
    def test_perfect_correlation_identical_legs(self):
        assert convention_gamma(0.2, 0.2, 1.0) == 0.0

    def test_pythagorean(self):
        assert convention_gamma(0.3, 0.4, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_arithmetic_oracle(self):
        expected = math.sqrt(0.050625 + 0.0225 - 0.03375)
        assert convention_gamma(0.225, 0.15, 0.5) == pytest.approx(expected, abs=1e-15)

    def test_rejects_bad_rho(self):
        with pytest.raises(InputError):
            convention_gamma(0.2, 0.2, 1.5)


class TestExchangeImpliedVol:
    def test_round_trip(self):
        p = margrabe_price(X100, math.log(95.0), 0.3, 0.5)
        got = exchange_implied_vol(p, X100, math.log(95.0), 0.5)
        assert got == pytest.approx(0.3, abs=1e-8)

    def test_intrinsic_rejected(self):
        with pytest.raises(DomainError):
            exchange_implied_vol(10.0, X100, math.log(90.0), 0.5)


class TestImpliedCorrelation:
    def test_algebraic_point(self):
        assert implied_correlation(0.2, 0.2, 0.2) == pytest.approx(0.5, abs=1e-15)

    def test_anticorrelated_bound(self):
        assert implied_correlation(0.5, 0.2, 0.3) == pytest.approx(-1.0, abs=1e-12)

    def test_inverse_identity(self, rng):
        for _ in range(300):
            i_x = rng.uniform(0.05, 0.8)
            i_y = rng.uniform(0.05, 0.8)
            rho = rng.uniform(-1.0, 1.0)
            gamma = convention_gamma(i_x, i_y, rho)
            assert implied_correlation(gamma, i_x, i_y) == pytest.approx(rho, abs=1e-12)

    # the value is the one signal: returned unclamped, with no warning; the
    # flag a person reads is the mark `price mc` prints (tests/test_cli.py)
    def test_out_of_bounds_flagged_not_clamped(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = implied_correlation(0.9, 0.2, 0.3)
        assert value < -1.0

    def test_zero_leg_vol_rejected(self):
        with pytest.raises(InputError):
            implied_correlation(0.2, 0.0, 0.3)

    # a negative leg vol used to return -0.75 for (0.2, -0.2, 0.3), and a NaN
    # or inf one raised DomainError("leg vols must be nonzero")
    @pytest.mark.parametrize("bad", [-0.2, 0.0, -0.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("leg", ["x", "y"])
    def test_leg_vols_refused_as_convention_gamma_refuses_them(self, leg, bad):
        i_x, i_y = (bad, 0.3) if leg == "x" else (0.2, bad)
        with pytest.raises(InputError, match=f"^i_{leg} must be finite and > 0, got "):
            convention_gamma(i_x, i_y, 0.5)
        with pytest.raises(InputError, match=f"^i_{leg} must be finite and > 0, got "):
            implied_correlation(0.2, i_x, i_y)


class TestShortTimeConvergence:
    """gamma and gamma_hat both converge to the spot exchange vol as T -> 0."""

    def test_gamma_hat_converges_mc(self, case1_model):
        maturities = (0.05, 0.02, 0.01, 0.005)
        mc = McConfig(n_paths=100_000, n_steps=2000, seed=11)
        gaps = []
        x = math.log(case1_model.s0x)
        for T in maturities:
            est = simulate_exchange(case1_model, T, mc)
            gamma_hat = exchange_implied_vol(est.value, x, x, T)
            # propagate 3 stderr of price noise into the vol gap allowance
            vega = 100.0 * math.sqrt(T) / math.sqrt(2.0 * math.pi)
            gaps.append((abs(gamma_hat - SIGMA_TILDE0), 3.0 * est.stderr / vega))
        for (g1, _), (g2, _) in zip(gaps, gaps[1:]):
            assert g2 < g1 + 1e-3  # decreasing up to MC noise
        final_gap, noise = gaps[-1]
        assert final_gap < 0.01 + noise

    def test_gamma_hat_converges_exact(self, case1_model):
        """Same limit via the semi-analytic exchange price (no MC noise)."""
        x = math.log(case1_model.s0x)
        prev = math.inf
        for T in (0.05, 0.02, 0.01, 0.005):
            price = exchange_option_price(case1_model, T)
            gap = abs(exchange_implied_vol(price, x, x, T) - SIGMA_TILDE0)
            assert gap < prev
            prev = gap
        assert prev < 0.01
