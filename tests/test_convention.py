import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exchopt.convention import (
    A_BOUNDS,
    a_star_observables,
    a_star_parametric,
    bound_a,
    general_residual,
    linear_convention_residual,
    strikes,
)
from exchopt.errors import DegenerateConventionError, InputError
from exchopt.heston import SmileObservables
from exchopt.models import CorrelationStructure as Corr

X100 = math.log(100.0)


def random_limits(rng):
    """(lam_x, lam_y, corr) drawn over the quote spans."""
    return (
        rng.uniform(0.3, 2.5),
        rng.uniform(0.3, 2.5),
        Corr(rho=rng.uniform(-0.95, 0.95), rho_x=rng.uniform(-0.95, 0.95),
             rho_y=rng.uniform(-0.95, 0.95)),
    )


def limit_observables(lam_x, lam_y, corr, sigma0=0.15, nu=0.5, T=0.05):
    """Observables pinned at their analytic short-time limits."""
    return SmileObservables(
        level_x=lam_x * sigma0,
        level_y=lam_y * sigma0,
        skew_x=corr.rho_x * nu / (4.0 * sigma0),
        skew_y=corr.rho_y * nu / (4.0 * sigma0),
        T=T,
        dz=0.01,
    )


def limit_denominator(lam_x, lam_y, c):
    return c.rho_x * (lam_x - c.rho * lam_y) - c.rho_y * (lam_y - c.rho * lam_x)


class TestStrikes:
    def test_own_atm_convention(self):
        assert strikes(0.0, 1.0, 2.0) == (1.0, 2.0)

    def test_lookup_convention(self):
        assert strikes(1.0, 1.0, 2.0) == (2.0, 1.0)

    def test_coincide_at_equal_spots(self, rng):
        for _ in range(100):
            a = rng.uniform(-5, 5)
            x = rng.uniform(-1, 6)
            assert strikes(a, x, x) == (x, x)

    def test_rejects_non_finite_input(self):
        with pytest.raises(InputError):
            strikes(math.inf, 0.0, 1.0)


class TestAStarParametric:
    def test_uncorrelated_assets_give_lookup(self, rng):
        for _ in range(100):
            lam_x, lam_y, c = random_limits(rng)
            c = Corr(0.0, c.rho_x, c.rho_y)
            if abs(c.rho_x * lam_x - c.rho_y * lam_y) < 1e-6:
                continue
            assert a_star_parametric(lam_x, lam_y, c) == pytest.approx(1.0, abs=1e-14)

    def test_equal_levels(self, rng):
        for _ in range(100):
            lam = rng.uniform(0.3, 2.5)
            c = Corr(rng.uniform(-0.9, 0.9), rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95))
            # cancellation in the denominator needs separated correlations
            if abs(c.rho_x - c.rho_y) < 0.1:
                continue
            assert a_star_parametric(lam, lam, c) == pytest.approx(
                1.0 / (1.0 - c.rho), rel=1e-13
            )

    def test_equal_spot_vol_correlations(self, rng):
        for _ in range(100):
            r = rng.uniform(-0.9, 0.9)
            lam_x, lam_y = rng.uniform(0.3, 2.5), rng.uniform(0.3, 2.5)
            c = Corr(rng.uniform(-0.9, 0.9), r, r)
            if abs(lam_x - lam_y) < 0.1 or abs(r) < 0.1:
                continue
            assert a_star_parametric(lam_x, lam_y, c) == pytest.approx(
                1.0 / (1.0 + c.rho), rel=1e-13
            )

    def test_zero_rho_y(self, rng):
        for _ in range(100):
            lam_x, lam_y, c = random_limits(rng)
            c = Corr(c.rho, c.rho_x, 0.0)
            if abs(c.rho_x) < 1e-6:
                continue
            expected = lam_x / (lam_x - c.rho * lam_y)
            assert a_star_parametric(lam_x, lam_y, c) == pytest.approx(expected, rel=1e-14)

    def test_case2_limits(self):
        c = Corr(rho=0.5, rho_x=-0.4, rho_y=0.4)
        assert a_star_parametric(1.5, 1.0, c) == pytest.approx(2.0, abs=1e-14)

    def test_degenerate_denominator(self):
        # rho_X = rho_Y and lam_X = lam_Y zeroes the denominator
        with pytest.raises(DegenerateConventionError):
            a_star_parametric(1.0, 1.0, Corr(rho=0.3, rho_x=0.5, rho_y=0.5))

    @pytest.mark.parametrize("lam_x, lam_y", [
        (0.0, 1.0), (1.0, -0.5), (math.nan, 1.0), (1.0, math.inf),
    ])
    def test_rejects_non_positive_lam(self, lam_x, lam_y):
        c = Corr(rho=0.5, rho_x=-0.4, rho_y=0.4)
        with pytest.raises(InputError, match="lam_[xy] must be > 0"):
            a_star_parametric(lam_x, lam_y, c)
        with pytest.raises(InputError, match="lam_[xy] must be > 0"):
            linear_convention_residual(0.5, lam_x, lam_y, c)

    def test_sign_property_zero_rho_y(self):
        # with rho_Y = 0: rho > 0 implies a* > 1, rho < 0 implies a* < 1
        for rho in (0.2, 0.6, 0.9):
            assert a_star_parametric(1.2, 0.8, Corr(rho, -0.5, 0.0)) > 1.0
        for rho in (-0.2, -0.6, -0.9):
            assert a_star_parametric(1.2, 0.8, Corr(rho, -0.5, 0.0)) < 1.0

    def test_unique_root_of_residual(self, rng):
        for _ in range(100):
            lim = random_limits(rng)
            if abs(limit_denominator(*lim)) < 1e-6:
                continue
            a_star = a_star_parametric(*lim)
            assert linear_convention_residual(a_star, *lim) == pytest.approx(0.0, abs=1e-13)
            # affine in a with nonzero slope: exactly one sign change around a*
            left = linear_convention_residual(a_star - 2.0, *lim)
            right = linear_convention_residual(a_star + 2.0, *lim)
            mid = linear_convention_residual(a_star + 1.0, *lim)
            assert left * right < 0
            # linearity: second difference vanishes
            assert right - 2.0 * mid + linear_convention_residual(a_star, *lim) == pytest.approx(
                0.0, abs=1e-12
            )


class TestAStarObservables:
    def test_limit_consistency_with_parametric(self, rng):
        for _ in range(200):
            lim = random_limits(rng)
            if abs(limit_denominator(*lim)) < 1e-3:
                continue
            got = a_star_observables(limit_observables(*lim), lim[2].rho)
            assert got == pytest.approx(a_star_parametric(*lim), abs=1e-12)

    def test_equal_skews_distinct_levels(self):
        # with S_X == S_Y the optimum collapses to 1/(1 + rho) (the limit
        # analogue of equal spot-vol correlations); identical levels as well
        # would zero the denominator, see test_degenerate
        obs = SmileObservables(
            level_x=0.25, level_y=0.2, skew_x=-0.3, skew_y=-0.3, T=0.05, dz=0.01
        )
        assert a_star_observables(obs, 0.4) == pytest.approx(1.0 / 1.4, rel=1e-13)

    def test_degenerate(self):
        obs = SmileObservables(
            level_x=0.2, level_y=0.2, skew_x=0.3, skew_y=0.3, T=0.05, dz=0.01
        )
        with pytest.raises(DegenerateConventionError):
            a_star_observables(obs, 0.0)


class TestOneFormula:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        lam_x=st.floats(0.1, 3.0), lam_y=st.floats(0.1, 3.0),
        rho=st.floats(-1.0, 1.0), rho_x=st.floats(-1.0, 1.0), rho_y=st.floats(-1.0, 1.0),
    )
    def test_parametric_is_observables_at_levels_lam_and_skews_rho(
        self, lam_x, lam_y, rho, rho_x, rho_y
    ):
        c = Corr(rho, rho_x, rho_y)
        obs = SmileObservables(
            level_x=lam_x, level_y=lam_y, skew_x=rho_x, skew_y=rho_y, T=0.05, dz=0.01
        )
        try:
            a = a_star_parametric(lam_x, lam_y, c)
        except DegenerateConventionError:
            with pytest.raises(DegenerateConventionError):
                a_star_observables(obs, rho)
            return
        assert a_star_observables(obs, rho) == a
        assert abs(linear_convention_residual(a, lam_x, lam_y, c)) <= 1e-12


class TestBoundA:
    def test_clamps_paper_extremes(self):
        assert bound_a(7.6) == 2.0
        assert bound_a(-3.7) == -1.0

    def test_in_range_untouched(self):
        assert bound_a(0.429) == 0.429

    def test_bounds_constant(self):
        assert A_BOUNDS == (-1.0, 2.0)


class TestLinearResidual:
    def test_lookup_is_optimal_when_uncorrelated(self, rng):
        for _ in range(50):
            lam_x, lam_y, c = random_limits(rng)
            c = Corr(0.0, c.rho_x, c.rho_y)
            assert linear_convention_residual(1.0, lam_x, lam_y, c) == pytest.approx(
                0.0, abs=1e-14
            )

    def test_atm_convention_residual_uncorrelated(self, rng):
        for _ in range(50):
            lam_x, lam_y, c = random_limits(rng)
            c = Corr(0.0, c.rho_x, c.rho_y)
            expected = -(lam_x * c.rho_x - c.rho_y * lam_y)
            assert linear_convention_residual(0.0, lam_x, lam_y, c) == pytest.approx(
                expected, abs=1e-14
            )


class TestGeneralResidual:
    def _from_limits(self, a, lam_x, lam_y, corr, sigma0=0.15, nu=0.5):
        return general_residual(
            sigma0_x=lam_x * sigma0,
            sigma0_y=lam_y * sigma0,
            dplus_x=lam_x * nu / 2.0,
            dplus_y=lam_y * nu / 2.0,
            corr=corr,
            dkx_dy=a,
            dky_dy=1.0 - a,
        )

    def test_vanishes_at_a_star(self, rng):
        for _ in range(100):
            lim = random_limits(rng)
            try:
                a_star = a_star_parametric(*lim)
            except DegenerateConventionError:
                continue
            if abs(a_star) > 50:
                continue
            assert self._from_limits(a_star, *lim) == pytest.approx(0.0, abs=1e-12)

    def test_proportional_to_linear_residual(self, rng):
        # reduction oracle: general == linear * (-nu / (4 sigma0 lam_tilde))
        # for log-linear conventions under the shared-volatility model
        sigma0, nu = 0.15, 0.5
        for _ in range(100):
            lam_x, lam_y, c = random_limits(rng)
            lam_t2 = lam_x**2 + lam_y**2 - 2.0 * c.rho * lam_x * lam_y
            if lam_t2 < 1e-4:
                continue
            factor = -nu / (4.0 * sigma0 * math.sqrt(lam_t2))
            a = rng.uniform(-3, 3)
            general = self._from_limits(a, lam_x, lam_y, c, sigma0, nu)
            linear = linear_convention_residual(a, lam_x, lam_y, c)
            assert general == pytest.approx(factor * linear, rel=1e-10, abs=1e-12)

    def test_zero_spot_vol_correlations(self, rng):
        for _ in range(50):
            lam_x, lam_y, c = random_limits(rng)
            a = rng.uniform(-3, 3)
            assert self._from_limits(a, lam_x, lam_y, Corr(c.rho, 0.0, 0.0)) == 0.0

    def test_degenerate_exchange_vol(self):
        from exchopt.errors import DomainError

        with pytest.raises(DomainError):
            general_residual(0.2, 0.2, 0.05, 0.05, Corr(1.0, 0.1, 0.1), 0.5, 0.5)
