import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from exchopt import heston
from exchopt.blackscholes import bs_price, implied_vol
from exchopt.errors import DomainError, InputError, NumericalError
from exchopt.experiments import reference_case_model
from exchopt.heston import (
    Smile,
    build_smile,
    build_smile_grid,
    effective_heston,
    exchange_option_price,
    heston_vanilla_price,
    measure_atm_observables,
    measure_smile_observables,
    smile_csv_rows,
    _cf_log_return,
)
from exchopt.models import AssetSpec, HestonParams
from exchopt.simulation import McConfig, simulate_exchange, simulate_vanilla

BASE_PARAMS = HestonParams(kappa=1.5, theta=0.15, nu=0.5, sigma0=0.15)
X100 = math.log(100.0)
GRID_Z = np.linspace(*heston.SMILE_GRID_SPAN, heston.SMILE_GRID_POINTS)

leg_models = given(
    kappa=st.floats(0.3, 3.0), theta=st.floats(0.02, 0.3),
    nu=st.floats(0.1, 1.0), sigma0=st.floats(0.08, 0.4),
    lam=st.floats(0.5, 1.6), rho_sv=st.floats(-0.9, 0.9),
    T=st.floats(0.02, 1.0),
)


def leg_kernel(kappa, theta, nu, sigma0, lam, rho_sv, T):
    """Kernel arguments (kappa, kappa theta, nu, v0, rho_sv, T) of one scaled leg."""
    eff = effective_heston(
        HestonParams(kappa=kappa, theta=theta, nu=nu, sigma0=sigma0),
        AssetSpec(lam=lam, rho_sv=rho_sv, s0=100.0),
    )
    return eff.kappa, eff.kappa * eff.theta, eff.nu, eff.v0, rho_sv, T


def gil_pelaez_call(s0, strike, params, rho_sv, T):
    """Independent inversion route (scipy QUADPACK on the P1/P2 integrals)."""
    k = math.log(strike / s0)
    kt = params.kappa * params.theta

    def phi(u):
        return _cf_log_return(
            np.asarray([u], dtype=complex), params.kappa, kt, params.nu,
            params.v0, rho_sv, T,
        )[0]

    def i2(u):
        return (np.exp(-1j * u * k) * phi(u) / (1j * u)).real

    def i1(u):
        return (np.exp(-1j * u * k) * phi(u - 1j) / (1j * u)).real

    p1 = 0.5 + quad(i1, 1e-10, 500, limit=500)[0] / math.pi
    p2 = 0.5 + quad(i2, 1e-10, 500, limit=500)[0] / math.pi
    return s0 * (p1 - math.exp(k) * p2)


def assert_knots_reprice(params, asset, smile):
    """Every knot vol reprices to heston_vanilla_price, which lies within the
    no-arbitrage bounds, to 2e-12 of spot."""
    for z in smile.log_moneyness:
        k = asset.x0 + float(z)
        heston_p = heston_vanilla_price(params, asset, math.exp(k), smile.T)
        assert max(asset.s0 - math.exp(k), 0.0) < heston_p < asset.s0
        bs_p = bs_price(asset.x0, k, smile.vol_at_moneyness(float(z)), smile.T)
        assert abs(bs_p - heston_p) <= 2e-12 * asset.s0


class TestEffectiveHeston:
    def test_identity_at_unit_scaling(self):
        asset = AssetSpec(lam=1.0, rho_sv=-0.4, s0=100.0)
        assert effective_heston(BASE_PARAMS, asset) == BASE_PARAMS

    def test_scaling(self):
        asset = AssetSpec(lam=1.5, rho_sv=-0.4, s0=100.0)
        eff = effective_heston(BASE_PARAMS, asset)
        assert eff.theta == pytest.approx(0.3375)
        assert eff.nu == pytest.approx(0.75)
        assert eff.sigma0 == pytest.approx(0.225)
        assert eff.kappa == BASE_PARAMS.kappa

    def test_scaled_model_matches_vanilla_mc(self, case1_model):
        # MC of the scaled leg vs the pricer under effective parameters
        mc = McConfig(n_paths=200_000, n_steps=2000, seed=3)
        est = simulate_vanilla(case1_model, "X", 100.0, 0.05, mc)
        exact = heston_vanilla_price(BASE_PARAMS, case1_model.asset_x, 100.0, 0.05)
        assert abs(est.value - exact) <= 3.0 * est.stderr


# heston_vanilla_price of reference case 1's legs at strikes 80, 100, 120,
# recorded when callers still passed effective parameters, rho_sv and s0
CASE1_VANILLAS = {
    ("X", 0.05): (20.00135282806561, 2.16565241956703, 0.00037798693679123673),
    ("X", 1.0): (27.412064827561533, 16.28244748896961, 9.055239006033647),
    ("Y", 0.05): (20.000021403833035, 1.444482698932916, 6.042515296904153e-09),
    ("Y", 1.0): (23.676086271334306, 10.880273282142069, 3.721883156689751),
}
FROZEN = {"kappa": 5.0, "theta": 0.0225, "sigma0": 0.15}  # nu -> 0: variance stays sigma0^2
UNIT_LEG = AssetSpec(lam=1.0, rho_sv=-0.5, s0=100.0)


class TestVanillaPricer:
    @pytest.mark.parametrize("leg, T", sorted(CASE1_VANILLAS))
    def test_pinned_case1_prices(self, case1_model, leg, T):
        asset = case1_model.asset(leg)
        got = tuple(
            heston_vanilla_price(BASE_PARAMS, asset, strike, T)
            for strike in (80.0, 100.0, 120.0)
        )
        assert got == CASE1_VANILLAS[(leg, T)]

    def test_pinned_degenerate_price(self):
        params = HestonParams(nu=1e-4, **FROZEN)
        assert heston_vanilla_price(params, UNIT_LEG, 110.0, 0.25) == 0.3807039068101607

    def test_degenerate_is_black_scholes(self):
        bs = bs_price(X100, math.log(110.0), 0.15, 0.25)
        gaps = []
        for nu in (1e-3, 1e-4):
            p = heston_vanilla_price(HestonParams(nu=nu, **FROZEN), UNIT_LEG, 110.0, 0.25)
            gaps.append(abs(p - bs))
        assert gaps[1] < gaps[0]
        assert gaps[1] < 1e-4

    def test_zero_strike_limit(self):
        asset = AssetSpec(lam=1.0, rho_sv=-0.6, s0=100.0)
        assert heston_vanilla_price(BASE_PARAMS, asset, 1e-10, 0.5) == pytest.approx(
            100.0, abs=1e-8
        )

    def test_case1_asset_x_vs_mc_oracle(self, case1_model):
        mc = McConfig(n_paths=200_000, n_steps=2000, seed=5)
        exact = heston_vanilla_price(BASE_PARAMS, case1_model.asset_x, 100.0, 0.05)
        est = simulate_vanilla(case1_model, "X", 100.0, 0.05, mc)
        assert abs(exact - est.value) <= 3.0 * est.stderr

    @pytest.mark.parametrize("T", [0.05, 1.0])
    def test_smile_knots_match_gil_pelaez(self, T):
        # every knot of a 41-strike grid leg, repriced from its vol, against
        # scipy quad on the Gil-Pelaez integrals (no shared kernel)
        asset = AssetSpec(lam=1.0, rho_sv=-0.6, s0=100.0)
        smile = build_smile_grid(BASE_PARAMS, asset, T)
        eff = effective_heston(BASE_PARAMS, asset)
        assert smile.log_moneyness.size >= 30
        for z, vol in zip(smile.log_moneyness, smile.vols):
            k = X100 + float(z)
            mine = bs_price(X100, k, vol, T)
            other = gil_pelaez_call(100.0, math.exp(k), eff, -0.6, T)
            assert mine == pytest.approx(other, abs=1e-9)

    @pytest.mark.parametrize("strike", [85.0, 100.0, 120.0])
    def test_matches_gil_pelaez(self, strike):
        asset = AssetSpec(lam=1.0, rho_sv=-0.6, s0=100.0)
        mine = heston_vanilla_price(BASE_PARAMS, asset, strike, 0.05)
        other = gil_pelaez_call(100.0, strike, effective_heston(BASE_PARAMS, asset), -0.6, 0.05)
        assert mine == pytest.approx(other, abs=1e-9)

    def test_input_validation(self):
        for strike in (-5.0, 0.0, math.nan, math.inf):
            with pytest.raises(InputError, match="strike must be positive"):
                heston_vanilla_price(BASE_PARAMS, UNIT_LEG, strike, 0.5)
        # the leg's spot and spot-vol correlation are checked by AssetSpec
        for rho_sv, s0 in ((-1.4, 100.0), (-0.4, -100.0)):
            with pytest.raises(InputError):
                heston_vanilla_price(
                    BASE_PARAMS, AssetSpec(lam=1.0, rho_sv=rho_sv, s0=s0), 100.0, 0.5
                )


class TestSmile:
    def test_degenerate_smile_is_flat(self):
        frozen = HestonParams(kappa=5.0, theta=0.0225, nu=1e-4, sigma0=0.15)
        asset = AssetSpec(lam=1.2, rho_sv=-0.5, s0=100.0)
        pairs = build_smile(frozen, asset, 0.25, [X100 - 0.1, X100, X100 + 0.1])
        vols = [v for _, v in pairs]
        assert np.ptp(vols) < 2e-4
        assert vols[1] == pytest.approx(1.2 * 0.15, abs=2e-3)

    def test_downward_skew_negative_rho(self, case1_model):
        smile = build_smile_grid(BASE_PARAMS, case1_model.asset_x, 0.05, asset_id="X")
        assert smile.vol_at_moneyness(0.02) < smile.vol_at_moneyness(-0.02)

    def test_upward_skew_positive_rho(self, case2_model):
        smile = build_smile_grid(BASE_PARAMS, case2_model.asset_y, 0.05, asset_id="Y")
        assert smile.vol_at_moneyness(0.02) > smile.vol_at_moneyness(-0.02)

    def test_smile_price_consistency(self, case1_model, case2_model):
        # re-pricing from smile vols recovers the scalar-route Heston prices
        # at every knot
        for model in (case1_model, case2_model):
            for asset_id in ("X", "Y"):
                asset = model.asset(asset_id)
                smile = build_smile_grid(BASE_PARAMS, asset, 0.05, asset_id=asset_id)
                assert_knots_reprice(BASE_PARAMS, asset, smile)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        kappa=st.floats(0.3, 3.0), theta=st.floats(0.02, 0.3),
        nu=st.floats(0.1, 1.0), sigma0=st.floats(0.08, 0.4),
        lam=st.floats(0.5, 1.6), rho_sv=st.floats(-0.9, 0.9),
        T=st.floats(0.02, 1.0),
    )
    def test_grid_knots_reprice_property(self, kappa, theta, nu, sigma0, lam, rho_sv, T):
        params = HestonParams(kappa=kappa, theta=theta, nu=nu, sigma0=sigma0)
        asset = AssetSpec(lam=lam, rho_sv=rho_sv, s0=100.0)
        assert_knots_reprice(params, asset, build_smile_grid(params, asset, T))

    def test_flat_extrapolation_beyond_knots(self, case1_model):
        smile = build_smile_grid(BASE_PARAMS, case1_model.asset_y, 0.05, asset_id="Y")
        lo, hi = smile.z_bounds
        assert smile.vol_at_moneyness(lo - 0.5) == smile.vol_at_moneyness(lo)
        assert smile.vol_at_moneyness(hi + 0.5) == smile.vol_at_moneyness(hi)

    def test_unresolvable_wings_trimmed(self, case1_model):
        # the thin right wing of the Y leg cannot be inverted at T=0.05
        smile = build_smile_grid(BASE_PARAMS, case1_model.asset_y, 0.05, asset_id="Y")
        assert smile.z_bounds[1] < math.log(1.3)
        assert smile.z_bounds[0] == pytest.approx(math.log(0.7))

    def test_build_smile_propagates_failures(self, case1_model):
        # far beyond the resolvable wing the inversion must raise, not skip
        with pytest.raises(DomainError):
            build_smile(BASE_PARAMS, case1_model.asset_y, 0.05, [X100 + 0.5])

    def test_smile_csv_schema(self, case1_model):
        smile = build_smile_grid(BASE_PARAMS, case1_model.asset_x, 0.05, asset_id="X")
        rows = smile_csv_rows(smile)
        assert set(rows[0]) == {"asset", "T", "log_strike", "strike", "implied_vol"}
        strikes = [r["strike"] for r in rows]
        assert strikes == sorted(strikes)

    def test_smile_knot_validation(self):
        with pytest.raises(InputError):
            Smile("X", 100.0, 0.5, [0.0, 0.0], [0.2, 0.2])

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_moneyness_rejected(self, z):
        smile = Smile("X", 100.0, 0.5, [-0.1, 0.0, 0.1], [0.25, 0.2, 0.22])
        with pytest.raises(InputError, match="log-moneyness must be finite"):
            smile.vol_at_moneyness(z)


class TestObservables:
    def test_degenerate_skews_vanish(self):
        frozen = HestonParams(kappa=5.0, theta=0.0225, nu=1e-4, sigma0=0.15)
        ax = AssetSpec(lam=1.0, rho_sv=-0.5, s0=100.0)
        ay = AssetSpec(lam=1.3, rho_sv=0.5, s0=100.0)
        obs = measure_atm_observables(frozen, ax, ay, 0.25)
        assert abs(obs.skew_x) < 1e-3
        assert abs(obs.skew_y) < 1e-3

    def test_short_time_levels(self):
        # ATM implied vol -> lam sigma0 as T -> 0
        ax = AssetSpec(lam=1.5, rho_sv=-0.4, s0=100.0)
        ay = AssetSpec(lam=1.0, rho_sv=-0.6, s0=100.0)
        obs = measure_atm_observables(BASE_PARAMS, ax, ay, 0.005)
        assert obs.level_x == pytest.approx(1.5 * 0.15, abs=0.01)
        assert obs.level_y == pytest.approx(0.15, abs=0.01)

    def test_short_time_skews(self):
        # ATM skew -> rho_i nu / (4 sigma0), independent of lam
        ax = AssetSpec(lam=1.5, rho_sv=-0.4, s0=100.0)
        ay = AssetSpec(lam=1.0, rho_sv=-0.6, s0=100.0)
        obs = measure_atm_observables(BASE_PARAMS, ax, ay, 0.005)
        lim_x = -0.4 * 0.5 / (4.0 * 0.15)
        lim_y = -0.6 * 0.5 / (4.0 * 0.15)
        assert abs(obs.skew_x - lim_x) <= 0.15 * abs(lim_x)
        assert abs(obs.skew_y - lim_y) <= 0.15 * abs(lim_y)

    def test_short_time_skew_ratio(self):
        ax = AssetSpec(lam=1.5, rho_sv=-0.4, s0=100.0)
        ay = AssetSpec(lam=1.0, rho_sv=0.4, s0=100.0)
        obs = measure_atm_observables(BASE_PARAMS, ax, ay, 0.005)
        ratio = obs.skew_y / obs.skew_x
        assert abs(ratio - (0.4 / -0.4)) <= 0.10 * abs(0.4 / -0.4)

    @pytest.mark.parametrize("case", [1, 2])
    @pytest.mark.parametrize("T", [0.05, 1.0])
    def test_atm_matches_scalar_central_difference(self, case, T):
        model = reference_case_model(case)
        obs = measure_atm_observables(BASE_PARAMS, model.asset_x, model.asset_y, T)
        for asset, level, skew in (
            (model.asset_x, obs.level_x, obs.skew_x),
            (model.asset_y, obs.level_y, obs.skew_y),
        ):
            x0 = asset.x0
            (_, dn), (_, atm), (_, up) = build_smile(
                BASE_PARAMS, asset, T, [x0 - obs.dz, x0, x0 + obs.dz]
            )
            assert level == pytest.approx(atm, abs=1e-11)
            assert skew == pytest.approx((up - dn) / (2.0 * obs.dz), abs=1e-9)

    def test_window_measurement_records_span(self, case1_model):
        obs = measure_smile_observables(
            BASE_PARAMS, case1_model.asset_x, case1_model.asset_y, 0.05
        )
        assert obs.window == (math.log(0.8), math.log(1.2))

    def test_window_shrinks_when_wings_unresolvable(self, case1_model):
        obs = measure_smile_observables(
            BASE_PARAMS, case1_model.asset_x, case1_model.asset_y, 0.005
        )
        lo, hi = obs.window
        assert hi < math.log(1.2)  # full window is unresolvable this short


class TestExchangeOraclePrice:
    def test_matches_mc(self, case2_model):
        mc = McConfig(n_paths=200_000, n_steps=2000, seed=13)
        est = simulate_exchange(case2_model, 0.05, mc)
        exact = exchange_option_price(case2_model, 0.05)
        assert abs(est.value - exact) <= 3.0 * est.stderr

    def test_rejects_invalid_correlations(self, case1_model):
        from dataclasses import replace
        from exchopt.models import CorrelationStructure

        bad = replace(
            case1_model, corr=CorrelationStructure(rho=0.9, rho_x=-0.72, rho_y=0.59)
        )
        with pytest.raises(DomainError):
            exchange_option_price(bad, 0.05)


class TestFourierKernel:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @leg_models
    def test_batch_equals_one_strike_at_a_time(self, **leg):
        args = leg_kernel(**leg)
        batch = heston._time_values(*args, GRID_Z)
        single = [heston._time_values(*args, [z])[0] for z in GRID_Z]
        assert np.max(np.abs(batch - single)) <= 5e-13

    @settings(max_examples=15, deadline=None, derandomize=True)
    @leg_models
    def test_calls_decreasing_convex_and_within_bounds(self, **leg):
        strikes = np.exp(GRID_Z)  # unit spot; the grid straddles the k = 0 side switch
        calls = heston._time_values(*leg_kernel(**leg), GRID_Z) + np.maximum(1.0 - strikes, 0.0)
        assert np.all(calls >= np.maximum(1.0 - strikes, 0.0) - 5e-13)
        assert np.all(calls <= 1.0)
        assert np.all(np.diff(calls) <= 5e-13)
        slopes = np.diff(calls) / np.diff(strikes)
        assert np.all(np.diff(slopes) >= -1e-10)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @leg_models
    def test_put_call_parity_across_side_switch(self, **leg):
        kappa, kappa_theta, nu, v0, rho_sv, T = leg_kernel(**leg)
        cf = lambda u: _cf_log_return(u, kappa, kappa_theta, nu, v0, rho_sv, T)
        ks = [-0.05, -0.01, 0.0, 0.01, 0.05]
        calls = heston._damped_values(cf, ks, heston._DAMPING_ALPHA)
        puts = heston._damped_values(cf, ks, -1.0 - heston._DAMPING_ALPHA)
        for k, c, p in zip(ks, calls, puts):
            assert c - p == pytest.approx(1.0 - math.exp(k), abs=1e-12)

    def test_unconverged_quadrature_names_strikes_and_effort(self, monkeypatch):
        monkeypatch.setattr(heston, "_MAX_REFINE", 0)
        asset = AssetSpec(lam=1.0, rho_sv=-0.6, s0=100.0)
        with pytest.raises(NumericalError) as err:
            heston._leg_time_values(BASE_PARAMS, asset, [0.0, 0.1], 0.05)
        msg = str(err.value)
        assert "log-strikes [0.0, 0.1]" in msg
        for field in ("upper=", "panels=", "last delta="):
            assert field in msg

    def test_unbounded_tail_names_strikes_and_cutoff(self, monkeypatch):
        monkeypatch.setattr(heston, "_TAIL_TOL", 0.0)
        # slow decay: the integrand stays above zero out to u = 3.3e6, so the
        # search stops at its cap instead of building panels
        args = (1.0, 1e-4, 1.0, 1e-4, -0.5, 1.0)
        with pytest.raises(NumericalError, match=r"u=3276800\.0 at log-strikes \[0\.05\]"):
            heston._time_values(*args, [-0.05, 0.05])

    def test_rejects_non_finite_strikes_and_maturity(self):
        args = leg_kernel(1.5, 0.15, 0.5, 0.15, 1.0, -0.6, 0.5)
        with pytest.raises(InputError):
            heston._time_values(*args, [0.0, math.nan])
        with pytest.raises(InputError):
            heston._time_values(*args[:-1], 0.0, [0.0])
