import functools
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from exchopt import blackscholes, experiments, heston
from exchopt.blackscholes import bs_price, implied_vol
from exchopt.errors import DomainError, InputError, NumericalError
from exchopt.experiments import GridSpec, reference_case_model
from exchopt.heston import (
    Smile,
    SmileObservables,
    build_smile,
    build_smile_grid,
    effective_heston,
    exchange_option_price,
    heston_vanilla_price,
    measure_smile_observables,
    smile_csv_rows,
    _cf_log_return,
)
from exchopt.models import (
    AssetSpec, CorrelationStructure, HestonParams, TwoAssetModel, validate_correlation,
)
from exchopt.simulation import McConfig, PriceEstimate, simulate_exchange, simulate_vanilla

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


def lewis_call(args, k, alpha):
    """Unit-spot call at log-strike k by scipy QUADPACK on the damped transform
    at alpha in (-1, 0), which gives the call less the spot (Lewis, 2001);
    ``args`` are the kernel's (kappa, kappa theta, nu, v0, rho_sv, T)."""
    assert -1.0 < alpha < 0.0

    def integrand(u):
        den = alpha * alpha + alpha - u * u + 1j * (2.0 * alpha + 1.0) * u
        f = _cf_log_return(np.array([u - (alpha + 1.0) * 1j]), *args)[0] / den
        return (np.exp(-1j * u * k) * f).real

    value = quad(integrand, 0.0, np.inf, limit=1000, epsabs=1e-13, epsrel=1e-12)[0]
    return 1.0 + math.exp(-alpha * k) / math.pi * value


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
# recorded from the kernel that reads each strike through per-panel phases
CASE1_VANILLAS = {
    ("X", 0.05): (20.00135282806561, 2.1656524195670244, 0.0003779869367873195),
    ("X", 1.0): (27.412064827561533, 16.282447488969613, 9.05523900603365),
    ("Y", 0.05): (20.000021403833035, 1.4444826989329156, 6.042508186988985e-09),
    ("Y", 1.0): (23.676086271334306, 10.880273282142078, 3.721883156689753),
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
        assert heston_vanilla_price(params, UNIT_LEG, 110.0, 0.25) == 0.38070390681015615

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

    @pytest.mark.parametrize("case", [1, 2])
    @pytest.mark.parametrize("T", [0.01, 0.05, 0.25, 1.0])
    def test_prices_never_below_zero_or_intrinsic(self, case, T):
        # far out of the money the quadrature leaves noise near 1e-13 of spot
        # on either side of zero (leg Y of case 1 read -2.7e-13 at K 150, T 0.05)
        m = reference_case_model(case)
        for asset in (m.asset_x, m.asset_y):
            for moneyness in (0.5, 0.8, 1.0, 1.2, 1.5, 2.0, 3.0, 5.0):
                strike = moneyness * asset.s0
                price = heston_vanilla_price(m.heston, asset, strike, T)
                assert price >= 0.0
                assert price >= max(asset.s0 - strike, 0.0) - 1e-13 * asset.s0

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

    # E[S_T^1.75] is infinite in the first model and E[S_T^-0.75] in the
    # second (Andersen & Piterbarg, 2007), so the out-of-the-money side's
    # damping cannot price the strikes on that side; the Lewis contour prices
    # them in the same batch as the finite side's own strikes, and agrees to
    # 1e-12 of spot with the other side's damping less the intrinsic value
    @pytest.mark.parametrize("model, rho_sv, T, alpha", [
        ((0.3, 1.0, 1.0, 0.4), 0.9, 3.0, heston._DAMPING_ALPHA),
        ((1.5, 0.1, 2.0, 0.3), -0.5, 2.0, -1.0 - heston._DAMPING_ALPHA),
    ], ids=["call-side", "put-side"])
    def test_exploding_damping_moment_prices_on_the_lewis_contour(self, model, rho_sv, T, alpha):
        params, strikes = HestonParams(*model), (70.0, 80.0, 90.0, 100.0, 110.0, 130.0)
        args, ks = leg_kernel(*model, 1.0, rho_sv, T), [math.log(K / 100.0) for K in strikes]
        tv = heston._time_values(*args, tuple(ks))
        for k, v in zip(ks, tv):
            assert v == heston._time_values(*args, (k,))[0]
        cf = lambda u: _cf_log_return(u, *args)
        side = [i for i, k in enumerate(ks) if (k >= 0.0) == (alpha > 0.0)]
        side_ks = [ks[i] for i in side]
        assert heston._damped_values(cf, side_ks, alpha) is None
        other = heston._damped_values(cf, side_ks, -1.0 - alpha)
        for i, k, o in zip(side, side_ks, other):
            assert tv[i] == pytest.approx(o - abs(1.0 - math.exp(k)), abs=1e-12)
            mine = heston_vanilla_price(
                params, AssetSpec(lam=1.0, rho_sv=rho_sv, s0=100.0), strikes[i], T)
            assert mine == pytest.approx(
                gil_pelaez_call(100.0, strikes[i], params, rho_sv, T), rel=1e-9)

    # E[S_T^1.75] and E[S_T^-0.75] are both infinite here, so neither side's
    # damping can price; the Lewis contour can, and quad on two of its alphas agrees
    @pytest.mark.parametrize("args", [
        (0.5, 0.25, 2.0, 0.16, 0.0, 2.0),
        (0.172, 0.172 * 0.0836, 2.944, 0.0032, 0.68, 1.47),
    ])
    def test_both_damping_moments_exploding_price_on_the_lewis_contour(self, args):
        cf = lambda u: _cf_log_return(u, *args)
        for alpha in (heston._DAMPING_ALPHA, -1.0 - heston._DAMPING_ALPHA):
            assert heston._damped_values(cf, [0.0], alpha) is None
        ks = (-0.2, 0.0, 0.2)
        for k, tv in zip(ks, heston._time_values(*args, ks)):
            call = tv + max(1.0 - math.exp(k), 0.0)
            for alpha in (-0.3, -0.7):
                assert call == pytest.approx(lewis_call(args, k, alpha), abs=1e-12)

    def test_lewis_contour_prices_the_spot_vanilla(self):
        params = HestonParams(kappa=0.5, theta=0.5, nu=2.0, sigma0=0.4)
        call = heston_vanilla_price(params, AssetSpec(lam=1.0, rho_sv=0.0, s0=100.0), 100.0, 2.0)
        assert call == pytest.approx(21.9900322277, abs=1e-9)

    def test_unconverged_side_is_priced_on_the_next_contour(self):
        # the put side's moment is finite, but its quadrature at k -0.2 does not converge
        args = (0.5217632164305207, 0.1816893146557375, 0.5793569998777995,
                0.2508510903629218, -0.593059671365736, 6.343519605591198)
        cf = lambda u: _cf_log_return(u, *args)
        with pytest.raises(NumericalError, match="quadrature not converged"):
            heston._damped_values(cf, [-0.2], -1.0 - heston._DAMPING_ALPHA)
        put = heston._time_values(*args, (-0.2,))[0]
        call = put + 1.0 - math.exp(-0.2)
        assert call == pytest.approx(lewis_call(args, -0.2, -0.5), abs=1e-12)

    def test_no_contour_pricing_raises(self, monkeypatch):
        monkeypatch.setattr(heston, "_damped_values", lambda cf, ks, alpha: None)
        with pytest.raises(NumericalError, match=r"every damping moment explodes at kappa=0\.5"):
            heston._time_values(0.5, 0.25, 2.0, 0.16, 0.0, 2.0, (0.0,))

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


@st.composite
def pchip_cases(draw):
    """(knots, vols, interior reads) of 2 to 41 knots: vols drawn from a few
    levels make flat runs and sign changes of the secants."""
    n = draw(st.integers(2, 41))
    gaps = draw(st.lists(st.floats(1e-3, 0.2), min_size=n - 1, max_size=n - 1))
    z = np.cumsum([draw(st.floats(-1.0, 0.0)), *gaps]).tolist()
    levels = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=n))
    vols = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    inside = draw(st.lists(st.floats(z[0], z[-1]), min_size=1, max_size=30))
    return z, vols, inside


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

    def test_array_read_equals_scalar_reads_bit_for_bit(self, case1_model):
        # the trimmed Y leg: its knots, between them and beyond both ends
        smile = build_smile_grid(BASE_PARAMS, case1_model.asset_y, 0.05, asset_id="Y")
        lo, hi = smile.z_bounds
        z = np.concatenate((smile.log_moneyness, np.linspace(lo - 0.3, hi + 0.3, 57),
                            [lo - 1e-12, lo + 1e-12, hi - 1e-12, hi + 1e-12]))
        vols = smile.vol_at_moneyness(z)
        assert isinstance(vols, np.ndarray) and vols.shape == z.shape
        scalars = [smile.vol_at_moneyness(float(v)) for v in z]
        assert all(type(v) is float for v in scalars)
        assert vols.tobytes() == np.array(scalars).tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=pchip_cases())
    @example(case=([-0.1, 0.2], [0.3, 0.2], [0.05]))  # two knots: a line
    @example(case=([-0.1, 0.0, 0.15], [0.25, 0.2, 0.22], [-0.05, 0.1]))  # slope sign change
    @example(case=([0.0, 0.1, 0.2], [0.2, 0.201, 0.101], [0.03]))  # end slope capped at 3 m0
    @example(case=([0.0, 0.1, 0.2], [0.2, 0.201, 0.301], [0.03]))  # end slope set to 0
    @example(case=([-0.3, -0.2, -0.1, 0.0, 0.1, 0.2],
                   [0.3, 0.3, 0.3, 0.25, 0.25, 0.28], [-0.25, -0.05, 0.15]))  # flat runs
    def test_reads_equal_scipy_pchip_bit_for_bit(self, case):
        z, vols, inside = case
        lo, hi = z[0], z[-1]
        reads = np.array([*z, *inside, *np.nextafter(z, math.inf), *np.nextafter(z, -math.inf),
                          lo - 0.5, hi + 0.5])
        oracle = PchipInterpolator(z, vols, extrapolate=False)(np.clip(reads, lo, hi))
        smile = Smile("X", 100.0, 0.5, z, vols)
        assert smile.vol_at_moneyness(reads).tobytes() == oracle.tobytes()
        scalars = np.array([smile.vol_at_moneyness(float(r)) for r in reads])
        assert scalars.tobytes() == oracle.tobytes()

    def test_unresolvable_wings_trimmed(self, case1_model):
        # the thin right wing of the Y leg cannot be inverted at T=0.05
        smile = build_smile_grid(BASE_PARAMS, case1_model.asset_y, 0.05, asset_id="Y")
        assert smile.z_bounds[1] < math.log(1.3)
        assert smile.z_bounds[0] == pytest.approx(math.log(0.7))

    @pytest.mark.parametrize("leg, T", [("Y", 3e-4), ("X", 1e-4), ("Y", 1e-4)])
    def test_one_resolvable_knot_is_a_domain_error(self, case1_model, leg, T):
        # a smile needs two knots: one resolvable strike is a maturity too
        # short for the grid, not a malformed input
        with pytest.raises(DomainError, match=rf"^1 of 41 strikes .* at T={T}; a smile needs two"):
            build_smile_grid(BASE_PARAMS, case1_model.asset(leg), T, asset_id=leg)

    def test_build_smile_propagates_failures(self, case1_model):
        # far beyond the resolvable wing the inversion must raise, not skip
        with pytest.raises(DomainError):
            build_smile(BASE_PARAMS, case1_model.asset_y, 0.05, [X100 + 0.5])

    def test_build_smile_refuses_unresolvable_time_value(self):
        # time value 1.45e-14 of spot: the inversion used to stop at its seed 0.5
        params = HestonParams(kappa=1.792, theta=0.0605, nu=0.864, sigma0=0.207)
        asset = AssetSpec(lam=0.844, rho_sv=0.0016, s0=100.0)
        with pytest.raises(DomainError, match=r"log strikes \[.*\], T=1\.0"):
            build_smile(params, asset, 1.0, [X100 - 4.51])

    def test_smile_csv_schema(self, case1_model):
        smile = build_smile_grid(BASE_PARAMS, case1_model.asset_x, 0.05, asset_id="X")
        rows = smile_csv_rows(smile)
        assert set(rows[0]) == {"asset", "T", "log_strike", "strike", "implied_vol"}
        strikes = [r["strike"] for r in rows]
        assert strikes == sorted(strikes)

    def test_smile_knot_validation(self):
        with pytest.raises(InputError):
            Smile("X", 100.0, 0.5, [0.0, 0.0], [0.2, 0.2])

    @pytest.mark.parametrize("s0, T, z, match", [
        (100.0, 0.5, [-0.1, math.nan, 0.1], "knots must be finite"),
        (100.0, 0.5, [-0.1, 0.0, math.inf], "knots must be finite"),
        (math.nan, 0.5, [-0.1, 0.0, 0.1], "s0 must be positive"),
        (-5.0, 0.5, [-0.1, 0.0, 0.1], "s0 must be positive"),
        (0.0, 0.5, [-0.1, 0.0, 0.1], "s0 must be positive"),
        (math.inf, 0.5, [-0.1, 0.0, 0.1], "s0 must be positive"),
        (100.0, -1.0, [-0.1, 0.0, 0.1], "T must be positive"),
        (100.0, 0.0, [-0.1, 0.0, 0.1], "T must be positive"),
        (100.0, math.nan, [-0.1, 0.0, 0.1], "T must be positive"),
    ])
    def test_smile_refuses_non_finite_knots_spot_and_maturity(self, s0, T, z, match):
        with pytest.raises(InputError, match=match):
            Smile("X", s0, T, z, [0.25, 0.2, 0.22])

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_moneyness_rejected(self, z):
        smile = Smile("X", 100.0, 0.5, [-0.1, 0.0, 0.1], [0.25, 0.2, 0.22])
        for read in (z, np.array([0.0, z])):
            with pytest.raises(InputError, match="log-moneyness must be finite"):
                smile.vol_at_moneyness(read)


class TestObservables:
    def test_degenerate_skews_vanish(self, atm_observables):
        frozen = HestonParams(kappa=5.0, theta=0.0225, nu=1e-4, sigma0=0.15)
        ax = AssetSpec(lam=1.0, rho_sv=-0.5, s0=100.0)
        ay = AssetSpec(lam=1.3, rho_sv=0.5, s0=100.0)
        obs = atm_observables(frozen, ax, ay, 0.25)
        assert abs(obs.skew_x) < 1e-3
        assert abs(obs.skew_y) < 1e-3

    def test_short_time_levels(self, atm_observables):
        # ATM implied vol -> lam sigma0 as T -> 0
        ax = AssetSpec(lam=1.5, rho_sv=-0.4, s0=100.0)
        ay = AssetSpec(lam=1.0, rho_sv=-0.6, s0=100.0)
        obs = atm_observables(BASE_PARAMS, ax, ay, 0.005)
        assert obs.level_x == pytest.approx(1.5 * 0.15, abs=0.01)
        assert obs.level_y == pytest.approx(0.15, abs=0.01)

    def test_short_time_skews(self, atm_observables):
        # ATM skew -> rho_i nu / (4 sigma0), independent of lam
        ax = AssetSpec(lam=1.5, rho_sv=-0.4, s0=100.0)
        ay = AssetSpec(lam=1.0, rho_sv=-0.6, s0=100.0)
        obs = atm_observables(BASE_PARAMS, ax, ay, 0.005)
        lim_x = -0.4 * 0.5 / (4.0 * 0.15)
        lim_y = -0.6 * 0.5 / (4.0 * 0.15)
        assert abs(obs.skew_x - lim_x) <= 0.15 * abs(lim_x)
        assert abs(obs.skew_y - lim_y) <= 0.15 * abs(lim_y)

    def test_short_time_skew_ratio(self, atm_observables):
        ax = AssetSpec(lam=1.5, rho_sv=-0.4, s0=100.0)
        ay = AssetSpec(lam=1.0, rho_sv=0.4, s0=100.0)
        obs = atm_observables(BASE_PARAMS, ax, ay, 0.005)
        ratio = obs.skew_y / obs.skew_x
        assert abs(ratio - (0.4 / -0.4)) <= 0.10 * abs(0.4 / -0.4)

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

    def test_no_resolvable_window_raises(self, case1_model):
        # even the tightest rung's wings fall below MIN_TIME_VALUE this short
        with pytest.raises(DomainError, match=r"no shrink of window .* at T=2e-05"):
            measure_smile_observables(
                BASE_PARAMS, case1_model.asset_x, case1_model.asset_y, 2e-5
            )

    def test_rung_whose_inversion_raises_gives_way_to_the_next(self, case1_model, monkeypatch):
        m, invert, calls = case1_model, blackscholes._implied_vols, []

        def first_raises(prices, x, ks, T):
            calls.append(list(ks))
            if len(calls) == 1:
                raise NumericalError("first rung")
            return invert(prices, x, ks, T)

        monkeypatch.setattr(blackscholes, "_implied_vols", first_raises)
        obs = measure_smile_observables(m.heston, m.asset_x, m.asset_y, 0.05)
        lo, hi = heston.CONVENTION_SKEW_WINDOW
        factor = heston.WINDOW_SHRINK_LADDER[1]
        assert len(calls) == 2 and obs.window == (factor * lo, factor * hi)
        assert obs == own_rung_observables(m.heston, m.asset_x, m.asset_y, 0.05, obs.window)

    def test_every_rung_raising_chains_the_last_inversion_error(self, case1_model, monkeypatch):
        m, errors = case1_model, []

        def always_raises(prices, x, ks, T):
            errors.append(DomainError(f"rung {len(errors)}"))
            raise errors[-1]

        monkeypatch.setattr(blackscholes, "_implied_vols", always_raises)
        with pytest.raises(DomainError, match=r"no shrink of window .* at T=0\.05") as err:
            measure_smile_observables(m.heston, m.asset_x, m.asset_y, 0.05)
        assert len(errors) == len(heston.WINDOW_SHRINK_LADDER)
        assert err.value.__cause__ is errors[-1]


def paper_grid_triples(spec):
    """The valid (rho, rho_X, rho_Y) triples of a grid, in grid order."""
    return [
        (rho, rx, ry) for rho in spec.rho_list for rx in spec.rho_x_list for ry in spec.rho_y_list
        if validate_correlation(CorrelationStructure(rho, rx, ry))[0]
    ]


# the default-grid points ((rho, rho_X, rho_Y), T, S0Y) whose quadrature
# noise reads below zero, down to -1.38e-12 at (0.9, -0.42, -0.01), T 0.05, S0Y 112
NOISE_BELOW_ZERO = [
    ((0.1, -0.72, 0.59), 0.05, 120.0), ((0.7, -0.12, 0.59), 0.05, 112.0),
    ((0.7, -0.12, 0.59), 0.05, 116.0), ((0.7, -0.12, 0.59), 0.05, 120.0),
    ((0.9, -0.42, -0.01), 0.05, 112.0), ((0.9, -0.12, 0.29), 0.05, 112.0),
    ((0.9, -0.12, 0.29), 0.05, 120.0), ((0.9, -0.12, 0.29), 0.1, 120.0),
    ((0.9, 0.18, 0.59), 0.05, 108.0), ((0.9, 0.18, 0.59), 0.05, 112.0),
    ((0.9, 0.18, 0.59), 0.05, 116.0), ((0.9, 0.18, 0.59), 0.1, 112.0),
    ((0.9, 0.18, 0.59), 0.5, 120.0),
]


class TestExchangeOraclePrice:
    def test_prices_never_below_zero_or_intrinsic(self):
        # 300 seeded default-grid points and the points of NOISE_BELOW_ZERO; in
        # the money, s0x (tv + 1 - e^k) may round one ulp of 20 below intrinsic
        spec, rng = GridSpec(), np.random.default_rng(25)
        triples = paper_grid_triples(spec)
        points = [
            (triples[rng.integers(len(triples))], spec.T_list[rng.integers(len(spec.T_list))],
             spec.s0y_list[rng.integers(len(spec.s0y_list))])
            for _ in range(300)
        ]
        for triple, T, s0y in points + NOISE_BELOW_ZERO:
            model = TwoAssetModel(
                heston=spec.heston, lam_x=spec.lam_x, lam_y=spec.lam_y, s0x=spec.s0x,
                s0y=s0y, corr=CorrelationStructure(*triple),
            )
            price = exchange_option_price(model, T)
            assert price >= 0.0
            assert price >= max(model.s0x - s0y, 0.0) - 1e-13 * model.s0x

    def test_matches_mc(self, case2_model):
        mc = McConfig(n_paths=200_000, n_steps=2000, seed=13)
        est = simulate_exchange(case2_model, 0.05, mc)
        exact = exchange_option_price(case2_model, 0.05)
        assert abs(est.value - exact) <= 3.0 * est.stderr

    def test_slowly_decaying_price_within_bounds(self):
        # the ratio asset at (0.9, 0.18, 0.59), T 0.1: a cut-off probed on the
        # oscillating integrand stopped one doubling early and priced -7.4e-11
        spec = GridSpec()
        model = TwoAssetModel(
            heston=spec.heston, lam_x=spec.lam_x, lam_y=spec.lam_y, s0x=spec.s0x,
            s0y=107.67528509780341, corr=CorrelationStructure(rho=0.9, rho_x=0.18, rho_y=0.59),
        )
        assert exchange_option_price(model, 0.1) >= -1e-13 * model.s0x

    def test_rejects_invalid_correlations(self, case1_model):
        from dataclasses import replace
        from exchopt.models import CorrelationStructure

        with pytest.raises(DomainError):
            bad = replace(
                case1_model, corr=CorrelationStructure(rho=0.9, rho_x=-0.72, rho_y=0.59)
            )
            exchange_option_price(bad, 0.05)

    def test_identical_legs_pay_intrinsic(self, case1_model):
        from dataclasses import replace
        from exchopt.models import CorrelationStructure

        same = replace(
            case1_model, lam_x=1.2, lam_y=1.2,
            corr=CorrelationStructure(rho=1.0, rho_x=0.3, rho_y=0.3),
        )
        for s0y, intrinsic in ((90.0, 10.0), (100.0, 0.0), (110.0, 0.0)):
            assert exchange_option_price(replace(same, s0y=s0y), 0.05) == intrinsic

    # exchange parity C(X, Y) - C(Y, X) = S0X - S0Y: the swapped model prices a
    # different ratio asset (drift rate kappa - nu lam_X rho_X, the opposite
    # spot-vol correlation, the opposite log-strike), so parity checks the
    # change of numeraire and the kernel at a second model, with no reference quadrature
    @staticmethod
    def parity_prices(heston_params, lam_x, lam_y, s0x, s0y, rho, rho_x, rho_y, T):
        """(C(X, Y), C(Y, X)): the exchange price and that of the swapped model."""
        return tuple(
            exchange_option_price(TwoAssetModel(heston_params, l1, l2, s1, s2,
                                                CorrelationStructure(rho, r1, r2)), T)
            for l1, l2, s1, s2, r1, r2 in ((lam_x, lam_y, s0x, s0y, rho_x, rho_y),
                                           (lam_y, lam_x, s0y, s0x, rho_y, rho_x))
        )

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_parity_on_the_default_grid(self, data):
        spec = GridSpec()
        triple = data.draw(st.sampled_from(paper_grid_triples(spec)))
        T, s0y = data.draw(st.sampled_from(spec.T_list)), data.draw(st.sampled_from(spec.s0y_list))
        c_xy, c_yx = self.parity_prices(
            spec.heston, spec.lam_x, spec.lam_y, spec.s0x, s0y, *triple, T)
        assert abs(c_xy - c_yx - (spec.s0x - s0y)) <= 1e-12 * spec.s0x

    # the heston domain of test_wide_domain_within_bounds_and_on_the_lewis_contour
    # up to T 2.  Here 1e-12 of spot does not hold (4.3e-12 was seen at T 0.41),
    # so the bound is the kernel's own: each time value to within
    # max(_ABS_TOL, _REL_TOL tv) of spot.  Random draws at T 4-10 miss even that,
    # by up to 9x (an open defect of the kernel's stopping rule at long T)
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        kappa=st.floats(0.05, 10.0), theta=st.floats(0.005, 1.0), nu=st.floats(0.05, 3.0),
        v0=st.floats(0.001, 1.0), T=st.floats(0.002, 2.0), lam_x=st.floats(0.5, 2.0),
        lam_y=st.floats(0.5, 2.0), rho=st.floats(-0.99, 0.99), rho_x=st.floats(-0.99, 0.99),
        rho_y=st.floats(-0.99, 0.99), s0y=st.floats(50.0, 150.0),
    )
    def test_parity_over_the_wide_domain(
        self, kappa, theta, nu, v0, T, lam_x, lam_y, rho, rho_x, rho_y, s0y
    ):
        assume(validate_correlation(CorrelationStructure(rho, rho_x, rho_y))[0])
        params = HestonParams(kappa=kappa, theta=theta, nu=nu, sigma0=math.sqrt(v0))
        s0x = 100.0
        c_xy, c_yx = self.parity_prices(params, lam_x, lam_y, s0x, s0y, rho, rho_x, rho_y, T)
        tol = sum(max(heston._ABS_TOL * s0, heston._REL_TOL * (c - max(s0 - s1, 0.0)))
                  for c, s0, s1 in ((c_xy, s0x, s0y), (c_yx, s0y, s0x)))
        assert abs(c_xy - c_yx - (s0x - s0y)) <= tol

    # as nu -> 0 the variance path is deterministic, and the exact price tends
    # to Margrabe at the ratio asset's integrated variance
    # lam_U^2 (theta T + (v0 - theta)(1 - e^(-kappa T)) / kappa), with a gap
    # linear in nu: it shrinks tenfold from nu 1e-5 to 1e-6 (the ratio that
    # strays most, case 2 at T 0.05 and S0Y 100, reads 10.0047)
    @pytest.mark.parametrize("case_id", [1, 2])
    @pytest.mark.parametrize("T", [0.05, 1.0])
    @pytest.mark.parametrize("s0y", [90.0, 100.0, 110.0])
    def test_deterministic_variance_limit_is_margrabe(self, case_id, T, s0y):
        from dataclasses import replace

        from exchopt import margrabe

        gaps = []
        for nu in (1e-5, 1e-6):
            model = reference_case_model(case_id)
            model = replace(model, s0y=s0y, heston=replace(model.heston, nu=nu))
            h = model.heston
            lam_u = margrabe.convention_gamma(model.lam_x, model.lam_y, model.rho)
            w = h.theta * T + (h.v0 - h.theta) * -math.expm1(-h.kappa * T) / h.kappa
            limit = margrabe.margrabe_price(
                math.log(model.s0x), math.log(s0y), lam_u * math.sqrt(w / T), T)
            gaps.append(exchange_option_price(model, T) - limit)
        assert gaps[0] / gaps[1] == pytest.approx(10.0, rel=1e-3)


# sha256 of the kernel's bits: the quote batch (41 smile knots, then the
# first-rung window strikes) of both legs of both reference cases at T 0.05,
# 0.25 and 1.0, then exchange_option_price at 20 paper-grid points spread over
# every maturity, triple and S0Y; a change that alters these bits records the
# new digest and says why
KERNEL_DIGEST = "4f1c893e03fed1b8df6c03d966c2ae1c44a854997a858d2ee9249e63b061bb9a"


def kernel_digest_values():
    values = []
    for case in (1, 2):
        m = reference_case_model(case)
        for T in (0.05, 0.25, 1.0):
            for asset in (m.asset_x, m.asset_y):
                args = heston._leg_args(m.heston, asset)
                values.extend(heston._time_values(*args, T, heston._QUOTE_STRIKES))
    spec = GridSpec()
    triples = paper_grid_triples(spec)
    for i in range(20):
        model = TwoAssetModel(
            heston=spec.heston, lam_x=spec.lam_x, lam_y=spec.lam_y, s0x=spec.s0x,
            s0y=spec.s0y_list[3 * i % len(spec.s0y_list)],
            corr=CorrelationStructure(*triples[37 * i % len(triples)]),
        )
        values.append(exchange_option_price(model, spec.T_list[i % len(spec.T_list)]))
    return np.array(values)


class TestFourierKernel:
    def test_kernel_bits_pinned(self):
        digest = hashlib.sha256(kernel_digest_values().tobytes()).hexdigest()
        assert digest == KERNEL_DIGEST

    @settings(max_examples=15, deadline=None, derandomize=True)
    @leg_models
    def test_batch_equals_one_strike_at_a_time(self, **leg):
        # the smile knots in either order, and with the first-rung window
        # strikes (lo, 0, hi) of the observables appended
        args = leg_kernel(**leg)
        lo, hi = heston.CONVENTION_SKEW_WINDOW
        knots = tuple(GRID_Z.tolist())
        knots_and_window = (*knots, lo, 0.0, hi)
        single = {z: heston._time_values(*args, (z,))[0] for z in knots_and_window}
        for zs in (knots, knots[::-1], knots_and_window):
            assert np.array_equal(heston._time_values(*args, zs), [single[z] for z in zs])

    @settings(max_examples=10, deadline=None, derandomize=True)
    @leg_models
    def test_panel_table_cold_warm_or_evicting_give_the_same_bits(self, **leg):
        args, zs = leg_kernel(**leg), heston._QUOTE_STRIKES
        heston._time_values.cache_clear()  # each example's cold pass fills the table
        heston._panel_row.cache_clear()
        cold = heston._time_values(*args, zs)
        rows = heston._panel_row.cache_info().misses
        heston._time_values.cache_clear()  # the panel table, not the kernel memo, serves warm
        warm = heston._time_values(*args, zs)
        if rows <= heston._ROW_MEMO:  # the whole batch fits: every row is read back
            assert heston._panel_row.cache_info().misses == rows
        # a table held at its maxsize: every miss evicts a row of the same batch
        with pytest.MonkeyPatch.context() as mp:
            small = functools.lru_cache(maxsize=8)(heston._panel_row.__wrapped__)
            mp.setattr(heston, "_panel_row", small)
            heston._time_values.cache_clear()
            evicting = heston._time_values(*args, zs)
            assert small.cache_info().currsize == 8
        assert cold.tobytes() == warm.tobytes() == evicting.tobytes()

    def test_panel_table_stays_bounded_over_many_strikes(self):
        # 4000 distinct log-strikes, each a new row in every chunk it is read in
        args = leg_kernel(1.5, 0.15, 0.5, 0.15, 1.0, -0.6, 1.0)
        batches = np.linspace(-0.5, 0.5, 4000).reshape(40, 100)
        heston._panel_row.cache_clear()
        peaks = []
        tracemalloc.start()
        try:
            for half in (batches[:20], batches[20:]):
                tracemalloc.reset_peak()
                for ks in half:
                    heston._time_values(*args, tuple(ks.tolist()))
                peaks.append(tracemalloc.get_traced_memory()[1])
            info, held = heston._panel_row.cache_info(), tracemalloc.get_traced_memory()[0]
            heston._panel_row.cache_clear()
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert info.misses > 2 * heston._ROW_MEMO and info.currsize == heston._ROW_MEMO
        # a row of a full 128-panel chunk holds 2.4 KiB of values; the second
        # 2000 strikes peak no higher than the first (a table holding every
        # row holds several MiB more)
        assert held < heston._ROW_MEMO * 3 * 2**10
        assert peaks[1] - peaks[0] < 64 * 2**10

    @pytest.mark.parametrize("alpha", [heston._DAMPING_ALPHA, -1.0 - heston._DAMPING_ALPHA])
    def test_panel_phases_match_the_node_form(self, alpha):
        # the level at upper 409600 (1.5e5 rad at |k| 0.36) of a slowly decaying
        # leg, whose integrand is still nonzero at its far panels
        cf = lambda u: _cf_log_return(u, 1.0, 1e-4, 1.0, 1e-4, -0.5, 0.05)
        ks = np.array([-0.36, -0.05, 0.0, 0.05, 0.36])
        upper, n_panels = 409_600.0, 102_400
        half = 0.5 * upper / n_panels
        firsts = np.arange(1, 2 * n_panels, 2)  # each panel's midpoint over half
        panel, node, size = np.zeros((3, ks.size))
        eps = np.finfo(float).eps
        for first in np.array_split(firsts, n_panels // heston._CHUNK_PANELS):
            mid = half * first
            u = mid[:, None] + half * heston._GL_X[None, :]
            den = alpha * alpha + alpha - u * u + 1j * (2.0 * alpha + 1.0) * u
            f = cf(u - (alpha + 1.0) * 1j) / den
            uk = np.multiply.outer(ks, u)
            terms = heston._GL_W * (np.cos(uk) * f.real + np.sin(uk) * f.imag)
            by_panel = np.array(heston._panel_sums(f, int(first[0]), half, ks))
            by_node = terms.sum(axis=(1, 2))
            # within a chunk, the phase uk itself carries eps |uk| of rounding
            cond = (heston._GL_W * np.abs(f) * (1.0 + np.abs(uk))).sum(axis=(1, 2))
            assert np.all(np.abs(by_panel - by_node) <= 4.0 * eps * cond)
            panel, node, size = panel + by_panel, node + by_node, size + np.abs(terms).sum(axis=(1, 2))
        assert half * firsts[-1] * ks.max() > 1e5
        assert np.all(np.abs(panel - node) <= 4.0 * eps * size)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @leg_models
    def test_calls_decreasing_convex_and_within_bounds(self, **leg):
        strikes = np.exp(GRID_Z)  # unit spot; the grid straddles the k = 0 side switch
        tv = heston._time_values(*leg_kernel(**leg), tuple(GRID_Z.tolist()))
        calls = tv + np.maximum(1.0 - strikes, 0.0)
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

    # the wide domain: low kappa, large nu and long T explode damping moments,
    # which the paper-range strategies above never reach
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        kappa=st.floats(0.05, 10.0), theta=st.floats(0.005, 1.0), nu=st.floats(0.05, 3.0),
        v0=st.floats(0.001, 1.0), rho_sv=st.floats(-0.99, 0.99), T=st.floats(0.002, 10.0),
    )
    def test_wide_domain_within_bounds_and_on_the_lewis_contour(
        self, kappa, theta, nu, v0, rho_sv, T
    ):
        args, ks = (kappa, kappa * theta, nu, v0, rho_sv, T), np.array([-0.2, 0.0, 0.2])
        tv = heston._time_values(*args, tuple(ks.tolist()))
        assert np.all(tv >= -5e-13)
        assert np.all(tv <= np.minimum(1.0, np.exp(ks)))  # a call below spot, a put below strike
        assert tv[1] == pytest.approx(lewis_call(args, 0.0, -0.5), abs=1e-9)

    def test_unconverged_quadrature_names_strikes_and_effort(self, monkeypatch):
        monkeypatch.setattr(heston, "_MAX_REFINE", 0)
        asset = AssetSpec(lam=1.0, rho_sv=-0.6, s0=100.0)
        with pytest.raises(NumericalError) as err:
            heston._time_values(*heston._leg_args(BASE_PARAMS, asset), 0.05, (0.0, 0.1))
        msg = str(err.value)
        assert "log-strikes [0.0, 0.1]" in msg
        for field in ("upper=", "panels=", "last delta="):
            assert field in msg

    def test_unbounded_tail_names_strikes_and_cutoff(self, monkeypatch):
        monkeypatch.setattr(heston, "_TAIL_TOL", 0.0)
        # slow decay: the integrand stays above zero out to u = 3.3e6, so the
        # search stops at its cap instead of building panels
        args = (1.0, 1e-4, 1.0, 1e-4, -0.5, 1.0)
        # both sides fail, so the message names the one Lewis batch, in input order
        message = r"u=3276800\.0 at log-strikes \[-0\.05, 0\.05\]"
        with pytest.raises(NumericalError, match=message):
            heston._time_values(*args, (-0.05, 0.05))

    def test_rejects_non_finite_strikes_and_maturity(self):
        args = leg_kernel(1.5, 0.15, 0.5, 0.15, 1.0, -0.6, 0.5)
        with pytest.raises(InputError):
            heston._time_values(*args, (0.0, math.nan))
        with pytest.raises(InputError):
            heston._time_values(*args[:-1], 0.0, (0.0,))

    def test_clog1p_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20070101)
        r = np.exp(rng.uniform(math.log(1e-12), math.log(0.5), 4000))
        w = r * np.exp(1j * rng.uniform(-math.pi, math.pi, r.size))
        got = heston._clog1p(w)
        worst = 0.0
        with mpmath.workdps(50):
            for wi, gi in zip(w, got):
                exact = mpmath.log(1 + mpmath.mpc(wi.real, wi.imag))
                err = abs(mpmath.mpc(gi.real, gi.imag) - exact) / abs(exact)
                worst = max(worst, float(err))
        assert worst <= 1e-15

    def test_slowly_decaying_exchange_price_stays_small_in_memory(self):
        # the ratio asset at (0.9, 0.18, 0.59), T 0.1 integrates out to a far
        # cut-off over 10^5 nodes a level; chunks of whole panels keep each
        # array at a few thousand nodes
        spec = GridSpec()
        model = TwoAssetModel(
            heston=spec.heston, lam_x=spec.lam_x, lam_y=spec.lam_y, s0x=spec.s0x,
            s0y=100.0, corr=CorrelationStructure(rho=0.9, rho_x=0.18, rho_y=0.59),
        )
        tracemalloc.start()
        try:
            exchange_option_price(model, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


@pytest.fixture()
def kernel_passes(monkeypatch):
    """Arguments (leg, T, strikes) of every Fourier kernel pass: each miss of a
    memo of the kernel memo's size, which stands in for it."""
    passes, kernel = [], heston._time_values.__wrapped__

    def spy(*args):
        passes.append(args)
        return kernel(*args)

    memo = functools.lru_cache(maxsize=heston._KERNEL_MEMO)(spy)
    monkeypatch.setattr(heston, "_time_values", memo)
    return passes


@pytest.fixture()
def side_passes(monkeypatch):
    """Damping contour of every ``_damped_values`` call: one per side priced."""
    alphas, damped = [], heston._damped_values

    def spy(cf, ks, alpha):
        alphas.append(alpha)
        return damped(cf, ks, alpha)

    monkeypatch.setattr(heston, "_damped_values", spy)
    return alphas


@pytest.fixture()
def inversions(monkeypatch):
    """Batch size of every batch inversion, and the arguments of every scalar
    implied_vol call."""
    calls = {"batch": [], "scalar": []}
    batch, scalar = blackscholes._implied_vols, blackscholes.implied_vol

    def batch_spy(prices, x, ks, T):
        calls["batch"].append(len(ks))
        return batch(prices, x, ks, T)

    def scalar_spy(*args):
        calls["scalar"].append(args)
        return scalar(*args)

    monkeypatch.setattr(blackscholes, "_implied_vols", batch_spy)
    monkeypatch.setattr(blackscholes, "implied_vol", scalar_spy)
    return calls


def own_rung_observables(params, asset_x, asset_y, T, window):
    """Observables over ``window`` with each leg's (lo, 0, hi) priced as its own
    3-strike kernel call and inverted one strike at a time by implied_vol."""
    lo, hi = window
    levels, skews = [], []
    for asset in (asset_x, asset_y):
        zs = (lo, 0.0, hi)
        tv = heston._time_values(*heston._leg_args(params, asset), T, zs)
        dn, atm, up = (implied_vol(t + max(1.0 - math.exp(z), 0.0), 0.0, z, T)
                       for t, z in zip(tv, zs))
        levels.append(atm)
        skews.append((up - dn) / (hi - lo))
    return SmileObservables(levels[0], levels[1], skews[0], skews[1], T, window)


def assert_cold_and_warm_observables_match_own_rung(params, asset_x, asset_y, T):
    heston._time_values.cache_clear()
    cold = measure_smile_observables(params, asset_x, asset_y, T)
    heston._time_values.cache_clear()
    for asset in (asset_x, asset_y):
        build_smile_grid(params, asset, T)
    warm = measure_smile_observables(params, asset_x, asset_y, T)
    assert cold == warm == own_rung_observables(params, asset_x, asset_y, T, cold.window)


class TestLegQuote:
    @pytest.mark.parametrize("T", [0.05, 1.0])
    def test_quote_path_prices_each_leg_in_one_kernel_call(self, kernel_passes, case1_model, T):
        # the calls of `exchopt price exchange --convention a-star`
        m = case1_model
        measure_smile_observables(m.heston, m.asset_x, m.asset_y, T)
        for asset in (m.asset_x, m.asset_y):
            build_smile_grid(m.heston, asset, T)
        assert [ks for *_, ks in kernel_passes] == [heston._QUOTE_STRIKES] * 2

    @pytest.mark.parametrize("T", [0.05, 1.0])
    def test_quote_path_inverts_one_batch_per_smile_and_rung(self, inversions, case1_model, T):
        # the calls of `exchopt price exchange --convention a-star`: both legs'
        # (lo, 0, hi) of the first rung, then each leg's kept smile knots
        m = case1_model
        measure_smile_observables(m.heston, m.asset_x, m.asset_y, T)
        smiles = [build_smile_grid(m.heston, asset, T) for asset in (m.asset_x, m.asset_y)]
        assert inversions["scalar"] == []
        assert inversions["batch"] == [6, *(len(smile.vols) for smile in smiles)]

    def test_sweep_prices_each_leg_and_maturity_in_one_kernel_call(
        self, kernel_passes, side_passes, monkeypatch
    ):
        # the default grid's smiles and observables, with its Monte Carlo
        # stubbed out so every benchmark price reads as sub-cent
        monkeypatch.setattr(experiments, "simulate_terminal", lambda model, T, mc: None)
        monkeypatch.setattr(experiments, "exchange_estimate_from_sample",
                            lambda sample, s0x, s0y: PriceEstimate(0.0, 0.0, 0, 0, beta=1.0))
        spec = GridSpec()
        experiments.run_grid(spec)
        batches = [ks for *_, ks in kernel_passes]
        lo, hi = heston.CONVENTION_SKEW_WINDOW
        later_rungs = [(f * lo, 0.0, f * hi) for f in heston.WINDOW_SHRINK_LADDER[1:]]
        legs = len(spec.T_list) * (len(spec.rho_x_list) + len(spec.rho_y_list))
        assert batches.count(heston._QUOTE_STRIKES) == legs
        assert all(ks == heston._QUOTE_STRIKES or ks in later_rungs for ks in batches)
        # no batch of one leg and maturity is priced twice: a later rung that
        # several correlation triples walk is read back from the memo
        assert len(set(kernel_passes)) == len(kernel_passes)
        assert len(side_passes) <= 112

    def test_memo_stays_bounded_over_many_legs(self):
        # legs a hair apart: each is a new entry, with the same quadrature effort
        legs = [AssetSpec(lam=1.0 + 1e-6 * i, rho_sv=-0.6, s0=100.0) for i in range(100)]
        peaks = []
        tracemalloc.start()
        try:
            for half in (legs[:50], legs[50:]):
                tracemalloc.reset_peak()
                for asset in half:
                    heston._time_values(
                        *heston._leg_args(BASE_PARAMS, asset), 1.0, heston._QUOTE_STRIKES)
                peaks.append(tracemalloc.get_traced_memory()[1])
            info, held = heston._time_values.cache_info(), tracemalloc.get_traced_memory()[0]
            heston._time_values.cache_clear()
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert info.misses == 100 and info.maxsize == heston._KERNEL_MEMO
        assert info.currsize <= heston._KERNEL_MEMO
        # the memo frees what it holds: at most _KERNEL_MEMO entries of about
        # 0.7 KiB; the second 50 legs peak no higher than the first (a memo
        # holding all 100 legs holds 62 KiB and peaks 36-44 KiB higher)
        assert held < heston._KERNEL_MEMO * 2**10
        assert peaks[1] - peaks[0] < 16 * 2**10

    def test_quote_is_read_only_and_shared_across_spots(self, case1_model):
        from dataclasses import replace

        def quote(asset):
            return heston._time_values(
                *heston._leg_args(BASE_PARAMS, asset), 0.05, heston._QUOTE_STRIKES)

        asset = case1_model.asset_x
        tv = quote(asset)
        with pytest.raises(ValueError):
            tv[0] = 0.0
        assert quote(replace(asset, s0=80.0)) is tv

    @pytest.mark.parametrize("T", [0.005, 1.0])
    def test_one_read_only_knot_grid_that_smiles_copy(self, case1_model, T):
        knots = heston._SMILE_KNOTS
        assert not knots.flags.writeable and np.array_equal(knots, GRID_Z)
        assert heston._QUOTE_STRIKES[: heston.SMILE_GRID_POINTS] == tuple(knots.tolist())
        smile = build_smile_grid(BASE_PARAMS, case1_model.asset_x, T)
        z = smile.log_moneyness
        first = int(np.searchsorted(knots, z[0]))
        assert np.array_equal(z, knots[first : first + z.size])  # the kept run of knots
        assert z.flags.writeable and not np.shares_memory(z, knots)

    @pytest.mark.parametrize("case", [1, 2])
    @pytest.mark.parametrize("T", [0.05, 1.0])
    def test_observables_cold_or_warm_match_their_own_rung(self, case, T):
        m = reference_case_model(case)
        assert_cold_and_warm_observables_match_own_rung(m.heston, m.asset_x, m.asset_y, T)

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(
        kappa=st.floats(0.3, 3.0), theta=st.floats(0.02, 0.3),
        nu=st.floats(0.1, 1.0), sigma0=st.floats(0.08, 0.4),
        lam_x=st.floats(0.5, 1.6), lam_y=st.floats(0.5, 1.6),
        rho_x=st.floats(-0.72, 0.48), rho_y=st.floats(-0.61, 0.59),
        s0y=st.floats(80.0, 120.0), T=st.floats(0.02, 1.0),
    )
    def test_observables_cold_or_warm_match_their_own_rung_property(
        self, kappa, theta, nu, sigma0, lam_x, lam_y, rho_x, rho_y, s0y, T
    ):
        params = HestonParams(kappa=kappa, theta=theta, nu=nu, sigma0=sigma0)
        asset_x = AssetSpec(lam=lam_x, rho_sv=rho_x, s0=100.0)
        asset_y = AssetSpec(lam=lam_y, rho_sv=rho_y, s0=s0y)
        assert_cold_and_warm_observables_match_own_rung(params, asset_x, asset_y, T)
