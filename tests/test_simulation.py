import math
from dataclasses import replace

import numpy as np
import pytest

from exchopt.errors import DomainError, InputError
from exchopt.heston import exchange_option_price
from exchopt.margrabe import margrabe_price
from exchopt.models import CorrelationStructure, HestonParams, TwoAssetModel
from exchopt.simulation import (
    BLOCK_SIZE,
    McConfig,
    cholesky3,
    simulate_exchange,
    simulate_terminal,
    simulate_vanilla,
    validate_correlation,
)

BASE_PARAMS = HestonParams(kappa=1.5, theta=0.15, nu=0.5, sigma0=0.15)

# corners of the sweep's parameter ranges (invalid-correlation ones skipped)
CORNER_RHOS = [
    (rho, rho_x, rho_y)
    for rho in (-0.9, 0.9)
    for rho_x in (-0.72, 0.48)
    for rho_y in (-0.61, 0.59)
    if validate_correlation(CorrelationStructure(rho, rho_x, rho_y))[0]
]


def grid_model(rho, rho_x, rho_y, s0y=100.0):
    return TwoAssetModel(
        heston=BASE_PARAMS, lam_x=1.0, lam_y=1.24, s0x=100.0, s0y=s0y,
        corr=CorrelationStructure(rho=rho, rho_x=rho_x, rho_y=rho_y),
    )


class TestValidateCorrelation:
    def test_identity(self):
        valid, det = validate_correlation(CorrelationStructure(0.0, 0.0, 0.0))
        assert valid and det == 1.0

    def test_known_invalid_triple(self):
        # det = 1 - 0.76464 - 0.81 - 0.5184 - 0.3481 < 0 (hand evaluation)
        valid, det = validate_correlation(CorrelationStructure(0.9, -0.72, 0.59))
        assert not valid
        assert det == pytest.approx(1.0 - 0.76464 - 0.81 - 0.5184 - 0.3481, abs=1e-12)

    def test_case1_structure(self):
        valid, det = validate_correlation(CorrelationStructure(0.5, -0.4, -0.6))
        assert valid
        assert det == pytest.approx(0.47, abs=1e-12)

    def test_entry_validation(self):
        with pytest.raises(InputError):
            CorrelationStructure(1.5, 0.0, 0.0)


class TestCholesky3:
    def test_identity(self):
        L = cholesky3(CorrelationStructure(0.0, 0.0, 0.0))
        assert np.array_equal(L, np.eye(3))

    def test_reconstruction_random(self, rng):
        done = 0
        while done < 1000:
            rho, rho_x, rho_y = rng.uniform(-1, 1, size=3)
            c = CorrelationStructure(rho, rho_x, rho_y)
            valid, _ = validate_correlation(c)
            if not valid:
                continue
            done += 1
            L = cholesky3(c)
            assert np.allclose(L @ L.T, c.matrix(), atol=1e-12)
            assert np.allclose(L, np.tril(L))

    def test_rank_deficient_pivots_to_zero(self):
        c = CorrelationStructure(1.0, 0.3, 0.3)
        L = cholesky3(c)
        assert L[1, 1] == 0.0
        assert np.allclose(L @ L.T, c.matrix(), atol=1e-12)

    def test_non_psd_rejected(self):
        with pytest.raises(DomainError):
            cholesky3(CorrelationStructure(0.9, -0.72, 0.59))


class TestControlVariate:
    def test_deterministic_vol_cv_is_exact(self):
        # nu ~ 0 with theta = sigma0^2: paths coincide with the GBM control,
        # so the estimator hits the closed form and stderr collapses
        model = TwoAssetModel(
            heston=HestonParams(kappa=1.5, theta=0.0225, nu=1e-14, sigma0=0.15),
            lam_x=1.5, lam_y=1.0, s0x=100.0, s0y=100.0,
            corr=CorrelationStructure(rho=0.5, rho_x=-0.4, rho_y=-0.6),
        )
        mc = McConfig(n_paths=30_000, n_steps=250, seed=4)
        est = simulate_exchange(model, 0.05, mc)
        sigma_t = model.sigma_tilde0()
        exact = margrabe_price(math.log(100.0), math.log(100.0), sigma_t, 0.05)
        assert est.value == pytest.approx(exact, abs=1e-9)
        assert est.stderr < 1e-9
        assert est.beta == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("rho,rho_x,rho_y", CORNER_RHOS)
    def test_cv_reduces_stderr_on_corners(self, rho, rho_x, rho_y):
        model = grid_model(rho, rho_x, rho_y)
        mc_on = McConfig(n_paths=20_000, n_steps=500, seed=9)
        mc_off = replace(mc_on, use_control_variate=False)
        on = simulate_exchange(model, 0.25, mc_on)
        off = simulate_exchange(model, 0.25, mc_off)
        assert on.stderr < off.stderr
        assert on.value == pytest.approx(off.value, abs=4.0 * off.stderr)

    def test_sparse_control_keeps_estimate_near_exact(self):
        # only 2 of 8192 control payoffs are non-zero; a beta fitted on them
        # (24.4) put this estimate 5.5 standard errors above the exact price
        model = grid_model(-0.1, 0.18, -0.61, s0y=120.0)
        mc = McConfig(n_paths=8192, n_steps=2000, seed=267)
        est = simulate_exchange(model, 0.05, mc)
        exact = exchange_option_price(model, 0.05)
        assert est.beta == 1.0
        assert abs(est.value - exact) <= 3.0 * est.stderr


class TestMartingale:
    @pytest.mark.parametrize("rho,rho_x,rho_y", CORNER_RHOS[:4])
    def test_terminal_means_are_spots(self, rho, rho_x, rho_y):
        model = grid_model(rho, rho_x, rho_y)
        sample = simulate_terminal(model, 0.25, McConfig(n_paths=50_000, n_steps=500, seed=2))
        for r in (sample.rx, sample.ry):
            se = np.std(r, ddof=1) / math.sqrt(r.size)
            assert abs(np.mean(r) - 1.0) <= 3.0 * se

    def test_zero_strike_vanilla_is_spot(self, case1_model):
        mc = McConfig(n_paths=30_000, n_steps=1000, seed=21)
        est = simulate_vanilla(case1_model, "X", 0.0, 0.05, mc)
        assert abs(est.value - 100.0) <= max(3.0 * est.stderr, 1e-10)

    def test_truncated_variance_never_negative(self, case1_model):
        # positivity is structural (max(v, 0) inside drift and diffusion);
        # exercised implicitly by every run, asserted here via finiteness of
        # an aggressive configuration that would break without truncation
        model = replace(
            case1_model,
            heston=HestonParams(kappa=0.5, theta=0.02, nu=2.5, sigma0=0.1),
        )
        est = simulate_exchange(model, 1.0, McConfig(n_paths=5_000, n_steps=100, seed=3))
        assert math.isfinite(est.value)


class TestDeterminism:
    def test_bit_identical_repeat(self, case1_model, fast_mc):
        a = simulate_exchange(case1_model, 0.05, fast_mc)
        b = simulate_exchange(case1_model, 0.05, fast_mc)
        assert a.value == b.value
        assert a.stderr == b.stderr

    def test_independent_of_worker_count(self, case1_model, fast_mc):
        serial = simulate_exchange(case1_model, 0.05, replace(fast_mc, jobs=1))
        threaded = simulate_exchange(case1_model, 0.05, replace(fast_mc, jobs=4))
        assert serial.value == threaded.value
        assert serial.stderr == threaded.stderr

    def test_partial_block_layout(self, case1_model):
        # n_paths straddling a block boundary still deterministic
        mc = McConfig(n_paths=BLOCK_SIZE + 17, n_steps=250, seed=5)
        a = simulate_exchange(case1_model, 0.05, mc)
        b = simulate_exchange(case1_model, 0.05, mc)
        assert a.value == b.value

    def test_seed_changes_result(self, case1_model, fast_mc):
        a = simulate_exchange(case1_model, 0.05, fast_mc)
        b = simulate_exchange(case1_model, 0.05, replace(fast_mc, seed=8))
        assert a.value != b.value


class TestAccuracy:
    def test_step_refinement_bias(self, case1_model):
        # doubling the step count moves the price by less than one stderr
        base = McConfig(n_paths=100_000, n_steps=2000, seed=42)
        fine = replace(base, n_steps=4000)
        a = simulate_exchange(case1_model, 0.05, base)
        b = simulate_exchange(case1_model, 0.05, fine)
        assert abs(a.value - b.value) <= max(a.stderr, b.stderr)

    def test_exchange_matches_semi_analytic(self, case1_model):
        mc = McConfig(n_paths=200_000, n_steps=2000, seed=17)
        est = simulate_exchange(case1_model, 0.05, mc)
        exact = exchange_option_price(case1_model, 0.05)
        assert abs(est.value - exact) <= 3.0 * est.stderr

    def test_invalid_correlation_rejected(self):
        model = grid_model(0.9, -0.72, 0.59)
        with pytest.raises(DomainError):
            simulate_exchange(model, 0.25, McConfig(n_paths=1000, n_steps=10, seed=0))


class TestImpliedCorrelationAtm:
    def test_case1_atm_implied_corr_near_model_rho(self, case1_model):
        from exchopt.heston import build_smile_grid
        from exchopt.margrabe import exchange_implied_vol, implied_correlation

        mc = McConfig(n_paths=100_000, n_steps=2000, seed=31)
        est = simulate_exchange(case1_model, 0.05, mc)
        x = math.log(100.0)
        gamma_hat = exchange_implied_vol(est.value, x, x, 0.05)
        sx = build_smile_grid(BASE_PARAMS, case1_model.asset_x, 0.05, asset_id="X")
        sy = build_smile_grid(BASE_PARAMS, case1_model.asset_y, 0.05, asset_id="Y")
        rho_hat = implied_correlation(gamma_hat, sx.atm_vol(), sy.atm_vol())
        assert rho_hat == pytest.approx(0.5, abs=0.02)
