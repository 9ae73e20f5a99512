import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from exchopt.errors import DomainError, InputError
from exchopt.heston import exchange_option_price
from exchopt.margrabe import convention_gamma, margrabe_price
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


# singular (det 0 up to rounding) but positive semi-definite structures: rho = 1
# with equal spot-vol correlations, and rho = -1 with opposite ones
SINGULAR_RHOS = [(1.0, 0.3, 0.3), (1.0, -0.5, -0.5), (-1.0, -0.95, 0.95)]

# not PSD although det is within 1e-12 of zero: rho = 1 with rho_y - rho rho_x =
# 1e-7 (det -1e-14), and a nearly singular leading block whose final pivot is
# -2.5e-4 (det -5e-13)
NEAR_SINGULAR_INVALID_RHOS = [(1.0, 0.3, 0.3000001), (1.0 - 1e-9, 0.3, 0.300042667)]


# simulate_vanilla of reference case 1 at T 0.05 (10 000 paths, 500 steps a
# year, seed 3), recorded while the vanilla estimate had a Black-Scholes
# control mean of its own: (leg, strike, control variate) -> (value, stderr,
# beta)
VANILLA_PINNED = {
    ("X", 0.0, True): (100.00621012673086, 0.01215921167958224, 1.0661317824779009),
    ("X", 80.0, True): (20.0072976309158, 0.012108969552053143, 1.0654459734279944),
    ("X", 100.0, True): (2.1659464911896738, 0.00861618133551526, 0.9903696196538178),
    ("X", 120.0, True): (0.0009286724054809806, 0.00044425484391622563, 1.0),
    ("Y", 0.0, True): (99.99689737997873, 0.008188196287514772, 1.0634188474262856),
    ("Y", 80.0, True): (19.996897379985413, 0.008188196287514774, 1.0634188474262856),
    ("Y", 100.0, True): (1.4386323147989022, 0.005419745415056276, 0.944953179604777),
    ("Y", 120.0, True): (1.7359090085459774e-08, 0.0, 1.0),
    ("X", 0.0, False): (99.94016156115174, 0.05483820867257325, None),
    ("X", 80.0, False): (19.941286992763008, 0.05479354274552975, None),
    ("X", 100.0, False): (2.1264267806910597, 0.030744807747501043, None),
    ("X", 120.0, False): (0.000987827941564788, 0.000566532420192948, None),
    ("Y", 0.0, False): (99.93873993195997, 0.036801534184857154, None),
    ("Y", 80.0, False): (19.93873993195998, 0.036801534184857154, None),
    ("Y", 100.0, False): (1.4245417143500465, 0.019553939061779244, None),
    ("Y", 120.0, False): (0.0, 0.0, None),
}


# sha256 of the terminal factors of reference case 1 at T 0.15 (300 steps, more
# than one 256-step draw chunk), 4097 paths (one partial block),
# seed 11; the same for any worker count
SAMPLE_DIGESTS = {
    "rx": "1ecd8405134398b8534d56ee704c3bfcaf04dedbb154468a64b4bdd96b8ffa72",
    "ry": "b300e847abc84e4a50d299aca9f9db2da8a266cb5c646b983683c3cd045b52ab",
    "gx": "6daf42c7d66b9e9957e0b3117a8b97d005e48d77ce3ccfd981befa044639ae69",
    "gy": "8e3d41271e96401b2ca7bdb4077216f18a38138d08abe079484cb928cc66da1f",
}


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

    @pytest.mark.parametrize("rhos", SINGULAR_RHOS)
    def test_singular_structures_are_valid(self, rhos):
        valid, det = validate_correlation(CorrelationStructure(*rhos))
        assert valid and abs(det) < 1e-15

    def test_determinant_below_tolerance_is_invalid(self):
        # rho = rho_x = rho_y = r has det (1 - r)^2 (1 + 2r), about -2.2e-11 here
        r = -0.5 - 5e-12
        below = CorrelationStructure(r, r, r)
        valid, det = validate_correlation(below)
        assert not valid and -1e-10 < det < -1e-11
        with pytest.raises(DomainError, match="not PSD"):
            cholesky3(below)


    @pytest.mark.parametrize("rhos", NEAR_SINGULAR_INVALID_RHOS)
    def test_near_singular_non_psd_is_invalid_everywhere(self, rhos):
        valid, det = validate_correlation(CorrelationStructure(*rhos))
        assert not valid and -1e-12 < det < 0.0
        with pytest.raises(DomainError, match="not PSD"):
            cholesky3(CorrelationStructure(*rhos))
        with pytest.raises(DomainError, match="not PSD"):
            exchange_option_price(grid_model(*rhos), 0.05)

    def test_verdict_is_the_factorisation(self, rng):
        # near-singular draws: |rho| at or near 1, rho_y at or near the PSD boundary
        seen = {True: 0, False: 0}
        for _ in range(3000):
            rho = rng.choice([1.0, -1.0, 1.0 - 10.0 ** rng.uniform(-16, -3), rng.uniform(-1, 1)])
            rho_x = rng.uniform(-1, 1)
            edge = math.sqrt((1.0 - rho * rho) * (1.0 - rho_x * rho_x)) * rng.choice([-1, 1])
            rho_y = rho * rho_x + rng.choice([0.0, 1.0]) * edge + 10.0 ** rng.uniform(-16, -4)
            c = CorrelationStructure(rho, rho_x, float(np.clip(rho_y, -1, 1)))
            valid, _ = validate_correlation(c)
            seen[valid] += 1
            if valid:
                L = cholesky3(c)
                assert np.abs(L @ L.T - c.matrix()).max() <= 1.1e-12
            else:
                with pytest.raises(DomainError):
                    cholesky3(c)
                assert np.linalg.eigvalsh(c.matrix()).min() < 1e-12
        assert min(seen.values()) > 300


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
        for rhos in SINGULAR_RHOS:
            c = CorrelationStructure(*rhos)
            L = cholesky3(c)
            assert L[1, 1] == 0.0
            assert np.allclose(L @ L.T, c.matrix(), atol=1e-12)

    # structures within rounding of PSD: rho = 1 with rho_y one ulp above rho_x
    # (rho_y - rho rho_x = 5.6e-17), and (-0.7, -0.7, 1) with final pivot -1.1e-16
    @pytest.mark.parametrize("rhos", [(1.0, 0.3, math.nextafter(0.3, 1.0)), (-0.7, -0.7, 1.0)])
    def test_rounding_level_pivots_are_tolerated(self, rhos):
        c = CorrelationStructure(*rhos)
        assert validate_correlation(c)[0]
        L = cholesky3(c)
        assert np.allclose(L @ L.T, c.matrix(), atol=1e-12)

    def test_non_psd_rejected(self):
        with pytest.raises(DomainError):
            cholesky3(CorrelationStructure(0.9, -0.72, 0.59))


@pytest.mark.parametrize("T", [0.05, 0.25])
@pytest.mark.parametrize("rhos", SINGULAR_RHOS)
def test_singular_structure_exact_price_matches_mc(rhos, T):
    model = grid_model(*rhos)
    est = simulate_exchange(model, T, McConfig(n_paths=65_536, seed=0))
    assert abs(exchange_option_price(model, T) - est.value) <= 3.0 * est.stderr


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
        sigma_t = model.heston.sigma0 * convention_gamma(model.lam_x, model.lam_y, model.rho)
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


class TestVanilla:
    @pytest.mark.parametrize("leg, strike, cv", sorted(VANILLA_PINNED))
    def test_pinned_estimates(self, case1_model, leg, strike, cv):
        # a call struck at K is priced as an exchange against a riskless K
        mc = McConfig(n_paths=10_000, n_steps=500, seed=3, use_control_variate=cv)
        est = simulate_vanilla(case1_model, leg, strike, 0.05, mc)
        assert (est.value, est.stderr, est.beta) == VANILLA_PINNED[leg, strike, cv]

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

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_pinned_sample_digests(self, case1_model, jobs):
        mc = McConfig(n_paths=BLOCK_SIZE + 1, seed=11, jobs=jobs)
        sample = simulate_terminal(case1_model, 0.15, mc)
        for name, digest in SAMPLE_DIGESTS.items():
            assert hashlib.sha256(getattr(sample, name).tobytes()).hexdigest() == digest, name

    def test_seed_changes_result(self, case1_model, fast_mc):
        a = simulate_exchange(case1_model, 0.05, fast_mc)
        b = simulate_exchange(case1_model, 0.05, replace(fast_mc, seed=8))
        assert a.value != b.value


class TestMemory:
    def test_peak_does_not_grow_with_steps(self, case1_model):
        # 8192 paths over 500 steps draw 94 MiB of normals; one step at a
        # time, a block holds 96 KiB of them
        mc = McConfig(n_paths=2 * BLOCK_SIZE, seed=1)
        tracemalloc.start()
        try:
            simulate_terminal(case1_model, 0.25, mc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


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
        rho_hat = implied_correlation(gamma_hat, sx.vol_at_moneyness(0.0), sy.vol_at_moneyness(0.0))
        assert rho_hat == pytest.approx(0.5, abs=0.02)
