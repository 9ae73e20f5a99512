import hashlib
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exchopt.errors import DomainError, InputError
from exchopt.heston import exchange_option_price
from exchopt.margrabe import convention_gamma, margrabe_price
from exchopt.models import CorrelationStructure, HestonParams, TwoAssetModel, _pivots
from exchopt.simulation import (
    _MIN_FIT_NONZERO_CONTROL,
    BLOCK_SIZE,
    McConfig,
    PriceEstimate,
    cholesky3,
    exchange_estimate_from_sample,
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
# 1e-7 (det -1e-14), a nearly singular leading block whose final pivot is
# -2.5e-4 (det -5e-13), and rho_x = 1 with rho - rho_x rho_y = -1e-7 (det
# -1e-14), whose (W^X, W^Y, Z) factor exists but whose Z-first one does not
NEAR_SINGULAR_INVALID_RHOS = [
    (1.0, 0.3, 0.3000001), (1.0 - 1e-9, 0.3, 0.300042667), (0.0, 1.0, 1e-7),
]


def z_first(c):
    """c in the factor order (Z, W^X, W^Y) of the Monte Carlo engine."""
    return CorrelationStructure(rho=c.rho_x, rho_x=c.rho_y, rho_y=c.rho)


@st.composite
def accepted_structures(draw):
    """Structures the verdict accepts, built without rejection: rho_y = rho rho_x
    + t sqrt((1 - rho^2)(1 - rho_x^2)), t in [-1, 1], often on the PSD boundary
    (t = +-1) give or take 1e-6, then clipped inside the verdict by bisection
    towards rho rho_x (which it accepts), so many lie within a hair of its
    boundary; then put in one of the three cyclic factor orders."""
    unit = st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0))
    rho, rho_x = draw(unit), draw(unit)
    t = draw(st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, 0.0, 1.0])))
    offset = draw(st.one_of(st.just(0.0), st.floats(-1e-6, 1e-6)))
    accepted = lambda rho_y: validate_correlation(CorrelationStructure(rho, rho_x, rho_y))[0]
    inside = rho * rho_x
    rho_y = float(np.clip(inside + t * math.sqrt((1 - rho * rho) * (1 - rho_x * rho_x)) + offset,
                          -1.0, 1.0))
    for _ in range(100):
        if accepted(rho_y):
            break
        mid = 0.5 * (inside + rho_y)
        inside, rho_y = (mid, rho_y) if accepted(mid) else (inside, mid)
    else:
        rho_y = inside
    c = CorrelationStructure(rho, rho_x, rho_y)
    for _ in range(draw(st.integers(0, 2))):
        c = z_first(c)
    return c


# simulate_vanilla of reference case 1 at T 0.05 (10 000 paths, 500 steps a
# year, seed 3), recorded from the engine drawing per-block SFC64 streams whose
# control legs read their own leg's orthogonal normals: (leg, strike) -> (value,
# stderr, beta). The strike-120 values were re-pinned when the normal CDF of the
# control's Black-Scholes mean became 0.5 erfc(-d/sqrt 2): X moved by 3.5e-18,
# Y by 5.1e-21
VANILLA_PINNED = {
    ("X", 0.0): (100.00740205840846, 0.010316846490340594, 1.066500869279112),
    ("X", 80.0): (20.00889308427264, 0.010252852905845227, 1.0655141639332837),
    ("X", 100.0): (2.1637408372762814, 0.007393545474413356, 0.9871745716589236),
    ("X", 120.0): (0.00018519266452382552, 0.00023715367289827254, 1.0),
    ("Y", 0.0): (100.01054689644597, 0.007196090114004807, 1.0702306558623749),
    ("Y", 80.0): (20.010546896452695, 0.007196090114004806, 1.0702306558623749),
    ("Y", 100.0): (1.4517140868888094, 0.004865050106673232, 0.9507948861363844),
    ("Y", 120.0): (1.7359090085464856e-08, 0.0, 1.0),
}


# sha256 of the terminal factors of reference case 1 at T 0.15 (300 steps),
# 4097 paths (one partial block), seed 11; the same for any worker count
SAMPLE_DIGESTS = {
    "rx": "8bb8c61046aa09cbea6e48559f772d2d7bdcd14dd603c9e319d73ec7e41227e0",
    "ry": "a7c8e37f2c2fc98786ec5cf172e7220169ed01bb5e62ca9c1038c514649bb7c6",
    "gx": "f7269fd6c74094a4d0a5c018a1c690cca230d51a3a2acae86df9a0ce9400896c",
    "gy": "194c5bcda320977946f2bb89b1f0b89ffdfe8baff3a02c59e8701ad9a34b6bd9",
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

    def test_model_refuses_a_structure_that_is_not_psd(self):
        message = r"^correlation structure not PSD \(det=-1\.441140e\+00\)$"
        with pytest.raises(DomainError, match=message):
            TwoAssetModel(heston=BASE_PARAMS, lam_x=1.0, lam_y=1.24, s0x=100.0, s0y=100.0,
                          corr=CorrelationStructure(0.9, -0.72, 0.59))

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
        with pytest.raises(DomainError, match="not PSD"):
            simulate_terminal(grid_model(*rhos), 0.05, McConfig(n_paths=16, n_steps=20))

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

    @settings(max_examples=400, deadline=None)
    @given(accepted_structures())
    def test_z_first_factor_exists_for_every_accepted_structure(self, c):
        L = cholesky3(z_first(c))
        assert np.abs(L @ L.T - z_first(c).matrix()).max() <= 1e-12 + 1e-15  # plus rounding

    def test_verdict_precedes_the_z_first_factor(self):
        # (1, 0.3, 0.3000001) has a Z-first factor, but the verdict refuses it
        c = CorrelationStructure(1.0, 0.3, 0.3000001)
        assert _pivots(c.rho_x, c.rho_y, c.rho) is not None
        with pytest.raises(DomainError, match="not PSD"):
            cholesky3(z_first(c))


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
        # the plain estimator reads the same paths' payoffs without the control
        model = grid_model(rho, rho_x, rho_y)
        sample = simulate_terminal(model, 0.25, McConfig(n_paths=20_000, n_steps=500, seed=9))
        on = exchange_estimate_from_sample(sample, model.s0x, model.s0y)
        plain = np.maximum(model.s0x * sample.rx - model.s0y * sample.ry, 0.0)
        off_stderr = np.std(plain, ddof=1) / math.sqrt(plain.size)
        assert on.stderr < off_stderr
        assert on.value == pytest.approx(np.mean(plain), abs=4.0 * off_stderr)

    @pytest.mark.parametrize("T", [0.05, 1.0])
    @pytest.mark.parametrize("rho,rho_x,rho_y", CORNER_RHOS)
    def test_control_legs_follow_their_own_law(self, rho, rho_x, rho_y, T):
        # whatever the variance path, the controls are GBM with vols lam_i
        # sigma0 and correlation rho, so the Margrabe price is their mean
        model = grid_model(rho, rho_x, rho_y)
        sample = simulate_terminal(model, T, McConfig(n_paths=50_000, n_steps=250, seed=13))
        n = sample.gx.size
        logs = []
        for g, lam in ((sample.gx, model.lam_x), (sample.gy, model.lam_y)):
            assert abs(np.mean(g) - 1.0) <= 4.0 * np.std(g, ddof=1) / math.sqrt(n)
            var = np.var(np.log(g), ddof=1)
            expected = (lam * BASE_PARAMS.sigma0) ** 2 * T
            assert abs(var - expected) <= 4.0 * expected * math.sqrt(2.0 / (n - 1))
            logs.append(np.log(g))
        corr = np.corrcoef(*logs)[0, 1]
        assert abs(corr - rho) <= 4.0 * (1.0 - rho * rho) / math.sqrt(n - 3)
        payoff = np.maximum(model.s0x * sample.gx - model.s0y * sample.gy, 0.0)
        sx, sy = model.lam_x * BASE_PARAMS.sigma0, model.lam_y * BASE_PARAMS.sigma0
        x, y = math.log(model.s0x), math.log(model.s0y)
        exact = margrabe_price(x, y, convention_gamma(sx, sy, rho), T)
        assert abs(np.mean(payoff) - exact) <= 4.0 * np.std(payoff, ddof=1) / math.sqrt(n)

    def test_sparse_control_keeps_estimate_near_exact(self):
        # a beta fitted on a handful of non-zero control payoffs can move the
        # estimate many standard errors, so beta stays 1 below the threshold
        model = grid_model(-0.1, 0.18, -0.61, s0y=120.0)
        sample = simulate_terminal(model, 0.05, McConfig(n_paths=8192, n_steps=2000, seed=267))
        control = np.maximum(model.s0x * sample.gx - model.s0y * sample.gy, 0.0)
        assert 0 < np.count_nonzero(control) < _MIN_FIT_NONZERO_CONTROL
        est = exchange_estimate_from_sample(sample, model.s0x, model.s0y)
        exact = exchange_option_price(model, 0.05)
        assert est.beta == 1.0
        assert abs(est.value - exact) <= 3.0 * est.stderr

    @pytest.mark.parametrize("s0x, s0y, message", [
        (0.0, 100.0, "s0x must be finite and > 0, got 0.0"),
        (100.0, -5.0, "s0y must be finite and > 0, got -5.0"),
        (math.nan, 100.0, "s0x must be finite and > 0, got nan"),
        (100.0, math.inf, "s0y must be finite and > 0, got inf"),
        (100.0, 0.0, "s0y must be finite and > 0, got 0.0"),
    ])
    def test_estimate_refuses_a_spot_that_is_not_finite_and_positive(self, s0x, s0y, message):
        sample = simulate_terminal(grid_model(0.5, -0.4, -0.6), 0.05, McConfig(n_paths=64, n_steps=20, seed=1))
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            exchange_estimate_from_sample(sample, s0x, s0y)

    # a NaN stderr used to pass the check stderr >= 0, as NaN fails every comparison
    @pytest.mark.parametrize("stderr", [-1e-3, math.nan, math.inf])
    def test_estimate_refuses_a_stderr_that_is_not_finite_and_non_negative(self, stderr):
        message = f"stderr must be finite and >= 0, got {stderr}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            PriceEstimate(1.0, stderr, 64, 1, beta=1.0)


class TestConditionalLegs:
    def test_orthogonal_variance_is_the_trapezoid_sum(self):
        # nu ~ 0 makes the variance path the deterministic Euler path; with
        # rho_X = 0, var log rx is lam^2 dt times its trapezoid sum, which lies
        # (v_N - v_0) / 2 away from the left-point sum as v drifts to theta
        h = HestonParams(kappa=1.5, theta=0.15, nu=1e-14, sigma0=0.15)
        model = TwoAssetModel(
            heston=h, lam_x=1.3, lam_y=1.0, s0x=100.0, s0y=100.0,
            corr=CorrelationStructure(rho=0.3, rho_x=0.0, rho_y=-0.5),
        )
        T, mc = 0.5, McConfig(n_paths=200_000, n_steps=20, seed=12)
        n = mc.steps_for(T)
        dt = T / n
        v = [h.v0]
        for _ in range(n):
            v.append(v[-1] + h.kappa * (h.theta - v[-1]) * dt)
        left = sum(v[:-1])
        trapezoid = left + 0.5 * (v[-1] - v[0])
        var = np.var(np.log(simulate_terminal(model, T, mc).rx), ddof=1)
        se = var * math.sqrt(2.0 / (mc.n_paths - 1))
        assert n == 10
        assert abs(var - model.lam_x**2 * dt * trapezoid) <= 4.0 * se
        assert abs(var - model.lam_x**2 * dt * left) > 10.0 * se

    # at -0.61 and 0.59, l21 = resid / l11 would differ from l11 in the last
    # bit (and L[2, 2] would read 1e-8 at 0.59); _pivots uses resid / d22
    @pytest.mark.parametrize("rho_sv", [-0.72, -0.61, 0.18, 0.59])
    def test_identical_legs_are_bit_identical(self, rho_sv):
        model = TwoAssetModel(
            heston=BASE_PARAMS, lam_x=1.24, lam_y=1.24, s0x=100.0, s0y=100.0,
            corr=CorrelationStructure(rho=1.0, rho_x=rho_sv, rho_y=rho_sv),
        )
        sample = simulate_terminal(model, 0.05, McConfig(n_paths=BLOCK_SIZE + 5, seed=3))
        assert np.array_equal(sample.rx, sample.ry)
        assert np.array_equal(sample.gx, sample.gy)


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
    @pytest.mark.parametrize("leg, strike", sorted(VANILLA_PINNED))
    def test_pinned_estimates(self, case1_model, leg, strike):
        # a call struck at K is priced as an exchange against a riskless K
        mc = McConfig(n_paths=10_000, n_steps=500, seed=3)
        est = simulate_vanilla(case1_model, leg, strike, 0.05, mc)
        assert (est.value, est.stderr, est.beta) == VANILLA_PINNED[leg, strike]

class TestMcConfig:
    @pytest.mark.parametrize("field", ["n_paths", "n_steps", "seed", "jobs"])
    @pytest.mark.parametrize("value", [True, 5000.0, 100.5, "7"])
    def test_non_integral_count_refused(self, field, value):
        with pytest.raises(InputError, match=field):
            McConfig(**{field: value})

    # products within 1e-12 of a whole number are that number: 2000 * 4.03 is
    # 8060.000000000001 and 365 * 2.2 is 803.0000000000001, one ceil step too many
    @pytest.mark.parametrize("n_steps, T, steps", [
        (2000, 4.03, 8060), (365, 2.2, 803), (100, 0.07, 7), (2000, 2.01, 4020),
        (365, 1.4, 511), (2000, 0.05, 100), (2000, 0.05 + 1e-9, 101), (2000, 1e-6, 1),
    ])
    def test_steps_round_float_noise_only(self, n_steps, T, steps):
        assert McConfig(n_steps=n_steps).steps_for(T) == steps

    def test_numpy_integers_accepted(self):
        mc = McConfig(n_paths=np.int64(64), n_steps=np.int32(50), seed=np.uint64(3),
                      jobs=np.int8(2))
        assert (mc.n_paths, mc.n_steps, mc.seed, mc.jobs) == (64, 50, 3, 2)


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

    def test_block_draws_do_not_depend_on_n_paths(self, case1_model):
        one = simulate_terminal(case1_model, 0.05, McConfig(BLOCK_SIZE, 250, seed=5))
        more = simulate_terminal(case1_model, 0.05, McConfig(2 * BLOCK_SIZE + 5, 250, seed=5))
        for name in ("rx", "ry", "gx", "gy"):
            assert getattr(more, name)[:BLOCK_SIZE].tobytes() == getattr(one, name).tobytes(), name

    def test_largest_seed_runs(self, case1_model):
        sample = simulate_terminal(case1_model, 0.05, McConfig(100, 250, seed=2**64 - 1))
        for name in ("rx", "ry", "gx", "gy"):
            assert np.all(np.isfinite(getattr(sample, name))), name

    def test_block_stream_is_seed_sequence_child(self, case1_model):
        # with rho_X = 1 and one step, a control leg is exp(sig sqrt(T) z - sig^2 T / 2)
        # of the step's normal z, so its log reads off each block's first row
        model = replace(case1_model, corr=CorrelationStructure(rho=0.3, rho_x=1.0, rho_y=0.3))
        seed, T, sig = 9, 0.5, case1_model.lam_x * case1_model.heston.sigma0
        sample = simulate_terminal(model, T, McConfig(3 * BLOCK_SIZE, n_steps=1, seed=seed))
        z = (np.log(sample.gx) + 0.5 * sig * sig * T) / (sig * math.sqrt(T))
        for b in range(3):
            stream = np.random.SeedSequence(seed).spawn(b + 1)[b]
            row = np.random.Generator(np.random.SFC64(stream)).standard_normal(BLOCK_SIZE)
            assert np.abs(z[b * BLOCK_SIZE:(b + 1) * BLOCK_SIZE] - row).max() < 1e-12, b

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
        # at the default dt and at half of it, the Euler bias is below one
        # single-run stderr: the mean error over 8 seeds, whose own noise is
        # about 0.35 stderr, lies within the mean stderr
        exact = exchange_option_price(case1_model, 0.05)
        for n_steps in (2000, 4000):
            runs = [
                simulate_exchange(case1_model, 0.05, McConfig(100_000, n_steps, seed))
                for seed in range(1, 9)
            ]
            bias = np.mean([est.value - exact for est in runs])
            assert abs(bias) <= np.mean([est.stderr for est in runs]), n_steps

    def test_exchange_matches_semi_analytic(self, case1_model):
        mc = McConfig(n_paths=200_000, n_steps=2000, seed=17)
        est = simulate_exchange(case1_model, 0.05, mc)
        exact = exchange_option_price(case1_model, 0.05)
        assert abs(est.value - exact) <= 3.0 * est.stderr

    def test_invalid_correlation_rejected(self):
        with pytest.raises(DomainError):
            model = grid_model(0.9, -0.72, 0.59)
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
