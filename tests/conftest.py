import numpy as np
import pytest

from exchopt.experiments import reference_case_model
from exchopt.heston import SmileObservables, build_smile
from exchopt.simulation import McConfig


@pytest.fixture(scope="session")
def case1_model():
    return reference_case_model(1)


@pytest.fixture(scope="session")
def case2_model():
    return reference_case_model(2)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240516)


@pytest.fixture()
def fast_mc():
    """Small but CV-assisted config for module-level simulation checks."""
    return McConfig(n_paths=40_000, n_steps=2000, seed=7)


@pytest.fixture(scope="session")
def atm_observables():
    """ATM levels and central-difference skews (I(+dz) - I(-dz)) / (2 dz) of
    two legs at maturity T, read off ``build_smile`` at dz = 0.01: the local
    short-time ATM derivative, not the harness's window slope."""

    def measure(params, asset_x, asset_y, T):
        dz, legs = 0.01, []
        for asset in (asset_x, asset_y):
            x0 = asset.x0
            (_, dn), (_, atm), (_, up) = build_smile(params, asset, T, [x0 - dz, x0, x0 + dz])
            legs.append((atm, (up - dn) / (2.0 * dz)))
        (level_x, skew_x), (level_y, skew_y) = legs
        return SmileObservables(level_x, level_y, skew_x, skew_y, T, (-dz, dz))

    return measure
