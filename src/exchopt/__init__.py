"""Exchange-option pricing under stochastic volatility with smile-aware
strike conventions.

The library prices (S_T^X - S_T^Y)^+ three ways: the Margrabe closed form fed
by leg implied vols chosen through a log-linear strike convention, a
semi-analytic benchmark, and correlated Monte Carlo with a constant-volatility
control variate.  The convention module solves for the mixing coefficient a*
that makes the closed form track the true price to first order in moneyness.
"""

from .blackscholes import bs_price, bs_vega, implied_vol
from .convention import (
    a_star_observables,
    a_star_parametric,
    bound_a,
    general_residual,
    linear_convention_residual,
    strikes,
)
from .errors import DegenerateConventionError, DomainError, InputError, NumericalError
from .heston import (
    Smile,
    SmileObservables,
    build_smile,
    build_smile_grid,
    effective_heston,
    exchange_option_price,
    heston_vanilla_price,
    measure_atm_observables,
    measure_smile_observables,
)
from .margrabe import (
    convention_gamma,
    exchange_implied_vol,
    implied_correlation,
    margrabe_price,
)
from .models import (
    AssetSpec, CorrelationStructure, HestonParams, TwoAssetModel, validate_correlation,
)
from .simulation import (
    McConfig,
    PriceEstimate,
    cholesky3,
    simulate_exchange,
    simulate_vanilla,
)

__version__ = "0.1.0"

__all__ = [
    "bs_price", "bs_vega", "implied_vol",
    "margrabe_price", "convention_gamma",
    "exchange_implied_vol", "implied_correlation",
    "HestonParams", "AssetSpec", "CorrelationStructure", "TwoAssetModel",
    "Smile", "SmileObservables", "effective_heston", "heston_vanilla_price",
    "exchange_option_price", "build_smile", "build_smile_grid",
    "measure_atm_observables", "measure_smile_observables",
    "strikes", "a_star_parametric", "a_star_observables", "bound_a",
    "linear_convention_residual", "general_residual",
    "McConfig", "PriceEstimate", "validate_correlation", "cholesky3",
    "simulate_exchange", "simulate_vanilla",
    "InputError", "DomainError", "NumericalError", "DegenerateConventionError",
    "__version__",
]
