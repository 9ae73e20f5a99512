import math
import re

import pytest

from exchopt.errors import InputError, correlation, finite, non_negative, positive
from exchopt.experiments import reference_case_model
from exchopt.heston import Smile, build_smile_grid, exchange_option_price, heston_vanilla_price
from exchopt.margrabe import margrabe_price
from exchopt.simulation import McConfig, simulate_terminal

CHECKS = {
    finite: ("non-finite {}={}", [0.0, -1e300, 1e300], [math.nan, math.inf, -math.inf]),
    positive: ("{} must be finite and > 0, got {}", [1e-300, 1.0, 1e300],
               [0.0, -0.0, -1.0, math.nan, math.inf]),
    non_negative: ("{} must be finite and >= 0, got {}", [0.0, -0.0, 1.0, 1e300],
                   [-1e-300, -1.0, math.nan, math.inf]),
    correlation: ("{} must lie in [-1, 1], got {}", [-1.0, 0.0, 1.0],
                  [-1.0000000000000002, 1.0000000000000002, math.nan, math.inf]),
}


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
def test_check_accepts_its_domain_and_names_the_first_refused_keyword(check):
    wording, good, bad = CHECKS[check]
    check(a=good[0], b=good[-1], **{f"c{i}": v for i, v in enumerate(good)})
    for v in bad:
        message = wording.format("b", v)
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            check(a=good[0], b=v, c=v)


# every public entry point that refuses a maturity itself refuses it alike;
# bs_price prices T = 0 as intrinsic and implied_vol raises DomainError there
MODEL = reference_case_model(1)
MATURITY_ENTRY_POINTS = {
    "margrabe_price": lambda T: margrabe_price(4.6, 4.5, 0.2, T),
    "exchange_option_price": lambda T: exchange_option_price(MODEL, T),
    "simulate_terminal":
        lambda T: simulate_terminal(MODEL, T, McConfig(n_paths=64, n_steps=20, seed=1)),
    "heston_vanilla_price": lambda T: heston_vanilla_price(MODEL.heston, MODEL.asset_x, 100.0, T),
    "build_smile_grid": lambda T: build_smile_grid(MODEL.heston, MODEL.asset_x, T),
    "Smile": lambda T: Smile("X", 100.0, T, [-0.1, 0.0, 0.1], [0.25, 0.2, 0.22]),
}


@pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", list(MATURITY_ENTRY_POINTS))
def test_every_entry_point_refuses_a_maturity_alike(entry, T):
    with pytest.raises(InputError, match=f"^T must be finite and > 0, got {re.escape(str(T))}$"):
        MATURITY_ENTRY_POINTS[entry](T)
