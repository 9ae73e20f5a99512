"""Layer spans recorded from outside the program.

``Tracer.install`` wraps each listed public function of exchopt at every
module attribute through which it is reached (``experiments`` imports
``simulate_terminal`` by name, the package re-exports most functions), so a
call is timed whichever route it takes.  ``Tracer.remove`` puts the original
objects back; ``wrapped_attributes`` finds any wrapper left behind.

Per function the tracer keeps the call count, inclusive seconds, self seconds
(inclusive minus the traced child calls) and, for functions with a ``T``
argument, count and seconds per maturity.  Calls to ``simulate_terminal``
keep their arguments so the benchmark can replay the random draws.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from dataclasses import dataclass, field

# (module, function) pairs whose calls are timed; ``models`` holds only
# dataclasses and is not timed.
TRACED = (
    ("heston", "build_smile_grid"),
    ("heston", "build_smile"),
    ("heston", "heston_vanilla_price"),
    ("heston", "measure_smile_observables"),
    ("heston", "exchange_option_price"),
    ("blackscholes", "implied_vol"),
    ("blackscholes", "bs_price"),
    ("margrabe", "margrabe_price"),
    ("margrabe", "convention_gamma"),
    ("margrabe", "exchange_implied_vol"),
    ("margrabe", "implied_correlation"),
    ("convention", "a_star_observables"),
    ("convention", "strikes"),
    ("simulation", "simulate_terminal"),
    ("simulation", "exchange_estimate_from_sample"),
    ("experiments", "run_grid"),
    ("experiments", "report_json_payload"),
    ("experiments", "write_results_csv"),
    ("cli", "main"),
)

_MARK = "__perfbench_original__"


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    by_T: dict = field(default_factory=dict)  # T -> [calls, seconds]
    bytes: int = 0
    records: list = field(default_factory=list)  # (op index, args, kwargs, seconds)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []  # child seconds of each open span
        self._patched: list[tuple[object, str, object]] = []
        self.op = 0  # index of the operation in progress, set by the caller

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        params = list(inspect.signature(fn).parameters)
        t_index = params.index("T") if "T" in params else None
        keep_args = name == "simulation.simulate_terminal"
        count_bytes = name == "experiments.write_results_csv"
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                stat.calls += 1
                stat.s += dur
                stat.self_s += dur - child
                if t_index is not None:
                    T = kwargs["T"] if "T" in kwargs else (
                        args[t_index] if len(args) > t_index else None
                    )
                    if T is not None:
                        cell = stat.by_T.setdefault(float(T), [0, 0.0])
                        cell[0] += 1
                        cell[1] += dur
                if keep_args:
                    stat.records.append((self.op, args, kwargs, dur))
                if count_bytes:
                    path = kwargs.get("path", args[1] if len(args) > 1 else None)
                    if path is not None and os.path.exists(path):
                        stat.bytes += os.path.getsize(path)

        setattr(wrapper, _MARK, fn)
        return wrapper

    def install(self) -> None:
        modules = package_modules(self.package)
        for mod_name, fn_name in TRACED:
            home = sys.modules[f"{self.package.__name__}.{mod_name}"]
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def remove(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


def package_modules(package) -> list:
    """The package and every loaded submodule of it."""
    prefix = package.__name__
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == prefix or name.startswith(prefix + "."))
    ]


def wrapped_attributes(package) -> list[str]:
    """Every ``module.attr`` of the package that still holds a tracer wrapper."""
    return [
        f"{module.__name__}.{attr}"
        for module in package_modules(package)
        for attr, value in vars(module).items()
        if callable(value) and hasattr(value, _MARK)
    ]
