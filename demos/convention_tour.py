#!/usr/bin/env python3
"""Tour of the strike-convention machinery on closed forms.

Covers: the log-linear strike rules, the four special cases of the optimal
coefficient, the first-order optimality residuals, and how sensitive the
measured a* is to the skew-measurement step (the reference values 0.429 and
1.917 emerge only for wide-span slopes; a local derivative gives a very
different number in the finely balanced first case).
"""

import math

from exchopt.convention import (
    a_star_observables,
    a_star_parametric,
    bound_a,
    general_residual,
    linear_convention_residual,
    strikes,
)
from exchopt.experiments import reference_case_model
from exchopt.heston import measure_atm_observables, measure_smile_observables
from exchopt.models import CorrelationStructure

print("log-linear strike rules on (x, y) = (ln 100, ln 90):")
x, y = math.log(100.0), math.log(90.0)
for a, label in ((0.0, "own-ATM"), (1.0, "look-up"), (0.5, "midpoint")):
    k_x, k_y = strikes(a, x, y)
    print(f"  a = {a:3.1f} ({label:7s}): K_X = {math.exp(k_x):7.3f}  K_Y = {math.exp(k_y):7.3f}")
print()

print("special cases of the closed-form optimum:")
cases = [  # (label, lam_X, lam_Y, (rho, rho_X, rho_Y), closed form)
    ("uncorrelated assets (rho = 0)", 1.5, 1.0, (0.0, -0.4, 0.4), 1.0),
    ("equal vol levels (lam_X = lam_Y)", 1.2, 1.2, (0.5, -0.4, 0.4), 1.0 / 0.5),
    ("equal spot-vol corr (rho_X = rho_Y)", 1.5, 1.0, (0.5, -0.4, -0.4), 1.0 / 1.5),
    ("rho_Y = 0", 1.5, 1.0, (0.5, -0.4, 0.0), 1.5 / (1.5 - 0.5)),
]
for label, lam_x, lam_y, rhos, expected in cases:
    got = a_star_parametric(lam_x, lam_y, CorrelationStructure(*rhos))
    print(f"  {label:38s}: a* = {got:+.6f} (closed form {expected:+.6f})")
print()

print("optimality residual vanishes exactly at a*:")
corr = CorrelationStructure(rho=0.5, rho_x=-0.4, rho_y=0.4)
a_opt = a_star_parametric(1.5, 1.0, corr)
for a in (0.0, 1.0, a_opt, 2.5):
    r_lin = linear_convention_residual(a, 1.5, 1.0, corr)
    r_gen = general_residual(
        sigma0_x=1.5 * 0.15, sigma0_y=0.15,
        dplus_x=1.5 * 0.25, dplus_y=0.25,
        corr=corr, dkx_dy=a, dky_dy=1.0 - a,
    )
    print(f"  a = {a:+.3f}: linear residual {r_lin:+.6f}   general residual {r_gen:+.6f}")
print()

print("bounding keeps extreme optima quotable: "
      f"bound_a(7.6) = {bound_a(7.6)}, bound_a(-3.7) = {bound_a(-3.7)}")
print()

print("skew-step sensitivity of the measured a* (T = 0.05):")
print(f"{'step dz':>10} {'a* case 1':>10} {'a* case 2':>10}")
for dz in (0.005, 0.01, 0.02, 0.05, 0.1, 0.15):
    row = []
    for case in (1, 2):
        m = reference_case_model(case)
        obs = measure_atm_observables(m.heston, m.asset_x, m.asset_y, 0.05, dz=dz)
        row.append(a_star_observables(obs, m.rho))
    print(f"{dz:10.3f} {row[0]:10.4f} {row[1]:10.4f}")
row = []
for case in (1, 2):
    m = reference_case_model(case)
    obs = measure_smile_observables(m.heston, m.asset_x, m.asset_y, 0.05)
    row.append(a_star_observables(obs, m.rho))
print(f"{'[.8,1.2]':>10} {row[0]:10.4f} {row[1]:10.4f}   <- harness default "
      "(endpoint slope over the quoted moneyness span)")
print()
print("the first case's T->0 optimum is exactly 0, so its finite-T value is")
print("dominated by how the skews are measured; the wide-span slope is what")
print("recovers the reference values 0.429 / 1.917.")
