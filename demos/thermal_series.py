#!/usr/bin/env python3
"""thermal_series.py

Thermally averaged decay rates: average Gamma(kappa) over the spectrum
with the modified Boltzmann weight f(E) = 1 - exp(beta (E - E_max)), which
vanishes at the top of the band and saturates for deeply shifted states.

Three series, one shared x axis:
  - helix with Omega = 3 fixed, x = r
  - helix with r = 3 fixed,     x = Omega
  - cylinder (n = 0),           x = r
All three meet as x -> 0.
"""

from helirad.spectra import HelixSpec
from helirad.thermal import ThermalConfig, thermal_sweep

config = ThermalConfig(beta=1.0, kappa_min=0.0, kappa_max=5.0, kappa_step=0.01, M=10)

xs = [0.05, 0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0]

fix_omega = thermal_sweep([HelixSpec(Omega=3.0, r=x) for x in xs], config)
fix_r = thermal_sweep([HelixSpec(Omega=x, r=3.0) for x in xs], config)
cylinder = thermal_sweep(list(xs), config)

print(f"{'x':>6} {'helix Om=3':>12} {'helix r=3':>12} {'cylinder':>12}")
for x, (_, a), (_, b), (_, c) in zip(xs, fix_omega, fix_r, cylinder):
    print(f"{x:>6.2f} {a.gamma_th:>12.6f} {b.gamma_th:>12.6f} {c.gamma_th:>12.6f}")

# at the smallest x the three geometries are indistinguishable
a0 = fix_omega[0][1].gamma_th
b0 = fix_r[0][1].gamma_th
c0 = cylinder[0][1].gamma_th
spread = (max(a0, b0, c0) - min(a0, b0, c0)) / min(a0, b0, c0)
print()
print(f"series spread at x = {xs[0]}: {100.0 * spread:.2f}%")
