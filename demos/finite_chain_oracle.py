#!/usr/bin/env python3
"""finite_chain_oracle.py

Brute-force check of the infinite-structure results on finite clouds.

Build the N x N scalar kernel M_jk = -i gamma e^{i k0 r_jk}/(k0 r_jk),
diagonalize it, and watch the collective rates: the Dicke pair reproduces
its closed form to machine precision, and a long dense helix pushes its
brightest mode up to (and past) the infinite-helix band-edge scale.
"""

import math

from helirad.discrete import (
    build_scalar_kernel,
    cloud_spectrum,
    helix_cloud,
    oracle_spectrum,
    pair_cloud,
    subradiant_fraction,
)
from helirad.spectra import EmitterPhysics, HelixSpec, helix_decay_norm

physics = EmitterPhysics(gamma=1.0, lambda0=1.0, n0=1.0)

# --- the Dicke pair ------------------------------------------------------
print("Dicke pair, separation s:")
print(f"{'k0 s':>8} {'branch':>7} {'Gamma/gamma':>13} {'2(1 +- sinc)':>13}")
for x in (0.5, math.pi / 2.0, 4.0):
    sp = oracle_spectrum(build_scalar_kernel(pair_cloud(x / physics.k0), physics))
    sinc = math.sin(x) / x
    # the modes come out by descending rate, so the + branch leads iff sinc > 0
    branches = [("+", 2.0 * (1.0 + sinc)), ("-", 2.0 * (1.0 - sinc))]
    if sinc < 0.0:
        branches.reverse()
    for got, (sign, want) in zip(sp.gamma_j, branches):
        print(f"{x:>8.4f} {sign:>7} {got:>13.10f} {want:>13.10f}")

# --- a dense helix chain -------------------------------------------------
b = 1.0 / 3.0               # Omega = lambda0 / b = 3
radius = 2.0 / (2.0 * math.pi)  # r = k0 R = 2
spacing = 0.05              # one emitter per 0.05 lambda0 of arc
phys = EmitterPhysics(gamma=1.0, lambda0=1.0, n0=1.0 / spacing)
target = phys.n0 * phys.lambda0 * helix_decay_norm(1.0, HelixSpec(Omega=3.0, r=2.0))

print()
print(f"helix chain, Omega = 3, r = 2, n0 lambda0 = {phys.n0:.0f}")
print(f"infinite-helix band-edge scale: Gamma_max/(2 gamma) = {target:.1f}")
print(f"{'N':>5} {'max Gamma_j/(2 gamma)':>22} {'subradiant fraction':>20}")
for n in (60, 160, 400):
    cloud = helix_cloud(n, radius, b, spacing)
    sp = cloud_spectrum(cloud, phys)
    frac = subradiant_fraction(sp, phys)
    print(f"{n:>5} {sp.gamma_j.max() / 2.0:>22.2f} {frac:>20.4f}")

# trace conservation holds for any cloud: sum Re E_j = N gamma
cloud = helix_cloud(200, radius, b, spacing)
sp = cloud_spectrum(cloud, phys)
print()
print(f"trace check, N = 200: sum Gamma_j / (2 gamma) = {sp.gamma_j.sum() / 2.0:.12f}")
