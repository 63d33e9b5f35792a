#!/usr/bin/env python3
"""fit_pipeline.py

End to end: take emitter coordinates, fit the best single helix, derive the
line density, and report the superradiance estimate.

The cloud here is a jittered synthetic microtubule-like helix (R = 11.2 nm,
b = 8 nm pitch); with real data, write one `x y z` triple per line and use
load_emitters / the fit-estimate subcommand instead.
"""

import math
import os
import tempfile

import numpy as np

from helirad.geomfit import estimate, fit_helix, line_density, load_emitters, with_density
from helirad.spectra import EmitterPhysics

rng = np.random.default_rng(1)
R_true, b_true = 11.2, 7.8
phi = np.linspace(0.0, 10 * 2.0 * math.pi, 200)
pos = np.column_stack([
    R_true * np.cos(phi),
    R_true * np.sin(phi),
    (b_true / (2.0 * math.pi)) * phi,
]) + rng.normal(0.0, 0.05, size=(200, 3))

# round-trip through the shared cloud file format
with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as fh:
    fh.write("# synthetic tryptophan positions, nm\n")
    for x, y, z in pos:
        fh.write(f"{x:.6f} {y:.6f} {z:.6f}\n")
    path = fh.name

cloud = load_emitters(path)
os.remove(path)
fit = fit_helix(cloud)

print(f"R    = {fit.R:8.4f} nm   (true {R_true})")
print(f"b    = {fit.b:8.4f} nm   (true {b_true})")
print(f"hand = {fit.handedness.value}")
print(f"rms  = {fit.rms_residual:.4f} nm")
print(f"n0   = {fit.n0:.4f} per nm of axis (from the cloud: {line_density(cloud, fit):.4f})")

# Table-style estimate at the tryptophan transition; the density can be
# overridden when the structure's stoichiometry is known independently
physics = EmitterPhysics(gamma=0.514, lambda0=280.0, n0=fit.n0)
report = estimate(with_density(fit, 1.58), physics)

print()
print(f"Omega            = {report.Omega:.2f}")
print(f"r                = {report.r:.3f}")
print(f"Gamma_max/gamma  = {report.gamma_max_over_gamma:.1f}")
print(f"trapped percent  = {report.trapped_percent:.2f}")
