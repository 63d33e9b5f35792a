"""Acceptance gate: the eight shipped guarantees, each at its stated tolerance.

Every test prints one `ACCEPTANCE <n> PASS|FAIL <label>` line on the original
stdout (bypassing capture) so the verdict survives any pytest invocation, and
enforces the per-criterion budget in CPU seconds of the test process.
"""

import contextlib
import math
import sys
import time

import numpy as np

from helirad.cli import main
from helirad.discrete import (
    DiscreteLineParams,
    EmitterCloud,
    Orientation,
    build_scalar_kernel,
    discrete_line_decay,
    discrete_line_lamb,
    oracle_spectrum,
    pair_cloud,
)
from helirad.spectra import (
    EmitterPhysics,
    HelixSpec,
    cylinder_norms,
    helix_decay_norm,
    kappa_grid,
    line_table,
    m_bounds,
    sweep,
    trapped_intervals,
)
from helirad.specfun import bessel_ik, bessel_j, bessel_y, polylog_unit_circle
from helirad.thermal import ThermalConfig, thermal_average, thermal_sweep

from . import oracles
from .test_geomfit import synthetic_helix

UNIT = EmitterPhysics(gamma=1.0, lambda0=1.0, n0=1.0)


@contextlib.contextmanager
def criterion(num, label, budget_s):
    # CPU time of this process, so a busy host does not eat the budget
    t0 = time.process_time()
    try:
        yield
    except BaseException as exc:
        sys.__stdout__.write(f"ACCEPTANCE {num} FAIL {label}: {exc}\n")
        sys.__stdout__.flush()
        raise
    elapsed = time.process_time() - t0
    verdict = "PASS" if elapsed < budget_s else "FAIL"
    sys.__stdout__.write(
        f"ACCEPTANCE {num} {verdict} {label} ({elapsed:.2f}s, budget {budget_s}s)\n"
    )
    sys.__stdout__.flush()
    assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeds {budget_s}s budget"


def _matches_printed(computed, printed, decimals):
    """Within 0.5% of the printed value, or rounds to it at its precision."""
    if abs(computed - printed) <= 5e-3 * abs(printed):
        return True
    return round(computed, decimals) == printed


def test_criterion_1_table_reproduction(tmp_path):
    with criterion(1, "fitted-helix peak-rate estimates", 1.0):
        cases = [
            # R, b, n0, printed (gamma_max, trapped%, Omega, r) with decimals
            (11.2, 7.8, 1.58, (442.4, 1), (94.43, 2), (35.9, 1), (0.25, 2)),
            (2.64, 73.1, 0.75, (210.0, 0), (47.79, 2), (3.83, 2), (0.06, 2)),
            (2.71, 112.3, 2.07, (579.6, 1), (19.79, 2), (2.49, 2), (0.06, 2)),
        ]
        for R, b, n0, gmax, trapped, omega, r in cases:
            cloud = tmp_path / f"cloud_{R}.txt"
            pos = synthetic_helix(R, b, 200, turns=max(6, math.ceil(5 * R / b))).positions
            cloud.write_text(
                "".join(f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in pos)
            )
            out = tmp_path / f"report_{R}.txt"
            rc = main([
                "fit-estimate", "--cloud", str(cloud), "--n0", str(n0),
                "--lambda0", "280", "--output", str(out),
            ])
            assert rc == 0
            record = dict(
                line.split("=", 1) for line in out.read_text().splitlines()
            )
            checks = [
                ("gamma_max_over_gamma", gmax),
                ("trapped_percent", trapped),
                ("Omega", omega),
                ("r", r),
            ]
            for key, (printed, decimals) in checks:
                got = float(record[key])
                assert _matches_printed(got, printed, decimals), (
                    f"R={R}: {key} = {got} vs printed {printed}"
                )


def test_criterion_2_line_solution():
    with criterion(2, "continuous-line step and shift", 1.0):
        grid = kappa_grid(-2.0, 2.0, 0.01)
        table = line_table(grid, UNIT)
        for p in table.points:
            step = 1.0 if abs(p.kappa) <= 1.0 else 0.0
            assert p.gamma_norm == step, f"kappa={p.kappa}"
            if abs(p.kappa) == 1.0:
                assert p.lamb_norm == float("-inf"), f"kappa={p.kappa}"
            else:
                assert math.isfinite(p.lamb_norm), f"kappa={p.kappa}"
        at_zero = next(p for p in table.points if p.kappa == 0.0)
        assert abs(at_zero.lamb_norm - (-1.1544313298)) < 1e-10


def test_criterion_3_trapped_intervals():
    with criterion(3, "helix trapped intervals", 1.0):
        want = {
            2.0: ((1.0, 1.0), (3.0, 3.0), (5.0, 5.0), (7.0, 7.0), (9.0, 9.0)),
            3.0: ((1.0, 2.0), (4.0, 5.0), (7.0, 8.0), (10.0, 10.0)),
            5.0: ((1.0, 4.0), (6.0, 9.0)),
            10.0: ((1.0, 9.0),),
        }
        for omega, intervals in want.items():
            got = trapped_intervals(omega, 10.0)
            assert got.intervals == intervals, f"Omega={omega}"
            spec = HelixSpec(Omega=omega, r=1.3)
            for lo, hi in intervals:
                if hi == lo:
                    continue  # degenerate interval: no interior to sample
                for k in np.linspace(lo, hi, 102)[1:-1]:
                    assert helix_decay_norm(float(k), spec) == 0.0, (omega, k)
        # the degenerate Omega = 2 set: every odd point above the band edge
        # is itself trapped (kappa = 1 is the radiant timed-Dicke edge)
        spec2 = HelixSpec(Omega=2.0, r=1.3)
        for k in (3.0, 5.0, 7.0, 9.0):
            assert helix_decay_norm(k, spec2) == 0.0


def test_criterion_4_limit_equivalences():
    with criterion(4, "line and cylinder limits of the helix", 10.0):
        # (a) dense winding and thin helix both collapse onto the line step
        thin = HelixSpec(Omega=3.0, r=1e-6)
        wound = HelixSpec(Omega=1e-4, r=1.0)
        for kappa in (0.0, 0.3, 0.5, 0.9, 1.5):
            step = 1.0 if abs(kappa) <= 1.0 else 0.0
            assert abs(helix_decay_norm(kappa, wound) - step) < 1e-6
            assert abs(helix_decay_norm(kappa, thin) - step) < 1e-6
        # (b) single-order window: helix decay equals the cylinder J0^2 factor
        rng = np.random.default_rng(2026)
        for _ in range(10_000):
            kappa = float(rng.uniform(0.0, 0.999))
            omega = float(rng.uniform(kappa + 1.001, kappa + 6.0))
            radius = float(rng.uniform(0.01, 10.0))
            bounds = m_bounds(kappa, omega)
            assert (bounds.m_min, bounds.m_max) == (0, 0)
            helix = helix_decay_norm(kappa, HelixSpec(Omega=omega, r=radius))
            cyl = cylinder_norms(0, kappa, radius)[0]
            assert abs(helix - cyl) <= 1e-12, (kappa, omega, radius)


def test_criterion_5_special_function_oracles():
    with criterion(5, "special functions vs series oracles", 30.0):
        for m in (0, 1, 3, 7):
            for x in (0.4, 2.2, 9.5, 18.0):
                want = float(oracles.oracle_j(m, x))
                assert abs(bessel_j(m, x) - want) <= 1e-10 * max(1.0, abs(want))
            for x in (0.3, 1.8, 7.7):
                want = float(oracles.oracle_y(m, x))
                assert abs(bessel_y(m, x) - want) <= 1e-10 * max(1.0, abs(want))
        for m in (0, 2, 5):
            for x in (0.6, 3.1, 12.0):
                iv, kv = bessel_ik(m, x)
                want_i = float(oracles.oracle_i(m, x))
                want_k = float(oracles.oracle_k(m, x))
                assert abs(iv - want_i) <= 1e-10 * max(1.0, abs(want_i))
                assert abs(kv - want_k) <= 1e-10 * max(1.0, abs(want_k))
        for s, oracle in ((2, oracles.oracle_li2_circle), (3, oracles.oracle_li3_circle)):
            for t in (0.3, 1.1, 2.0, math.pi, 4.4, 5.9):
                want = complex(oracle(t))
                got = polylog_unit_circle(s, t)
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
        # cross products: cylinder functions' Wronskians at 1e-10
        for m in (0, 1, 4):
            for x in (0.5, 2.7, 9.1):
                w = bessel_j(m + 1, x) * bessel_y(m, x) - bessel_j(m, x) * bessel_y(m + 1, x)
                assert abs(w - 2.0 / (math.pi * x)) <= 1e-10
                i0, k0 = bessel_ik(m, x)
                i1, k1 = bessel_ik(m + 1, x)
                assert abs(i0 * k1 + i1 * k0 - 1.0 / x) <= 1e-10
        # completeness: sum of J_m^2 over all orders is exactly one
        for x in (0.5, 3.3, 11.7):
            total = bessel_j(0, x) ** 2 + 2.0 * sum(
                bessel_j(m, x) ** 2 for m in range(1, 61)
            )
            assert abs(total - 1.0) <= 1e-10


def test_criterion_6_finite_oracle():
    with criterion(6, "Dicke pair and trace conservation", 60.0):
        for x in np.linspace(0.05, 15.0, 100):
            sp = oracle_spectrum(
                build_scalar_kernel(pair_cloud(float(x) / UNIT.k0), UNIT)
            )
            sinc = math.sin(x) / x
            want = sorted((2.0 * (1.0 + sinc), 2.0 * (1.0 - sinc)), reverse=True)
            assert abs(sp.gamma_j[0] - want[0]) <= 1e-12
            assert abs(sp.gamma_j[1] - want[1]) <= 1e-12
        rng = np.random.default_rng(7)
        for n in (50, 200, 500):
            cloud = EmitterCloud(rng.uniform(0.0, 12.0, size=(n, 3)))
            sp = oracle_spectrum(build_scalar_kernel(cloud, UNIT))
            assert abs(sp.gamma_j.sum() / 2.0 - n * UNIT.gamma) <= 1e-8 * n * UNIT.gamma


def test_criterion_7_thermal_dominance():
    with criterion(7, "thermal helix dominance and series convergence", 60.0):
        config = ThermalConfig(beta=1.0, kappa_min=0.0, kappa_max=5.0,
                               kappa_step=0.01, M=10)
        # convergence: all three series meet at vanishing radius / pitch ratio
        trio = thermal_sweep(
            [HelixSpec(Omega=3.0, r=0.05), HelixSpec(Omega=0.05, r=3.0), 0.05], config)
        vals = [res.gamma_th for _, res in trio]
        spread = (max(vals) - min(vals)) / min(vals)
        assert spread < 0.05, f"series spread {spread:.3%} at x=0.05: {vals}"

        # Dominance holds from r = 1 up; the curves cross between r = 0.9 and
        # r = 1.  Below the crossing the helix puts extra thermal weight on
        # its dim m = +-1 band (kappa in (2, 4), gamma_norm <= 0.059), whose
        # Lamb shifts sit far below E_max: at r = 0.5 the band carries weight
        # 39.8 against the cylinder's 21.8, so the helix averages 0.2977
        # against 0.3535.
        radii = [1.0, 2.0, 3.0, 5.0, 10.0]
        helix = thermal_sweep([HelixSpec(Omega=3.0, r=x) for x in radii], config)
        cyl = thermal_sweep(list(radii), config)
        failures = []
        for x, (_, h), (_, c) in zip(radii, helix, cyl):
            if h.gamma_th < c.gamma_th:
                failures.append(
                    f"r={x}: helix {h.gamma_th:.12f} < cylinder {c.gamma_th:.12f}"
                )
        assert not failures, "; ".join(failures)

        # r = 0.5: the averaged helix profile itself must match the
        # Bessel-free quadrature, every 0.1 in kappa off the band edges
        spec = HelixSpec(Omega=3.0, r=0.5)
        table = sweep(config.grid(), spec, UNIT, M=config.M)
        assert thermal_average(table, config).gamma_th == thermal_sweep(
            [spec], config)[0][1].gamma_th
        edges = (1.0, 2.0, 4.0, 5.0)  # +-1 + 3m inside [0, 5]
        pts = [p for p in table.points[::10]
               if min(abs(p.kappa - e) for e in edges) > 0.15]
        kappas = [p.kappa for p in pts]
        gamma = oracles.oracle_helix_gamma(kappas, spec.Omega, spec.r)
        lamb = oracles.oracle_helix_lamb_diff(kappas, kappas[0], spec.Omega, spec.r)
        for p, g, dl in zip(pts, gamma, lamb):
            assert abs(p.gamma_norm - g) <= 6e-6, f"kappa={p.kappa}"
            # M = 10 leaves out the orders |m| > 10, which the integral keeps
            assert abs((p.lamb_norm - pts[0].lamb_norm) - dl) <= 1.6e-3, (
                f"kappa={p.kappa}"
            )


def test_criterion_8_discrete_line_structure():
    with criterion(8, "discrete-chain asymptotes and divergence", 5.0):
        dense = 2.0 * math.pi * 0.05
        perp = DiscreteLineParams(k0d=dense, orientation=Orientation.PERPENDICULAR)
        par = DiscreteLineParams(k0d=dense, orientation=Orientation.PARALLEL)
        for kappa in (1.0, -1.0):
            assert discrete_line_lamb(perp, kappa) == float("-inf")
            assert math.isfinite(discrete_line_lamb(par, kappa))
        # only g = 0 radiates at this spacing: 15 (1 - kappa^2) and
        # 7.5 (1 + kappa^2) inside the light line, 0 beyond
        for kappa in kappa_grid(-2.0, 2.0, 0.01):
            inside = abs(kappa) <= 1.0
            want_perp = 7.5 * (1.0 + kappa * kappa) if inside else 0.0
            want_par = 15.0 * (1.0 - kappa * kappa) if inside else 0.0
            assert math.isclose(discrete_line_decay(perp, kappa), want_perp,
                                rel_tol=1e-14, abs_tol=0.0), f"kappa={kappa}"
            assert math.isclose(discrete_line_decay(par, kappa), want_par,
                                rel_tol=1e-14, abs_tol=0.0), f"kappa={kappa}"
        grid = kappa_grid(0.0, 1.0, 0.01)
        peaks = []
        for frac in (0.5, 0.1, 0.02):
            p = DiscreteLineParams(k0d=2.0 * math.pi * frac,
                                   orientation=Orientation.PARALLEL)
            peaks.append(max(discrete_line_decay(p, k) for k in grid))
        assert peaks[0] < peaks[1] < peaks[2]
