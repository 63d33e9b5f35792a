"""Helix fitting, line density, and the peak-rate estimate report."""

import math
import warnings

import numpy as np
import pytest
import scipy.optimize
from scipy.spatial.transform import Rotation

from helirad import geomfit
from helirad.discrete import EmitterCloud, helix_cloud, line_cloud, ring_cloud
from helirad.geomfit import (
    CloudFormatError,
    EstimateReport,
    FitDegeneracyError,
    FitWarning,
    Handedness,
    HelixFit,
    estimate,
    fit_helix,
    line_density,
    load_emitters,
    with_density,
)
from helirad.spectra import EmitterPhysics, HelixSpec, helix_decay_norm

TWO_PI = 2.0 * math.pi
EPS = np.finfo(float).eps


def synthetic_helix(R, b, n, turns, direction=1, phase=0.0, rot=None, shift=None):
    """Exact helix cloud; direction +1 is right-handed, -1 left-handed."""
    phi = np.linspace(0.0, turns * TWO_PI, n)
    pos = np.column_stack([
        R * np.cos(direction * phi + phase),
        R * np.sin(direction * phi + phase),
        (b / TWO_PI) * phi,
    ])
    if rot is not None:
        pos = pos @ np.asarray(rot).T
    if shift is not None:
        pos = pos + np.asarray(shift)
    return EmitterCloud(pos)


def _plain_fit(R, b, n0=1.0):
    return HelixFit(
        axis_direction=np.array([0.0, 0.0, 1.0]),
        axis_point=np.zeros(3),
        R=R,
        b=b,
        phase=0.0,
        handedness=Handedness.RIGHT,
        rms_residual=0.0,
        n0=n0,
    )


# ---------------------------------------------------------------- loader


def test_load_emitters_parses_comments_and_blanks(tmp_path):
    p = tmp_path / "cloud.txt"
    p.write_text(
        "# header comment\n"
        "\n"
        "1.0 2.0 3.0\n"
        "4 5 6  # trailing comment\n"
        "   \t\n"
        "-7.5\t0 9e-1\n"
    )
    cloud = load_emitters(p)
    assert cloud.count == 3
    assert np.array_equal(
        cloud.positions, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [-7.5, 0.0, 0.9]]
    )


def test_load_emitters_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 2 3\n4 5\n")
    with pytest.raises(CloudFormatError, match=r"bad\.txt:2: expected 3 coordinates, got 2"):
        load_emitters(p)
    p.write_text("1 2 three\n")
    with pytest.raises(CloudFormatError, match=r":1: non-numeric"):
        load_emitters(p)
    p.write_text("1 2 nan\n")
    with pytest.raises(CloudFormatError, match=r":1: non-finite"):
        load_emitters(p)
    p.write_text("# nothing here\n\n")
    with pytest.raises(CloudFormatError, match="no emitters"):
        load_emitters(p)
    assert issubclass(CloudFormatError, ValueError)


# ---------------------------------------------------------------- fitting


def test_fit_exact_synthetic_roundtrip(tmp_path):
    cloud = synthetic_helix(11.2, 7.8, 200, turns=10)
    p = tmp_path / "helix.txt"
    p.write_text("".join(f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in cloud.positions))
    fit = fit_helix(load_emitters(p))
    assert abs(fit.R - 11.2) < 1e-6 * 11.2
    assert abs(fit.b - 7.8) < 1e-6 * 7.8
    assert fit.rms_residual < 1e-9
    assert fit.handedness is Handedness.RIGHT
    assert abs(fit.axis_direction @ [0.0, 0.0, 1.0]) > 1.0 - 1e-9
    # 200 points across exactly 10 turns of helical arc
    want_n0 = 200.0 / (10.0 * math.hypot(7.8, TWO_PI * 11.2))
    assert math.isclose(fit.n0, want_n0, rel_tol=1e-9)
    assert math.isclose(line_density(cloud, fit), want_n0, rel_tol=1e-9)


def test_fit_jittered_cloud_within_two_percent():
    rng = np.random.default_rng(42)
    base = synthetic_helix(11.2, 7.8, 200, turns=10)
    noisy = EmitterCloud(base.positions + rng.normal(0.0, 0.1, size=(200, 3)))
    fit = fit_helix(noisy)
    assert abs(fit.R - 11.2) < 0.02 * 11.2
    assert abs(fit.b - 7.8) < 0.02 * 7.8


def test_fit_mirror_flips_handedness_only():
    right = fit_helix(synthetic_helix(11.2, 7.8, 200, turns=10, direction=1))
    left = fit_helix(synthetic_helix(11.2, 7.8, 200, turns=10, direction=-1))
    assert right.handedness is Handedness.RIGHT
    assert left.handedness is Handedness.LEFT
    assert math.isclose(right.R, left.R, rel_tol=1e-9)
    assert math.isclose(right.b, left.b, rel_tol=1e-9)


def test_fit_equivariant_under_rigid_motion():
    rot = Rotation.from_rotvec([0.3, -1.1, 0.7]).as_matrix()
    shift = np.array([12.0, -3.5, 40.0])
    plain = fit_helix(synthetic_helix(4.6, 21.0, 160, turns=8, phase=0.4))
    moved = fit_helix(synthetic_helix(4.6, 21.0, 160, turns=8, phase=0.4, rot=rot, shift=shift))
    assert math.isclose(moved.R, plain.R, rel_tol=1e-9)
    assert math.isclose(moved.b, plain.b, rel_tol=1e-9)
    assert math.isclose(moved.n0, plain.n0, rel_tol=1e-9)
    assert abs(moved.rms_residual - plain.rms_residual) < 1e-9
    assert abs(moved.axis_direction @ (rot @ plain.axis_direction)) > 1.0 - 1e-9


def test_fit_recovery_across_parameter_range():
    for R in (0.5, 3.7, 20.0):
        for b in (1.0, 27.5, 150.0):
            turns = max(6, math.ceil(5.0 * R / b))
            n = max(120, 14 * turns)
            fit = fit_helix(synthetic_helix(R, b, n, turns=turns, phase=0.9))
            assert abs(fit.R - R) < 1e-6 * R, (R, b)
            assert abs(fit.b - b) < 1e-6 * b, (R, b)


def test_fit_rejects_small_and_degenerate_clouds():
    with pytest.raises(ValueError, match="at least 8"):
        fit_helix(EmitterCloud(np.random.default_rng(0).uniform(size=(7, 3))))
    with pytest.raises(FitDegeneracyError, match="collinear"):
        fit_helix(line_cloud(10, 1.5))
    with pytest.raises(FitDegeneracyError, match="coplanar"):
        fit_helix(ring_cloud(12, 3.0))


def test_circle_and_phase_fits_of_clouds_that_pass_the_svd_refusals():
    # Past the collinear and coplanar refusals every principal axis leaves
    # the circle fit a positive radius and the phase regression a positive
    # axial span, on clouds as close to those refusals as they let through
    rot = Rotation.from_rotvec([0.3, -1.1, 0.7]).as_matrix()
    far = np.array([1e6, -1e6, 1e6])
    thin = [synthetic_helix(3e-6, 7.8, 200, 10, rot=rot),
            synthetic_helix(3e-7, 7.8, 200, 10, rot=rot),
            synthetic_helix(1e-6, 100.0, 300, 3, rot=rot)]
    clouds = thin + [
        # arcs of under 0.1 turn
        synthetic_helix(11.2, 7.8, 50, 0.05, rot=rot),
        synthetic_helix(11.2, 1000.0, 30, 0.09, rot=rot),
        synthetic_helix(30.0, 2.0, 100, 0.099, rot=rot),
        # offset by 1e6 nm
        synthetic_helix(11.2, 7.8, 200, 10, rot=rot, shift=far),
        synthetic_helix(0.5, 7.8, 200, 3, rot=rot, shift=-far),
        # N = 8
        synthetic_helix(11.2, 7.8, 8, 1.5, rot=rot),
        synthetic_helix(11.2, 7.8, 8, 0.08, rot=rot, shift=far),
    ]
    for k, cloud in enumerate(clouds):
        centered = cloud.positions - cloud.positions.mean(axis=0)
        _, svals, vt = np.linalg.svd(centered, full_matrices=False)
        assert svals[2] > geomfit._DEGENERACY_RTOL * svals[0], k
        if k < len(thin):
            assert 1e-9 < svals[2] / svals[0] < 1e-6, k
        for row in vt:
            v0 = -row if row[np.argmax(np.abs(row))] < 0.0 else row
            e1, e2 = geomfit._complete(v0, np.eye(3)[np.argmin(np.abs(v0))])
            u, w, z = centered @ e1, centered @ e2, centered @ v0
            c1, c2, radius = geomfit._circle_fit(u, w)
            assert math.isfinite(radius) and radius > 0.0, k
            # the column of ones makes the residuals sum to 0, so R^2 is the
            # mean squared distance to the centre, up to the least-squares
            # forward error eps cond(A) in t, c1, c2 (measured below 0.71 of it)
            a = np.column_stack([2.0 * u, 2.0 * w, np.ones_like(u)])
            mean2 = np.mean((u - c1) ** 2 + (w - c2) ** 2)
            scale = radius * radius + c1 * c1 + c2 * c2
            assert abs(radius * radius - mean2) <= 8.0 * EPS * np.linalg.cond(a) * scale, k
            assert z.max() - z.min() > 0.0, k
            slope, phi0 = geomfit._phase_regression(z, np.arctan2(w - c2, u - c1))
            assert math.isfinite(slope) and math.isfinite(phi0), k


def test_fit_warns_on_axial_gap():
    # a missing stretch of the helix makes consecutive retained points
    # advance far more than pi in azimuth across the gap
    pos = synthetic_helix(11.2, 7.8, 150, turns=10).positions
    gapped = EmitterCloud(np.vstack([pos[:60], pos[110:]]))
    with pytest.warns(FitWarning, match="pitch may alias"), \
            pytest.warns(FitWarning, match="exceeds the fitted radius"):
        fit = fit_helix(gapped)
    # the fit still returns (it is suspect, not invalid)
    assert isinstance(fit, HelixFit)


# ---------------------------------------------------------------- line density


def test_line_density_straight_line_limit():
    cloud = line_cloud(40, 0.5)
    fit = _plain_fit(R=1e-12, b=5.0)
    # arc factor sqrt(1 + (2 pi R / b)^2) -> 1, so n0 -> N / axial span
    assert math.isclose(line_density(cloud, fit), 40.0 / 19.5, rel_tol=1e-12)


def test_line_density_linear_in_count():
    fit = fit_helix(synthetic_helix(11.2, 7.8, 200, turns=10))
    dense = synthetic_helix(11.2, 7.8, 400, turns=10)
    sparse = synthetic_helix(11.2, 7.8, 200, turns=10)
    ratio = line_density(dense, fit) / line_density(sparse, fit)
    assert math.isclose(ratio, 2.0, rel_tol=1e-12)


def test_line_density_rejects_zero_span():
    fit = _plain_fit(R=3.0, b=5.0)
    with pytest.raises(FitDegeneracyError, match="zero axial extent"):
        line_density(ring_cloud(10, 3.0), fit)


# ---------------------------------------------------------------- estimates


def test_estimate_identities():
    phys = EmitterPhysics(gamma=1.0, lambda0=280.0, n0=1.0)
    fit = _plain_fit(R=11.2, b=7.8, n0=1.58)
    est = estimate(fit, phys)
    assert math.isclose(est.Omega * fit.b, 280.0, rel_tol=1e-12)
    assert math.isclose(est.r * 280.0, TWO_PI * fit.R, rel_tol=1e-12)
    assert est.gamma_max_over_gamma == fit.n0 * 280.0
    assert math.isclose(
        est.trapped_percent, 100.0 * (est.Omega - 2.0) / est.Omega, rel_tol=1e-12
    )


def test_estimate_tryptophan_structures():
    # microtubule, actin, and amyloid helices at the 280 nm transition
    phys = EmitterPhysics(gamma=1.0, lambda0=280.0, n0=1.0)
    rows = [
        (11.2, 7.8, 1.58, 35.90, 0.251, 442.4, 94.43),
        (2.64, 73.1, 0.75, 3.83, 0.059, 210.0, 47.79),
        (2.71, 112.3, 2.07, 2.49, 0.061, 579.6, 19.79),
    ]
    for R, b, n0, omega, r, gmax, trapped in rows:
        est = estimate(_plain_fit(R=R, b=b, n0=n0), phys)
        assert round(est.Omega, 2) == omega
        assert round(est.r, 3) == r
        assert math.isclose(est.gamma_max_over_gamma, gmax, rel_tol=1e-12)
        assert round(est.trapped_percent, 2) == trapped


def test_estimate_peak_rate_below_omega_two_matches_a_dense_scan():
    # below Omega = 2 other orders share the window of kappa = 1 with order 0,
    # so the peak of the unit-normalised decay exceeds J_0(0)^2 = 1
    phys = EmitterPhysics(gamma=1.0, lambda0=280.0, n0=1.0)
    for omega, r in ((1.0, 1.84), (1.6, 2.32), (0.2, 4.0), (1.99, 12.0)):
        est = estimate(_plain_fit(R=r * 280.0 / TWO_PI, b=280.0 / omega, n0=1.58), phys)
        spec = HelixSpec(est.Omega, est.r)
        scan = float(helix_decay_norm(np.linspace(-6.0, 6.0, 24001), spec).max())
        assert scan > 1.0
        assert math.isclose(est.gamma_max_over_gamma, 1.58 * 280.0 * scan, rel_tol=1e-12)
    est = estimate(_plain_fit(R=1.84 * 280.0 / TWO_PI, b=280.0), phys)
    assert math.isclose(est.gamma_max_over_gamma / 280.0, 1.33857, rel_tol=1e-5)
    assert math.isclose(est.gamma_max_over_gamma / 280.0,
                        helix_decay_norm(1.0, HelixSpec(est.Omega, est.r)), rel_tol=1e-12)


def test_estimate_refuses_a_peak_search_over_the_work_limit(monkeypatch):
    # the search's 259 kappa points x (2/Omega + 1) orders pass the 1e8-term
    # limit below Omega ~ 5.2e-6; the refusal names Omega and the search, and
    # comes before any Bessel value is formed
    phys = EmitterPhysics(gamma=1.0, lambda0=280.0, n0=1.0)
    monkeypatch.setattr(geomfit, "helix_decay_norm", None)
    with pytest.raises(ValueError, match=r"Omega = lambda0/b = 5e-06 is too small for the "
                                         r"peak-rate search: its 259 kappa points span "
                                         r"103600004 Bessel orders, over the limit of "
                                         r"100000000 terms"):
        estimate(_plain_fit(R=5.0, b=280.0 / 5e-6), phys)


@pytest.mark.parametrize("omega", [2.0, 2.0 + 1e-10, 2.0000001, 2.49, 3.83, 35.9, 1e3, 1e8])
@pytest.mark.parametrize("r", [0.0, 1e-9, 0.251, 12.0, 2e3])
def test_peak_closed_form_is_the_searchs_grid_maximum_bitwise(omega, r):
    # at Omega >= 2 no order but m = 0 has a nonzero J_m in the window of
    # kappa = 1, so the search over the period finds exactly J_0(0)^2 = 1;
    # Omega = 2 + 1e-10 is where the order window snaps
    spec = HelixSpec(omega, r)
    peak = geomfit._peak_search(spec)
    assert peak.hex() == (1.0).hex()
    if r > 0.0:
        # estimate's closed form, through a fit that carries this Omega and r
        phys = EmitterPhysics(gamma=1.0, lambda0=280.0, n0=1.0)
        fit = _plain_fit(R=r / phys.k0, b=280.0 / omega, n0=1.58)
        assert (estimate(fit, phys).gamma_max_over_gamma.hex()
                == (fit.n0 * phys.lambda0 * peak).hex())


def test_estimate_at_omega_two_and_above_forms_no_bessel_value(monkeypatch):
    phys = EmitterPhysics(gamma=1.0, lambda0=280.0, n0=1.0)
    monkeypatch.setattr(geomfit, "helix_decay_norm", None)
    for R, b, n0 in ((11.2, 7.8, 1.58), (2.64, 73.1, 0.75), (2.71, 112.3, 2.07),
                     (1e-9, 140.0, 1.0), (2e3, 280.0 / 1e8, 3.0)):
        est = estimate(_plain_fit(R=R, b=b, n0=n0), phys)
        assert est.Omega >= 2.0
        assert est.gamma_max_over_gamma == n0 * 280.0
    # the closed form keeps every HelixSpec refusal: k0 R overflows to
    # r = inf at Omega = 1e10, and a negative pitch gives Omega < 0
    with pytest.raises(ValueError, match=r"HelixSpec.r must be >= 0, got inf"):
        estimate(_plain_fit(R=1e10, b=1e-310),
                 EmitterPhysics(gamma=1.0, lambda0=1e-300, n0=1.0))
    with pytest.raises(ValueError, match=r"HelixSpec.Omega must be > 0, got -35.8"):
        estimate(_plain_fit(R=11.2, b=-7.8), phys)


def test_trapped_percent_zero_below_two_then_increasing():
    phys = EmitterPhysics(gamma=1.0, lambda0=280.0, n0=1.0)
    omegas, percents = [], []
    for b in (400.0, 180.0, 140.01, 140.0, 100.0, 20.0, 7.8, 1.0):
        est = estimate(_plain_fit(R=5.0, b=b), phys)
        omegas.append(est.Omega)
        percents.append(est.trapped_percent)
    for omega, pct in zip(omegas, percents):
        if omega < 2.0:
            assert pct == 0.0
        assert 0.0 <= pct < 100.0
    above = [p for o, p in zip(omegas, percents) if o >= 2.0]
    assert all(a < b for a, b in zip(above, above[1:]))


def test_with_density_replaces_only_n0():
    fit = _plain_fit(R=2.64, b=73.1, n0=0.1)
    out = with_density(fit, 0.75)
    assert out.n0 == 0.75
    assert out.R == fit.R and out.b == fit.b and out.handedness is fit.handedness
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="n0 must be > 0"):
            with_density(fit, bad)


def test_helix_fit_field_validation():
    ok = dict(
        axis_direction=np.array([0.0, 0.0, 1.0]),
        axis_point=np.zeros(3),
        R=1.0,
        b=2.0,
        phase=0.0,
        handedness=Handedness.RIGHT,
        rms_residual=0.0,
        n0=1.0,
    )
    with pytest.raises(ValueError, match="unit vector"):
        HelixFit(**{**ok, "axis_direction": np.array([0.0, 0.0, 2.0])})
    with pytest.raises(ValueError, match="3-vectors"):
        HelixFit(**{**ok, "axis_point": np.zeros(2)})
    with pytest.raises(ValueError, match="R must be > 0"):
        HelixFit(**{**ok, "R": 0.0})
    with pytest.raises(ValueError, match="b must be nonzero"):
        HelixFit(**{**ok, "b": 0.0})
    with pytest.raises(ValueError, match="rms_residual"):
        HelixFit(**{**ok, "rms_residual": -1.0})


def test_estimate_report_is_plain_data():
    rep = EstimateReport(Omega=3.0, r=0.5, gamma_max_over_gamma=10.0, trapped_percent=33.3)
    assert rep.Omega == 3.0 and rep.trapped_percent == 33.3


# ---------------------------------------------------------------- search and axis rule


def _reference_point_curve_rms(centered, axis, e1, e2, c1, c2, radius, slope, phi0):
    """The per-point search _point_curve_rms replaced: scan, then bounded Brent."""
    rel = centered - c1 * e1 - c2 * e2
    z = rel @ axis
    period = TWO_PI / abs(slope)

    def dist2_at(point, zc):
        delta = point - (
            radius * math.cos(slope * zc + phi0) * e1
            + radius * math.sin(slope * zc + phi0) * e2
            + zc * axis
        )
        return float(delta @ delta)

    total = 0.0
    for point, zi in zip(rel, z):
        grid = zi + np.linspace(-0.5 * period, 0.5 * period, 17)
        vals = [dist2_at(point, g) for g in grid]
        k = int(np.argmin(vals))
        h = period / 16.0
        best = scipy.optimize.minimize_scalar(
            lambda zc: dist2_at(point, zc),
            bounds=(grid[k] - h, grid[k] + h),
            method="bounded",
            options={"xatol": 1e-12},
        )
        total += min(best.fun, vals[k])
    return math.sqrt(total / len(z))


def _reference_fit_all_axes(cloud):
    """(axis, R, b, handedness) from the rule that refines every viable axis.

    Each axis is refined the way fit_helix refines it: _refine's
    Levenberg-Marquardt with the exact Jacobian.
    """
    centered = cloud.positions - cloud.positions.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    best = None
    for row in vt:
        v0 = -row if row[np.argmax(np.abs(row))] < 0.0 else row
        cand = geomfit._candidate_fit(centered, v0)
        if cand is None:
            continue
        _, x0, args = cand
        x, cost, _ = geomfit._refine(geomfit._residuals, geomfit._jacobian, x0, args)
        if best is None or cost < best[0]:
            best = (cost, x, args)
    _, x, args = best
    axis = geomfit._frame_of(x, *args[1:])[0]
    slope = x[5]
    hand = Handedness.RIGHT if slope > 0.0 else Handedness.LEFT
    return axis, float(x[4]), float(TWO_PI / abs(slope)), hand


def _fit_with_curve_args(cloud):
    """fit_helix(cloud) and the arguments it passes to _point_curve_rms."""
    seen = []
    real = geomfit._point_curve_rms

    def spy(*args):
        seen.append(args)
        return real(*args)

    geomfit._point_curve_rms = spy
    try:
        fit = fit_helix(cloud)
    finally:
        geomfit._point_curve_rms = real
    return fit, seen[0]


def _curve_args(cloud):
    """The arguments fit_helix passes to _point_curve_rms for this cloud."""
    return _fit_with_curve_args(cloud)[1]


def _jittered(seed, n=200, turns=10, R=11.2, b=7.8, sigma=0.1):
    rng = np.random.default_rng(seed)
    rot = Rotation.from_rotvec(rng.normal(size=3)).as_matrix()
    pos = synthetic_helix(R, b, n, turns=turns, rot=rot).positions
    return EmitterCloud(pos + rng.normal(0.0, sigma, size=pos.shape))


def _bench_style_clouds():
    """14 clouds drawn like bench/workloads.fit_clouds: rotated 10-turn
    R = 11.2 nm, b = 7.8 nm helices, 12 at N = 200 and 2 at N = 1000, with
    0.05 nm jitter."""
    clouds = []
    for n, draws in ((200, 12), (1000, 2)):
        rng = np.random.default_rng([22468, n])
        helix = synthetic_helix(11.2, 7.8, n, turns=10).positions
        for _ in range(draws):
            w, x, y, z = rng.standard_normal(4)
            rot = Rotation.from_quat([x, y, z, w]).as_matrix()
            clouds.append(EmitterCloud(helix @ rot.T + rng.normal(0.0, 0.05, (n, 3))))
    return clouds


def _curve_search_clouds():
    rot = Rotation.from_rotvec([0.3, -1.1, 0.7]).as_matrix()
    return [
        synthetic_helix(11.2, 7.8, 200, turns=10),
        synthetic_helix(4.6, 21.0, 160, turns=8, direction=-1, phase=0.4,
                        rot=rot, shift=[12.0, -3.5, 40.0]),
        _jittered(1),
        _jittered(2, R=2.64, b=73.1, turns=6, sigma=0.05),
    ]


def _long_helix():
    return _jittered(3, n=120, turns=20, R=20.0, b=150.0)


@pytest.fixture(scope="module")
def well_posed_fits():
    """(fit, curve-search arguments, FitWarnings) of every well-posed test cloud."""
    clouds = (_curve_search_clouds() + [_long_helix()]
              + [_jittered(seed) for seed in range(20)] + _bench_style_clouds())
    fits = []
    for cloud in clouds:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", FitWarning)
            fit, args = _fit_with_curve_args(cloud)
        fits.append((fit, args, [w for w in caught if w.category is FitWarning]))
    return fits


def test_curve_search_matches_per_point_reference():
    for cloud in _curve_search_clouds():
        args = _curve_args(cloud)
        got = geomfit._point_curve_rms(*args)
        want = _reference_point_curve_rms(*args)
        assert abs(got - want) <= 1e-12, (got, want)


def test_curve_search_converges_within_eight_iterations(monkeypatch, well_posed_fits):
    # a Newton step that lands on the end of its bracket is taken, so no
    # column bisects toward a root Newton already found
    want = [geomfit._point_curve_rms(*args) for _, args, _ in well_posed_fits]
    monkeypatch.setattr(geomfit, "_CURVE_SEARCH_ITERATIONS", 8)
    got = [geomfit._point_curve_rms(*args) for _, args, _ in well_posed_fits]
    assert got == want


def _mp_curve_distance2(mpmath, u, w, z, radius, slope, phi0):
    """Squared distance from frame point (u, w, z) to the curve, at 30 digits."""
    period = TWO_PI / abs(slope)
    # start from the best of a dense float scan over one period
    scan = z + period * np.linspace(-0.5, 0.5, 4097)
    th = slope * scan + phi0
    start = scan[np.argmin((u - radius * np.cos(th)) ** 2
                           + (w - radius * np.sin(th)) ** 2 + (z - scan) ** 2)]
    u, w, z = mpmath.mpf(u), mpmath.mpf(w), mpmath.mpf(z)

    def half_grad(t):
        th = slope * t + phi0
        return radius * slope * (u * mpmath.sin(th) - w * mpmath.cos(th)) - (z - t)

    t = mpmath.findroot(half_grad, mpmath.mpf(start))
    th = slope * t + phi0
    return (u - radius * mpmath.cos(th)) ** 2 + (w - radius * mpmath.sin(th)) ** 2 \
        + (z - t) ** 2


def test_curve_search_reaches_the_true_distance_on_a_long_helix():
    # bounded Brent stops within sqrt(eps) |t| of the minimizer, so on a
    # helix thousands of nm long the reference overshoots the true RMS.
    # The search's own d2 is accurate because its final phase is
    # compensated: th = slope t + phi0 reaches 63 rad here, and rounding it
    # would move each evaluated curve point by up to R |th| eps
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    centered, axis, e1, e2, c1, c2, radius, slope, phi0 = _curve_args(_long_helix())
    curve = (radius, slope, phi0)

    def frame(points):
        rel = points - c1 * e1 - c2 * e2
        return rel @ e1, rel @ e2, rel @ axis

    total = mpmath.fsum(_mp_curve_distance2(mpmath, u, w, z, *curve)
                        for u, w, z in zip(*frame(centered)))
    truth = float(mpmath.sqrt(total / len(centered)))
    got = geomfit._point_curve_rms(centered, axis, e1, e2, c1, c2, *curve)
    ref = _reference_point_curve_rms(centered, axis, e1, e2, c1, c2, *curve)
    assert abs(got - truth) <= 1e-14 * truth
    assert ref - truth > 1e-12

    # Each point alone: its (u, w, z) come from a one-row product, whose bits
    # can differ from the full cloud's, so its distance is recomputed from
    # them.  Rounding cos, sin, R cos th and the differences u - R cos th,
    # w - R sin th, z - t costs each difference about 2 eps (R + d), and the
    # squares and the sum add 3 eps d2; d = sqrt(d2) then carries about
    # 3 eps (R + d).  The bound allows 4 eps (R + d): the search measured
    # 0.7 eps R, and the uncompensated phase reaches 30 eps R here.
    eps = np.finfo(float).eps
    for point in centered:
        point = point[None, :]
        (u,), (w,), (z,) = frame(point)
        want = float(mpmath.sqrt(_mp_curve_distance2(mpmath, u, w, z, *curve)))
        got = geomfit._point_curve_rms(point, axis, e1, e2, c1, c2, *curve)
        assert abs(got - want) <= 4 * eps * (radius + want), (point, got, want)


def test_fit_warns_when_the_curve_is_farther_than_its_radius():
    # 2.8 turns: the starts miss the axis, and the winner's curve lies
    # 3.4-3.5 R from the points in RMS
    for count in (200, 150):
        with pytest.warns(FitWarning, match="exceeds the fitted radius"):
            fit = fit_helix(helix_cloud(count, 11.2, 7.8))
        assert fit.rms_residual > 3.0 * fit.R


def test_well_posed_fits_do_not_warn(well_posed_fits):
    # jitter sigma leaves an RMS near sqrt(2) sigma, at most 0.027 R on
    # these clouds: far below the threshold
    for fit, _, caught in well_posed_fits:
        assert not caught, [str(w.message) for w in caught]
        assert fit.rms_residual < 0.1 * fit.R


def test_curve_search_polishes_both_tied_end_nodes():
    # a point 10 nm off the axis of a unit-radius, unit-pitch helix, where
    # the curve's azimuth faces away from it: its nearest curve points are
    # at heights 0 and 1, and the scan's end nodes (z -+ 1/2) tie exactly
    axis, e1, e2 = np.eye(3)[2], np.eye(3)[0], np.eye(3)[1]
    for eps in (-0.1, -0.01, -0.001, 0.001, 0.01, 0.1):
        point = np.array([[10.0, 0.0, 0.5 + eps]])
        got = geomfit._point_curve_rms(point, axis, e1, e2, 0.0, 0.0, 1.0, TWO_PI, 0.0)
        t = np.linspace(-1.0, 2.0, 300001)
        d2 = (10.0 - np.cos(TWO_PI * t)) ** 2 + np.sin(TWO_PI * t) ** 2 \
            + (0.5 + eps - t) ** 2
        assert abs(got - math.sqrt(d2.min())) < 1e-9, eps


def test_jacobian_matches_central_differences():
    # steps of eps^(1/3) times each parameter's natural scale leave a
    # truncation error (order h^2) and a rounding error (order eps/h) that
    # are both of order eps^(2/3) against the largest scaled entry; these
    # clouds measured up to 2.6 eps^(2/3)
    eps = np.finfo(float).eps
    rot = Rotation.from_rotvec([0.3, -1.1, 0.7]).as_matrix()
    clouds = [
        synthetic_helix(11.2, 7.8, 200, turns=10, direction=-1),
        synthetic_helix(4.6, 21.0, 160, turns=8, direction=-1, phase=0.4, rot=rot),
        _jittered(1),
        _jittered(2, R=2.64, b=73.1, turns=6, sigma=0.05),
        _jittered(4, n=1000),
    ]
    slopes = []
    for cloud in clouds:
        centered = cloud.positions - cloud.positions.mean(axis=0)
        v0 = np.linalg.svd(centered, full_matrices=False)[2][0]
        _, (_, _, c1, c2, radius, slope, phi0), args = geomfit._candidate_fit(centered, v0)
        span = np.ptp(centered @ v0)
        # tilted and off centre, so every link of the chain is live
        params = np.array([0.02 * radius / span, -0.015 * radius / span,
                           c1 + 0.1 * radius, c2 - 0.07 * radius, radius, slope, phi0])
        scale = np.array([radius / span, radius / span, radius, radius, radius, abs(slope), 1.0])
        jac = geomfit._jacobian(params, *args)
        num = np.empty_like(jac)
        for k in range(7):
            up, down = params.copy(), params.copy()
            up[k] += eps ** (1 / 3) * scale[k]
            down[k] -= eps ** (1 / 3) * scale[k]
            num[:, k] = (geomfit._residuals(up, *args) - geomfit._residuals(down, *args)) \
                / (up[k] - down[k])
        err = np.abs(jac - num) * scale
        assert err.max() <= 10.0 * eps ** (2 / 3) * (np.abs(jac) * scale).max()
        slopes.append(slope)
    assert min(slopes) < 0.0 < max(slopes)


def test_jacobian_is_finite_at_a_point_on_the_axis():
    v0 = np.array([0.0, 0.0, 1.0])
    e1_0, e2_0 = np.eye(3)[0], np.eye(3)[1]
    centered = np.vstack([synthetic_helix(3.0, 5.0, 40, turns=4).positions, [0.0, 0.0, 2.5]])
    params = np.array([0.0, 0.0, 0.0, 0.0, 3.0, TWO_PI / 5.0, 0.0])
    assert centered[-1] @ e1_0 == 0.0 and centered[-1] @ e2_0 == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jac = geomfit._jacobian(params, centered, v0, e1_0, e2_0)
    assert np.isfinite(jac).all()
    # that point's radial and phase rows carry no centre or tilt derivative
    assert np.array_equal(jac[40], [0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0])
    assert np.array_equal(jac[81, :4], np.zeros(4))


def test_cross_matches_numpy_bitwise():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = rng.normal(size=(2, 3)) * 10.0 ** rng.integers(-8, 9, size=(2, 1))
        assert geomfit._cross(a, b).tobytes() == np.cross(a, b).tobytes()
    # a (3, k) stack crosses column by column
    a, b = rng.normal(size=(3, 5)), rng.normal(size=3)
    assert geomfit._cross(a, b).tobytes() == np.cross(a.T, b).T.tobytes()
    assert geomfit._cross(b, a).tobytes() == np.cross(b, a.T).T.tobytes()


def test_fit_matches_the_all_axes_rule_bit_for_bit():
    for seed in range(20):
        cloud = _jittered(seed, sigma=0.05 + 0.01 * (seed % 5))
        fit = fit_helix(cloud)
        axis, R, b, hand = _reference_fit_all_axes(cloud)
        assert np.array_equal(fit.axis_direction, axis), seed
        assert (fit.R, fit.b, fit.handedness) == (R, b, hand), seed


# the real _refine, so that counters built one after another never nest
_REFINE = geomfit._refine


class _CountingRefine:
    """Stands in for geomfit._refine, recording each start axis and cost.

    `starts` keeps every call's (fun, jac, x0, args), `results` its
    (x, cost, status) and `first_residuals` the residuals of its first
    evaluation, so a test can refine the same starts another way.
    """

    def __init__(self, monkeypatch, inflate_first=None):
        self.real = _REFINE
        self.calls = []
        self.starts = []
        self.results = []
        self.first_residuals = []
        self.inflate_first = inflate_first
        monkeypatch.setattr(geomfit, "_refine", self)

    def __call__(self, fun, jac, x0, args):
        self.starts.append((fun, jac, x0, args))
        evaluations = []

        def recorded(x, *args):
            evaluations.append(fun(x, *args))
            return evaluations[-1]

        x, cost, status = self.real(recorded, jac, x0, args)
        self.first_residuals.append(evaluations[0])
        self.results.append((x, cost, status))
        if not self.calls and self.inflate_first is not None:
            cost = self.inflate_first
        self.calls.append((args[1], cost))
        return x, cost, status


# references from scipy, for the tests only: the trust-region reflective
# loop that refined the fit before any Levenberg-Marquardt (gtol=None turns
# off its gradient test), and MINPACK's lmder, which _refine replaced
_TRF = dict(method="trf", x_scale="jac", ftol=2 * EPS, xtol=2 * EPS, gtol=None, max_nfev=2000)
_LM = dict(method="lm", x_scale="jac", ftol=2 * EPS, xtol=2 * EPS, gtol=2 * EPS, max_nfev=2000)


def _assert_fit_agrees_with_refining_its_starts(monkeypatch, rel_tol, axis_tol, **refinement):
    """fit_helix on the 20 _jittered clouds against least_squares(**refinement)
    of each start it refined, the lowest-cost solution winning."""
    for seed in range(20):
        cloud = _jittered(seed, sigma=0.05 + 0.01 * (seed % 5))
        counter = _CountingRefine(monkeypatch)
        fit = fit_helix(cloud)
        best = None
        for fun, jac, x0, args in counter.starts:
            assert jac is geomfit._jacobian
            sol = scipy.optimize.least_squares(fun, x0, args=args, **refinement)
            if best is None or sol.cost < best[0].cost:
                best = (sol, args)
        sol, (_, v0, e1_0, e2_0) = best
        axis = geomfit._frame_of(sol.x, v0, e1_0, e2_0)[0]
        slope = sol.x[5]
        assert math.isclose(fit.R, sol.x[4], rel_tol=rel_tol), seed
        assert math.isclose(fit.b, TWO_PI / abs(slope), rel_tol=rel_tol), seed
        assert abs(fit.axis_direction @ axis) > 1.0 - axis_tol, seed
        assert fit.handedness is (Handedness.RIGHT if slope > 0.0 else Handedness.LEFT), seed
    # each counter wrapped the real _refine, not the counter before it
    assert geomfit._refine is counter and counter.real is _REFINE


def test_exact_jacobian_fit_agrees_with_forward_differences(monkeypatch):
    # the refinement fit_helix made before it had _jacobian: the trust-region
    # loop on least_squares' default forward differences
    _assert_fit_agrees_with_refining_its_starts(monkeypatch, 1e-6, 1e-9, **_TRF)


def test_levenberg_marquardt_fit_agrees_with_the_trust_region_refinement(monkeypatch):
    # the same minimum as the trust-region loop with the exact Jacobian
    _assert_fit_agrees_with_refining_its_starts(
        monkeypatch, 1e-9, 1e-12, jac=geomfit._jacobian, **_TRF)


def _ranked_start_costs(cloud):
    """_candidate_fit's cost of every viable principal-axis start, lowest first."""
    centered = cloud.positions - cloud.positions.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    costs = []
    for row in vt:
        v0 = -row if row[np.argmax(np.abs(row))] < 0.0 else row
        cand = geomfit._candidate_fit(centered, v0)
        if cand is not None:
            costs.append(cand[0])
    return sorted(costs)


def test_start_cost_is_the_cost_refine_starts_from_bit_for_bit(monkeypatch):
    # an infinite first refined cost makes fit_helix refine a later start too
    clouds = ([helix_cloud(200, 11.2, 7.8), helix_cloud(150, 11.2, 7.8)]
              + _bench_style_clouds() + [_jittered(seed) for seed in range(5)])
    real = geomfit._candidate_fit
    start_costs = {}

    def spy(centered, v0):
        cand = real(centered, v0)
        if cand is not None:
            start_costs[id(cand[2])] = cand[0]
        return cand

    monkeypatch.setattr(geomfit, "_candidate_fit", spy)
    refined = []
    for k, cloud in enumerate(clouds):
        for inflate_first in (None, math.inf):
            counter = _CountingRefine(monkeypatch, inflate_first)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", FitWarning)
                fit_helix(cloud)
            for (_, _, _, args), r in zip(counter.starts, counter.first_residuals):
                assert start_costs[id(args)] == 0.5 * (r @ r), k
            refined.append(len(counter.starts))
    assert min(refined) == 1 and max(refined) >= 2


def test_well_posed_fit_refines_one_axis(monkeypatch):
    for cloud in (synthetic_helix(11.2, 7.8, 200, turns=10), _jittered(5)):
        counter = _CountingRefine(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit_helix(cloud)
        assert len(counter.calls) == 1


def test_later_axis_is_refined_while_it_starts_below_the_best(monkeypatch):
    cloud = _jittered(6)
    starts = _ranked_start_costs(cloud)
    assert len(starts) == 3
    # a best cost equal to the next start cost stops the loop
    counter = _CountingRefine(monkeypatch, inflate_first=starts[1])
    plain = fit_helix(cloud)
    assert len(counter.calls) == 1
    # one just above it refines the next axis, which then wins
    counter = _CountingRefine(monkeypatch, inflate_first=starts[1] * (1 + 1e-9))
    # the true axis lost to an inflated cost, so the winner misfits the cloud
    with pytest.warns(FitWarning, match="exceeds the fitted radius"):
        fit = fit_helix(cloud)
    assert len(counter.calls) >= 2
    second_axis, second_cost = counter.calls[1]
    assert second_cost < counter.calls[0][1]
    assert abs(fit.axis_direction @ second_axis) > 0.99
    assert abs(fit.axis_direction @ plain.axis_direction) < 0.5


def test_fit_warns_when_the_winner_hits_the_evaluation_cap(monkeypatch):
    monkeypatch.setattr(geomfit, "_MAX_NFEV", 2)
    with pytest.warns(FitWarning, match="stopped at 2 evaluations"):
        fit = fit_helix(_jittered(7))
    assert isinstance(fit, HelixFit)


def test_refine_solves_a_linear_problem_to_lstsq_accuracy():
    # columns over two decades; much wider, and lstsq's own answer loses
    # digits with the condition number
    rng = np.random.default_rng(26)
    a = rng.normal(size=(40, 6)) * np.logspace(-1, 1, 6)

    def refine(y):
        return geomfit._refine(lambda x, a, y: a @ x - y, lambda x, a, y: a, np.zeros(6), (a, y))

    # a consistent system: the cost falls to rounding, so x is pinned
    y = a @ rng.normal(size=6)
    want = np.linalg.lstsq(a, y, rcond=None)[0]
    x, _, status = refine(y)
    assert status != 0
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
    # an inconsistent one: its cost is flat at the minimum, so the cost is
    # what a cost-reduction stop pins
    y = rng.normal(size=40)
    r = a @ np.linalg.lstsq(a, y, rcond=None)[0] - y
    _, cost, status = refine(y)
    assert status != 0 and cost <= 0.5 * (r @ r) * (1.0 + 1e-12)


def _rosenbrock(x, units):
    """More, Garbow and Hillstrom's problem 1, with x[1] in the given units."""
    return np.array([10.0 * (units * x[1] - x[0] ** 2), 1.0 - x[0]])


def _rosenbrock_jacobian(x, units):
    return np.array([[-20.0 * x[0], 10.0 * units], [-1.0, 0.0]])


@pytest.mark.parametrize("units", [2.0**-10, 2.0**-20, 2.0**-30])
def test_refine_takes_the_same_steps_in_any_units(units):
    # scaling each parameter by its Jacobian column norm makes the steps
    # independent of its units (powers of 2 rescale exactly) while another
    # column sets the damping's start, as the tilt columns do in the fit;
    # unscaled, the smaller columns drown in the damping
    def run(units):
        calls = []

        def fun(x, units):
            calls.append(x)
            return _rosenbrock(x, units)

        x, cost, status = geomfit._refine(fun, _rosenbrock_jacobian,
                                          np.array([-1.2, 1.0 / units]), (units,))
        return x * [1.0, units], cost, status, len(calls)

    x, cost, status, nfev = run(units)
    assert status != 0 and cost == 0.0
    assert x == pytest.approx([1.0, 1.0], rel=1e-12, abs=0.0)
    assert nfev == run(1.0)[3]


def test_refine_solves_browns_badly_scaled_problem():
    # More, Garbow and Hillstrom's problem 4: the minimum (1e6, 2e-6) lies
    # twelve decades apart, and the loop refuses steps on its way there, so
    # the damping must fall again after it grows
    x, cost, status = geomfit._refine(
        lambda x: np.array([x[0] - 1e6, x[1] - 2e-6, x[0] * x[1] - 2.0]),
        lambda x: np.array([[1.0, 0.0], [0.0, 1.0], [x[1], x[0]]]), np.array([1.0, 1.0]), ())
    assert status != 0
    assert x == pytest.approx([1e6, 2e-6], rel=1e-12, abs=0.0)
    assert cost <= 1e-20


def test_refine_spends_at_most_its_cap_and_reports_when_it_does(monkeypatch):
    # the start of the cloud's first principal axis
    pos = _jittered(7).positions
    centered = pos - pos.mean(axis=0)
    v0 = np.linalg.svd(centered, full_matrices=False)[2][0]
    _, x0, args = geomfit._candidate_fit(centered, v0)
    calls = []

    def fun(x, *args):
        calls.append(x)
        return geomfit._residuals(x, *args)

    free = geomfit._refine(fun, geomfit._jacobian, x0, args)
    needed = len(calls)
    assert free[2] != 0 and needed > 3
    for cap in range(1, needed + 3):
        monkeypatch.setattr(geomfit, "_MAX_NFEV", cap)
        calls.clear()
        x, cost, status = geomfit._refine(fun, geomfit._jacobian, x0, args)
        assert len(calls) == min(cap, needed), cap
        assert (status == 0) == (cap < needed), cap
        if cap >= needed:
            assert np.array_equal(x, free[0]) and (cost, status) == free[1:]


def test_refine_never_takes_a_step_that_raises_the_cost():
    # the Jacobian is evaluated once at each point the loop moves to, so the
    # costs there, then the returned one, trace the taken steps; the
    # 2.8-turn cloud's three axes misfit it and reject many steps
    costs, evaluations = [], []

    def jac(x, *args):
        r = geomfit._residuals(x, *args)
        costs[-1].append(0.5 * (r @ r))
        return geomfit._jacobian(x, *args)

    def fun(x, *args):
        evaluations[-1] += 1
        return geomfit._residuals(x, *args)

    for cloud in [helix_cloud(200, 11.2, 7.8)] + [_jittered(seed) for seed in range(5)]:
        centered = cloud.positions - cloud.positions.mean(axis=0)
        for row in np.linalg.svd(centered, full_matrices=False)[2]:
            v0 = -row if row[np.argmax(np.abs(row))] < 0.0 else row
            cand = geomfit._candidate_fit(centered, v0)
            if cand is None:
                continue
            _, x0, args = cand
            costs.append([])
            evaluations.append(0)
            x, cost, _ = geomfit._refine(fun, jac, x0, args)
            r = geomfit._residuals(x, *args)
            assert cost == 0.5 * (r @ r)
            costs[-1].append(cost)
            assert all(b <= a for a, b in zip(costs[-1], costs[-1][1:])), costs[-1]
    # some steps were refused: more residual evaluations than points moved to
    assert sum(evaluations) > sum(len(c) for c in costs)


def test_refine_meets_minpacks_minimum_from_the_same_starts(monkeypatch):
    clouds = _bench_style_clouds() + [_jittered(seed, sigma=0.05 + 0.01 * (seed % 5))
                                      for seed in range(20)]
    for k, cloud in enumerate(clouds):
        counter = _CountingRefine(monkeypatch)
        fit_helix(cloud)
        for (fun, jac, x0, args), (x, cost, status) in zip(counter.starts, counter.results):
            sol = scipy.optimize.least_squares(fun, x0, jac=jac, args=args, **_LM)
            assert status != 0 and sol.status > 0, k
            assert math.isclose(x[4], sol.x[4], rel_tol=1e-9), k
            assert math.isclose(TWO_PI / abs(x[5]), TWO_PI / abs(sol.x[5]), rel_tol=1e-9), k
            axis, ref = (geomfit._frame_of(p, *args[1:])[0] for p in (x, sol.x))
            assert 1.0 - abs(axis @ ref) <= 1e-12, k
            assert cost <= sol.cost * (1.0 + 1e-12), k
    assert geomfit._refine is counter and counter.real is _REFINE
