"""Infinite discrete dipole line and the finite-N brute-force oracle."""

import cmath
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from mpmath import mp
from scipy import special
from scipy.optimize import linear_sum_assignment

from helirad import discrete
from helirad.discrete import (
    ORACLE_SIZE_LIMIT,
    DiscreteLineParams,
    EmitterCloud,
    Orientation,
    build_scalar_kernel,
    discrete_line_decay,
    discrete_line_lamb,
    helix_cloud,
    line_cloud,
    oracle_spectrum,
    pair_cloud,
    ring_cloud,
    subradiant_fraction,
)
from helirad.spectra import EmitterPhysics, HelixSpec, helix_decay_norm, kappa_grid, line_lamb_norm

from . import oracles
from .test_spectra import _scalar_window

PHYS = EmitterPhysics(gamma=1.0, lambda0=1.0, n0=1.0)


def _params(k0d, perp=False):
    o = Orientation.PERPENDICULAR if perp else Orientation.PARALLEL
    return DiscreteLineParams(k0d=k0d, orientation=o)


def _mp_lamb(k0d, kappa, perp):
    # independent route: mpmath polylogs on the unit circle, exact phases
    d = mp.mpf(k0d)
    k = mp.mpf(kappa)
    tp = d * (1 + k)
    tm = d * (1 - k)
    bracket = (
        oracles.oracle_li3_circle(tp).real
        + oracles.oracle_li3_circle(tm).real
        + d * (oracles.oracle_li2_circle(tp).imag + oracles.oracle_li2_circle(tm).imag)
    )
    if not perp:
        return float(-1.5 * bracket / d**3)
    logs = mp.log(abs(2 * mp.sin(tp / 2))) + mp.log(abs(2 * mp.sin(tm / 2)))
    return float(0.75 * (bracket + d * d * logs) / d**3)


# ---------------------------------------------------------------- decay


def test_decay_single_branch_dense_spacing():
    # k0 d = 0.1 pi admits only g = 0 at kappa = 0, so both orientations
    # reduce to 1.5 pi / k0d = 15 exactly
    assert discrete_line_decay(_params(0.1 * math.pi), 0.0) == 15.0
    assert discrete_line_decay(_params(0.1 * math.pi, perp=True), 0.0) == 15.0


def test_decay_three_branch_closed_form():
    # k0 d = 3 pi at kappa = 0 admits g in {-1, 0, 1} with q = 0, +-2/3:
    # parallel (1/2)(1 + 2(1 - 4/9)) = 19/18, perpendicular 35/18
    assert math.isclose(discrete_line_decay(_params(3.0 * math.pi), 0.0), 19.0 / 18.0, rel_tol=1e-14)
    assert math.isclose(
        discrete_line_decay(_params(3.0 * math.pi, perp=True), 0.0), 35.0 / 18.0, rel_tol=1e-14
    )


def test_decay_trapped_region_is_zero():
    # dense spacing pushes the g != 0 branches far outside the light line
    for kappa in (1.5, -1.5, 3.0, 17.0):
        assert discrete_line_decay(_params(0.1 * math.pi), kappa) == 0.0
        assert discrete_line_decay(_params(0.1 * math.pi, perp=True), kappa) == 0.0


def test_decay_symmetric_in_kappa():
    for k0d in (0.1 * math.pi, 1.7, 3.0 * math.pi, 12.5):
        for kappa in (0.0, 0.3, 0.77, 1.0, 2.4):
            for perp in (False, True):
                a = discrete_line_decay(_params(k0d, perp), kappa)
                b = discrete_line_decay(_params(k0d, perp), -kappa)
                assert math.isclose(a, b, rel_tol=5e-15, abs_tol=0.0)


def test_decay_perp_dominates_par():
    for k0d in (0.1 * math.pi, 2.0, 3.0 * math.pi):
        for kappa in np.arange(0.0, 2.0, 0.03):
            par = discrete_line_decay(_params(k0d), float(kappa))
            per = discrete_line_decay(_params(k0d, perp=True), float(kappa))
            assert per >= par >= 0.0


def test_decay_band_edge_branch_is_clamped():
    # at kappa = 1 the g = 0 branch sits exactly on the light line: the
    # parallel weight 1 - q^2 vanishes, the perpendicular weight is 2
    d = 0.1 * math.pi
    assert discrete_line_decay(_params(d), 1.0) == 0.0
    assert math.isclose(discrete_line_decay(_params(d, perp=True), 1.0), 3.0 * math.pi / d, rel_tol=1e-14)


def test_decay_peak_grows_as_spacing_shrinks():
    # the continuous line's normalized decay stays <= 1, but the chain's
    # parallel peak scales like 1/k0d and grows without bound
    grid = np.arange(0.0, 1.0001, 0.01)
    peaks = []
    for frac in (0.5, 0.1, 0.02):
        p = _params(2.0 * math.pi * frac)
        peaks.append(max(discrete_line_decay(p, float(k)) for k in grid))
    assert peaks[0] < peaks[1] < peaks[2]
    assert peaks[2] > 1.0


def test_decay_rejects_bad_spacing():
    with pytest.raises(ValueError):
        DiscreteLineParams(k0d=0.0, orientation=Orientation.PARALLEL)
    with pytest.raises(ValueError):
        DiscreteLineParams(k0d=-2.0, orientation=Orientation.PERPENDICULAR)


def _reference_decay(params, kappa):
    # the branch sum with its own scalar g-window, as before the shared order window
    d = params.k0d
    g_lo, g_hi = _scalar_window((-1.0 - kappa) * d / (2.0 * math.pi),
                                (1.0 - kappa) * d / (2.0 * math.pi))
    total = 0.0
    for g in range(g_lo, g_hi + 1):
        q = kappa + 2.0 * math.pi * g / d
        q2 = min(q * q, 1.0)
        total += 1.0 - q2 if params.orientation is Orientation.PARALLEL else 1.0 + q2
    return 1.5 * math.pi * total / d


def _reference_zeta(n):
    if n >= 2:
        return float(special.zeta(n))
    if n == 0:
        return -0.5
    return -float(special.bernoulli(72)[1 - n]) / (1 - n)


_REFERENCE_ZETA = {s: [None if k == s - 1 else _reference_zeta(s - k) for k in range(64)]
                   for s in (2, 3)}


def _reference_polylog(s, phase):
    # the one-phase series, complex division by k + 1 and cmath.log included
    t = math.remainder(float(phase), 2.0 * math.pi)
    if t == 0.0:
        return complex(_REFERENCE_ZETA[s][0], 0.0)
    mu = complex(0.0, t)
    log_term = (1.0 if s == 2 else 1.5) - cmath.log(-mu)
    total = 0.0 + 0.0j
    muk = 1.0 + 0.0j
    for k, zeta in enumerate(_REFERENCE_ZETA[s]):
        total += muk * (log_term if zeta is None else zeta)
        muk *= mu / (k + 1)
    return total


def _reference_lamb(params, kappa):
    # the one-point Lamb shift, four polylog calls and a scalar log term
    d = params.k0d
    tp = d * (1.0 + kappa)
    tm = d * (1.0 - kappa)
    bracket = (
        _reference_polylog(3, tp).real
        + _reference_polylog(3, tm).real
        + d * (_reference_polylog(2, tp).imag + _reference_polylog(2, tm).imag)
    )
    if params.orientation is Orientation.PARALLEL:
        return -1.5 * bracket / d**3
    logs = 0.0
    for t in (tp, tm):
        mod = abs(2.0 * math.sin(0.5 * math.remainder(t, 2.0 * math.pi)))
        if mod == 0.0:
            return float("-inf")
        logs += math.log(mod)
    return 0.75 * (bracket + d * d * logs) / d**3


# At d/lambda = 1.5 and 3.3, k0 d (1 +- kappa) passes 2 pi on this grid, so
# the phase reduction runs; the perpendicular column holds -inf at kappa = +-1.
@pytest.mark.parametrize("d_over_lambda", [0.05, 0.25, 0.5, 1.0, 1.5, 3.3])
def test_decay_matches_the_per_branch_reference_bitwise(d_over_lambda):
    # kappa = +-1 - g lambda/d puts branch g exactly on the light line
    edges = [s - g / d_over_lambda for g in range(-70, 71) for s in (-1.0, 1.0)]
    grid = sorted(kappa_grid(-3.0, 3.0, 0.005) + [k for k in edges if abs(k) <= 3.0])
    for perp in (False, True):
        p = _params(2.0 * math.pi * d_over_lambda, perp)
        decay = [_reference_decay(p, k).hex() for k in grid]
        assert [discrete_line_decay(p, k).hex() for k in grid] == decay
        assert [v.hex() for v in discrete._chain_decay(p, grid).tolist()] == decay
        lamb = [_reference_lamb(p, k).hex() for k in grid]
        assert [v.hex() for v in discrete._chain_lamb(p, grid).tolist()] == lamb
        assert (float("-inf").hex() in lamb) is perp
        # the public scalar is a one-element view of the same pass
        assert [discrete_line_lamb(p, k).hex() for k in grid[::37]] == lamb[::37]


@pytest.mark.parametrize("d_over_lambda", [4.0, 10.0, 100.0])
def test_decay_matches_an_fsum_reference(d_over_lambda):
    # 8 or more branches are added pairwise, so the bits may leave the
    # sequential reference; they stay within a few ulp of the exact sum
    grid = kappa_grid(-3.0, 3.0, 0.005)
    for perp in (False, True):
        p = _params(2.0 * math.pi * d_over_lambda, perp)
        want = []
        for kappa in grid:
            d = p.k0d
            g_lo, g_hi = _scalar_window((-1.0 - kappa) * d / (2.0 * math.pi),
                                        (1.0 - kappa) * d / (2.0 * math.pi))
            q2 = [min((kappa + 2.0 * math.pi * g / d) ** 2, 1.0) for g in range(g_lo, g_hi + 1)]
            want.append(1.5 * math.pi * math.fsum(1.0 + v if perp else 1.0 - v for v in q2) / d)
        want = np.array(want)
        got = discrete._chain_decay(p, grid)
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(want))


def test_decay_refuses_a_million_branches():
    # the window's 2/Omega bound at Omega = lambda/d, named by the spacing
    message = "d/lambda = 500000 puts 1000000 or more branches in the light cone"
    with pytest.raises(ValueError, match=message):
        discrete_line_decay(_params(2.0 * math.pi * 5e5), 0.5)
    assert discrete_line_decay(_params(2.0 * math.pi * 4.9e5), 0.5) > 0.0


@pytest.mark.parametrize("d_over_lambda", [1e-300, 4.4e-104, 1e103, 1e300])
def test_spacing_with_a_cube_outside_double_range_is_refused(d_over_lambda):
    # the Lamb shift divides by k0d^3; it overflowed to inf or raised OverflowError
    k0d = 2.0 * math.pi * d_over_lambda
    message = re.escape(f"spacing k0d = {k0d} has a cube outside double range")
    with pytest.raises(ValueError, match=message):
        _params(k0d)


def test_spacing_just_inside_double_range_gives_finite_values():
    for perp in (False, True):
        p = _params(2.0 * math.pi * 4.5e-104, perp)
        assert math.isfinite(discrete_line_lamb(p, 0.5))
        assert math.isfinite(discrete_line_decay(p, 0.5))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_decay_refuses_non_finite_kappa(bad):
    with pytest.raises(ValueError, match=f"kappa must be finite .*, got {bad}$"):
        discrete_line_decay(_params(1.0), bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_lamb_refuses_non_finite_kappa(bad):
    for perp in (False, True):
        with pytest.raises(ValueError, match=f"kappa must be finite .*, got {bad}$"):
            discrete_line_lamb(_params(1.0, perp), bad)


# ---------------------------------------------------------------- Lamb shift


def test_lamb_parallel_matches_polylog_oracle():
    pts = [(2.0 * math.pi * 0.05, 0.0), (1.7, 0.37), (math.pi, 0.6), (2.0 * math.pi * 0.05, 0.9)]
    for k0d, kappa in pts:
        got = discrete_line_lamb(_params(k0d), kappa)
        want = _mp_lamb(k0d, kappa, perp=False)
        assert abs(got - want) < 1e-8 * max(1.0, abs(want))


def test_lamb_parallel_dense_spacing_pin():
    got = discrete_line_lamb(_params(2.0 * math.pi * 0.05), 0.0)
    assert math.isclose(got, -124.23003720959245, rel_tol=1e-13)


def test_lamb_perpendicular_matches_polylog_oracle():
    pts = [(2.0 * math.pi * 0.05, 0.0), (1.7, 0.37), (math.pi, 0.6), (2.0 * math.pi * 0.05, 0.9)]
    for k0d, kappa in pts:
        got = discrete_line_lamb(_params(k0d, perp=True), kappa)
        want = _mp_lamb(k0d, kappa, perp=True)
        assert abs(got - want) < 1e-8 * max(1.0, abs(want))


def test_lamb_perpendicular_sentinel_at_light_line():
    for k0d in (0.1 * math.pi, 1.7, 5.0):
        assert discrete_line_lamb(_params(k0d, perp=True), 1.0) == float("-inf")
        assert discrete_line_lamb(_params(k0d, perp=True), -1.0) == float("-inf")


def test_lamb_perpendicular_sentinel_off_light_line():
    # any kappa putting k0 d (1 - kappa) on a 2 pi multiple diverges too
    assert discrete_line_lamb(_params(math.pi, perp=True), 3.0) == float("-inf")


def test_lamb_parallel_finite_at_light_line():
    for k0d in (0.1 * math.pi, 1.7, 5.0):
        v = discrete_line_lamb(_params(k0d), 1.0)
        assert math.isfinite(v)


def test_lamb_asymptote_location_shared_with_continuous_line():
    assert line_lamb_norm(1.0) == float("-inf")
    assert discrete_line_lamb(_params(0.1 * math.pi, perp=True), 1.0) == float("-inf")


def test_lamb_symmetric_in_kappa():
    for k0d in (0.1 * math.pi, 1.7, 4.4):
        for kappa in (0.2, 0.9, 1.3):
            for perp in (False, True):
                p = _params(k0d, perp)
                assert discrete_line_lamb(p, kappa) == discrete_line_lamb(p, -kappa)


# ---------------------------------------------------------------- kernel


def test_kernel_structure():
    cloud = pair_cloud(0.25)
    m = build_scalar_kernel(cloud, PHYS)
    assert m.shape == (2, 2)
    assert m[0, 0] == PHYS.gamma == m[1, 1]
    kr = PHYS.k0 * 0.25
    want = -1j * PHYS.gamma * np.exp(1j * kr) / kr
    assert m[0, 1] == want == m[1, 0]


def test_kernel_symmetric_for_random_cloud():
    rng = np.random.default_rng(7)
    cloud = EmitterCloud(rng.uniform(0.0, 8.0, size=(40, 3)))
    m = build_scalar_kernel(cloud, PHYS)
    assert np.array_equal(m, m.T)
    assert np.allclose(np.diag(m), PHYS.gamma)
    assert abs(np.trace(m) - 40.0 * PHYS.gamma) == 0.0


def test_kernel_is_bitwise_the_one_line_expression():
    from scipy.spatial.distance import cdist

    phys = EmitterPhysics(gamma=0.514, lambda0=280.0, n0=1.0 / 280.0)
    rng = np.random.default_rng(11)
    clouds = [pair_cloud(0.25), helix_cloud(17, 11.2, 7.8, 1.0),
              helix_cloud(300, 2.64, 73.1, 0.7),
              EmitterCloud(rng.uniform(-50.0, 50.0, size=(120, 3)))]
    # one full block of kernel rows, one row past it, one row past two
    clouds += [EmitterCloud(rng.uniform(-50.0, 50.0, size=(n, 3))) for n in (256, 257, 513)]
    for cloud in clouds:
        kr = phys.k0 * cdist(cloud.positions, cloud.positions)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = -1j * phys.gamma * np.exp(1j * kr) / kr
        np.fill_diagonal(want, phys.gamma)
        got = build_scalar_kernel(cloud, phys)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_kernel_rejects_coincident_emitters():
    pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="coincident emitters at rows 0 and 2"):
        build_scalar_kernel(EmitterCloud(pos), PHYS)


_REPEAT_PEAKS = """
import re
from helirad.discrete import build_scalar_kernel, helix_cloud, oracle_spectrum
from helirad.spectra import EmitterPhysics
phys = EmitterPhysics(gamma=1.0, lambda0=1.0, n0=1.0)
for _ in range(2):
    for n in (300, 700):
        oracle_spectrum(build_scalar_kernel(helix_cloud(n, 11.2, 7.8), phys))
    with open("/proc/self/status") as status:
        print(re.search(r"VmHWM:\\s*(\\d+) kB", status.read()).group(1))
"""


@pytest.mark.skipif(discrete._MALLOPT is None, reason="needs glibc mallopt")
@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_repeated_oracle_solves_peak_no_higher(blas_threads):
    # with glibc's mmap threshold left to rise, N x N arrays came from heap
    # arenas after the first pass, the worker thread's among them, and kept
    # their freed pages resident, and the second pass peaked about 2.8 MB higher.
    # The child's own VmHWM is read, because its ru_maxrss would also count
    # the forking parent's RSS, which is the larger under pytest.
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(Path(discrete.__file__).resolve().parents[1]),
                   os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _REPEAT_PEAKS], env=env,
                          capture_output=True, text=True, check=True)
    first, second = (int(line) for line in proc.stdout.split())
    assert second - first < 1024  # KiB


_CONCURRENT_SOLVES = """
import threading
from helirad import discrete
from helirad.discrete import build_scalar_kernel, helix_cloud, oracle_spectrum
from helirad.spectra import EmitterPhysics
m = build_scalar_kernel(helix_cloud(101, 11.2, 7.8), EmitterPhysics(gamma=1.0, lambda0=1.0, n0=1.0))
want = oracle_spectrum(m).eigenvalues.tobytes()
same = []
def solve():
    for _ in range(50):
        same.append(oracle_spectrum(m).eigenvalues.tobytes() == want)
threads = [threading.Thread(target=solve) for _ in range(3)]
for t in threads:
    t.start()
for t in threads:
    t.join()
print(all(same), discrete._SET_BLAS_THREADS(1))
"""


@pytest.mark.skipif(discrete._SET_BLAS_THREADS is None,
                    reason="needs OpenBLAS's openblas_set_num_threads_local")
def test_concurrent_oracle_calls_keep_the_blas_thread_count():
    # the count is process-wide: overlapping solves that each restored the
    # count they found left the process at one thread, and a solve that
    # another caller's restore had put back at two threads changed its bytes
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(Path(discrete.__file__).resolve().parents[1]),
                   os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _CONCURRENT_SOLVES], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["True", "2"]


def test_cloud_validation():
    with pytest.raises(ValueError, match=r"\(N, 3\)"):
        EmitterCloud(np.zeros((3, 2)))
    with pytest.raises(ValueError, match="at least one"):
        EmitterCloud(np.zeros((0, 3)))
    with pytest.raises(ValueError, match="finite"):
        EmitterCloud(np.array([[0.0, 0.0, np.nan]]))


# ---------------------------------------------------------------- oracle spectrum


def test_single_emitter_spectrum():
    m = build_scalar_kernel(EmitterCloud(np.zeros((1, 3))), PHYS)
    sp = oracle_spectrum(m)
    assert sp.eigenvalues[0] == PHYS.gamma + 0.0j
    assert sp.gamma_j[0] == 2.0 * PHYS.gamma
    assert sp.lamb_j[0] == 0.0
    assert subradiant_fraction(sp, PHYS) == 0.0


def test_diagonal_matrix_spectrum_is_its_diagonal():
    m = np.diag([3.0 + 2.0j, 1.0 - 1.0j, 5.0 + 0.0j])
    sp = oracle_spectrum(m)
    assert np.array_equal(sp.eigenvalues, [5.0 + 0.0j, 3.0 + 2.0j, 1.0 - 1.0j])
    assert np.array_equal(sp.gamma_j, [10.0, 6.0, 2.0])
    assert np.array_equal(sp.lamb_j, [0.0, 2.0, -1.0])


def test_real_matrix_with_real_spectrum_gives_complex_eigenvalues():
    # numpy's eigvals returns a real array when a real matrix's eigenvalues
    # are all real
    sp = oracle_spectrum(np.diag([1.0, 2.0]))
    assert sp.eigenvalues.dtype == np.complex128
    assert np.array_equal(sp.eigenvalues, [2.0 + 0.0j, 1.0 + 0.0j])
    assert np.array_equal(sp.gamma_j, [4.0, 2.0])
    assert np.array_equal(sp.lamb_j, [0.0, 0.0])


def test_spectrum_sorted_by_descending_real_part():
    rng = np.random.default_rng(11)
    cloud = EmitterCloud(rng.uniform(0.0, 5.0, size=(30, 3)))
    sp = oracle_spectrum(build_scalar_kernel(cloud, PHYS))
    assert np.all(np.diff(sp.eigenvalues.real) <= 0.0)


def test_dicke_pair_closed_form():
    # 2x2 kernel eigenvalues gamma (1 +- (sin x - i cos x)/x), x = k0 s
    for x in (0.7, math.pi / 2.0, 2.0, 4.0):
        s = x / PHYS.k0
        sp = oracle_spectrum(build_scalar_kernel(pair_cloud(s), PHYS))
        sinc = math.sin(x) / x
        cosc = math.cos(x) / x
        # descending Re puts the + branch first iff sinc > 0; the Lamb part
        # rides along with the branch sign, not with its own magnitude
        branch = [(2.0 * (1.0 + sinc), -cosc), (2.0 * (1.0 - sinc), cosc)]
        if sinc < 0.0:
            branch.reverse()
        for got_g, got_e, (want_g, want_e) in zip(sp.gamma_j, sp.lamb_j, branch):
            assert abs(got_g - want_g) < 1e-12
            assert abs(got_e - want_e) < 1e-12


def test_dicke_pair_small_separation_limit():
    sp = oracle_spectrum(build_scalar_kernel(pair_cloud(1e-4 / PHYS.k0), PHYS))
    assert sp.gamma_j[0] > 3.999
    assert 0.0 <= sp.gamma_j[1] < 1e-8


def test_trace_conservation_random_clouds():
    rng = np.random.default_rng(23)
    for n in (12, 60, 150):
        cloud = EmitterCloud(rng.uniform(0.0, 10.0, size=(n, 3)))
        sp = oracle_spectrum(build_scalar_kernel(cloud, PHYS))
        assert abs(sp.gamma_j.sum() / 2.0 - n * PHYS.gamma) < 1e-8 * n * PHYS.gamma
        assert abs(sp.lamb_j.sum()) < 1e-8 * n * PHYS.gamma
        assert sp.gamma_j.min() > -1e-10 * n * PHYS.gamma


def test_oracle_rejects_bad_matrices():
    with pytest.raises(ValueError, match="square"):
        oracle_spectrum(np.zeros((3, 4), dtype=complex))
    big = np.zeros((ORACLE_SIZE_LIMIT + 1, ORACLE_SIZE_LIMIT + 1), dtype=np.int8)
    with pytest.raises(ValueError, match="exceeds the dense-solver limit"):
        oracle_spectrum(big)
    with pytest.raises(ValueError, match="finite"):
        oracle_spectrum(np.array([[1.0, np.nan], [0.0, 1.0]]))


def _matched_error(got, want):
    """Largest distance between two eigenvalue sets paired one to one."""
    assert got.shape == want.shape
    rows, cols = linear_sum_assignment(np.abs(got[:, None] - want[None, :]))
    return float(np.max(np.abs(got[rows] - want[cols]), initial=0.0))


def _mirrored_random(n, seed):
    # centrosymmetric but not symmetric: the split must not assume M = M^T
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return r + r[::-1, ::-1]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 64, 65, 500, 501])
def test_centrosymmetric_split_matches_the_dense_solve(n):
    kernel = build_scalar_kernel(helix_cloud(n, 1.2, 0.8, 0.05), PHYS)
    for m in (kernel, _mirrored_random(n, n)):
        sp = oracle_spectrum(m)
        assert sp.eigensolve == "centrosymmetric"
        want = scipy.linalg.eigvals(m)
        scale = np.max(np.abs(want))
        assert _matched_error(sp.eigenvalues, want) <= 1e-13 * scale
        assert np.all(np.diff(sp.eigenvalues.real) <= 0.0)


def test_split_solves_two_half_size_blocks(monkeypatch):
    shapes = []
    eigvals = np.linalg.eigvals

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigvals(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    sp = oracle_spectrum(build_scalar_kernel(helix_cloud(101, 11.2, 7.8), PHYS))
    assert sp.eigensolve == "centrosymmetric"
    # the two blocks are solved at the same time, in either order
    assert sorted(shapes) == [(50, 50), (51, 51)]
    shapes.clear()
    cloud = EmitterCloud(np.random.default_rng(5).uniform(0.0, 10.0, size=(101, 3)))
    sp = oracle_spectrum(build_scalar_kernel(cloud, PHYS))
    assert sp.eigensolve == "dense"
    assert shapes == [(101, 101)]


@pytest.mark.parametrize("n", [64, 65])
def test_ring_spectrum_is_the_fft_of_its_circulant_row(n):
    # equally spaced emitters on a circle give a circulant kernel, whose
    # spectrum is the discrete Fourier transform of its first row
    m = build_scalar_kernel(ring_cloud(n, 1.0), PHYS)
    exact = np.fft.fft(m[0])
    scale = np.max(np.abs(exact))
    assert _matched_error(oracle_spectrum(m).eigenvalues, exact) <= 1e-13 * scale
    assert _matched_error(scipy.linalg.eigvals(m), exact) <= 1e-13 * scale


# ---------------------------------------------------------------- classification


def test_subradiant_fraction_dicke_pair_quarter_wave():
    sp = oracle_spectrum(build_scalar_kernel(pair_cloud(0.25 * PHYS.lambda0), PHYS))
    assert subradiant_fraction(sp, PHYS) == 0.5


def test_subradiant_fraction_counts_strictly_below_single_rate():
    sp = oracle_spectrum(np.diag([1.0 + 0.0j, 0.999999, 1.000001]))
    assert subradiant_fraction(sp, PHYS) == pytest.approx(1.0 / 3.0)


def test_dense_helix_cloud_is_mostly_subradiant():
    # tryptophan-scale helix, one emitter per nm of arc: the vast majority
    # of the collective modes decay slower than an isolated emitter
    phys = EmitterPhysics(gamma=1.0, lambda0=280.0, n0=1.0)
    sp = oracle_spectrum(build_scalar_kernel(helix_cloud(400, 11.2, 7.8, 1.0), phys))
    frac = subradiant_fraction(sp, phys)
    assert 0.85 < frac < 1.0


def test_helix_cloud_peak_tracks_infinite_helix_scale():
    # brightest finite-N mode climbs from below through the infinite-helix
    # band-edge value n0 lambda0 * decay_norm(1) as the chain lengthens
    lam = 1.0
    b = lam / 3.0
    radius = 2.0 / (2.0 * math.pi)
    spacing = 0.05
    phys = EmitterPhysics(gamma=1.0, lambda0=lam, n0=1.0 / spacing)
    target = phys.n0 * lam * helix_decay_norm(1.0, HelixSpec(Omega=3.0, r=2.0))
    peaks = []
    for n in (60, 160, 400):
        sp = oracle_spectrum(build_scalar_kernel(helix_cloud(n, radius, b, spacing), phys))
        peaks.append(sp.gamma_j.max() / (2.0 * phys.gamma))
    assert peaks[0] < peaks[1] < peaks[2]
    assert peaks[0] < target < 1.5 * target
    assert 0.7 * target < peaks[2] < 1.5 * target


# ---------------------------------------------------------------- generators


def test_pair_cloud_geometry():
    c = pair_cloud(2.5)
    assert np.array_equal(c.positions, [[0.0, 0.0, 0.0], [0.0, 0.0, 2.5]])
    assert c.count == 2


def test_line_cloud_geometry():
    c = line_cloud(5, 1.25)
    assert c.count == 5
    assert np.array_equal(c.positions[:, :2], np.zeros((5, 2)))
    assert np.array_equal(c.positions[:, 2], 1.25 * (np.arange(5) - 2))


def test_ring_cloud_geometry():
    c = ring_cloud(6, 2.0)
    radii = np.hypot(c.positions[:, 0], c.positions[:, 1])
    assert np.allclose(radii, 2.0, rtol=1e-15)
    assert np.array_equal(c.positions[:, 2], np.zeros(6))
    chord = np.linalg.norm(c.positions[1] - c.positions[0])
    assert math.isclose(chord, 2.0 * 2.0 * math.sin(math.pi / 6.0), rel_tol=1e-14)


def test_helix_cloud_geometry():
    radius, pitch, spacing = 5.0, 3.0, 0.1
    c = helix_cloud(50, radius, pitch, spacing)
    radii = np.hypot(c.positions[:, 0], c.positions[:, 1])
    assert np.allclose(radii, radius, rtol=1e-14)
    # uniform arc length: turn angle per step times the helix slant radius
    dphi = spacing / math.hypot(radius, pitch / (2.0 * math.pi))
    dz = np.diff(c.positions[:, 2])
    assert np.allclose(dz, pitch / (2.0 * math.pi) * dphi, rtol=1e-12)
    chords = np.linalg.norm(np.diff(c.positions, axis=0), axis=1)
    assert np.allclose(chords, spacing, rtol=1e-4)
    # right-handed: moving up in z, the phase angle advances counterclockwise
    assert np.all(dz > 0.0)
    turn = np.cross(c.positions[:-1], c.positions[1:])[:, 2]
    assert np.all(turn > 0.0)


@pytest.mark.parametrize("count", [1, 2, 5, 6, 500, 501])
def test_generators_mirror_bitwise_under_reversal(count):
    # emitter N-1-j is emitter j reflected through the x axis, bit for bit
    for cloud in (line_cloud(count, 0.3), ring_cloud(count, 2.0),
                  helix_cloud(count, 11.2, 7.8, 0.9)):
        p = cloud.positions
        assert np.array_equal(p[::-1], p * [1.0, -1.0, -1.0])


@pytest.mark.parametrize("count", [64, 65])
def test_generated_kernels_are_centrosymmetric(count):
    for cloud in (line_cloud(count, 0.3), ring_cloud(count, 2.0),
                  helix_cloud(count, 1.2, 0.8, 0.05)):
        m = build_scalar_kernel(cloud, PHYS)
        assert np.array_equal(m, m[::-1, ::-1])


def test_generator_validation():
    with pytest.raises(ValueError):
        pair_cloud(0.0)
    with pytest.raises(ValueError):
        line_cloud(0, 1.0)
    with pytest.raises(ValueError):
        line_cloud(3, -1.0)
    with pytest.raises(ValueError):
        ring_cloud(4, 0.0)
    with pytest.raises(ValueError, match="pitch"):
        helix_cloud(10, 1.0, -2.0, 0.5)
    with pytest.raises(ValueError, match="spacing"):
        helix_cloud(10, 1.0, 2.0, 0.0)
