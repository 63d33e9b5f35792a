"""Unit tests for the analytical line/helix/cylinder spectra."""

import math
import re
import subprocess
import sys
from collections import Counter

import mpmath
import numpy as np
import pytest
from scipy import special

from helirad import spectra
from helirad.spectra import (
    HELIX_LAMB_NORMALIZATION,
    LINE_LAMB_NORMALIZATION,
    MAX_GRID_POINTS,
    RADICAND_TOL,
    Classification,
    EmitterPhysics,
    HelixSpec,
    classify,
    cylinder_eigen,
    cylinder_norms,
    cylinder_table,
    helix_decay_norm,
    helix_lamb_norm,
    helix_lamb_upper_bound,
    kappa_grid,
    line_decay_norm,
    line_lamb_norm,
    line_table,
    m_bounds,
    snap_near_integer,
    sweep,
    trapped_intervals,
)
from helirad.specfun import EULER_GAMMA, bessel_j, bessel_y

from . import oracles
from .child import child_env

PHYS_UNIT = EmitterPhysics(gamma=1.0, lambda0=1.0, n0=1.0)  # n0*lambda0 = 1


def test_line_decay_is_step_with_closed_boundary():
    assert line_decay_norm(0.0) == 1.0
    assert line_decay_norm(1.0) == 1.0
    assert line_decay_norm(-1.0) == 1.0
    assert line_decay_norm(1.0000001) == 0.0
    assert line_decay_norm(-3.0) == 0.0


def test_line_lamb_center_value():
    assert abs(line_lamb_norm(0.0) - (-2.0 * EULER_GAMMA)) < 1e-15


def test_line_lamb_sentinels_at_light_line():
    assert line_lamb_norm(1.0) == float("-inf")
    assert line_lamb_norm(-1.0) == float("-inf")
    assert math.isfinite(line_lamb_norm(0.999999))


def test_line_lamb_zero_crossing():
    # -2 gamma_E + ln|1 - kappa^2| = 0 outside the light line only
    k = math.sqrt(1.0 + math.exp(2.0 * EULER_GAMMA))
    assert abs(line_lamb_norm(k)) < 1e-12


LAMB_LIMIT_KAPPAS = np.array([0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999, 1.2, 1.5, 1.9])


def _helix_limit_coefficient(kappa, omega, M):
    """c with pi dE_helix - dE_line = c r^2 + O(r^4 ln r) at Omega = omega > 1 + |kappa|.

    d is the kappa-difference f(kappa) - f(0).  Only order 0 radiates; the
    small-argument series pi J_0 Y_0(x) = 2L - L x^2 + x^2/2 with
    L = ln(x/2) + gamma_E (and -2 I_0 K_0 its continuation past the light
    line), -2 I_1 K_1(y) = -1 - (y^2/2)(ln(y/2) + gamma_E) + y^2/8 and
    -2 I_m K_m(y) = -1/|m| + y^2/(2|m|(m^2 - 1)) for |m| >= 2, at
    x^2 = r^2 (1 - kappa^2) and y^2 = r^2 ((kappa - m omega)^2 - 1), leave
    r^2 ln r with the coefficient -(1 - kappa^2) - sum_{|m|=1} y^2/(2 r^2)
    = -omega^2 at every kappa, so it drops out of the difference.
    """
    def terms(k):
        s = 1.0 - k * k
        c = -0.5 * s * math.log(abs(s)) + 0.5 * s
        for m in range(-M, M + 1):
            t = (k - m * omega) ** 2 - 1.0
            if abs(m) == 1:
                c += -0.25 * t * math.log(t) + t / 8.0
            elif m:
                c += t / (2.0 * abs(m) * (m * m - 1))
        return c
    return np.array([terms(k) - terms(0.0) for k in kappa])


@pytest.mark.parametrize("r", [1e-2, 1e-3, 1e-4])
def test_line_lamb_is_the_thin_helix_cylinder_and_dense_chain_limit(r):
    # The line's kappa-differences dE(kappa) = E(kappa) - E(0) are the limits
    # of three structures of other dimension: pi times a thin helix's
    # (Omega = 3, M = 10) and the order-0 cylinder's as r -> 0, and 2h times
    # the scalar chain's (1/(2h)) [ln|2 sin((1+kappa)h/2)| +
    # ln|2 sin((1-kappa)h/2)|] as h -> 0 (h plays r).  The additive constant
    # is a convention, so only differences are compared.  Each gap has a
    # leading term c(kappa) r^2 derived from the small-argument series:
    # - chain: ln(sin a / a) = -a^2/6 + O(a^4) gives c = -kappa^2/12
    # - cylinder: the series of _helix_limit_coefficient's order 0 give
    #   c = kappa^2 (ln(r/2) + gamma_E - 1/2) - (1 - kappa^2) ln|1 - kappa^2|/2
    # - helix: _helix_limit_coefficient, where the r^2 ln r of orders 0
    #   and +-1 cancel
    # The next terms are O(r^4 ln r), below 6 r^4 (1 + |ln r|) at r = 1e-2
    # and 1e-3, and the differences of values up to 30 in size carry a few
    # roundings (1.4e-14 measured at 1e-4).  A flipped sign of the line's
    # log misses by 2 ln|1 - kappa^2|, 0.575 at kappa = 0.5.
    k = LAMB_LIMIT_KAPPAS
    line = line_lamb_norm(k) - line_lamb_norm(0.0)
    spec = HelixSpec(3.0, r)
    helix = math.pi * (helix_lamb_norm(k, spec, M=10) - helix_lamb_norm(0.0, spec, M=10))
    cylinder = math.pi * (cylinder_norms(0, k, r)[1] - cylinder_norms(0, 0.0, r)[1])

    def chain(kappa):
        return (np.log(np.abs(2.0 * np.sin((1.0 + kappa) * r / 2.0)))
                + np.log(np.abs(2.0 * np.sin((1.0 - kappa) * r / 2.0))))

    log_r = math.log(r / 2.0) + EULER_GAMMA
    s = 1.0 - k * k
    leading = {
        "helix": _helix_limit_coefficient(k, 3.0, 10),
        "cylinder": k * k * (log_r - 0.5) - 0.5 * s * np.log(np.abs(s)),
        "chain": -k * k / 12.0,
    }
    bound = 20.0 * r**4 * (1.0 + abs(math.log(r))) + 1e-13
    for name, route in (("helix", helix), ("cylinder", cylinder), ("chain", chain(k) - chain(0.0))):
        gap = route - line
        assert np.all(np.abs(gap - leading[name] * r * r) <= bound), (name, gap)
        # so the gap falls like r^2 (r^2 ln r for the cylinder): with
        # kappa^2 <= 3.61 every c(kappa) is below 4 ln(2/r), a fall of 70 or
        # more per decade (measured 1.8e-3, 2.6e-5, 3.4e-7 for the cylinder)
        assert np.max(np.abs(gap)) <= 4.0 * r * r * math.log(2.0 / r), name


def test_line_lamb_even_in_kappa():
    for k in (0.3, 0.95, 1.7):
        assert line_lamb_norm(-k) == line_lamb_norm(k)


def test_snap_near_integer():
    assert snap_near_integer(15.000000000000002) == 15.0
    assert snap_near_integer(-4.999999999999999) == -5.0
    assert snap_near_integer(0.4) == 0.4
    assert snap_near_integer(15.1) == 15.1


def test_m_bounds_examples():
    b = m_bounds(0.0, 3.0)
    assert (b.m_min, b.m_max, b.empty) == (0, 0, False)
    b = m_bounds(1.5, 3.0)
    assert b.empty
    # 0.1 is inexact in binary; without snapping the division lands on
    # -4.999... / 15.000...2 and the window loses its edge order
    b = m_bounds(0.5, 0.1)
    assert (b.m_min, b.m_max) == (-5, 15)


def test_m_bounds_requires_positive_omega():
    with pytest.raises(ValueError):
        m_bounds(0.0, 0.0)


def test_order_window_refuses_a_million_orders():
    # an unbounded window once held 2e7 orders here
    message = r"Omega = 1e-07 gives order windows of 2/Omega >= 1000000 orders"
    with pytest.raises(ValueError, match=message):
        m_bounds(0.5, 1e-7)
    with pytest.raises(ValueError, match=message):
        helix_decay_norm(0.5, HelixSpec(Omega=1e-7, r=1.0))
    # just inside the bound a window holds 999,999 orders
    b = m_bounds(0.5, 2.0 / (MAX_GRID_POINTS - 1))
    assert b.m_max - b.m_min + 1 == MAX_GRID_POINTS - 1


@pytest.mark.parametrize("call, message", [
    ("helix_lamb_upper_bound(0.5, HelixSpec(1e-12, 1.0))",
     "Omega = 1e-12 gives order windows of 2/Omega >= 1000000 orders"),
    ("helix_lamb_norm(0.5, HelixSpec(3.0, 1.0), M=100_000_000)",
     "truncation half-width M=100000000 sums 2M + 1 orders, over the limit of 1000000"),
], ids=["upper-bound-tiny-omega", "lamb-huge-M"])
def test_per_order_loops_are_refused_before_they_start(call, message):
    # both once ran one Python pass per order, 2e12 or 2e8 of them here, and
    # are now refused before any block of orders is formed; in a child with a
    # timeout, a regression fails instead of stalling the suite
    code = (f"from helirad.spectra import *\n"
            f"try:\n    {call}\nexcept ValueError as exc:\n    print(exc)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert message in proc.stdout


@pytest.mark.parametrize("call, message", [
    # each of the 200,000 points holds about 2/Omega = 1000 orders, 2e8 in all
    (lambda: helix_decay_norm(np.linspace(0.0, 1.0, 200_000), HelixSpec(2e-3, 1.0)),
     "the order windows of 200000 kappa points hold 200000002 orders in all, "
     "over the limit of 100000000 terms"),
    # 1,200,001 orders at one kappa, within the term limit
    (lambda: helix_lamb_norm(0.5, HelixSpec(3.0, 1.0), M=600_000),
     "truncation half-width M=600000 sums 2M + 1 orders, over the limit of 1000000"),
], ids=["decay-terms", "lamb-orders"])
def test_work_limits_refuse_before_any_term_is_formed(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_helix_decay_at_band_edge_is_unity():
    # kappa = 1, Omega = 3: single order m = 0 at zero argument, J_0(0)^2 = 1
    for r in (0.1, 1.0, 7.2):
        assert helix_decay_norm(1.0, HelixSpec(Omega=3.0, r=r)) == 1.0


def test_helix_decay_trapped_gap_is_exact_zero():
    spec = HelixSpec(Omega=3.0, r=1.0)
    for k in (1.2, 1.5, 1.9999, 4.3):
        assert helix_decay_norm(k, spec) == 0.0


def test_helix_decay_single_order_value():
    # kappa = 0, Omega = 3, r = 1: J_0(1)^2
    got = helix_decay_norm(0.0, HelixSpec(Omega=3.0, r=1.0))
    assert got == pytest.approx(bessel_j(0, 1.0) ** 2, rel=1e-15)


def test_helix_decay_even_in_kappa():
    spec = HelixSpec(Omega=0.7, r=2.3)
    for k in (0.1, 0.65, 1.4, 2.2):
        assert helix_decay_norm(-k, spec) == pytest.approx(helix_decay_norm(k, spec), rel=1e-15)


def test_helix_decay_matches_cylinder_on_single_order():
    # whenever only m = 0 is real, the helix rate is the cylinder n = 0 factor
    for k, Om, r in ((0.0, 3.0, 1.0), (0.4, 2.5, 0.8), (0.9, 5.0, 3.0)):
        b = m_bounds(k, Om)
        assert (b.m_min, b.m_max) == (0, 0)
        h = helix_decay_norm(k, HelixSpec(Omega=Om, r=r))
        c = cylinder_norms(0, k, r)[0]
        assert abs(h - c) <= 1e-15 * max(1.0, abs(c))


def test_helix_lamb_sentinel_at_light_line():
    spec = HelixSpec(Omega=3.0, r=1.0)
    assert helix_lamb_norm(1.0, spec) == float("-inf")
    assert helix_lamb_norm(-1.0, spec) == float("-inf")


def test_helix_lamb_matches_independent_oracle():
    # re-sum the truncated series from the high-precision Bessel oracle
    kappa, Om, r, M = 0.4, 0.7, 1.3, 8
    total = 0.0
    for m in range(-M, M + 1):
        u = kappa - m * Om
        rad = (1.0 - u) * (1.0 + u)
        if rad > 0.0:
            x = math.sqrt(rad) * r
            total += float(oracles.oracle_j(abs(m), x) * oracles.oracle_y(abs(m), x))
        elif rad == 0.0:
            total += -1.0 / (abs(m) * math.pi)
        else:
            x = math.sqrt(-rad) * r
            total += -(2.0 / math.pi) * float(oracles.oracle_i(abs(m), x) * oracles.oracle_k(abs(m), x))
    got = helix_lamb_norm(kappa, HelixSpec(Omega=Om, r=r), M=M)
    assert got == pytest.approx(total, rel=1e-12)


def test_helix_lamb_upper_bound_single_term():
    # only m = 0 is real at kappa = 0, Omega = 3: bound is J_0(r) Y_0(r)
    got = helix_lamb_upper_bound(0.0, HelixSpec(Omega=3.0, r=1.0))
    assert got == pytest.approx(bessel_j(0, 1.0) * bessel_y(0, 1.0), rel=1e-14)


def test_helix_lamb_sits_strictly_below_upper_bound():
    spec = HelixSpec(Omega=3.0, r=1.0)
    for k in (0.0, 0.5, 0.9):
        full = helix_lamb_norm(k, spec, M=10)
        assert full < helix_lamb_upper_bound(k, spec)


def test_helix_lamb_upper_bound_empty_window_is_zero():
    assert helix_lamb_upper_bound(1.5, HelixSpec(Omega=3.0, r=1.0)) == 0.0


# kappa past a band edge by less than the order window's 1e-9 snap: the window
# holds the edge order, so the Lamb sum, like the decay and the bound, takes
# it as real with the edge's zero argument.  Order 0 there gives -inf.
@pytest.mark.parametrize("kappa, edge_lamb", [
    (1.0 + 1e-11, -math.inf),
    (-1.0 - 1e-12, -math.inf),
    (2.0 - 1e-11, None),  # order 1 at its zero argument: finite
])
def test_helix_lamb_at_a_snapped_band_edge_keeps_its_bound(kappa, edge_lamb):
    spec = HelixSpec(Omega=3.0, r=1.0)
    lamb, bound = helix_lamb_norm(kappa, spec), helix_lamb_upper_bound(kappa, spec)
    assert lamb <= bound
    if edge_lamb is not None:
        assert lamb == bound == edge_lamb
        assert helix_decay_norm(kappa, spec) == 1.0


def test_helix_lamb_decreases_with_truncation():
    # every order added beyond the real window contributes a negative term
    spec = HelixSpec(Omega=3.0, r=1.0)
    assert helix_lamb_norm(0.0, spec, M=20) < helix_lamb_norm(0.0, spec, M=10)


def test_helix_lamb_rejects_too_small_truncation():
    with pytest.raises(ValueError):
        helix_lamb_norm(0.5, HelixSpec(Omega=0.1, r=1.0), M=10)
    with pytest.raises(ValueError):
        helix_lamb_norm(0.0, HelixSpec(Omega=3.0, r=1.0), M=-1)


def test_cylinder_norms_inside_and_outside_light_line():
    r = 2.0
    g_in, e_in = cylinder_norms(0, 0.5, r)
    x = math.sqrt(0.75) * r
    assert g_in == pytest.approx(bessel_j(0, x) ** 2, rel=1e-14)
    assert e_in == pytest.approx(bessel_j(0, x) * bessel_y(0, x), rel=1e-13)
    g_out, e_out = cylinder_norms(0, 1.5, r)
    assert g_out == 0.0
    assert e_out < 0.0


def test_cylinder_light_line_values():
    g, e = cylinder_norms(0, 1.0, 2.0)
    assert (g, e) == (1.0, float("-inf"))
    g2, e2 = cylinder_norms(2, 1.0, 2.0)
    assert g2 == 0.0
    assert e2 == pytest.approx(-1.0 / (2.0 * math.pi), rel=1e-15)


def test_cylinder_lamb_where_the_scaled_i_underflows():
    # x = 4.562 sits in order 200's band where scipy's ive is 0 while kve is
    # finite; the Lamb shift there was once returned as 0.0
    x = math.sqrt(1.82**2 - 1.0) * 3.0
    want = -(2.0 / math.pi) * float(mpmath.besseli(200, x) * mpmath.besselk(200, x))
    g, e = cylinder_norms(200, 1.82, 3.0)
    assert g == 0.0
    assert e == pytest.approx(want, rel=1e-7)


def test_cylinder_lamb_where_j_underflows():
    # x = 0.08 sits in order 100's band where scipy's jv is 0 while yv is
    # finite; the Lamb shift there was once returned as -0.0
    want = float(mpmath.besselj(100, 0.08) * mpmath.bessely(100, 0.08))
    g, e = cylinder_norms(100, 0.0, 0.08)
    assert g == 0.0
    assert e == pytest.approx(want, rel=1e-9)


def test_cylinder_lamb_where_the_scaled_bessels_are_nan():
    # scipy's ive and kve are nan past x ~ 1.08e9 at every order; I_0 K_0
    # there is 1/(2x) to O(1/x^2), where the zero-argument form of K_0 once
    # gave +14.9 at r = 1e10
    for n, r in ((0, 1e10), (0, 1e300), (3, 1e10)):
        x = math.sqrt(2.0**2 - 1.0) * r
        g, e = cylinder_norms(n, 2.0, r)
        assert g == 0.0
        assert e == pytest.approx(-(2.0 / math.pi) / (2.0 * x), rel=1e-15), (n, r)


def _overflow(omega, r, kappa, m):
    return re.escape(f"Omega = {omega}, r = {r}: the Bessel argument r sqrt|1 - (kappa - m "
                     f"Omega)^2| exceeds double range at kappa = {kappa}, m = {m}")


@pytest.mark.parametrize("call, message", [
    # m Omega overflows at the truncation's first order, m = -M
    (lambda: helix_lamb_norm([0.0, 0.5], HelixSpec(Omega=1e308, r=1.0)),
     _overflow(1e308, 1.0, 0.0, -10)),
    (lambda: helix_lamb_norm([0.5, 0.0], HelixSpec(Omega=3.0, r=1e308), M=2),
     _overflow(3.0, 1e308, 0.5, -2)),
    # inf * 0 is nan: refused as well
    (lambda: helix_lamb_norm([0.0], HelixSpec(Omega=1e308, r=0.0)), _overflow(1e308, 0.0, 0.0, -10)),
    # sqrt(kappa^2 - 1) r passes 1.8e308 at kappa = 3, not at kappa = 2
    (lambda: cylinder_norms(0, [0.0, 2.0, 3.0], 1e308), _overflow(0.0, 1e308, 3.0, 0)),
], ids=["lamb-omega", "lamb-radius", "lamb-radius-zero", "cylinder"])
def test_a_bessel_argument_past_double_range_is_refused_by_name(call, message):
    # numpy's RuntimeWarnings are errors under this suite's filterwarnings,
    # so an overflow warning would end the call before the refusal
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_cylinder_norms_reject_negative_radius():
    for r in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"cylinder radius must be finite and >= 0, got {r}"):
            cylinder_norms(0, 0.5, r)


def test_fractional_orders_and_truncations_are_refused():
    # a cast would compute order 2 for 2.7, and the table record "n": 2.7
    for call in (lambda: cylinder_norms(2.7, 0.5, 3.0),
                 lambda: cylinder_table([0.0, 0.5], 2.7, 3.0, PHYS_UNIT)):
        with pytest.raises(ValueError, match="^Bessel order must be an integer, got 2.7$"):
            call()
    spec = HelixSpec(Omega=3.0, r=3.0)
    for call in (lambda: helix_lamb_norm(0.3, spec, M=2.5),
                 lambda: sweep([0.0, 0.3], spec, PHYS_UNIT, M=2.5)):
        with pytest.raises(ValueError, match="^truncation half-width M must be an integer, "
                                             "got 2.5$"):
            call()


@pytest.mark.parametrize("n", [0, 1])
def test_nan_kappa_is_a_bessel_domain_error(n):
    nan = float("nan")
    with pytest.raises(ValueError, match="got nan"):
        cylinder_norms(n, nan, 1.0)
    with pytest.raises(ValueError, match="got nan"):
        cylinder_table([0.0, nan], n, 1.0, PHYS_UNIT)


def test_cylinder_eigen_prefactors():
    phys = EmitterPhysics(gamma=0.514, lambda0=280.0, n0=0.2)
    g, e = cylinder_norms(1, 0.3, 1.5)
    G, E = cylinder_eigen(1, 0.3, 1.5, phys)
    pref = math.pi * phys.gamma * phys.n0 / phys.k0
    assert G == pytest.approx(0.5 * pref * g, rel=1e-15)
    assert E == pytest.approx(pref * e, rel=1e-15)


def test_trapped_intervals_catalog():
    ti = trapped_intervals(2.0, 10.0)
    assert ti.intervals == ((1.0, 1.0), (3.0, 3.0), (5.0, 5.0), (7.0, 7.0), (9.0, 9.0))
    assert ti.fraction == 0.0
    ti = trapped_intervals(3.0, 8.5)
    assert ti.intervals == ((1.0, 2.0), (4.0, 5.0), (7.0, 8.0))
    assert ti.fraction == pytest.approx(1.0 / 3.0, rel=1e-15)
    ti = trapped_intervals(5.0, 10.0)
    assert ti.intervals == ((1.0, 4.0), (6.0, 9.0))
    ti = trapped_intervals(10.0, 10.0)
    assert ti.intervals == ((1.0, 9.0),)


def test_trapped_intervals_clip_and_fraction():
    ti = trapped_intervals(35.9, 40.0)
    assert len(ti.intervals) == 2
    assert ti.intervals[0][0] == 1.0
    assert ti.intervals[0][1] == pytest.approx(34.9, abs=1e-12)
    assert ti.intervals[1][0] == pytest.approx(36.9, abs=1e-12)
    assert ti.intervals[1][1] == 40.0  # clipped at the window edge
    assert ti.fraction == pytest.approx((35.9 - 2.0) / 35.9, rel=1e-15)


def test_trapped_intervals_empty_below_two():
    ti = trapped_intervals(1.99, 50.0)
    assert ti.intervals == ()
    assert ti.fraction == 0.0


def test_trapped_intervals_validation():
    with pytest.raises(ValueError):
        trapped_intervals(0.0, 10.0)
    with pytest.raises(ValueError):
        trapped_intervals(3.0, 0.0)


def test_classify_three_regimes_and_boundary():
    spec = HelixSpec(Omega=3.0, r=5.0)
    assert classify(1.5, spec, PHYS_UNIT).classification is Classification.TRAPPED
    assert classify(0.0, spec, PHYS_UNIT).classification is Classification.SUBRADIANT
    dense = EmitterPhysics(gamma=1.0, lambda0=1.0, n0=100.0)
    assert classify(0.0, spec, dense).classification is Classification.SUPERRADIANT
    # gamma/gamma_single exactly 1 stays subradiant (threshold is strict)
    edge = classify(1.0, HelixSpec(Omega=3.0, r=1.0), PHYS_UNIT)
    assert edge.gamma_over_gamma == 1.0
    assert edge.classification is Classification.SUBRADIANT


def test_sweep_table_metadata_and_ordering():
    grid = kappa_grid(0.0, 2.0, 0.5)
    t = sweep(grid, HelixSpec(Omega=3.0, r=1.0), PHYS_UNIT, M=10)
    assert t.geometry == "helix"
    assert t.lamb_normalization == HELIX_LAMB_NORMALIZATION
    assert t.params == {"Omega": 3.0, "r": 1.0, "M": 10}
    assert [p.kappa for p in t.points] == grid
    lt = line_table(grid, PHYS_UNIT)
    assert lt.geometry == "line"
    assert lt.lamb_normalization == LINE_LAMB_NORMALIZATION
    ct = cylinder_table(grid, 0, 2.0, PHYS_UNIT)
    assert ct.geometry == "cylinder"
    assert ct.params == {"n": 0, "r": 2.0}


def test_sweep_rejects_descending_grid():
    with pytest.raises(ValueError):
        sweep([0.0, -0.5], HelixSpec(Omega=3.0, r=1.0), PHYS_UNIT)


# One-point reference for the array kernel: J_m H_m^(1) from scalar scipy
# calls, with the same fallbacks, summed one order at a time.  The tables must
# reproduce it bit for bit.  `fired` counts how often each fallback replaced
# a product that left double range or lost its J to underflow.
def _k0_near_zero(x):  # K_0(x) as x -> 0, where scipy's order-0 Y and K overflow
    return math.log(2.0) - EULER_GAMMA - math.log(x)


def _scalar_jh(m, rad, r, fired=None):
    fired = Counter() if fired is None else fired
    m = abs(m)
    x = math.sqrt(abs(rad)) * r
    if x == 0.0:
        return complex(1.0, -math.inf) if m == 0 else complex(0.0, -1.0 / (m * math.pi))
    if rad >= 0.0:
        j = float(special.jv(m, x))
        p = j * float(special.yv(m, x))
        if j == 0.0 or not math.isfinite(p):
            fired["jy"] += 1
            p = -1.0 / (math.pi * math.sqrt(m * m - x * x)) if m \
                else -(2.0 / math.pi) * _k0_near_zero(x)
        return complex(j * j, p)
    q = float(special.ive(m, x)) * float(special.kve(m, x))
    if not 0.0 < q < math.inf:
        fired["ik"] += 1
        q = 0.5 / float(np.hypot(m, x)) if m else _k0_near_zero(x)
    return complex(0.0, -(2.0 / math.pi) * q)


def _radicand(u):
    rad = (1.0 - u) * (1.0 + u)
    return 0.0 if abs(rad) <= RADICAND_TOL else rad


# The order window found with scalar math.ceil/floor after snapping within
# 1e-9 relative of an integer.  Its orders are real: a negative radicand there
# is clamped to 0.
def _snap(v):
    rv = round(v)
    return float(rv) if abs(v - rv) <= 1e-9 * max(1.0, abs(rv)) else v


def _scalar_window(lo, hi):
    return math.ceil(_snap(lo)), math.floor(_snap(hi))


def _scalar_lamb(kappa, spec, M, fired=None):
    m_min, m_max = _scalar_window((kappa - 1.0) / spec.Omega, (kappa + 1.0) / spec.Omega)
    total = 0.0
    for m in range(-M, M + 1):
        rad = _radicand(kappa - m * spec.Omega)
        total += _scalar_jh(m, max(rad, 0.0) if m_min <= m <= m_max else rad, spec.r, fired).imag
    return total


def _bits(points):
    return [tuple(v.hex() if isinstance(v, float) else v for v in vars(p).values())
            for p in points]


# kappa = +-1 + m Omega lands on grid nodes (zero arguments, the -inf
# sentinel at +-1), or within the window's snap of them; r = 0 makes every
# argument zero; Omega = 0.05 at M = 120 and r = 0.5 drives both fallbacks at
# high order
SWEEP_CASES = [
    (3.0, 3.0, 10, kappa_grid(-4.0, 7.0, 0.25)),
    (2.5, 1.9, 12, kappa_grid(-2.0, 2.0, 0.05)),
    (3.0, 0.0, 10, kappa_grid(-2.0, 2.0, 0.5)),
    (0.05, 0.5, 120, kappa_grid(0.0, 5.0, 0.05)),
    (3.0, 1.0, 10, [-1.0 - 1e-12, 1.0 + 1e-11, 2.0 - 1e-11, 4.0 - 1e-11]),
]


# Blocks of 1 and 7 elements give each order a block of its own, over one or
# seven grid points, so every order carries its points' running sums in; the
# default spans every point and several orders.
@pytest.mark.parametrize("Omega, r, M, grid", SWEEP_CASES)
def test_sweep_matches_scalar_reference_bitwise(Omega, r, M, grid, monkeypatch):
    spec = HelixSpec(Omega=Omega, r=r)
    want = [_scalar_lamb(k, spec, M).hex() for k in grid]
    for block in (spectra._ORDER_BLOCK, 1, 7):
        monkeypatch.setattr(spectra, "_ORDER_BLOCK", block)
        table = sweep(grid, spec, PHYS_UNIT, M=M)
        assert _bits(table.points) == _bits(classify(k, spec, PHYS_UNIT, M) for k in grid)
        assert [p.lamb_norm.hex() for p in table.points] == want


def test_single_point_lamb_sums_its_orders_left_to_right():
    # one row of 4001 orders: a pairwise reduction along it would change the bits
    spec = HelixSpec(Omega=3.0, r=1.0)
    assert helix_lamb_norm(0.5, spec, M=2000).hex() == _scalar_lamb(0.5, spec, 2000).hex()


# Stand-in terms whose bits show any other order or start of the sum: a
# pseudo-random value of its own scale per (order, argument), and all -0.0,
# whose sum stays -0.0 only when it starts from the first term, not 0.0
STAND_IN_TERMS = {
    "scaled": lambda m, x: np.sin(12.9898 * m + 78.233 * x) * 10.0 ** (m % 9 - 4),
    "negative-zero": lambda m, x: np.full(x.shape, -0.0),
}


@pytest.mark.parametrize("block", [None, 7, 1])
@pytest.mark.parametrize("terms", sorted(STAND_IN_TERMS))
def test_lamb_pass_sums_each_kappa_left_to_right_from_its_first_term(terms, block, monkeypatch):
    # three sums of one r and their own order ranges in one pass, against a
    # one-order-at-a-time loop over the same terms
    term = STAND_IN_TERMS[terms]
    monkeypatch.setattr(spectra, "jh_products", lambda m, x, imaginary: (
        np.zeros(x.shape), term(*np.broadcast_arrays(m, x))))
    if block is not None:
        monkeypatch.setattr(spectra, "_ORDER_BLOCK", block)
    grid = kappa_grid(0.0, 5.0, 0.25)
    cases = [(HelixSpec(Omega=0.5, r=3.0), 12), (HelixSpec(Omega=1.0, r=3.0), 10),
             (HelixSpec(Omega=0.25, r=3.0), 26)]
    got = spectra._jh_sum(grid, [spectra._lamb_sum(grid, spec, M) for spec, M in cases])
    for (spec, M), sums in zip(cases, got):
        m = np.arange(-M, M + 1)
        lo, hi = spectra._order_window(grid, spec.Omega)
        x = spectra._bessel_arg(np.asarray(grid)[:, None], m, spec.Omega, spec.r,
                                (lo[:, None] <= m) & (m <= hi[:, None]))[0]
        for row, total in zip(term(*np.broadcast_arrays(m, x)).tolist(), sums.tolist()):
            want = row[0]
            for t in row[1:]:
                want += t
            assert total.hex() == want.hex()


def test_reference_cases_reach_both_fallbacks_and_the_sentinel():
    fired = Counter()
    for k in kappa_grid(0.0, 5.0, 0.05):
        _scalar_lamb(k, HelixSpec(Omega=0.05, r=0.5), 120, fired)
    assert fired["jy"] > 0 and fired["ik"] > 0
    assert _scalar_lamb(1.0, HelixSpec(Omega=3.0, r=3.0), 10) == -math.inf


# The per-point decay formula the grid pass replaced, kept as its reference:
# np.sum of J_m^2 over one kappa's scalar window.
def _reference_decay(kappa, spec):
    m_min, m_max = _scalar_window((kappa - 1.0) / spec.Omega, (kappa + 1.0) / spec.Omega)
    if m_min > m_max:
        return 0.0
    m = np.arange(m_min, m_max + 1)
    u = kappa - m * spec.Omega
    rad = (1.0 - u) * (1.0 + u)
    rad[np.abs(rad) <= RADICAND_TOL] = 0.0
    vals = special.jv(m, np.sqrt(np.maximum(rad, 0.0)) * spec.r)
    return float(np.sum(vals * vals))


# Windows of 10 to 41 orders, so np.sum adds pairwise.  At Omega = 0.13 the
# windows hold 15 or 16 orders, and padding a 15 with a zero would regroup
# its pairwise sum.  kappa = +-1 + m Omega puts band edges on the grid.  A
# block of 7 elements splits one window length over many blocks; there the
# column is read from helix_decay_norm, the pass sweep takes it from, since
# sweep's Lamb pass at that block costs seconds and is covered by
# test_sweep_matches_scalar_reference_bitwise.
@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("Omega", [0.05, 0.1, 0.13, 0.2])
def test_sweep_decay_matches_per_point_reference_bitwise(Omega, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(spectra, "_ORDER_BLOCK", block)
    edges = sorted({k for m in range(-100, 101) for k in (m * Omega - 1.0, m * Omega + 1.0)
                    if abs(k) <= 3.0})
    for r in (0.0, 0.5, 3.0):
        spec = HelixSpec(Omega=Omega, r=r)
        for grid in (kappa_grid(-3.0, 3.0, 0.01), edges):
            if block is None:
                table = sweep(grid, spec, PHYS_UNIT, M=math.ceil(4.0 / Omega))
                column = [p.gamma_norm for p in table.points]
            else:
                column = spectra.helix_decay_norm(grid, spec).tolist()
            assert [g.hex() for g in column] == [_reference_decay(k, spec).hex() for k in grid]
            assert [helix_decay_norm(k, spec).hex() for k in grid[::37]] == \
                [g.hex() for g in column[::37]]


@pytest.mark.parametrize("bad, grid", [
    (math.nan, [0.0, math.nan]),
    (math.inf, [0.0, math.inf]),
    (-math.inf, [-math.inf, 0.0]),
    (1e300, [0.0, 1e300]),  # finite, but 1 - kappa^2 and its orders leave their ranges
])
def test_order_window_refuses_non_finite_kappa(bad, grid):
    spec = HelixSpec(Omega=0.5, r=1.0)
    message = f"kappa must be finite .*, got {re.escape(str(bad))}$"
    with pytest.raises(ValueError, match=message):
        m_bounds(bad, spec.Omega)
    with pytest.raises(ValueError, match=message):
        helix_decay_norm(bad, spec)
    with pytest.raises(ValueError, match=message):
        sweep(grid, spec, PHYS_UNIT, M=10)
    for scalar in (line_decay_norm, line_lamb_norm, lambda k: cylinder_norms(0, k, 1.0)):
        with pytest.raises(ValueError, match=message):
            scalar(bad)


def test_upper_bound_matches_scalar_reference_bitwise():
    spec = HelixSpec(Omega=2.5, r=1.9)
    for k in kappa_grid(-4.0, 4.0, 0.25):
        b = m_bounds(k, spec.Omega)
        want = 0.0
        for m in range(b.m_min, b.m_max + 1):
            want += _scalar_jh(m, max(_radicand(k - m * spec.Omega), 0.0), spec.r).imag
        assert helix_lamb_upper_bound(k, spec).hex() == want.hex()


@pytest.mark.parametrize("n", [0, 1, 3])
@pytest.mark.parametrize("r", [0.0, 0.5, 3.0])
def test_cylinder_table_matches_scalar_reference_bitwise(n, r):
    grid = kappa_grid(-2.0, 2.0, 0.125)
    table = cylinder_table(grid, n, r, PHYS_UNIT)
    norms = [(p.gamma_norm.hex(), p.lamb_norm.hex()) for p in table.points]
    assert norms == [tuple(v.hex() for v in cylinder_norms(n, k, r)) for k in grid]
    want = [_scalar_jh(n, _radicand(k), r) for k in grid]
    assert norms == [(w.real.hex(), w.imag.hex()) for w in want]


def test_sweep_raises_what_the_first_failing_point_raises():
    spec = HelixSpec(Omega=0.5, r=1.0)
    grid = kappa_grid(0.0, 3.0, 0.5)
    with pytest.raises(ValueError) as per_point:
        for k in grid:
            helix_lamb_norm(k, spec, M=3)
    with pytest.raises(ValueError) as swept:
        sweep(grid, spec, PHYS_UNIT, M=3)
    assert str(swept.value) == str(per_point.value)
    assert "[0, 4]" in str(swept.value)  # kappa = 1, the first point past M


def test_kappa_grid_hits_light_line_exactly():
    grid = kappa_grid(-2.0, 2.0, 0.01)
    assert len(grid) == 401
    assert grid[0] == -2.0
    assert grid[-1] == 2.0
    assert -1.0 in grid and 1.0 in grid


def test_kappa_grid_validation():
    with pytest.raises(ValueError):
        kappa_grid(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        kappa_grid(1.0, 0.0, 0.1)


def test_kappa_grid_size_cap():
    assert len(kappa_grid(0.0, MAX_GRID_POINTS - 1.0, 1.0)) == MAX_GRID_POINTS
    for lo, hi, step in ((0.0, float(MAX_GRID_POINTS), 1.0), (0.0, 1e12, 1e-3),
                         (-1e308, 1e308, 1.0)):
        with pytest.raises(ValueError, match="1000000 points"):
            kappa_grid(lo, hi, step)


@pytest.mark.parametrize("lo, hi, step", [
    (math.nan, 1.0, 0.5), (0.0, math.inf, 0.5), (0.0, math.nan, 1.0), (-math.inf, 1.0, 0.5),
    (0.0, 1.0, math.inf), (0.0, 1.0, math.nan),
])
def test_kappa_grid_names_non_finite_bounds(lo, hi, step):
    # a nan or inf span was once reported as a grid over the size limit
    message = re.escape(f"grid bounds must be finite, got {lo}:{hi}:{step}")
    with pytest.raises(ValueError, match=message):
        kappa_grid(lo, hi, step)


def test_physics_and_spec_validation():
    with pytest.raises(ValueError):
        EmitterPhysics(gamma=0.0, lambda0=280.0, n0=1.0)
    with pytest.raises(ValueError):
        EmitterPhysics(gamma=1.0, lambda0=-1.0, n0=1.0)
    with pytest.raises(ValueError):
        HelixSpec(Omega=0.0, r=1.0)
    with pytest.raises(ValueError):
        HelixSpec(Omega=3.0, r=-0.5)


def test_line_limit_of_helix_small_omega():
    # Omega -> 0 at fixed r: the helix rate approaches the line step
    spec = HelixSpec(Omega=1e-4, r=1.0)
    for k in (0.0, 0.3, 0.5, 0.9):
        assert helix_decay_norm(k, spec) == pytest.approx(1.0, abs=1e-6)
    for k in (1.5, 2.0):
        assert helix_decay_norm(k, spec) == pytest.approx(0.0, abs=1e-6)
