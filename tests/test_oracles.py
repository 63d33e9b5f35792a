"""The oracle suite must stay pinned to its own frozen values.

These literals were produced by the oracle itself at adoption time, after it
was validated against closed forms, and guard against silent regressions in
the series code.  The series checks run at high precision through mpmath;
the last tests hold the production helix sums to the Bessel-free quadrature,
and the lattice sum of a chain to its closed symbol.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from helirad.spectra import HelixSpec, helix_decay_norm, helix_lamb_norm

from . import oracles

# (kind, order, x, value) frozen at 33 significant digits
BESSEL_PINS = [
    ("j", 0, 0.5, "0.938469807240812904228404673599713"),
    ("j", 3, 0.7, "0.00692965482675083951593692425409183"),
    ("j", 7, 13.3, "-0.229559612670874374123366963999484"),
    ("j", 21, 40.0, "0.105149610534245561487913985789539"),
    ("j", 50, 0.001, "2.92028570260406399480701885879282e-230"),
    ("y", 0, 0.5, "-0.444518733506706557148398475068332"),
    ("y", 3, 0.7, "-15.8194790528196363840036883057047"),
    ("y", 7, 13.3, "-0.0582292704834173807515860587411318"),
    # Hankel's expansion, past _HANKEL_X; these match mpmath's besselj and
    # bessely at 50 digits
    ("j", 0, 2.0**51 - 1, "1.23426289481281910762067901268682e-8"),
    ("j", 10, 2.0**51 - 1, "-1.23426289481284446113633919738192e-8"),
    ("j", 3, 15000.0, "-6.1855581521526307407590022320724e-3"),
    ("y", 0, 2.0**51 - 1, "-1.14182083679741119954890539754233e-8"),
    ("y", 10, 2.0**51 - 1, "1.14182083679738379340722016346501e-8"),
    ("y", 3, 15000.0, "2.04455113152612549003649388145248e-3"),
    ("i", 0, 1.0, "1.26606587775200833559824462521472"),
    ("i", 5, 2.2, "0.0163735913821605180673748171827214"),
    ("i", 13, 60.0, "1432433078591074887855133.98995533"),
    ("k", 0, 1.0, "0.421024438240708333335627379212609"),
    ("k", 5, 2.2, "5.57823353320870505715882400608732"),
    ("k", 13, 60.0, "5.68582211670190626531078992750387e-27"),
]

# (phase, re, im) for Li_2 and Li_3 on the unit circle
LI_PINS = [
    (2, 0.5, "0.922035903450778126856754320826149", "0.848311877703679270993627514817917"),
    (3, 0.5, "0.927696310470230431223113852334629", "0.636534159241417807498959038534710"),
    (2, 2.0, "-0.496658586741566801990228216633478", "0.727146050863279247429838254608358"),
    (3, 2.0, "-0.467971472084971031464922857251366", "0.814942146773326301148853616679214"),
    (2, 5.5, "0.568054269476295030700145862627392", "-0.981277474774473678753967008307324"),
    (3, 5.5, "0.665762799064060287741148046426660", "-0.846573741774232631942123836164769"),
]

_FNS = {"j": oracles.oracle_j, "y": oracles.oracle_y,
        "i": oracles.oracle_i, "k": oracles.oracle_k}


@pytest.mark.parametrize("kind,m,x,pin", BESSEL_PINS)
def test_bessel_pins(kind, m, x, pin):
    with mp.workdps(40):
        got = _FNS[kind](m, x)
        want = mp.mpf(pin)
        assert abs(got - want) <= abs(want) * mp.mpf("1e-30")


@pytest.mark.parametrize("s,theta,re,im", LI_PINS)
def test_polylog_pins(s, theta, re, im):
    fn = oracles.oracle_li2_circle if s == 2 else oracles.oracle_li3_circle
    with mp.workdps(40):
        got = fn(theta)
        assert abs(got.real - mp.mpf(re)) < mp.mpf("1e-30")
        assert abs(got.imag - mp.mpf(im)) < mp.mpf("1e-30")


def test_li2_real_part_closed_form():
    # Re Li_2(e^{i t}) = pi^2/6 - pi t/2 + t^2/4 on [0, 2 pi]; the closed
    # form must see the same double-rounded t the oracle receives
    with mp.workdps(40):
        for tf in (0.3, 1.7, 3.9, 5.9):
            t = mp.mpf(tf)
            want = mp.pi**2 / 6 - mp.pi * t / 2 + t * t / 4
            got = oracles.oracle_li2_circle(tf).real
            assert abs(got - want) < mp.mpf("1e-35")


def test_li3_imag_part_closed_form():
    # Im Li_3(e^{i t}) = t^3/12 - pi t^2/4 + pi^2 t/6 on [0, 2 pi]
    with mp.workdps(40):
        for tf in (0.3, 1.7, 3.9, 5.9):
            t = mp.mpf(tf)
            want = t**3 / 12 - mp.pi * t * t / 4 + mp.pi**2 * t / 6
            got = oracles.oracle_li3_circle(tf).imag
            assert abs(got - want) < mp.mpf("1e-35")


def test_li2_at_pi_is_minus_pi2_over_12():
    with mp.workdps(40):
        got = oracles.oracle_li2_circle(float(mp.pi))
        assert abs(got.real + mp.pi**2 / 12) < mp.mpf("1e-30")


def test_bessel_roots_via_bisection():
    r0 = oracles.bisect_root(lambda x: oracles.oracle_j(0, x), 2.0, 3.0)
    assert abs(float(r0) - 2.404825557695773) < 1e-13
    ry = oracles.bisect_root(lambda x: oracles.oracle_y(0, x), 0.5, 1.5)
    assert abs(float(ry) - 0.8935769662791675) < 1e-13


def test_modified_wronskian():
    # I_m(x) K_{m+1}(x) + I_{m+1}(x) K_m(x) = 1/x at double-rounded x
    with mp.workdps(40):
        for m in (0, 2, 6):
            for xf in (0.4, 2.5, 9.0):
                x = mp.mpf(xf)
                w = (oracles.oracle_i(m, xf) * oracles.oracle_k(m + 1, xf)
                     + oracles.oracle_i(m + 1, xf) * oracles.oracle_k(m, xf))
                assert abs(w - 1 / x) < mp.mpf("1e-30")


# kappa points off every band edge +-1 + 3m; the Lamb shift is pinned as
# differences against the first one
HELIX_KAPPAS = [0.3, 0.7, 2.5, 3.0, 3.6, 4.5]


@pytest.mark.parametrize("r", [0.5, 3.0])
def test_helix_sums_match_quadrature(r):
    spec = HelixSpec(Omega=3.0, r=r)
    want = oracles.oracle_helix_gamma(HELIX_KAPPAS, spec.Omega, r)
    for k, w in zip(HELIX_KAPPAS, want):
        assert abs(helix_decay_norm(k, spec) - w) <= 6e-6, k
    want = oracles.oracle_helix_lamb_diff(HELIX_KAPPAS, HELIX_KAPPAS[0], spec.Omega, r)
    # the truncated sum misses a tail of orders |m| > M that shrinks like 1/M^2;
    # at M = 3000 the I K terms past the scaled forms' range use the uniform term
    for M, tol in ((10, 1.6e-3), (100, 1.3e-4), (3000, 2e-7)):
        ref = helix_lamb_norm(HELIX_KAPPAS[0], spec, M)
        for k, w in zip(HELIX_KAPPAS, want):
            assert abs((helix_lamb_norm(k, spec, M) - ref) - w) <= tol, (M, k)


def test_helix_quadrature_rejects_band_edges():
    with pytest.raises(ValueError, match="band edge"):
        oracles.oracle_helix_gamma([2.0], 3.0, 0.5)
    with pytest.raises(ValueError, match="band edge"):
        oracles.oracle_helix_lamb_diff([0.3], 3.95, 3.0, 0.5)


@pytest.mark.parametrize("h", [0.3, 4.0], ids=["dense", "sparse"])
def test_lattice_sum_of_a_chain_is_pi_over_h_per_radiating_branch(h):
    # radius 0 is the chain of spacing h / k0: its scalar decay symbol is pi/h
    # on each branch q = kappa + 2 pi g/h with |q| <= 1, as the orientation
    # average of the dipole chains states
    kappa = np.linspace(-math.pi / h, math.pi / h, 21)
    q = kappa + 2.0 * math.pi * np.arange(-3, 4)[:, None] / h
    # the taper smooths the step at a light line, so stay clear of them
    clear = np.min(np.abs(np.abs(q) - 1.0), axis=0) > 0.02
    branches = np.count_nonzero(np.abs(q[:, clear]) <= 1.0, axis=0)
    got = oracles.lattice_decay_sum(kappa[clear], 1.0, 0.0, h, 0.0)
    assert np.max(np.abs(got * h / math.pi - branches)) < 1e-6
