"""Unit tests for the special-function kernel.

Frozen literals below were produced by the independent series oracle in
tests/oracles.py at 30 significant digits and rounded to doubles; the
production code must land within a few ulp of them.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest

from helirad.specfun import (
    _ZETA,
    bessel_ik,
    bessel_j,
    bessel_y,
    jh_products,
    polylog_unit_circle,
)

from . import oracles


def _jh(m, x, imaginary=False):
    """J_m H_m^(1) at one argument, through jh_products, as a complex number."""
    return complex(*jh_products(m, x, imaginary))

# (kind, order, x, value) with value frozen from the oracle
FROZEN = [
    ("j", 0, 1.7, 0.39798485944610951),
    ("j", 2, 3.3, 0.47803168645054589),
    ("j", 5, 0.25, 2.5365161587472413e-07),
    ("j", 7, 19.0, -0.11647797453873988),
    ("y", 0, 0.4, -0.60602456842700947),
    ("y", 1, 2.9, 0.29594005460767475),
    ("y", 4, 11.5, -0.22283737825659461),
    ("i", 0, 0.8, 1.1665149228698029),
    ("k", 0, 0.8, 0.5653471052658956),
    ("i", 3, 2.2, 0.29762770953240369),
    ("k", 3, 2.2, 0.44854592806594529),
    ("i", 6, 14.0, 34838.032196024877),
    ("k", 6, 14.0, 9.4235684926944016e-07),
]

# (s, phase, re, im) frozen the same way
FROZEN_LI = [
    (2, 0.77, 0.58364589521615606, 0.97761052906854562),
    (2, 2.7, -0.77371601549799451, 0.30248303130102311),
    (3, 1.1, 0.34711516320878805, 0.97001236248880329),
    (3, 4.4, -0.37956662085846882, -0.86893188257573639),
]


def test_frozen_bessel_values():
    for kind, m, x, want in FROZEN:
        if kind == "j":
            got = bessel_j(m, x)
        elif kind == "y":
            got = bessel_y(m, x)
        else:
            got = bessel_ik(m, x)[0 if kind == "i" else 1]
        assert got == pytest.approx(want, rel=1e-13), (kind, m, x)


def test_frozen_polylog_values():
    for s, t, re, im in FROZEN_LI:
        got = polylog_unit_circle(s, t)
        assert got.real == pytest.approx(re, rel=1e-13, abs=1e-15)
        assert got.imag == pytest.approx(im, rel=1e-13, abs=1e-15)


def test_bessel_matches_oracle_across_domain():
    pts = [(0, 0.03), (1, 0.6), (2, 4.7), (4, 9.2), (8, 17.0)]
    for m, x in pts:
        assert bessel_j(m, x) == pytest.approx(float(oracles.oracle_j(m, x)), rel=1e-12)
        assert bessel_y(m, x) == pytest.approx(float(oracles.oracle_y(m, x)), rel=1e-12)
        i, k = bessel_ik(m, x)
        assert i == pytest.approx(float(oracles.oracle_i(m, x)), rel=1e-12)
        assert k == pytest.approx(float(oracles.oracle_k(m, x)), rel=1e-12)


def test_j_parity_is_bitwise():
    for m in range(1, 9):
        for x in (0.0, 0.3, 2.404825557695773, 11.0):
            want = -bessel_j(m, x) if m % 2 else bessel_j(m, x)
            assert bessel_j(-m, x) == want


def test_y_negative_order_reflection():
    for m in (1, 2, 5):
        for x in (0.7, 3.1):
            want = -bessel_y(m, x) if m % 2 else bessel_y(m, x)
            assert bessel_y(-m, x) == want


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        bessel_j(0, -0.1)
    with pytest.raises(ValueError):
        bessel_y(0, 0.0)
    with pytest.raises(ValueError):
        bessel_y(2, -1.0)
    with pytest.raises(ValueError):
        bessel_ik(1, 0.0)
    with pytest.raises(OverflowError):
        bessel_ik(0, 800.0)  # I_0 alone exceeds double range
    for m, x in ((0, -1.0), (0, float("nan")), (0, math.inf), (3, math.inf)):
        for imaginary in (False, True):
            with pytest.raises(ValueError, match="magnitude must be finite and >= 0"):
                _jh(m, x, imaginary)


def test_jh_products_refuse_orders_without_an_integer_type():
    for m in (2.7, np.array([1.0, 2.5]), 3.0):
        with pytest.raises(ValueError, match="^Bessel order must be an integer, got "):
            jh_products(m, 0.5, False)
    assert jh_products(np.int32(3), 0.5, False) == jh_products(3, 0.5, False)


@pytest.mark.parametrize("f, m", [(bessel_j, 2.5), (bessel_y, 2.9), (bessel_ik, 1.7),
                                  (bessel_j, 3.0), (bessel_ik, np.float64(2.0))])
def test_scalar_bessels_refuse_orders_without_an_integer_type(f, m):
    # int(m) would truncate: bessel_j(2.5, 1.0) was bessel_j(2, 1.0)
    with pytest.raises(ValueError, match=f"^Bessel order must be an integer, got {m}$"):
        f(m, 1.0)
    assert f(np.int32(2), 1.0) == f(2, 1.0)


@pytest.mark.parametrize("m", [3_100_000_000, 2**62, 2**63 - 1, -(2**63 - 1)])
def test_jh_products_past_the_int64_square_take_the_debye_limit(m):
    # m^2 overflows int64 past 3.04e9, and the Debye term once read nan there
    for x in (0.0, 0.5, 1.0):
        for imaginary in (False, True):
            re, im = jh_products(m, x, imaginary)
            assert re == 0.0
            assert im == pytest.approx(-1.0 / (math.pi * abs(m)), rel=1e-12), (x, imaginary)


@pytest.mark.parametrize("m", [-2**63, 2**63, 10**20, -10**20, np.uint64(2**63),
                               np.array([1, -2**63]), np.array([3, 2**70], dtype=object)])
def test_jh_products_refuse_orders_past_int64(m):
    # |-2^63| is -2^63 in int64; and a Python integer past int64 is not an order
    with pytest.raises(ValueError, match=r"^Bessel order must lie within \+-\(2\^63 - 1\) = "
                                         r"\+-9223372036854775807, got -?[0-9]+$"):
        jh_products(m, 0.5, False)


def test_y_small_argument_divergence_direction():
    # Y_0 ~ (2/pi) ln x, Y_1 ~ -2/(pi x): both blow up toward -inf at 0+
    assert bessel_y(0, 1e-8) < -10.0
    assert bessel_y(1, 1e-8) < -1e7


def test_jh_product_zero_argument_sentinel():
    for imaginary in (False, True):
        v = _jh(0, 0.0, imaginary)
        assert v.real == 1.0
        assert v.imag == float("-inf")


def test_jh_product_zero_argument_finite_orders():
    for m in (1, 3, -3, 12):
        v = _jh(m, 0.0)
        assert v == complex(0.0, -1.0 / (abs(m) * math.pi))


def test_jh_product_real_case_components():
    for m, x in ((0, 0.9), (2, 4.2), (5, 1.3)):
        v = _jh(m, x)
        j = bessel_j(m, x)
        y = bessel_y(m, x)
        assert v.real == pytest.approx(j * j, rel=1e-14, abs=1e-300)
        assert v.imag == pytest.approx(j * y, rel=1e-13)


def test_jh_product_imaginary_case_is_negative_imaginary():
    for m, x in ((0, 0.4), (1, 2.0), (4, 7.7)):
        v = _jh(m, x, imaginary=True)
        i, k = bessel_ik(m, x)
        assert v.real == 0.0
        assert v.imag == pytest.approx(-(2.0 / math.pi) * i * k, rel=1e-13)
        assert v.imag < 0.0


def test_jh_product_even_in_order():
    for m in (1, 2, 7):
        assert _jh(-m, 2.6) == _jh(m, 2.6)


def test_jh_product_real_part_stays_in_unit_interval():
    # Re(J_m H_m) = J_m(x)^2 in [0, 1) for x > 0
    for m in range(0, 7):
        for k in range(1, 60):
            x = 0.05 * k * k
            v = _jh(m, x)
            assert 0.0 <= v.real < 1.0


def test_jh_product_extreme_order_fallbacks():
    # m >> x: J underflows while Y overflows, hit the -1/(m pi) limit
    v = _jh(200, 1e-8)
    assert v.imag == pytest.approx(-1.0 / (200 * math.pi), rel=1e-12)
    assert math.isfinite(v.imag)
    w = _jh(200, 1e-8, imaginary=True)
    assert w.imag == pytest.approx(-1.0 / (200 * math.pi), rel=1e-12)


@pytest.mark.parametrize("imaginary", [False, True, "mask"])
def test_jh_products_over_an_order_array_match_each_order_bitwise(imaginary):
    # orders -250..250 (m = 0 among them) against magnitudes that include x = 0,
    # m = 0's tiny-argument limit and m = 200's large-order fallbacks
    m = np.arange(-250, 251, 25)[:, None]
    x = np.array([0.0, 1e-310, 1e-8, 0.07, 0.5, 4.56, 30.0, 800.0])
    mask = np.resize([False, True, True], m.shape[0])[:, None] if imaginary == "mask" \
        else np.full((m.shape[0], 1), imaginary)
    re, im = jh_products(m, x, mask)
    want = np.array([[_jh(int(k), float(v), bool(i)) for v in x]
                     for k, i in zip(m[:, 0], mask[:, 0])])
    assert re.tobytes() == want.real.tobytes()
    assert im.tobytes() == want.imag.tobytes()
    assert np.isneginf(im[m[:, 0] == 0, 0]).all()


# (m, x, imaginary) triples that share parts: x = 0.5 in both branches and at
# orders 3, -3 and 4; x = 0 at m = 0 (the -inf sentinel) in both branches and
# as -0.0; both fallback bands (J underflowing at (100, 0.08) and (200, 4.87),
# the scaled I at (100, 0.068) and (200, 4.565)), and m = 0's tiny-argument limit
SHARED_TRIPLES = [
    (3, 0.5, False), (3, 0.5, True), (-3, 0.5, False), (-3, 0.5, True), (4, 0.5, False),
    (0, 0.0, False), (0, 0.0, True), (0, -0.0, False), (2, 0.0, True), (-2, 0.0, False),
    (100, 0.08, False), (200, 4.87, False), (100, 0.068, True), (200, 4.565, True),
    (0, 1e-310, False), (0, 1e-310, True), (100, 0.5, True), (7, 4.565, False),
]


def test_jh_products_with_repeated_triples_match_each_element_bitwise():
    picks = np.random.default_rng(1).integers(len(SHARED_TRIPLES), size=(9, 14))
    m, x, imaginary = (np.array([[SHARED_TRIPLES[i][k] for i in row] for row in picks])
                       for k in range(3))
    re, im = jh_products(m, x, imaginary)
    want = np.array([[_jh(*SHARED_TRIPLES[i]) for i in row] for row in picks])
    assert re.shape == im.shape == picks.shape
    assert re.tobytes() == want.real.tobytes()
    assert im.tobytes() == want.imag.tobytes()
    assert np.isneginf(im[(m == 0) & (x == 0.0)]).all()


# band centres where scipy's ive underflows to 0 while kve is finite; the
# product there was once returned as 0
@pytest.mark.parametrize("m, x", [(100, 0.068), (200, 4.565), (500, 112.3), (1000, 620.8)])
def test_jh_product_where_the_scaled_i_underflows(m, x):
    want = -(2.0 / math.pi) * float(mpmath.besseli(m, x) * mpmath.besselk(m, x))
    assert _jh(m, x, imaginary=True).imag == pytest.approx(want, rel=1e-7)


# band centres where scipy's jv underflows to 0 while yv is finite; the
# product there was once returned as -0.0.  The leading Debye term's relative
# error is the O(1/m^2) term of the product's series, which vanishes as x/m -> 0:
# 3e-11, 7e-9 and 1.2e-7 here
@pytest.mark.parametrize("m, x", [(100, 0.08), (200, 4.87), (1000, 379.5)])
def test_jh_product_where_j_underflows(m, x):
    want = float(mpmath.besselj(m, x) * mpmath.bessely(m, x))
    assert _jh(m, x).imag == pytest.approx(want, rel=2e-7)


@pytest.mark.parametrize("x", [1e-300, 1e-307, 1e-310, 5e-324])
def test_jh_product_order_zero_at_tiny_arguments(x):
    # scipy's Y_0 and K_0 overflow below x ~ 1e-307; the product stays finite
    jy = float(oracles.oracle_j(0, x) * oracles.oracle_y(0, x))
    ik = float(oracles.oracle_i(0, x) * oracles.oracle_k(0, x))
    assert _jh(0, x).imag == pytest.approx(jy, rel=1e-14)
    assert _jh(0, x, imaginary=True).imag == pytest.approx(-(2.0 / math.pi) * ik, rel=1e-14)


def test_jh_product_imaginary_large_argument_scaled():
    # I_0 K_0 -> 1/(2x): the scaled route must survive where I_0 overflows
    v = _jh(0, 800.0, imaginary=True)
    assert v.imag == pytest.approx(-(2.0 / math.pi) / 1600.0, rel=1e-3)


def test_wronskian_identity():
    for x in (0.2, 1.0, 3.7, 9.9, 24.0):
        for m in (0, 1, 4):
            lhs = bessel_j(m + 1, x) * bessel_y(m, x) - bessel_j(m, x) * bessel_y(m + 1, x)
            assert abs(lhs - 2.0 / (math.pi * x)) < 1e-10


def test_squared_j_sum_saturates_at_unity():
    # sum_{m=-M}^{M} J_m(x)^2 = 1, partial sums increasing
    for x in (0.5, 3.0, 10.0):
        total = bessel_j(0, x) ** 2
        prev = total
        for m in range(1, 41):
            total += 2.0 * bessel_j(m, x) ** 2
            assert total >= prev
            prev = total
        assert abs(total - 1.0) < 1e-10


def test_zeta_table_holds_scipys_values_bit_for_bit():
    # the build the literal replaced: scipy's zeta(3), zeta(2), then
    # zeta(1 - n) = -B_n / n with B_1 = +1/2 (scipy's B_1 is -1/2)
    from scipy import special
    want = [float(special.zeta(3)), float(special.zeta(2)), None, -0.5] + [
        -float(b) / n for n, b in enumerate(special.bernoulli(62)[2:], start=2)]
    assert [v if v is None else v.hex() for v in _ZETA] == \
        [v if v is None else v.hex() for v in want]


def test_polylog_special_points():
    assert polylog_unit_circle(2, 0.0) == complex(math.pi**2 / 6.0, 0.0)
    v3 = polylog_unit_circle(3, 0.0)
    assert v3.real == pytest.approx(1.2020569031595943, rel=1e-15)
    assert v3.imag == 0.0
    vm = polylog_unit_circle(2, math.pi)
    assert vm.real == pytest.approx(-math.pi**2 / 12.0, rel=1e-14)
    assert abs(vm.imag) < 1e-13  # Cl_2(pi) = 0, series noise at worst-case |mu|


def test_polylog_phase_reduction():
    # phase enters only through e^{i t}; shifting by 2 pi is a no-op up to
    # the rounding of the reduced angle
    a = polylog_unit_circle(2, 0.9)
    b = polylog_unit_circle(2, 0.9 + 2.0 * math.pi)
    assert cmath.isclose(a, b, rel_tol=1e-12)


def test_li2_real_part_closed_form():
    # Re Li_2(e^{i t}) = pi^2/6 - pi t/2 + t^2/4 on [0, 2 pi]
    for k in range(1, 40):
        t = 2.0 * math.pi * k / 40.0
        want = math.pi**2 / 6.0 - math.pi * t / 2.0 + t * t / 4.0
        assert abs(polylog_unit_circle(2, t).real - want) < 1e-10


def test_li3_imag_part_closed_form():
    # Im Li_3(e^{i t}) = t^3/12 - pi t^2/4 + pi^2 t/6 on [0, 2 pi]
    for k in range(1, 40):
        t = 2.0 * math.pi * k / 40.0
        want = t**3 / 12.0 - math.pi * t * t / 4.0 + math.pi**2 * t / 6.0
        assert abs(polylog_unit_circle(3, t).imag - want) < 1e-10


def test_polylog_matches_oracle():
    for t in (0.11, 1.9, 3.14, 5.02):
        for s, fn in ((2, oracles.oracle_li2_circle), (3, oracles.oracle_li3_circle)):
            got = polylog_unit_circle(s, t)
            want = fn(t)
            assert abs(got.real - float(want.real)) < 1e-13
            assert abs(got.imag - float(want.imag)) < 1e-13


def test_polylog_rejects_other_orders():
    with pytest.raises(ValueError):
        polylog_unit_circle(4, 0.5)
    with pytest.raises(ValueError):
        polylog_unit_circle(1, 0.5)
