"""Special-function kernel shared by the spectrum modules.

Provides Bessel functions of integer order (J, Y, I, K), the Bessel-Hankel
products J_m(x) H_m^(1)(x) that appear term by term in the helix and cylinder
eigenvalue sums, and the dilogarithm/trilogarithm on the complex unit circle
used by the discrete dipole line.

Two conventions run through everything here:

* An argument is a finite magnitude x >= 0 plus an `imaginary` flag saying
  whether it means the real x or the purely imaginary ix, so callers never
  pass complex numbers around.
* Logarithmic divergences are explicit ``-inf`` sentinels inside otherwise
  finite results, never NaN.  The only such divergence is the m = 0,
  zero-argument product J_0 H_0^(1)(0) = 1 - i*inf.

All functions are pure and hold no mutable state.
"""

import cmath
import math
import numbers

import numpy as np

EULER_GAMMA = 0.5772156649015329

# orders are held as int64 with |m| taken; -2^63 has no int64 magnitude
_MAX_ORDER = 2**63 - 1


def _check_order(m):
    """Refuse an order that is not an integer: int() would truncate 2.5 to order 2."""
    if not isinstance(m, numbers.Integral):
        raise ValueError(f"Bessel order must be an integer, got {m}")


def bessel_j(m: int, x: float) -> float:
    """J_m(x) for integer order and x >= 0.

    Negative orders come from scipy, which keeps J_{-m} = (-1)^m J_m bitwise.
    """
    _check_order(m)
    if x < 0.0:
        raise ValueError(f"bessel_j requires x >= 0, got {x}")
    from scipy import special
    return float(special.jv(int(m), x))


def bessel_y(m: int, x: float) -> float:
    """Y_m(x) for integer order and x > 0.

    x = 0 is a domain error: Y_m diverges there, and callers that need the
    limiting behavior (the kappa = +-1 asymptotes) go through jh_products,
    which represents it as a sentinel instead.  Negative orders come from
    scipy, which keeps Y_{-m} = (-1)^m Y_m bitwise.
    """
    _check_order(m)
    if x <= 0.0:
        raise ValueError(f"bessel_y requires x > 0 (logarithmic divergence at 0), got {x}")
    from scipy import special
    return float(special.yv(int(m), x))


def bessel_ik(m: int, x: float) -> tuple:
    """(I_m(x), K_m(x)) for integer order and x > 0.

    Overflow of either value is raised, never returned as inf: the product
    I_m K_m stays modest even where the factors explode, and callers wanting
    the product should use jh_products, which evaluates it in scaled form.
    Both are even in m, and scipy returns the same bits for -m as for m.
    """
    _check_order(m)
    if x <= 0.0:
        raise ValueError(f"bessel_ik requires x > 0, got {x}")
    from scipy import special
    m = int(m)
    i = float(special.iv(m, x))
    k = float(special.kv(m, x))
    if not (math.isfinite(i) and math.isfinite(k)):
        raise OverflowError(f"I_{m}({x}) or K_{m}({x}) exceeds double range")
    return i, k


def _k0_small(x):
    return math.log(2.0) - EULER_GAMMA - np.log(x)


def _distinct(m, x, imaginary) -> tuple:
    """(first, inverse) over the flattened (m, x bits, imaginary) triples: one element's
    index per distinct triple, and each element's position among those."""
    xb = x.ravel().view(np.int64)
    key = (m.ravel() * 2 + imaginary.ravel()).view(np.uint64)
    # x bits in any order, then stably by (m, imaginary), so equal triples are
    # adjacent; keys that fit 16 bits get numpy's radix sort
    order = np.argsort(xb)
    order = order[np.argsort(key[order].astype(np.min_scalar_type(key.max(initial=0))),
                             kind="stable")]
    xs, ks = xb[order], key[order]
    new = np.ones(order.shape, dtype=bool)
    new[1:] = (xs[1:] != xs[:-1]) | (ks[1:] != ks[:-1])
    inverse = np.empty(order.shape, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def jh_products(m, x, imaginary) -> tuple:
    """(Re, Im) of J_m H_m^(1) over integer orders m and finite magnitudes x >= 0.

    m, x and the boolean mask `imaginary` broadcast together: where the mask
    holds, the magnitude stands for the argument ix.  Each branch is
    evaluated only where it applies:

    Real x > 0:       J_m(x)^2 + i J_m(x) Y_m(x)
    Imaginary ix:     -i (2/pi) I_m(x) K_m(x)   (real part exactly 0)
    Zero, m = 0:      1 - i*inf (sentinel for the logarithmic divergence)
    Zero, m != 0:     -i / (|m| pi)

    The product is even in m, so the order is reduced to |m| up front.  This
    is the one place the products are formed.  Scalars in give float scalars
    out; otherwise both parts have the broadcast shape.

    Within one call each distinct (|m|, x bits, imaginary) triple is formed
    once and scattered back to every element that holds it.  Every branch
    and fallback is elementwise, so each element keeps the bits it would get
    alone.
    """
    from scipy import special
    m = np.asarray(m)
    if m.dtype.kind == "O":  # Python integers past int64, or a mix
        for v in m.flat:
            _check_order(v)
    elif m.dtype.kind not in "iu":  # a cast would truncate 2.7 to order 2
        raise ValueError(f"Bessel order must be an integer, got {m.flat[0] if m.size else m}")
    out = (m < -_MAX_ORDER) | (m > _MAX_ORDER)
    if out.any():
        raise ValueError(f"Bessel order must lie within +-(2^63 - 1) = +-{_MAX_ORDER}, "
                         f"got {m[out].flat[0]}")
    x = np.asarray(x, dtype=float)
    ok = (x >= 0.0) & (x < math.inf)  # nan fails both
    if not ok.all():
        raise ValueError(f"Bessel argument magnitude must be finite and >= 0, got {x[~ok][0]}")
    m, x, imaginary = np.broadcast_arrays(np.abs(m.astype(np.int64)), x,
                                          np.asarray(imaginary, dtype=bool))
    shape = x.shape
    first, inverse = _distinct(m, x, imaginary)
    m, x, imaginary = m.ravel()[first], x.ravel()[first], imaginary.ravel()[first]
    zero = x == 0.0
    real, imag = ~zero & ~imaginary, ~zero & imaginary
    mr, xr, mi, xi = m[real], x[real], m[imag], x[imag]
    re = np.zeros(x.shape)
    im = np.empty(x.shape)
    re[zero] = m[zero] == 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        im[zero] = -1.0 / (m[zero] * math.pi)  # -inf at m = 0: the sentinel
        j = special.jv(mr, xr)
        p = j * special.yv(mr, xr)
        re[real] = j * j
        # scaled forms: ive = I e^-x, kve = K e^x, so the exponentials cancel
        q = special.ive(mi, xi) * special.kve(mi, xi)
        # deep in the m >> x regime scipy's J underflows to 0 while Y is finite
        # or overflows; the product there is the leading Debye term
        # -1/(pi sqrt(m^2 - x^2)) to O(1/m^2) (A&S 9.3.7-8).  At m = 0, scipy's
        # Y_0 and K_0 overflow below x ~ 1e-307, where K_0 = ln 2 - gamma_E - ln x
        # to O(x^2 ln x)
        bad = (j == 0.0) | ~np.isfinite(p)
        mb, xb = mr[bad].astype(float), xr[bad]  # m^2 overflows int64 past 3.04e9
        p[bad] = np.where(mb > 0, -1.0 / (math.pi * np.sqrt(mb * mb - xb * xb)),
                          -(2.0 / math.pi) * _k0_small(xb))
        # at large m, ive underflows to 0 or kve overflows; there I_m K_m is
        # 1/(2 sqrt(m^2 + x^2)) to O(1/m^2) (A&S 9.7.7-8), and K_0 at m = 0 where I_0 = 1
        bad = ~np.isfinite(q) | (q == 0.0)
        q[bad] = np.where(mi[bad] > 0, 0.5 / np.hypot(mi[bad], xi[bad]), _k0_small(xi[bad]))
    im[real] = p
    im[imag] = -(2.0 / math.pi) * q
    return re[inverse].reshape(shape)[()], im[inverse].reshape(shape)[()]


# zeta(3 - k) for k = 0..64, float.hex of scipy's zeta(3), zeta(2) and
# -B_n / n: the coefficient of mu^k / k! in Li_3, and of mu^(k-1) / (k-1)!
# in Li_2.  "pole" marks zeta(1), whose term _polylogs replaces by its finite
# part.  Past it, zeta(1 - n) = -B_n / n with B_1 = +1/2, zero (as -0.0) at
# every odd n >= 3.  A literal, so that the polylogs load no scipy module.
_ZETA = tuple(None if v == "pole" else float.fromhex(v) for v in """
    0x1.33ba004f00621p+0 0x1.a51a6625307d3p+0 pole -0x1.0000000000000p-1
    -0x1.5555555555555p-4 -0x0.0p+0 0x1.111111110f0bep-7 -0x0.0p+0
    -0x1.04104104102fap-8 -0x0.0p+0 0x1.11111111110e2p-8 -0x0.0p+0
    -0x1.f07c1f07c1ef8p-8 -0x0.0p+0 0x1.5995995995993p-6 -0x0.0p+0
    -0x1.5555555555558p-4 -0x0.0p+0 0x1.c5e5e5e5e5e64p-2 -0x0.0p+0
    -0x1.86e7f9b9fe6efp+1 -0x0.0p+0 0x1.a74ca514ca51dp+4 -0x0.0p+0
    -0x1.1975cc0ed730ap+8 -0x0.0p+0 0x1.c2f0566566570p+11 -0x0.0p+0
    -0x1.ac572aaaaaab6p+15 -0x0.0p+0 0x1.dc0b1a5cfbe23p+19 -0x0.0p+0
    -0x1.31fad7cbf3c07p+24 -0x0.0p+0 0x1.c280563b8bcc8p+28 -0x0.0p+0
    -0x1.7892edfdf555fp+33 -0x0.0p+0 0x1.62b8b44651d13p+38 -0x0.0p+0
    -0x1.76024c215d235p+43 -0x0.0p+0 0x1.b6c0dfed29568p+48 -0x0.0p+0
    -0x1.1cca39b77b02ep+54 -0x0.0p+0 0x1.97212d8cc104cp+59 -0x0.0p+0
    -0x1.3f0cb06b17e33p+65 -0x0.0p+0 0x1.1101d96823eebp+71 -0x0.0p+0
    -0x1.fc474bdd53c32p+76 -0x0.0p+0 0x1.007db56db95e9p+83 -0x0.0p+0
    -0x1.17c6dd28a9383p+89 -0x0.0p+0 0x1.48df88a383ae5p+95 -0x0.0p+0
    -0x1.9f7b3fa37f324p+101 -0x0.0p+0 0x1.195c16c40d56fp+108 -0x0.0p+0
    -0x1.97922eafb5d29p+114
""".split())


def _libm(f, x, *args) -> np.ndarray:
    """f(v, *args) for each v in x through libm; numpy's SIMD log rounds some v differently."""
    x = np.asarray(x, dtype=float)
    return np.reshape([f(v, *args) for v in x.ravel().tolist()], x.shape)


def _polylogs(t) -> tuple:
    """(Li_2, Li_3) complex arrays at e^{it} for phases t already in [-pi, pi].

    The series of polylog_unit_circle over a whole array, element by element
    in the same operations.  At t = 0 every term past k = 0 is zero, which
    leaves zeta(s) exactly.
    """
    log = _libm(lambda v: cmath.log(complex(0.0, -v)) if v else 0j, t)  # ln(-mu)
    li2 = np.zeros(t.shape, dtype=complex)
    li3 = np.zeros(t.shape, dtype=complex)
    muk = np.ones(t.shape, dtype=complex)  # mu^k / k!
    for k, (z3, z2) in enumerate(zip(_ZETA, _ZETA[1:])):
        li2 += muk * ((1.0 - log) if z2 is None else z2)
        li3 += muk * ((1.5 - log) if z3 is None else z3)
        # mu / (k + 1) with mu = it, bit for bit; numpy's complex division
        # would multiply by 1 / (k + 1) and round differently
        muk *= (t / (k + 1)) * 1j
    return li2, li3


def polylog_unit_circle(s: int, phase: float) -> complex:
    """Li_s(e^{i*phase}) for s in {2, 3}.

    Uses the expansion Li_s(e^mu) = sum_k zeta(s-k) mu^k / k! with the
    zeta(1) pole term replaced by its finite part
    mu^{s-1}/(s-1)! * (H_{s-1} - ln(-mu)), valid for |mu| < 2 pi.  The phase
    is reduced to [-pi, pi], so the series converges like 2^-k and 64 terms
    reach machine precision everywhere on the circle.
    """
    if s not in (2, 3):
        raise ValueError(f"polylog order must be 2 or 3, got {s}")
    return complex(_polylogs(_libm(math.remainder, [phase], math.tau))[s - 2][0])
