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

import numpy as np
from scipy import special as _sp

EULER_GAMMA = 0.5772156649015329

_TWO_PI = 2.0 * math.pi


def bessel_j(m: int, x: float) -> float:
    """J_m(x) for integer order and x >= 0.

    Negative orders come from scipy, which keeps J_{-m} = (-1)^m J_m bitwise.
    """
    if x < 0.0:
        raise ValueError(f"bessel_j requires x >= 0, got {x}")
    return float(_sp.jv(int(m), x))


def bessel_y(m: int, x: float) -> float:
    """Y_m(x) for integer order and x > 0.

    x = 0 is a domain error: Y_m diverges there, and callers that need the
    limiting behavior (the kappa = +-1 asymptotes) go through jh_product,
    which represents it as a sentinel instead.  Negative orders come from
    scipy, which keeps Y_{-m} = (-1)^m Y_m bitwise.
    """
    if x <= 0.0:
        raise ValueError(f"bessel_y requires x > 0 (logarithmic divergence at 0), got {x}")
    return float(_sp.yv(int(m), x))


def bessel_ik(m: int, x: float) -> tuple:
    """(I_m(x), K_m(x)) for integer order and x > 0.

    Overflow of either value is raised, never returned as inf: the product
    I_m K_m stays modest even where the factors explode, and callers wanting
    the product should use jh_product, which evaluates it in scaled form.
    Both are even in m, and scipy returns the same bits for -m as for m.
    """
    if x <= 0.0:
        raise ValueError(f"bessel_ik requires x > 0, got {x}")
    m = int(m)
    i = float(_sp.iv(m, x))
    k = float(_sp.kv(m, x))
    if not (math.isfinite(i) and math.isfinite(k)):
        raise OverflowError(f"I_{m}({x}) or K_{m}({x}) exceeds double range")
    return i, k


def _k0_small(x):
    return math.log(2.0) - EULER_GAMMA - np.log(x)


def jh_products(m: int, x, imaginary) -> tuple:
    """(Re, Im) arrays of J_m H_m^(1) over an array of finite magnitudes x >= 0.

    `imaginary` is a boolean mask, or one bool for the whole array: where it
    holds, the magnitude stands for the argument ix.  Each branch (real J Y,
    imaginary scaled I K, zero-argument sentinel) is evaluated only where it
    applies and gives the values jh_product documents.  This is the one place
    the products are formed.
    """
    m = abs(int(m))
    x = np.asarray(x, dtype=float)
    ok = (x >= 0.0) & (x < math.inf)  # nan fails both
    if not ok.all():
        raise ValueError(f"Bessel argument magnitude must be finite and >= 0, got {x[~ok][0]}")
    zero = x == 0.0
    real = ~zero & ~np.asarray(imaginary, dtype=bool)
    imag = ~zero & ~real
    re = np.zeros(x.shape)
    im = np.empty(x.shape)
    if m == 0:
        re[zero] = 1.0
        im[zero] = -np.inf
    else:
        im[zero] = -1.0 / (m * math.pi)
    with np.errstate(invalid="ignore", over="ignore"):
        j = _sp.jv(m, x[real])
        p = j * _sp.yv(m, x[real])
        re[real] = j * j
        # scaled forms: ive = I e^-x, kve = K e^x, so the exponentials cancel
        q = _sp.ive(m, x[imag]) * _sp.kve(m, x[imag])
    # deep in the m >> x regime J underflows while Y overflows; the product
    # limit there is -1/(m pi) to O(x^2/m).  At m = 0, scipy's Y_0 and K_0
    # overflow below x ~ 1e-307, where K_0 = ln 2 - gamma_E - ln x to O(x^2 ln x)
    bad = ~np.isfinite(p)
    if bad.any():
        p[bad] = -1.0 / (m * math.pi) if m else -(2.0 / math.pi) * _k0_small(x[real][bad])
    im[real] = p
    bad = ~np.isfinite(q)
    if bad.any():  # I_m K_m -> 1/(2m), and K_0 at m = 0 where I_0 = 1
        q[bad] = 0.5 / m if m else _k0_small(x[imag][bad])
    im[imag] = -(2.0 / math.pi) * q
    return re, im


def jh_product(m: int, x: float, imaginary: bool = False) -> complex:
    """J_m H_m^(1) at the real argument x, or at ix where `imaginary` holds.

    Real x > 0:       J_m(x)^2 + i J_m(x) Y_m(x)
    Imaginary ix:     -i (2/pi) I_m(x) K_m(x)   (real part exactly 0)
    Zero, m = 0:      1 - i*inf (sentinel for the logarithmic divergence)
    Zero, m != 0:     -i / (|m| pi)

    The product is even in m, so the order is reduced to |m| up front.  The
    one-element view of jh_products.
    """
    re, im = jh_products(m, [x], imaginary)
    return complex(re[0], im[0])


# zeta(3 - k) for k <= 64: the coefficient of mu^k / k! in Li_3, and of
# mu^(k-1) / (k-1)! in Li_2.  None marks the zeta(1) pole, whose term
# _polylogs replaces by its finite part.  Past it, zeta(1 - n) = -B_n / n
# with B_1 = +1/2 (scipy's B_1 is -1/2), zero at every odd n >= 3.
_ZETA = [float(_sp.zeta(3)), float(_sp.zeta(2)), None, -0.5] + [
    -float(b) / n for n, b in enumerate(_sp.bernoulli(62)[2:], start=2)]


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
    return complex(_polylogs(_libm(math.remainder, [phase], _TWO_PI))[s - 2][0])
