"""Special-function kernel shared by the spectrum modules.

Provides Bessel functions of integer order (J, Y, I, K), the Bessel-Hankel
products J_m(x) H_m^(1)(x) that appear term by term in the helix and cylinder
eigenvalue sums, and the dilogarithm/trilogarithm on the complex unit circle
used by the discrete dipole line.

Two conventions run through everything here:

* Arguments are either real (x) or purely imaginary (ix); `BesselArg` carries
  that distinction explicitly so callers never pass complex numbers around.
* Logarithmic divergences are explicit ``-inf`` sentinels inside otherwise
  finite results, never NaN.  The only such divergence is the m = 0,
  zero-argument product J_0 H_0^(1)(0) = 1 - i*inf.

All functions are pure and hold no mutable state.
"""

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

EULER_GAMMA = 0.5772156649015329

_TWO_PI = 2.0 * math.pi


class ArgKind(enum.Enum):
    REAL = "real"
    IMAGINARY = "imaginary"


@dataclass(frozen=True)
class BesselArg:
    """Argument magnitude plus a tag saying whether it means x or ix."""

    kind: ArgKind
    magnitude: float

    def __post_init__(self):
        if not (self.magnitude >= 0.0):
            raise ValueError(f"Bessel argument magnitude must be >= 0, got {self.magnitude}")


def bessel_j(m: int, x: float) -> float:
    """J_m(x) for integer order and x >= 0.

    Negative orders go through the reflection J_{-m} = (-1)^m J_m so the
    identity holds bitwise, not just to rounding.
    """
    if x < 0.0:
        raise ValueError(f"bessel_j requires x >= 0, got {x}")
    m = int(m)
    if m < 0:
        v = float(_sp.jv(-m, x))
        return -v if m % 2 else v
    return float(_sp.jv(m, x))


def bessel_y(m: int, x: float) -> float:
    """Y_m(x) for integer order and x > 0.

    x = 0 is a domain error: Y_m diverges there, and callers that need the
    limiting behavior (the kappa = +-1 asymptotes) go through jh_product,
    which represents it as a sentinel instead.
    """
    if x <= 0.0:
        raise ValueError(f"bessel_y requires x > 0 (logarithmic divergence at 0), got {x}")
    m = int(m)
    if m < 0:
        v = float(_sp.yv(-m, x))
        return -v if m % 2 else v
    return float(_sp.yv(m, x))


def bessel_ik(m: int, x: float) -> tuple:
    """(I_m(x), K_m(x)) for integer order and x > 0.

    Overflow of either value is raised, never returned as inf: the product
    I_m K_m stays modest even where the factors explode, and callers wanting
    the product should use jh_product, which evaluates it in scaled form.
    """
    if x <= 0.0:
        raise ValueError(f"bessel_ik requires x > 0, got {x}")
    m = abs(int(m))
    i = float(_sp.iv(m, x))
    k = float(_sp.kv(m, x))
    if not (math.isfinite(i) and math.isfinite(k)):
        raise OverflowError(f"I_{m}({x}) or K_{m}({x}) exceeds double range")
    return i, k


def jh_products(m: int, x, imaginary) -> tuple:
    """(Re, Im) arrays of J_m H_m^(1) over an array of magnitudes x >= 0.

    `imaginary` is a boolean mask, or one bool for the whole array: where it
    holds, the magnitude stands for the argument ix.  Each branch (real J Y,
    imaginary scaled I K, zero-argument sentinel) is evaluated only where it
    applies and gives the values jh_product documents.  This is the one place
    the products are formed.
    """
    m = abs(int(m))
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0.0):
        raise ValueError(
            f"Bessel argument magnitude must be >= 0, got {x[~(x >= 0.0)][0]}"
        )
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
    bad = ~np.isfinite(p)
    if bad.any():
        # deep in the m >> x regime J underflows while Y overflows;
        # the product limit there is -1/(m pi) to O(x^2/m)
        p[bad] = -1.0 / (m * math.pi)
    im[real] = p
    bad = ~np.isfinite(q)
    if bad.any():
        q[bad] = 0.5 / m  # small-argument limit of I_m K_m, same regime as above
    im[imag] = -(2.0 / math.pi) * q
    return re, im


def jh_product(m: int, arg: BesselArg) -> complex:
    """J_m H_m^(1) evaluated at a real or purely imaginary argument.

    Real x > 0:       J_m(x)^2 + i J_m(x) Y_m(x)
    Imaginary ix:     -i (2/pi) I_m(x) K_m(x)   (real part exactly 0)
    Zero, m = 0:      1 - i*inf (sentinel for the logarithmic divergence)
    Zero, m != 0:     -i / (|m| pi)

    The product is even in m, so the order is reduced to |m| up front.
    """
    re, im = jh_products(m, [arg.magnitude], arg.kind is ArgKind.IMAGINARY)
    return complex(re[0], im[0])


# zeta(s - k) coefficients for the unit-circle polylog expansion; trivial
# zeros at negative even integers make half the table vanish
_BERNOULLI = _sp.bernoulli(72)


def _zeta_int(n: int) -> float:
    if n >= 2:
        return float(_sp.zeta(n))
    if n == 0:
        # the -B_{k+1}/(k+1) identity needs B_1 = +1/2, scipy uses -1/2
        return -0.5
    k = -n
    return -float(_BERNOULLI[k + 1]) / (k + 1)


# zeta(s - k) for k < 64, built once per order; None marks the k = s - 1
# pole, whose term polylog_unit_circle replaces by its finite part
_ZETA_SERIES = {
    s: [None if k == s - 1 else _zeta_int(s - k) for k in range(64)]
    for s in (2, 3)
}


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
    t = math.remainder(float(phase), _TWO_PI)
    if t == 0.0:
        return complex(_ZETA_SERIES[s][0], 0.0)
    mu = complex(0.0, t)
    log_term = (1.0 if s == 2 else 1.5) - cmath.log(-mu)
    total = 0.0 + 0.0j
    muk = 1.0 + 0.0j  # mu^k / k!
    for k, zeta in enumerate(_ZETA_SERIES[s]):
        total += muk * (log_term if zeta is None else zeta)
        muk *= mu / (k + 1)
    return total
