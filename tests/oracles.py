"""High-precision reference implementations for validating the production kernel.

Everything here is computed from scratch at elevated working precision:
ascending power series for the Bessel family (Abramowitz & Stegun 9.1.10,
9.1.11, 9.6.10, 9.6.11), Hankel's asymptotic expansion for J and Y at large
arguments (9.2.5-10), and tanh-sinh quadrature of the Clausen-type integral
representations for the polylogarithms on the unit circle.  mpmath is used
only as an arbitrary-precision float type; none of its special functions are
called, so agreement with the production code is a genuine two-route check.

The helix sums get a third, Bessel-free route: the decay rate and the Lamb
shift are Fourier integrals of the scalar kernel along the helix itself,
evaluated by numpy quadrature (see `oracle_helix_gamma`).  A fourth sums the
kernel over a discrete screw chain of emitters in position space
(`lattice_decay_sum`), which fixes the axial line density n0 the closed
forms count.

The logarithmic series suffer heavy cancellation (the partial sums are as
large as e^x while K_m(x) itself is as small as e^-x), so every value is
recomputed at doubled working precision until two successive evaluations
agree to 25 digits.  That makes the oracle self-validating rather than
dependent on a cancellation estimate.
"""

import mpmath as mp
import numpy as np

_MAX_TERMS = 20000
_AGREE_DIGITS = 25
# J and Y switch from the ascending series, whose working precision grows
# with x, to Hankel's expansion past this argument
_HANKEL_X = 1e4


def _converged(fn, start_dps):
    prev = fn(start_dps)
    dps = start_dps * 2
    for _ in range(8):
        cur = fn(dps)
        tol = mp.mpf(10) ** (-_AGREE_DIGITS)
        if prev == cur or abs(prev - cur) <= abs(cur) * tol:
            return cur
        prev, dps = cur, dps * 2
    raise ArithmeticError("series oracle failed to stabilize")


def _digamma_int(n):
    # psi(n) for integer n >= 1: -euler + H_{n-1}
    acc = -mp.euler
    for j in range(1, n):
        acc += mp.mpf(1) / j
    return acc


def _hankel(m, x, dps):
    """(P cos chi - Q sin chi, P sin chi + Q cos chi) sqrt(2 / (pi x)) at dps digits.

    Hankel's expansion (A&S 9.2.5-10) with chi = x - (m/2 + 1/4) pi: J_m(x)
    and Y_m(x) for m >= 0.  The terms a_k / x^k fall while k < 2x, so for
    x > max(_HANKEL_X, m^2) the sum stops below the working precision long
    before the series turns.
    """
    with mp.workdps(dps):
        xm = mp.mpf(x)
        mu = 4 * mp.mpf(m) ** 2
        term = mp.mpf(1)
        sums = [mp.mpf(0), mp.mpf(0)]  # P, Q
        for k in range(_MAX_TERMS):
            sums[k % 2] += term if k % 4 < 2 else -term
            term = term * (mu - (2 * k + 1) ** 2) / ((k + 1) * 8 * xm)
            if abs(term) < mp.eps:
                break
        p, q = sums
        chi = xm - (mp.mpf(m) / 2 + mp.mpf(1) / 4) * mp.pi
        c, s = mp.cos(chi), mp.sin(chi)
        env = mp.sqrt(2 / (mp.pi * xm))
        return env * (p * c - q * s), env * (p * s + q * c)


def oracle_j(m, x):
    """J_m(x) by the ascending power series, as an mpf; Hankel's expansion
    past max(_HANKEL_X, m^2)."""
    m = int(m)
    sign = 1
    if m < 0:
        m = -m
        sign = -1 if m % 2 else 1
    if x > max(_HANKEL_X, m * m):
        return sign * _converged(lambda dps: _hankel(m, x, dps)[0], 40)

    def compute(dps):
        with mp.workdps(dps):
            xm = mp.mpf(x)
            if xm == 0:
                return mp.mpf(1 if m == 0 else 0)
            q = xm * xm / 4
            term = (xm / 2) ** m / mp.factorial(m)
            total = term
            largest = abs(term)
            for k in range(1, _MAX_TERMS):
                term = -term * q / (k * (m + k))
                total += term
                largest = max(largest, abs(term))
                if abs(term) < largest * mp.eps and k > float(x) / 2:
                    break
            return +(sign * total)

    return _converged(compute, 40 + int(0.5 * float(x)))


def oracle_y(m, x):
    """Y_m(x) for x > 0 by the logarithmic series (A&S 9.1.11); Hankel's
    expansion past max(_HANKEL_X, m^2)."""
    m = int(m)
    sign = 1
    if m < 0:
        m = -m
        sign = -1 if m % 2 else 1
    if x <= 0:
        raise ValueError("series oracle for Y_m needs x > 0")
    if x > max(_HANKEL_X, m * m):
        return sign * _converged(lambda dps: _hankel(m, x, dps)[1], 40)

    def compute(dps):
        with mp.workdps(dps):
            xm = mp.mpf(x)
            half = xm / 2
            q = xm * xm / 4
            # J_m(x) re-summed at this precision: the log term must cancel
            # against the psi tail far below the final Y_m magnitude
            jterm = half ** m / mp.factorial(m)
            jval = jterm
            jlarge = abs(jterm)
            for k in range(1, _MAX_TERMS):
                jterm = -jterm * q / (k * (m + k))
                jval += jterm
                jlarge = max(jlarge, abs(jterm))
                if abs(jterm) < jlarge * mp.eps and k > float(x) / 2:
                    break
            total = 2 / mp.pi * mp.log(half) * jval
            fin = mp.mpf(0)
            for k in range(m):
                fin += mp.factorial(m - k - 1) / mp.factorial(k) * q ** k
            total -= fin / (mp.pi * half ** m)
            base = mp.mpf(1) / mp.factorial(m)  # (-q)^k / (k! (m+k)!) at k = 0
            psi_a = _digamma_int(1)
            psi_b = _digamma_int(m + 1)
            tail = base * (psi_a + psi_b)
            largest = abs(tail)
            for k in range(1, _MAX_TERMS):
                base = -base * q / (k * (m + k))
                psi_a += mp.mpf(1) / k
                psi_b += mp.mpf(1) / (m + k)
                term = base * (psi_a + psi_b)
                tail += term
                largest = max(largest, abs(term))
                if abs(term) < largest * mp.eps and k > float(x) / 2:
                    break
            total -= half ** m / mp.pi * tail
            return +(sign * total)

    return _converged(compute, 40 + int(0.6 * float(x)) + m)


def oracle_i(m, x):
    """I_m(x) by the (all-positive) ascending series."""
    m = abs(int(m))

    def compute(dps):
        with mp.workdps(dps):
            xm = mp.mpf(x)
            if xm == 0:
                return mp.mpf(1 if m == 0 else 0)
            q = xm * xm / 4
            term = (xm / 2) ** m / mp.factorial(m)
            total = term
            for k in range(1, _MAX_TERMS):
                term = term * q / (k * (m + k))
                total += term
                if term < total * mp.eps:
                    break
            return +total

    return _converged(compute, 40)


def oracle_k(m, x):
    """K_m(x) for x > 0 by the logarithmic series (A&S 9.6.11)."""
    m = abs(int(m))
    if x <= 0:
        raise ValueError("series oracle for K_m needs x > 0")

    def compute(dps):
        with mp.workdps(dps):
            xm = mp.mpf(x)
            half = xm / 2
            q = xm * xm / 4
            fin = mp.mpf(0)
            for k in range(m):
                fin += mp.factorial(m - k - 1) / mp.factorial(k) * (-q) ** k
            total = fin / (2 * half ** m)
            # I_m(x) re-summed at this precision: for large x the log term is
            # ~e^x while K_m itself is ~e^-x, so a separately converged I with
            # only ~25 certified digits would poison every evaluation alike
            iterm = half ** m / mp.factorial(m)
            ival = iterm
            for k in range(1, _MAX_TERMS):
                iterm = iterm * q / (k * (m + k))
                ival += iterm
                if iterm < ival * mp.eps:
                    break
            total += (-1) ** (m + 1) * mp.log(half) * ival
            base = mp.mpf(1) / mp.factorial(m)
            psi_a = _digamma_int(1)
            psi_b = _digamma_int(m + 1)
            tail = base * (psi_a + psi_b)
            for k in range(1, _MAX_TERMS):
                base = base * q / (k * (m + k))
                psi_a += mp.mpf(1) / k
                psi_b += mp.mpf(1) / (m + k)
                term = base * (psi_a + psi_b)
                tail += term
                if abs(term) < abs(tail) * mp.eps and k > float(x):
                    break
            total += (-1) ** m * half ** m / 2 * tail
            return +total

    return _converged(compute, 50 + int(float(x)) + 2 * m)


def _reduce_phase(theta):
    twopi = 2 * mp.pi
    t = mp.mpf(theta) % twopi
    if t < 0:
        t += twopi
    return t


def oracle_li2_circle(theta):
    """Li_2(e^{i theta}) as an mpc.

    Real part is the Bernoulli closed form pi^2/6 - pi t/2 + t^2/4 on [0, 2pi];
    imaginary part is the Clausen integral -int_0^t ln(2 sin(u/2)) du.
    """
    with mp.workdps(60):
        t = _reduce_phase(theta)
        re = mp.pi ** 2 / 6 - mp.pi * t / 2 + t * t / 4
        if t == 0:
            return mp.mpc(re, 0)
        f = lambda u: mp.log(2 * mp.sin(u / 2))
        im = -mp.quad(f, [0, t / 2, t])
        return mp.mpc(re, im)


def oracle_li3_circle(theta):
    """Li_3(e^{i theta}) as an mpc.

    Imaginary part is the closed form t^3/12 - pi t^2/4 + pi^2 t/6; the real
    part integrates the Clausen kernel once more:
    Re Li_3 = zeta(3) + int_0^t (t - u) ln(2 sin(u/2)) du.
    """
    with mp.workdps(60):
        t = _reduce_phase(theta)
        im = t ** 3 / 12 - mp.pi * t * t / 4 + mp.pi ** 2 * t / 6
        if t == 0:
            return mp.mpc(mp.zeta(3), 0)
        f = lambda u: (t - u) * mp.log(2 * mp.sin(u / 2))
        re = mp.zeta(3) + mp.quad(f, [0, t / 2, t])
        return mp.mpc(re, im)


def bisect_root(f, lo, hi, iters=120):
    """Sign-change bisection at working precision; f maps mpf -> mpf."""
    with mp.workdps(40):
        a, b = mp.mpf(lo), mp.mpf(hi)
        fa = f(a)
        if fa == 0:
            return a
        for _ in range(iters):
            mid = (a + b) / 2
            fm = f(mid)
            if fm == 0:
                return mid
            if (fa < 0) == (fm < 0):
                a, fa = mid, fm
            else:
                b = mid
        return (a + b) / 2


# Abel damping e^{-eps u}, eps = _EPS0 / 2^j for j < _LEVELS, removes the
# damping error by Richardson extrapolation in eps; it needs every kappa to
# sit well clear of the band edges, where the exact profile is singular
_EPS0 = 0.02
_LEVELS = 4
_TAIL = 30.0  # integrate out to e^{-eps u} = e^{-_TAIL}
_EDGE_GAP = 0.1
_GL_NODES = 16


def _check_off_band_edges(kappas, Omega):
    for k in kappas:
        # distance to the nearest band edge kappa = +-1 + m Omega
        gap = min(abs((k - s) - Omega * round((k - s) / Omega)) for s in (1.0, -1.0))
        if gap < _EDGE_GAP:
            raise ValueError(
                f"kappa={k} lies within {_EDGE_GAP} of a band edge +-1 + m*{Omega}"
            )


def _helix_fourier(kappas, Omega, r, kernel, kappa_ref=None):
    """(2/pi) int_0^inf c(u) kernel(rho)/rho du per kappa, Abel-damped and extrapolated.

    c(u) = cos(kappa u), less cos(kappa_ref u) when a reference is given.
    u = k0 z runs along the axis and rho(u) = sqrt(u^2 + 4 r^2 sin^2(Omega u/2))
    is the k0-scaled chord from the emitter at u = 0.  Composite Gauss-Legendre
    panels, short enough for the fastest oscillation |kappa| + max rho',
    integrate the smooth integrand on [0, inf) with no endpoint correction.
    """
    kappas = [float(k) for k in kappas]
    edges = kappas if kappa_ref is None else kappas + [float(kappa_ref)]
    _check_off_band_edges(edges, Omega)
    x, w = np.polynomial.legendre.leggauss(_GL_NODES)
    fastest = max(abs(k) for k in edges) + float(np.hypot(1.0, r * Omega))
    panel = min(1.0, 8.0 / fastest)
    damped = []
    for j in range(_LEVELS):
        eps = _EPS0 / 2**j
        starts = np.arange(0.0, _TAIL / eps, panel)
        u = (starts[:, None] + 0.5 * panel * (x + 1.0)).ravel()
        rho = np.hypot(u, 2.0 * r * np.sin(0.5 * Omega * u))
        g = (2.0 / np.pi) * np.tile(0.5 * panel * w, len(starts)) * np.exp(-eps * u)
        g *= kernel(rho) / rho
        ref = 0.0 if kappa_ref is None else np.cos(kappa_ref * u)
        damped.append(np.array([np.dot(np.cos(k * u) - ref, g) for k in kappas]))
    # the damped integral is analytic in eps off the band edges: each pass
    # cancels the next power of eps
    for p in range(1, _LEVELS):
        damped = [(2**p * b - a) / (2**p - 1) for a, b in zip(damped, damped[1:])]
    return damped[0]


def oracle_helix_gamma(kappas, Omega, r):
    """Helix gamma_norm at each kappa, with no Bessel function.

    gamma_norm(kappa) = (1/pi) int cos(kappa u) sin(rho)/rho du over the whole
    axis: the real part of the kernel -i e^{i rho}/rho in Fourier space.
    """
    return _helix_fourier(kappas, Omega, r, np.sin)


def oracle_helix_lamb_diff(kappas, kappa_ref, Omega, r):
    """Helix lamb_norm(kappa) - lamb_norm(kappa_ref), with no Bessel function.

    The shift itself diverges (cos(rho)/rho ~ 1/u at u = 0), so only
    differences exist: -(1/pi) int (cos kappa u - cos kappa_ref u) cos(rho)/rho du,
    the sign set by the kernel -i e^{i rho}/rho.  This is the M -> inf limit
    of the truncated Bessel sum.
    """
    return -_helix_fourier(kappas, Omega, r, np.cos, kappa_ref)


def lattice_decay_sum(kappas, k0, radius, dz, dphi, terms=20000):
    """Tapered Bloch sum of the scalar decay kernel over a screw chain, per kappa.

    Emitter n sits at azimuth n dphi and height n dz on a helix of the given
    radius (radius 0: the chain of spacing dz).  Returns

        1 + 2 sum_{n=1}^{terms} w_n sinc(x_n) cos(kappa h n),

    with x_n = k0 sqrt((2 radius sin(n dphi / 2))^2 + (n dz)^2) the k0-scaled
    distance from emitter 0, h = k0 dz the axial step and the cos^2 taper
    w_n = cos^2(pi n / (2 (terms + 1))).  The taper turns the conditionally
    convergent sum into a smooth one.  By Poisson summation the sum equals
    (pi/h) sum_g gamma_norm(kappa + 2 pi g / h): the closed form counts
    emitters per unit axial length, n0 = 1/dz.  Plain numpy, no Bessel function.
    """
    n = np.arange(1, terms + 1)
    x = k0 * np.hypot(2.0 * radius * np.sin(0.5 * dphi * n), dz * n)
    w = np.cos(0.5 * np.pi * n / (terms + 1)) ** 2
    phase = np.outer(np.asarray(kappas, dtype=float), k0 * dz * n)
    return 1.0 + 2.0 * np.cos(phase) @ (w * np.sin(x) / x)
