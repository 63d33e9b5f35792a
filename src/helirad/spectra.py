"""Analytical collective-emission spectra for infinite 1D emitter structures.

Geometries: continuous line, continuous helix, and cylinder (fixed angular
order n).  Each single-photon eigenstate is labeled by the dimensionless
axial wavenumber kappa = k_z/k0, and its complex eigenvalue splits as
EV = Gamma/2 + i E with Gamma the collective decay rate and E the collective
Lamb shift.

Normalization conventions used throughout:

* gamma_norm = k0 Gamma / (2 pi gamma n0); Gamma/gamma = n0 lambda0 * gamma_norm.
* lamb_norm  = k0 E / (pi gamma n0) for helix and cylinder tables,
  k0 E / (gamma n0) for the line (each table records which one it carries).
* Divergent Lamb shifts are float('-inf') sentinels, serialized as "-inf".

The helix Lamb sum runs over Bessel orders m in [-M, M]; the tail grows the
(negative) shift roughly logarithmically in M, so M is a mandatory, reported
truncation (default 10), not a convergence parameter.  Decay rates need no
truncation: only the finitely many orders with |kappa - m Omega| <= 1
contribute.
"""

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import special as _sp

from .specfun import EULER_GAMMA, jh_products

_TWO_PI = 2.0 * math.pi

# radicand 1-(kappa-m Omega)^2 is clamped to 0 this close to the boundary so
# it cannot go negative by rounding where m_bounds says the order is real
RADICAND_TOL = 1e-14

# relative slack when snapping (kappa -+ 1)/Omega to an integer, keeping
# ceil/floor consistent with exact arithmetic on decimal inputs
_SNAP_TOL = 1e-9

# kappa_grid refuses grids longer than this before allocating them
MAX_GRID_POINTS = 1_000_000

LINE_LAMB_NORMALIZATION = "k0*E/(gamma*n0)"
HELIX_LAMB_NORMALIZATION = "k0*E/(pi*gamma*n0)"


def snap_near_integer(v: float) -> float:
    """Round v to the nearest integer when it is within rounding fuzz of one."""
    rv = round(v)
    if abs(v - rv) <= _SNAP_TOL * max(1.0, abs(rv)):
        return float(rv)
    return v


@dataclass(frozen=True)
class EmitterPhysics:
    """Single-emitter constants: decay rate, transition wavelength, line density."""

    gamma: float  # 1/ns
    lambda0: float  # nm
    n0: float  # 1/nm

    def __post_init__(self):
        for name in ("gamma", "lambda0", "n0"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"EmitterPhysics.{name} must be positive and finite, got {v}")

    @property
    def k0(self) -> float:
        return _TWO_PI / self.lambda0


@dataclass(frozen=True)
class HelixSpec:
    """Dimensionless helix parameters Omega = 2 pi/(k0 b) and r = k0 R.

    The physical pitch b and radius R (nm) may be attached as provenance;
    when present they must be consistent with the dimensionless values.
    """

    Omega: float
    r: float
    b: Optional[float] = None
    R: Optional[float] = None
    k0: Optional[float] = None

    def __post_init__(self):
        if not (self.Omega > 0.0 and math.isfinite(self.Omega)):
            raise ValueError(f"HelixSpec.Omega must be > 0, got {self.Omega}")
        if not (self.r >= 0.0 and math.isfinite(self.r)):
            raise ValueError(f"HelixSpec.r must be >= 0, got {self.r}")
        if self.b is not None or self.R is not None:
            if self.k0 is None:
                raise ValueError("provenance b/R requires k0")
            if self.b is not None and abs(self.Omega * self.k0 * self.b - _TWO_PI) > 1e-12 * _TWO_PI:
                raise ValueError("inconsistent provenance: Omega*k0*b != 2*pi")
            if self.R is not None and abs(self.r - self.k0 * self.R) > 1e-12 * max(self.r, 1e-300):
                raise ValueError("inconsistent provenance: r != k0*R")

    @classmethod
    def from_geometry(cls, R: float, b: float, k0: float) -> "HelixSpec":
        return cls(Omega=_TWO_PI / (k0 * b), r=k0 * R, b=b, R=R, k0=k0)


class Classification(enum.Enum):
    TRAPPED = "trapped"
    SUBRADIANT = "subradiant"
    SUPERRADIANT = "superradiant"


@dataclass(frozen=True)
class EigenPoint:
    kappa: float
    gamma_norm: float
    lamb_norm: float  # may be -inf
    gamma_over_gamma: float
    classification: Classification


@dataclass(frozen=True)
class MBounds:
    m_min: int
    m_max: int

    @property
    def empty(self) -> bool:
        return self.m_min > self.m_max


@dataclass(frozen=True)
class TrappedIntervals:
    intervals: tuple  # of (lo, hi) pairs, hi clipped to kappa_max
    fraction: float


@dataclass(frozen=True)
class SpectrumTable:
    points: tuple  # of EigenPoint, ascending kappa
    geometry: str
    lamb_normalization: str
    params: dict


def line_decay_norm(kappa: float) -> float:
    """Normalized line decay rate: 1 on |kappa| <= 1 (boundary included), else 0."""
    return 1.0 if abs(kappa) <= 1.0 else 0.0


def line_lamb_norm(kappa: float) -> float:
    """Normalized line Lamb shift -2 gamma_E - ln|1 - kappa^2|.

    The kappa = +-1 divergence is reported as the -inf sentinel, matching the
    sign convention of the helix/cylinder asymptotes.
    """
    v = (1.0 - kappa) * (1.0 + kappa)
    if v == 0.0:
        return float("-inf")
    return -2.0 * EULER_GAMMA - math.log(abs(v))


def m_bounds(kappa: float, Omega: float) -> MBounds:
    """Range of Bessel orders m with |kappa - m Omega| <= 1 (real arguments)."""
    if not (Omega > 0.0):
        raise ValueError(f"Omega must be > 0, got {Omega}")
    lo = math.ceil(snap_near_integer((kappa - 1.0) / Omega))
    hi = math.floor(snap_near_integer((kappa + 1.0) / Omega))
    return MBounds(int(lo), int(hi))


def helix_decay_norm(kappa: float, spec: HelixSpec) -> float:
    """Normalized helix decay rate: sum of J_m^2 over the real-argument orders.

    Zero exactly when no order qualifies (the trapped condition).
    """
    b = m_bounds(kappa, spec.Omega)
    if b.empty:
        return 0.0
    m = np.arange(b.m_min, b.m_max + 1)
    u = kappa - m * spec.Omega
    rad = (1.0 - u) * (1.0 + u)
    rad[np.abs(rad) <= RADICAND_TOL] = 0.0
    rad = np.maximum(rad, 0.0)  # paired with m_bounds: anything here is real
    vals = _sp.jv(m, np.sqrt(rad) * spec.r)
    return float(np.sum(vals * vals))


def _jh_sum(kappa, Omega: float, r: float, m_lo: int, m_hi: int,
            real_only: bool = False) -> tuple:
    """(Re, Im) arrays of the sum of J_m H_m^(1) over m = m_lo..m_hi per kappa.

    Order m takes the argument r sqrt|1 - (kappa - m Omega)^2|, imaginary
    where the radicand is negative; real_only clamps a negative radicand to
    0 instead.  The cylinder is the single order n at Omega = 0.  Orders run
    outermost and left to right, so each kappa sees the additions of a
    one-point loop in the same order and gets the same bits.
    """
    kappa = np.asarray(kappa, dtype=float)
    re = np.zeros(kappa.shape)
    im = np.zeros(kappa.shape)
    for m in range(m_lo, m_hi + 1):
        u = kappa - m * Omega
        rad = (1.0 - u) * (1.0 + u)
        rad[np.abs(rad) <= RADICAND_TOL] = 0.0
        if real_only:
            rad = np.maximum(rad, 0.0)
        p_re, p_im = jh_products(m, np.sqrt(np.abs(rad)) * r, rad < 0.0)
        re += p_re
        im += p_im
    return re, im


def _helix_lamb(kappa_grid, spec: HelixSpec, M: int):
    if M < 0:
        raise ValueError(f"truncation half-width M must be >= 0, got {M}")
    for kappa in kappa_grid:
        b = m_bounds(kappa, spec.Omega)
        if not b.empty and (b.m_min < -M or b.m_max > M):
            raise ValueError(
                f"M={M} excludes real-argument orders [{b.m_min}, {b.m_max}]; "
                f"raise the truncation"
            )
    return _jh_sum(kappa_grid, spec.Omega, spec.r, -M, M)[1]


def helix_lamb_norm(kappa: float, spec: HelixSpec, M: int = 10) -> float:
    """Truncated helix Lamb shift: Im J_m H_m^(1) summed over m in [-M, M].

    Real-argument orders contribute J_m Y_m, imaginary ones -(2/pi) I_m K_m.
    Requires every real-argument order to sit inside [-M, M]; returns the
    -inf sentinel when the m = 0 term hits its zero-argument divergence
    (kappa = +-1).
    """
    return float(_helix_lamb([kappa], spec, M)[0])


def helix_lamb_upper_bound(kappa: float, spec: HelixSpec) -> float:
    """Real-argument-orders-only Lamb sum; an upper bound for helix_lamb_norm.

    Every order dropped relative to the full sum contributes a strictly
    negative -(2/pi) I_m K_m, so any truncated sum sits below this value.
    Empty bounds give 0 (the empty sum).
    """
    b = m_bounds(kappa, spec.Omega)
    im = _jh_sum([kappa], spec.Omega, spec.r, b.m_min, b.m_max, real_only=True)[1]
    return float(im[0])


def _cylinder_sum(n: int, kappa, r: float) -> tuple:
    if r < 0.0:
        raise ValueError(f"cylinder radius must be >= 0, got {r}")
    return _jh_sum(kappa, 0.0, r, int(n), int(n))


def cylinder_norms(n: int, kappa: float, r: float) -> tuple:
    """Dimensionless cylinder structure factors (gamma_norm, lamb_norm).

    gamma_norm = J_n^2 of the radial argument for |kappa| <= 1 and exactly 0
    beyond the light line; lamb_norm = J_n Y_n there, continued as
    -(2/pi) I_n K_n outside.  These are the n-th order analogues of the
    single-order helix terms and share their normalization.
    """
    g, e = _cylinder_sum(n, [kappa], r)
    return float(g[0]), float(e[0])


def cylinder_eigen(n: int, kappa: float, r: float, physics: EmitterPhysics) -> tuple:
    """Dimensionful cylinder eigenvalue parts (Gamma, E) at angular order n.

    Gamma = (pi gamma n0 / 2 k0) J_n^2 inside the light line, 0 outside;
    E = (pi gamma n0 / k0) times the J_n Y_n / -(2/pi) I_n K_n factor, with
    the -inf sentinel at kappa = +-1 for n = 0.
    """
    g, e = cylinder_norms(n, kappa, r)
    pref = math.pi * physics.gamma * physics.n0 / physics.k0
    return 0.5 * pref * g, pref * e


def trapped_intervals(Omega: float, kappa_max: float) -> TrappedIntervals:
    """Measure-one trapped ranges [j Omega + 1, (j+1) Omega - 1] within [0, kappa_max].

    Empty for Omega < 2; for Omega = 2 the ranges degenerate to the odd
    integers.  The fraction (Omega-2)/Omega is the trapped share of the whole
    kappa axis, independent of the clipping window.
    """
    if not (Omega > 0.0):
        raise ValueError(f"Omega must be > 0, got {Omega}")
    if not (kappa_max > 0.0):
        raise ValueError(f"kappa_max must be > 0, got {kappa_max}")
    if Omega < 2.0:
        return TrappedIntervals((), 0.0)
    out = []
    j = 0
    while True:
        lo = j * Omega + 1.0
        if lo > kappa_max:
            break
        out.append((lo, min((j + 1) * Omega - 1.0, kappa_max)))
        j += 1
    return TrappedIntervals(tuple(out), (Omega - 2.0) / Omega)


def _eigen_point(kappa, gamma_norm, lamb_norm, physics) -> EigenPoint:
    # gamma/gamma_single against the strict 0/1 thresholds
    gog = physics.n0 * physics.lambda0 * gamma_norm
    if gog == 0.0:
        cls = Classification.TRAPPED
    elif gog > 1.0:
        cls = Classification.SUPERRADIANT
    else:
        cls = Classification.SUBRADIANT
    return EigenPoint(kappa, gamma_norm, lamb_norm, gog, cls)


def classify(kappa: float, spec: HelixSpec, physics: EmitterPhysics, M: int = 10) -> EigenPoint:
    """Full helix eigenpoint at one kappa: rates, shift, and the 0/1-threshold class."""
    return _eigen_point(kappa, helix_decay_norm(kappa, spec),
                        helix_lamb_norm(kappa, spec, M), physics)


def _check_ascending(kappa_grid):
    grid = [float(k) for k in kappa_grid]
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("kappa grid must be sorted ascending")
    return grid


def sweep(kappa_grid, spec: HelixSpec, physics: EmitterPhysics, M: int = 10) -> SpectrumTable:
    """Helix eigenpoints over an ascending kappa grid."""
    grid = _check_ascending(kappa_grid)
    lamb = _helix_lamb(grid, spec, M).tolist()
    return SpectrumTable(
        points=tuple(_eigen_point(k, helix_decay_norm(k, spec), e, physics)
                     for k, e in zip(grid, lamb)),
        geometry="helix",
        lamb_normalization=HELIX_LAMB_NORMALIZATION,
        params={"Omega": spec.Omega, "r": spec.r, "M": M},
    )


def line_table(kappa_grid, physics: EmitterPhysics) -> SpectrumTable:
    """Line eigenpoints over an ascending kappa grid."""
    grid = _check_ascending(kappa_grid)
    return SpectrumTable(
        points=tuple(_eigen_point(k, line_decay_norm(k), line_lamb_norm(k), physics)
                     for k in grid),
        geometry="line",
        lamb_normalization=LINE_LAMB_NORMALIZATION,
        params={},
    )


def cylinder_table(kappa_grid, n: int, r: float, physics: EmitterPhysics) -> SpectrumTable:
    """Cylinder order-n eigenpoints over an ascending kappa grid."""
    grid = _check_ascending(kappa_grid)
    g, e = _cylinder_sum(n, grid, r)
    return SpectrumTable(
        points=tuple(_eigen_point(k, gk, ek, physics)
                     for k, gk, ek in zip(grid, g.tolist(), e.tolist())),
        geometry="cylinder",
        lamb_normalization=HELIX_LAMB_NORMALIZATION,
        params={"n": n, "r": r},
    )


def kappa_grid(lo: float, hi: float, step: float):
    """Uniform grid lo, lo+step, ... covering [lo, hi] inclusive of the endpoint.

    The count is computed once from the span so accumulated rounding cannot
    drop or duplicate the endpoint; each node is lo + i*step.  Grids of more
    than MAX_GRID_POINTS nodes, or without a finite count, are refused
    before anything is allocated.
    """
    if not (step > 0.0):
        raise ValueError(f"step must be > 0, got {step}")
    if hi < lo:
        raise ValueError(f"empty grid: hi={hi} < lo={lo}")
    span = (hi - lo) / step + 1e-9
    if not span < MAX_GRID_POINTS:
        raise ValueError(
            f"grid {lo}:{hi}:{step} exceeds the limit of {MAX_GRID_POINTS} points"
        )
    count = int(math.floor(span)) + 1
    return [lo + i * step for i in range(count)]
