"""Infinite discrete dipole line and the finite-N scalar-kernel oracle.

The discrete line gives closed forms for the collective Lamb shift (via
polylogarithms of e^{i k0 d (1 +- kappa)}) and decay rate (a finite sum over
reciprocal-lattice branches) of an infinite chain with spacing d, for dipoles
parallel or perpendicular to the chain axis.

The oracle side discretizes the integral eigenproblem directly: build the
dense non-Hermitian kernel matrix over an explicit emitter cloud and take
its full spectrum.  Eigenvalues follow the EV = Gamma/2 + i E convention, so
a lone emitter has EV = gamma and probability decay rate 2 gamma; collective
rates are classified against that 2 gamma baseline.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.spatial.distance import cdist

from .spectra import EmitterPhysics, snap_near_integer
from .specfun import polylog_unit_circle

_TWO_PI = 2.0 * math.pi

# dense all-eigenvalue solves stay comfortable on a desktop to about here;
# beyond it memory and O(N^3) time both turn painful
ORACLE_SIZE_LIMIT = 4000


def _check_oracle_size(n: int):
    if n > ORACLE_SIZE_LIMIT:
        raise ValueError(f"N = {n} exceeds the dense-solver limit {ORACLE_SIZE_LIMIT}")


class Orientation(enum.Enum):
    PARALLEL = "par"
    PERPENDICULAR = "perp"


@dataclass(frozen=True)
class DiscreteLineParams:
    k0d: float
    orientation: Orientation

    def __post_init__(self):
        if not (self.k0d > 0.0 and math.isfinite(self.k0d)):
            raise ValueError(f"k0d must be > 0, got {self.k0d}")


@dataclass(frozen=True)
class EmitterCloud:
    """Emitter positions in nm, one row per emitter."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be an (N, 3) array, got shape {pos.shape}")
        if pos.shape[0] < 1:
            raise ValueError("cloud must contain at least one emitter")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        object.__setattr__(self, "positions", pos)

    @property
    def count(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class OracleSpectrum:
    eigenvalues: np.ndarray  # complex, sorted by descending real part
    gamma_j: np.ndarray  # 2 Re EV
    lamb_j: np.ndarray  # Im EV


def discrete_line_lamb(params: DiscreteLineParams, kappa: float) -> float:
    """Collective Lamb shift of the infinite chain, in units of gamma.

    The perpendicular orientation carries a log term that diverges whenever
    k0 d (1 +- kappa) is a multiple of 2 pi (so at kappa = +-1 in particular);
    those points are returned as the -inf sentinel.  The parallel shift is
    finite everywhere.
    """
    d = params.k0d
    tp = d * (1.0 + kappa)
    tm = d * (1.0 - kappa)
    bracket = (
        polylog_unit_circle(3, tp).real
        + polylog_unit_circle(3, tm).real
        + d * (polylog_unit_circle(2, tp).imag + polylog_unit_circle(2, tm).imag)
    )
    if params.orientation is Orientation.PARALLEL:
        return -1.5 * bracket / d**3
    logs = 0.0
    for t in (tp, tm):
        mod = abs(2.0 * math.sin(0.5 * math.remainder(t, _TWO_PI)))  # |1 - e^{it}|
        if mod == 0.0:
            return float("-inf")
        logs += math.log(mod)
    return 0.75 * (bracket + d * d * logs) / d**3


def discrete_line_decay(params: DiscreteLineParams, kappa: float) -> float:
    """Collective decay rate of the infinite chain, in units of gamma.

    Sums (3 pi / 2 k0 d)(1 -+ q^2) over the reciprocal-lattice branches
    q = kappa + 2 pi g/(k0 d) that stay inside the light line |q| <= 1;
    zero when no branch qualifies (every such kappa is trapped).
    """
    d = params.k0d
    g_lo = math.ceil(snap_near_integer((-1.0 - kappa) * d / _TWO_PI))
    g_hi = math.floor(snap_near_integer((1.0 - kappa) * d / _TWO_PI))
    total = 0.0
    for g in range(g_lo, g_hi + 1):
        q = kappa + _TWO_PI * g / d
        q2 = min(q * q, 1.0)  # branch admitted by the bounds; clamp edge fuzz
        if params.orientation is Orientation.PARALLEL:
            total += 1.0 - q2
        else:
            total += 1.0 + q2
    return 1.5 * math.pi * total / d


def build_scalar_kernel(cloud: EmitterCloud, physics: EmitterPhysics) -> np.ndarray:
    """Dense N x N kernel matrix M_jk = -i gamma e^{i k0 r_jk} / (k0 r_jk).

    The diagonal keeps the finite imaginary part of the zero-separation
    kernel limit and drops the divergent real self-energy, giving
    M_jj = gamma.  Clouds beyond ORACLE_SIZE_LIMIT are refused before the
    N x N arrays are allocated.
    """
    n = cloud.count
    _check_oracle_size(n)
    pos = cloud.positions
    dist = cdist(pos, pos)
    off = ~np.eye(n, dtype=bool)
    if n > 1 and dist[off].min() <= 0.0:
        j, k = divmod(int(np.argmin(np.where(off, dist, np.inf))), n)
        raise ValueError(f"coincident emitters at rows {j} and {k}")
    kr = physics.k0 * dist
    with np.errstate(divide="ignore", invalid="ignore"):
        m = -1j * physics.gamma * np.exp(1j * kr) / kr
    np.fill_diagonal(m, physics.gamma)
    return m


def oracle_spectrum(matrix: np.ndarray) -> OracleSpectrum:
    """All eigenvalues of the dense non-Hermitian kernel, descending by Re.

    Uses the standard balanced QR iteration (LAPACK zgeev), whose backward
    error is a small multiple of machine epsilon times ||M||.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    _check_oracle_size(m.shape[0])
    try:
        w = scipy.linalg.eigvals(m)
    except scipy.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver did not converge: {exc}") from exc
    order = np.argsort(-w.real, kind="stable")
    w = w[order]
    return OracleSpectrum(eigenvalues=w, gamma_j=2.0 * w.real, lamb_j=w.imag)


def subradiant_fraction(spectrum: OracleSpectrum, physics: EmitterPhysics) -> float:
    """Fraction of modes decaying slower than one isolated emitter.

    The single-emitter probability decay rate in this kernel convention is
    2 gamma; the boundary case Gamma_j = 2 gamma (an isolated emitter) does
    not count as subradiant.
    """
    single = 2.0 * physics.gamma
    return float(np.count_nonzero(spectrum.gamma_j < single)) / len(spectrum.gamma_j)


def pair_cloud(separation: float) -> EmitterCloud:
    """Two emitters spaced along z."""
    if not (separation > 0.0):
        raise ValueError(f"separation must be > 0, got {separation}")
    return EmitterCloud(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, separation]]))


def line_cloud(count: int, spacing: float) -> EmitterCloud:
    """count emitters spaced uniformly along z."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if not (spacing > 0.0):
        raise ValueError(f"spacing must be > 0, got {spacing}")
    z = spacing * np.arange(count)
    pos = np.zeros((count, 3))
    pos[:, 2] = z
    return EmitterCloud(pos)


def ring_cloud(count: int, radius: float) -> EmitterCloud:
    """count emitters equally spaced on a circle of the given radius."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if not (radius > 0.0):
        raise ValueError(f"radius must be > 0, got {radius}")
    phi = _TWO_PI * np.arange(count) / count
    return EmitterCloud(np.column_stack([radius * np.cos(phi),
                                         radius * np.sin(phi),
                                         np.zeros(count)]))


def helix_cloud(count: int, radius: float, pitch: float, spacing: float = 1.0) -> EmitterCloud:
    """count emitters along a right-handed helix, uniform in arc length.

    radius and pitch are the usual R and b (nm); spacing is the arc length
    between consecutive emitters, so the line density is 1/spacing.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    for name, v in (("radius", radius), ("pitch", pitch), ("spacing", spacing)):
        if not (v > 0.0):
            raise ValueError(f"{name} must be > 0, got {v}")
    dphi = spacing / math.hypot(radius, pitch / _TWO_PI)
    phi = dphi * np.arange(count)
    return EmitterCloud(np.column_stack([radius * np.cos(phi),
                                         radius * np.sin(phi),
                                         (pitch / _TWO_PI) * phi]))
