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
import numbers
from dataclasses import dataclass

import numpy as np

from .specfun import EULER_GAMMA, _libm, _special, jh_products

# _bessel_arg zeroes a radicand this close to 0: a band edge up to rounding
RADICAND_TOL = 1e-14

# relative slack when snapping (kappa -+ 1)/Omega to an integer, keeping
# ceil/floor consistent with exact arithmetic on decimal inputs
_SNAP_TOL = 1e-9

# kappa_grid refuses grids longer than this before allocating them
MAX_GRID_POINTS = 1_000_000

# a window or Lamb pass of more terms than this is refused before it runs:
# about 15 s of decay terms, or one to two and a half minutes of Lamb terms
_MAX_TERMS = 100 * MAX_GRID_POINTS

# elements per (rows, orders) block of _window_sum and _jh_sum: 32 kB per temporary
_ORDER_BLOCK = 1 << 12

LINE_LAMB_NORMALIZATION = "k0*E/(gamma*n0)"
HELIX_LAMB_NORMALIZATION = "k0*E/(pi*gamma*n0)"


def snap_near_integer(v):
    """Round v elementwise to the nearest integer where it is within rounding fuzz of one."""
    rv = np.round(v)
    return np.where(np.abs(v - rv) <= _SNAP_TOL * np.maximum(1.0, np.abs(rv)), rv, v)


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
        return math.tau / self.lambda0


@dataclass(frozen=True)
class HelixSpec:
    """Dimensionless helix parameters Omega = 2 pi/(k0 b) and r = k0 R."""

    Omega: float
    r: float

    def __post_init__(self):
        if not (self.Omega > 0.0 and math.isfinite(self.Omega)):
            raise ValueError(f"HelixSpec.Omega must be > 0, got {self.Omega}")
        if not (self.r >= 0.0 and math.isfinite(self.r)):
            raise ValueError(f"HelixSpec.r must be >= 0, got {self.r}")


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


def _check_kappa(kappa) -> np.ndarray:
    """kappa as a float array, refused where (1 - kappa)(1 + kappa) is not finite."""
    kappa = np.asarray(kappa, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        bad = kappa[~np.isfinite((1.0 - kappa) * (1.0 + kappa))]
    if bad.size:  # nan, +-inf, and |kappa| > 1.3e154 where 1 - kappa^2 overflows
        where = ("with (1 - kappa)(1 + kappa) in double range" if math.isfinite(bad[0])
                 else "at every grid node")
        raise ValueError(f"kappa must be finite {where}, got {float(bad[0])}")
    return kappa


def line_decay_norm(kappa):
    """Normalized line decay rate: 1 on |kappa| <= 1 (boundary included), else 0."""
    return (np.abs(_check_kappa(kappa)) <= 1.0).astype(float)[()]


def line_lamb_norm(kappa):
    """Normalized line Lamb shift -2 gamma_E + ln|1 - kappa^2|, with libm's log.

    Its kappa-differences are the thin-helix, thin-cylinder and dense
    scalar-chain limits (pi times the helix and cylinder norms, 2h times the
    chain's); it falls toward the light line, where kappa = +-1 gives the
    formula's own limit, the -inf sentinel.
    """
    kappa = _check_kappa(kappa)
    v = np.abs((1.0 - kappa) * (1.0 + kappa))
    return (-2.0 * EULER_GAMMA + _libm(lambda a: math.log(a) if a else -math.inf, v))[()]


def _order_window(kappa, Omega: float) -> tuple:
    """(m_lo, m_hi) int arrays: orders with |kappa - m Omega| <= 1, empty where m_lo > m_hi."""
    if not (Omega > 0.0):
        raise ValueError(f"Omega must be > 0, got {Omega}")
    if not (2.0 / Omega < MAX_GRID_POINTS):  # before any window of 2/Omega orders is formed
        raise ValueError(f"Omega = {Omega} gives order windows of 2/Omega >= "
                         f"{MAX_GRID_POINTS} orders; it must exceed {2 / MAX_GRID_POINTS}")
    kappa = np.asarray(kappa, dtype=float)
    bad = kappa[~(np.abs(kappa) + 1.0 < 2.0**61 * Omega)]  # nan, +-inf, hi - lo past int64
    if bad.size:
        raise ValueError(f"kappa must be finite with |kappa| + 1 < 2^61 Omega, got {bad[0]}")
    lo = np.ceil(snap_near_integer((kappa - 1.0) / Omega))
    hi = np.floor(snap_near_integer((kappa + 1.0) / Omega))
    return lo.astype(np.int64), hi.astype(np.int64)


def m_bounds(kappa: float, Omega: float) -> MBounds:
    """Range of Bessel orders m with |kappa - m Omega| <= 1: the one-element order window."""
    lo, hi = _order_window([kappa], Omega)
    return MBounds(int(lo[0]), int(hi[0]))


def _window_orders(kappa, Omega: float) -> tuple:
    """(m_lo, n, terms): each kappa's lowest window order and window length, and the
    number of orders in all its non-empty windows."""
    m_lo, m_hi = _order_window(kappa, Omega)
    n = m_hi - m_lo + 1
    return m_lo, n, int(n[n > 0].sum())


def _window_sum(kappa, Omega: float, term):
    """Sum of term(kappa rows, orders) over each kappa's order window, 0 where it is empty.

    Summing C-contiguous rows of (rows, n) blocks gives np.sum's pairwise bits per window.
    The result has kappa's shape."""
    kappa = np.asarray(kappa, dtype=float)
    shape, kappa = kappa.shape, kappa.ravel()
    m_lo, n, terms = _window_orders(kappa, Omega)
    if terms > _MAX_TERMS:
        raise ValueError(f"the order windows of {kappa.size} kappa points hold {terms} orders in "
                         f"all, over the limit of {_MAX_TERMS} terms")
    out = np.zeros(kappa.shape)
    for length in np.unique(n[n > 0]).tolist():
        points = np.flatnonzero(n == length)
        step = max(1, _ORDER_BLOCK // length)
        for rows in np.split(points, range(step, len(points), step)):
            m = m_lo[rows, None] + np.arange(length)
            out[rows] = np.sum(term(kappa[rows, None], m), axis=1)
    return out.reshape(shape)[()]


def helix_decay_norm(kappa, spec: HelixSpec):
    """Normalized helix decay rate: sum of J_m^2 over the real-argument orders.

    Zero exactly when no order qualifies (the trapped condition).
    """
    return _window_sum(kappa, spec.Omega, lambda k, m: np.square(
        _special().jv(m, _bessel_arg(k, m, spec.Omega, spec.r, True)[0])))


def _bessel_arg(kappa, m, Omega: float, r: float, real) -> tuple:
    """(x, imaginary): order m's argument r sqrt|1 - (kappa - m Omega)^2| and its branch.

    The one place the radicand is formed and its branch chosen: 0 within
    RADICAND_TOL, clamped to >= 0 where `real` holds (m in kappa's order
    window, which may snap it onto a band edge), else imaginary if negative.
    An argument past double range is refused, naming the first kappa and m
    where it occurs.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 at r = 0
        u = kappa - m * Omega
        rad = (1.0 - u) * (1.0 + u)
        rad[np.abs(rad) <= RADICAND_TOL] = 0.0
        rad = np.where(real, np.maximum(rad, 0.0), rad)
        x = np.sqrt(np.abs(rad)) * r
    bad = ~np.isfinite(x)
    if bad.any():
        k, m, Omega, r = (np.broadcast_to(v, x.shape)[bad][0] for v in (kappa, m, Omega, r))
        raise ValueError(f"Omega = {Omega}, r = {r}: the Bessel argument "
                         f"r sqrt|1 - (kappa - m Omega)^2| exceeds double range at "
                         f"kappa = {k}, m = {m}")
    return x, rad < 0.0


def _jh_sum(kappa, sums) -> np.ndarray:
    """Im of the sum of J_m H_m^(1) per kappa: one row for each (spec, m_lo, m_hi) of sums.

    Each row sums its helix's orders m_lo..m_hi, m_lo <= m_hi; the orders
    inside kappa's order window are real.  Blocks of consecutive orders walk
    every row at once, so the terms that rows share (equal r, and
    kappa - m Omega on the same double) reach one jh_products call, which
    forms each distinct term once.  Each kappa's sum runs left to right from
    its first term, and a block adds the running sum into its first column,
    so each kappa gets the bits of a one-order-at-a-time loop.
    """
    kappa = np.asarray(kappa, dtype=float)
    spec, lo, hi = zip(*sums)
    lo, hi = np.array(lo), np.array(hi)
    omega = np.array([s.Omega for s in spec])[:, None, None]
    r = np.array([s.r for s in spec])[:, None, None]
    out = np.zeros((len(sums), kappa.size))
    step = max(1, _ORDER_BLOCK // len(sums))
    edges = np.unique(np.concatenate([lo, hi + 1])).tolist()
    for start in range(0, kappa.size, step):
        rows = slice(start, start + step)
        k = kappa[rows, None]
        window = np.array([_order_window(k[:, 0], s.Omega) for s in spec])[..., None]
        for a, b in zip(edges, edges[1:]):  # orders a..b-1 have one set of rows
            live = np.flatnonzero((lo <= a) & (a <= hi))
            if not live.size:
                continue
            width = max(1, _ORDER_BLOCK // (live.size * k.size))
            for m0 in range(a, b, width):
                m = np.arange(m0, min(m0 + width, b))
                real = (window[live, 0] <= m) & (m <= window[live, 1])
                im = jh_products(m, *_bessel_arg(k, m, omega[live], r[live], real))[1]
                begun = lo[live] < m0
                im[begun, :, 0] += out[live[begun], rows]
                out[live, rows] = np.cumsum(im, axis=2)[:, :, -1]
    return out


def _check_truncation(M):
    if not isinstance(M, numbers.Integral):  # range() would refuse it mid-pass
        raise ValueError(f"truncation half-width M must be an integer, got {M}")
    if M < 0:
        raise ValueError(f"truncation half-width M must be >= 0, got {M}")


def _lamb_sum(kappa, spec: HelixSpec, M: int) -> tuple:
    """spec's Lamb sum over orders [-M, M] at each kappa, as a row of _jh_sum.

    Every refusal comes before any term is formed.
    """
    _check_truncation(M)
    if 2 * M + 1 > MAX_GRID_POINTS:  # before a block of 2M + 1 orders is formed
        raise ValueError(f"truncation half-width M={M} sums 2M + 1 orders, over the limit "
                         f"of {MAX_GRID_POINTS}")
    m_lo, m_hi = _order_window(kappa, spec.Omega)
    cut = (m_lo <= m_hi) & ((m_lo < -M) | (m_hi > M))
    if cut.any():  # reported for the first failing point
        raise ValueError(f"M={M} excludes real-argument orders [{m_lo[cut][0]}, "
                         f"{m_hi[cut][0]}]; raise the truncation")
    if m_lo.size * (2 * M + 1) > _MAX_TERMS:
        raise ValueError(f"{m_lo.size} kappa points x {2 * M + 1} orders make "
                         f"{m_lo.size * (2 * M + 1)} terms, over the limit of {_MAX_TERMS}")
    return spec, -M, M


def helix_lamb_norm(kappa, spec: HelixSpec, M: int = 10):
    """Truncated helix Lamb shift: Im J_m H_m^(1) summed over m in [-M, M].

    The order window's (real-argument) orders contribute J_m Y_m, the rest
    -(2/pi) I_m K_m.  Requires the window to sit inside [-M, M]; returns the
    -inf sentinel when the m = 0 term hits its zero-argument divergence
    (kappa = +-1, up to the window's snap).
    """
    kappa = np.asarray(kappa, dtype=float)
    flat = kappa.ravel()
    return _jh_sum(flat, [_lamb_sum(flat, spec, M)])[0].reshape(kappa.shape)[()]


def helix_lamb_upper_bound(kappa: float, spec: HelixSpec) -> float:
    """Real-argument-orders-only Lamb sum; an upper bound for helix_lamb_norm.

    Every order dropped relative to the full sum contributes a strictly
    negative -(2/pi) I_m K_m, so any truncated sum sits below this value, or
    equals it at the -inf sentinel.  Empty bounds give 0 (the empty sum).
    """
    lo, hi = _order_window([kappa], spec.Omega)
    if lo[0] > hi[0]:
        return 0.0
    return float(_jh_sum([kappa], [(spec, int(lo[0]), int(hi[0]))])[0, 0])


def _check_radius(r: float):
    if not (r >= 0.0 and math.isfinite(r)):
        raise ValueError(f"cylinder radius must be finite and >= 0, got {r}")


def cylinder_norms(n: int, kappa, r: float) -> tuple:
    """Dimensionless cylinder structure factors (gamma_norm, lamb_norm).

    gamma_norm = J_n^2 of the radial argument for |kappa| <= 1 and exactly 0
    beyond the light line; lamb_norm = J_n Y_n there, continued as
    -(2/pi) I_n K_n outside.  These are the n-th order analogues of the
    single-order helix terms and share their normalization.
    """
    kappa = _check_kappa(kappa)
    _check_radius(r)
    g, e = jh_products(n, *_bessel_arg(kappa.ravel(), 0, 0.0, r, False))
    return g.reshape(kappa.shape)[()], e.reshape(kappa.shape)[()]


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
    kappa axis, independent of the clipping window.  Windows holding
    MAX_GRID_POINTS or more periods are refused before any is listed.
    """
    if not (Omega > 0.0 and math.isfinite(Omega)):
        raise ValueError(f"Omega must be finite and > 0, got {Omega}")
    if not (kappa_max > 0.0 and math.isfinite(kappa_max)):
        raise ValueError(f"kappa_max must be finite and > 0, got {kappa_max}")
    if Omega < 2.0:
        return TrappedIntervals((), 0.0)
    if kappa_max / Omega >= MAX_GRID_POINTS:
        raise ValueError(f"kappa_max/Omega = {kappa_max / Omega} exceeds the limit of "
                         f"{MAX_GRID_POINTS} trapped intervals")
    out = []
    j = 0
    while True:
        lo = j * Omega + 1.0
        if lo > kappa_max:
            break
        out.append((lo, min((j + 1) * Omega - 1.0, kappa_max)))
        j += 1
    return TrappedIntervals(tuple(out), (Omega - 2.0) / Omega)


def classify(kappa: float, spec: HelixSpec, physics: EmitterPhysics, M: int = 10) -> EigenPoint:
    """Full helix eigenpoint (rates, shift, 0/1-threshold class): the one-point sweep."""
    return sweep([kappa], spec, physics, M).points[0]


def _check_ascending(kappa_grid) -> np.ndarray:
    grid = _check_kappa(kappa_grid).ravel()
    if np.any(grid[1:] < grid[:-1]):
        raise ValueError("kappa grid must be sorted ascending")
    return grid


def _table(grid, gamma, lamb, physics, geometry, params,
           lamb_normalization=HELIX_LAMB_NORMALIZATION) -> SpectrumTable:
    points = []
    for kappa, g, e in zip(grid.tolist(), gamma.tolist(), lamb.tolist()):
        # gamma/gamma_single against the strict 0/1 thresholds
        gog = physics.n0 * physics.lambda0 * g
        if gog == 0.0:
            cls = Classification.TRAPPED
        elif gog > 1.0:
            cls = Classification.SUPERRADIANT
        else:
            cls = Classification.SUBRADIANT
        points.append(EigenPoint(kappa, g, e, gog, cls))
    return SpectrumTable(tuple(points), geometry, lamb_normalization, params)


def sweep(kappa_grid, spec: HelixSpec, physics: EmitterPhysics, M: int = 10) -> SpectrumTable:
    """Helix eigenpoints over an ascending kappa grid."""
    grid = _check_ascending(kappa_grid)
    return _table(grid, helix_decay_norm(grid, spec), helix_lamb_norm(grid, spec, M),
                  physics, "helix", {"Omega": spec.Omega, "r": spec.r, "M": M})


def line_table(kappa_grid, physics: EmitterPhysics) -> SpectrumTable:
    """Line eigenpoints over an ascending kappa grid."""
    grid = _check_ascending(kappa_grid)
    return _table(grid, line_decay_norm(grid), line_lamb_norm(grid), physics, "line", {},
                  LINE_LAMB_NORMALIZATION)


def cylinder_table(kappa_grid, n: int, r: float, physics: EmitterPhysics) -> SpectrumTable:
    """Cylinder order-n eigenpoints over an ascending kappa grid."""
    grid = _check_ascending(kappa_grid)
    return _table(grid, *cylinder_norms(n, grid, r), physics, "cylinder", {"n": n, "r": r})


def kappa_grid(lo: float, hi: float, step: float):
    """Uniform grid lo, lo+step, ... covering [lo, hi] inclusive of the endpoint.

    The count is computed once from the span so accumulated rounding cannot
    drop or duplicate the endpoint; each node is lo + i*step.  Non-finite
    bounds, and grids of more than MAX_GRID_POINTS nodes, are refused before
    anything is allocated.
    """
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"grid bounds must be finite, got {lo}:{hi}:{step}")
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
