"""Fit a single best helix to an emitter cloud and derive its estimates.

Pipeline: principal directions of the centered cloud give axis candidates,
an algebraic circle fit of the axis-normal projection gives the radius and
center, and a linear regression of unwrapped azimuth against the axial
coordinate gives the pitch, phase, and handedness.  A Levenberg-Marquardt
pass over all seven parameters (_refine, numpy only) refines the candidates
in order of their start cost, the cost _refine starts from, lowest first; a
later candidate is refined only while its start cost is below the best
refined cost so far, and the lowest-cost solution wins.

The azimuth unwrapping assumes consecutive points (in axial order) advance
by less than pi; clouds sampled more coarsely than half a turn per step get
a FitWarning because the recovered pitch may alias.

Line density is emitters per unit arc length, with arc length per unit
axial rise sqrt(1 + (2 pi R / b)^2).
"""

import dataclasses
import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .discrete import EmitterCloud
from .spectra import _MAX_TERMS, EmitterPhysics, HelixSpec, _window_orders, helix_decay_norm

_DEGENERACY_RTOL = 1e-10
# cap on one axis' residual evaluations in _refine (Jacobian evaluations,
# one per accepted step, are not counted); a winner that reaches it gets a
# FitWarning
_MAX_NFEV = 2000
# bisection from a pitch/16 bracket to 1e-12 relative takes about 40 steps
_CURVE_SEARCH_ITERATIONS = 100
# nodes of the kappa grid that estimate scans for the decay's peak
_PEAK_GRID = 257


class CloudFormatError(ValueError):
    pass


class FitDegeneracyError(ValueError):
    pass


class FitWarning(UserWarning):
    """Raised as a warning when the fit is formally fine but suspect."""


class Handedness(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class HelixFit:
    axis_direction: np.ndarray  # unit 3-vector
    axis_point: np.ndarray  # a point on the axis, nm
    R: float  # radius, nm
    b: float  # pitch, nm
    phase: float  # azimuth at the axis_point plane, radians
    handedness: Handedness
    rms_residual: float  # root-mean-square point-to-curve distance, nm
    n0: float  # line density along the fitted curve, nm^-1

    def __post_init__(self):
        axis = np.asarray(self.axis_direction, dtype=float)
        point = np.asarray(self.axis_point, dtype=float)
        if axis.shape != (3,) or point.shape != (3,):
            raise ValueError("axis_direction and axis_point must be 3-vectors")
        if abs(np.linalg.norm(axis) - 1.0) > 1e-12:
            raise ValueError("axis_direction must be a unit vector")
        if not (self.R > 0.0 and math.isfinite(self.R)):
            raise ValueError(f"R must be > 0, got {self.R}")
        if self.b == 0.0 or not math.isfinite(self.b):
            raise ValueError(f"b must be nonzero and finite, got {self.b}")
        if not (self.rms_residual >= 0.0):
            raise ValueError(f"rms_residual must be >= 0, got {self.rms_residual}")
        object.__setattr__(self, "axis_direction", axis)
        object.__setattr__(self, "axis_point", point)


@dataclass(frozen=True)
class EstimateReport:
    Omega: float  # lambda0 / b
    r: float  # k0 R
    gamma_max_over_gamma: float  # n0 lambda0 times the peak unit-normalised decay
    trapped_percent: float  # in [0, 100)


def load_emitters(path) -> EmitterCloud:
    """Read a cloud file: one `x y z` triple (nm) per line, `#` comments."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            if len(parts) != 3:
                raise CloudFormatError(
                    f"{path}:{lineno}: expected 3 coordinates, got {len(parts)}"
                )
            try:
                triple = [float(p) for p in parts]
            except ValueError:
                raise CloudFormatError(
                    f"{path}:{lineno}: non-numeric coordinate in {text!r}"
                ) from None
            if not all(math.isfinite(v) for v in triple):
                raise CloudFormatError(f"{path}:{lineno}: non-finite coordinate")
            rows.append(triple)
    if not rows:
        raise CloudFormatError(f"{path}: no emitters found")
    return EmitterCloud(np.array(rows, dtype=float))


def _complete(axis, v):
    """Right-handed orthonormal (e1, e2) completing the unit axis, e1 x e2 =
    axis, with e1 along the part of v normal to it."""
    e1 = v - np.dot(v, axis) * axis
    e1 /= np.linalg.norm(e1)
    return e1, _cross(axis, e1)


def _coords(centered, axis, e1, e2, c1, c2):
    """rel = centered - c1 e1 - c2 e2 and its frame coordinates u, w, z."""
    rel = centered - c1 * e1 - c2 * e2
    return rel, rel @ e1, rel @ e2, rel @ axis


def _cross(a, b):
    """a x b over the leading axis of 3-vectors or (3, k) column stacks.

    The products and differences np.cross forms, in its order, so the bits
    match; np.cross spends most of its time in moveaxis on short inputs.
    """
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def _phase(slope, t, phi0):
    """(th, delta): th = fl(slope t + phi0) and th + delta = slope t + phi0
    up to a rounding of delta.

    Dekker's split by 2^27 + 1 makes slope t an exact sum p + e, and Knuth's
    TwoSum makes p + phi0 an exact sum th + f; delta = e + f.  The split
    overflows only past 1e300, far beyond where d2 = (z - t)^2 does.
    """
    def split(a):
        c = 134217729.0 * a
        high = c - (c - a)
        return high, a - high

    p = slope * t
    s_hi, s_lo = split(slope)
    t_hi, t_lo = split(t)
    e = ((s_hi * t_hi - p) + s_hi * t_lo + s_lo * t_hi) + s_lo * t_lo
    th = p + phi0
    p_virtual = th - phi0
    f = (p - p_virtual) + (phi0 - (th - p_virtual))
    return th, e + f


def _circle_fit(u, w):
    """Algebraic least-squares circle through (u, w): center and radius."""
    a = np.column_stack([2.0 * u, 2.0 * w, np.ones_like(u)])
    rhs = u * u + w * w
    (c1, c2, t), *_ = np.linalg.lstsq(a, rhs, rcond=None)
    return c1, c2, math.sqrt(t + c1 * c1 + c2 * c2)


def _phase_regression(z, phi):
    """Slope and intercept of unwrapped azimuth against axial coordinate."""
    order = np.argsort(z, kind="stable")
    slope, intercept = np.polyfit(z[order], np.unwrap(phi[order]), 1)
    return slope, intercept


def _wrap(delta):
    return np.angle(np.exp(1j * delta))


def _candidate_fit(centered, v0):
    """(cost, x0, args): the start _refine takes for the axis v0, or None.

    x0 is the untilted start (0, 0, c1, c2, R, slope, phi0) in the frame
    args = (centered, v0, e1_0, e2_0), and cost = 0.5 |r|^2 with
    r = _residuals(x0, *args), the cost _refine starts from.  None for a zero
    slope; the SVD refusals in fit_helix already rule out a zero axial span
    and a non-positive circle radius.
    """
    e1, e2 = _complete(v0, np.eye(3)[np.argmin(np.abs(v0))])
    u = centered @ e1
    w = centered @ e2
    z = centered @ v0
    c1, c2, radius = _circle_fit(u, w)
    slope, phi0 = _phase_regression(z, np.arctan2(w - c2, u - c1))
    if slope == 0.0:
        return None
    x0 = np.array([0.0, 0.0, c1, c2, radius, slope, phi0])
    args = (centered, v0, e1, e2)
    r = _residuals(x0, *args)
    return 0.5 * (r @ r), x0, args


def _frame_of(params, v0, e1_0, e2_0):
    """Helix frame for refinement parameters (t1, t2 tilt v0 within its frame)."""
    t1, t2 = params[0], params[1]
    axis = v0 + t1 * e1_0 + t2 * e2_0
    axis = axis / np.linalg.norm(axis)
    return axis, *_complete(axis, e1_0)


def _residuals(params, centered, v0, e1_0, e2_0):
    axis, e1, e2 = _frame_of(params, v0, e1_0, e2_0)
    c1, c2, radius, slope, phi0 = params[2:]
    _, u, w, z = _coords(centered, axis, e1, e2, c1, c2)
    rho = np.hypot(u, w)
    phi = np.arctan2(w, u)
    return np.concatenate([rho - radius, radius * _wrap(phi - slope * z - phi0)])


def _jacobian(params, centered, v0, e1_0, e2_0):
    """Exact (2N, 7) derivative of _residuals with respect to params.

    Tilting by t_k moves the axis a = v/|v| (v = v0 + t1 e1_0 + t2 e2_0) by
    da = (f_k - (a.f_k) a)/|v| with f_k = e1_0, e2_0; e1 = p/|p| with
    p = e1_0 - (e1_0.a) a and e2 = a x e1 follow, and with them the frame
    coordinates z, u, w of rel = X - c1 e1 - c2 e2.  The centre moves u by
    -1 (c1) or w by -1 (c2).  The wrap has slope 1 away from its cut; a
    point on the axis (rho = 0) gets zero rho and phi derivatives.
    """
    t1, t2, c1, c2, radius, slope, phi0 = params
    axis, e1, e2 = _frame_of(params, v0, e1_0, e2_0)
    # frame derivatives along t1 and t2, one column each
    f = np.column_stack([e1_0, e2_0])
    da = (f - np.outer(axis, axis @ f)) / np.linalg.norm(v0 + t1 * e1_0 + t2 * e2_0)
    e1_dot_a = np.dot(e1_0, axis)
    dp = -np.outer(axis, e1_0 @ da) - e1_dot_a * da
    de1 = (dp - np.outer(e1, e1 @ dp)) / np.linalg.norm(e1_0 - e1_dot_a * axis)
    de2 = _cross(da, e1) + _cross(axis, de1)
    drel = -c1 * de1 - c2 * de2
    rel, u, w, z = _coords(centered, axis, e1, e2, c1, c2)
    n = len(z)
    # d(z, u, w) over the columns t1, t2, c1, c2
    dz = np.zeros((n, 4))
    du = np.zeros((n, 4))
    dw = np.zeros((n, 4))
    dz[:, :2] = rel @ da + axis @ drel
    du[:, :2] = rel @ de1 + e1 @ drel
    dw[:, :2] = rel @ de2 + e2 @ drel
    du[:, 2] = -1.0
    dw[:, 3] = -1.0
    rho = np.hypot(u, w)
    wrapped = _wrap(np.arctan2(w, u) - slope * z - phi0)
    inv = np.divide(1.0, rho, out=np.zeros(n), where=rho > 0.0)[:, None]
    u, w = u[:, None], w[:, None]
    jac = np.zeros((2 * n, 7))
    jac[:n, :4] = (u * du + w * dw) * inv
    jac[:n, 4] = -1.0
    jac[n:, :4] = radius * ((u * dw - w * du) * inv * inv - slope * dz)
    jac[n:, 4] = wrapped
    jac[n:, 5] = -radius * z
    jac[n:, 6] = -radius
    return jac


def _refine(fun, jac, x0, args):
    """Levenberg-Marquardt minimum of 0.5 |r|^2, r = fun(x, *args), from x0.

    More's scheme as MINPACK's lmder runs it.  Parameter j is scaled by D_j,
    the running maximum of the norm of Jacobian column j (1 where the first
    column is zero), and the damped step solves [J; sqrt(lam) D] step =
    [-r; 0] by least squares: J^T J is never formed, because the tilt
    columns are orders of magnitude stiffer than the rest.  lam starts at
    1e-12 max(D^2).  A step whose actual cost reduction is rho > 1e-4 times
    the predicted one is taken and scales lam by max(1/3, 1 - (2 rho - 1)^3);
    any other step scales lam by 4.  The stops are MINPACK's, at 2 eps:
    1 (gtol), every |J_j . r| / (D_j |r|); 2 (ftol), the predicted relative
    reduction and the actual one, a rise from rounding included; 3 (xtol),
    |D step| against |D x|.  0: _MAX_NFEV residual evaluations are spent.
    Returns (x, cost, status).
    """
    # near-eps stops: a leftover 1e-10 rad tilt already costs span * tilt in
    # residual.  2 eps is the floor MINPACK allows, which refuses below eps
    tol = 2.0 * np.finfo(float).eps
    x = np.array(x0, dtype=float)
    r = fun(x, *args)
    cost = 0.5 * (r @ r)
    nfev = 1
    scale = None
    while True:
        j = jac(x, *args)
        norms = np.linalg.norm(j, axis=0)
        if scale is None:
            scale = np.where(norms > 0.0, norms, 1.0)
            lam = 1e-12 * np.max(scale * scale)
        else:
            scale = np.maximum(scale, norms)
        if np.max(np.abs(j.T @ r) / scale) <= tol * math.sqrt(2.0 * cost):
            return x, cost, 1
        rhs = np.concatenate([-r, np.zeros(x.size)])
        while True:
            if nfev >= _MAX_NFEV:
                return x, cost, 0
            step = np.linalg.lstsq(np.vstack([j, math.sqrt(lam) * np.diag(scale)]), rhs,
                                   rcond=None)[0]
            trial = x + step
            r_trial = fun(trial, *args)
            nfev += 1
            jp, dstep = j @ step, scale * step
            predicted = 0.5 * (jp @ jp) + lam * (dstep @ dstep)
            cost_trial = 0.5 * (r_trial @ r_trial)
            actual = cost - cost_trial
            rho = actual / predicted if predicted > 0.0 else 0.0
            flat = actual <= tol * cost and predicted <= tol * cost and rho <= 2.0
            taken = rho > 1e-4
            if taken:
                x, r, cost = trial, r_trial, cost_trial
                lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            else:
                lam *= 4.0
            if flat:
                return x, cost, 2
            if math.sqrt(dstep @ dstep) <= tol * np.linalg.norm(scale * x):
                return x, cost, 3
            if taken:
                break


def _point_curve_rms(centered, axis, e1, e2, c1, c2, radius, slope, phi0):
    """RMS of true point-to-curve distances, searched for all points at once.

    In frame coordinates (u, w, z) the squared distance to the curve point
    at height t is d2(t) = (u - R cos th)^2 + (w - R sin th)^2 + (z - t)^2
    with th = slope t + phi0.  A 17-node scan over one period around each
    point picks the nearest node; a safeguarded Newton iteration on d2'
    then polishes t inside the bracket of the two neighbouring nodes, to
    1e-12 relative in t.  A Newton step that lands on the closed bracket is
    taken: where the root sits within an ulp of an end, the step lands on
    that end, and bisecting toward it instead would cost about 30 halvings.
    The final d2 takes th as an unevaluated sum th + delta of the exact
    slope t + phi0, so a phase of tens of radians far along the axis does
    not lift the evaluated point off the curve.
    """
    _, u, w, z = _coords(centered, axis, e1, e2, c1, c2)
    u, w, z = u[:, None], w[:, None], z[:, None]
    period = math.tau / abs(slope)

    def dist2(t):
        th = slope * t + phi0
        return (u - radius * np.cos(th)) ** 2 + (w - radius * np.sin(th)) ** 2 \
            + (z - t) ** 2

    def dist2_compensated(t):
        # cos and sin of th + delta to first order in delta
        th, delta = _phase(slope, t, phi0)
        cos, sin = np.cos(th), np.sin(th)
        cos, sin = cos - delta * sin, sin + delta * cos
        return (u - radius * cos) ** 2 + (w - radius * sin) ** 2 + (z - t) ** 2

    # the curve passes each neighborhood once per turn, so the scan over one
    # period is global and the bracket around its best node holds the minimum
    grid = z + np.linspace(-0.5 * period, 0.5 * period, 17)
    vals = dist2(grid)
    k = np.argmin(vals, axis=1)[:, None]
    # the end nodes share phase and axial distance, so they tie in exact
    # arithmetic: a point whose best node is one of them is polished from both
    k = np.concatenate([k, np.where(k % 16 == 0, 16 - k, k)], axis=1)
    coarse = np.take_along_axis(vals, k, axis=1)
    t = np.take_along_axis(grid, k, axis=1)
    h = period / 16.0
    lo, hi = t - h, t + h
    active = np.ones(t.shape, dtype=bool)
    for _ in range(_CURVE_SEARCH_ITERATIONS):
        th = slope * t + phi0
        cos, sin = np.cos(th), np.sin(th)
        # halves of d2' and d2''
        grad = radius * slope * (u * sin - w * cos) - (z - t)
        curv = radius * slope * slope * (u * cos + w * sin) + 1.0
        # the minimum of d2 stays between lo (d2' < 0) and hi (d2' > 0)
        lo = np.where(grad < 0.0, t, lo)
        hi = np.where(grad > 0.0, t, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = t - grad / curv
        bisect = 0.5 * (lo + hi)
        ok = (curv > 0.0) & (newton >= lo) & (newton <= hi)
        step = np.where(ok, newton, bisect)
        converged = np.abs(step - t) <= 1e-12 * np.maximum(np.abs(t), period)
        t = np.where(active, step, t)
        active &= ~converged
        if not active.any():
            break
    nearest = np.minimum(dist2_compensated(t), coarse).min(axis=1)
    return math.sqrt(float(np.mean(nearest)))


def fit_helix(cloud: EmitterCloud) -> HelixFit:
    """Best single helix through the cloud.

    Tries each principal direction of the centered cloud as the axis and
    ranks the viable starts by the cost _refine starts from (_candidate_fit).
    All seven parameters are refined by _refine, a Levenberg-Marquardt loop
    in numpy, with the exact Jacobian of the cylindrical residuals (radial
    mismatch and radius-scaled wrapped phase mismatch), from the best start
    and then from each next one while its start cost is below the best
    refined cost; the lowest-cost solution wins.  A winning pass that
    stopped at its cap of _MAX_NFEV residual evaluations gets a FitWarning,
    and so does a winner whose rms_residual exceeds R: every point of the
    fitted axis is exactly R from the curve, so points that sit farther from
    it than that, on average, fit the curve worse than its own axis does and
    are not a sampling of that helix.
    """
    pos = cloud.positions
    n = cloud.count
    if n < 8:
        raise ValueError(f"need at least 8 emitters to fit a helix, got {n}")
    centroid = pos.mean(axis=0)
    centered = pos - centroid
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    if svals[1] <= _DEGENERACY_RTOL * svals[0]:
        raise FitDegeneracyError("cloud is collinear; helix axis is undetermined")
    if svals[2] <= _DEGENERACY_RTOL * svals[0]:
        raise FitDegeneracyError("cloud is coplanar; pitch is undetermined")

    cands = []
    for row in vt:
        # face each axis so its dominant component is positive; slope and
        # handedness are frame-independent under this flip
        v0 = -row if row[np.argmax(np.abs(row))] < 0.0 else row
        cand = _candidate_fit(centered, v0)
        if cand is not None:
            cands.append(cand)
    if not cands:
        raise FitDegeneracyError(
            "no principal direction admits a circle-plus-phase fit"
        )
    cands.sort(key=lambda c: c[0])

    best = None
    for start_cost, x0, args in cands:
        # an axis that starts no better than the best refined cost, and
        # every later one, is skipped
        if best is not None and start_cost >= best[0]:
            break
        x, cost, status = _refine(_residuals, _jacobian, x0, args)
        if best is None or cost < best[0]:
            best = (cost, x, status, args)
    _, x, status, (_, v0, e1_0, e2_0) = best
    axis, e1, e2 = _frame_of(x, v0, e1_0, e2_0)
    c1, c2, radius, slope, phi0 = x[2:]
    if slope == 0.0 or radius <= 0.0:
        raise FitDegeneracyError("refinement collapsed the helix")
    if status == 0:
        warnings.warn(
            f"refinement stopped at {_MAX_NFEV} evaluations without converging",
            FitWarning,
            stacklevel=2,
        )

    z = _coords(centered, axis, e1, e2, c1, c2)[3]
    dz = np.diff(np.sort(z))
    if np.any(np.abs(slope) * dz >= math.pi):
        warnings.warn(
            "adjacent points advance by >= pi in azimuth; pitch may alias",
            FitWarning,
            stacklevel=2,
        )

    span = float(z.max() - z.min())
    pitch = math.tau / abs(slope)
    rms = _point_curve_rms(centered, axis, e1, e2, c1, c2, radius, slope, phi0)
    if rms > radius:
        warnings.warn(
            f"rms point-to-curve distance {rms:.4g} nm exceeds the fitted radius "
            f"{radius:.4g} nm; the helix does not describe the cloud",
            FitWarning,
            stacklevel=2,
        )
    density = _density(n, span, radius, pitch)
    return HelixFit(
        axis_direction=axis,
        axis_point=centroid + c1 * e1 + c2 * e2,
        R=float(radius),
        b=float(pitch),
        phase=float(_wrap(phi0)),
        handedness=Handedness.RIGHT if slope > 0.0 else Handedness.LEFT,
        rms_residual=float(rms),
        n0=float(density),
    )


def _density(count, span, radius, pitch):
    if span <= 0.0:
        raise FitDegeneracyError("zero axial extent; line density is undefined")
    arc = span * math.sqrt(1.0 + (math.tau * radius / pitch) ** 2)
    return count / arc


def line_density(cloud: EmitterCloud, fit: HelixFit) -> float:
    """Emitters per unit arc length of the fitted curve across the cloud span."""
    z = (cloud.positions - fit.axis_point) @ fit.axis_direction
    span = float(z.max() - z.min())
    return _density(cloud.count, span, fit.R, fit.b)


def _peak_search(spec: HelixSpec) -> float:
    """Largest helix decay over a grid of the period and its band edges.

    The candidates are a uniform grid over 1 - Omega <= kappa <= 1 and its
    band edges kappa = m Omega +- 1, where an order enters its window at
    zero argument: the ends, and m Omega - 1 for the one or two m between
    2/Omega - 1 and 2/Omega.
    """
    omega = spec.Omega
    edges = np.array([np.ceil(2.0 / omega - 1.0), np.floor(2.0 / omega)]) * omega - 1.0
    kappa = np.concatenate([np.linspace(1.0 - omega, 1.0, _PEAK_GRID), edges])
    orders = _window_orders(kappa, omega)[2]
    if orders > _MAX_TERMS:
        raise ValueError(f"Omega = lambda0/b = {omega:.6g} is too small for the peak-rate "
                         f"search: its {kappa.size} kappa points span {orders} Bessel orders, "
                         f"over the limit of {_MAX_TERMS} terms")
    return float(helix_decay_norm(kappa, spec).max())


def estimate(fit: HelixFit, physics: EmitterPhysics) -> EstimateReport:
    """Dimensionless parameters and the peak-rate estimate for a fitted helix.

    The maximally superradiant rate is n0 lambda0 times the peak of the
    unit-normalised decay over the period.  For Omega >= 2 it is exactly
    n0 lambda0, a closed form that loads no scipy module.  Below, other
    orders share the window of the band edge kappa = 1 and a search over
    kappa finds more (1.34 n0 lambda0 at Omega = 1, r = 1.84).  The
    trapped share is the measure (Omega - 2)/Omega of the axial-momentum
    line, zero below Omega = 2.  Every HelixSpec refusal holds at any
    Omega; an Omega too small for an order window, or for the peak
    search's work limit (below about 5.2e-6), is refused with its message.
    """
    omega = physics.lambda0 / fit.b
    spec = HelixSpec(omega, physics.k0 * fit.R)
    # the band edge kappa = 1 gets J_0(0)^2 = 1 from order 0; at Omega >= 2 no
    # other order in its window has a nonzero J_m, so that is the peak
    # (_peak_search gives the same bits), formed without a Bessel value
    peak = 1.0 if omega >= 2.0 else _peak_search(spec)
    trapped = 100.0 * (omega - 2.0) / omega if omega >= 2.0 else 0.0
    return EstimateReport(
        Omega=omega,
        r=spec.r,
        gamma_max_over_gamma=fit.n0 * physics.lambda0 * peak,
        trapped_percent=trapped,
    )


def with_density(fit: HelixFit, n0: float) -> HelixFit:
    """Copy of a fit with an externally supplied line density."""
    if not (n0 > 0.0 and math.isfinite(n0)):
        raise ValueError(f"n0 must be > 0, got {n0}")
    return dataclasses.replace(fit, n0=n0)
