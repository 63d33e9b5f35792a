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

import contextlib
import ctypes
import enum
import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .spectra import MAX_GRID_POINTS, EmitterPhysics, _check_ascending, _window_sum
from .specfun import _TWO_PI, _libm, _polylogs

# dense all-eigenvalue solves stay comfortable on a desktop to about here;
# beyond it memory and O(N^3) time both turn painful
ORACLE_SIZE_LIMIT = 4000


def check_oracle_size(n: int):
    """Refuse a cloud of n emitters, before anything of size n is allocated."""
    if n > ORACLE_SIZE_LIMIT:
        raise ValueError(f"N = {n} exceeds the dense-solver limit {ORACLE_SIZE_LIMIT}")


def _c_function(path, name, *argtypes):
    """The int-valued C function name of the library at path, or None where it is missing."""
    try:
        function = getattr(ctypes.CDLL(path), name)
    except (AttributeError, OSError):
        return None
    function.argtypes = list(argtypes)
    function.restype = ctypes.c_int
    return function


_MALLOPT = _c_function(None, "mallopt", ctypes.c_int, ctypes.c_int)  # glibc only
# OpenBLAS >= 0.3.27, bundled with numpy and linked by its linalg extension;
# returns the count before the call
_SET_BLAS_THREADS = _c_function(np.linalg._umath_linalg.__file__,
                                "openblas_set_num_threads_local", ctypes.c_int)
# the count _SET_BLAS_THREADS sets is process-wide in OpenBLAS's pthreads
# build, so two oracle solves must not overlap: each would restore the
# other's count in the middle of its solve
_SOLVE_LOCK = threading.Lock()

# kernel rows built at a time: 256 rows of a 4000-emitter cloud are 8 MB
_KERNEL_ROWS = 256


def _hold_mmap_threshold():
    """Hold glibc's mmap threshold at its 128 KiB default (a no-op elsewhere).

    Left alone, glibc raises it after each large free, and later N x N arrays
    come from heap arenas that keep their freed pages resident.  Held, each
    is unmapped when freed, in whichever thread frees it.
    """
    if _MALLOPT is not None:
        _MALLOPT(-3, 128 * 1024)  # M_MMAP_THRESHOLD


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
        # the Lamb shift divides by k0d^3, which must be a normal, finite double
        if not (sys.float_info.min <= self.k0d * self.k0d * self.k0d < math.inf):
            raise ValueError(f"spacing k0d = {self.k0d} has a cube outside double range")


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
    eigensolve: str  # "centrosymmetric" (two half-size blocks) or "dense"
    blas_threads: int | None = None  # OpenBLAS threads per solve; None where it cannot be set


def _chain_lamb(params: DiscreteLineParams, kappa) -> np.ndarray:
    """discrete_line_lamb over an ascending kappa grid, one polylog series for all."""
    d = params.k0d
    kappa = np.array(_check_ascending(kappa))
    # rows: the reduced phases of k0 d (1 + kappa) and of k0 d (1 - kappa)
    t = _libm(math.remainder, [d * (1.0 + kappa), d * (1.0 - kappa)], _TWO_PI)
    li2, li3 = _polylogs(t)
    bracket = li3.real.sum(axis=0) + d * li2.imag.sum(axis=0)
    if params.orientation is Orientation.PARALLEL:
        return -1.5 * bracket / d**3
    mod = np.abs(2.0 * _libm(math.sin, 0.5 * t))  # |1 - e^{it}|
    logs = _libm(lambda m: math.log(m) if m else -math.inf, mod)  # -inf carries to the sum
    return 0.75 * (bracket + d * d * logs.sum(axis=0)) / d**3


def discrete_line_lamb(params: DiscreteLineParams, kappa: float) -> float:
    """Collective Lamb shift of the infinite chain, in units of gamma.

    The perpendicular orientation carries a log term that diverges whenever
    k0 d (1 +- kappa) is a multiple of 2 pi (so at kappa = +-1 in particular);
    those points are returned as the -inf sentinel.  The parallel shift is
    finite everywhere.
    """
    return float(_chain_lamb(params, [kappa])[0])


def _chain_decay(params: DiscreteLineParams, kappa) -> np.ndarray:
    """discrete_line_decay over an ascending kappa grid, one window sum for all."""
    d = params.k0d
    if not (d / math.pi < MAX_GRID_POINTS):  # the order window's 2/Omega bound, named by spacing
        raise ValueError(f"d/lambda = {d / _TWO_PI:.6g} puts {MAX_GRID_POINTS} or more branches "
                         f"in the light cone; it must stay below {MAX_GRID_POINTS // 2}")
    sign = -1.0 if params.orientation is Orientation.PARALLEL else 1.0  # weights 1 -+ q^2
    # -kappa's window at 2 pi/d: ascending g, |kappa + g 2 pi/d| <= 1; k - 2 pi g/d = -q exactly
    total = _window_sum(-np.array(_check_ascending(kappa)), _TWO_PI / d,
                        lambda k, g: 1.0 + sign * np.minimum(np.square(k - _TWO_PI * g / d), 1.0))
    return 1.5 * math.pi * total / d


def discrete_line_decay(params: DiscreteLineParams, kappa: float) -> float:
    """Collective decay rate of the infinite chain, in units of gamma.

    Sums (3 pi / 2 k0 d)(1 -+ q^2) over the reciprocal-lattice branches
    q = kappa + 2 pi g/(k0 d) that stay inside the light line |q| <= 1;
    zero when no branch qualifies (every such kappa is trapped).
    """
    return float(_chain_decay(params, [kappa])[0])


def build_scalar_kernel(cloud: EmitterCloud, physics: EmitterPhysics) -> np.ndarray:
    """Dense N x N kernel matrix M_jk = -i gamma e^{i k0 r_jk} / (k0 r_jk).

    The diagonal keeps the finite imaginary part of the zero-separation
    kernel limit and drops the divergent real self-energy, giving
    M_jj = gamma.  Clouds beyond ORACLE_SIZE_LIMIT are refused before the
    N x N arrays are allocated.
    """
    n = cloud.count
    check_oracle_size(n)
    _hold_mmap_threshold()
    pos = cloud.positions
    # k0 times the bounding box's diagonal, summed as below, bounds every pair's k0 r
    with np.errstate(over="ignore"):
        span = np.ptp(pos, axis=0)
        x, y, z = np.square(span)
        if not math.sqrt(x + y + z) * physics.k0 < math.inf:
            raise ValueError(f"emitter separations overflow: the cloud spans {span.tolist()} nm "
                             f"at k0 = {physics.k0:.6g}/nm")
    m = np.empty((n, n), dtype=complex)
    # a fixed number of rows at a time into two reused real buffers, so that
    # no real N x N array is ever alive next to the complex one
    kr_rows, sq_rows = np.empty((2, min(n, _KERNEL_ROWS), n))
    for lo in range(0, n, _KERNEL_ROWS):
        hi = min(lo + _KERNEL_ROWS, n)
        kr, sq = kr_rows[:hi - lo], sq_rows[:hi - lo]
        # sqrt of the squared differences summed over x, y, z in that order:
        # bit for bit scipy's cdist(pos, pos)
        np.square(np.subtract.outer(pos[lo:hi, 0], pos[:, 0], out=kr), out=kr)
        for c in (1, 2):
            np.square(np.subtract.outer(pos[lo:hi, c], pos[:, c], out=sq), out=sq)
            kr += sq
        np.sqrt(kr, out=kr)
        # the diagonal is overwritten below; inf keeps it out of the search
        # for the closest pair, whose first zero in row-major order is named
        diagonal = (np.arange(hi - lo), np.arange(lo, hi))
        kr[diagonal] = np.inf
        closest = int(np.argmin(kr))
        j, k = lo + closest // n, closest % n
        if kr.flat[closest] <= 0.0:
            raise ValueError(f"coincident emitters at rows {j} and {k}")
        kr *= physics.k0
        # numpy's complex division multiplies by 1 / (k0 r), largest at the closest pair
        nearest = float(kr.flat[closest])
        if not (nearest > 0.0 and physics.gamma * (1.0 / nearest) < math.inf):
            raise ValueError(f"gamma / (k0 r) overflows at rows {j} and {k}, k0 r = {nearest:.6g}")
        # in the operation order of -1j * gamma * exp(1j * kr) / kr
        block = m[lo:hi]
        with np.errstate(invalid="ignore"):
            np.multiply(kr, 1j, out=block)
            np.exp(block, out=block)
            block *= -1j * physics.gamma
            block /= kr
        block[diagonal] = physics.gamma
    return m


def _centrosymmetric_blocks(m: np.ndarray):
    """The two half-size blocks whose spectra together make up m's.

    m must be centrosymmetric (m == J m J, J the exchange matrix).  With
    h = N // 2, A = m[:h, :h] and CJ = m[:h, N-h:] J, the orthogonal
    similarity of Cantoni & Butler (Lin. Alg. Appl. 13, 275 (1976)) takes
    m to diag(A - CJ, A + CJ): A - CJ acts on the vectors that the
    reversal J negates, A + CJ on those it keeps.  For odd N the middle
    entry belongs to the kept vectors, so A + CJ is bordered by the middle
    column and twice the middle row.
    """
    n = m.shape[0]
    h = n // 2
    a = m[:h, :h]
    cj = m[:h, n - h:][:, ::-1]
    even = np.empty((n - h, n - h), dtype=m.dtype)
    np.add(a, cj, out=even[:h, :h])
    if n % 2:
        even[:h, h] = m[:h, h]
        even[h, :h] = 2 * m[h, :h]
        even[h, h] = m[h, h]
    return np.subtract(a, cj), even


@contextlib.contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread, then restore the count it had.

    A no-op where numpy's BLAS has no openblas_set_num_threads_local.
    """
    if _SET_BLAS_THREADS is None:
        yield
        return
    old = _SET_BLAS_THREADS(1)
    try:
        yield
    finally:
        _SET_BLAS_THREADS(old)


def _eigvals(block: np.ndarray) -> np.ndarray:
    """numpy's eigvals at one OpenBLAS thread, always complex."""
    with _one_blas_thread():
        try:
            w = np.linalg.eigvals(block)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"eigensolver did not converge: {exc}") from exc
    # numpy returns real eigenvalues of a real matrix as a real array
    return w.astype(complex, copy=False)


def _solve_blocks(blocks) -> list:
    """The eigenvalues of each block, every solve at one OpenBLAS thread.

    Two blocks are solved at the same time, the first in one worker thread
    and the second in the calling thread: numpy's eigvals releases the GIL
    during zgeev.  OpenBLAS's pthreads build keeps one thread count for the
    whole process, so the calling thread holds it at 1 from before the
    worker starts until after the worker has finished; the worker sets it
    too, for builds that keep one count per thread.  One thread per solve
    also makes the eigenvalues independent of OPENBLAS_NUM_THREADS.
    Without the thread-count call the blocks are solved one after another.
    Calls from several threads take turns.
    """
    with _SOLVE_LOCK, _one_blas_thread():
        if _SET_BLAS_THREADS is None or len(blocks) == 1:
            return [_eigvals(block) for block in blocks]
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=1) as worker:
            first = worker.submit(_eigvals, blocks[0])
            second = _eigvals(blocks[1])
            return [first.result(), second]


def oracle_spectrum(matrix: np.ndarray) -> OracleSpectrum:
    """All eigenvalues of the dense non-Hermitian kernel, descending by Re.

    Uses the standard balanced QR iteration (LAPACK zgeev), whose backward
    error is a small multiple of machine epsilon times ||M||.

    A matrix equal bit for bit to its own reversal, M == M[::-1, ::-1], is
    split first into two half-size blocks (see _centrosymmetric_blocks),
    each solved densely, for about a quarter of the full solve's work.
    The generators index their emitters about the chain's midpoint, so
    reversing the order mirrors a uniform line, ring or helix onto itself
    and their kernels always split.  Any other matrix, such as a cloud of
    arbitrary geometry, takes one dense solve.  Every solve runs at one
    OpenBLAS thread (see _solve_blocks), so the eigenvalues do not depend
    on the BLAS thread count.
    """
    _hold_mmap_threshold()
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    check_oracle_size(m.shape[0])
    if not np.isfinite(m).all():
        raise ValueError("matrix must be finite")
    if np.array_equal(m, m[::-1, ::-1]):
        blocks, eigensolve = _centrosymmetric_blocks(m), "centrosymmetric"
    else:
        blocks, eigensolve = (m,), "dense"
    # when the caller passed a temporary, as the CLI does, this frees the
    # split kernel before numpy copies the two blocks
    del matrix, m
    w = np.concatenate(_solve_blocks(blocks))
    order = np.argsort(-w.real, kind="stable")
    w = w[order]
    return OracleSpectrum(eigenvalues=w, gamma_j=2.0 * w.real, lamb_j=w.imag,
                          eigensolve=eigensolve,
                          blas_threads=None if _SET_BLAS_THREADS is None else 1)


def subradiant_fraction(spectrum: OracleSpectrum, physics: EmitterPhysics) -> float:
    """Fraction of modes decaying slower than one isolated emitter.

    The single-emitter probability decay rate in this kernel convention is
    2 gamma; the boundary case Gamma_j = 2 gamma (an isolated emitter) does
    not count as subradiant.
    """
    single = 2.0 * physics.gamma
    return float(np.count_nonzero(spectrum.gamma_j < single)) / len(spectrum.gamma_j)


def _centred_index(count: int) -> np.ndarray:
    """Emitter indices about the chain's midpoint; u[count-1-j] == -u[j] exactly.

    The generators place emitter j at an odd function of u[j] in y and z
    and an even one in x, so reversing the emitter order mirrors the cloud
    through the x axis bit for bit and its kernel is exactly centrosymmetric.
    """
    return np.arange(count) - 0.5 * (count - 1)


def _check_generator(count, **sizes):
    if count < 1:
        raise ValueError("count must be >= 1")
    for name, v in sizes.items():
        if not (0.0 < v < math.inf):
            raise ValueError(f"{name} must be finite and > 0, got {v}")


def pair_cloud(separation: float) -> EmitterCloud:
    """Two emitters spaced along z."""
    _check_generator(2, separation=separation)
    return EmitterCloud(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, separation]]))


def line_cloud(count: int, spacing: float) -> EmitterCloud:
    """count emitters spaced uniformly along z, centred on the origin."""
    _check_generator(count, spacing=spacing)
    z = spacing * _centred_index(count)
    pos = np.zeros((count, 3))
    pos[:, 2] = z
    return EmitterCloud(pos)


def ring_cloud(count: int, radius: float) -> EmitterCloud:
    """count emitters equally spaced on a circle of the given radius.

    The emitters sit symmetrically about the +x axis, at phases
    (2 pi / count) u for the centred indices u.
    """
    _check_generator(count, radius=radius)
    phi = (_TWO_PI / count) * _centred_index(count)
    return EmitterCloud(np.column_stack([radius * np.cos(phi),
                                         radius * np.sin(phi),
                                         np.zeros(count)]))


def helix_cloud(count: int, radius: float, pitch: float, spacing: float = 1.0) -> EmitterCloud:
    """count emitters along a right-handed helix, uniform in arc length.

    radius and pitch are the usual R and b (nm); spacing is the arc length
    between consecutive emitters, so the line density is 1/spacing.  The
    helix winds about the z axis with the middle of the chain at phase 0
    and height 0.
    """
    _check_generator(count, radius=radius, pitch=pitch, spacing=spacing)
    dphi = spacing / math.hypot(radius, pitch / _TWO_PI)
    phi = dphi * _centred_index(count)
    return EmitterCloud(np.column_stack([radius * np.cos(phi),
                                         radius * np.sin(phi),
                                         (pitch / _TWO_PI) * phi]))
