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
import numbers
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .spectra import MAX_GRID_POINTS, EmitterPhysics, _check_kappa, _window_sum
from .specfun import _libm, _polylogs

# dense all-eigenvalue solves stay comfortable on a desktop to about here;
# beyond it memory and O(N^3) time both turn painful.  At the limit
# cloud_spectrum holds a mirrored cloud's two split blocks, 128 MB, or any
# other cloud's kernel, 256 MB, solved in place; oracle_spectrum(matrix)
# holds the matrix and the solve's copy of it, 512 MB
ORACLE_SIZE_LIMIT = 4000


def check_oracle_size(n: int):
    """Refuse a cloud of n emitters, before anything of size n is allocated."""
    if n > ORACLE_SIZE_LIMIT:
        raise ValueError(f"N = {n} exceeds the dense-solver limit {ORACLE_SIZE_LIMIT}")


def _c_function(path, name, *argtypes, restype=ctypes.c_int):
    """The C function name of the library at path, or None where it is missing."""
    try:
        function = getattr(ctypes.CDLL(path), name)
    except (AttributeError, OSError):
        return None
    function.argtypes = list(argtypes)
    function.restype = restype
    return function


_MALLOPT = _c_function(None, "mallopt", ctypes.c_int, ctypes.c_int)  # glibc only
# OpenBLAS >= 0.3.27, bundled with numpy and linked by its linalg extension;
# returns the count before the call
_SET_BLAS_THREADS = _c_function(np.linalg._umath_linalg.__file__,
                                "openblas_set_num_threads_local", ctypes.c_int)
# the LAPACK zgeev that numpy's eigvals calls, in the same bundled OpenBLAS
# (64-bit integers, scipy_ prefix); a ctypes call releases the GIL
_ZGEEV = _c_function(np.linalg._umath_linalg.__file__, "scipy_zgeev_64_",
                     *[ctypes.c_void_p] * 14, restype=None)
# the count _SET_BLAS_THREADS sets is process-wide in OpenBLAS's pthreads
# build, so two oracle solves must not overlap: each would restore the
# other's count in the middle of its solve
_SOLVE_LOCK = threading.Lock()

# kernel rows built at a time.  A chunk's transients, a complex and two
# real 8 x N arrays, take 256 N bytes, under half the two split blocks'
# zgeev workspace (33 N complex), so a mirrored cloud's solve, not its
# build, sets cloud_spectrum's peak, and OpenBLAS's buffers count in it
_KERNEL_ROWS = 8


def _hold_mmap_threshold():
    """Hold glibc's mmap threshold at its 128 KiB default (a no-op elsewhere).

    Left alone, glibc raises it after each large free, and a later N x N
    array can come from a heap arena that keeps its pages resident after it
    is freed: a freed dense kernel stayed resident after cloud_spectrum of
    random clouds of 1200, 600, 1200 and 600 emitters.  Held, each is
    unmapped when freed, in whichever thread frees it.
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


def discrete_line_lamb(params: DiscreteLineParams, kappa):
    """Collective Lamb shift of the infinite chain, in units of gamma.

    The perpendicular orientation carries a log term that diverges whenever
    k0 d (1 +- kappa) is a multiple of 2 pi (so at kappa = +-1 in particular);
    those points are returned as the -inf sentinel.  The parallel shift is
    finite everywhere.  One polylog series serves every kappa.
    """
    d = params.k0d
    kappa = _check_kappa(kappa)
    # rows: the reduced phases of k0 d (1 + kappa) and of k0 d (1 - kappa)
    t = _libm(math.remainder, [d * (1.0 + kappa), d * (1.0 - kappa)], math.tau)
    li2, li3 = _polylogs(t)
    bracket = li3.real.sum(axis=0) + d * li2.imag.sum(axis=0)
    if params.orientation is Orientation.PARALLEL:
        return (-1.5 * bracket / d**3)[()]
    mod = np.abs(2.0 * _libm(math.sin, 0.5 * t))  # |1 - e^{it}|
    logs = _libm(lambda m: math.log(m) if m else -math.inf, mod)  # -inf carries to the sum
    return (0.75 * (bracket + d * d * logs.sum(axis=0)) / d**3)[()]


def discrete_line_decay(params: DiscreteLineParams, kappa):
    """Collective decay rate of the infinite chain, in units of gamma.

    Sums the direct lattice sum's weight, (3 pi / 2 k0 d)(1 - q^2) for
    parallel dipoles and (3 pi / 4 k0 d)(1 + q^2) for perpendicular ones,
    over the reciprocal-lattice branches q = kappa + 2 pi g/(k0 d) that stay
    inside the light line |q| <= 1; zero when no branch qualifies (every
    such kappa is trapped).  Either weight averages to 1 over |q| <= 1.
    """
    d = params.k0d
    if not (d / math.pi < MAX_GRID_POINTS):  # the order window's 2/Omega bound, named by spacing
        raise ValueError(f"d/lambda = {d / math.tau:.6g} puts {MAX_GRID_POINTS} or more branches "
                         f"in the light cone; it must stay below {MAX_GRID_POINTS // 2}")
    parallel = params.orientation is Orientation.PARALLEL
    sign = -1.0 if parallel else 1.0  # weights 1 -+ q^2
    # -kappa's window at 2 pi/d: ascending g, |kappa + g 2 pi/d| <= 1; k - 2 pi g/d = -q exactly
    total = _window_sum(-_check_kappa(kappa), math.tau / d,
                        lambda k, g: 1.0 + sign * np.minimum(np.square(k - math.tau * g / d), 1.0))
    return (1.5 if parallel else 0.75) * math.pi * total / d


def _kernel_rows(cloud: EmitterCloud, physics: EmitterPhysics, stop: int, fill=None):
    """Rows [0, stop) of the kernel matrix, _KERNEL_ROWS at a time.

    Without fill, they are returned as one complex stop x N array.  With
    fill, each chunk of rows [lo, hi) is built in one reused complex buffer
    and handed over as fill(lo, rows), and None is returned.  Each row holds
    the bits it has in the full kernel; the refusals are
    build_scalar_kernel's, judged over these rows.
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
    chunk = min(stop, _KERNEL_ROWS)
    m = np.empty((stop if fill is None else chunk, n), dtype=complex)
    # the rows of a chunk go through two reused real buffers, so that no
    # real N x N array is ever alive next to the complex one
    kr_rows, sq_rows = np.empty((2, chunk, n))
    for lo in range(0, stop, _KERNEL_ROWS):
        hi = min(lo + _KERNEL_ROWS, stop)
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
        rows = m[lo:hi] if fill is None else m[:hi - lo]
        with np.errstate(invalid="ignore"):
            np.multiply(kr, 1j, out=rows)
            np.exp(rows, out=rows)
            rows *= -1j * physics.gamma
            rows /= kr
        rows[diagonal] = physics.gamma
        if fill is not None:
            fill(lo, rows)
    return m if fill is None else None


def build_scalar_kernel(cloud: EmitterCloud, physics: EmitterPhysics) -> np.ndarray:
    """Dense N x N kernel matrix M_jk = -i gamma e^{i k0 r_jk} / (k0 r_jk).

    The diagonal keeps the finite imaginary part of the zero-separation
    kernel limit and drops the divergent real self-energy, giving
    M_jj = gamma.  Clouds beyond ORACLE_SIZE_LIMIT are refused before the
    N x N arrays are allocated.
    """
    return _kernel_rows(cloud, physics, cloud.count)


def _split_blocks(n: int):
    """Two empty Fortran-ordered complex blocks, N // 2 and N - N // 2 square."""
    h = n // 2
    return np.empty((h, h), complex, order="F"), np.empty((n - h, n - h), complex, order="F")


def _fill_split_blocks(blocks, lo: int, rows: np.ndarray):
    """Write into blocks what rows [lo, lo + len(rows)) of a matrix m give them.

    blocks are the two half-size blocks whose spectra together make up
    that of an N x N centrosymmetric m (m == J m J, J the exchange matrix);
    only its top N - N // 2 rows give them anything.  With h = N // 2,
    A = m[:h, :h] and CJ = m[:h, N-h:] J, the orthogonal similarity of
    Cantoni & Butler (Lin. Alg. Appl. 13, 275 (1976)) takes m to
    diag(A - CJ, A + CJ): A - CJ acts on the vectors that the reversal J
    negates, A + CJ on those it keeps.  For odd N the middle entry belongs
    to the kept vectors, so A + CJ is bordered by the middle column and
    twice the middle row.
    """
    odd, even = blocks
    n = rows.shape[1]
    h = n // 2
    upper = rows[:max(h - lo, 0)]
    a, cj = upper[:, :h], upper[:, n - h:][:, ::-1]
    block_rows = slice(lo, lo + len(upper))
    # an overflow is refused by name before the solve (_solve_blocks)
    with np.errstate(over="ignore"):
        np.subtract(a, cj, out=odd[block_rows])
        np.add(a, cj, out=even[block_rows, :h])
        if n % 2:
            even[block_rows, h] = upper[:, h]
            if lo + len(rows) > h:
                even[h, :h] = 2 * rows[h - lo, :h]
                even[h, h] = rows[h - lo, h]


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


def _zgeev(a: np.ndarray, w: np.ndarray, work: np.ndarray, rwork: np.ndarray, lwork: int) -> int:
    """One call of LAPACK's zgeev without eigenvectors; returns its info.

    a is an N x N Fortran-ordered complex array, which the call overwrites;
    w (N complex) receives the eigenvalues, work holds lwork complex entries
    (lwork = -1 asks for the optimal lwork in work[0]) and rwork 2 N doubles.
    These are the arguments numpy's eigvals passes.
    """
    n = a.shape[0]
    no, info = ctypes.c_char(b"N"), ctypes.c_int64()
    size, lda, one, lw = (ctypes.c_int64(v) for v in (n, max(n, 1), 1, lwork))
    unused = work.ctypes.data  # vl and vr, left unread with jobvl = jobvr = 'N'
    _ZGEEV(ctypes.byref(no), ctypes.byref(no), ctypes.byref(size), a.ctypes.data,
           ctypes.byref(lda), w.ctypes.data, unused, ctypes.byref(one), unused,
           ctypes.byref(one), work.ctypes.data, ctypes.byref(lw), rwork.ctypes.data,
           ctypes.byref(info))
    return info.value


def _eigvals(block: np.ndarray) -> np.ndarray:
    """The eigenvalues of a Fortran-ordered complex block, at one OpenBLAS thread.

    The block is solved in place, so it is overwritten.  zgeev is called as
    numpy's eigvals calls it on its copy of a matrix, with the workspace a
    query asks for, so the eigenvalues are numpy's bit for bit.  Where
    numpy's OpenBLAS has no scipy_zgeev_64_, numpy's eigvals is called.
    """
    with _one_blas_thread():
        if _ZGEEV is None:
            try:
                return np.linalg.eigvals(block)
            except np.linalg.LinAlgError as exc:
                raise RuntimeError(f"eigensolver did not converge: {exc}") from exc
        n = block.shape[0]
        w, rwork, query = np.empty(n, complex), np.empty(2 * n), np.empty(1, complex)
        _zgeev(block, w, query, rwork, -1)
        work = np.empty(max(int(query[0].real), 1), complex)
        info = _zgeev(block, w, work, rwork, work.size)
    if info:
        raise RuntimeError(f"eigensolver did not converge: zgeev info = {info}")
    return w


def _solve_blocks(blocks) -> list:
    """The eigenvalues of each block, every solve at one OpenBLAS thread.

    The blocks are Fortran-ordered complex arrays, solved in place.  Two
    blocks are solved at the same time, the first in one worker thread and
    the second in the calling thread: the ctypes call releases the GIL for
    the whole of zgeev, which numpy's eigvals does only above 500 rows.
    OpenBLAS's pthreads build keeps one thread count for the whole process,
    so the calling thread holds it at 1 from before the worker starts until
    after the worker has finished; the worker sets it too, for builds that
    keep one count per thread.  One thread per solve also makes the
    eigenvalues independent of OPENBLAS_NUM_THREADS.  Without the
    thread-count call the blocks are solved one after another.  Calls from
    several threads take turns.
    """
    # numpy's eigvals refused non-finite input; A + CJ can overflow
    if not all(np.isfinite(block).all() for block in blocks):
        raise ValueError("eigenproblem blocks must be finite")
    with _SOLVE_LOCK, _one_blas_thread():
        if _SET_BLAS_THREADS is None or len(blocks) == 1:
            return [_eigvals(block) for block in blocks]
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=1) as worker:
            first = worker.submit(_eigvals, blocks[0])
            second = _eigvals(blocks[1])
            return [first.result(), second]


def _matrix_blocks(m: np.ndarray, copy: bool):
    """The blocks to solve for the square m, and the eigensolve label.

    A matrix equal bit for bit to its own reversal, m == m[::-1, ::-1], is
    split into two half-size blocks (see _fill_split_blocks), built from
    its top N - N // 2 rows.  Any other matrix is one block: a complex
    Fortran-ordered copy of m or, without copy, m's transpose, which must
    then equal m, as every kernel does.
    """
    n = m.shape[0]
    if np.array_equal(m, m[::-1, ::-1]):
        blocks = _split_blocks(n)
        _fill_split_blocks(blocks, 0, m[:n - n // 2])
        return blocks, "centrosymmetric"
    return (np.array(m, dtype=complex, order="F") if copy else m.T,), "dense"


def _spectrum(blocks, eigensolve: str) -> OracleSpectrum:
    """The eigenvalues of the blocks together, descending by Re."""
    w = np.concatenate(_solve_blocks(blocks))
    order = np.argsort(-w.real, kind="stable")
    w = w[order]
    return OracleSpectrum(eigenvalues=w, gamma_j=2.0 * w.real, lamb_j=w.imag,
                          eigensolve=eigensolve,
                          blas_threads=None if _SET_BLAS_THREADS is None else 1)


def oracle_spectrum(matrix: np.ndarray) -> OracleSpectrum:
    """All eigenvalues of the dense non-Hermitian kernel, descending by Re.

    Uses the standard balanced QR iteration (LAPACK zgeev), whose backward
    error is a small multiple of machine epsilon times ||M||.

    A matrix equal bit for bit to its own reversal, M == M[::-1, ::-1], is
    split first into two half-size blocks (see _fill_split_blocks), each
    solved densely, for about a quarter of the full solve's work.  The
    split reads only the top N - N // 2 rows.  Any other matrix, such as
    the kernel of a cloud of arbitrary geometry, takes one dense solve of a
    copy.  matrix itself is never written.  Every solve runs at one OpenBLAS
    thread (see _solve_blocks), so the eigenvalues do not depend on the BLAS
    thread count.  For a cloud, cloud_spectrum gives the same bytes without
    the copy, and without the kernel where it can.
    """
    _hold_mmap_threshold()
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    check_oracle_size(m.shape[0])
    if not np.isfinite(m).all():
        raise ValueError("matrix must be finite")
    # m stays alive through the solve, whose OpenBLAS buffers then fall
    # within this call's peak of m and its blocks (README, Finite-N oracle)
    return _spectrum(*_matrix_blocks(m, copy=True))


def cloud_spectrum(cloud: EmitterCloud, physics: EmitterPhysics) -> OracleSpectrum:
    """oracle_spectrum(build_scalar_kernel(cloud, physics)), bit for bit.

    Where reversing the emitter order mirrors the cloud through the x axis,
    positions[::-1] == positions * (1, -1, -1), as for the line, ring and
    helix generators, the kernel equals its own reversal bit for bit: the
    reversal negates or keeps every coordinate difference exactly.  The
    kernel is then never built: each chunk of its top N - N // 2 rows, the
    ones the centrosymmetric split reads, goes into the two blocks as it is
    built.  Every pair of emitters occurs in those rows, so the refusals
    name the same pair as the full build's.  Any other cloud takes the full
    kernel, which is solved in place where it is not split.
    """
    n = cloud.count
    check_oracle_size(n)
    p = cloud.positions
    if not np.array_equal(p[::-1], p * [1.0, -1.0, -1.0]):
        return _spectrum(*_matrix_blocks(build_scalar_kernel(cloud, physics), copy=False))
    blocks = _split_blocks(n)
    _kernel_rows(cloud, physics, n - n // 2, lambda lo, rows: _fill_split_blocks(blocks, lo, rows))
    return _spectrum(blocks, "centrosymmetric")


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
    if not isinstance(count, numbers.Integral):
        raise ValueError(f"count must be an integer, got {count}")
    if count < 1:
        raise ValueError("count must be >= 1")
    for name, v in sizes.items():
        if not (0.0 < v < math.inf):
            raise ValueError(f"{name} must be finite and > 0, got {v}")


def _check_span(count, step, name, unit):
    """Refuse a step whose count - 1 multiples overflow, before any position is formed."""
    if not (count - 1) * step < math.inf:
        raise ValueError(f"{name} = {step:.6g} {unit} is too large: {count} emitters "
                         f"would span {count - 1} times it, beyond double range")


def pair_cloud(separation: float) -> EmitterCloud:
    """Two emitters spaced along z."""
    _check_generator(2, separation=separation)
    return EmitterCloud(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, separation]]))


def line_cloud(count: int, spacing: float) -> EmitterCloud:
    """count emitters spaced uniformly along z, centred on the origin."""
    _check_generator(count, spacing=spacing)
    _check_span(count, spacing, "spacing", "nm")
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
    phi = (math.tau / count) * _centred_index(count)
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
    # the arc length bounds the height span, and the phase span is formed below
    _check_span(count, spacing, "spacing", "nm")
    dphi = spacing / math.hypot(radius, pitch / math.tau)
    _check_span(count, dphi, "phase step spacing / hypot(radius, pitch / 2 pi)", "rad")
    phi = dphi * _centred_index(count)
    return EmitterCloud(np.column_stack([radius * np.cos(phi),
                                         radius * np.sin(phi),
                                         (pitch / math.tau) * phi]))
