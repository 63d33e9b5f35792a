"""Spans around helirad's module boundaries, recorded from the benchmark's side.

`Tracer.patched()` replaces the public functions listed in TARGETS with
wrappers, in every `helirad` module that binds them (and `scipy.optimize` for
the optimizers `geomfit` calls), and restores the originals on exit. Each call
records a span [name, parent, op, start_ns, end_ns, note]; `note` carries the
work count the layer metrics need (grid points, Bessel argument kind, N,
nfev). Spans stay in memory; `layer_metrics` reduces one pass's spans.
"""

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict


def _sweep_note(args, kwargs, result):
    # spectra notes are (grid points, Bessel terms per point)
    m = kwargs.get("M", args[3] if len(args) > 3 else 10)
    return len(result.points), 2 * m + 1


def _line_note(args, kwargs, result):
    return len(result.points), 0


def _cylinder_note(args, kwargs, result):
    return len(result.points), 1


def _jh_note(args, kwargs, result):
    arg = args[1] if len(args) > 1 else kwargs["arg"]
    if arg.magnitude == 0.0:
        return "zero"
    return "real" if arg.kind.value == "real" else "imag"


def _len_note(args, kwargs, result):
    return len(args[0] if args else kwargs["entries"])


def _count_note(args, kwargs, result):
    return result.count


def _shape_note(args, kwargs, result):
    return result.shape[0]


def _eig_note(args, kwargs, result):
    return len(result.eigenvalues)


def _lsq_note(args, kwargs, result):
    # status 0: stopped by max_nfev rather than converged
    return result.nfev, float(result.cost), result.status == 0


# (span name, module, attribute, note); a missing attribute is skipped, so
# a later refactor that removes a function drops its span instead of failing
TARGETS = [
    ("cli.main", "helirad.cli", "main", None),
    ("spectra.sweep", "helirad.spectra", "sweep", _sweep_note),
    ("spectra.line_table", "helirad.spectra", "line_table", _line_note),
    ("spectra.cylinder_table", "helirad.spectra", "cylinder_table", _cylinder_note),
    ("specfun.jh_product", "helirad.specfun", "jh_product", _jh_note),
    ("specfun.polylog_unit_circle", "helirad.specfun", "polylog_unit_circle", None),
    ("thermal.thermal_sweep", "helirad.thermal", "thermal_sweep", _len_note),
    ("thermal.thermal_average", "helirad.thermal", "thermal_average", None),
    ("discrete.discrete_line_lamb", "helirad.discrete", "discrete_line_lamb", None),
    ("discrete.discrete_line_decay", "helirad.discrete", "discrete_line_decay", None),
    ("discrete.pair_cloud", "helirad.discrete", "pair_cloud", None),
    ("discrete.line_cloud", "helirad.discrete", "line_cloud", None),
    ("discrete.ring_cloud", "helirad.discrete", "ring_cloud", None),
    ("discrete.helix_cloud", "helirad.discrete", "helix_cloud", None),
    ("discrete.build_scalar_kernel", "helirad.discrete", "build_scalar_kernel", _shape_note),
    ("discrete.oracle_spectrum", "helirad.discrete", "oracle_spectrum", _eig_note),
    ("geomfit.load_emitters", "helirad.geomfit", "load_emitters", _count_note),
    ("geomfit.fit_helix", "helirad.geomfit", "fit_helix", None),
    ("geomfit.estimate", "helirad.geomfit", "estimate", None),
    # private, but it is the per-point point-to-curve search
    ("geomfit.curve_search", "helirad.geomfit", "_point_curve_rms", None),
    ("scipy.least_squares", "scipy.optimize", "least_squares", _lsq_note),
    ("scipy.minimize_scalar", "scipy.optimize", "minimize_scalar", None),
]

CLOUD_SPANS = ("discrete.pair_cloud", "discrete.line_cloud",
               "discrete.ring_cloud", "discrete.helix_cloud")

# zgeev, eigenvalues only: ~10 N^3 complex operations (Hessenberg reduction
# plus shifted QR, Golub & Van Loan 7.5.6), counted as 4 real flops each
EIG_FLOPS_PER_N3 = 40


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = [-1]

    def reset(self):
        """Start a new pass; returns the spans of the previous one."""
        spans, self.spans = self.spans, []
        self._stack = [-1]
        return spans

    def _wrap(self, name, fn, note):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            span = [name, stack[-1], tracer.op, 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for name, modname, attr, note in TARGETS:
                home = importlib.import_module(modname)
                original = getattr(home, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(name, original, note)
                if modname.startswith("helirad"):
                    homes = [m for key, m in list(sys.modules.items())
                             if key == "helirad" or key.startswith("helirad.")]
                else:
                    homes = [home]
                for module in homes:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            saved.append((module, key, original))
                            setattr(module, key, wrapper)
            yield
        finally:
            for module, key, original in reversed(saved):
                setattr(module, key, original)
            for module, key, original in saved:
                if getattr(module, key) is not original:
                    raise RuntimeError(f"{module.__name__}.{key} was not restored")


def layer_metrics(spans):
    """Per-layer counts and self times (seconds) from one pass's spans.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the CLI runs on one thread.
    """
    child = [0] * len(spans)
    for name, parent, op, t0, t1, note in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_ns = defaultdict(int)   # by span name
    total_ns = defaultdict(int)  # inclusive, by span name
    calls = defaultdict(int)
    for i, (name, parent, op, t0, t1, note) in enumerate(spans):
        self_ns[name] += t1 - t0 - child[i]
        total_ns[name] += t1 - t0
        calls[name] += 1

    def layer_self(prefix):
        return sum(v for k, v in self_ns.items() if k.startswith(prefix + ".")) / 1e9

    def self_of(*names):
        return sum(self_ns[n] for n in names) / 1e9

    def total_of(*names):
        return sum(total_ns[n] for n in names) / 1e9

    points = terms = 0
    jh = defaultdict(int)
    m_eff_max = entries = lsq_nfev = lsq_hits = fit_points = 0
    kernel_bytes = flops = 0
    best = {}  # fit_helix span -> (cost, nfev) of its lowest-cost least_squares
    for name, parent, op, t0, t1, note in spans:
        if note is None:  # no note, or the call raised
            continue
        if name.startswith("spectra."):
            points += note[0]
            terms += note[0] * note[1]
            if name == "spectra.sweep" and parent >= 0 \
                    and spans[parent][0] == "thermal.thermal_sweep":
                m_eff_max = max(m_eff_max, (note[1] - 1) // 2)
        elif name == "specfun.jh_product":
            jh[note] += 1
        elif name == "thermal.thermal_sweep":
            entries += note
        elif name == "discrete.build_scalar_kernel":
            kernel_bytes += 16 * note * note  # complex128 N x N
        elif name == "discrete.oracle_spectrum":
            flops += EIG_FLOPS_PER_N3 * note ** 3
        elif name == "geomfit.load_emitters":
            fit_points += note
        elif name == "scipy.least_squares":
            nfev, cost, hit_max = note
            lsq_nfev += nfev
            lsq_hits += hit_max
            if parent not in best or cost < best[parent][0]:
                best[parent] = (cost, nfev)

    spectra_total = total_of("spectra.sweep", "spectra.line_table", "spectra.cylinder_table")
    jh_self = self_of("specfun.jh_product")
    eig_s = total_of("discrete.oracle_spectrum")
    return {
        "cli.calls": calls["cli.main"],
        "cli.self_s": self_of("cli.main"),
        "spectra.calls": sum(v for k, v in calls.items() if k.startswith("spectra.")),
        "spectra.points": points,
        "spectra.terms": terms,
        "spectra.self_s": layer_self("spectra"),
        "spectra.ns_per_term": 1e9 * spectra_total / terms if terms else 0.0,
        "specfun.self_s": layer_self("specfun"),
        "specfun.jh_product.calls": calls["specfun.jh_product"],
        "specfun.jh_product.real_calls": jh["real"],
        "specfun.jh_product.imag_calls": jh["imag"],
        "specfun.jh_product.zero_calls": jh["zero"],
        "specfun.jh_product.self_s": jh_self,
        "specfun.ns_per_jh": 1e9 * jh_self / calls["specfun.jh_product"]
        if calls["specfun.jh_product"] else 0.0,
        "specfun.polylog.calls": calls["specfun.polylog_unit_circle"],
        "specfun.polylog.self_s": self_of("specfun.polylog_unit_circle"),
        "thermal.entries": entries,
        "thermal.m_eff_max": m_eff_max,
        "thermal.self_s": layer_self("thermal"),
        "discrete.self_s": layer_self("discrete"),
        "discrete.chain.points": calls["discrete.discrete_line_lamb"],
        "discrete.chain.self_s": self_of("discrete.discrete_line_lamb",
                                         "discrete.discrete_line_decay"),
        "discrete.cloud_s": total_of(*CLOUD_SPANS),
        "discrete.kernel.build_s": total_of("discrete.build_scalar_kernel"),
        "discrete.kernel.bytes": kernel_bytes,
        "discrete.oracle.eig_s": eig_s,
        "discrete.oracle.flops": flops,
        "discrete.oracle.gflops": flops / eig_s / 1e9 if eig_s else 0.0,
        "geomfit.self_s": layer_self("geomfit"),
        "geomfit.load_s": total_of("geomfit.load_emitters"),
        "geomfit.points": fit_points,
        "geomfit.fit_s": total_of("geomfit.fit_helix"),
        "geomfit.lsq_s": total_of("scipy.least_squares"),
        "geomfit.lsq.calls": calls["scipy.least_squares"],
        "geomfit.lsq.nfev": lsq_nfev,
        "geomfit.lsq.max_nfev_hits": lsq_hits,
        "geomfit.lsq.useful_ratio": sum(n for _, n in best.values()) / lsq_nfev
        if lsq_nfev else 0.0,
        "geomfit.curve_search_s": total_of("geomfit.curve_search"),
        "geomfit.curve_search.calls": calls["scipy.minimize_scalar"],
        "scipy.self_s": layer_self("scipy"),
        "trace.self_sum_s": sum(self_ns.values()) / 1e9,
    }


# counts that must repeat exactly between two passes over the same inputs
DETERMINISTIC = [
    "cli.calls", "cli.bytes_out", "spectra.calls", "spectra.points", "spectra.terms",
    "specfun.jh_product.calls", "specfun.jh_product.real_calls",
    "specfun.jh_product.imag_calls", "specfun.jh_product.zero_calls",
    "specfun.polylog.calls", "thermal.entries", "thermal.m_eff_max",
    "discrete.chain.points", "discrete.kernel.bytes", "discrete.oracle.flops",
    "geomfit.points", "geomfit.lsq.calls", "geomfit.lsq.nfev",
    "geomfit.lsq.max_nfev_hits", "geomfit.curve_search.calls",
]


def import_times(stderr_text):
    """Cumulative seconds per helirad module from `python -X importtime` output."""
    out = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if len(parts) == 3 and parts[2].split(".")[0] == "helirad":
            out[parts[2]] = int(parts[1]) / 1e6
    return out
