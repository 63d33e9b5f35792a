"""helirad benchmark: CLI workloads end to end, and per-layer spans in a traced run.

    python3 bench/run.py                      # every workload, both modes; table + result file
    python3 bench/run.py --workload golden --seed 1 --seconds 30 --trace 0

One workload per process. Operations go through `helirad.cli.main` in this
process, one after another (a closed loop with one client). `--trace 0`
reports the end-to-end metrics; `--trace 1` wraps helirad's module boundaries
(see tracing.py) and reports per-layer metrics. The last line of standard
output is one JSON object: correct, attempted, failed, metrics. See README.md.
"""

import argparse
import contextlib
import gzip
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing  # imports no numpy, so it may precede configure_environment

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("golden", "deep_lamb", "oracle", "fit")
SETUP_SAMPLES = 11       # fresh interpreters timed for setup_s
IMPORTTIME_SAMPLES = 3   # fresh interpreters under -X importtime, traced run
MIN_TRACED_PASSES = 2    # two traced passes, so their counts can be compared
# Time an operation spends outside its cli.main span (stdout capture, the
# timer itself); more means a pass ran work that no root span covers
UNCOVERED_PER_OP_S = 0.001
MAX_ERRORS_KEPT = 20
# Host speed drifts by 15-70% for seconds to minutes at a time on shared VMs,
# and the CPUs of one VM drift apart (a fixed loop took 13 ms on one CPU and
# 20 ms on the other at the same moment). So single-threaded work runs on one
# CPU, and a fixed pure-Python loop timed on that CPU measures the speed the
# work ran at: after every operation, for CALIBRATION_SHARE of its duration
# (at least once), and SETUP_CALIBRATION times before and after every set-up
# sample. Pass times are scaled by the median of the operations' samples,
# each set-up sample by its own; both to the speed at which this loop takes
# REFERENCE_CALIBRATION_S (its median on a quiet 2-core VM). Raw times stay in
# the report.
CALIBRATION_LOOPS = 200_000
CALIBRATION_SHARE = 0.05
SETUP_CALIBRATION = 3
REFERENCE_CALIBRATION_S = 0.012


def configure_environment():
    """Pin BLAS threads to the CPUs this process may use; returns that count.

    Must run before numpy is imported. HELIRAD_THREADS is removed so the CLI
    runs serially and the golden manifests keep recording threads: 1.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    os.environ.pop("HELIRAD_THREADS", None)
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, src)
    return nproc


def calibrate():
    """Seconds for the fixed calibration loop."""
    t0 = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return time.perf_counter() - t0


@contextlib.contextmanager
def one_cpu():
    """Confine this process, and the processes it starts, to its lowest allowed CPU."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def fresh_import(*flags):
    """Wall seconds for a new interpreter to `import helirad.cli`, and its stderr."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *flags, "-c", "import helirad.cli"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"import helirad.cli failed:\n{proc.stderr}")
    return seconds, proc.stderr


def setup_sample(flags):
    """One fresh import on one CPU; returns (raw seconds, scaled seconds, stderr)."""
    with one_cpu():
        around = [calibrate() for _ in range(SETUP_CALIBRATION)]
        seconds, stderr = fresh_import(*flags)
        around += [calibrate() for _ in range(SETUP_CALIBRATION)]
    return seconds, seconds * REFERENCE_CALIBRATION_S / statistics.median(around), stderr


def blas_threads():
    """Thread count each loaded OpenBLAS reports, keyed by the package bundling it."""
    import ctypes

    import numpy
    import scipy
    found = {}
    for pkg, symbol in ((numpy, "scipy_openblas_get_num_threads64_"),
                        (scipy, "scipy_openblas_get_num_threads")):
        libdir = Path(pkg.__file__).resolve().parent.parent / (pkg.__name__ + ".libs")
        for lib in sorted(libdir.glob("libscipy_openblas*.so")):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[pkg.__name__] = fn()
    return found


def git_sha():
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(nproc, seed):
    import numpy
    import scipy

    def blas_version(pkg):
        return pkg.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {}).get("version")

    return {
        "nproc": nproc,
        "blas_threads_set": nproc,
        "blas_threads_actual": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": {"numpy": blas_version(numpy), "scipy": blas_version(scipy)},
        "HELIRAD_THREADS": os.environ.get("HELIRAD_THREADS", "unset"),
        "git_sha": git_sha(),
        "seed": seed,
    }


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, error):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_KEPT:
                self.errors.append(error)


def run_op(cli, op, workdir, check_errors):
    """Time one CLI invocation (check excluded); returns (seconds, error, observations)."""
    out = workdir / (op.name + ".out")
    captured = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            rc = cli.main(op.argv + ["--output", str(out)])
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # an op that crashes is a failed op; keep measuring
        traceback.print_exc()
        rc = "uncaught exception"
    seconds = time.perf_counter() - t0
    if rc != 0:
        return seconds, f"{op.name}: exit {rc}", {}
    try:
        return seconds, None, op.check(out, captured.getvalue())
    except check_errors as exc:
        return seconds, f"{op.name}: {exc}", {}


def run_pass(cli, ops, workdir, tally, check_errors, calibration, tracer=None,
             after_op=None):
    """One pass over the ops, each followed by calibration samples and `after_op`.

    Returns (wall seconds, per-op seconds, bytes written, observations).
    """
    wall, per_op, bytes_out, observations = 0.0, [], 0, []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        seconds, error, obs = run_op(cli, op, workdir, check_errors)
        for _ in range(max(1, round(CALIBRATION_SHARE * seconds / REFERENCE_CALIBRATION_S))):
            calibration.append(calibrate())
        if after_op is not None:
            after_op()
        tally.record(error)
        wall += seconds
        per_op.append(seconds)
        observations.append(obs)
        for path in (workdir / (op.name + ".out"), workdir / (op.name + ".out.manifest.json")):
            if path.exists():
                bytes_out += path.stat().st_size
    return wall, per_op, bytes_out, observations


def self_test(cli, workdir):
    """Run one golden op against corrupted references; each must count as failed.

    Returns [(case, expected_failure, counted_failure)].
    """
    import workloads

    name = "line_spectrum.csv"
    argv = workloads.golden_runs()[name]
    good = (workloads.GOLDEN / name).read_bytes()
    sha = json.loads((workloads.GOLDEN / (name + ".manifest.json")).read_text())["sha256"]
    flipped = bytearray(good)
    flipped[len(flipped) // 2] ^= 0x01
    wrong = "0" * 64
    cases = [
        ("untouched golden copy", workloads.golden_check(name, good, sha), False),
        ("one flipped byte in the golden copy",
         workloads.golden_check(name, bytes(flipped), sha), True),
        ("wrong manifest digest", workloads.golden_check(name, good, wrong), True),
        ("wrong recorded digest", workloads.digest_check(wrong), True),
    ]
    results = []
    for case, check, expect_failure in cases:
        tally = Tally()
        run_pass(cli, [workloads.Op(name, list(argv), check)], workdir, tally,
                 (workloads.CheckFailed, OSError, ValueError, KeyError), [])
        results.append((case, expect_failure, tally.failed == 1))
    return results


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n <= 10:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value_s": sorted(samples)[n - 11]}


def spec_metrics(kind):
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def measure(workload, seed, seconds, trace, nproc):
    """Run one workload; returns (result line dict, detailed report dict)."""
    OUT.mkdir(exist_ok=True)
    fresh_import()  # warm-up: compiles bytecode in a fresh checkout
    flags, wanted = (("-X", "importtime"), IMPORTTIME_SAMPLES) if trace else ((), SETUP_SAMPLES)
    fresh = []

    import helirad.cli as cli
    import workloads

    check_errors = (workloads.CheckFailed, OSError, ValueError, KeyError)
    tally = Tally()
    problems = []
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(nproc, seed)}
    # BLAS-threaded workloads keep every CPU; the others run on one
    multi_cpu = workload in workloads.MULTI_CPU
    report["pinned_cpu"] = None if multi_cpu else min(os.sched_getaffinity(0))
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{workload}-") as tmp, \
            (contextlib.nullcontext() if multi_cpu else one_cpu()):
        workdir = Path(tmp)
        selftest = self_test(cli, workdir)
        report["self_test"] = [{"case": c, "expect_failure": e, "counted_failure": f}
                               for c, e, f in selftest]
        problems += [f"self-test: {c}" for c, e, f in selftest if e != f]
        ops = workloads.build(workload, workdir)
        report["ops"] = [op.name for op in ops]

        untraced, cpu, per_op, calibration = [], [], [], []
        traced, layer_passes = [], []
        tracer = tracing.Tracer()
        first_spans = None
        start = time.perf_counter()

        def sample_setup():
            # set-up samples are spread evenly over the run, between operations,
            # so host slowdowns hit set-up and passes alike
            while len(fresh) < wanted and \
                    time.perf_counter() - start >= len(fresh) * seconds / wanted:
                fresh.append(setup_sample(flags))

        while True:
            # untraced first, then alternate, so drift hits both sides alike
            use_trace = trace and bool(untraced) and (
                len(traced) < MIN_TRACED_PASSES or len(traced) < len(untraced))
            c0 = time.process_time()
            if use_trace:
                spans, layers = traced_pass(cli, ops, workdir, tally, check_errors,
                                            calibration, tracer, sample_setup, problems)
                first_spans = first_spans or spans
                traced.append(layers["trace.wall_s"])
                layer_passes.append(layers)
            else:
                wall, times, _, _ = run_pass(cli, ops, workdir, tally, check_errors,
                                             calibration, after_op=sample_setup)
                untraced.append(wall)
                per_op.append(times)
            cpu.append(time.process_time() - c0)
            done = len(untraced) >= 1 and (not trace or len(traced) >= MIN_TRACED_PASSES)
            longest = max(untraced + traced)
            if done and time.perf_counter() - start + longest > seconds:
                break
        while len(fresh) < wanted:
            fresh.append(setup_sample(flags))

    scale = REFERENCE_CALIBRATION_S / statistics.median(calibration)
    report["calibration"] = {"median_s": statistics.median(calibration),
                             "reference_s": REFERENCE_CALIBRATION_S, "scale": scale,
                             "samples": len(calibration)}
    report["passes"] = {
        "count": len(untraced),
        "wall_s": untraced,  # raw, unscaled
        "median_s": statistics.median(untraced),
        "tail": tail([scale * w for w in untraced]),
        "cpu_s_median": statistics.median(cpu),
        "op_median_s": {op.name: statistics.median(t[i] for t in per_op)
                        for i, op in enumerate(ops)},
    }
    if trace:
        metrics = combine_traced(layer_passes, problems)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        per_module = [tracing.import_times(text) for _, _, text in fresh]
        for module in ("helirad", "helirad.specfun", "helirad.spectra", "helirad.discrete",
                       "helirad.geomfit", "helirad.cli"):
            metrics[f"setup.import.{module.rsplit('.', 1)[-1]}_s"] = statistics.median(
                m[module] for m in per_module)
        report["passes"]["traced_wall_s"] = traced
        spans_path = OUT / f"spans-{workload}-seed{seed}.csv.gz"
        write_spans(spans_path, first_spans, ops)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        kind = "per_layer"
    else:
        metrics = {
            "wall_s": scale * statistics.median(untraced),
            "setup_s": statistics.median(t for _, t, _ in fresh),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report["setup_s"] = {"raw": [t for t, _, _ in fresh],
                             "scaled": [t for _, t, _ in fresh]}
        kind = "end_to_end"

    units = spec_metrics(kind)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with "
                           f"the {kind} list in BENCHMARK.json")
    report["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    report.update(attempted=tally.attempted, failed=tally.failed,
                  fail_ratio=tally.failed / tally.attempted, errors=tally.errors,
                  problems=problems)
    result = {"correct": tally.failed == 0 and not problems, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": report["metrics"]}
    return result, report


def traced_pass(cli, ops, workdir, tally, check_errors, calibration, tracer, after_op,
                problems):
    """One pass with every target wrapped; returns (spans, layer metrics of the pass)."""
    tracer.reset()
    with tracer.patched():
        wall, _, bytes_out, obs = run_pass(cli, ops, workdir, tally, check_errors,
                                           calibration, tracer, after_op)
    spans = tracer.reset()
    layers = tracing.layer_metrics(spans)
    layers["cli.bytes_out"] = bytes_out
    layers["discrete.oracle.trace_residual"] = max(
        (o["trace_residual"] for o in obs if "trace_residual" in o), default=0.0)
    layers["trace.wall_s"] = wall
    layers["cli.self_share"] = layers["cli.self_s"] / wall
    # The self times sum to the root (cli.main) spans by construction; what can
    # go wrong is a pass whose time those spans do not cover, for example when
    # the CLI's entry point is no longer the patched cli.main.
    uncovered = wall - layers["trace.self_sum_s"]
    if abs(uncovered) > UNCOVERED_PER_OP_S * len(ops):
        problems.append(f"{uncovered} s of the traced pass ({wall} s) lies outside"
                        " the cli.main spans")
    return spans, layers


def combine_traced(layer_passes, problems):
    """Counts that must repeat are checked and taken once; times are medians."""
    metrics = {}
    for key in layer_passes[0]:
        values = [p[key] for p in layer_passes]
        if key in tracing.DETERMINISTIC:
            if len(set(values)) != 1:
                problems.append(f"count {key} differs between traced passes: {values}")
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    return metrics


def write_spans(path, spans, ops):
    """One traced pass's spans as gzipped CSV, times in ns from the pass start."""
    base = spans[0][3] if spans else 0
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("id,parent,op,name,start_ns,end_ns,note\n")
        for i, (name, parent, op, t0, t1, note) in enumerate(spans):
            note = "" if note is None else str(note).replace(",", ";")
            fh.write(f"{i},{parent},{ops[op].name},{name},{t0 - base},{t1 - base},{note}\n")


def run_all(seed, seconds, out_path):
    """Every workload in its own process, untraced then traced; prints a table."""
    OUT.mkdir(exist_ok=True)
    reports = {}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            path = OUT / f"report-{workload}-trace{trace}.json"
            path.unlink(missing_ok=True)
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                 "--report", str(path)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0 or not path.exists():
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                ok = False
                continue
            report = json.loads(path.read_text(encoding="utf-8"))
            reports.setdefault(workload, {})[f"trace{trace}"] = report
            ok = ok and report["failed"] == 0 and not report["problems"]

    print(f"{'workload':<10} {'wall_s':>9} {'passes':>6} {'tail (pct: s)':>16} "
          f"{'setup_s':>8} {'peak_rss_mb':>11} {'fail_ratio':>10}")
    for workload, pair in reports.items():
        rep = pair.get("trace0")
        if rep is None:
            continue
        m = {k: v["value"] for k, v in rep["metrics"].items()}
        t = rep["passes"]["tail"]
        tail_text = f"p{t['percentile']:.0f}: {t['value_s']:.4f}" if t else "n/a"
        print(f"{workload:<10} {m['wall_s']:>9.4f} {rep['passes']['count']:>6} "
              f"{tail_text:>16} {m['setup_s']:>8.4f} {m['peak_rss_mb']:>11.1f} "
              f"{rep['fail_ratio']:>10.4g}")
    traced = [w for w, pair in reports.items() if "trace1" in pair]
    if traced:
        units = spec_metrics("per_layer")
        print(f"\n{'per-layer metric':<34} {'unit':<8}" + "".join(f"{w:>14}" for w in traced))
        for name, unit in units.items():
            cells = "".join(f"{reports[w]['trace1']['metrics'][name]['value']:>14.6g}"
                            for w in traced)
            print(f"{name:<34} {unit:<8}{cells}")

    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps({"seed": seed, "seconds": seconds, "workloads": reports},
                                   indent=2) + "\n", encoding="utf-8")
    print(f"\nresult file: {out_path}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload; omit to run all of them")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=Path, default=None,
                        help="write the detailed report of one workload here")
    parser.add_argument("--out", type=Path, default=OUT / "BENCH.json",
                        help="result file of a run over all workloads")
    args = parser.parse_args(argv)

    missing = [p for p in (SPEC, ROOT / "src" / "helirad" / "cli.py",
                           ROOT / "tests" / "golden", ROOT / "tests" / "test_golden.py")
               if not p.exists()]
    if missing:
        print("bench: not a helirad checkout, missing: "
              + ", ".join(str(p.relative_to(ROOT)) for p in missing), file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads(SPEC.read_text(encoding="utf-8"))["run_seconds"]

    nproc = configure_environment()
    if args.workload is None:
        return run_all(args.seed, seconds, args.out)

    result, report = measure(args.workload, args.seed, seconds, args.trace, nproc)
    for name, m in result["metrics"].items():
        print(f"# {args.workload} {name} = {m['value']!r} {m['unit']}")
    print(f"# attempted {result['attempted']}, failed {result['failed']}, "
          f"passes {report['passes']['count']}")
    for line in report["errors"] + report["problems"]:
        print(f"# FAILED {line}")
    if args.report is not None:
        args.report.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
