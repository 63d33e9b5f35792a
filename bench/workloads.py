"""The benchmark's workloads: CLI operations, their inputs and their output checks.

Each workload is a list of `Op`s. An op is one `helirad` CLI invocation (its
argv without `--output`) plus a check that reads what the invocation wrote and
raises `CheckFailed` when the output is wrong. A check returns a dict of
observations (for example the oracle's trace residual) for the traced run.
"""

import ast
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

GAMMA = 0.514  # the CLI's default single-emitter rate, 1/ns


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass(frozen=True)
class Op:
    name: str
    argv: list
    check: Callable  # (output Path, captured stdout str) -> dict


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


# ------------------------------------------------------------------ golden

def golden_runs():
    """The golden argv table, read from tests/test_golden.py so both stay one list."""
    tree = ast.parse((ROOT / "tests" / "test_golden.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "RUNS"):
            return ast.literal_eval(node.value)
    raise RuntimeError("tests/test_golden.py has no RUNS table")


def golden_check(name, expected_bytes, expected_sha):
    def check(out, stdout):
        data = out.read_bytes()
        if data != expected_bytes:
            raise CheckFailed(f"output differs from tests/golden/{name}")
        digest = _sha256(data)
        if digest != expected_sha:
            raise CheckFailed(f"sha256 {digest} != stored manifest {expected_sha}")
        written = json.loads(Path(str(out) + ".manifest.json").read_text(encoding="utf-8"))
        if written["sha256"] != expected_sha:
            raise CheckFailed(f"written manifest records {written['sha256']}")
        return {}
    return check


def golden_ops():
    ops = []
    for name, argv in sorted(golden_runs().items()):
        stored = json.loads((GOLDEN / (name + ".manifest.json")).read_text(encoding="utf-8"))
        check = golden_check(name, (GOLDEN / name).read_bytes(), stored["sha256"])
        ops.append(Op(name, list(argv), check))
    return ops


# --------------------------------------------------------------- deep_lamb

# sha256 of the outputs as the seed code writes them
DEEP_LAMB = [
    ("helix_omega005_M120.csv",
     ["spectrum", "helix", "--omega", "0.05", "--radius", "3",
      "--kappa", "0:5:0.01", "--M", "120"],
     "0612917de573439620efda4c9d7620c8e4d59b66b1d06ec993b12c739d0b18ca"),
    ("thermal_helix_fix_r3_low_omega.csv",
     ["thermal", "--series", "helix-fix-r", "--r", "3", "--omega", "0.05,0.1,0.2"],
     "04a109aff73b25ed66e242e1b6bc112f091634953517be9554e8b0e3952af4e9"),
]


def digest_check(expected_sha):
    def check(out, stdout):
        digest = _sha256(out.read_bytes())
        if digest != expected_sha:
            raise CheckFailed(f"sha256 {digest} != recorded {expected_sha}")
        return {}
    return check


def deep_lamb_ops():
    return [Op(name, argv, digest_check(sha)) for name, argv, sha in DEEP_LAMB]


# ------------------------------------------------------------------ oracle

# seed-code values per N: brightest Gamma_j / (2 gamma) and subradiant fraction
ORACLE_SEED = {
    500: (463.7604855939442, 0.99),
    1000: (818.5157080497867, 0.992),
    2000: (1142.3903161435373, 0.9935),
}
ORACLE_TRACE_TOL = 1e-10  # relative |sum Re EV - N gamma| / (N gamma)
ORACLE_BRIGHT_RTOL = 1e-9
ORACLE_SUBRADIANT_MODES = 2  # fraction may move by this many modes over N


def oracle_check(n):
    bright_ref, frac_ref = ORACLE_SEED[n]

    def check(out, stdout):
        with open(out, encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "j,ev_re,ev_im,gamma_j,lamb_j":
                raise CheckFailed(f"header {header!r}")
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
        if table.shape != (n, 5):
            raise CheckFailed(f"table shape {table.shape}")
        if not np.all(np.isfinite(table)):
            raise CheckFailed("non-finite value")
        if not np.array_equal(table[:, 0], np.arange(n)):
            raise CheckFailed("row index column is not 0..N-1")
        residual = abs(math.fsum(table[:, 1]) - n * GAMMA) / (n * GAMMA)
        if not residual <= ORACLE_TRACE_TOL:
            raise CheckFailed(f"trace residual {residual:.3g}")
        bright = float(table[:, 3].max()) / (2.0 * GAMMA)
        if abs(bright - bright_ref) > ORACLE_BRIGHT_RTOL * bright_ref:
            raise CheckFailed(f"brightest {bright!r} != seed {bright_ref!r}")
        frac = float(np.count_nonzero(table[:, 3] < 2.0 * GAMMA)) / n
        if abs(frac - frac_ref) > ORACLE_SUBRADIANT_MODES / n:
            raise CheckFailed(f"subradiant fraction {frac} != seed {frac_ref}")
        return {"trace_residual": residual}
    return check


def oracle_ops():
    return [
        Op(f"oracle_helix_n{n}",
           ["oracle", "--generate", "helix", "--n", str(n), "--R", "11.2", "--b", "7.8"],
           oracle_check(n))
        for n in sorted(ORACLE_SEED)
    ]


# --------------------------------------------------------------------- fit

FIT_R, FIT_B, FIT_TURNS, FIT_JITTER = 11.2, 7.8, 10, 0.05  # nm, nm, turns, nm
FIT_POOL = ((200, 12), (1000, 2))  # (N, rotated clouds of that size)
# The clouds come from fixed streams, one per size, not from --seed: the fit's
# run time is a chaotic function of the cloud (a losing axis sometimes runs to
# max_nfev, ~10x the usual cost), so seed-drawn clouds give seed-to-seed
# spreads wider than any bound. The traced run counts those max_nfev hits
# (geomfit.lsq.max_nfev_hits). See bench/README.md.
FIT_STREAM = 22468
FIT_RTOL = 0.02


def _random_rotation(rng):
    q = rng.standard_normal(4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def fit_clouds():
    """(label, positions) for each cloud: a right-handed jittered helix, rotated."""
    clouds = []
    for n, draws in FIT_POOL:
        rng = np.random.default_rng([FIT_STREAM, n])
        phi = np.linspace(0.0, FIT_TURNS * 2.0 * math.pi, n)
        helix = np.column_stack([FIT_R * np.cos(phi), FIT_R * np.sin(phi),
                                 (FIT_B / (2.0 * math.pi)) * phi])
        for k in range(draws):
            pos = helix @ _random_rotation(rng).T + rng.normal(0.0, FIT_JITTER, (n, 3))
            clouds.append((f"fit_n{n}_draw{k}", pos))
    return clouds


def fit_check(out, stdout):
    text = out.read_text(encoding="utf-8")
    if stdout != text:
        raise CheckFailed("printed record differs from the output file")
    record = dict(line.split("=", 1) for line in text.splitlines())
    R, b = float(record["R_nm"]), float(record["b_nm"])
    if abs(R - FIT_R) > FIT_RTOL * FIT_R or abs(b - FIT_B) > FIT_RTOL * FIT_B:
        raise CheckFailed(f"fitted R={R} b={b}, truth R={FIT_R} b={FIT_B}")
    if record["handedness"] != "right":
        raise CheckFailed(f"handedness {record['handedness']}")
    return {}


def fit_ops(workdir):
    ops = []
    for name, pos in fit_clouds():
        path = workdir / (name + ".xyz")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in pos.tolist())
        ops.append(Op(name, ["fit-estimate", "--cloud", str(path)], fit_check))
    return ops


# -------------------------------------------------------------- registry

# workloads whose time goes to BLAS threads on every CPU (oracle's zgeev);
# the others do single-threaded work
MULTI_CPU = {"oracle"}


def build(workload, workdir):
    """The ops of one workload; inputs it needs are written under workdir."""
    if workload == "golden":
        return golden_ops()
    if workload == "deep_lamb":
        return deep_lamb_ops()
    if workload == "oracle":
        return oracle_ops()
    if workload == "fit":
        return fit_ops(workdir)
    raise ValueError(f"unknown workload {workload!r}")
