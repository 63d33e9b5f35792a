"""Subcommand behavior: schemas, manifests, exit codes, determinism."""

import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import helirad
from helirad import cli, discrete
from helirad.cli import build_parser, main
from helirad.discrete import (
    DiscreteLineParams,
    Orientation,
    discrete_line_decay,
    helix_cloud,
)
from helirad.spectra import EmitterPhysics, HelixSpec, sweep
from helirad.thermal import ThermalConfig, thermal_sweep

from .child import child_env
from .test_geomfit import synthetic_helix


def _read(path):
    return path.read_bytes().decode("utf-8")


def _rows(path):
    lines = _read(path).splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def _manifest(path):
    return json.loads((path.parent / (path.name + ".manifest.json")).read_text())


# ---------------------------------------------------------------- spectrum


def test_spectrum_line_schema_and_sentinels(tmp_path):
    out = tmp_path / "line.csv"
    rc = main(["spectrum", "line", "--kappa", "-1:1:0.5", "--output", str(out)])
    assert rc == 0
    header, rows = _rows(out)
    assert header == "kappa,gamma_norm,lamb_norm,gamma_over_gamma,class"
    assert [r[0] for r in rows] == ["-1", "-0.5", "0", "0.5", "1"]
    # the Lamb shift diverges at the light line; serialized as bare -inf
    assert rows[0][2] == "-inf" and rows[-1][2] == "-inf"
    assert all(r[4] in {"trapped", "subradiant", "superradiant"} for r in rows)
    assert _read(out).endswith("\n")


def test_spectrum_helix_matches_library(tmp_path):
    out = tmp_path / "helix.csv"
    # 1.00000000001 is past the band edge by less than the order window's
    # snap, so it reads as the edge: decay 1 and the -inf sentinel
    rc = main([
        "spectrum", "helix", "--omega", "3", "--radius", "3",
        "--kappa", "0,0.5,1,1.00000000001,1.5,2", "--output", str(out),
    ])
    assert rc == 0
    physics = EmitterPhysics(gamma=0.514, lambda0=280.0, n0=1.0 / 280.0)
    grid = [0.0, 0.5, 1.0, 1.00000000001, 1.5, 2.0]
    table = sweep(grid, HelixSpec(Omega=3.0, r=3.0), physics)
    _, rows = _rows(out)
    assert len(rows) == len(grid)
    assert rows[3][1:3] == ["1", "-inf"]
    for row, p in zip(rows, table.points):
        assert float(row[1]) == p.gamma_norm
        assert float(row[2]) == p.lamb_norm
        assert float(row[3]) == p.gamma_over_gamma
        assert row[4] == p.classification.value


def test_spectrum_flag_validation(tmp_path):
    out = str(tmp_path / "x.csv")
    bad = [
        ["spectrum", "helix", "--kappa", "0:1:0.5", "--output", out],
        ["spectrum", "line", "--omega", "3", "--kappa", "0:1:0.5", "--output", out],
        ["spectrum", "cylinder", "--kappa", "0:1:0.5", "--output", out],
        ["spectrum", "helix", "--omega", "3", "--radius", "1", "--order", "2",
         "--kappa", "0:1:0.5", "--output", out],
    ]
    for argv in bad:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_spectrum_compute_error_exits_one(tmp_path, capsys):
    rc = main([
        "spectrum", "helix", "--omega", "-3", "--radius", "1",
        "--kappa", "0:1:0.5", "--output", str(tmp_path / "x.csv"),
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    # a comma list gets nan past the parser; the order window refuses it
    (["--omega", "3", "--kappa", "0,nan"], "kappa must be finite"),
    # kappa = 1 is the first point whose real-argument orders pass M = 3
    (["--omega", "0.5", "--kappa", "0:3:0.5", "--M", "3"], "orders [0, 4]"),
    (["--omega", "3", "--kappa", "0:1:0.5", "--M", "600000"],
     "truncation half-width M=600000 sums 2M + 1 orders, over the limit of 1000000"),
])
def test_spectrum_helix_refusals_write_nothing(tmp_path, capsys, args, message):
    out = tmp_path / "x.csv"
    rc = main(["spectrum", "helix", "--radius", "1", *args, "--output", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


_KAPPA_REFUSAL = "kappa must be finite at every grid node, got "
_KAPPA_OVERFLOW = "kappa must be finite with (1 - kappa)(1 + kappa) in double range, got 1e+200"


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "line", "--kappa", "0,inf"], _KAPPA_REFUSAL + "inf"),
    (["spectrum", "cylinder", "--radius", "1", "--kappa", "0,nan"], _KAPPA_REFUSAL + "nan"),
    (["discrete-line", "--d-over-lambda", "0.05", "--orientation", "par", "--kappa", "0,inf"],
     _KAPPA_REFUSAL + "inf"),
    (["discrete-line", "--d-over-lambda", "0.05", "--orientation", "perp", "--kappa", "0,nan"],
     _KAPPA_REFUSAL + "nan"),
    (["spectrum", "cylinder", "--radius", "inf", "--kappa", "0,1"],
     "cylinder radius must be finite and >= 0, got inf"),
    # finite, but (1 - kappa)(1 + kappa) overflows
    (["spectrum", "line", "--kappa", "0,1e200"], _KAPPA_OVERFLOW),
    (["spectrum", "cylinder", "--radius", "1", "--kappa", "0,1e200"], _KAPPA_OVERFLOW),
], ids=["line-inf", "cylinder-nan", "discrete-par-inf", "discrete-perp-nan", "cylinder-radius-inf",
        "line-1e200", "cylinder-1e200"])
def test_non_finite_kappa_refusals_write_nothing(tmp_path, capsys, recwarn, argv, message):
    # a comma list gets nan and inf past the parser; every table refuses them
    rc = main([*argv, "--output", str(tmp_path / "x.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []
    # main prints a warning to stderr, where recwarn does not see it
    assert "warning:" not in err
    assert [str(w.message) for w in recwarn] == []


@pytest.mark.parametrize("order", [3_100_000_000, 2**63 - 1, -(2**63 - 1)])
def test_cylinder_orders_past_the_int64_square_keep_the_debye_limit(tmp_path, order):
    # J underflows, so each row takes -1/(pi sqrt(m^2 - x^2)), about -1/(pi |m|)
    out = tmp_path / "c.csv"
    assert main(["spectrum", "cylinder", f"--order={order}", "--radius", "1",
                 "--kappa", "0:2:0.5", "--output", str(out)]) == 0
    _, rows = _rows(out)
    assert [float(row[2]) for row in rows] == pytest.approx([-1.0 / (math.pi * abs(order))] * 5,
                                                            rel=1e-12)


@pytest.mark.parametrize("order", [-2**63, 2**63, 99999999999999999999])
def test_cylinder_orders_past_int64_are_refused_with_the_range(tmp_path, capsys, order):
    rc = main(["spectrum", "cylinder", f"--order={order}", "--radius", "1",
               "--kappa", "0:2:0.5", "--output", str(tmp_path / "c.csv")])
    assert rc == 1
    assert capsys.readouterr().err == ("error: Bessel order must lie within +-(2^63 - 1) = "
                                       f"+-9223372036854775807, got {order}\n")
    assert list(tmp_path.iterdir()) == []


def test_manifest_records_run(tmp_path):
    out = tmp_path / "line.csv"
    main(["spectrum", "line", "--kappa", "0:1:0.5", "--output", str(out)])
    man = _manifest(out)
    assert man["subcommand"] == "spectrum"
    assert man["version"] == helirad.__version__
    assert man["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
    assert man["params"]["geometry"] == "line"
    assert man["params"]["kappa"] == "0:1:0.5"
    raw = (tmp_path / "line.csv.manifest.json").read_text()
    assert raw == json.dumps(man, sort_keys=True, indent=2) + "\n"


# one small run of each subcommand, with flags off their defaults, and the
# values the run resolves for flags left to their defaults
_RULE_RUNS = {
    "spectrum": (["spectrum", "helix", "--kappa", "0:1:0.5", "--omega", "3",
                  "--radius", "3", "--M", "2", "--lambda0", "500"], {"n0": 1.0 / 500.0}),
    "spectrum-cylinder": (["spectrum", "cylinder", "--kappa", "0:1:0.5", "--radius", "2"],
                          {"n0": 1.0 / 280.0, "order": 0}),
    "trapped": (["trapped", "--omega", "3", "--kappa-max", "4"], {}),
    "thermal": (["thermal", "--series", "helix-fix-r", "--r", "1", "--omega", "2,3",
                 "--kappa", "0:1:0.5", "--beta", "2", "--M", "3"], {}),
    "thermal-helix-default-M": (["thermal", "--series", "helix-fix-omega", "--omega", "3",
                                 "--r", "1", "--kappa", "0:1:0.5"], {"M": 10}),
    "discrete-line": (["discrete-line", "--d-over-lambda", "0.1", "--orientation", "par",
                       "--kappa", "0:1:0.5"], {}),
    "oracle": (["oracle", "--generate", "helix", "--n", "20", "--R", "11.2", "--b", "7.8",
                "--spacing", "2", "--gamma", "2"], {}),
    "oracle-helix-default-spacing": (["oracle", "--generate", "helix", "--n", "20", "--R",
                                      "11.2", "--b", "7.8"], {"spacing": 1.0}),
    "fit-estimate": (["fit-estimate", "--cloud", "CLOUD", "--n0", "1.58", "--lambda0", "300"],
                     {}),
}


@pytest.mark.parametrize("run", sorted(_RULE_RUNS))
def test_manifest_params_are_the_parsed_flags(tmp_path, run):
    cloud = tmp_path / "h.txt"
    pos = synthetic_helix(11.2, 7.8, 200, turns=10).positions
    cloud.write_text("".join(f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in pos))
    out = tmp_path / "out.csv"
    argv, resolved = _RULE_RUNS[run]
    argv = [str(cloud) if a == "CLOUD" else a for a in argv]
    argv += ["--output", str(out)]
    assert main(argv) == 0
    parsed = vars(build_parser().parse_args(argv))
    want = {k: v for k, v in parsed.items()
            if k not in ("func", "parser", "output", "subcommand")}
    want.update(resolved)
    man = _manifest(out)
    assert man["subcommand"] == argv[0]
    assert man["params"] == want
    if run == "fit-estimate":
        # --n0 overrides the fitted density, and its key says so
        assert man["params"]["n0_override"] == 1.58 and "n0" not in man["params"]


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["spectrum", "helix", "--omega", "3", "--radius", "0.5",
            "--kappa", "0:3:0.1"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert _manifest(a)["sha256"] == _manifest(b)["sha256"]


# a valid run of each mode of the subcommands whose mode picks their flags
_MODE_RUNS = {
    ("spectrum", "line"): ["spectrum", "line", "--kappa", "0:1:0.5"],
    ("spectrum", "helix"): ["spectrum", "helix", "--kappa", "0:1:0.5", "--omega", "3",
                            "--radius", "3"],
    ("spectrum", "cylinder"): ["spectrum", "cylinder", "--kappa", "0:1:0.5", "--radius", "3"],
    ("thermal", "helix-fix-omega"): ["thermal", "--series", "helix-fix-omega", "--omega", "3",
                                     "--r", "1", "--kappa", "0:1:0.5"],
    ("thermal", "helix-fix-r"): ["thermal", "--series", "helix-fix-r", "--r", "3",
                                 "--omega", "1", "--kappa", "0:1:0.5"],
    ("thermal", "cylinder"): ["thermal", "--series", "cylinder", "--r", "1",
                              "--kappa", "0:1:0.5"],
    ("oracle", "pair"): ["oracle", "--generate", "pair", "--s", "10"],
    ("oracle", "line"): ["oracle", "--generate", "line", "--n", "5", "--s", "1"],
    ("oracle", "ring"): ["oracle", "--generate", "ring", "--n", "5", "--R", "3"],
    ("oracle", "helix"): ["oracle", "--generate", "helix", "--n", "5", "--R", "3", "--b", "2"],
    ("oracle", None): ["oracle", "--cloud", "cloud.txt"],
}
# a negative M on a series that reads no M once exited 1 as a compute error
_FLAG_VALUES = {"omega": "3", "radius": "3", "order": "1", "M": "-7", "r": "1", "n": "5",
                "s": "1", "R": "3", "b": "2", "spacing": "5"}
_UNREAD_FLAGS = [
    (sub, mode, flag)
    for sub, (_, modes) in cli._MODES.items() for mode, reads in modes.items()
    for flag in dict.fromkeys(f for fs in modes.values() for f in fs) if flag not in reads
]


@pytest.mark.parametrize("subcommand, mode, flag", _UNREAD_FLAGS,
                         ids=[f"{sub}-{mode or 'cloud'}-{f}" for sub, mode, f in _UNREAD_FLAGS])
def test_flags_a_mode_does_not_read_are_usage_errors(tmp_path, capsys, monkeypatch,
                                                     subcommand, mode, flag):
    # spectrum line|cylinder --M, thermal cylinder --M and --spacing on any
    # source but helix once ran as if absent and were recorded as given
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*_MODE_RUNS[subcommand, mode], f"--{flag}", _FLAG_VALUES[flag],
              "--output", "x.out"])
    assert exc.value.code == 2
    assert f"{mode or '--cloud'} takes no --{flag}\n" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_main_builds_no_parser_per_call(tmp_path, monkeypatch):
    # building the parser costs about 1.4 ms, paid by every in-process call
    calls = []

    def counting_build_parser():
        calls.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    for name in ("a.csv", "b.csv"):
        assert main(["spectrum", "line", "--kappa", "0:1:0.5",
                     "--output", str(tmp_path / name)]) == 0
    assert calls == []


def test_grid_syntax(tmp_path):
    out = str(tmp_path / "g.csv")
    assert main(["spectrum", "line", "--kappa", "-2,-0.5,0.25", "--output", out]) == 0
    _, rows = _rows(tmp_path / "g.csv")
    assert [r[0] for r in rows] == ["-2", "-0.5", "0.25"]
    for bad in ("0:1", "a:b:c", "1,0.5", "3,3", ""):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "line", "--kappa", bad, "--output", out])
        assert exc.value.code == 2


_REMOVED_FLAG_RUNS = {
    "spectrum": ["spectrum", "line", "--kappa", "0:1:0.5"],
    "thermal": ["thermal", "--series", "cylinder", "--r", "1", "--kappa", "0:1:0.5"],
    "oracle": ["oracle", "--generate", "pair", "--s", "10"],
    "fit-estimate": ["fit-estimate", "--cloud", "cloud.txt"],
}


# flags whose values no output of their subcommand read; --threads went with the thread pool
_REMOVED_FLAGS = [
    ("spectrum", "--gamma"), ("thermal", "--lambda0"), ("thermal", "--gamma"),
    ("thermal", "--n0"), ("oracle", "--n0"), ("fit-estimate", "--gamma"),
    ("spectrum", "--threads"), ("thermal", "--threads"),
]


@pytest.mark.parametrize("subcommand, flag", _REMOVED_FLAGS,
                         ids=[f"{sub}-{flag[2:]}" for sub, flag in _REMOVED_FLAGS])
def test_removed_flags_are_usage_errors(tmp_path, capsys, monkeypatch, subcommand, flag):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*_REMOVED_FLAG_RUNS[subcommand], flag, "2", "--output", "x.out"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# each emitter constant a subcommand parses, set off its default, changes its output
@pytest.mark.parametrize("argv, flag, value", [
    (["spectrum", "helix", "--omega", "3", "--radius", "3", "--kappa", "0:2:0.1"],
     "--n0", "0.01"),
    (["spectrum", "helix", "--omega", "3", "--radius", "3", "--kappa", "0:2:0.1",
      "--n0", "0.01"], "--lambda0", "300"),
    (["oracle", "--generate", "pair", "--s", "100"], "--lambda0", "300"),
    (["oracle", "--generate", "pair", "--s", "100"], "--gamma", "1"),
    (["fit-estimate", "--cloud", "CLOUD"], "--lambda0", "300"),
    (["fit-estimate", "--cloud", "CLOUD"], "--n0", "1"),
], ids=["spectrum-n0", "spectrum-lambda0", "oracle-lambda0", "oracle-gamma",
        "fit-estimate-lambda0", "fit-estimate-n0"])
def test_every_physics_flag_changes_the_output(tmp_path, argv, flag, value):
    cloud = tmp_path / "h.txt"
    pos = synthetic_helix(11.2, 7.8, 200, turns=10).positions
    cloud.write_text("".join(f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in pos))
    argv = [str(cloud) if a == "CLOUD" else a for a in argv]
    a, b = tmp_path / "a.out", tmp_path / "b.out"
    assert main([*argv, "--output", str(a)]) == 0
    assert main([*argv, flag, value, "--output", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


@pytest.mark.parametrize("bounds", ["nan:1:0.5", "0:inf:0.5", "0:1:inf"])
def test_non_finite_grid_bounds_are_named(tmp_path, capsys, bounds):
    # a nan or inf span was once reported as a grid over the size limit
    out = str(tmp_path / "x.csv")
    for argv in (["spectrum", "line"], ["thermal", "--series", "cylinder", "--r", "1"],
                 ["discrete-line", "--d-over-lambda", "0.05", "--orientation", "par"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--kappa", bounds, "--output", out])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "grid bounds must be finite, got " in err and "limit" not in err
    assert list(tmp_path.iterdir()) == []


def test_oversized_grid_is_refused_with_a_message(tmp_path, capsys):
    huge = "0:1e12:1e-3"  # 10^15 nodes
    out = str(tmp_path / "x.csv")
    for argv in (["spectrum", "line", "--kappa", huge],
                 ["discrete-line", "--d-over-lambda", "0.05", "--orientation", "par",
                  "--kappa", huge],
                 ["thermal", "--series", "cylinder", "--r", "1", "--kappa", huge]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--output", out])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "exceeds the limit of 1000000 points" in err
        assert "Traceback" not in err
    assert not os.path.exists(out)


def test_unwritable_output_exits_one(tmp_path, capsys):
    rc = main(["spectrum", "line", "--kappa", "0:1:0.5",
               "--output", str(tmp_path / "no" / "such" / "dir.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------- trapped


def test_trapped_intervals_output(tmp_path, capsys):
    out = tmp_path / "t.json"
    rc = main(["trapped", "--omega", "3", "--kappa-max", "10", "--output", str(out)])
    assert rc == 0
    payload = json.loads(_read(out))
    assert payload["intervals"] == [[1.0, 2.0], [4.0, 5.0], [7.0, 8.0], [10.0, 10.0]]
    assert math.isclose(payload["fraction"], 1.0 / 3.0, rel_tol=1e-15)
    stdout = capsys.readouterr().out
    assert "trapped intervals:" in stdout and "trapped fraction:" in stdout


def test_trapped_none_below_omega_two(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert main(["trapped", "--omega", "1.5", "--output", str(out)]) == 0
    payload = json.loads(_read(out))
    assert payload["intervals"] == [] and payload["fraction"] == 0.0
    assert "(none)" in capsys.readouterr().out


def test_trapped_wide_first_interval(tmp_path):
    out = tmp_path / "t.json"
    assert main(["trapped", "--omega", "10", "--output", str(out)]) == 0
    assert json.loads(_read(out))["intervals"][0] == [1.0, 9.0]


def test_trapped_refuses_a_million_intervals(tmp_path, capsys):
    # kappa_max/Omega = 1e6 sits on the limit, which is refused
    out = tmp_path / "t.json"
    assert main(["trapped", "--omega", "3", "--kappa-max", "3e6", "--output", str(out)]) == 1
    assert capsys.readouterr().err == ("error: kappa_max/Omega = 1000000.0 exceeds the limit of "
                                       "1000000 trapped intervals\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_value_outside_the_contract_exits_one_and_writes_nothing(tmp_path, capsys,
                                                                   monkeypatch, bad):
    # only -inf is a sentinel; a table that held nan or +inf is refused
    # before any byte is written
    monkeypatch.setattr(cli, "discrete_line_decay", lambda chain, grid: np.full(len(grid), bad))
    out = tmp_path / "x.csv"
    assert main(["discrete-line", "--d-over-lambda", "0.05", "--orientation", "par",
                 "--kappa", "0:1:0.5", "--output", str(out)]) == 1
    message = f"value {bad!r} violates the finite-or-sentinel contract"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def _cap_address_space():
    cap = 768 << 20  # the imports need about 320 MB of address space
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@pytest.mark.parametrize("args, message", [
    (["--omega", "3", "--kappa-max", "inf"], "kappa_max must be finite and > 0, got inf"),
    (["--omega", "3", "--kappa-max", "1e12"], "exceeds the limit of 1000000 trapped intervals"),
    (["--omega", "inf"], "Omega must be finite and > 0, got inf"),
], ids=["kappa-max-inf", "kappa-max-1e12", "omega-inf"])
def test_trapped_unbounded_input_is_refused(tmp_path, args, message):
    # an unbounded window once listed intervals until memory ran out; in a
    # child with capped address space and a timeout, a regression fails here
    out = tmp_path / "t.json"
    proc = _run_entry_point(["trapped", *args, "--output", str(out)],
                            preexec_fn=_cap_address_space, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert message in proc.stderr and "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "helix", "--omega", "1e-12", "--radius", "1", "--kappa", "0:1:0.5"],
     "Omega = 1e-12 gives order windows of 2/Omega >= 1000000 orders"),
    (["thermal", "--series", "helix-fix-r", "--r", "1", "--omega", "1e-12"],
     "Omega = 1e-12 gives order windows of 2/Omega >= 1000000 orders"),
    (["discrete-line", "--d-over-lambda", "1e7", "--orientation", "par", "--kappa", "0:1:0.5"],
     "d/lambda = 1e+07 puts 1000000 or more branches in the light cone"),
    (["spectrum", "helix", "--omega", "3", "--radius", "1", "--kappa", "0:1:0.5",
      "--M", "100000000"],
     "M=100000000 sums 2M + 1 orders, over the limit of 1000000"),
    (["thermal", "--series", "helix-fix-r", "--r", "1", "--omega", "1e-5"],
     "Omega = 1e-05, r = 1.0: the kappa grid's endpoints 0.0 and 5.0 widen the requested "
     "M=10 to M=600000, whose 2M + 1 orders are over the limit of 1000000"),
    (["spectrum", "helix", "--omega", "3", "--radius", "1", "--kappa", "0:999999:1",
      "--M", "400000"],
     "1000000 kappa points x 800001 orders make 800001000000 terms, over the limit of "
     "100000000"),
    (["discrete-line", "--d-over-lambda", "1e5", "--orientation", "par", "--kappa", "0:1:0.001"],
     "the order windows of 1001 kappa points hold 200201001 orders in all, over the limit of "
     "100000000 terms"),
], ids=["helix-tiny-omega", "thermal-tiny-omega", "discrete-huge-spacing", "helix-huge-M",
        "thermal-widened-M", "helix-points-times-orders", "discrete-points-times-branches"])
def test_unbounded_order_sums_are_refused(tmp_path, argv, message):
    # these once allocated TiB-sized windows or looped for hours over orders
    # or branches, or asked for 8e11 Bessel terms with each axis in bounds; a
    # regression fails here, in a capped child, not the machine
    out = tmp_path / "x.csv"
    proc = _run_entry_point([*argv, "--output", str(out)],
                            preexec_fn=_cap_address_space, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert message in proc.stderr and "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- thermal


def test_thermal_cylinder_matches_library(tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["thermal", "--series", "cylinder", "--r", "0.5,3",
               "--kappa", "0:0.2:0.1", "--output", str(out)])
    assert rc == 0
    header, rows = _rows(out)
    assert header == "x,gamma_th"
    config = ThermalConfig(beta=1.0, kappa_min=0.0, kappa_max=0.2, kappa_step=0.1, M=10)
    want = thermal_sweep([0.5, 3.0], config)
    assert [float(r[0]) for r in rows] == [0.5, 3.0]
    for row, (_, res) in zip(rows, want):
        assert float(row[1]) == res.gamma_th


def test_thermal_helix_series(tmp_path):
    out = tmp_path / "h.csv"
    rc = main(["thermal", "--series", "helix-fix-omega", "--omega", "3",
               "--r", "1,2", "--kappa", "0:0.3:0.1", "--output", str(out)])
    assert rc == 0
    _, rows = _rows(out)
    assert len(rows) == 2 and all(float(r[1]) > 0.0 for r in rows)

    out2 = tmp_path / "h2.csv"
    rc = main(["thermal", "--series", "helix-fix-r", "--r", "3",
               "--omega", "2.5,3.5", "--kappa", "0:0.3:0.1", "--output", str(out2)])
    assert rc == 0
    _, rows2 = _rows(out2)
    assert [float(r[0]) for r in rows2] == [2.5, 3.5]


def test_thermal_flag_validation(tmp_path):
    out = str(tmp_path / "x.csv")
    bad = [
        ["thermal", "--series", "helix-fix-omega", "--omega", "3,4", "--r", "1",
         "--output", out],
        ["thermal", "--series", "helix-fix-omega", "--r", "1", "--output", out],
        ["thermal", "--series", "cylinder", "--omega", "3", "--r", "1", "--output", out],
        ["thermal", "--series", "cylinder", "--output", out],
    ]
    for argv in bad:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["--series", "helix-fix-r", "--r", "3", "--omega", "0.5,3", "--M", "-5"],
], ids=["helix"])
def test_thermal_negative_truncation_exits_one(tmp_path, capsys, argv):
    # a helix entry once ran at its widened M and recorded the negative one
    out = tmp_path / "x.csv"
    assert main(["thermal", *argv, "--kappa", "0:1:0.5", "--output", str(out)]) == 1
    m = argv[-1]
    assert capsys.readouterr().err == f"error: truncation half-width M must be >= 0, got {m}\n"
    assert list(tmp_path.iterdir()) == []


def test_thermal_at_large_beta_exits_zero(tmp_path):
    # e^{-beta E_max} overflows at r = 0.1 (E_max = -0.636); the weights do not
    out = tmp_path / "c.csv"
    assert main(["thermal", "--series", "cylinder", "--r", "0.1,3", "--beta", "1e4",
                 "--output", str(out)]) == 0
    _, rows = _rows(out)
    assert [r[0] for r in rows] == ["0.10000000000000001", "3"]
    assert all(0.0 < float(r[1]) < 1.0 for r in rows)


# ---------------------------------------------------------------- discrete line


def test_discrete_line_table(tmp_path):
    out = tmp_path / "d.csv"
    rc = main(["discrete-line", "--d-over-lambda", "0.05", "--orientation", "perp",
               "--kappa", "0.5,1,1.5", "--output", str(out)])
    assert rc == 0
    header, rows = _rows(out)
    assert header == "kappa,E_over_gamma,Gamma_over_gamma"
    assert rows[1][0] == "1" and rows[1][1] == "-inf"
    params = DiscreteLineParams(k0d=2.0 * math.pi * 0.05,
                                orientation=Orientation.PERPENDICULAR)
    for row in rows:
        assert float(row[2]) == discrete_line_decay(params, float(row[0]))


def test_discrete_line_finite_off_asymptote(tmp_path):
    out = tmp_path / "d.csv"
    rc = main(["discrete-line", "--d-over-lambda", "0.05", "--orientation", "par",
               "--kappa", "0:0.9:0.3", "--output", str(out)])
    assert rc == 0
    _, rows = _rows(out)
    for row in rows:
        assert math.isfinite(float(row[1])) and math.isfinite(float(row[2]))


@pytest.mark.parametrize("d_over_lambda, orientation", [("1e-300", "perp"), ("1e300", "par")])
def test_discrete_line_spacing_outside_double_range(tmp_path, capsys, d_over_lambda,
                                                    orientation):
    # k0d^3 once underflowed to 0, giving an inf shift, or overflowed in k0d**3
    rc = main(["discrete-line", "--d-over-lambda", d_over_lambda, "--orientation", orientation,
               "--kappa", "0:1:0.5", "--output", str(tmp_path / "d.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "has a cube outside double range" in err and "spacing k0d = " in err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- oracle


def test_oracle_pair_summary(tmp_path, capsys):
    out = tmp_path / "pair.csv"
    rc = main(["oracle", "--generate", "pair", "--s", "10", "--lambda0", "280",
               "--gamma", "1.0", "--output", str(out)])
    assert rc == 0
    header, rows = _rows(out)
    assert header == "j,ev_re,ev_im,gamma_j,lamb_j"
    assert [r[0] for r in rows] == ["0", "1"]
    x = 2.0 * math.pi * 10.0 / 280.0
    sinc = math.sin(x) / x
    assert math.isclose(float(rows[0][3]), 2.0 * (1.0 + sinc), rel_tol=1e-12)
    assert math.isclose(float(rows[1][3]), 2.0 * (1.0 - sinc), rel_tol=1e-12)
    stdout = capsys.readouterr().out
    assert "emitters: 2" in stdout
    assert "max Gamma_j / Gamma_single:" in stdout
    assert "subradiant fraction:" in stdout


def test_oracle_from_cloud_file(tmp_path):
    cloud = tmp_path / "c.txt"
    cloud.write_text("0 0 0\n0 0 140\n# comment\n")
    out = tmp_path / "c.csv"
    rc = main(["oracle", "--cloud", str(cloud), "--lambda0", "280",
               "--output", str(out)])
    assert rc == 0
    _, rows = _rows(out)
    assert len(rows) == 2


def test_oracle_flag_validation(tmp_path):
    out = str(tmp_path / "x.csv")
    bad = [
        ["oracle", "--output", out],
        ["oracle", "--cloud", "a.txt", "--generate", "pair", "--s", "1",
         "--output", out],
        ["oracle", "--generate", "line", "--s", "1", "--output", out],
        ["oracle", "--generate", "helix", "--n", "9", "--R", "1", "--output", out],
        # generator flags that the source does not read
        ["oracle", "--generate", "pair", "--s", "10", "--n", "5", "--output", out],
        ["oracle", "--generate", "pair", "--s", "10", "--R", "3", "--b", "2", "--output", out],
        ["oracle", "--generate", "line", "--n", "5", "--s", "1", "--R", "3", "--output", out],
        ["oracle", "--generate", "ring", "--n", "50", "--R", "20", "--s", "3", "--output", out],
        ["oracle", "--generate", "ring", "--n", "50", "--R", "20", "--b", "9", "--output", out],
        ["oracle", "--generate", "helix", "--n", "9", "--R", "1", "--b", "2", "--s", "1",
         "--output", out],
        ["oracle", "--cloud", "a.txt", "--n", "5", "--output", out],
    ]
    for argv in bad:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("args, message", [
    (["line", "--n", "5", "--s", "inf"], "spacing must be finite and > 0, got inf"),
    (["ring", "--n", "5", "--R", "inf"], "radius must be finite and > 0, got inf"),
    (["helix", "--n", "5", "--R", "inf", "--b", "7.8"], "radius must be finite and > 0, got inf"),
    (["helix", "--n", "5", "--R", "11.2", "--b", "inf"], "pitch must be finite and > 0, got inf"),
    (["helix", "--n", "5", "--R", "11.2", "--b", "7.8", "--spacing", "inf"],
     "spacing must be finite and > 0, got inf"),
    (["pair", "--s", "1e300"],
     "emitter separations overflow: the cloud spans [0.0, 0.0, 1e+300] nm at k0 = 0.0224399/nm"),
    (["line", "--n", "3", "--s", "1e200"],
     "emitter separations overflow: the cloud spans [0.0, 0.0, 2e+200] nm at k0 = 0.0224399/nm"),
    (["pair", "--s", "1e150", "--lambda0", "1e-160"],
     "emitter separations overflow: the cloud spans [0.0, 0.0, 1e+150] nm "
     "at k0 = 6.28319e+160/nm"),
    (["pair", "--s", "1", "--gamma", "1e308"],
     "gamma / (k0 r) overflows at rows 0 and 1, k0 r = 0.0224399"),
    (["line", "--n", "3", "--s", "1e308"],
     "spacing = 1e+308 nm is too large: 3 emitters would span 2 times it, beyond double range"),
    (["helix", "--n", "3", "--R", "1e-300", "--b", "1e-300", "--spacing", "1e10"],
     "phase step spacing / hypot(radius, pitch / 2 pi) = inf rad is too large: "
     "3 emitters would span 2 times it, beyond double range"),
])
def test_oracle_overflowing_input_is_refused_without_warnings(tmp_path, capsys, args, message):
    # numpy's RuntimeWarnings are errors under this suite's filterwarnings
    out = tmp_path / "x.csv"
    assert main(["oracle", "--generate", *args, "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["line", "--n", "5", "--s", "1e308"],
     "spacing = 1e+308 nm is too large: 5 emitters would span 4 times it, beyond double range"),
    (["helix", "--n", "10", "--R", "1", "--b", "7", "--spacing", "1e308"],
     "spacing = 1e+308 nm is too large: 10 emitters would span 9 times it, beyond double range"),
    (["helix", "--n", "10", "--R", "1e-300", "--b", "1e-300", "--spacing", "1e300"],
     "phase step spacing / hypot(radius, pitch / 2 pi) = inf rad is too large: "
     "10 emitters would span 9 times it, beyond double range"),
])
def test_oracle_generator_overflow_is_refused_under_warning_errors(tmp_path, args, message):
    # a fresh interpreter, so the warning filter is the command line's and
    # nothing else's; a numpy overflow would end in a traceback
    out = tmp_path / "x.csv"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "helirad.cli",
         "oracle", "--generate", *args, "--output", str(out)],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (1, f"error: {message}\n")
    assert not out.exists()


def _bessel_overflow(omega, r, kappa, m):
    return (f"Omega = {omega}, r = {r}: the Bessel argument r sqrt|1 - (kappa - m Omega)^2| "
            f"exceeds double range at kappa = {kappa}, m = {m}")


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "helix", "--omega", "1e308", "--radius", "1", "--kappa", "0:1:0.5"],
     _bessel_overflow(1e308, 1.0, 0.0, -10)),
    (["spectrum", "helix", "--omega", "3", "--radius", "1e308", "--kappa", "0:1:0.5"],
     _bessel_overflow(3.0, 1e308, 0.0, -10)),
    (["thermal", "--series", "cylinder", "--r", "1e308"], _bessel_overflow(0.0, 1e308, 2.06, 0)),
    (["thermal", "--series", "helix-fix-omega", "--omega", "1e307", "--r", "1"],
     _bessel_overflow(1e307, 1.0, 0.0, -10)),
], ids=["helix-omega", "helix-radius", "thermal-cylinder", "thermal-helix"])
def test_a_bessel_argument_past_double_range_is_one_error_line(tmp_path, argv, message):
    # a fresh interpreter with numpy's warnings shown, not raised: the
    # overflow once printed "warning: overflow encountered in multiply"
    # ahead of an error that named no input
    out = tmp_path / "x.csv"
    proc = subprocess.run(
        [sys.executable, "-W", "default::RuntimeWarning", "-m", "helirad.cli", *argv,
         "--output", str(out)],
        capture_output=True, text=True, env=child_env(PYTHONWARNINGS=""), timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (1, f"error: {message}\n")
    assert not out.exists()


def test_oracle_size_limit_precedes_the_kernel_build(tmp_path, capsys):
    cloud = tmp_path / "big.txt"
    cloud.write_text("".join(f"0 0 {z}\n" for z in range(4001)))
    # numpy reports its array buffers to tracemalloc, so the peak counts a
    # kernel as soon as it is allocated: 4001 x 4001 complex is 256 MB
    tracemalloc.start()
    try:
        rc = main(["oracle", "--cloud", str(cloud), "--output", str(tmp_path / "x.csv")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert "N = 4001 exceeds the dense-solver limit 4000" in capsys.readouterr().err
    assert peak < 8 * 2**20


def test_oracle_size_limit_precedes_the_generator(tmp_path, capsys, monkeypatch):
    def no_generator(*args, **kwargs):
        raise AssertionError("a generator ran for an oversized cloud")

    out = str(tmp_path / "x.csv")
    for kind, shape in (("line", ["--s", "1"]), ("ring", ["--R", "1"]),
                        ("helix", ["--R", "1", "--b", "1"])):
        monkeypatch.setattr(f"helirad.cli.{kind}_cloud", no_generator)
        rc = main(["oracle", "--generate", kind, "--n", "4001", *shape, "--output", out])
        assert rc == 1
        assert "N = 4001 exceeds the dense-solver limit 4000" in capsys.readouterr().err


def _write_cloud(path, positions):
    path.write_text("".join(f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in positions))


def test_oracle_reports_trace_residual_and_eigensolve(tmp_path, capsys):
    out = tmp_path / "helix.csv"
    rc = main(["oracle", "--generate", "helix", "--n", "60", "--R", "11.2",
               "--b", "7.8", "--output", str(out)])
    assert rc == 0
    blas_threads = None if discrete._SET_BLAS_THREADS is None else 1
    manifest = _manifest(out)
    assert manifest["eigensolve"] == "centrosymmetric"
    assert manifest["blas_threads"] == blas_threads
    lines = capsys.readouterr().out.splitlines()
    residual = float(dict(line.split(": ") for line in lines)["trace residual"])
    assert 0.0 <= residual < 1e-13
    assert manifest["trace_residual"] == residual
    _, rows = _rows(out)
    total = 60 * 0.514
    assert residual == abs(math.fsum(float(r[1]) for r in rows) - total) / total

    cloud = tmp_path / "random.xyz"
    _write_cloud(cloud, np.random.default_rng(3).uniform(0.0, 50.0, size=(60, 3)))
    out = tmp_path / "random.csv"
    assert main(["oracle", "--cloud", str(cloud), "--output", str(out)]) == 0
    manifest = _manifest(out)
    assert manifest["eigensolve"] == "dense"
    assert manifest["blas_threads"] == blas_threads
    lines = capsys.readouterr().out.splitlines()
    residual = float(dict(line.split(": ") for line in lines)["trace residual"])
    assert manifest["trace_residual"] == residual


@pytest.mark.skipif(discrete._SET_BLAS_THREADS is None,
                    reason="needs OpenBLAS's openblas_set_num_threads_local")
def test_oracle_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, monkeypatch):
    # odd N takes the bordered centrosymmetric split; a random cloud, the
    # dense solve
    cloud = tmp_path / "random.xyz"
    _write_cloud(cloud, np.random.default_rng(13).uniform(0.0, 50.0, size=(60, 3)))
    runs = {"helix": ["--generate", "helix", "--n", "501", "--R", "11.2", "--b", "7.8"],
            "cloud": ["--cloud", str(cloud)]}
    for name, argv in runs.items():
        written = []
        for threads in ("1", "2"):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
            out = tmp_path / f"{name}-{threads}.csv"
            proc = _run_entry_point(["oracle", *argv, "--output", str(out)], timeout=120)
            assert proc.returncode == 0, proc.stderr
            manifest = tmp_path / (out.name + ".manifest.json")
            written.append((out.read_bytes(), manifest.read_bytes()))
        assert written[0] == written[1], name


def test_oracle_cloud_file_of_a_generated_helix_matches_generate(tmp_path):
    cloud = tmp_path / "helix.xyz"
    _write_cloud(cloud, helix_cloud(81, 11.2, 7.8, 1.0).positions)
    a, b = tmp_path / "file.csv", tmp_path / "gen.csv"
    assert main(["oracle", "--cloud", str(cloud), "--output", str(a)]) == 0
    assert main(["oracle", "--generate", "helix", "--n", "81", "--R", "11.2",
                 "--b", "7.8", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert _manifest(a)["eigensolve"] == _manifest(b)["eigensolve"] == "centrosymmetric"


def test_oracle_missing_cloud_file_exits_one(tmp_path, capsys):
    rc = main(["oracle", "--cloud", str(tmp_path / "nope.txt"),
               "--output", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------- fit-estimate


def test_fit_estimate_record(tmp_path, capsys):
    cloud = tmp_path / "mt.txt"
    pos = synthetic_helix(11.2, 7.8, 200, turns=10).positions
    cloud.write_text("".join(f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in pos))
    out = tmp_path / "report.txt"
    rc = main(["fit-estimate", "--cloud", str(cloud), "--n0", "1.58",
               "--lambda0", "280", "--output", str(out)])
    assert rc == 0
    text = _read(out)
    assert capsys.readouterr().out == text
    record = dict(line.split("=", 1) for line in text.splitlines())
    assert list(record) == [
        "R_nm", "b_nm", "n0_per_nm", "Omega", "r", "gamma_max_over_gamma",
        "trapped_percent", "axis_x", "axis_y", "axis_z", "phase_rad",
        "handedness", "rms_residual_nm",
    ]
    assert math.isclose(float(record["R_nm"]), 11.2, rel_tol=1e-6)
    assert math.isclose(float(record["b_nm"]), 7.8, rel_tol=1e-6)
    assert float(record["n0_per_nm"]) == 1.58
    assert math.isclose(float(record["gamma_max_over_gamma"]), 442.4, rel_tol=1e-12)
    assert abs(float(record["trapped_percent"]) - 94.43) < 5e-3
    assert record["handedness"] == "right"
    assert float(record["rms_residual_nm"]) < 1e-9
    man = _manifest(out)
    assert man["subcommand"] == "fit-estimate"
    assert man["params"]["n0_override"] == 1.58


def test_fit_estimate_uses_fitted_density_without_override(tmp_path):
    cloud = tmp_path / "h.txt"
    pos = synthetic_helix(11.2, 7.8, 200, turns=10).positions
    cloud.write_text("".join(f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in pos))
    out = tmp_path / "report.txt"
    assert main(["fit-estimate", "--cloud", str(cloud), "--output", str(out)]) == 0
    record = dict(line.split("=", 1) for line in _read(out).splitlines())
    want_n0 = 200.0 / (10.0 * math.hypot(7.8, 2.0 * math.pi * 11.2))
    assert math.isclose(float(record["n0_per_nm"]), want_n0, rel_tol=1e-9)
    assert math.isclose(
        float(record["gamma_max_over_gamma"]), want_n0 * 280.0, rel_tol=1e-9
    )


def test_fit_estimate_refuses_an_omega_without_order_windows(tmp_path, capsys):
    # Omega = lambda0/b = 1e-6/7.8 leaves no order window to take the peak over
    cloud = tmp_path / "h.txt"
    pos = synthetic_helix(11.2, 7.8, 50, turns=3).positions
    cloud.write_text("".join(f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in pos))
    out = tmp_path / "x.txt"
    rc = main(["fit-estimate", "--cloud", str(cloud), "--lambda0", "1e-6",
               "--output", str(out)])
    assert rc == 1
    assert "gives order windows of 2/Omega >= 1000000 orders" in capsys.readouterr().err
    assert not out.exists()


def test_fit_estimate_refuses_a_peak_search_over_the_work_limit(tmp_path, capsys):
    # Omega = lambda0/b = 3.9e-5/7.8 = 5e-6 holds order windows, but the
    # peak search over them passes the 1e8-term limit
    cloud = tmp_path / "h.txt"
    pos = synthetic_helix(11.2, 7.8, 200, turns=10).positions
    cloud.write_text("".join(f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in pos))
    out = tmp_path / "x.txt"
    rc = main(["fit-estimate", "--cloud", str(cloud), "--lambda0", "3.9e-5",
               "--output", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Omega = lambda0/b = 5e-06 is too small for the peak-rate search" in err
    assert "over the limit of 100000000 terms" in err
    assert not out.exists()


def test_fit_estimate_prints_a_warning_as_one_line(tmp_path, capsys):
    # 200 emitters a unit arc length apart span under 3 turns of this helix,
    # and its fit lies farther from the points in RMS than its own radius
    cloud = tmp_path / "h.txt"
    pos = helix_cloud(200, 11.2, 7.8).positions.tolist()
    cloud.write_text("".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in pos))
    rc = main(["fit-estimate", "--cloud", str(cloud), "--output", str(tmp_path / "r.txt")])
    assert rc == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("warning: rms point-to-curve distance ")
    assert lines[0].endswith(" the helix does not describe the cloud")


def test_fit_estimate_warning_raised_as_an_error_exits_one(tmp_path):
    # under -W error the same FitWarning is raised, and is reported as an error
    cloud = tmp_path / "h.txt"
    pos = helix_cloud(200, 11.2, 7.8).positions.tolist()
    cloud.write_text("".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in pos))
    out = tmp_path / "r.txt"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "helirad.cli",
         "fit-estimate", "--cloud", str(cloud), "--output", str(out)],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: rms point-to-curve distance ")
    assert proc.stderr.endswith(" the helix does not describe the cloud\n")
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


def test_fit_estimate_degenerate_cloud_exits_one(tmp_path, capsys):
    cloud = tmp_path / "line.txt"
    cloud.write_text("".join(f"0 0 {z}\n" for z in range(10)))
    rc = main(["fit-estimate", "--cloud", str(cloud),
               "--output", str(tmp_path / "x.txt")])
    assert rc == 1
    assert "collinear" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["spectrum", "line", "--kappa", "0:1:0.5"],
    ["oracle", "--generate", "pair", "--s", "1"],
    ["fit-estimate", "--cloud", "cloud.txt"],
], ids=["spectrum", "oracle", "fit-estimate"])
def test_zero_wavelength_is_refused_before_dividing(tmp_path, capsys, monkeypatch, argv):
    # the default n0 = 1/lambda0 once divided by zero first
    monkeypatch.chdir(tmp_path)
    pos = synthetic_helix(11.2, 7.8, 50, turns=3).positions
    (tmp_path / "cloud.txt").write_text("".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in pos))
    rc = main([*argv, "--lambda0", "0", "--output", "x.out"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "EmitterPhysics.lambda0 must be positive and finite, got 0.0" in err
    assert not (tmp_path / "x.out").exists()


# ---------------------------------------------------------------- entry point


def _console_entry_point():
    """The `helirad` target named in pyproject.toml's [project.scripts]."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    section = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    scripts = {}
    for line in section.splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            scripts[key.strip()] = value.strip().strip('"')
    return scripts["helirad"]


def _run_entry_point(args, **run_kwargs):
    """Run the console entry point the way pip's generated script does.

    The child finds the package where this process imported it, so the test
    needs no install and no particular working directory.  `run_kwargs` go
    to subprocess.run.
    """
    module, func = _console_entry_point().split(":")
    return subprocess.run(
        [sys.executable, "-c",
         f"import sys; from {module} import {func}; sys.exit({func}())", *args],
        input="",
        capture_output=True,
        text=True,
        env=child_env(),
        **run_kwargs,
    )


def test_console_script_smoke(tmp_path):
    assert _console_entry_point() == "helirad.cli:main"
    # no subcommand is a usage error
    assert _run_entry_point([]).returncode == 2

    out = tmp_path / "s.csv"
    proc = _run_entry_point(
        ["spectrum", "line", "--kappa", "0:1:0.5", "--output", str(out)]
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists() and _manifest(out)["subcommand"] == "spectrum"


_IMPORT_GUARD = """
import json, sys
def loaded():
    # every scipy module and numpy.f2py, which only the scipy.special package
    # loads, plus the module specfun takes its Bessel ufuncs from: loaded
    # alone, that extension leaves no entry in sys.modules
    names = {{m for m in sys.modules if m.startswith("scipy") or m == "numpy.f2py"}}
    specfun = sys.modules.get("helirad.specfun")
    if specfun and specfun._special.cache_info().currsize:
        names.add(specfun._special().__name__)
    return sorted(names)
import helirad
steps = [("import helirad", 0, loaded())]
import helirad.cli
steps.append(("import helirad.cli", 0, loaded()))
for argv in {argvs!r}:
    try:
        code = helirad.cli.main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    steps.append((argv[0], code, loaded()))
print(json.dumps(steps))
"""


def _import_guard(argvs):
    """(name, exit code, scipy modules loaded after it) for the imports, then each argv."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD.format(argvs=argvs)],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [tuple(step) for step in json.loads(proc.stdout.splitlines()[-1])]


def test_table_subcommands_do_not_load_the_oracle_and_fit_scipy_modules(tmp_path):
    # scipy's Bessel extension costs about 2 ms and 1 MB of a fresh process
    # (the whole scipy.special package 0.14 s and 19 MB) and loads on the
    # first call that computes with it; the fit's refinement is numpy's, and
    # estimate's peak rate at Omega >= 2 is a closed form
    cloud = tmp_path / "h.txt"
    pos = synthetic_helix(11.2, 7.8, 50, turns=3).positions
    cloud.write_text("".join(f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in pos))

    def out(argv):
        return [*argv, "--output", str(tmp_path / f"{argv[0]}.txt")]

    scipy_free = [
        ["spectrum", "line", "--kappa", "0:1:0.5"],
        ["trapped", "--omega", "3", "--kappa-max", "4"],
        ["oracle", "--generate", "pair", "--s", "100"],
        ["fit-estimate", "--cloud", str(cloud)],  # Omega = 280/7.8 ~ 36
    ]
    special = ["scipy.special._special_ufuncs"]
    steps = _import_guard([["--help"], *map(out, scipy_free),
                           out(["spectrum", "helix", "--omega", "3", "--radius", "1",
                                "--kappa", "0:1:0.5"])])
    assert steps[:-1] == [("import helirad", 0, []), ("import helirad.cli", 0, []),
                          ("--help", 0, [])] + [(argv[0], 0, []) for argv in scipy_free]
    assert steps[-1] == ("spectrum", 0, special)
    # a fresh process each, since a module once loaded stays loaded; the
    # discrete line's polylogs read a literal zeta table
    argv = ["thermal", "--series", "helix-fix-omega", "--omega", "3", "--r", "1",
            "--kappa", "0:1:0.5"]
    assert _import_guard([out(argv)])[2] == (argv[0], 0, special)
    argv = ["discrete-line", "--d-over-lambda", "0.3", "--orientation", "par",
            "--kappa", "0:1:0.5"]
    assert _import_guard([out(argv)])[2] == (argv[0], 0, [])
    # below Omega = 2 estimate searches the decay for its peak
    argv = ["fit-estimate", "--cloud", str(cloud), "--lambda0", "7.8"]
    assert _import_guard([out(argv)])[2] == (argv[0], 0, special)


@pytest.mark.skipif(shutil.which("helirad") is None,
                    reason="no installed helirad executable on PATH")
def test_installed_console_script(tmp_path):
    out = tmp_path / "s.csv"
    proc = subprocess.run(
        ["helirad", "spectrum", "line", "--kappa", "0:1:0.5",
         "--output", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists() and _manifest(out)["subcommand"] == "spectrum"
