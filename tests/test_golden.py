"""Version-controlled reference datasets regenerate byte-identically."""

import hashlib
import json
import math
from pathlib import Path

import pytest

from helirad.cli import main

GOLDEN = Path(__file__).parent / "golden"

RUNS = {
    "line_spectrum.csv": ["spectrum", "line", "--kappa", "-2:2:0.01"],
    "helix_omega3_r3.csv": [
        "spectrum", "helix", "--omega", "3", "--radius", "3", "--kappa", "0:5:0.01",
    ],
    "thermal_helix_fix_omega3.csv": [
        "thermal", "--series", "helix-fix-omega", "--omega", "3",
        "--r", "0.1,0.5,1,2,3,5,10",
    ],
    "thermal_helix_fix_r3.csv": [
        "thermal", "--series", "helix-fix-r", "--r", "3",
        "--omega", "0.1,0.5,1,2,3,5,10",
    ],
    "thermal_cylinder.csv": [
        "thermal", "--series", "cylinder", "--r", "0.1,0.5,1,2,3,5,10",
    ],
    "discrete_par_d005.csv": [
        "discrete-line", "--d-over-lambda", "0.05", "--orientation", "par",
        "--kappa", "-2:2:0.01",
    ],
    "discrete_perp_d005.csv": [
        "discrete-line", "--d-over-lambda", "0.05", "--orientation", "perp",
        "--kappa", "-2:2:0.01",
    ],
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_regenerates_byte_identically(name, tmp_path):
    out = tmp_path / name
    assert main(RUNS[name] + ["--output", str(out)]) == 0
    fresh = out.read_bytes()
    assert fresh == (GOLDEN / name).read_bytes()
    # the stored manifest checksum still describes the stored bytes
    stored = (GOLDEN / (name + ".manifest.json")).read_text()
    assert json.loads(stored)["sha256"] == hashlib.sha256(fresh).hexdigest()
    assert (tmp_path / (name + ".manifest.json")).read_text() == stored


def test_deep_truncation_helix_digest(tmp_path):
    # Bessel orders up to 120, where the per-order cost is highest
    out = tmp_path / "helix_omega005_M120.csv"
    assert main(["spectrum", "helix", "--omega", "0.05", "--radius", "3",
                 "--kappa", "0:5:0.01", "--M", "120", "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "0612917de573439620efda4c9d7620c8e4d59b66b1d06ec993b12c739d0b18ca"


def _column(name, col):
    lines = (GOLDEN / name).read_text().splitlines()[1:]
    return [line.split(",")[col] for line in lines]


def test_line_dataset_is_a_unit_step():
    kappa = [float(k) for k in _column("line_spectrum.csv", 0)]
    gamma = [float(g) for g in _column("line_spectrum.csv", 1)]
    for k, g in zip(kappa, gamma):
        assert g == (1.0 if abs(k) <= 1.0 else 0.0)


def test_helix_dataset_peaks_at_band_edge_and_traps_above():
    rows = {float(k): (g, c) for k, g, c in zip(
        _column("helix_omega3_r3.csv", 0),
        _column("helix_omega3_r3.csv", 1),
        _column("helix_omega3_r3.csv", 4),
    )}
    assert rows[1.0] == ("1", "subradiant")
    assert rows[1.5] == ("0", "trapped")
    assert rows[4.5] == ("0", "trapped")
    # second radiant window: decaying again, though below the single rate
    # at the default density n0 = 1/lambda0
    assert float(rows[3.0][0]) > 0.0 and rows[3.0][1] == "subradiant"


def test_thermal_datasets_are_finite_and_positive():
    for name in ("thermal_helix_fix_omega3.csv", "thermal_helix_fix_r3.csv",
                 "thermal_cylinder.csv"):
        vals = [float(v) for v in _column(name, 1)]
        assert len(vals) == 7
        assert all(math.isfinite(v) and v > 0.0 for v in vals)


def test_discrete_datasets_mark_the_light_line():
    perp_e = dict(zip(_column("discrete_perp_d005.csv", 0),
                      _column("discrete_perp_d005.csv", 1)))
    assert perp_e["1"] == "-inf" and perp_e["-1"] == "-inf"
    par_e = dict(zip(_column("discrete_par_d005.csv", 0),
                     _column("discrete_par_d005.csv", 1)))
    assert math.isfinite(float(par_e["1"]))
    # dense chain: huge decay inside the light line, zero outside
    par_g = dict(zip(_column("discrete_par_d005.csv", 0),
                     _column("discrete_par_d005.csv", 2)))
    assert float(par_g["0"]) == 15.0
    assert float(par_g["2"]) == 0.0
