"""The closed forms' array contract, and the private names the modules share."""

import ast
import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helirad.discrete import DiscreteLineParams, Orientation, discrete_line_decay, discrete_line_lamb
from helirad.specfun import jh_products
from helirad.spectra import (
    HelixSpec,
    cylinder_norms,
    helix_decay_norm,
    helix_lamb_norm,
    line_decay_norm,
    line_lamb_norm,
)

from .child import child_env

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "helirad"
SPEC = HelixSpec(Omega=3.0, r=3.0)
QUARTER = 2.0 * math.pi * 0.25  # k0 d at d/lambda = 1/4: branches 4 apart in kappa
PAR = DiscreteLineParams(QUARTER, Orientation.PARALLEL)
PERP = DiscreteLineParams(QUARTER, Orientation.PERPENDICULAR)

# (function of one argument, its points): each list holds the -inf sentinel,
# a band edge and a point where the decay is exactly 0 (trapped), out of order
CLOSED_FORMS = {
    "line_decay_norm": (line_decay_norm, [1.5, -1.0, 0.25, 1.0, -3.0, 0.0]),
    "line_lamb_norm": (line_lamb_norm, [1.5, -1.0, 0.25, 1.0, -3.0, 0.0]),
    "helix_decay_norm": (lambda k: helix_decay_norm(k, SPEC),
                         [1.5, 2.0, -1.0, 1.0 + 1e-11, 4.0, 0.3, 1.0, -2.5]),
    "helix_lamb_norm": (lambda k: helix_lamb_norm(k, SPEC, M=10),
                        [1.5, 2.0, -1.0, 1.0 + 1e-11, 4.0, 0.3, 1.0, -2.5]),
    "cylinder_norms": (lambda k: cylinder_norms(0, k, 3.0), [1.5, -1.0, 0.5, 1.0, -0.2, 4.0]),
    "discrete_line_lamb": (lambda k: (discrete_line_lamb(PAR, k), discrete_line_lamb(PERP, k)),
                           [2.0, 3.0, -1.0, 0.4, 1.0, -2.0, 5.0, 0.0]),
    "discrete_line_decay": (lambda k: (discrete_line_decay(PAR, k), discrete_line_decay(PERP, k)),
                            [2.0, 3.0, -1.0, 0.4, 1.0, -2.0, 5.0, 0.0]),
    # the magnitude x takes kappa's place: x = 0 at m = 0 is the sentinel,
    # 1e-310 takes m = 0's tiny-argument form and order 200 its fallbacks
    "jh_products": (lambda x: jh_products(0, x, False) + jh_products(200, x, True),
                    [4.87, 0.0, 1e-310, 2.404825557695773, 800.0, 1e-8]),
}


def _parts(result):
    return result if isinstance(result, tuple) else (result,)


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_array_results_are_the_scalar_results_in_the_arguments_shape(name):
    f, points = CLOSED_FORMS[name]
    whole = _parts(f(np.array(points)))
    for k, point in enumerate(points):
        for part, value in zip(whole, _parts(f(point))):
            assert np.shape(value) == part.shape[:-1]
            assert np.asarray(value).tobytes() == part[..., k].tobytes(), (name, point)
    square = _parts(f(np.array(points[:4]).reshape(2, 2)))
    for part, flat in zip(square, whole):
        assert part.shape == flat.shape[:-1] + (2, 2)
        assert part.tobytes() == np.ascontiguousarray(flat[..., :4]).tobytes()


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_a_float_argument_gives_a_float(name):
    f, points = CLOSED_FORMS[name]
    for value in _parts(f(points[2])):
        assert isinstance(value, float)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_a_non_finite_argument_in_an_array_is_refused_as_the_scalar_is(name, bad):
    f, points = CLOSED_FORMS[name]
    with pytest.raises(ValueError) as scalar:
        f(bad)
    grid = np.array(points)
    grid[len(points) // 2] = bad
    with pytest.raises(ValueError) as array:
        f(grid.reshape(2, -1))
    assert str(array.value) == str(scalar.value)
    assert str(bad) in str(scalar.value)


# every underscore name that one module of the package imports from another:
# the package's private surface, pinned so that a new one shows in review
PRIVATE_IMPORTS = {
    ("discrete", "specfun", "_libm"),
    ("discrete", "specfun", "_polylogs"),
    ("discrete", "spectra", "_check_kappa"),
    ("discrete", "spectra", "_window_sum"),
    ("geomfit", "spectra", "_MAX_TERMS"),
    ("geomfit", "spectra", "_window_orders"),
    ("spectra", "specfun", "_libm"),
    ("spectra", "specfun", "_special"),
    ("thermal", "spectra", "_check_kappa"),
    ("thermal", "spectra", "_check_radius"),
    ("thermal", "spectra", "_check_truncation"),
    ("thermal", "spectra", "_jh_sum"),
    ("thermal", "spectra", "_lamb_sum"),
    ("thermal", "spectra", "_order_window"),
}


def test_modules_share_only_the_pinned_private_names():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found.update((path.stem, node.module, alias.name) for alias in node.names
                             if alias.name.startswith("_") and not alias.name.startswith("__"))
    assert found == PRIVATE_IMPORTS


def _imported_module(node, alias):
    """The module an import names: `from scipy import special` names scipy.special."""
    if isinstance(node, ast.Import):
        return alias.name
    if node.module.partition(".")[0] in sys.stdlib_module_names:
        return node.module
    submodule = f"{node.module}.{alias.name}"
    return submodule if importlib.util.find_spec(submodule) else node.module


def test_the_package_imports_only_numpy_and_scipy_special():
    # every import of every module, function bodies included: the third-party
    # surface, pinned so that a new dependency shows in review
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and not node.level:
                found.update(_imported_module(node, alias) for alias in node.names)
    assert {m for m in found if m.partition(".")[0] not in sys.stdlib_module_names} \
        == {"numpy", "scipy.special"}


def _unused_imports(path):
    """(line, name) of each name the module imports and never reads."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name.partition(".")[0], node.lineno)
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_module_imports_a_name_it_never_uses():
    # the package's __init__ imports are its re-export surface, so it is left out
    root = PACKAGE.parents[1]
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((root / "tests").glob("*.py")) + sorted((root / "demos").glob("*.py"))
    found = {str(p.relative_to(root)): u for p in paths if (u := _unused_imports(p))}
    assert found == {}


_PEAK_AFTER = """
import re, sys
from helirad.cli import main
assert main(sys.argv[1:]) == 0
with open("/proc/self/status") as status:
    print(re.search(r"VmHWM:\\s*(\\d+) kB", status.read()).group(1))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_a_helix_spectrum_peaks_within_a_few_mb_of_a_line_spectrum(tmp_path):
    # The helix's Bessel ufuncs come from scipy's one extension, loaded
    # alone: about 3.5 MB above the line's peak, where the whole
    # scipy.special package put the helix 22 MB above it.  The child's own
    # VmHWM is read, because its ru_maxrss would also count the forking
    # parent's RSS, which is the larger under pytest.
    def peak(argv):
        proc = subprocess.run([sys.executable, "-c", _PEAK_AFTER, *argv,
                               "--output", str(tmp_path / "out.csv")],
                              capture_output=True, text=True, env=child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout.split()[-1])  # KiB

    line = peak(["spectrum", "line", "--kappa", "0:5:0.01"])
    helix = peak(["spectrum", "helix", "--omega", "3", "--radius", "3", "--kappa", "0:5:0.01"])
    assert helix - line < 8 * 1024
