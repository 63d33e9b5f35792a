"""Hypothesis property tests: the CLI grid and list parsers, the cloud loader,
the Bessel-order and trapped-interval rules against brute force, and the
helix Lamb sum against its upper bound at band edges."""

import argparse
import contextlib
import io
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helirad.cli import _parse_grid, _parse_list, main
from helirad.geomfit import load_emitters
from helirad.spectra import (
    HelixSpec,
    helix_lamb_norm,
    helix_lamb_upper_bound,
    kappa_grid,
    m_bounds,
    trapped_intervals,
)

# no example database: runs leave nothing behind and repeat across machines
SETTINGS = settings(max_examples=150, deadline=None, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)


def _parse(fn, text):
    """(result, None) on success, (None, stderr) when the parser exits 2."""
    parser = argparse.ArgumentParser(prog="helirad")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            return fn(text, parser), None
        except SystemExit as exc:
            assert exc.code == 2
    return None, err.getvalue()


# ---------------------------------------------------------------- parsers


@SETTINGS
@given(st.lists(finite, min_size=1, max_size=20))
def test_list_round_trips(vals):
    got, err = _parse(_parse_list, ",".join(repr(v) for v in vals))
    assert err is None
    assert got == vals


@SETTINGS
@given(st.lists(finite, min_size=1, max_size=20, unique=True))
def test_ascending_list_grid_round_trips(vals):
    vals = sorted(vals)
    if any(b <= a for a, b in zip(vals, vals[1:])):  # 0.0 and -0.0
        return
    got, err = _parse(_parse_grid, ",".join(repr(v) for v in vals))
    assert err is None
    assert got == (vals, None)


@SETTINGS
@given(st.floats(-1e6, 1e6), st.floats(1e-3, 1e3), st.integers(0, 200),
       st.floats(0.0, 0.999))
def test_range_grid_round_trips(lo, step, count, frac):
    hi = lo + (count + frac) * step
    got, err = _parse(_parse_grid, f"{lo!r}:{hi!r}:{step!r}")
    assert err is None
    nodes, triple = got
    assert triple == (lo, hi, step)
    assert nodes == kappa_grid(lo, hi, step)
    assert nodes[0] == lo and len(nodes) >= 1


@SETTINGS
@given(st.text(alphabet="0123456789.,:-+e xainf", max_size=24))
def test_any_grid_text_parses_or_exits_two(text):
    got, err = _parse(_parse_grid, text)
    if got is None:
        assert "helirad: error:" in err and "Traceback" not in err


malformed_grids = st.one_of(
    # wrong number of range parts
    st.lists(st.integers(-9, 9).map(str), min_size=2, max_size=5)
    .filter(lambda p: len(p) != 3).map(":".join),
    # a non-numeric part
    st.tuples(st.sampled_from(["x", "1e", "--1", "1..2", ""]), st.integers(0, 2))
    .map(lambda t: ":".join(t[0] if i == t[1] else "1" for i in range(3))),
    # a list that does not strictly ascend
    st.lists(st.integers(-9, 9), min_size=2, max_size=6)
    .filter(lambda v: any(b <= a for a, b in zip(v, v[1:])))
    .map(lambda v: ",".join(map(str, v))),
    # a zero, negative or non-finite step, or a reversed range
    st.sampled_from(["0:1:0", "0:1:-1", "1:0:0.5", "0:1:nan", "0:inf:1", ",", ""]),
)


@SETTINGS
@given(malformed_grids)
def test_malformed_grid_exits_two_without_traceback(text):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "g.csv")
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main(["spectrum", "line", "--kappa", text, "--output", out])
        assert not os.path.exists(out)
    assert exc.value.code == 2
    assert "error:" in err.getvalue()
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------- cloud loader


@SETTINGS
@given(st.lists(st.tuples(finite, finite, finite), min_size=1, max_size=30))
def test_cloud_written_at_17g_reads_back_unchanged(rows):
    pos = np.array(rows, dtype=float)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cloud.xyz")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in pos)
        got = load_emitters(path).positions
    assert got.tobytes() == pos.tobytes()


# ---------------------------------------------------------------- brute force


def _edge_tol(kappa, m, omega):
    # m_bounds snaps (kappa +- 1)/Omega to an integer within 1e-9 relative
    return 2e-9 * omega * max(1.0, abs(m)) + 1e-12 * (1.0 + abs(kappa))


@SETTINGS
@given(st.floats(-50.0, 50.0), st.floats(0.01, 50.0))
def test_m_bounds_matches_a_scan_over_orders(kappa, omega):
    b = m_bounds(kappa, omega)
    centre = round(kappa / omega)
    reach = math.ceil(1.0 / omega) + 2
    for m in range(centre - reach, centre + reach + 1):
        gap = abs(kappa - m * omega)
        if abs(gap - 1.0) <= _edge_tol(kappa, m, omega):
            continue
        assert (b.m_min <= m <= b.m_max) == (gap <= 1.0), (m, gap)


@SETTINGS
@given(st.floats(0.1, 10.0), st.floats(0.05, 30.0))
def test_trapped_intervals_match_a_dense_scan(omega, kappa_max):
    got = trapped_intervals(omega, kappa_max)
    assert got.fraction == (max(omega, 2.0) - 2.0) / max(omega, 2.0)
    for kappa in np.linspace(0.0, kappa_max, 1001):
        kappa = float(kappa)
        inside = any(lo <= kappa <= hi for lo, hi in got.intervals)
        near_edge = any(min(abs(kappa - lo), abs(kappa - hi)) <= 1e-9 * (1.0 + kappa)
                        for lo, hi in got.intervals)
        if not near_edge:
            assert inside == m_bounds(kappa, omega).empty, kappa
    for lo, hi in got.intervals:
        assert 0.0 <= lo <= hi <= kappa_max


@settings(SETTINGS, max_examples=40)
@given(st.floats(2.0, 10.0))
def test_trapped_fraction_is_the_scanned_share_of_a_period(omega):
    frac = trapped_intervals(omega, 1.0).fraction
    scan = np.linspace(0.0, omega, 4001)[:-1]
    share = np.mean([m_bounds(float(k), omega).empty for k in scan])
    assert abs(share - frac) <= 2.0 / 4000


# kappa = m Omega +- 1 moved by up to 1e-10 relative, so some draws fall past
# the edge yet inside the order window's 1e-9 snap; the window's orders are
# real in the Lamb sum as in the bound, and the orders beyond add only
# negative -(2/pi) I K terms
@SETTINGS
@given(st.floats(0.05, 10.0), st.floats(0.0, 5.0), st.integers(-5, 5), st.sampled_from([-1.0, 1.0]),
       st.floats(-1e-10, 1e-10))
def test_helix_lamb_stays_below_its_upper_bound_at_band_edges(omega, r, m, side, nudge):
    kappa = (m * omega + side) * (1.0 + nudge)
    spec = HelixSpec(Omega=omega, r=r)
    b = m_bounds(kappa, omega)
    lamb = helix_lamb_norm(kappa, spec, M=max(10, abs(b.m_min), abs(b.m_max)))
    bound = helix_lamb_upper_bound(kappa, spec)
    if bound == -math.inf:
        assert lamb == -math.inf
    else:
        assert lamb <= bound + 4.0 * math.ulp(bound), (lamb, bound)
