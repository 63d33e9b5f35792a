"""Unit tests for the thermally averaged decay rates."""

import dataclasses
import math
import re

import pytest

from helirad import spectra, thermal
from helirad.spectra import (
    Classification,
    EigenPoint,
    EmitterPhysics,
    HelixSpec,
    SpectrumTable,
    cylinder_table,
    sweep,
)
from helirad.thermal import (
    DegenerateEnsembleError,
    ThermalConfig,
    ThermalResult,
    _weight,
    required_truncation,
    thermal_average,
    thermal_sweep,
)

PHYS = EmitterPhysics(gamma=1.0, lambda0=1.0, n0=1.0)


def _table(gammas, lambs, step=0.01):
    """Synthetic table whose grid is kappa = 0, step, 2*step, ..."""
    pts = []
    for i, (g, e) in enumerate(zip(gammas, lambs)):
        pts.append(EigenPoint(i * step, g, e, g, Classification.SUBRADIANT))
    return SpectrumTable(tuple(pts), "synthetic", "test", {})


def _config(n, step=0.01, beta=1.0):
    return ThermalConfig(beta=beta, kappa_min=0.0, kappa_max=(n - 1) * step, kappa_step=step)


def test_two_point_toy():
    table = _table([2.0, 0.0], [-1.0, 0.0])
    res = thermal_average(table, _config(2))
    assert res.gamma_th == 2.0
    assert res.c_weight == 1.0  # e^{-beta * E_max} with E_max = 0
    assert res.E_max == 0.0
    assert res.n_points == 2


def test_constant_gamma_profile_averages_to_itself():
    table = _table([0.7] * 5, [-3.0, -1.2, 0.0, -0.4, -2.2])
    res = thermal_average(table, _config(5))
    assert res.gamma_th == pytest.approx(0.7, rel=1e-14)


def test_weight_pins():
    assert _weight(float("-inf"), 1.0, 0.0) == 1.0
    assert _weight(0.0, 1.0, 0.0) == 0.0  # state at E_max carries nothing
    for e in (-5.0, -0.3, -1e-12):
        f = _weight(e, 1.0, 0.0)
        assert 0.0 < f <= 1.0


def test_average_stays_inside_gamma_range():
    spec = HelixSpec(Omega=3.0, r=1.0)
    cfg = ThermalConfig(kappa_step=0.05)
    table = sweep(cfg.grid(), spec, PHYS)
    res = thermal_average(table, cfg)
    gs = [p.gamma_norm for p in table.points]
    assert min(gs) <= res.gamma_th <= max(gs)


def test_sentinel_states_dominate_at_weight_one():
    # -inf Lamb shift takes weight 1 while the E_max state takes exactly 0
    table = _table([5.0, 3.0], [float("-inf"), 0.0])
    res = thermal_average(table, _config(2))
    assert res.gamma_th == 5.0
    assert res.E_max == 0.0  # finite values only


def test_lamb_offset_invariance():
    # the weight sees only E - E_max, so a constant shift drops out; this is
    # what makes averages at different truncation depths comparable
    cfg = ThermalConfig(kappa_step=0.05)
    table = sweep(cfg.grid(), HelixSpec(Omega=3.0, r=1.0), PHYS)
    shifted = dataclasses.replace(
        table,
        points=tuple(
            dataclasses.replace(p, lamb_norm=p.lamb_norm + 7.0) for p in table.points
        ),
    )
    a = thermal_average(table, cfg)
    b = thermal_average(shifted, cfg)
    assert a.gamma_th == pytest.approx(b.gamma_th, rel=1e-12)


def test_small_beta_limit_matches_linear_weights():
    # f -> beta (E_max - E) as beta -> 0, so the average approaches the
    # (E_max - E)-weighted mean; kappa <= 0.99 keeps the profile sentinel-free
    cfg = ThermalConfig(beta=1e-9, kappa_min=0.0, kappa_max=0.99, kappa_step=0.01)
    table = sweep(cfg.grid(), HelixSpec(Omega=3.0, r=1.0), PHYS)
    res = thermal_average(table, cfg)
    e_max = max(p.lamb_norm for p in table.points)
    num = sum(p.gamma_norm * (e_max - p.lamb_norm) for p in table.points)
    den = sum(e_max - p.lamb_norm for p in table.points)
    assert res.gamma_th == pytest.approx(num / den, rel=1e-6)


def test_all_sentinel_profile_averages_uniformly():
    table = _table([1.0, 2.0, 3.0], [float("-inf")] * 3)
    res = thermal_average(table, _config(3))
    assert res.gamma_th == 2.0
    assert res.E_max == float("-inf")
    assert res.c_weight == float("inf")


def test_large_beta_reports_an_infinite_c_and_finite_averages():
    # at r = 0.1, E_max = -0.636, so c = e^{-beta E_max} leaves double range
    # once beta passes about 1116; the weights 1 - e^{beta (E - E_max)} do not
    cfg = ThermalConfig(beta=1e4)
    (_, small), (_, large) = thermal_sweep([0.1, 3.0], cfg)
    assert small.c_weight == float("inf") and large.c_weight == 0.0
    ((_, mild),) = thermal_sweep([0.1], dataclasses.replace(cfg, beta=1e3))
    assert small.E_max == mild.E_max < 0.0
    gammas = [p.gamma_norm for p in cylinder_table(cfg.grid(), 0, 0.1, PHYS).points]
    assert min(gammas) <= small.gamma_th <= max(gammas)


def test_degenerate_ensembles_raise():
    # beta = 0 with finite shifts: every weight is exactly 0, and so it is
    # where beta (E - E_max) rounds to 0
    for beta, lambs in ((0.0, [-1.0, 0.0]), (5e-324, [-0.3, 0.0])):
        with pytest.raises(DegenerateEnsembleError, match=re.escape(
                f"(every weight -expm1(beta (E - E_max)) is 0 at beta = {beta:g})")):
            thermal_average(_table([1.0, 2.0], lambs), _config(2, beta=beta))
    # constant Lamb profile: every state sits at E_max
    with pytest.raises(DegenerateEnsembleError, match=r"\(every state sits at E_max\)"):
        thermal_average(_table([1.0, 2.0], [0.3, 0.3]), _config(2))


def test_grid_mismatch_is_rejected():
    table = _table([1.0, 2.0], [-1.0, 0.0])
    with pytest.raises(ValueError):
        thermal_average(table, _config(3))
    with pytest.raises(ValueError):
        thermal_average(table, _config(2, step=0.02))


def test_required_truncation_tracks_grid_endpoints():
    cfg = ThermalConfig()  # kappa in [0, 5]
    assert required_truncation(HelixSpec(Omega=0.05, r=0.1), cfg) == 120
    assert required_truncation(HelixSpec(Omega=3.0, r=1.0), cfg) == 2
    assert required_truncation(HelixSpec(Omega=100.0, r=1.0), cfg) == 0


def test_thermal_sweep_mixed_entries_keep_order():
    cfg = ThermalConfig(kappa_step=0.05)
    helix = HelixSpec(Omega=3.0, r=2.0)
    out = thermal_sweep([helix, 2.0], cfg)
    assert [e for e, _ in out] == [helix, 2.0]
    assert all(isinstance(r, ThermalResult) for _, r in out)
    # at r = 2 the helix's extra radiant windows beyond the light line lift
    # its average well clear of the cylinder's
    assert out[0][1].gamma_th > out[1][1].gamma_th


def test_thermal_sweep_widens_truncation_automatically():
    # Omega = 0.05 over kappa <= 5 needs M = 120; the default config M is 10
    # and sweep would refuse it, so the sweep must widen per entry
    cfg = ThermalConfig(kappa_step=0.05)
    ((_, res),) = thermal_sweep([HelixSpec(Omega=0.05, r=0.1)], cfg)
    assert math.isfinite(res.gamma_th)
    assert res.n_points == len(cfg.grid())


def test_cylinder_entry_is_the_order_zero_branch():
    cfg = ThermalConfig(kappa_step=0.05)
    ((_, res),) = thermal_sweep([2.0], cfg)
    want = thermal_average(cylinder_table(cfg.grid(), 0, 2.0, PHYS), cfg)
    assert res == want


def test_helix_entry_is_the_widened_sweep():
    # Omega = 0.5 over kappa <= 5 widens M = 10 to 12: the entry averages that sweep
    cfg = ThermalConfig(kappa_step=0.05)
    spec = HelixSpec(Omega=0.5, r=2.0)
    ((_, res),) = thermal_sweep([spec], cfg)
    assert required_truncation(spec, cfg) == 12
    assert res == thermal_average(sweep(cfg.grid(), spec, PHYS, M=12), cfg)


def test_thermal_sweep_entries_are_each_their_widened_sweep():
    # the golden Omega list and 0.05, 0.2 at r = 3, which share terms, mixed
    # with two other radii, a repeated entry and a cylinder
    cfg = ThermalConfig()
    entries = [HelixSpec(Omega=o, r=3.0) for o in (0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0)]
    entries[3:3] = [HelixSpec(Omega=0.5, r=2.0), 3.0, HelixSpec(Omega=0.05, r=3.0),
                    HelixSpec(Omega=1.0, r=3.0), HelixSpec(Omega=3.0, r=0.5)]
    entries.append(HelixSpec(Omega=0.2, r=3.0))
    out = thermal_sweep(entries, cfg)
    assert [e for e, _ in out] == entries
    for entry, res in out:
        if isinstance(entry, HelixSpec):
            M = max(cfg.M, required_truncation(entry, cfg))
            assert res == thermal_average(sweep(cfg.grid(), entry, PHYS, M=M), cfg)
        else:
            assert res == thermal_average(cylinder_table(cfg.grid(), 0, entry, PHYS), cfg)


@pytest.mark.parametrize("last, message", [
    (HelixSpec(Omega=1e-5, r=1.0), "Omega = 1e-05, r = 1.0: the kappa grid's endpoints 0.0 and "
     "5.0 widen the requested M=10 to M=600000, whose 2M + 1 orders are over the limit of "
     "1000000"),
    (HelixSpec(Omega=2e-5, r=1.0), "501 kappa points x 600001 orders make 300600501 terms, "
     "over the limit of 100000000"),
    (-1.0, "cylinder radius must be finite and >= 0, got -1.0"),
    (math.nan, "cylinder radius must be finite and >= 0, got nan"),
], ids=["widened-M", "terms", "cylinder-radius", "cylinder-nan"])
def test_thermal_sweep_refuses_a_series_before_forming_any_term(last, message, monkeypatch):
    formed = []
    for module, name in ((spectra, "jh_products"), (thermal, "helix_decay_norm")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real: formed.append(a) or real(*a))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        thermal_sweep([HelixSpec(Omega=3.0, r=3.0), 3.0, last], ThermalConfig())
    assert formed == []


@pytest.mark.parametrize("entry, message", [
    (1e308, "Omega = 0.0, r = 1e+308: the Bessel argument r sqrt|1 - (kappa - m Omega)^2| "
     "exceeds double range at kappa = 2.06, m = 0"),
    (HelixSpec(Omega=1e307, r=1.0), "Omega = 1e+307, r = 1.0: the Bessel argument "
     "r sqrt|1 - (kappa - m Omega)^2| exceeds double range at kappa = 0.0, m = -10"),
], ids=["cylinder", "helix"])
def test_thermal_sweep_names_a_bessel_argument_past_double_range(entry, message):
    # a ValueError, not numpy's overflow warning (an error under this suite)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        thermal_sweep([HelixSpec(Omega=3.0, r=3.0), entry], ThermalConfig())


def test_config_defaults_and_validation():
    cfg = ThermalConfig()
    assert (cfg.beta, cfg.kappa_min, cfg.kappa_max, cfg.kappa_step) == (1.0, 0.0, 5.0, 0.01)
    assert len(cfg.grid()) == 501
    with pytest.raises(ValueError):
        ThermalConfig(kappa_step=0.0)
    with pytest.raises(ValueError):
        ThermalConfig(kappa_min=2.0, kappa_max=1.0)
    with pytest.raises(ValueError):
        ThermalConfig(beta=-1.0)
    with pytest.raises(ValueError):
        ThermalConfig(beta=float("inf"))
    with pytest.raises(ValueError, match="truncation half-width M must be >= 0, got -1"):
        ThermalConfig(M=-1)


def test_a_fractional_truncation_is_refused_with_the_config():
    with pytest.raises(ValueError, match="^truncation half-width M must be an integer, got 2.5$"):
        ThermalConfig(M=2.5)
