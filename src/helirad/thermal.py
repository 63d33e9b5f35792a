"""Thermally averaged collective decay rates over a kappa grid.

The average uses the modified Boltzmann weight

    f(E) = 1 - c e^{beta E},   c = e^{-beta E_max},

with E_max the largest finite Lamb shift on the grid, so the most-shifted
state gets weight exactly 0 and weights stay in [0, 1].  Divergent shifts
(the -inf sentinels) get weight exactly 1.  Because the weight depends only
on E - E_max, adding a constant to the whole Lamb profile leaves the
average unchanged.  Only that constant part of the helix sum's truncation
error cancels: its kappa-dependent part, which falls off like 1/M^2, moves
the weights, so series computed at different truncation depths M are not
exactly comparable.  Measured against M = 400, gamma_th at M = 10 differs
by up to 6.9e-3 relative over (Omega, r) = (0.5, 3), (1, 3), (3, 0.5) and
(3, 3).
"""

import math
from dataclasses import dataclass

from .spectra import (
    MAX_GRID_POINTS,
    HelixSpec,
    SpectrumTable,
    _check_kappa,
    _check_radius,
    _check_truncation,
    _jh_sum,
    _lamb_sum,
    _order_window,
    cylinder_norms,
    helix_decay_norm,
    kappa_grid,
)


class DegenerateEnsembleError(ValueError):
    """Every state carried weight zero, so the average is undefined."""


@dataclass(frozen=True)
class ThermalConfig:
    beta: float = 1.0
    kappa_min: float = 0.0
    kappa_max: float = 5.0
    kappa_step: float = 0.01
    M: int = 10

    def __post_init__(self):
        if not (self.kappa_step > 0.0):
            raise ValueError(f"kappa_step must be > 0, got {self.kappa_step}")
        if not (self.kappa_min < self.kappa_max):
            raise ValueError("kappa_min must be < kappa_max")
        if not (self.beta >= 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        _check_truncation(self.M)

    def grid(self):
        return kappa_grid(self.kappa_min, self.kappa_max, self.kappa_step)


@dataclass(frozen=True)
class ThermalResult:
    gamma_th: float
    c_weight: float
    E_max: float
    n_points: int


def _weight(lamb, beta, e_max):
    if lamb == float("-inf"):
        return 1.0
    # -expm1 keeps f exact at 0 for E = E_max and accurate for tiny beta
    return -math.expm1(beta * (lamb - e_max))


def _average(gamma, lamb, beta) -> ThermalResult:
    """Weighted average of gamma, summed left to right so repeated runs give the same digits."""
    finite = [e for e in lamb if math.isfinite(e)]
    if finite:
        e_max = max(finite)
        try:
            c = math.exp(-beta * e_max)
        except OverflowError:  # c leaves double range; the weights do not
            c = float("inf")
    else:
        # all-sentinel profile: every weight is 1, the average is uniform
        e_max = float("-inf")
        c = float("inf")

    num = 0.0
    den = 0.0
    for g, e in zip(gamma, lamb):
        f = _weight(e, beta, e_max)
        num += g * f
        den += f
    if den == 0.0:
        # no sentinel here, so every shift is finite
        cause = ("every state sits at E_max" if min(lamb) == e_max
                 else f"every weight -expm1(beta (E - E_max)) is 0 at beta = {beta:g}")
        raise DegenerateEnsembleError(f"all Boltzmann weights vanished ({cause}); "
                                      "the thermal average is undefined for this ensemble")
    return ThermalResult(num / den, c, e_max, len(gamma))


def thermal_average(table: SpectrumTable, config: ThermalConfig) -> ThermalResult:
    """Weighted average of gamma_norm over the table's kappa grid.

    The table must cover exactly the grid the config describes.
    """
    pts = table.points
    grid = config.grid()
    if len(pts) != len(grid):
        raise ValueError(
            f"table has {len(pts)} points but the config grid has {len(grid)}"
        )
    for p, k in zip(pts, grid):
        if abs(p.kappa - k) > 1e-12:
            raise ValueError(f"table kappa {p.kappa} does not match grid node {k}")
    return _average([p.gamma_norm for p in pts], [p.lamb_norm for p in pts], config.beta)


def required_truncation(spec: HelixSpec, config: ThermalConfig) -> int:
    """Smallest half-width containing every real-argument order on the grid.

    The extreme orders occur at the grid endpoints because both bounds grow
    monotonically with kappa.
    """
    lo, hi = _order_window([config.kappa_min, config.kappa_max], spec.Omega)
    return int(max(0, -lo.min(), hi.max()))


def thermal_sweep(entries, config: ThermalConfig):
    """One thermal average per entry.

    Each entry is either a HelixSpec or a bare cylinder radius (the n = 0
    branch), averaged bit for bit as thermal_average averages its sweep or
    cylinder_table; no emitter constant enters.  Helix entries widen the
    Lamb truncation to whatever the grid needs, so tightly wound and nearly
    straight helices can share a config; a widening past MAX_GRID_POINTS
    orders is refused with a message that names it.  Every entry, helix or
    cylinder, is checked before any term is formed.  The Lamb columns of
    all helix entries are summed in one pass, which forms each distinct
    term once.
    Returns [(entry, ThermalResult), ...] in input order.
    """
    grid = _check_kappa(config.grid())
    entries = list(entries)
    sums = {}
    for i, entry in enumerate(entries):
        if isinstance(entry, HelixSpec):
            m_eff = max(config.M, required_truncation(entry, config))
            if m_eff > config.M and 2 * m_eff + 1 > MAX_GRID_POINTS:
                raise ValueError(
                    f"Omega = {entry.Omega}, r = {entry.r}: the kappa grid's endpoints "
                    f"{config.kappa_min} and {config.kappa_max} widen the requested M={config.M} "
                    f"to M={m_eff}, whose 2M + 1 orders are over the limit of {MAX_GRID_POINTS}")
            sums[i] = _lamb_sum(grid, entry, m_eff)
        else:
            _check_radius(float(entry))
    lambs = dict(zip(sums, _jh_sum(grid, list(sums.values())))) if sums else {}
    out = []
    for i, entry in enumerate(entries):
        if i in lambs:
            gamma, lamb = helix_decay_norm(grid, entry), lambs[i]
        else:
            gamma, lamb = cylinder_norms(0, grid, float(entry))
        out.append((entry, _average(gamma.tolist(), lamb.tolist(), config.beta)))
    return out
