"""Thermally averaged collective decay rates over a kappa grid.

The average uses the modified Boltzmann weight

    f(E) = 1 - c e^{beta E},   c = e^{-beta E_max},

with E_max the largest finite Lamb shift on the grid, so the most-shifted
state gets weight exactly 0 and weights stay in [0, 1].  Divergent shifts
(the -inf sentinels) get weight exactly 1.  Because the weight depends only
on E - E_max, adding a constant to the whole Lamb profile (for instance the
truncation plateau of the helix sum) leaves the average unchanged, which is
what makes series computed at different truncation depths comparable.
"""

import math
from dataclasses import dataclass

from .spectra import (
    EmitterPhysics,
    HelixSpec,
    SpectrumTable,
    _order_window,
    cylinder_table,
    kappa_grid,
    sweep,
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


def thermal_average(table: SpectrumTable, config: ThermalConfig) -> ThermalResult:
    """Weighted average of gamma_norm over the table's kappa grid.

    The table must cover exactly the grid the config describes.  Sums run
    left to right over ascending kappa so repeated runs reproduce the same
    digits.
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

    finite = [p.lamb_norm for p in pts if math.isfinite(p.lamb_norm)]
    if finite:
        e_max = max(finite)
        c = math.exp(-config.beta * e_max)
    else:
        # all-sentinel profile: every weight is 1, the average is uniform
        e_max = float("-inf")
        c = float("inf")

    num = 0.0
    den = 0.0
    for p in pts:
        f = _weight(p.lamb_norm, config.beta, e_max)
        num += p.gamma_norm * f
        den += f
    if den == 0.0:
        raise DegenerateEnsembleError(
            "all Boltzmann weights vanished (every state sits at E_max); "
            "the thermal average is undefined for this ensemble"
        )
    return ThermalResult(num / den, c, e_max, len(pts))


def required_truncation(spec: HelixSpec, config: ThermalConfig) -> int:
    """Smallest half-width containing every real-argument order on the grid.

    The extreme orders occur at the grid endpoints because both bounds grow
    monotonically with kappa.
    """
    lo, hi = _order_window([config.kappa_min, config.kappa_max], spec.Omega)
    return int(max(0, -lo.min(), hi.max()))


def thermal_sweep(entries, physics: EmitterPhysics, config: ThermalConfig):
    """One thermal average per entry.

    Each entry is either a HelixSpec or a bare cylinder radius (the n = 0
    branch).  Helix entries widen the Lamb truncation to whatever the grid
    needs, so tightly wound and nearly straight helices can share a config.
    Returns [(entry, ThermalResult), ...] in input order.
    """
    grid = config.grid()
    out = []
    for entry in entries:
        if isinstance(entry, HelixSpec):
            m_eff = max(config.M, required_truncation(entry, config))
            table = sweep(grid, entry, physics, M=m_eff)
        else:
            table = cylinder_table(grid, 0, float(entry), physics)
        out.append((entry, thermal_average(table, config)))
    return out
