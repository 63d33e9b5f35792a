"""The fitted line density is the one the helix closed form counts.

The closed form's n0 is emitters per unit axial length: by Poisson summation
the tapered lattice sum over a screw chain of axial step dz equals
(pi/h) sum_g gamma_norm(kappa + 2 pi g/h) with h = k0 dz (see
`oracles.lattice_decay_sum`).  A fit of a cloud sampled from that chain
must return n0 = 1/dz, so h = k0/n0 closes the identity.
"""

import math

import numpy as np
import pytest

from helirad.discrete import helix_cloud
from helirad.geomfit import fit_helix
from helirad.spectra import HelixSpec, helix_decay_norm

from . import oracles

R, B = 11.2, 7.8
LAMBDA0 = 3.0 * B  # Omega = 3
KAPPAS = [0.0, 0.3, 0.5, 0.9]


@pytest.mark.parametrize("count, spacing", [(200, 4.0), (500, 4.0), (400, 15.0)],
                         ids=["N200", "N500", "sparse"])
def test_fitted_density_closes_the_lattice_sum(count, spacing):
    k0 = math.tau / LAMBDA0
    fit = fit_helix(helix_cloud(count, R, B, spacing))
    h = k0 / fit.n0
    spec = HelixSpec(Omega=LAMBDA0 / fit.b, r=k0 * fit.R)
    aliases = sum(helix_decay_norm(np.add(KAPPAS, math.tau * g / h), spec) for g in range(-3, 4))
    # the cloud's own axial step and turn per emitter, from its arc spacing
    dz = spacing * B / math.hypot(math.tau * R, B)
    want = oracles.lattice_decay_sum(KAPPAS, k0, R, dz, math.tau * dz / B)
    assert np.allclose(math.pi / h * aliases, want, rtol=1e-4, atol=0.0)
