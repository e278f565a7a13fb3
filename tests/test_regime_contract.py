"""The numerical contract over a seeded sample of the valid regime space.

Every height of a z-scan either returns finite B, C and D that pass
``alpha_pair``'s passivity check at every orientation, or raises one of
the typed errors the README documents. The sample draws from the
dimensionless space of a regime sweep: eps_inf in [1, 10], omega_L/omega_T
in [1, 3], gamma/omega_T log-uniform in [1e-6, 1], omega/omega_T in
[0.3, 3], delta log-uniform in [1 nm, 10 cm], and a log grid of heights
over three decades starting in [1 nm, 1 um]. Which points fail is not
listed: a fix needs no edit here, and a new failure of an untyped kind
cannot be absorbed.
"""

import numpy as np
import pytest

from neqatom.optics import (
    DegenerateModeError,
    DielectricModel,
    LosslessResonanceError,
    SlabResonanceError,
)
from neqatom.quadrature import NonFiniteIntegrandError, QuadratureToleranceError
from neqatom.response import (
    GeometryPoint,
    PointFailure,
    ResponseVectors,
    alpha_pair,
    response_vectors_many,
)

OMEGA_T = 1e14
SEED = 0
POINTS = 60
HEIGHTS = 4

TYPED = (QuadratureToleranceError, NonFiniteIntegrandError, LosslessResonanceError,
         DegenerateModeError, SlabResonanceError)
ORIENTATIONS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3))


def _sample(rng):
    """(model, omega, delta, heights) of one point of the regime space."""
    model = DielectricModel(eps_inf=rng.uniform(1.0, 10.0),
                            omega_L=OMEGA_T * rng.uniform(1.0, 3.0),
                            omega_T=OMEGA_T,
                            gamma_damp=OMEGA_T * 10.0 ** rng.uniform(-6.0, 0.0))
    omega = OMEGA_T * rng.uniform(0.3, 3.0)
    delta = 10.0 ** rng.uniform(-9.0, -1.0)
    z_lo = 10.0 ** rng.uniform(-9.0, -6.0)
    return model, omega, delta, np.geomspace(z_lo, 1e3 * z_lo, HEIGHTS)


def _documented(exc):
    # the initial panel budget is a documented ValueError
    return isinstance(exc, TYPED) or (
        type(exc) is ValueError and "panel budget exceeded" in str(exc))


@pytest.mark.parametrize("point", range(POINTS))
def test_every_height_converges_or_raises_a_typed_error(point):
    rng = np.random.default_rng([SEED, point])
    model, omega, delta, z = _sample(rng)
    for h, got in zip(z, response_vectors_many(omega, z, delta, model)):
        where = (model, omega, delta, h)
        if isinstance(got, PointFailure):
            assert _documented(got.error), (where, repr(got.error))
            continue
        assert isinstance(got, ResponseVectors), where
        for name in ("B", "C", "D", "error"):
            assert np.isfinite(getattr(got, name)).all(), (where, name)
        for d in ORIENTATIONS:  # raises PassivityError on a negative weight
            alpha_pair(omega, GeometryPoint(z=h, delta=delta), model, d, vectors=got)
