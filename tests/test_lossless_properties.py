"""Property test: lossless slabs in every band give alpha_M = 0 or a typed error.

For gamma = 0 the permittivity is real, D is zero by rule and the slab
conserves energy over the propagative sector (|rho|^2 + |tau|^2 = 1), so
alpha_M = (1 - B) . d / 2 vanishes up to the quadrature tolerance.
"""

import math

from hypothesis import given, settings, strategies as st

from neqatom.optics import DielectricModel
from neqatom.quadrature import QuadratureToleranceError
from neqatom.response import GeometryPoint, alpha_pair

OMEGA_T = 1e14


def _omega(model, band, u):
    """Frequency below omega_T, inside (omega_T, omega_L) or above omega_L."""
    if band == "below":
        return model.omega_T * u
    if band == "inside":
        return model.omega_T + u * (model.omega_L - model.omega_T)
    return model.omega_L * (1.0 + 2.0 * u)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    eps_inf=st.floats(1.0, 10.0),
    ratio=st.one_of(st.just(1.0), st.floats(1.05, 3.0)),   # 1: dispersionless
    band=st.sampled_from(("below", "inside", "above")),
    u=st.floats(0.05, 0.95),
    delta=st.one_of(st.just(0.0), st.floats(-9.0, -2.0).map(lambda e: 10.0**e)),
    z=st.floats(-9.0, -3.0).map(lambda e: 10.0**e),
)
def test_lossless_alpha_pair(eps_inf, ratio, band, u, delta, z):
    model = DielectricModel(eps_inf, ratio * OMEGA_T, OMEGA_T, gamma_damp=0.0)
    omega = _omega(model, band, u)
    try:
        pair = alpha_pair(omega, GeometryPoint(z=z, delta=delta), model)
    except QuadratureToleranceError:
        # e.g. omega = 5e14, delta = 5 mm, z = 160 um on eps_inf 2, omega_L 2e14:
        # the zz component of C cancels below the error estimator's floor
        return
    assert math.isfinite(pair.alpha_W) and math.isfinite(pair.alpha_M)
    assert pair.alpha_M <= 1e-8
