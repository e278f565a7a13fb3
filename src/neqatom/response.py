"""Field-response vectors of the slab geometry and the channel weights.

``B`` collects |rho|^2 + |tau|^2 over the propagative sector, ``C`` the
interference term Re(rho e^{2i k_z z}) and ``D`` the evanescent term
Im(rho) e^{-2 Im(k_z) z}. Each is a 3-vector over dipole orientations
(xx, yy, zz), combining TE with weight (1, 1, 0) and TM with weight
(c^2/omega^2) (phi |k_z|^2, phi |k_z|^2, 2 k^2); B and D take phi = +1,
C takes phi = -1. The wall/body weights are then

    alpha_W = (1 + B + 2C)/2 . d,    alpha_M = (1 - B + 2D)/2 . d,

with d the dipole orientation weights. B is independent of the atom
height and cached per (frequency, thickness, material, tolerances).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.constants import c

from .optics import DielectricModel, medium_kz, permittivity, slab_amplitudes
from .quadrature import (
    DEFAULT_SPEC,
    QuadratureResult,
    QuadratureSpec,
    integrate_evanescent,
    integrate_oscillatory,
    integrate_propagative,
)


class PassivityError(ArithmeticError):
    """A channel weight came out negative beyond tolerance."""


class NoCrossoverError(ValueError):
    """alpha_W - alpha_M does not change sign on the given bracket."""


@dataclass(frozen=True)
class GeometryPoint:
    """Atom height z above the near face of a slab of thickness delta."""

    z: float
    delta: float

    def __post_init__(self):
        if not self.z > 0.0:
            raise ValueError("z must be > 0")
        if not self.delta >= 0.0:
            raise ValueError("delta must be >= 0")


@dataclass(frozen=True)
class ResponseVectors:
    """B, C, D 3-vectors (xx, yy, zz) plus the combined quadrature error."""

    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    error: np.ndarray


@dataclass(frozen=True)
class AlphaPair:
    """Wall and body absorptivity weights of one transition."""

    alpha_W: float
    alpha_M: float

    def __post_init__(self):
        if not (self.alpha_W >= 0.0 and self.alpha_M >= 0.0):
            raise ValueError("alpha weights must be >= 0")


ISOTROPIC_WEIGHTS = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

# bisection spec of crossover_distance: tighter than its 1e-9 stopping
# threshold on the alpha difference, but above the fp floor of the K15-G7
# error estimator
_ROOT_SPEC = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-15)


def check_weights(w) -> tuple:
    """Orientation weights as floats: 3 entries >= 0 summing to 1 (NaN fails)."""
    w = tuple(float(x) for x in w)
    if not (len(w) == 3 and all(x >= 0.0 for x in w) and abs(sum(w) - 1.0) <= 1e-9):
        raise ValueError("orientation weights must be 3 nonnegative entries summing to 1")
    return w


def _tm_weights(omega, k, kz_sq, phi):
    """TM orientation weights (c^2/omega^2)(phi |kz|^2, phi |kz|^2, 2 k^2)."""
    s = (c / omega) ** 2
    xx = phi * s * kz_sq
    zz = 2.0 * s * k**2
    return np.stack((xx, xx, zz), axis=-1)

_TE_WEIGHTS = np.array([1.0, 1.0, 0.0])


def _slab_phase_breakpoints(omega, delta, eps, k_lo, k_hi, rel_tol):
    """Initial panel boundaries tracking the slab phase Re(k_zm) delta.

    Interfering reflections inside the slab make every coefficient
    oscillate in k with amplitude exp(-2 Im(k_zm) delta). Boundaries are
    placed at eighth periods of that phase (so panels stay short even
    when the height phase beats against it); when the amplitude cannot
    disturb the requested tolerance the splitting is skipped entirely.
    """
    if delta <= 0.0:
        return ()
    kzm_lo = complex(medium_kz(omega, k_lo, eps))
    amplitude = math.exp(-2.0 * min(kzm_lo.imag * delta, 700.0))
    if amplitude < max(1e-18, 0.01 * rel_tol):
        return ()
    phase_lo = kzm_lo.real * delta
    phase_hi = complex(medium_kz(omega, k_hi, eps)).real * delta
    q = 0.125 * math.pi
    m_lo = int(math.ceil(min(phase_lo, phase_hi) / q))
    m_hi = int(math.floor(max(phase_lo, phase_hi) / q))
    if m_hi < m_lo:
        return ()
    # invert Re(k_zm) ~ sqrt(Re(eps) omega^2/c^2 - k^2); exactness is not
    # required, the points only seed panel boundaries
    re_w = eps.real * (omega / c) ** 2
    phases = np.arange(m_lo, m_hi + 1) * q
    k_sq = re_w - (phases / delta) ** 2
    k_pts = np.sqrt(k_sq[k_sq > 0.0])
    return k_pts[(k_pts > k_lo) & (k_pts < k_hi)]


@lru_cache(maxsize=256)
def _b_vector(omega: float, delta: float, model: DielectricModel,
              spec: QuadratureSpec) -> QuadratureResult:
    eps = permittivity(model, omega)
    pref = 0.75 * c / omega

    def integrand(k, kz):
        (rho_te, rho_tm), (tau_te, tau_tm) = slab_amplitudes(omega, eps, kz, delta)
        te = (np.abs(rho_te) ** 2 + np.abs(tau_te) ** 2)[:, None] * _TE_WEIGHTS
        tm = (np.abs(rho_tm) ** 2 + np.abs(tau_tm) ** 2)[:, None] * _tm_weights(omega, k, kz**2, +1.0)
        return pref * (k / kz)[:, None] * (te + tm)

    bk = _slab_phase_breakpoints(omega, delta, eps, 0.0, omega / c, spec.rel_tol)
    return integrate_propagative(integrand, omega, spec, breakpoints=bk)


def response_vectors(omega: float, geom: GeometryPoint, model: DielectricModel,
                     spec: QuadratureSpec = DEFAULT_SPEC) -> ResponseVectors:
    """Evaluate B, C and D for one frequency and geometry."""
    if not omega > 0.0:
        raise ValueError("omega must be > 0")
    eps = permittivity(model, omega)
    U = omega / c
    pref = 0.75 * c / omega
    z = geom.z
    delta = geom.delta

    b_res = _b_vector(omega, delta, model, spec)

    def c_integrand(k, kz):
        (rho_te, rho_tm), _ = slab_amplitudes(omega, eps, kz, delta, want_tau=False)
        phase = np.exp(2j * kz * z)
        te = (rho_te * phase).real[:, None] * _TE_WEIGHTS
        tm = (rho_tm * phase).real[:, None] * _tm_weights(omega, k, kz**2, -1.0)
        return pref * (k / kz)[:, None] * (te + tm)

    bk_prop = _slab_phase_breakpoints(omega, delta, eps, 0.0, U, spec.rel_tol)
    c_res = integrate_oscillatory(c_integrand, omega, z, spec, breakpoints=bk_prop)

    def d_integrand(k, kappa):
        kz = 1j * kappa
        (rho_te, rho_tm), _ = slab_amplitudes(omega, eps, kz, delta, want_tau=False)
        damp = np.exp(-2.0 * kappa * z)
        te = rho_te.imag[:, None] * _TE_WEIGHTS
        tm = rho_tm.imag[:, None] * _tm_weights(omega, k, kappa**2, +1.0)
        return pref * (k / kappa * damp)[:, None] * (te + tm)

    k_osc = U * math.sqrt(max(eps.real, 1.0)) + U
    bk_evan = _slab_phase_breakpoints(omega, delta, eps, U, k_osc, spec.rel_tol)
    d_res = integrate_evanescent(d_integrand, omega, z, spec, breakpoints=bk_evan)

    error = b_res.error_estimate + c_res.error_estimate + d_res.error_estimate
    return ResponseVectors(B=b_res.value, C=c_res.value, D=d_res.value, error=error)


def alpha_pair(omega: float, geom: GeometryPoint, model: DielectricModel,
               dipole_weights=ISOTROPIC_WEIGHTS,
               spec: QuadratureSpec = DEFAULT_SPEC) -> AlphaPair:
    """Wall/body weights alpha_W, alpha_M for one transition frequency.

    ``dipole_weights`` are the squared orientation fractions of the
    transition dipole, nonnegative and summing to 1 (isotropic default).
    """
    d = np.asarray(check_weights(dipole_weights))
    rv = response_vectors(omega, geom, model, spec)
    a_w = float(0.5 * (1.0 + rv.B + 2.0 * rv.C) @ d)
    a_m = float(0.5 * (1.0 - rv.B + 2.0 * rv.D) @ d)
    tol = float(max(1e-10, 10.0 * (rv.error @ d)))
    if a_w < -tol or a_m < -tol:
        raise PassivityError("passivity violation")
    return AlphaPair(alpha_W=max(a_w, 0.0), alpha_M=max(a_m, 0.0))


def crossover_distance(omega: float, delta: float, model: DielectricModel,
                       bracket, dipole_weights=ISOTROPIC_WEIGHTS) -> float:
    """Height z* where alpha_W = alpha_M, by bisection on log z.

    ``bracket`` is (z_lo, z_hi) with a sign change of alpha_W - alpha_M.
    Converges to |alpha_W - alpha_M| < 1e-9 (alpha_W + alpha_M); the
    integrals run at rel_tol 1e-10, abs_tol 1e-15.
    """
    z_lo, z_hi = bracket
    if not (0.0 < z_lo < z_hi):
        raise ValueError("bracket must satisfy 0 < z_lo < z_hi")

    def diff(z):
        pair = alpha_pair(omega, GeometryPoint(z=z, delta=delta), model,
                          dipole_weights, _ROOT_SPEC)
        return pair.alpha_W - pair.alpha_M, pair.alpha_W + pair.alpha_M

    g_lo, _ = diff(z_lo)
    g_hi, _ = diff(z_hi)
    if g_lo == 0.0:
        return z_lo
    if g_hi == 0.0:
        return z_hi
    if g_lo * g_hi > 0.0:
        raise NoCrossoverError("no crossover in bracket")
    t_lo, t_hi = math.log(z_lo), math.log(z_hi)
    for _ in range(200):
        t_mid = 0.5 * (t_lo + t_hi)
        z_mid = math.exp(t_mid)
        g_mid, total = diff(z_mid)
        if abs(g_mid) < 1e-9 * total:
            return z_mid
        if g_lo * g_mid < 0.0:
            t_hi = t_mid
        else:
            t_lo, g_lo = t_mid, g_mid
    return math.exp(0.5 * (t_lo + t_hi))
