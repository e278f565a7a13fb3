"""Derived diagnostics: thermal-state comparison and parameter scans.

The steady state of the Lambda system is diagonal, so the distance to a
thermal (Gibbs) state reduces to the Euclidean norm of the population
difference. The closest thermal state is found by a coarse logarithmic
pre-scan followed by golden-section refinement, which guards against the
occasional double minimum of the distance profile.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.constants import hbar, k as k_B

from .atom import (
    AtomModel,
    Populations,
    TransitionEnvironment,
    bose_occupation,
    steady_state,
    transition_rates,
)
from .optics import DielectricModel
from .quadrature import DEFAULT_SPEC, QuadratureSpec
from .response import GeometryPoint, _b_vector, alpha_pair

_GOLDEN = 2.0 / (1.0 + math.sqrt(5.0))

DEFAULT_T_SEARCH = (1.0, 5000.0)
DEFAULT_THERMAL_THRESHOLD = 2e-3

# failures a scan records per point instead of raising
_POINT_ERRORS = (ArithmeticError, RuntimeError, ValueError)


@dataclass(frozen=True)
class ThermalComparison:
    """Closest Gibbs state: its temperature, distance, and flags."""

    closest_T: float
    distance: float
    is_thermal: bool
    at_boundary: bool = False


@dataclass(frozen=True)
class ScanPoint:
    """Full pipeline output at one (z, delta) grid point."""

    z: float
    delta: float
    env31: TransitionEnvironment | None = None
    env32: TransitionEnvironment | None = None
    populations: Populations | None = None
    thermal: ThermalComparison | None = None
    error: str | None = None


@dataclass(frozen=True)
class ScanResult:
    z_values: np.ndarray
    delta_values: np.ndarray
    points: tuple


def thermal_populations(atom: AtomModel, T: float) -> Populations:
    """Boltzmann populations at temperature T with energies (0, E2, E3)."""
    if not T > 0.0:
        raise ValueError("T must be > 0")
    x3 = hbar * atom.omega_31 / (k_B * T)
    x2 = hbar * (atom.omega_31 - atom.omega_32) / (k_B * T)
    q = np.array([1.0, math.exp(-min(x2, 745.0)), math.exp(-min(x3, 745.0))])
    q /= q.sum()
    return Populations(p1=float(q[0]), p2=float(q[1]), p3=float(q[2]))


def distance_to_thermal(p: Populations, atom: AtomModel, T: float) -> float:
    """Frobenius distance between the (diagonal) state and the Gibbs state at T."""
    q = thermal_populations(atom, T)
    return float(np.linalg.norm(p.as_array() - q.as_array()))


def closest_thermal(p: Populations, atom: AtomModel,
                    T_search=DEFAULT_T_SEARCH,
                    threshold: float = DEFAULT_THERMAL_THRESHOLD) -> ThermalComparison:
    """Temperature minimizing the thermal distance over a bracket.

    A 64-point log-spaced pre-scan locates the global basin, golden
    section refines it to better than 0.01 K. A minimum sitting on the
    search boundary is flagged, not raised.
    """
    T_lo, T_hi = T_search
    if not (0.0 < T_lo < T_hi):
        raise ValueError("need 0 < T_lo < T_hi")

    grid = np.geomspace(T_lo, T_hi, 64)
    dists = [distance_to_thermal(p, atom, T) for T in grid]
    j = int(np.argmin(dists))
    lo = grid[max(j - 1, 0)]
    hi = grid[min(j + 1, len(grid) - 1)]

    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = distance_to_thermal(p, atom, x1)
    f2 = distance_to_thermal(p, atom, x2)
    while (b - a) > 0.005:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = distance_to_thermal(p, atom, x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = distance_to_thermal(p, atom, x2)
    T_best = 0.5 * (a + b)
    d_best = distance_to_thermal(p, atom, T_best)
    at_boundary = j == 0 or j == len(grid) - 1
    return ThermalComparison(closest_T=float(T_best), distance=d_best,
                             is_thermal=d_best < threshold,
                             at_boundary=at_boundary)


def transition_environments(atom: AtomModel, model: DielectricModel, geom: GeometryPoint,
                            T_W: float, T_M: float, spec: QuadratureSpec = DEFAULT_SPEC):
    """Radiative environments ``(env31, env32)`` of both transitions at one point."""
    a31 = alpha_pair(atom.omega_31, geom, model, atom.weights_31, spec)
    a32 = alpha_pair(atom.omega_32, geom, model, atom.weights_32, spec)
    return (transition_rates(atom, "31", a31, T_W, T_M),
            transition_rates(atom, "32", a32, T_W, T_M))


def steady_point(atom: AtomModel, model: DielectricModel, geom: GeometryPoint,
                 T_W: float, T_M: float, spec: QuadratureSpec = DEFAULT_SPEC,
                 T_search=DEFAULT_T_SEARCH, with_thermal: bool = True) -> ScanPoint:
    """Full pipeline at one geometry point; failures recorded, not raised."""
    try:
        env31, env32 = transition_environments(atom, model, geom, T_W, T_M, spec)
        pops = steady_state(env31.n_eff, env32.n_eff)
        thermal = closest_thermal(pops, atom, T_search) if with_thermal else None
        return ScanPoint(z=geom.z, delta=geom.delta, env31=env31, env32=env32,
                         populations=pops, thermal=thermal)
    except _POINT_ERRORS as exc:
        return ScanPoint(z=geom.z, delta=geom.delta,
                         error=f"{type(exc).__name__}: {exc}")


def _grid(z_values, delta_values):
    """Validated z and delta arrays and their delta-major, z-minor geometry list."""
    z_values = np.atleast_1d(np.asarray(z_values, dtype=float))
    delta_values = np.atleast_1d(np.asarray(delta_values, dtype=float))
    if z_values.size == 0 or delta_values.size == 0:
        raise ValueError("grids must be nonempty")
    for name, values in (("z", z_values), ("delta", delta_values)):
        if np.any(np.diff(values) <= 0):
            raise ValueError(f"{name} grid must be strictly increasing")
    geoms = [GeometryPoint(z=float(z), delta=float(d))
             for d in delta_values for z in z_values]
    return z_values, delta_values, geoms


def scan(atom: AtomModel, model: DielectricModel, z_values, delta_values,
         T_W: float, T_M: float, spec: QuadratureSpec = DEFAULT_SPEC,
         T_search=DEFAULT_T_SEARCH, with_thermal: bool = True,
         threads: int = 1) -> ScanResult:
    """Evaluate the full pipeline over the (delta, z) product grid.

    Points are independent and may be computed in parallel; the result
    order is fixed as delta-major, z-minor regardless of scheduling.
    Per-point failures land in ``ScanPoint.error`` and the scan continues.
    """
    z_values, delta_values, geoms = _grid(z_values, delta_values)

    def work(geom):
        return steady_point(atom, model, geom, T_W, T_M, spec, T_search, with_thermal)

    b_keys = [(omega, float(d)) for d in delta_values
              for omega in (atom.omega_31, atom.omega_32)]
    points = tuple(_map_points(work, geoms, threads, b_keys, model, spec))
    return ScanResult(z_values=z_values, delta_values=delta_values, points=points)


def environment_scan(omega: float, weights, model: DielectricModel, z_values,
                     delta_values, T_W: float, T_M: float,
                     spec: QuadratureSpec = DEFAULT_SPEC, threads: int = 1):
    """Single-transition z/delta scan: list of (z, delta, env-or-None, error).

    The grids are checked as in :func:`scan`.
    """
    _, delta_values, geoms = _grid(z_values, delta_values)
    probe = AtomModel(omega_31=2.0 * omega, omega_32=omega,
                      weights_31=weights, weights_32=weights)

    def work(geom):
        try:
            pair = alpha_pair(omega, geom, model, weights, spec)
            env = transition_rates(probe, "32", pair, T_W, T_M)
            return (geom.z, geom.delta, env, None)
        except _POINT_ERRORS as exc:
            return (geom.z, geom.delta, None, f"{type(exc).__name__}: {exc}")

    b_keys = [(omega, float(d)) for d in delta_values]
    return _map_points(work, geoms, threads, b_keys, model, spec)


def _map_points(work, tasks, threads, b_keys, model, spec) -> list:
    """``work`` over ``tasks`` in order, on ``threads`` worker threads.

    With more than one thread, the B vector of every (omega, delta) in
    ``b_keys`` is integrated first, once each: ``lru_cache`` does not
    merge concurrent misses, so workers starting on the same key would
    all integrate it. A B that fails is not cached; the points that need
    it raise the failure again and record it as their own.
    """
    if threads <= 1:
        return [work(t) for t in tasks]

    def fill(key):
        try:
            _b_vector(*key, model, spec)
        except _POINT_ERRORS:
            pass

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(fill, b_keys))
        return list(pool.map(work, tasks))
