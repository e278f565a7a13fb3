"""Derived diagnostics: the scan pipeline and thermal-state comparison.

One path turns the response of a height into its transition environment.
:func:`_environments` integrates every height of one (omega, delta)
together (:func:`response_vectors_many`), then takes each height's alpha
pair and rates. It returns the environment, or the :class:`PointFailure`,
of every height. :func:`scan` and :func:`environment_scan` loop over it,
delta by delta; :func:`steady_point` and :func:`transition_environments`
are its one-point cases. Argument errors (grids, temperatures,
``T_search``, ``omega``) raise ValueError before any integral; numerical
failures are recorded per point, as the text of their PointFailure.

The steady state of the Lambda system is diagonal, so the distance to a
thermal (Gibbs) state reduces to the Euclidean norm of the population
difference. The closest thermal state is found by a 64-point logarithmic
pre-scan, which picks the basin of the global minimum when the distance
profile has two or more minima, and golden-section refinement within it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .atom import (
    AtomModel,
    Populations,
    TransitionEnvironment,
    steady_state,
    transition_rates,
)
from .constants import hbar, k_B
from .optics import DielectricModel
from .quadrature import DEFAULT_SPEC, QuadratureSpec
from .response import (
    _POINT_ERRORS,
    GeometryPoint,
    PointFailure,
    check_weights,
    pair_at,
    response_vectors_many,
)

_GOLDEN = 2.0 / (1.0 + math.sqrt(5.0))

DEFAULT_T_SEARCH = (1.0, 5000.0)
DEFAULT_THERMAL_THRESHOLD = 2e-3


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
    x2, x3 = _exponents(atom, T)
    q = np.array([1.0, math.exp(-min(x2, 745.0)), math.exp(-min(x3, 745.0))])
    q /= q.sum()
    return Populations(p1=float(q[0]), p2=float(q[1]), p3=float(q[2]))


def distance_to_thermal(p: Populations, atom: AtomModel, T: float) -> float:
    """Frobenius distance between the (diagonal) state and the Gibbs state at T."""
    q = thermal_populations(atom, T)
    return float(np.linalg.norm(p.as_array() - q.as_array()))


def _exponents(atom: AtomModel, T: float):
    """Boltzmann exponents (x2, x3) = (E2, E3)/(k_B T); infinite where k_B T underflows."""
    kT = k_B * T
    if kT == 0.0:
        return math.inf, math.inf
    return hbar * (atom.omega_31 - atom.omega_32) / kT, hbar * atom.omega_31 / kT


def _grid_distances(p: Populations, atom: AtomModel, T: np.ndarray) -> np.ndarray:
    """Thermal distances at every temperature of ``T``, in one numpy pass."""
    # a k_B T that underflows to 0 gives x = inf, as in _exponents
    with np.errstate(divide="ignore"):
        x3 = hbar * atom.omega_31 / (k_B * T)
        x2 = hbar * (atom.omega_31 - atom.omega_32) / (k_B * T)
    e2 = np.exp(-np.minimum(x2, 745.0))
    e3 = np.exp(-np.minimum(x3, 745.0))
    s = 1.0 + e2 + e3
    return np.sqrt((p.p1 - 1.0 / s) ** 2 + (p.p2 - e2 / s) ** 2 + (p.p3 - e3 / s) ** 2)


def _distance(p: Populations, atom: AtomModel, T: float) -> float:
    """Thermal distance at one temperature: the formula of _grid_distances on floats."""
    x2, x3 = _exponents(atom, T)
    e2 = math.exp(-min(x2, 745.0))
    e3 = math.exp(-min(x3, 745.0))
    s = 1.0 + e2 + e3
    return math.sqrt((p.p1 - 1.0 / s) ** 2 + (p.p2 - e2 / s) ** 2 + (p.p3 - e3 / s) ** 2)


def _check_bracket(T_search):
    """``(T_lo, T_hi)`` of ``T_search``; ValueError unless 0 < T_lo < T_hi < inf."""
    T_lo, T_hi = T_search
    if not (0.0 < T_lo < T_hi < math.inf):
        raise ValueError(f"need 0 < T_lo < T_hi < inf, got {T_search!r}")
    return T_lo, T_hi


@lru_cache(maxsize=16)
def _prescan_grid(T_lo: float, T_hi: float) -> np.ndarray:
    """The 64-point log-spaced pre-scan grid of a bracket, built once, read-only."""
    grid = np.geomspace(T_lo, T_hi, 64)
    grid.flags.writeable = False
    return grid


def closest_thermal(p: Populations, atom: AtomModel,
                    T_search=DEFAULT_T_SEARCH) -> ThermalComparison:
    """Temperature minimizing the thermal distance over a bracket.

    A 64-point log-spaced pre-scan finds the global basin; golden section
    refines it to 0.01 K, or to 4 float spacings of T where that is
    coarser. The state counts as thermal below DEFAULT_THERMAL_THRESHOLD.
    A minimum on the search boundary is flagged, not raised. The reported
    distance is :func:`distance_to_thermal` at the closest temperature.
    """
    T_lo, T_hi = _check_bracket(T_search)
    grid = _prescan_grid(float(T_lo), float(T_hi))
    j = int(np.argmin(_grid_distances(p, atom, grid)))
    lo = float(grid[max(j - 1, 0)])
    hi = float(grid[min(j + 1, len(grid) - 1)])

    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = _distance(p, atom, x1)
    f2 = _distance(p, atom, x2)
    tol = max(0.005, 4.0 * math.ulp(hi))  # 4 ulp(T) > 0.005 K from 2^43 K on
    while (b - a) > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = _distance(p, atom, x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = _distance(p, atom, x2)
    T_best = 0.5 * (a + b)
    d_best = distance_to_thermal(p, atom, T_best)
    at_boundary = j == 0 or j == len(grid) - 1
    return ThermalComparison(closest_T=float(T_best), distance=d_best,
                             is_thermal=d_best < DEFAULT_THERMAL_THRESHOLD,
                             at_boundary=at_boundary)


def _environments(atom: AtomModel, which: str, model: DielectricModel, z_values,
                  delta: float, T_W: float, T_M: float, spec: QuadratureSpec) -> list:
    """The TransitionEnvironment, or the PointFailure, of every height.

    All the heights ``z_values`` of one transition ``which`` and slab
    ``delta`` are integrated together (:func:`response_vectors_many`);
    each height's alpha pair and rates follow. The temperatures, and the
    heights, are checked before any integral.
    """
    for key, T in (("T_W", T_W), ("T_M", T_M)):
        if not 0.0 <= T < math.inf:
            raise ValueError(f"{key} must be finite and >= 0, got {T!r}")
    omega, _, weights = atom.transition(which)
    # each height's vectors give way to its environment, or to its failure
    envs = response_vectors_many(omega, z_values, delta, model, spec)
    for i, (z, rv) in enumerate(zip(z_values, envs)):
        envs[i] = pair = pair_at(omega, z, delta, model, weights, spec, rv)
        if isinstance(pair, PointFailure):
            continue
        try:
            envs[i] = transition_rates(atom, which, pair, T_W, T_M)
        except _POINT_ERRORS as exc:
            envs[i] = PointFailure(exc, z)
    return envs


def transition_environments(atom: AtomModel, model: DielectricModel, geom: GeometryPoint,
                            T_W: float, T_M: float, spec: QuadratureSpec = DEFAULT_SPEC):
    """Radiative environments ``(env31, env32)`` of both transitions at one point.

    The one-point case of :func:`_environments`; a PointFailure raises.
    """
    envs = []
    for which in ("31", "32"):
        (env,) = _environments(atom, which, model, [geom.z], geom.delta, T_W, T_M, spec)
        if isinstance(env, PointFailure):
            raise env
        envs.append(env)
    return tuple(envs)


def steady_point(atom: AtomModel, model: DielectricModel, geom: GeometryPoint,
                 T_W: float, T_M: float, spec: QuadratureSpec = DEFAULT_SPEC,
                 T_search=DEFAULT_T_SEARCH, with_thermal: bool = True) -> ScanPoint:
    """Full pipeline at one geometry point; failures recorded, not raised.

    The one-point case of :func:`scan`.
    """
    return scan(atom, model, [geom.z], [geom.delta], T_W, T_M, spec, T_search,
                with_thermal).points[0]


def _grid(z_values, delta_values):
    """z and delta grids as float arrays; delta finite, >= 0, nonempty, increasing.

    The heights are checked by response_vectors_many before its first
    integral. It sees one delta at a time, so the whole delta grid is
    checked here.
    """
    z_values = np.atleast_1d(np.asarray(z_values, dtype=float))
    delta_values = np.atleast_1d(np.asarray(delta_values, dtype=float))
    bad = delta_values[~((delta_values >= 0.0) & (delta_values < np.inf))]
    if bad.size:
        raise ValueError(f"delta must be finite and >= 0, got {float(bad[0])!r}")
    if delta_values.size == 0 or np.any(np.diff(delta_values) <= 0):
        raise ValueError("delta grid must be nonempty and strictly increasing")
    return z_values, delta_values


def scan(atom: AtomModel, model: DielectricModel, z_values, delta_values,
         T_W: float, T_M: float, spec: QuadratureSpec = DEFAULT_SPEC,
         T_search=DEFAULT_T_SEARCH, with_thermal: bool = True) -> ScanResult:
    """Evaluate the full pipeline over the (delta, z) product grid.

    For each delta, each transition integrates all heights together. The
    result order is delta-major, z-minor. Argument errors raise before any
    integral; per-point failures land in ``ScanPoint.error`` and the scan
    continues.
    """
    z_values, delta_values = _grid(z_values, delta_values)
    if with_thermal:
        _check_bracket(T_search)
    points = []
    for delta in delta_values.tolist():
        envs31 = _environments(atom, "31", model, z_values, delta, T_W, T_M, spec)
        envs32 = _environments(atom, "32", model, z_values, delta, T_W, T_M, spec)
        for z, env31, env32 in zip(z_values.tolist(), envs31, envs32):
            points.append(_steady(atom, z, delta, env31, env32, T_search, with_thermal))
    return ScanResult(z_values=z_values, delta_values=delta_values, points=tuple(points))


def _steady(atom, z, delta, env31, env32, T_search, with_thermal) -> ScanPoint:
    """Scan point from the environments (or PointFailures) of both transitions."""
    for env in (env31, env32):
        if isinstance(env, PointFailure):
            return ScanPoint(z=z, delta=delta, error=str(env))
    try:
        pops = steady_state(env31.n_eff, env32.n_eff)
        thermal = closest_thermal(pops, atom, T_search) if with_thermal else None
    except _POINT_ERRORS as exc:
        return ScanPoint(z=z, delta=delta, error=str(PointFailure(exc, z)))
    return ScanPoint(z=z, delta=delta, env31=env31, env32=env32,
                     populations=pops, thermal=thermal)


def probe_atom(omega: float, weights) -> AtomModel:
    """The atom of :func:`environment_scan`: its transition 32 is ``omega``.

    Only transition 32 is integrated, so omega is the one frequency that
    needs a default dipole magnitude (31 is given one); a ValueError
    naming omega says it has none.
    """
    try:
        return AtomModel(omega_31=2.0 * omega, omega_32=omega, d31_mag=1.0,
                         weights_31=weights, weights_32=weights)
    except ValueError:
        raise ValueError(f"omega = {omega!r} has no default dipole magnitude") from None


def environment_scan(omega: float, weights, model: DielectricModel, z_values,
                     delta_values, T_W: float, T_M: float,
                     spec: QuadratureSpec = DEFAULT_SPEC):
    """Single-transition z/delta scan: list of (z, delta, env-or-None, error).

    Each delta integrates all heights together, as in :func:`scan`, on a
    probe atom whose transition 32 is ``omega``.
    """
    if not 0.0 < omega < math.inf:
        raise ValueError(f"omega must be finite and > 0, got {omega!r}")
    z_values, delta_values = _grid(z_values, delta_values)
    probe = probe_atom(omega, check_weights(weights))
    records = []
    for delta in delta_values.tolist():
        for z, env in zip(z_values.tolist(), _environments(probe, "32", model, z_values,
                                                           delta, T_W, T_M, spec)):
            if isinstance(env, PointFailure):
                records.append((z, delta, None, str(env)))
            else:
                records.append((z, delta, env, None))
    return records
