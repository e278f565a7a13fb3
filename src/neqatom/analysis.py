"""Derived diagnostics: the scan pipeline and thermal-state comparison.

One path turns the response of a height into its transition environment.
:func:`_environments` integrates every height of one (omega, delta) together
(:func:`response_vectors_many`), then takes each height's alpha pair and
rates. It returns the environment, or the :class:`PointFailure`, of every
height. :func:`scan` and :func:`environment_scan` loop over it, delta by
delta; :func:`steady_point` and :func:`transition_environments` are its
one-point cases. Argument errors (grids, temperatures, ``T_search``, ``omega``
and its default dipole magnitude) raise ValueError before any integral;
numerical failures are recorded per point, as the text of their PointFailure.

The steady state of the Lambda system is diagonal, so the distance to a
thermal (Gibbs) state reduces to the Euclidean norm of the population
difference. The closest thermal state is found by a 64-point logarithmic
pre-scan, which picks the basin of the global minimum when the distance
profile has two or more minima, and golden-section refinement within it. A
scan searches the states of one slab together (one pre-scan array, a golden
section per state, one distance array), unless its bracket ``T_search`` is
None; :func:`closest_thermal` is its one-row case, with the same bits. Every
Gibbs state (pre-scan table, golden section, distances) takes :func:`_gibbs`'s
math.exp: np.exp differs from it in the last bit for about 4.5 % of arguments,
and one bit can decide between two nearly equal distances.
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
    return Populations(*_gibbs(atom, T))


def distance_to_thermal(p: Populations, atom: AtomModel, T: float) -> float:
    """Frobenius distance to the Gibbs state at T: one row of :func:`_distances`."""
    if not T > 0.0:
        raise ValueError("T must be > 0")
    return float(_distances(p.as_array()[None], atom, [T])[0])


def _gibbs(atom: AtomModel, T: float) -> tuple:
    """Gibbs populations (q1, q2, q3) at T on Python floats, with math.exp."""
    kT = k_B * T  # a k_B T that underflows to 0 gives x = inf
    x2, x3 = ((hbar * (atom.omega_31 - atom.omega_32) / kT, hbar * atom.omega_31 / kT)
              if kT else (math.inf, math.inf))
    e2, e3 = math.exp(-min(x2, 745.0)), math.exp(-min(x3, 745.0))
    s = 1.0 + e2 + e3
    return 1.0 / s, e2 / s, e3 / s


def _distances(P: np.ndarray, atom: AtomModel, T_values) -> np.ndarray:
    """Thermal distance of each state row of ``P`` at its temperature in ``T_values``:
    a BLAS dot per row, as np.linalg.norm takes (``X @ d`` and einsum round differently)."""
    diff = P - np.array([_gibbs(atom, T) for T in T_values]).reshape(-1, 3)
    return np.sqrt(np.vecdot(diff, diff))


def _check_bracket(T_search):
    """``(T_lo, T_hi)`` of ``T_search``; ValueError unless 0 < T_lo < T_hi < inf."""
    T_lo, T_hi = T_search
    if not (0.0 < T_lo < T_hi < math.inf):
        raise ValueError(f"need 0 < T_lo < T_hi < inf, got {T_search!r}")
    return T_lo, T_hi


@lru_cache(maxsize=16)
def _prescan(atom: AtomModel, T_lo: float, T_hi: float) -> tuple:
    """The 64-point log-spaced pre-scan grid of a bracket and its (64, 3) Gibbs
    rows from :func:`_gibbs`; built once per atom and bracket, read-only."""
    grid = np.geomspace(T_lo, T_hi, 64)
    gibbs = np.array([_gibbs(atom, T) for T in grid.tolist()])
    grid.flags.writeable = gibbs.flags.writeable = False
    return grid, gibbs


def closest_thermal(p: Populations, atom: AtomModel,
                    T_search=DEFAULT_T_SEARCH) -> ThermalComparison:
    """Temperature minimizing the thermal distance over a bracket.

    A 64-point log-spaced pre-scan finds the global basin; golden section
    refines it to 0.01 K, or to 4 float spacings of T where that is
    coarser. The state counts as thermal below DEFAULT_THERMAL_THRESHOLD.
    A minimum on the search boundary is flagged, not raised. The reported
    distance is :func:`distance_to_thermal` at the closest temperature.
    The one-row case of :func:`_closest_thermal_rows`.
    """
    return _closest_thermal_rows(p.as_array()[None], atom, T_search)[0]


def _closest_thermal_rows(P: np.ndarray, atom: AtomModel, T_search) -> list:
    """The ThermalComparison of each state row of ``P``: one pre-scan of all the
    rows, a golden section per row, and one distance per row at its closest T."""
    T_lo, T_hi = _check_bracket(T_search)
    grid, gibbs = _prescan(atom, float(T_lo), float(T_hi))
    scan_d = np.sqrt(((P[:, None, :] - gibbs) ** 2).sum(axis=2))  # one (n, 64) pre-scan
    j = np.argmin(scan_d, axis=1)
    lo, hi = grid[np.maximum(j - 1, 0)], grid[np.minimum(j + 1, len(grid) - 1)]
    T_best = [_golden(p, atom, a, b) for p, a, b in zip(P.tolist(), lo.tolist(), hi.tolist())]
    d_best, edge = _distances(P, atom, T_best), (j == 0) | (j == len(grid) - 1)
    return [ThermalComparison(closest_T=T, distance=d,
                              is_thermal=d < DEFAULT_THERMAL_THRESHOLD, at_boundary=at)
            for T, d, at in zip(T_best, d_best.tolist(), edge.tolist())]


def _golden(p, atom: AtomModel, a: float, b: float) -> float:
    """Closest T of the state ``p = (p1, p2, p3)`` in [a, b]: golden section on
    Python floats to 0.005 K, or to 4 float spacings of ``b`` where that is coarser."""
    p1, p2, p3 = p

    def distance(T):
        q1, q2, q3 = _gibbs(atom, T)
        return math.sqrt((p1 - q1) ** 2 + (p2 - q2) ** 2 + (p3 - q3) ** 2)

    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    f1, f2 = distance(x1), distance(x2)
    tol = max(0.005, 4.0 * math.ulp(b))  # 4 ulp(T) > 0.005 K from 2^43 K on
    while (b - a) > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = distance(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = distance(x2)
    return 0.5 * (a + b)


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
        envs[i] = pair = pair_at(omega, z, delta, model, weights, rv)
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
                 T_search=DEFAULT_T_SEARCH) -> ScanPoint:
    """Full pipeline at one geometry point; failures recorded, not raised.

    The one-point case of :func:`scan`; ``T_search=None`` runs no
    closest-thermal search.
    """
    return scan(atom, model, [geom.z], [geom.delta], T_W, T_M, spec, T_search).points[0]


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
         T_search=DEFAULT_T_SEARCH) -> ScanResult:
    """Evaluate the full pipeline over the (delta, z) product grid.

    For each delta, each transition integrates all heights together. The
    result order is delta-major, z-minor. Each converged point is compared
    with the Gibbs states of the bracket ``T_search``; None runs no search.
    Argument errors raise before any integral; per-point failures land in
    ``ScanPoint.error`` and the scan continues.
    """
    z_values, delta_values = _grid(z_values, delta_values)
    if T_search is not None:
        _check_bracket(T_search)
    points = []
    for delta in delta_values.tolist():
        envs31 = _environments(atom, "31", model, z_values, delta, T_W, T_M, spec)
        envs32 = _environments(atom, "32", model, z_values, delta, T_W, T_M, spec)
        points.extend(_steady(atom, z_values, delta, envs31, envs32, T_search))
    return ScanResult(z_values=z_values, delta_values=delta_values, points=tuple(points))


def _steady(atom, z_values, delta, envs31, envs32, T_search) -> list:
    """Scan points of one slab from the environments (or PointFailures) of both
    transitions; the closest-thermal searches of its steady states run as one."""
    heights = []  # (z, env31, env32, steady state, first failure)
    for z, env31, env32 in zip(z_values.tolist(), envs31, envs32):
        failure = next((e for e in (env31, env32) if isinstance(e, PointFailure)), None)
        pops = None
        if failure is None:
            try:
                pops = steady_state(env31.n_eff, env32.n_eff)
            except _POINT_ERRORS as exc:
                failure = PointFailure(exc, z)
        heights.append((z, env31, env32, pops, failure))
    rows = np.reshape([p.as_array() for *_, p, failure in heights if failure is None], (-1, 3))
    thermal = iter(_closest_thermal_rows(rows, atom, T_search) if T_search is not None else ())
    return [ScanPoint(z=z, delta=delta, error=str(failure)) if failure else
            ScanPoint(z=z, delta=delta, env31=env31, env32=env32, populations=pops,
                      thermal=next(thermal, None))
            for z, env31, env32, pops, failure in heights]


def environment_scan(omega: float, weights, model: DielectricModel, z_values,
                     delta_values, T_W: float, T_M: float,
                     spec: QuadratureSpec = DEFAULT_SPEC):
    """Single-transition z/delta scan: list of (z, delta, env-or-None, error).

    Each delta integrates all heights together, as in :func:`scan`, on a
    probe atom whose transition 32, the one integrated, is ``omega``: a
    ValueError naming omega says it has no default dipole magnitude.
    """
    if not 0.0 < omega < math.inf:
        raise ValueError(f"omega must be finite and > 0, got {omega!r}")
    z_values, delta_values = _grid(z_values, delta_values)
    weights = check_weights(weights)
    try:
        probe = AtomModel(omega_31=2.0 * omega, omega_32=omega, d31_mag=1.0,
                          weights_31=weights, weights_32=weights)
    except ValueError:
        raise ValueError(f"omega = {omega!r} has no default dipole magnitude") from None
    records = []
    for delta in delta_values.tolist():
        for z, env in zip(z_values.tolist(), _environments(probe, "32", model, z_values,
                                                           delta, T_W, T_M, spec)):
            if isinstance(env, PointFailure):
                records.append((z, delta, None, str(env)))
            else:
                records.append((z, delta, env, None))
    return records
