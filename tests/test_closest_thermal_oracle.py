"""closest_thermal against the scalar search it replaced, kept here as an oracle.

The search pre-scans 64 temperatures of every state in one numpy pass and
refines each state with plain float arithmetic; the oracle below calls the
scalar distance 88 times per search. Both must pick the same temperature
and report the same distance, bit for bit.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from scipy.constants import hbar, k as k_B

from neqatom.analysis import (
    DEFAULT_T_SEARCH,
    DEFAULT_THERMAL_THRESHOLD,
    ThermalComparison,
    _closest_thermal_rows,
    closest_thermal,
    scan,
)
from neqatom.atom import AtomModel, Populations
from neqatom.optics import load_material, surface_mode_frequency

SIC = load_material("sic")
COOLING_ATOM = AtomModel(omega_31=surface_mode_frequency(SIC), omega_32=SIC.omega_T)
_GOLDEN = 2.0 / (1.0 + math.sqrt(5.0))


def _oracle_distance(p, atom, T):
    x3 = hbar * atom.omega_31 / (k_B * T)
    x2 = hbar * (atom.omega_31 - atom.omega_32) / (k_B * T)
    q = np.array([1.0, math.exp(-min(x2, 745.0)), math.exp(-min(x3, 745.0))])
    q /= q.sum()
    q = Populations(p1=float(q[0]), p2=float(q[1]), p3=float(q[2]))
    return float(np.linalg.norm(p.as_array() - q.as_array()))


def _oracle(p, atom, T_search=DEFAULT_T_SEARCH):
    T_lo, T_hi = T_search
    grid = np.geomspace(T_lo, T_hi, 64)
    dists = [_oracle_distance(p, atom, T) for T in grid]
    j = int(np.argmin(dists))
    a, b = grid[max(j - 1, 0)], grid[min(j + 1, len(grid) - 1)]
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = _oracle_distance(p, atom, x1)
    f2 = _oracle_distance(p, atom, x2)
    while (b - a) > 0.005:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = _oracle_distance(p, atom, x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = _oracle_distance(p, atom, x2)
    T_best = 0.5 * (a + b)
    d_best = _oracle_distance(p, atom, T_best)
    return ThermalComparison(closest_T=float(T_best), distance=d_best,
                             is_thermal=d_best < DEFAULT_THERMAL_THRESHOLD,
                             at_boundary=j == 0 or j == len(grid) - 1)


def _resonant_track_populations():
    """Steady states of the cooling scenario on the resonant-track grid:
    50 log-spaced heights from 10 nm to 100 um over three slabs."""
    result = scan(COOLING_ATOM, SIC, np.geomspace(1e-8, 1e-4, 50), [1e-8, 1.1e-7, 1e-2],
                  570.0, 170.0, T_search=None)
    assert all(pt.error is None for pt in result.points)
    return [pt.populations for pt in result.points]


def _simplex_points(n, seed):
    rng = np.random.default_rng(seed)
    points = [Populations(*(float(x) for x in row)) for row in rng.dirichlet((1, 1, 1), n)]
    corners = [Populations(1.0, 0.0, 0.0), Populations(0.0, 1.0, 0.0),
               Populations(0.0, 0.0, 1.0), Populations(1 / 3, 1 / 3, 1 / 3)]
    return points + corners


def test_resonant_track_populations_match_oracle():
    pops = _resonant_track_populations()
    assert len(pops) == 150
    for p in pops:
        assert closest_thermal(p, COOLING_ATOM) == _oracle(p, COOLING_ATOM)


@pytest.mark.parametrize("atom", [
    COOLING_ATOM,
    AtomModel(omega_31=2.0 * SIC.omega_T, omega_32=0.5 * SIC.omega_T),
], ids=["cooling", "wide"])
@pytest.mark.parametrize("T_search", [DEFAULT_T_SEARCH, (20.0, 80.0)], ids=["default", "narrow"])
def test_random_simplex_points_match_oracle(atom, T_search):
    for p in _simplex_points(200, seed=7):
        assert closest_thermal(p, atom, T_search) == _oracle(p, atom, T_search)


def _scalar_distance(p, atom, T):
    kT = k_B * T
    x2, x3 = ((math.inf, math.inf) if kT == 0.0 else
              (hbar * (atom.omega_31 - atom.omega_32) / kT, hbar * atom.omega_31 / kT))
    e2, e3 = math.exp(-min(x2, 745.0)), math.exp(-min(x3, 745.0))
    s = 1.0 + e2 + e3
    return math.sqrt((p.p1 - 1.0 / s) ** 2 + (p.p2 - e2 / s) ** 2 + (p.p3 - e3 / s) ** 2)


def _scalar_search(p, atom, T_search):
    """(closest T, pre-scan index) of the one-state search as it was before
    states were searched in batches: a numpy pre-scan, then golden section
    on Python floats, to 0.005 K or 4 float spacings of T."""
    grid = np.geomspace(*T_search, 64)
    with np.errstate(divide="ignore"):
        x2 = hbar * (atom.omega_31 - atom.omega_32) / (k_B * grid)
        x3 = hbar * atom.omega_31 / (k_B * grid)
    e2, e3 = np.exp(-np.minimum(x2, 745.0)), np.exp(-np.minimum(x3, 745.0))
    s = 1.0 + e2 + e3
    j = int(np.argmin(np.sqrt((p.p1 - 1.0 / s) ** 2 + (p.p2 - e2 / s) ** 2
                              + (p.p3 - e3 / s) ** 2)))
    a, b = float(grid[max(j - 1, 0)]), float(grid[min(j + 1, len(grid) - 1)])
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    f1, f2 = _scalar_distance(p, atom, x1), _scalar_distance(p, atom, x2)
    tol = max(0.005, 4.0 * math.ulp(b))
    while (b - a) > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = _scalar_distance(p, atom, x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = _scalar_distance(p, atom, x2)
    return 0.5 * (a + b), j


@lru_cache(maxsize=1)
def _mixed_states():
    """The resonant-track states and simplex points with the four corners, shuffled.

    The last state's hot-bracket search ends 1.6e13 K apart if the
    refinement squares with np.square instead of Python's ``** 2``.
    """
    states = _resonant_track_populations() + _simplex_points(200, seed=3) + [
        Populations(0.4849351687088109, 0.055850217208740484, 0.4592146140824485)]
    return tuple(states[i] for i in np.random.default_rng(5).permutation(len(states)))


BRACKETS = pytest.mark.parametrize("T_search", [DEFAULT_T_SEARCH, (20.0, 80.0), (1.0, 1e16)],
                                   ids=["default", "narrow", "hot"])


@BRACKETS
def test_one_row_search_matches_the_scalar_loop(T_search):
    # under the hot bracket, T is resolved to 4 float spacings and nearly
    # equal distances are compared: math.exp and Python's ** 2 decide them
    for p in _mixed_states():
        T, j = _scalar_search(p, COOLING_ATOM, T_search)
        got = closest_thermal(p, COOLING_ATOM, T_search)
        assert (got.closest_T, got.distance, got.at_boundary) == (
            T, _oracle_distance(p, COOLING_ATOM, T), j in (0, 63))


@BRACKETS
def test_batch_matches_one_row_search(T_search):
    # one search over the whole batch gives every state the bits of its own
    states = _mixed_states()
    want = [closest_thermal(p, COOLING_ATOM, T_search) for p in states]
    got = _closest_thermal_rows(np.array([p.as_array() for p in states]), COOLING_ATOM,
                                T_search)
    assert got == want
    # both ends of the bracket appear
    grid = np.geomspace(*T_search, 64)
    assert {c.closest_T < grid[1] for c in got if c.at_boundary} == {True, False}
    if T_search[1] > 2.0**43:
        # past 2^43 K the 4-ulp tolerance, not 0.005 K, ends a search
        assert any(c.closest_T > 2.0**43 for c in got)
