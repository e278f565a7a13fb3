"""The height-free slab pass and the seed edges every height starts from.

``_b_vector`` integrates B once per (omega, delta) and keeps its final
panel edges (theta) and a set of evanescent edges (kappa) from which each
height's C and D start. The oracle below is the construction without
seeds: every integral starts from the slab-phase breakpoints alone,
converted from k to the engine's theta or kappa.
Seeds only move where panels start, so B, C and D may move within the
quadrature tolerance, never beyond it.
"""

import math

import numpy as np
import pytest
from scipy.constants import c

from neqatom import quadrature, response
from neqatom.optics import DielectricModel, load_material, permittivity, slab_amplitudes
from neqatom.optics import surface_mode_frequency
from neqatom.quadrature import (
    DEFAULT_SPEC,
    NonFiniteIntegrandError,
    QuadratureSpec,
    integrate_evanescent,
    integrate_oscillatory,
    integrate_propagative,
)
from neqatom.response import (
    _ROOT_SPEC,
    GeometryPoint,
    _b_vector,
    _slab_phase_breakpoints,
    response_vectors,
    response_vectors_many,
)

SIC = load_material("sic")
OMEGA_R = 1.495e14
LOW_LOSS = DielectricModel(2.0, 2e14, 1e14, gamma_damp=1e10)

_TE = np.array([1.0, 0.0])


def _tm(omega, k, kz_sq, phi):
    s = (c / omega) ** 2
    return np.stack((phi * s * kz_sq, 2.0 * s * k**2), axis=-1)


def _unseeded(omega, z, delta, model, spec):
    """(B, C, D) as (xx, yy, zz) vectors, each integral started from the
    slab-phase breakpoints alone; raises what an engine raises."""
    eps = permittivity(model, omega)
    U = omega / c
    pref = 0.75 * c / omega

    def b_density(k, kz):
        (r_te, r_tm), (t_te, t_tm) = slab_amplitudes(omega, eps, kz, delta)
        return pref * (k / kz)[:, None] * (
            (abs(r_te) ** 2 + abs(t_te) ** 2)[:, None] * _TE
            + (abs(r_tm) ** 2 + abs(t_tm) ** 2)[:, None] * _tm(omega, k, kz**2, 1.0))

    def c_density(k, kz):
        (r_te, r_tm), _ = slab_amplitudes(omega, eps, kz, delta, want_tau=False)
        phase = np.exp(2j * kz * z)
        return pref * (k / kz)[:, None] * (
            (r_te * phase).real[:, None] * _TE
            + (r_tm * phase).real[:, None] * _tm(omega, k, kz**2, -1.0))

    def d_density(k, kappa):
        (r_te, r_tm), _ = slab_amplitudes(omega, eps, 1j * kappa, delta, want_tau=False)
        return pref * (k / kappa * np.exp(-2.0 * kappa * z))[:, None] * (
            r_te.imag[:, None] * _TE + r_tm.imag[:, None] * _tm(omega, k, kappa**2, 1.0))

    bk_prop = _slab_phase_breakpoints(omega, delta, eps, 0.0, U, spec.rel_tol)
    theta = np.arcsin(np.clip(bk_prop * c / omega, 0.0, 1.0))
    B = integrate_propagative(b_density, omega, spec, _seeds=theta).value
    C = integrate_oscillatory(c_density, omega, z, spec, _seeds=theta).value
    D = np.zeros(2)
    if eps.imag != 0.0:
        k_osc = U * math.sqrt(max(eps.real, 1.0)) + U
        bk_evan = _slab_phase_breakpoints(omega, delta, eps, U, k_osc, spec.rel_tol)
        kappa = np.sqrt(bk_evan[bk_evan > U] ** 2 - U**2)
        D = integrate_evanescent(d_density, omega, z, spec, _seeds=kappa).value
    return tuple(v[[0, 0, 1]] for v in (B, C, D))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        return exc


def _seeded(omega, z, delta, model, spec):
    rv = response_vectors(omega, GeometryPoint(z=z, delta=delta), model, spec)
    return rv.B, rv.C, rv.D


# SiC below, at and above its resonance and at its surface mode, and the
# low-loss slab above omega_L
GRID = [(SIC, f * OMEGA_R) for f in (0.5, 1.0, 2.0)] + [
    (SIC, surface_mode_frequency(SIC)), (LOW_LOSS, 3e14)]
GRID_IDS = ["sic-0.5wr", "sic-wr", "sic-2wr", "sic-wp", "low-loss"]


@pytest.mark.parametrize("spec", [DEFAULT_SPEC, _ROOT_SPEC], ids=["default", "root"])
@pytest.mark.parametrize("delta", [0.0, 1e-8, 110e-9, 1e-2])
@pytest.mark.parametrize("case", GRID, ids=GRID_IDS)
def test_seeded_matches_unseeded(case, delta, spec):
    model, omega = case
    for z in (1e-8, 1e-6, 1e-4):
        want = _outcome(_unseeded, omega, z, delta, model, spec)
        got = _outcome(_seeded, omega, z, delta, model, spec)
        if isinstance(want, Exception) or isinstance(got, Exception):
            assert type(got) is type(want), (z, got, want)
            continue
        bound = 10.0 * spec.rel_tol * (1.0 + np.abs(want[1]) + np.abs(want[2]))
        for name, g, w in zip("BCD", got, want):
            assert np.all(np.abs(g - w) <= bound), (z, name)


def _bits(rv):
    return tuple(getattr(rv, n).tobytes() for n in ("B", "C", "D", "error"))


# (omega, delta): no evanescent slab-phase breakpoints, so D is seeded by
# the height-free pass; and the transparent thick slab, seeded by them
@pytest.mark.parametrize("omega,delta", [(0.5 * OMEGA_R, 110e-9), (2.0 * OMEGA_R, 1e-2)],
                         ids=["seed-pass", "breakpoints"])
def test_cache_warmth_leaves_a_height_unchanged(omega, delta):
    z = 1e-6
    geom = GeometryPoint(z=z, delta=delta)
    _b_vector.cache_clear()
    cold = _bits(response_vectors(omega, geom, SIC, _ROOT_SPEC))
    assert _bits(response_vectors(omega, geom, SIC, _ROOT_SPEC)) == cold
    assert _b_vector.cache_info().hits == 1
    # decades apart, each height has a C pass of its own, so C keeps its
    # one-height bits; the three share one D pass, which keeps D within
    # the batched bound of test_many_heights_match_single_heights
    _b_vector.cache_clear()
    grid = response_vectors_many(omega, [1e-2 * z, z, 1e2 * z], delta, SIC, _ROOT_SPEC)
    warm = response_vectors(omega, geom, SIC, _ROOT_SPEC)
    assert _bits(warm) == cold
    assert grid[1].B.tobytes() == warm.B.tobytes() and grid[1].C.tobytes() == warm.C.tobytes()
    bound = 10.0 * _ROOT_SPEC.rel_tol * (1.0 + np.abs(warm.C) + np.abs(warm.D))
    assert np.all(np.abs(grid[1].D - warm.D) <= bound)
    warm_grid = response_vectors_many(omega, [1e-2 * z, z, 1e2 * z], delta, SIC, _ROOT_SPEC)
    assert [_bits(rv) for rv in warm_grid] == [_bits(rv) for rv in grid]


def test_seeds_spare_the_rounds(monkeypatch):
    # unseeded, C needs 8 rounds and D 13 here: D refines the TM0 guided
    # mode just past the light line, C the grazing edge, at every height
    results = {}
    for name in ("integrate_oscillatory", "integrate_evanescent"):
        engine = getattr(response, name)

        def recording(*args, _engine=engine, _name=name, **kwargs):
            results[_name] = _engine(*args, **kwargs)
            return results[_name]

        monkeypatch.setattr(response, name, recording)
    _b_vector.cache_clear()
    response_vectors(0.5 * OMEGA_R, GeometryPoint(z=1e-6, delta=110e-9), SIC, _ROOT_SPEC)
    assert results["integrate_oscillatory"].rounds <= 2
    assert results["integrate_evanescent"].rounds <= 3


# the (omega, delta) pairs of a thermal track of the cooling scenario
TRACK = [(omega, delta) for omega in (surface_mode_frequency(SIC), OMEGA_R)
         for delta in (1e-8, 110e-9, 1e-2)]
TRACK_IDS = [f"{w}-{d}" for w in ("wp", "wr") for d in ("10nm", "110nm", "1cm")]


@pytest.mark.parametrize("omega,delta", TRACK, ids=TRACK_IDS)
def test_grazing_ladder_spares_b_its_splits(omega, delta):
    # without the ladder B bisects toward grazing incidence, one split per
    # round: 1-8 splits here at the default spec. The rungs are B's
    # initial edges and stay among its final ones, for C to inherit
    _b_vector.cache_clear()
    b = _b_vector(omega, delta, SIC, DEFAULT_SPEC).B
    assert b.splits == 0
    assert np.isin(response._GRAZING_LADDER, b.edges).all()
    assert _b_vector(omega, delta, SIC, _ROOT_SPEC).B.splits <= 1


@pytest.mark.parametrize("model,omega", [(SIC, 2.0 * OMEGA_R), (LOW_LOSS, 3e14)],
                         ids=["sic-2wr", "low-loss"])
def test_slab_phase_edges_reach_b_and_d_in_their_own_variables(model, omega):
    # the slab-phase breakpoints of a transparent 1 cm slab, in k, reach B
    # as theta and D as kappa: each converted edge is among B's final
    # edges or D's seeds, bit for bit
    delta = 1e-2
    eps = permittivity(model, omega)
    U = omega / c
    k_osc = U * math.sqrt(max(eps.real, 1.0)) + U
    prop = _slab_phase_breakpoints(omega, delta, eps, 0.0, U, DEFAULT_SPEC.rel_tol)
    evan = _slab_phase_breakpoints(omega, delta, eps, U, k_osc, DEFAULT_SPEC.rel_tol)
    assert len(prop) and len(evan)
    slab = _b_vector(omega, delta, model, DEFAULT_SPEC)
    assert np.isin(np.arcsin(prop * c / omega), slab.B.edges).all()
    assert np.isin(np.sqrt(evan**2 - U**2), slab.kappa_seeds).all()


@pytest.mark.parametrize("omega,delta", TRACK, ids=TRACK_IDS)
def test_far_decade_c_pass_starts_from_quarter_period_edges(omega, delta):
    # the last decade of a thermal track, 10-100 um: quarter-period edges
    # of the height phase start this C pass from 72-84 panels, eighth
    # periods from 132-159
    z = np.geomspace(1e-8, 1e-4, 50)
    far = z[response._c_passes(z)[-1]]
    assert len(far) == 13 and far[0] > 1e-5
    slab = _b_vector(omega, delta, SIC, DEFAULT_SPEC)
    eps = permittivity(SIC, omega)
    res = response._c_pass(omega, eps, far, delta, slab, DEFAULT_SPEC)
    assert res.initial_panels <= 90


def _capped_adaptive(F, edges, spec, extra_error=None):
    # the seed pass at a one-split budget: it misses the tolerance
    return quadrature._adaptive(
        F, edges, QuadratureSpec(spec.rel_tol, spec.abs_tol, 1), extra_error)


def test_seed_pass_tolerance_failure_still_seeds(monkeypatch):
    omega, z, delta = 0.5 * OMEGA_R, 1e-6, 110e-9
    want = _unseeded(omega, z, delta, SIC, DEFAULT_SPEC)
    monkeypatch.setattr(response, "_adaptive", _capped_adaptive)
    _b_vector.cache_clear()
    try:
        got = _seeded(omega, z, delta, SIC, DEFAULT_SPEC)
    finally:
        _b_vector.cache_clear()
    bound = 10.0 * DEFAULT_SPEC.rel_tol * (1.0 + np.abs(want[1]) + np.abs(want[2]))
    for g, w in zip(got, want):
        assert np.all(np.abs(g - w) <= bound)


def test_seed_pass_other_failure_lands_on_every_height(monkeypatch):
    def non_finite(F, edges, spec, extra_error=None):
        raise NonFiniteIntegrandError(1.0)

    monkeypatch.setattr(response, "_adaptive", non_finite)
    _b_vector.cache_clear()
    try:
        many = response_vectors_many(0.5 * OMEGA_R, [1e-8, 1e-6, 1e-4], 110e-9, SIC)
    finally:
        _b_vector.cache_clear()
    assert [type(e.error) for e in many] == [NonFiniteIntegrandError] * 3


def test_resonant_thin_slab_converges_at_the_root_spec():
    # the geometry of a known root-spec failure, whose D misses its
    # tolerance at the surface-mode frequency; at the resonance all converge
    rv = response_vectors(OMEGA_R, GeometryPoint(z=1e-6, delta=110e-9), SIC, _ROOT_SPEC)
    size = np.abs(rv.B) + np.abs(rv.C) + np.abs(rv.D)
    assert np.all(rv.error <= _ROOT_SPEC.rel_tol * size + 3.0 * _ROOT_SPEC.abs_tol)


# the bench's (omega, delta) pairs whose evanescent band has no slab-phase
# breakpoints: D is seeded by the height-free pass over [0, kappa_top]
SEED_PASS = TRACK + [(0.5 * OMEGA_R, 110e-9), (2.0 * OMEGA_R, 110e-9)]
SEED_PASS_IDS = TRACK_IDS + ["0.5wr-110nm", "2wr-110nm"]


@pytest.mark.parametrize("omega,delta", SEED_PASS, ids=SEED_PASS_IDS)
def test_light_line_ladder_spares_the_kappa_pass_its_rounds(omega, delta, monkeypatch):
    # from one panel the pass bisects toward the light line kappa = 0, one
    # round a halving: 7-21 rounds here at the default spec (0 at
    # (omega_p, 1 cm)). From the ladder the rounds left, at most 12, refine
    # the guided-mode poles near the light line. Every rung stays among
    # the seeds, for D to start from
    eps = permittivity(SIC, omega)
    U = omega / c
    k_osc = U * math.sqrt(max(eps.real, 1.0)) + U
    assert not len(_slab_phase_breakpoints(omega, delta, eps, U, k_osc, DEFAULT_SPEC.rel_tol))
    passes = []

    def recording(*args, **kwargs):
        passes.append(quadrature._adaptive(*args, **kwargs))
        return passes[-1]

    monkeypatch.setattr(response, "_adaptive", recording)
    _b_vector.cache_clear()
    try:
        seeds = _b_vector(omega, delta, SIC, DEFAULT_SPEC).kappa_seeds
    finally:
        _b_vector.cache_clear()
    assert len(passes) == 1 and passes[0].rounds <= 12
    rungs = math.sqrt(k_osc**2 - U**2) * response._LIGHT_LINE_LADDER
    assert np.isin(rungs, seeds).all()


# the converged heights of crossover-roots roots 0 to 3
ROOTS = {
    "root0": (OMEGA_R, 1e-2, 5.5795e-7),
    "root1": (0.5 * OMEGA_R, 110e-9, 1.9854e-7),
    "root2": (OMEGA_R, 110e-9, 5.6996e-7),
    "root3": (2.0 * OMEGA_R, 110e-9, 5.3729e-8),
}


@pytest.mark.parametrize("root", sorted(ROOTS))
def test_root_spec_d_starts_without_a_split(root, monkeypatch):
    # with a cut ladder in steps of 4, D splits 2-3 panels in 2 rounds
    # here. In steps of 2, with the light-line rungs among its seeds, it
    # starts converged at roots 0 and 2; roots 1 and 3 split the top
    # octave [cut/2, cut] once, where e^{-2 kappa z} falls by e^16, unless
    # the ladder has its rung at 0.75 cut
    omega, delta, z = ROOTS[root]
    results = []
    integrate = response.integrate_evanescent

    def recording(*args, **kwargs):
        results.append(integrate(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(response, "integrate_evanescent", recording)
    response_vectors(omega, GeometryPoint(z=z, delta=delta), SIC, _ROOT_SPEC)
    (d,) = results
    assert d.converged and d.splits == d.rounds == 0


@pytest.mark.parametrize("root", ["root1", "root3"])
@pytest.mark.parametrize("spec", [DEFAULT_SPEC, _ROOT_SPEC], ids=["default", "root"])
def test_top_octave_rung_only_below_its_error(spec, root, monkeypatch):
    # one panel over the top octave leaves a |K15 - G7| of 2.7e-10 of a
    # kappa^3 e^{-2 kappa z} integral: D at the root spec (1e-10) starts
    # from a rung at 0.75 cut, at the default spec (1e-9) from the ladder
    # alone, so the default spec keeps every edge and every byte
    omega, delta, z = ROOTS[root]
    initial = []
    adaptive = quadrature._adaptive

    def recording(F, edges, *args, **kwargs):
        if kwargs.get("extra_error") is not None:      # the evanescent tail bound
            initial.append(edges)
        return adaptive(F, edges, *args, **kwargs)

    monkeypatch.setattr(quadrature, "_adaptive", recording)
    response_vectors(omega, GeometryPoint(z=z, delta=delta), SIC, spec)
    (edges,) = initial
    cut = quadrature._EVANESCENT_CUT / z
    assert edges[-1] == cut and 0.5 * cut in edges
    assert (0.75 * cut in edges) == (spec is _ROOT_SPEC)
