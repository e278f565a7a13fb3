"""Heights integrated together on shared nodes agree with one height at a time.

``response_vectors_many`` integrates C for the heights within a decade of
each other in passes of several heights, and D in one pass for the
heights whose C converged. Each column keeps its own tolerance but the
panels are split in another order, so a height's B, C and D may move
within the quadrature tolerance, never beyond it; a height that fails
keeps its failure to itself.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neqatom import quadrature, response
from neqatom.constants import c
from neqatom.optics import DielectricModel, load_material
from neqatom.quadrature import (
    DEFAULT_SPEC,
    NonFiniteIntegrandError,
    QuadratureResult,
    QuadratureToleranceError,
)
from neqatom.response import (
    GeometryPoint,
    ResponseVectors,
    response_vectors,
    response_vectors_many,
)

SIC = load_material("sic")
OMEGA_R = 1.495e14
LOW_LOSS = DielectricModel(2.0, 2e14, 1e14, gamma_damp=1e10)
LOSSLESS = DielectricModel(2.0, 2e14, 1e14, gamma_damp=0.0)

# (model, omega): SiC at and off its resonance, the low-loss slab above omega_L
CASES = ((SIC, OMEGA_R), (SIC, 2.0 * OMEGA_R), (LOW_LOSS, 3e14))


def _single(omega, z, delta, model):
    try:
        return response_vectors(omega, GeometryPoint(z=z, delta=delta), model)
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        return exc


@pytest.mark.parametrize("delta", [0.0, 110e-9, 1e-2])
@pytest.mark.parametrize("case", CASES, ids=["sic-resonant", "sic-2wr", "low-loss"])
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(
    lo=st.floats(-9.0, -7.0),
    span=st.floats(0.0, 4.0),
    n=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_many_heights_match_single_heights(case, delta, lo, span, n, seed):
    model, omega = case
    t = np.random.default_rng(seed).random(n)
    z = np.unique(10.0 ** (lo + span * t))
    many = response_vectors_many(omega, z, delta, model)
    assert len(many) == len(z)
    tol = 10.0 * DEFAULT_SPEC.rel_tol
    for h, got in zip(z.tolist(), many):
        want = _single(omega, h, delta, model)
        if isinstance(got, Exception) or isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want), (h, got, want)
            continue
        bound = tol * (1.0 + np.abs(want.C) + np.abs(want.D))
        for name in ("B", "C", "D"):
            assert np.all(np.abs(getattr(got, name) - getattr(want, name)) <= bound), (h, name)


def _equal(a: ResponseVectors, b: ResponseVectors) -> bool:
    return all(np.array_equal(getattr(a, n), getattr(b, n)) for n in ("B", "C", "D", "error"))


class TestFailureIsolation:
    def test_tiny_and_huge_heights_fail_alone_without_a_warning(self):
        # the evanescent tail bound of 1e-150 m overflows, the oscillatory
        # panels of 1e170 m exceed their budget: typed errors, no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            many = response_vectors_many(OMEGA_R, [1e-150, 1e-8, 1e170], 1e-7, SIC)
        assert [type(r) for r in many] == [NonFiniteIntegrandError, ResponseVectors, ValueError]
        # near the float maximum the phase-panel count, and 2z, overflow:
        # C's budget error, and the height next to it keeps its own value
        alone = response_vectors(OMEGA_R, GeometryPoint(z=1e-8, delta=1e-2), SIC)
        for huge in (5e307, 1.7e308):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got, bad = response_vectors_many(OMEGA_R, [1e-8, huge], 1e-2, SIC)
            assert _equal(got, alone)
            assert type(bad) is ValueError and bad.integral == "C", huge

    def test_tiny_heights_give_vectors_or_a_typed_error_without_a_warning(self):
        # below about 1.2e-153 m the evanescent cut squares past the float
        # range; from 3e-114 to 3e-110 m the samples are finite but the
        # panel sums overflow. Both raise NonFiniteIntegrandError silently
        for e in np.arange(-160.0, -99.75, 0.5):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                (got,) = response_vectors_many(OMEGA_R, [10.0**e], 1e-7, SIC)
            assert isinstance(got, (ResponseVectors, NonFiniteIntegrandError)), (e, got)
        # down to the smallest subnormal the cut 1/z is inf: D's tail check
        for z in (5e-324, 1e-310, 2e-308):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                (got,) = response_vectors_many(OMEGA_R, [z], 1e-2, SIC)
            assert type(got) is NonFiniteIntegrandError and got.integral == "D", z

    def test_lossless_far_height_fails_alone(self):
        # C_zz of the lossless 5 mm slab cancels below the K15-G7 floor at
        # 80 um (as at 160 um); 20 and 40 um converge on their own
        zs = [2e-5, 4e-5, 8e-5]
        many = response_vectors_many(5e14, zs, 5e-3, LOSSLESS)
        assert isinstance(many[2], QuadratureToleranceError)
        for h, got in zip(zs[:2], many[:2]):
            assert _equal(got, response_vectors(5e14, GeometryPoint(z=h, delta=5e-3), LOSSLESS))

    @staticmethod
    def _failing_at(monkeypatch, engine, bad, text):
        integrate = getattr(response, engine)

        def failing_at_bad(integrand, omega, z, *args, **kwargs):
            if bad in np.atleast_1d(z):
                best = QuadratureResult(np.zeros(3), np.ones(3), 15)
                raise QuadratureToleranceError(text, best=best)
            return integrate(integrand, omega, z, *args, **kwargs)

        monkeypatch.setattr(response, engine, failing_at_bad)

    # the failing integral is integrated again height by height, so its
    # values at the neighbours are their one-height values. The other one
    # keeps the passes of ``grid``: a failing D leaves C the whole grid, a
    # height whose C fails takes no part in D
    def _check_isolation(self, monkeypatch, engine, alone, shared, bad, grid):
        zs = [1.5e-7, 2e-7, 3e-7, 5e-7]
        clean = dict(zip(grid, response_vectors_many(OMEGA_R, grid, 110e-9, SIC)))
        self._failing_at(monkeypatch, engine, bad, "forced failure")
        isolated = response_vectors_many(OMEGA_R, zs, 110e-9, SIC)
        assert str(isolated[zs.index(bad)]) == "forced failure"
        assert isolated[zs.index(bad)].integral == alone
        for h, got in zip(zs, isolated):
            if h == bad:
                continue
            single = response_vectors(OMEGA_R, GeometryPoint(z=h, delta=110e-9), SIC)
            assert np.array_equal(got.B, clean[h].B)
            assert np.array_equal(getattr(got, alone), getattr(single, alone))
            assert np.array_equal(getattr(got, shared), getattr(clean[h], shared))

    def test_one_failing_height_keeps_its_error(self, monkeypatch):
        self._check_isolation(monkeypatch, "integrate_oscillatory", "C", "D",
                              3e-7, [1.5e-7, 2e-7, 5e-7])

    def test_failing_smallest_height_leaves_d_its_neighbours(self, monkeypatch):
        # the smallest height would set D's cut and its neighbours' ladders
        self._check_isolation(monkeypatch, "integrate_oscillatory", "C", "D",
                              1.5e-7, [2e-7, 3e-7, 5e-7])

    def test_one_failing_d_height_keeps_its_error(self, monkeypatch):
        self._check_isolation(monkeypatch, "integrate_evanescent", "D", "C",
                              3e-7, [1.5e-7, 2e-7, 3e-7, 5e-7])

    def test_height_failing_both_reports_c(self, monkeypatch):
        bad = 3e-7
        self._failing_at(monkeypatch, "integrate_oscillatory", bad, "C failure")
        self._failing_at(monkeypatch, "integrate_evanescent", bad, "D failure")
        many = response_vectors_many(OMEGA_R, [2e-7, bad, 5e-7], 110e-9, SIC)
        assert str(many[1]) == "C failure" and many[1].integral == "C"
        assert isinstance(many[0], ResponseVectors) and isinstance(many[2], ResponseVectors)

    def test_d_skipped_where_no_c_converged(self, monkeypatch):
        bad = 3e-7
        seen = []
        integrate = response.integrate_evanescent

        def recording(integrand, omega, z, *args, **kwargs):
            seen.append(np.atleast_1d(z).tolist())
            return integrate(integrand, omega, z, *args, **kwargs)

        monkeypatch.setattr(response, "integrate_evanescent", recording)
        self._failing_at(monkeypatch, "integrate_oscillatory", bad, "C failure")
        (alone,) = response_vectors_many(OMEGA_R, [bad], 110e-9, SIC)
        assert str(alone) == "C failure" and seen == []
        response_vectors_many(OMEGA_R, [2e-7, bad, 5e-7], 110e-9, SIC)
        assert seen == [[2e-7, 5e-7]]

    def test_failing_b_lands_on_every_height(self, monkeypatch):
        def failing_b(*args, **kwargs):
            raise QuadratureToleranceError("forced B failure",
                                           best=QuadratureResult(np.zeros(3), np.ones(3), 15))

        monkeypatch.setattr(response, "integrate_propagative", failing_b)
        response._b_vector.cache_clear()
        try:
            many = response_vectors_many(OMEGA_R, [1e-8, 1e-7, 1e-6], 110e-9, SIC)
        finally:
            response._b_vector.cache_clear()
        assert [str(e) for e in many] == ["forced B failure"] * 3
        assert [e.integral for e in many] == ["B"] * 3


class TestGrouping:
    RESONANT_GRID = np.geomspace(1e-8, 1e-4, 50)

    @pytest.mark.parametrize("z,sizes", [
        ([1e-8, 4e-8, 2e-7, 1e-6], [2, 2]),          # ends on a power of ten
        (RESONANT_GRID, [13, 12, 12, 13]),
        (np.geomspace(1e-9, 1e-8, 20), [20]),        # one decade, one pass
        ([5e-7], [1]),
        ([1e-200, 1e200], [1, 1]),                   # their ratio overflows
    ], ids=["power-of-ten-end", "resonant-grid", "one-decade", "one", "overflowing-ratio"])
    def test_groups(self, z, sizes):
        # a C pass is one part of at most a decade, whatever its size
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            passes = response._c_passes(np.asarray(z))
        assert [p.stop - p.start for p in passes] == sizes

    # the grids that once split D where its ladder stopped short of
    # 1/(2 z_max): the ladder now reaches its floor min(omega/c,
    # 1/(2 z_max))/8, so each is one pass. "reach" straddles the height
    # 1/(2 omega/c) where the largest height starts to set the floor, and
    # adds two heights 6.6 cm up, where C fails
    _TURN = 0.5 * c / OMEGA_R

    @pytest.mark.parametrize("z", [
        [1e-8, 4e-8, 2e-7, 1e-6],
        RESONANT_GRID,
        [1e-9, 0.99 * _TURN, 1.01 * _TURN, 6.6e-2, 6.7e-2],
        [5e-7],
    ], ids=["two-decades", "resonant-grid", "reach", "one"])
    def test_d_passes_keep_to_the_ladder_reach(self, z, monkeypatch):
        z = np.asarray(z)
        seen, c_converged = [], []
        integrate_c, integrate_d = response.integrate_oscillatory, response.integrate_evanescent

        def recording_c(integrand, omega, z, *args, **kwargs):
            res = integrate_c(integrand, omega, z, *args, **kwargs)
            c_converged.extend(np.atleast_1d(z).tolist())
            return res

        def recording_d(integrand, omega, z, *args, **kwargs):
            seen.append(np.atleast_1d(z).tolist())
            return integrate_d(integrand, omega, z, *args, **kwargs)

        monkeypatch.setattr(response, "integrate_oscillatory", recording_c)
        monkeypatch.setattr(response, "integrate_evanescent", recording_d)
        many = response_vectors_many(OMEGA_R, z, 110e-9, SIC)
        # one D pass of the heights whose C converged ("reach": C fails at
        # the two heights 6.6 cm up, so D holds three heights)
        assert seen == [sorted(c_converged)]
        # the heights 6.6 cm up fail alone too: the pass changes no outcome
        for h, got in zip(z.tolist(), many):
            assert type(got) is type(_single(OMEGA_R, h, 110e-9, SIC)), h

    def test_one_d_pass_for_any_span(self, monkeypatch):
        # 4e7 times the smallest height: the cut ladder from 1e-10 reaches
        # the scale 1/(2z) of 4 mm (its floor is an eighth of it), so the
        # pass does not split. Each height converges alone
        z = np.array([1e-10, 1e-8, 1e-6, 1e-4, 4e-3])
        omega, delta = 2.0 * OMEGA_R, 1e-2
        seen = []
        integrate = response.integrate_evanescent

        def recording(integrand, omega, z, *args, **kwargs):
            res = integrate(integrand, omega, z, *args, **kwargs)
            seen.append((np.size(z), res.edges[1]))
            return res

        monkeypatch.setattr(response, "integrate_evanescent", recording)
        many = response_vectors_many(omega, z, delta, SIC)
        assert [n for n, _ in seen] == [len(z)]
        # the cut ladder reaches the scale of the largest height
        assert seen[0][1] <= 0.5 / z[-1]
        tol = 10.0 * DEFAULT_SPEC.rel_tol
        for h, got in zip(z.tolist(), many):
            want = response_vectors(omega, GeometryPoint(z=h, delta=delta), SIC)
            bound = tol * (1.0 + np.abs(want.C) + np.abs(want.D))
            assert np.all(np.abs(got.D - want.D) <= bound), h

    @pytest.mark.parametrize("z", [[], [1e-7, 1e-7], [2e-7, 1e-7], [0.0, 1e-7], [np.nan],
                                   [1e-7, np.inf]])
    def test_bad_heights_rejected(self, z):
        with pytest.raises(ValueError):
            response_vectors_many(OMEGA_R, z, 110e-9, SIC)
