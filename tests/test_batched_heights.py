"""Heights integrated together on shared nodes agree with one height at a time.

``response_vectors_many`` integrates heights within a decade of each
other in one adaptive pass. Each column keeps its own tolerance but the panels are
split in another order, so a height's B, C and D may move within the
quadrature tolerance, never beyond it; a height that fails keeps its
failure to itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neqatom import response
from neqatom.optics import DielectricModel, load_material
from neqatom.quadrature import DEFAULT_SPEC, QuadratureResult, QuadratureToleranceError
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
    for g in response._height_groups(z):
        assert g.stop - g.start <= 16 and z[g.stop - 1] <= 10.0 * (1.0 + 1e-8) * z[g.start]
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
    def test_lossless_far_height_fails_alone(self):
        # C_zz of the lossless 5 mm slab cancels below the K15-G7 floor at
        # 80 um (as at 160 um); 20 and 40 um converge on their own
        zs = [2e-5, 4e-5, 8e-5]
        many = response_vectors_many(5e14, zs, 5e-3, LOSSLESS)
        assert isinstance(many[2], QuadratureToleranceError)
        for h, got in zip(zs[:2], many[:2]):
            assert _equal(got, response_vectors(5e14, GeometryPoint(z=h, delta=5e-3), LOSSLESS))

    def test_one_failing_height_keeps_its_error(self, monkeypatch):
        bad = 3e-7
        integrate = response.integrate_oscillatory

        def failing_at_bad(integrand, omega, z, *args, **kwargs):
            if bad in np.atleast_1d(z):
                best = QuadratureResult(np.zeros(3), np.ones(3), 15)
                raise QuadratureToleranceError("forced failure", best=best)
            return integrate(integrand, omega, z, *args, **kwargs)

        zs = [1.5e-7, 2e-7, bad, 5e-7]
        monkeypatch.setattr(response, "integrate_oscillatory", failing_at_bad)
        isolated = response_vectors_many(OMEGA_R, zs, 110e-9, SIC)
        assert str(isolated[2]) == "forced failure"
        singles = [response_vectors(OMEGA_R, GeometryPoint(z=h, delta=110e-9), SIC)
                   for h in (zs[0], zs[1], zs[3])]
        for got, want in zip((isolated[0], isolated[1], isolated[3]), singles):
            assert _equal(got, want)

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


class TestGrouping:
    @pytest.mark.parametrize("z,sizes", [
        ([1e-8, 4e-8, 2e-7, 1e-6], [2, 2]),          # ends on a power of ten
        (np.geomspace(1e-8, 1e-4, 50), [13, 12, 12, 13]),
        (np.geomspace(1e-9, 1e-8, 20), [10, 10]),    # one decade, 16 at most
        ([5e-7], [1]),
    ], ids=["power-of-ten-end", "resonant-grid", "capped", "one"])
    def test_groups(self, z, sizes):
        groups = response._height_groups(np.asarray(z))
        assert [g.stop - g.start for g in groups] == sizes

    def test_one_engine_call_per_decade(self, monkeypatch):
        seen = []
        integrate = response.integrate_evanescent

        def recording(integrand, omega, z, *args, **kwargs):
            seen.append(np.size(z))
            return integrate(integrand, omega, z, *args, **kwargs)

        monkeypatch.setattr(response, "integrate_evanescent", recording)
        response_vectors_many(OMEGA_R, np.geomspace(1.1e-8, 9e-6, 40), 110e-9, SIC)
        assert sum(seen) == 40 and len(seen) == 3

    @pytest.mark.parametrize("z", [[], [1e-7, 1e-7], [2e-7, 1e-7], [0.0, 1e-7], [np.nan],
                                   [1e-7, np.inf]])
    def test_bad_heights_rejected(self, z):
        with pytest.raises(ValueError):
            response_vectors_many(OMEGA_R, z, 110e-9, SIC)
