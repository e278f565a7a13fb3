"""Thermal-state comparison and scan plumbing."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.constants import c

from neqatom.analysis import (
    ScanPoint,
    closest_thermal,
    distance_to_thermal,
    environment_scan,
    scan,
    steady_point,
    thermal_populations,
    transition_environments,
)
from neqatom.atom import AtomModel, Populations, bose_occupation, steady_state
from neqatom.optics import DielectricModel, LosslessResonanceError, load_material
from neqatom.optics import surface_mode_frequency
from neqatom import analysis, response
from neqatom.quadrature import QuadratureResult, QuadratureSpec, QuadratureToleranceError
from neqatom.response import ISOTROPIC_WEIGHTS, GeometryPoint, PointFailure, _b_vector

SIC = load_material("sic")
OMEGA_R = 1.495e14
OMEGA_P = surface_mode_frequency(SIC)

FIG5_ATOM = AtomModel(omega_31=1.787e14, omega_32=OMEGA_R)
COOLING_ATOM = AtomModel(omega_31=OMEGA_P, omega_32=SIC.omega_T)

# k_B T rounds to 0 below about 2e-301 K
UNDERFLOW_T = 1e-310


class TestThermalPopulations:
    def test_infinite_temperature_limit(self):
        p = thermal_populations(FIG5_ATOM, 1e9)
        assert p.as_array() == pytest.approx([1 / 3] * 3, rel=1e-5)

    def test_zero_temperature_limit(self):
        p = thermal_populations(FIG5_ATOM, 0.5)
        assert p.as_array() == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)

    def test_identity_with_steady_state(self):
        rng = np.random.RandomState(9)
        for _ in range(50):
            T = 10 ** rng.uniform(1.3, 3.5)
            via_steady = steady_state(bose_occupation(FIG5_ATOM.omega_31, T),
                                      bose_occupation(FIG5_ATOM.omega_32, T))
            direct = thermal_populations(FIG5_ATOM, T)
            assert np.abs(via_steady.as_array() - direct.as_array()).max() < 1e-12

    def test_requires_positive_temperature(self):
        with pytest.raises(ValueError):
            thermal_populations(FIG5_ATOM, 0.0)

    def test_underflowing_temperature_is_the_ground_state(self):
        assert thermal_populations(COOLING_ATOM, UNDERFLOW_T) == \
            thermal_populations(COOLING_ATOM, 1e-300)


class TestDistance:
    def test_zero_at_own_temperature(self):
        p = thermal_populations(FIG5_ATOM, 321.0)
        assert distance_to_thermal(p, FIG5_ATOM, 321.0) == 0.0

    @pytest.mark.parametrize("T,expected", [
        (48.0, 1.3e-3),
        (170.0, 1.8e-3),
        (570.0, 3.4e-4),
    ])
    def test_one_kelvin_calibration(self, T, expected):
        p = thermal_populations(FIG5_ATOM, T)
        d = distance_to_thermal(p, FIG5_ATOM, T + 1.0)
        assert d == pytest.approx(expected, rel=0.05)

    def test_underflowing_temperature(self):
        d = distance_to_thermal(Populations(1.0, 0.0, 0.0), COOLING_ATOM, UNDERFLOW_T)
        assert d <= 1e-300


class TestClosestThermal:
    def test_recovers_thermal_state(self):
        p = thermal_populations(FIG5_ATOM, 300.0)
        res = closest_thermal(p, FIG5_ATOM)
        assert abs(res.closest_T - 300.0) < 0.01
        assert res.distance < 1e-6
        assert res.is_thermal
        assert not res.at_boundary

    def test_roundtrip_over_range(self):
        for T in np.geomspace(10.0, 2000.0, 9):
            p = thermal_populations(FIG5_ATOM, float(T))
            res = closest_thermal(p, FIG5_ATOM)
            assert abs(res.closest_T - T) < 0.01

    def test_inverted_state_is_never_thermal(self):
        # thermal ordering forces q1 >= q2, so p2 > p1 keeps a finite distance
        p = Populations(0.05, 0.9, 0.05)
        res = closest_thermal(p, FIG5_ATOM)
        assert res.distance > 0.05
        assert not res.is_thermal

    def test_boundary_flagged(self):
        p = thermal_populations(FIG5_ATOM, 4500.0)
        res = closest_thermal(p, FIG5_ATOM, T_search=(1.0, 100.0))
        assert res.at_boundary

    def test_bracket_down_to_underflowing_temperature(self):
        res = closest_thermal(Populations(1.0, 0.0, 0.0), COOLING_ATOM, (UNDERFLOW_T, 10.0))
        assert res.at_boundary and res.is_thermal

    def test_hot_bracket_ends(self):
        # near 1e14 K the float spacing of T exceeds 0.005 K, so a search
        # held to 0.005 K never ends: it runs in a subprocess with a timeout
        code = (
            "from neqatom.analysis import closest_thermal\n"
            "from neqatom.atom import AtomModel, Populations\n"
            "from neqatom.optics import load_material, surface_mode_frequency\n"
            "sic = load_material('sic')\n"
            "atom = AtomModel(omega_31=surface_mode_frequency(sic), omega_32=sic.omega_T)\n"
            "res = closest_thermal(Populations(1 / 3, 1 / 3, 1 / 3), atom, (1.0, 1e14))\n"
            "print(repr(res.closest_T), res.at_boundary)\n"
        )
        env = dict(os.environ)
        src = str(Path(analysis.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        T, at_boundary = proc.stdout.split()
        grid = np.geomspace(1.0, 1e14, 64)
        assert at_boundary == "True"
        assert grid[-2] <= float(T) <= grid[-1]

    def test_prescan_grid_cached_per_bracket(self):
        # interleaved brackets reuse their own table and repeat their first answers
        analysis._prescan.cache_clear()
        states = (thermal_populations(FIG5_ATOM, 300.0), Populations(0.05, 0.9, 0.05))
        brackets = ((1.0, 5000.0), (10.0, 800.0))
        first = {(i, b): closest_thermal(p, FIG5_ATOM, b)
                 for b in brackets for i, p in enumerate(states)}
        for _ in range(2):
            for b in brackets:
                for i, p in enumerate(states):
                    assert closest_thermal(p, FIG5_ATOM, b) == first[i, b]
        assert analysis._prescan.cache_info().misses == 2
        grid, gibbs = analysis._prescan(FIG5_ATOM, 10.0, 800.0)
        assert np.array_equal(grid, np.geomspace(10.0, 800.0, 64))
        # the rows are the populations thermal_populations gives, bit for bit
        assert np.array_equal(gibbs, [thermal_populations(FIG5_ATOM, T).as_array()
                                      for T in grid.tolist()])
        for table in (grid, gibbs):
            with pytest.raises(ValueError):
                table[0] = 1.0

    def test_bracket_validation(self):
        p = thermal_populations(FIG5_ATOM, 300.0)
        with pytest.raises(ValueError):
            closest_thermal(p, FIG5_ATOM, T_search=(100.0, 10.0))
        for bracket in ((1.0, math.inf), (math.nan, 10.0)):
            with pytest.raises(ValueError, match=re.escape(repr(bracket))):
                closest_thermal(p, FIG5_ATOM, T_search=bracket)


class TestScan:
    def test_single_point_matches_pipeline(self):
        res = scan(FIG5_ATOM, SIC, [3.6e-7], [1e-2], 570.0, 170.0)
        assert len(res.points) == 1
        pt = res.points[0]
        direct = steady_point(FIG5_ATOM, SIC, GeometryPoint(z=3.6e-7, delta=1e-2),
                              570.0, 170.0)
        assert pt.populations.as_array() == pytest.approx(
            direct.populations.as_array(), abs=0)
        assert pt.env31.T_eff == direct.env31.T_eff

    def test_equilibrium_scan_is_constant(self):
        zs = np.geomspace(1e-8, 1e-5, 5)
        res = scan(FIG5_ATOM, SIC, zs, [110e-9], 470.0, 470.0, T_search=None)
        pops = np.array([p.populations.as_array() for p in res.points])
        assert np.abs(pops - pops[0]).max() < 1e-6
        boltz = thermal_populations(FIG5_ATOM, 470.0).as_array()
        assert np.abs(pops - boltz).max() < 1e-6
        # no bracket, no search
        assert all(p.thermal is None for p in res.points)

    def test_grid_order_is_delta_major(self):
        res = scan(FIG5_ATOM, SIC, [1e-7, 1e-6], [1e-7, 1e-2], 470.0, 170.0,
                   T_search=None)
        layout = [(p.delta, p.z) for p in res.points]
        assert layout == [(1e-7, 1e-7), (1e-7, 1e-6), (1e-2, 1e-7), (1e-2, 1e-6)]

    def test_points_have_the_bits_of_the_one_state_functions(self):
        # a slab's steady states and searches are taken in arrays
        res = scan(COOLING_ATOM, SIC, np.geomspace(1e-8, 1e-4, 50), [1e-8, 1.1e-7, 1e-2],
                   570.0, 170.0)
        assert len(res.points) == 150
        for pt in res.points:
            assert pt.error is None
            assert pt.populations == steady_state(pt.env31.n_eff, pt.env32.n_eff)
            assert pt.thermal == closest_thermal(pt.populations, COOLING_ATOM)

    def test_failing_heights_beside_a_converged_one(self):
        res = scan(COOLING_ATOM, SIC, [5e-324, 1e-8, 1.7e308], [1e-2], 570.0, 170.0)
        first, middle, last = res.points
        assert first.error == ("NonFiniteIntegrandError: integrand not finite at node inf"
                               " (integral D)")
        assert last.error == ("ValueError: oscillatory panel budget exceeded: z too large"
                              " (integral C)")
        assert middle == steady_point(COOLING_ATOM, SIC, GeometryPoint(z=1e-8, delta=1e-2),
                                      570.0, 170.0)
        assert middle.thermal is not None

    def test_degenerate_steady_state_is_each_points_error(self):
        res = scan(FIG5_ATOM, SIC, [1e-7, 1e-6], [1e-2], 0.0, 0.0)
        assert [pt.error for pt in res.points] == [
            "DegenerateSteadyStateError: steady state not unique at zero temperature"] * 2

    def test_per_point_failure_recorded_and_scan_continues(self):
        bad_spec = QuadratureSpec(rel_tol=1e-14, abs_tol=0.0, max_subdivisions=1)
        res = scan(FIG5_ATOM, SIC, [1e-7, 1e-6], [110e-9], 470.0, 170.0,
                   spec=bad_spec, T_search=None)
        assert len(res.points) == 2
        assert all(p.error is not None for p in res.points)
        assert all(p.populations is None for p in res.points)

    def test_non_finite_integrand_recorded_as_point_error(self, monkeypatch):
        amplitudes = response.slab_amplitudes

        def nan_amplitudes(*args, **kwargs):
            (rho_te, rho_tm), tau = amplitudes(*args, **kwargs)
            rho_te[0] = np.nan
            return (rho_te, rho_tm), tau

        monkeypatch.setattr(response, "slab_amplitudes", nan_amplitudes)
        _b_vector.cache_clear()
        try:
            pt = steady_point(FIG5_ATOM, SIC, GeometryPoint(z=2e-7, delta=110e-9),
                              470.0, 170.0)
        finally:
            _b_vector.cache_clear()
        assert pt.populations is None
        assert pt.error.startswith("NonFiniteIntegrandError: integrand not finite at node")

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            scan(FIG5_ATOM, SIC, [], [1e-7], 470.0, 170.0)

    def test_non_monotone_grid_rejected(self):
        with pytest.raises(ValueError):
            scan(FIG5_ATOM, SIC, [1e-6, 1e-7], [1e-7], 470.0, 170.0)

    @pytest.mark.parametrize("call,match", [
        (lambda: scan(FIG5_ATOM, SIC, [1e-7, 1e-6], [1e-2], math.nan, 170.0),
         "T_W must be finite and >= 0, got nan"),
        (lambda: scan(FIG5_ATOM, SIC, [1e-7, 1e-6], [1e-2], -1.0, 170.0),
         "T_W must be finite and >= 0, got -1.0"),
        (lambda: scan(FIG5_ATOM, SIC, [1e-7, 1e-6], [1e-2], 570.0, math.inf),
         "T_M must be finite and >= 0, got inf"),
        (lambda: scan(FIG5_ATOM, SIC, [1e-7, 1e-6], [1e-2], 570.0, 170.0,
                      T_search=(10.0, 1.0)),
         re.escape("got (10.0, 1.0)")),
        (lambda: environment_scan(-1.0, ISOTROPIC_WEIGHTS, SIC, [1e-7], [1e-2], 470.0, 170.0),
         "omega must be finite and > 0, got -1.0"),
        (lambda: environment_scan(math.nan, ISOTROPIC_WEIGHTS, SIC, [1e-7], [1e-2], 470.0, 170.0),
         "omega must be finite and > 0, got nan"),
        (lambda: scan(FIG5_ATOM, SIC, [1e-7], [1e-2, math.nan], 570.0, 170.0),
         "delta must be finite and >= 0, got nan"),
        (lambda: scan(FIG5_ATOM, SIC, [1e-7], [1e-2, math.inf], 570.0, 170.0),
         "delta must be finite and >= 0, got inf"),
        (lambda: environment_scan(1.6e14, ISOTROPIC_WEIGHTS, SIC, [1e-7], [math.nan, 1e-2],
                                  470.0, 170.0),
         "delta must be finite and >= 0, got nan"),
    ], ids=["nan-T_W", "negative-T_W", "infinite-T_M", "reversed-T_search",
            "negative-omega", "nan-omega", "nan-delta", "infinite-delta",
            "environment-scan-nan-delta"])
    def test_argument_error_raises_before_any_integral(self, monkeypatch, call, match):
        def no_integral(*args, **kwargs):
            raise AssertionError("integrated before the arguments were checked")

        monkeypatch.setattr(analysis, "response_vectors_many", no_integral)
        with pytest.raises(ValueError, match=match):
            call()

    def test_zero_temperature_is_valid(self):
        (pt,) = scan(FIG5_ATOM, SIC, [1e-7], [1e-2], 0.0, 170.0, T_search=None).points
        assert pt.error is None


class TestTransitionEnvironments:
    def test_matches_steady_point(self):
        geom = GeometryPoint(z=3.6e-7, delta=1e-2)
        env31, env32 = transition_environments(FIG5_ATOM, SIC, geom, 570.0, 170.0)
        pt = steady_point(FIG5_ATOM, SIC, geom, 570.0, 170.0, T_search=None)
        assert (env31, env32) == (pt.env31, pt.env32)
        # a single-transition scan at the same point gives the same environment
        for omega, weights, env in ((FIG5_ATOM.omega_31, FIG5_ATOM.weights_31, env31),
                                    (FIG5_ATOM.omega_32, FIG5_ATOM.weights_32, env32)):
            records = environment_scan(omega, weights, SIC, [geom.z], [geom.delta],
                                       570.0, 170.0)
            assert records[0][2] == env

    def test_failure_raises(self):
        geom = GeometryPoint(z=3.6e-7, delta=1e-2)
        with pytest.raises(PointFailure) as info:
            transition_environments(FIG5_ATOM, SIC, geom, 570.0, 170.0,
                                    QuadratureSpec(1e-14, 0.0, 1))
        assert isinstance(info.value.error, QuadratureToleranceError)
        assert info.value.z == geom.z and info.value.integral in ("B", "C", "D")


class TestEnvironmentScan:
    @pytest.mark.parametrize("z_values,delta_values", [
        ([], [1e-2]),
        ([1e-6, 1e-7], [1e-2]),
        ([1e-7], [1e-2, 1e-7]),
        ([1e-7, math.inf], [1e-2]),
        ([1e-7, math.nan], [1e-2]),
    ], ids=["empty-z", "decreasing-z", "decreasing-delta", "infinite-z", "nan-z"])
    def test_bad_grid_rejected(self, z_values, delta_values):
        with pytest.raises(ValueError):
            environment_scan(OMEGA_R, (1 / 3, 1 / 3, 1 / 3), SIC, z_values,
                             delta_values, 470.0, 170.0)
        with pytest.raises(ValueError):
            scan(FIG5_ATOM, SIC, z_values, delta_values, 470.0, 170.0)

    def test_effective_temperature_continuity(self):
        # along a dense log z-scan the effective temperature moves smoothly
        omega = 0.5 * OMEGA_R
        zs = np.geomspace(10e-9, 100e-6, 200)
        records = environment_scan(omega, (1 / 3, 1 / 3, 1 / 3), SIC, zs, [1e-2],
                                   470.0, 170.0)
        T = np.array([r[2].T_eff for r in records])
        rel_steps = np.abs(np.diff(T)) / T[:-1]
        assert rel_steps.max() < 0.05

    def test_limits(self):
        omega = 0.5 * OMEGA_R
        records = environment_scan(omega, (1 / 3, 1 / 3, 1 / 3), SIC,
                                   [10e-9, 5e-3], [1e-2], 470.0, 170.0)
        near, far = records[0][2], records[1][2]
        assert abs(near.T_eff - 170.0) < 1.0
        assert near.alpha_M > near.alpha_W
        assert far.alpha_W > far.alpha_M

    def test_heights_share_one_b_integral(self):
        _b_vector.cache_clear()
        # four heights of one (omega, delta) share one B integral
        records = environment_scan(0.5 * OMEGA_R, (1 / 3, 1 / 3, 1 / 3), SIC,
                                   [1e-8, 1e-7, 1e-6, 1e-5], [1e-2], 470.0, 170.0)
        assert all(r[3] is None for r in records)
        assert _b_vector.cache_info().misses == 1

    def test_b_failure_lands_in_every_point(self, monkeypatch):
        calls = []

        def failing_b(*args, **kwargs):
            calls.append(1)
            best = QuadratureResult(np.zeros(3), np.ones(3), 15)
            raise QuadratureToleranceError("forced B failure", best=best)

        monkeypatch.setattr(response, "integrate_propagative", failing_b)
        _b_vector.cache_clear()
        records = environment_scan(OMEGA_R, (1 / 3, 1 / 3, 1 / 3), SIC,
                                   [1e-8, 1e-7, 1e-6], [110e-9], 470.0, 170.0)
        assert [r[3] for r in records] == [
            "QuadratureToleranceError: forced B failure (integral B)"] * 3
        # one (omega, delta): B is integrated once and its failure is
        # not retried per height, since B does not depend on the height
        assert len(calls) == 1


class TestLosslessResonance:
    # a lossless model at its omega_T, transition 31 here: its permittivity
    # has a pole, and the slab pass that forms it fails every height
    MODEL = DielectricModel(2.0, 2e14, 1e14, gamma_damp=0.0)
    ATOM = AtomModel(omega_31=1e14, omega_32=0.5e14)
    ERROR = "LosslessResonanceError: lossless resonance singularity (integral B)"

    def test_scan_records_it_per_point(self):
        result = scan(self.ATOM, self.MODEL, [1e-7, 1e-6], [1e-2], 570.0, 170.0)
        assert [pt.error for pt in result.points] == [self.ERROR] * 2
        assert all(pt.populations is None for pt in result.points)

    def test_environment_scan_records_it_per_point(self):
        records = environment_scan(1e14, ISOTROPIC_WEIGHTS, self.MODEL, [1e-7, 1e-6], [1e-2],
                                   570.0, 170.0)
        assert [(r[2], r[3]) for r in records] == [(None, self.ERROR)] * 2

    def test_transition_environments_raise_its_point_failure(self):
        with pytest.raises(PointFailure) as failure:
            transition_environments(self.ATOM, self.MODEL, GeometryPoint(z=1e-7, delta=1e-2),
                                    570.0, 170.0)
        assert type(failure.value.error) is LosslessResonanceError
        assert str(failure.value) == self.ERROR
