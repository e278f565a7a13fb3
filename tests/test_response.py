"""Response vectors B, C, D and the wall/body weights.

The vacuum oracle is assembled by hand from the two propagative closed
forms: int k/k_z dk = w/c and int (c^2/w^2) k k_z dk = w/(3c). With
rho = 0 and tau = 1 the TE part contributes (1,1,0) * (3c/4w)(w/c) and
the TM part (3c/4w) * [(w/3c), (w/3c), 2*(4w/3c - w/c - w/3c)] ... which
sums to exactly (1, 1, 1); C and D vanish with the reflection.
"""

import math

import numpy as np
import pytest
from scipy.constants import c

from neqatom.optics import DielectricModel, load_material
from neqatom.quadrature import QuadratureSpec
from neqatom.response import (
    AlphaPair,
    GeometryPoint,
    NoCrossoverError,
    alpha_pair,
    crossover_distance,
    response_vectors,
)

SIC = load_material("sic")
OMEGA_R = 1.495e14

# zero-strength oscillator: eps identically 1
VACUUM = DielectricModel(eps_inf=1.0, omega_L=1e16, omega_T=1e16, gamma_damp=0.0)
LOSSLESS = DielectricModel(eps_inf=2.0, omega_L=2e14, omega_T=1e14, gamma_damp=0.0)

CROSSOVER_FROZEN = 5.248766915253852e-06  # dense-scan oracle, omega_r/2, delta 1 cm


class TestVacuumOracle:
    def test_unit_response(self):
        rng = np.random.RandomState(17)
        for _ in range(5):
            omega = 10 ** rng.uniform(13.5, 14.5)
            geom = GeometryPoint(z=10 ** rng.uniform(-8, -5), delta=10 ** rng.uniform(-8, -3))
            rv = response_vectors(omega, geom, VACUUM)
            assert np.abs(rv.B - 1.0).max() < 1e-8
            assert np.abs(rv.C).max() < 1e-8
            assert np.abs(rv.D).max() < 1e-8

    def test_unit_alphas(self):
        pair = alpha_pair(OMEGA_R, GeometryPoint(z=1e-6, delta=1e-6), VACUUM)
        assert pair.alpha_W == pytest.approx(1.0, abs=1e-8)
        assert pair.alpha_M == pytest.approx(0.0, abs=1e-8)


class TestResponseProperties:
    def test_b_independent_of_height(self):
        g1 = GeometryPoint(z=5e-8, delta=110e-9)
        g2 = GeometryPoint(z=7e-6, delta=110e-9)
        r1 = response_vectors(OMEGA_R, g1, SIC)
        r2 = response_vectors(OMEGA_R, g2, SIC)
        assert np.abs(r1.B - r2.B).max() < 1e-8

    def test_far_zone_decay(self):
        # at z = 1e4 c/omega the oscillatory integral cancels by ~1e4, so
        # the conservative K15-G7 estimator cannot certify 1e-9 relative;
        # the decay bound only needs 1e-6
        omega = 0.5 * OMEGA_R
        z = 1e4 * c / omega
        spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-12)
        rv = response_vectors(omega, GeometryPoint(z=z, delta=1e-2), SIC, spec)
        assert np.abs(rv.C).max() < 1e-3
        assert np.abs(rv.D).max() < 1e-3

    def test_lossless_below_band_has_no_evanescent_emission(self):
        # Im rho = 0 for a transparent slab: no absorption, no body channel
        omega = 0.5e14  # below the resonance, eps real and > 1
        rv = response_vectors(omega, GeometryPoint(z=0.3 * c / omega, delta=2e-6), LOSSLESS)
        assert np.abs(rv.D).max() < 1e-8

    def test_sign_structure(self):
        rv = response_vectors(OMEGA_R, GeometryPoint(z=2e-7, delta=110e-9), SIC)
        assert np.all(rv.B >= 0.0)
        assert np.all(rv.D >= 0.0)

    def test_near_field_cubed_scaling(self):
        omega = 0.5 * OMEGA_R
        for z in (5e-9, 2.5e-9):
            half = response_vectors(omega, GeometryPoint(z=z / 2, delta=110e-9), SIC)
            full = response_vectors(omega, GeometryPoint(z=z, delta=110e-9), SIC)
            ratio = half.D / full.D
            assert np.all(ratio > 7.84) and np.all(ratio < 8.16)

    def test_monotone_decay_envelopes(self):
        omega = 0.5 * OMEGA_R
        lam = c / omega
        zs = np.linspace(3 * lam, 25 * lam, 160)
        C = np.array([response_vectors(omega, GeometryPoint(z=z, delta=1e-2), SIC).C
                      for z in zs])
        D = np.array([response_vectors(omega, GeometryPoint(z=z, delta=1e-2), SIC).D
                      for z in zs])
        assert np.all(np.diff(D, axis=0) <= 1e-12)
        for j in range(3):
            y = np.abs(C[:, j])
            peaks = [y[i] for i in range(1, len(y) - 1) if y[i] >= y[i - 1] and y[i] >= y[i + 1]]
            drops = np.diff(peaks)
            assert np.all(drops <= 1e-2 * np.asarray(peaks[:-1]))

    def test_semi_infinite_equivalence(self):
        omega = 0.5 * OMEGA_R
        for z in (1e-7, 1e-6, 1e-5):
            r1 = response_vectors(omega, GeometryPoint(z=z, delta=1e-2), SIC)
            r2 = response_vectors(omega, GeometryPoint(z=z, delta=1e-1), SIC)
            for name in ("B", "C", "D"):
                diff = np.abs(getattr(r1, name) - getattr(r2, name)).max()
                assert diff < 1e-6, (name, z, diff)


class TestAlphaPair:
    def test_sum_rule(self):
        # alpha_W + alpha_M = 1 + (C + D) . d
        geom = GeometryPoint(z=3e-7, delta=110e-9)
        rv = response_vectors(OMEGA_R, geom, SIC)
        pair = alpha_pair(OMEGA_R, geom, SIC)
        d = np.full(3, 1.0 / 3.0)
        expected = 1.0 + (rv.C + rv.D) @ d
        assert pair.alpha_W + pair.alpha_M == pytest.approx(expected, rel=1e-9)

    def test_far_field_sum_approaches_one(self):
        pair = alpha_pair(OMEGA_R, GeometryPoint(z=1e-3, delta=1e-2), SIC)
        assert pair.alpha_W + pair.alpha_M == pytest.approx(1.0, abs=1e-3)

    def test_near_field_body_domination(self):
        pair = alpha_pair(0.5 * OMEGA_R, GeometryPoint(z=1e-9, delta=1e-2), SIC)
        assert pair.alpha_M / pair.alpha_W > 100.0

    def test_anisotropic_weights(self):
        geom = GeometryPoint(z=3e-7, delta=110e-9)
        rv = response_vectors(OMEGA_R, geom, SIC)
        pair = alpha_pair(OMEGA_R, geom, SIC, dipole_weights=(0.0, 0.0, 1.0))
        assert pair.alpha_M == pytest.approx(0.5 * (1.0 - rv.B[2] + 2.0 * rv.D[2]), rel=1e-9)

    def test_weight_validation(self):
        geom = GeometryPoint(z=3e-7, delta=110e-9)
        with pytest.raises(ValueError):
            alpha_pair(OMEGA_R, geom, SIC, dipole_weights=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            alpha_pair(OMEGA_R, geom, SIC, dipole_weights=(-0.2, 0.6, 0.6))
        # rejected by the weight rule, not by the NaN alphas it would produce
        with pytest.raises(ValueError, match="3 nonnegative entries"):
            alpha_pair(OMEGA_R, geom, SIC, dipole_weights=(math.nan, 0.0, 1.0))


class TestCrossover:
    def test_vacuum_has_no_crossover(self):
        with pytest.raises(NoCrossoverError):
            crossover_distance(OMEGA_R, 1e-6, VACUUM, (1e-8, 1e-4))

    def test_frozen_regression_value(self):
        z_star = crossover_distance(0.5 * OMEGA_R, 1e-2, SIC, (10e-9, 100e-6))
        assert 10e-9 < z_star < 100e-6
        assert z_star == pytest.approx(CROSSOVER_FROZEN, rel=1e-4)
        pair = alpha_pair(0.5 * OMEGA_R, GeometryPoint(z=z_star, delta=1e-2), SIC)
        assert abs(pair.alpha_W - pair.alpha_M) < 1e-8 * (pair.alpha_W + pair.alpha_M)

    def test_dense_scan_brackets_the_root(self):
        zs = np.geomspace(10e-9, 100e-6, 17)
        diffs = []
        for z in zs:
            pair = alpha_pair(0.5 * OMEGA_R, GeometryPoint(z=z, delta=1e-2), SIC)
            diffs.append(pair.alpha_W - pair.alpha_M)
        signs = np.sign(diffs)
        flips = np.nonzero(np.diff(signs))[0]
        assert len(flips) == 1
        assert zs[flips[0]] < CROSSOVER_FROZEN < zs[flips[0] + 1]

    def test_bracket_without_sign_change(self):
        with pytest.raises(NoCrossoverError):
            crossover_distance(0.5 * OMEGA_R, 1e-2, SIC, (1e-8, 2e-8))


class TestValidation:
    def test_geometry_invariants(self):
        with pytest.raises(ValueError):
            GeometryPoint(z=0.0, delta=1e-6)
        with pytest.raises(ValueError):
            GeometryPoint(z=1e-6, delta=-1e-9)

    def test_alpha_pair_type_invariants(self):
        with pytest.raises(ValueError):
            AlphaPair(alpha_W=-0.1, alpha_M=0.0)
