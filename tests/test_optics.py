"""Dielectric model, Fresnel coefficients and slab amplitudes."""

import math

import numpy as np
import pytest

from neqatom.optics import (
    DegenerateModeError,
    DielectricModel,
    LosslessResonanceError,
    PlaneWaveMode,
    Polarization,
    SlabResonanceError,
    fresnel,
    load_material,
    medium_kz,
    permittivity,
    slab_amplitudes,
    slab_coefficients,
    surface_mode_frequency,
    vacuum_kz,
)

SIC = DielectricModel(eps_inf=6.7, omega_L=1.827e14, omega_T=1.495e14, gamma_damp=0.9e12)
LOSSLESS = DielectricModel(eps_inf=2.0, omega_L=2e14, omega_T=1e14, gamma_damp=0.0)


class TestDielectricModel:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            DielectricModel(eps_inf=0.5, omega_L=2e14, omega_T=1e14, gamma_damp=0.0)
        with pytest.raises(ValueError):
            DielectricModel(eps_inf=2.0, omega_L=1e14, omega_T=2e14, gamma_damp=0.0)
        with pytest.raises(ValueError):
            DielectricModel(eps_inf=2.0, omega_L=2e14, omega_T=1e14, gamma_damp=-1.0)

    def test_dispersionless_degenerate_oscillator(self):
        vacuum = DielectricModel(eps_inf=1.0, omega_L=1e14, omega_T=1e14, gamma_damp=0.0)
        assert vacuum.dispersionless
        assert permittivity(vacuum, 1e14) == 1.0 + 0.0j
        assert permittivity(vacuum, 3.7e13) == 1.0 + 0.0j

    def test_static_limit(self):
        # eps_inf * omega_L^2 / omega_T^2 = 6.7 * 1.827^2 / 1.495^2
        expected = 6.7 * 1.827e14**2 / 1.495e14**2
        eps = permittivity(SIC, SIC.omega_T * 1e-5)
        assert eps.real == pytest.approx(expected, rel=1e-6)
        assert expected == pytest.approx(10.0, rel=1e-3)

    def test_zero_at_longitudinal_frequency(self):
        eps = permittivity(LOSSLESS, LOSSLESS.omega_L)
        assert eps == 0.0

    def test_surface_mode_frequency_matches_quoted_value(self):
        omega_p = surface_mode_frequency(SIC)
        assert omega_p == pytest.approx(1.787e14, rel=1e-3)
        assert permittivity(SIC, omega_p).real == pytest.approx(-1.0, abs=1e-9)

    def test_lossless_resonance_raises(self):
        with pytest.raises(LosslessResonanceError):
            permittivity(LOSSLESS, LOSSLESS.omega_T)

    def test_passivity(self):
        rng = np.random.RandomState(42)
        for _ in range(50):
            omega = 10 ** rng.uniform(12, 16)
            assert permittivity(SIC, omega).imag >= 0.0

    def test_requires_positive_frequency(self):
        with pytest.raises(ValueError):
            permittivity(SIC, 0.0)


class TestBranches:
    def test_vacuum_kz_sectors(self):
        omega = 1.5e14
        U = omega / 2.99792458e8
        kz = vacuum_kz(omega, 0.5 * U)
        assert kz.imag == 0.0 and kz.real > 0.0
        kz = vacuum_kz(omega, 2.0 * U)
        assert kz.real == 0.0 and kz.imag > 0.0

    def test_branch_discipline_random_modes(self):
        rng = np.random.RandomState(3)
        for _ in range(200):
            omega = 10 ** rng.uniform(13, 15)
            k = 10 ** rng.uniform(3, 9)
            assert vacuum_kz(omega, k).imag >= 0.0
            assert medium_kz(omega, k, permittivity(SIC, omega)).imag >= 0.0


class TestFresnel:
    def test_no_interface(self):
        for pol in Polarization:
            mode = PlaneWaveMode(pol, k=3e5, omega=1.5e14)
            r, t, tbar = fresnel(mode, 1.0 + 0j)
            assert abs(r) < 1e-15
            assert t == pytest.approx(1.0)
            assert tbar == pytest.approx(1.0)

    def test_normal_incidence_te(self):
        eps = 4.0 + 0j
        mode = PlaneWaveMode(Polarization.TE, k=0.0, omega=1.5e14)
        r, _, _ = fresnel(mode, eps)
        assert r == pytest.approx((1 - 2.0) / (1 + 2.0))

    def test_transmission_identity(self):
        # t * tbar = 1 - r^2 for random lossless propagative modes
        rng = np.random.RandomState(11)
        for _ in range(100):
            omega = 10 ** rng.uniform(13, 15)
            U = omega / 2.99792458e8
            k = rng.uniform(0.0, 0.999) * U
            eps = complex(rng.uniform(1.0, 12.0))
            for pol in Polarization:
                mode = PlaneWaveMode(pol, k=k, omega=omega)
                r, t, tbar = fresnel(mode, eps)
                assert t * tbar == pytest.approx(1 - r * r, abs=1e-12)

    def test_degenerate_grazing_mode(self):
        omega = 1.5e14
        U = omega / 2.99792458e8
        mode = PlaneWaveMode(Polarization.TE, k=U, omega=omega)
        with pytest.raises(DegenerateModeError):
            fresnel(mode, 1.0 + 0j)

    def test_degenerate_surface_plasmon_pole(self):
        # lossless eps = -2 has its TM pole at k = sqrt(2) omega/c
        omega = 1.5e14
        U = omega / 2.99792458e8
        mode = PlaneWaveMode(Polarization.TM, k=math.sqrt(2.0) * U, omega=omega)
        with pytest.raises(DegenerateModeError):
            fresnel(mode, -2.0 + 0j)


class TestSlab:
    def test_zero_thickness(self):
        for pol in Polarization:
            mode = PlaneWaveMode(pol, k=4e5, omega=1.5e14)
            sc = slab_coefficients(mode, SIC, 0.0)
            assert abs(sc.rho) < 1e-14
            assert sc.tau == pytest.approx(1.0)

    def test_semi_infinite_limit(self):
        mode = PlaneWaveMode(Polarization.TM, k=3e5, omega=1.5e14)
        eps = permittivity(SIC, mode.omega)
        r, _, _ = fresnel(mode, eps)
        sc = slab_coefficients(mode, SIC, 1.0)
        assert sc.rho == pytest.approx(r, abs=1e-10)
        assert abs(sc.tau) < 1e-12

    def test_vacuum_slab(self):
        # zero-strength oscillator: eps == 1, the slab is invisible
        vacuum = DielectricModel(eps_inf=1.0, omega_L=1e16, omega_T=1e16, gamma_damp=0.0)
        for pol in Polarization:
            mode = PlaneWaveMode(pol, k=4e5, omega=1.5e14)
            sc = slab_coefficients(mode, vacuum, 3e-6)
            assert abs(sc.rho) < 1e-14
            assert sc.tau == pytest.approx(1.0, abs=1e-13)

    def test_propagative_passivity_lossy(self):
        rng = np.random.RandomState(5)
        for _ in range(100):
            omega = 10 ** rng.uniform(13.5, 14.5)
            U = omega / 2.99792458e8
            k = rng.uniform(0.0, 0.999) * U
            delta = 10 ** rng.uniform(-8, -3)
            for pol in Polarization:
                sc = slab_coefficients(PlaneWaveMode(pol, k=k, omega=omega), SIC, delta)
                assert abs(sc.rho) ** 2 + abs(sc.tau) ** 2 <= 1.0 + 1e-12

    def test_propagative_unitarity_lossless(self):
        # both exterior sides propagative: |rho|^2 + |tau|^2 = 1, including
        # frustrated tunneling through an internally evanescent slab
        rng = np.random.RandomState(6)
        thin = DielectricModel(eps_inf=1.0, omega_L=1.2e14, omega_T=0.6e14, gamma_damp=0.0)
        for model in (LOSSLESS, thin):
            for _ in range(50):
                omega = 10 ** rng.uniform(13.5, 14.5)
                U = omega / 2.99792458e8
                k = rng.uniform(0.0, 0.99) * U
                delta = 10 ** rng.uniform(-7, -5)
                for pol in Polarization:
                    mode = PlaneWaveMode(pol, k=k, omega=omega)
                    try:
                        sc = slab_coefficients(mode, model, delta)
                    except SlabResonanceError:
                        continue
                    assert abs(sc.rho) ** 2 + abs(sc.tau) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_continuity_across_light_line(self):
        # rho has a square-root cusp at ck = omega; the jump across a
        # straddle of width h must vanish as h -> 0
        omega = 1.5e14
        U = omega / 2.99792458e8
        for pol in Polarization:
            jumps = []
            for h in (1e-6, 1e-9, 1e-12):
                below = slab_coefficients(PlaneWaveMode(pol, k=U * (1 - h), omega=omega), SIC, 1e-6)
                above = slab_coefficients(PlaneWaveMode(pol, k=U * (1 + h), omega=omega), SIC, 1e-6)
                jumps.append(abs(below.rho - above.rho) + abs(below.tau - above.tau))
            assert jumps[0] > jumps[1] > jumps[2]
            assert jumps[2] < 1e-4

    def test_negative_thickness_rejected(self):
        mode = PlaneWaveMode(Polarization.TE, k=1e5, omega=1.5e14)
        with pytest.raises(ValueError):
            slab_coefficients(mode, SIC, -1e-9)


class TestSlabAmplitudes:
    """The vectorized two-polarization path against the scalar one."""

    @pytest.mark.parametrize("omega", [0.5 * 1.495e14, 1.495e14, 2.0 * 1.495e14])
    @pytest.mark.parametrize("delta", [110e-9, 1e-6])
    def test_matches_slab_coefficients(self, omega, delta):
        U = omega / 2.99792458e8
        k = U * np.array([0.0, 0.3, 0.9, 1.1, 2.0, 8.0])
        kz = np.where(k < U, np.sqrt(np.abs(U**2 - k**2)) + 0j,
                      1j * np.sqrt(np.abs(k**2 - U**2)))
        eps = permittivity(SIC, omega)
        (rho_te, rho_tm), (tau_te, tau_tm) = slab_amplitudes(omega, eps, kz, delta)
        for pol, rho, tau in ((Polarization.TE, rho_te, tau_te),
                              (Polarization.TM, rho_tm, tau_tm)):
            for i, ki in enumerate(k):
                sc = slab_coefficients(PlaneWaveMode(pol, k=ki, omega=omega), SIC, delta)
                assert abs(rho[i] - sc.rho) <= 1e-12 * max(1.0, abs(sc.rho))
                assert abs(tau[i] - sc.tau) <= 1e-12 * max(1.0, abs(sc.tau))

    def test_rho_without_tau_is_identical(self):
        omega = 2.0 * 1.495e14
        U = omega / 2.99792458e8
        # large enough for numpy to reuse temporaries in place
        kz = 1j * U * np.linspace(0.01, 40.0, 20_000)
        eps = permittivity(SIC, omega)
        rho, tau = slab_amplitudes(omega, eps, kz, 1e-6)
        rho_only, no_tau = slab_amplitudes(omega, eps, kz, 1e-6, want_tau=False)
        assert no_tau is None and len(tau) == 2
        for full, only in zip(rho, rho_only):
            assert full.tobytes() == only.tobytes()

    def test_lossless_guided_mode_raises(self):
        # below omega_T the lossless medium has eps = 10: an evanescent node
        # kz = i kappa sees k_zm = q real and r_TE = -exp(-2i atan(kappa/q)),
        # so the slab thickness below puts 1 - r^2 e^{2i q delta} on zero
        omega = 0.5e14
        eps = permittivity(LOSSLESS, omega)
        assert eps == 10.0
        U = omega / 2.99792458e8
        kappa = U
        q = math.sqrt(9.0 * U**2 - kappa**2)
        delta = (4.0 * math.atan(kappa / q) + 2.0 * math.pi) / (2.0 * q)
        kz = 1j * np.array([0.5 * kappa, kappa])
        with pytest.raises(SlabResonanceError):
            slab_amplitudes(omega, eps, kz, delta)
        slab_amplitudes(omega, eps, kz[:1], delta)      # off the mode: fine


class TestMaterialFiles:
    def test_bundled_sic(self):
        model = load_material("sic")
        assert model == SIC

    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "mat.dat"
        path.write_text("eps_inf = 2.5\nomega_L = 2e14\n# comment\nomega_T = 1e14\ngamma_damp = 1e11\n")
        model = load_material(path)
        assert model.eps_inf == 2.5
        assert model.gamma_damp == 1e11

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "mat.dat"
        path.write_text("eps_inf = 2.5\nbogus = 1\n")
        with pytest.raises(ValueError, match="bogus"):
            load_material(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "mat.dat"
        path.write_text("eps_inf = 2.5\nomega_L = 2e14\neps_inf = 3\n")
        with pytest.raises(ValueError, match="duplicate key: 'eps_inf'"):
            load_material(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "mat.dat"
        path.write_text("eps_inf = 2.5\n")
        with pytest.raises(ValueError, match="missing"):
            load_material(path)
