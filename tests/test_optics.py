"""Dielectric model, interface and slab amplitudes."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neqatom.optics import (
    DegenerateModeError,
    DielectricModel,
    LosslessResonanceError,
    SlabResonanceError,
    load_material,
    loop_gain,
    medium_kz,
    permittivity,
    slab_amplitudes,
    surface_mode_frequency,
    vacuum_kz,
)

SIC = DielectricModel(eps_inf=6.7, omega_L=1.827e14, omega_T=1.495e14, gamma_damp=0.9e12)
LOSSLESS = DielectricModel(eps_inf=2.0, omega_L=2e14, omega_T=1e14, gamma_damp=0.0)
OMEGA_P = surface_mode_frequency(SIC)


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


def _kz(omega, k):
    """Vacuum k_z of the transverse wavevectors ``k`` (array), Im >= 0."""
    return vacuum_kz(omega, np.atleast_1d(np.asarray(k, dtype=float)))


def _transfer_matrix(omega, eps, k, kz, delta):
    """Characteristic-matrix (rho_TE, rho_TM, tau_TE, tau_TM) of the slab.

    Born & Wolf, Principles of Optics, sec. 1.6: the layer matrix
    [[cos b, -i sin(b)/p], [-i p sin(b), cos b]] with b = k_zm delta and
    admittance p = k_zm (TE) or k_zm/eps (TM, magnetic-field amplitudes)
    is even in k_zm, so no branch choice enters. Vacuum on both sides has
    p0 = k_z. tau is referred to the entry plane like the slab formulas,
    hence the factor e^{-i k_z delta}.
    """
    U = omega / 2.99792458e8
    kzm = np.sqrt(eps * U**2 - k**2 + 0j)
    b = kzm * delta
    out = []
    for p in (kzm, kzm / eps):
        m11 = m22 = np.cos(b)
        m12 = -1j * np.sin(b) / p
        m21 = -1j * p * np.sin(b)
        a = (m11 + m12 * kz) * kz
        d = m21 + m22 * kz
        out.append(((a - d) / (a + d), 2.0 * kz / (a + d) * np.exp(-1j * kz * delta)))
    (rho_te, tau_te), (rho_tm, tau_tm) = out
    return rho_te, rho_tm, tau_te, tau_tm


def _both(omega, eps, kz, delta):
    """slab_amplitudes as (polarization, rho, tau) for TE and TM."""
    (rho_te, rho_tm), (tau_te, tau_tm) = slab_amplitudes(omega, eps, kz, delta)
    return (("TE", rho_te, tau_te), ("TM", rho_tm, tau_tm))


class TestFresnel:
    """The interface amplitudes, seen through the slab they enter."""

    def test_no_interface(self):
        # eps = 1: r = 0 and t = tbar = 1 at every k_z, so rho = 0, tau = 1
        omega = 1.5e14
        U = omega / 2.99792458e8
        for _, rho, tau in _both(omega, 1.0 + 0j, _kz(omega, [3e5, 2.0 * U]), 1e-6):
            assert np.abs(rho).max() < 1e-15
            np.testing.assert_allclose(tau, 1.0, rtol=1e-6)

    def test_normal_incidence_te(self):
        # a quarter-wave layer of index n = 2 (k_zm delta = pi/2, so the
        # round-trip factor is -1) reflects (1 - n^2) / (1 + n^2)
        omega = 1.5e14
        U = omega / 2.99792458e8
        delta = math.pi / (2.0 * 2.0 * U)
        (_, rho, _), _ = _both(omega, 4.0 + 0j, _kz(omega, 0.0), delta)
        assert rho[0] == pytest.approx((1 - 4.0) / (1 + 4.0))

    @staticmethod
    def _assert_degenerate(omega, eps, kz):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateModeError):
                slab_amplitudes(omega, eps, kz, 1e-6)
            with pytest.raises(DegenerateModeError):
                loop_gain(omega, eps, kz, 1e-6)

    def test_degenerate_grazing_mode(self):
        # eps = 1 at k_z = 0: k_z + k_zm and eps k_z + k_zm both vanish
        omega = 1.5e14
        U = omega / 2.99792458e8
        self._assert_degenerate(omega, 1.0 + 0j, U * np.array([0.5, 0.0]) + 0j)

    def test_degenerate_surface_plasmon_pole(self):
        # lossless eps = -2 has its TM pole at k = sqrt(2) omega/c, k_z = i omega/c
        omega = 1.5e14
        U = omega / 2.99792458e8
        self._assert_degenerate(omega, -2.0 + 0j, 1j * U * np.array([0.5, 1.0]))


class TestSlab:
    def test_zero_thickness(self):
        for _, rho, tau in _both(1.5e14, permittivity(SIC, 1.5e14), _kz(1.5e14, 4e5), 0.0):
            assert abs(rho[0]) < 1e-14
            assert tau[0] == pytest.approx(1.0)

    def test_semi_infinite_limit(self):
        omega = 1.5e14
        eps = permittivity(SIC, omega)
        kz = _kz(omega, 3e5)
        kzm = medium_kz(omega, 3e5, eps)
        r = {"TE": (kz - kzm) / (kz + kzm), "TM": (eps * kz - kzm) / (eps * kz + kzm)}
        for pol, rho, tau in _both(omega, eps, kz, 1.0):
            assert rho[0] == pytest.approx(r[pol][0], abs=1e-10)
            assert abs(tau[0]) < 1e-12

    def test_vacuum_slab(self):
        # zero-strength oscillator: eps == 1, the slab is invisible
        vacuum = DielectricModel(eps_inf=1.0, omega_L=1e16, omega_T=1e16, gamma_damp=0.0)
        for _, rho, tau in _both(1.5e14, permittivity(vacuum, 1.5e14), _kz(1.5e14, 4e5), 3e-6):
            assert abs(rho[0]) < 1e-14
            assert tau[0] == pytest.approx(1.0, abs=1e-13)

    def test_propagative_passivity_lossy(self):
        rng = np.random.RandomState(5)
        for _ in range(100):
            omega = 10 ** rng.uniform(13.5, 14.5)
            U = omega / 2.99792458e8
            k = rng.uniform(0.0, 0.999) * U
            delta = 10 ** rng.uniform(-8, -3)
            for _, rho, tau in _both(omega, permittivity(SIC, omega), _kz(omega, k), delta):
                assert abs(rho[0]) ** 2 + abs(tau[0]) ** 2 <= 1.0 + 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        log_omega=st.floats(13.0, 15.0),
        eps_re=st.floats(-50.0, 50.0),
        log_eps_im=st.floats(-6.0, 3.0),
        log_delta=st.floats(-9.0, -2.0),
        log_kappa=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8),
    )
    def test_evanescent_passivity_lossy(self, log_omega, eps_re, log_eps_im, log_delta, log_kappa):
        # a lossy slab absorbs: Im rho >= 0 at k_z = i kappa, the sign the body
        # term D relies on; and no interface denominator vanishes for Im eps > 0
        omega = 10.0**log_omega
        kappa = omega / 2.99792458e8 * 10.0 ** np.array(log_kappa)
        eps = complex(eps_re, 10.0**log_eps_im)
        delta = 10.0**log_delta
        (rho_te, rho_tm), _ = slab_amplitudes(omega, eps, 1j * kappa, delta, want_tau=False)
        for rho in (rho_te, rho_tm):
            assert np.isfinite(rho).all()
            assert (rho.imag >= 0.0).all()

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
                try:
                    pols = _both(omega, permittivity(model, omega), _kz(omega, k), delta)
                except SlabResonanceError:
                    continue
                for _, rho, tau in pols:
                    assert abs(rho[0]) ** 2 + abs(tau[0]) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_continuity_across_light_line(self):
        # rho has a square-root cusp at ck = omega; the jump across a
        # straddle of width h must vanish as h -> 0
        omega = 1.5e14
        U = omega / 2.99792458e8
        eps = permittivity(SIC, omega)
        jumps = {"TE": [], "TM": []}
        for h in (1e-6, 1e-9, 1e-12):
            below = _both(omega, eps, _kz(omega, U * (1 - h)), 1e-6)
            above = _both(omega, eps, _kz(omega, U * (1 + h)), 1e-6)
            for (pol, rho_b, tau_b), (_, rho_a, tau_a) in zip(below, above):
                jumps[pol].append(abs(rho_b[0] - rho_a[0]) + abs(tau_b[0] - tau_a[0]))
        for j in jumps.values():
            assert j[0] > j[1] > j[2]
            assert j[2] < 1e-4

    def test_negative_thickness_rejected(self):
        with pytest.raises(ValueError):
            slab_amplitudes(1.5e14, permittivity(SIC, 1.5e14), _kz(1.5e14, 1e5), -1e-9)


class TestSlabAmplitudes:
    """Both polarizations over an array of k_z, against an independent method."""

    @pytest.mark.parametrize("omega", [0.5 * 1.495e14, 1.495e14, 2.0 * 1.495e14, OMEGA_P])
    @pytest.mark.parametrize("delta", [110e-9, 1e-6])
    def test_matches_transfer_matrix(self, omega, delta):
        U = omega / 2.99792458e8
        k = U * np.array([0.0, 0.3, 0.9, 1.1, 2.0, 8.0])
        kz = np.where(k < U, np.sqrt(np.abs(U**2 - k**2)) + 0j,
                      1j * np.sqrt(np.abs(k**2 - U**2)))
        eps = permittivity(SIC, omega)
        (rho_te, rho_tm), (tau_te, tau_tm) = slab_amplitudes(omega, eps, kz, delta)
        reference = _transfer_matrix(omega, eps, k, kz, delta)
        for x, ref in zip((rho_te, rho_tm, tau_te, tau_tm), reference):
            np.testing.assert_allclose(x, ref, rtol=1e-12, atol=0.0)

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

    @pytest.mark.parametrize("key,value,message", [
        ("eps_inf", "abc", "eps_inf: cannot parse 'abc'"),
        ("omega_L", "inf", "omega_L: values must be finite"),
    ])
    def test_bad_value_names_key(self, tmp_path, key, value, message):
        values = {"eps_inf": "2.5", "omega_L": "2e14", "omega_T": "1e14",
                  "gamma_damp": "1e11", key: value}
        path = tmp_path / "mat.dat"
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        with pytest.raises(ValueError) as info:
            load_material(path)
        assert str(info.value) == message

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "mat.dat"
        path.write_text("eps_inf = 2.5\n")
        with pytest.raises(ValueError, match="missing"):
            load_material(path)
