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

from neqatom import response
from neqatom.optics import (
    DielectricModel,
    _slab_kzm,
    load_material,
    loop_gain,
    permittivity,
    surface_mode_frequency,
    vacuum_kz,
)
from neqatom.quadrature import QuadratureResult, QuadratureSpec, QuadratureToleranceError
from neqatom.response import (
    AlphaPair,
    GeometryPoint,
    ISOTROPIC_WEIGHTS,
    NoCrossoverError,
    PointFailure,
    _ROOT_SPEC,
    _slab_phase_breakpoints,
    alpha_pair,
    crossover_distance,
    response_vectors,
    response_vectors_many,
)

SIC = load_material("sic")
OMEGA_R = 1.495e14

# zero-strength oscillator: eps identically 1
VACUUM = DielectricModel(eps_inf=1.0, omega_L=1e16, omega_T=1e16, gamma_damp=0.0)
LOSSLESS = DielectricModel(eps_inf=2.0, omega_L=2e14, omega_T=1e14, gamma_damp=0.0)

CROSSOVER_FROZEN = 5.248766915253852e-06  # dense-scan oracle, omega_r/2, delta 1 cm

# B, C, D recorded with the eighth-period slab-phase panels at the default
# spec, keyed by (omega / omega_r, delta, z)
RESPONSE_FROZEN = {
    (0.5, 110e-9, 10e-9): (
        (0.9991891723943095, 0.9991891723943095, 0.9997976182708513),
        (-0.15513234370213547, -0.15513234370213547, -0.024216943428898307),
        (2921.5137191753965, 2921.5137191753965, 5842.513359212202),
    ),
    (0.5, 110e-9, 1e-6): (
        (0.9991891723943095, 0.9991891723943095, 0.9997976182708513),
        (-0.2026893680267274, -0.2026893680267274, -0.015863037793895772),
        (0.30795109307674545, 0.30795109307674545, 0.06823724055958237),
    ),
    (0.5, 110e-9, 100e-6): (
        (0.9991891723943095, 0.9991891723943095, 0.9997976182708513),
        (0.00368898705874424, 0.00368898705874424, -0.031542706302786314),
        (0.00033759260860517917, 0.00033759260860517917, 0.03156970227857777),
    ),
    (0.5, 1e-2, 10e-9): (
        (0.47534749203600507, 0.47534749203600507, 0.15235351026902227),
        (-0.6604247635114816, -0.6604247635114816, -0.005204429106576539),
        (2922.2422841623156, 2922.2422841623156, 5843.226318122518),
    ),
    (0.5, 1e-2, 1e-6): (
        (0.47534749203600507, 0.47534749203600507, 0.15235351026902227),
        (-0.6324021736316074, -0.6324021736316074, -0.013316172570768961),
        (1.2359769295856633, 1.2359769295856633, 2.3218340311557246),
    ),
    (0.5, 1e-2, 100e-6): (
        (0.47534749203600507, 0.47534749203600507, 0.15235351026902227),
        (0.005765150392050691, 0.005765150392050691, -0.0047218823762685495),
        (0.00019435966094296896, 0.00019435966094296896, 0.0041115254326609734),
    ),
    (2.0, 110e-9, 10e-9): (
        (0.9994044917011184, 0.9994044917011184, 0.9997651288654139),
        (-0.2768672762184956, -0.2768672762184956, -0.08279069258871916),
        (38.990783600062535, 38.990783600062535, 77.06876466642807),
    ),
    (2.0, 110e-9, 1e-6): (
        (0.9994044917011184, 0.9994044917011184, 0.9997651288654139),
        (-0.4121695955886733, -0.4121695955886733, -0.07690076149157533),
        (0.34809416663713066, 0.34809416663713066, 0.19516657505807145),
    ),
    (2.0, 110e-9, 100e-6): (
        (0.9994044917011184, 0.9994044917011184, 0.9997651288654139),
        (0.0006089904058511849, 0.0006089904058511849, -8.922794374314341e-06),
        (1.04440686562734e-07, 1.04440686562734e-07, 2.599568199214229e-05),
    ),
    (2.0, 1e-2, 10e-9): (
        (0.36647153331020954, 0.36647153331020954, 0.15083975160243582),
        (-0.5584923463138789, -0.5584923463138789, -0.13418917613499234),
        (40.21729217944205, 40.21729217944205, 80.04886015085528),
    ),
    (2.0, 1e-2, 1e-6): (
        (0.36647153331020954, 0.36647153331020954, 0.15083975160243582),
        (-0.27040125581185004, -0.27040125581185004, -0.19416340490719694),
        (0.22345308025261976, 0.22345308025261976, 0.669077645163181),
    ),
    (2.0, 1e-2, 100e-6): (
        (0.36647153331020954, 0.36647153331020954, 0.15083975160243582),
        (0.0030336798823922817, 0.0030336798823922817, -0.00019649063226532225),
        (1.7595607497052002e-05, 1.7595607497052002e-05, 0.00019667153108240027),
    ),
}

# low-loss thick slab: eps = 1.25 + 2.8e-5 i at 3e14 rad/s, so the fringes
# near the light line keep a loop gain near 0.5; B, C, D recorded as above
LOW_LOSS = DielectricModel(2.0, 2e14, 1e14, gamma_damp=1e10)
LOW_LOSS_FROZEN = (
    (0.7094554772917422, 0.7094554772917422, 0.6792768524350732),
    (-0.19940909489274794, -0.19940909489274794, -0.26031340053772334),
    (0.22932664918042298, 0.22932664918042298, 0.4768774089087229),
)


# B, C, D (xx, zz) of response_vectors_many at 2 omega_r on 1 cm of SiC, at
# the heights geomspace(1e-8, 1e-6, 4), recorded with an edge at every
# evanescent full period of the slab phase (before the amplitude cut)
THICK_FROZEN = (
    ((0.36647153331020926, 0.15083975160243587), (-0.5584923463138793, -0.13418917613499273),
     (40.21729217944152, 80.04886015085465)),
    ((0.36647153331020926, 0.15083975160243587), (-0.5577609957906424, -0.13434535986999596),
     (2.0297540855243446, 3.748260109567593)),
    ((0.36647153331020926, 0.15083975160243587), (-0.5422559087239113, -0.13760571807313393),
     (1.088212582991825, 2.141517257036751)),
    ((0.36647153331020926, 0.15083975160243587), (-0.2704012558118501, -0.1941634049071969),
     (0.22345308025260321, 0.669077645163182)),
)


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

    @pytest.mark.parametrize("z", [1e-3, 1e-2, 1e-1])
    def test_zero_thickness_is_vacuum(self, z):
        # a lossy material of zero thickness: the cut ladders of these
        # heights put D nodes near kappa = 0, where 1 - r^2 vanishes
        rv = response_vectors(OMEGA_R, GeometryPoint(z=z, delta=0.0), SIC)
        assert np.all(rv.C == 0.0) and np.all(rv.D == 0.0)
        assert np.abs(rv.B - 1.0).max() < 1e-8


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

    def test_real_permittivity_has_no_body_term(self):
        # the guided-mode thickness of test_optics: eps = 10, and the TE pole
        # sits on kappa = omega/c, an initial panel edge of D (rung 2**0 of
        # the evanescent ladder, as z < c/(2 omega)); integrating D here
        # raises SlabResonanceError
        omega = 0.5e14
        U = omega / c
        q = math.sqrt(8.0) * U
        delta = (4.0 * math.atan(U / q) + 2.0 * math.pi) / (2.0 * q)
        rv = response_vectors(omega, GeometryPoint(z=0.3 * c / omega, delta=delta), LOSSLESS)
        assert np.all(rv.D == 0.0)
        assert np.all(np.isfinite(rv.B)) and np.all(np.isfinite(rv.C))

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
            # 1e300: the round trip's exponent overflows, silently, to e = 0
            for delta in (1e-1, 1e300):
                r2 = response_vectors(omega, GeometryPoint(z=z, delta=delta), SIC)
                for name in ("B", "C", "D"):
                    diff = np.abs(getattr(r1, name) - getattr(r2, name)).max()
                    assert diff < 1e-6, (name, z, delta, diff)


class TestSlabPhasePanels:
    @pytest.mark.parametrize("key", sorted(RESPONSE_FROZEN))
    def test_frozen_responses(self, key):
        w, delta, z = key
        rv = response_vectors(w * OMEGA_R, GeometryPoint(z=z, delta=delta), SIC)
        for name, frozen in zip("BCD", RESPONSE_FROZEN[key]):
            np.testing.assert_allclose(getattr(rv, name), frozen, rtol=1e-9, atol=0.0,
                                       err_msg=name)

    def test_low_loss_thick_slab(self):
        # with one-period panels throughout, B needs 952 splits here and C
        # exhausts the 2,000-split budget
        omega = 3e14
        rv = response_vectors(omega, GeometryPoint(z=0.3 * c / omega, delta=1e-2), LOW_LOSS)
        for name, frozen in zip("BCD", LOW_LOSS_FROZEN):
            np.testing.assert_allclose(getattr(rv, name), frozen, rtol=1e-9, atol=0.0,
                                       err_msg=name)

    def test_transparent_thick_slab_edge_counts(self):
        # eighth-period edges everywhere gave 5,631 propagative and 54,436
        # evanescent edges; the loop gain here stays below 1.3e-9, so only the
        # full-period edges remain; of the 6,805 evanescent ones, those where
        # the round-trip amplitude reaches 1e-11 and one period past them
        omega = 2.0 * OMEGA_R
        eps = permittivity(SIC, omega)
        U = omega / c
        prop = _slab_phase_breakpoints(omega, 1e-2, eps, 0.0, U, 1e-9)
        evan = _slab_phase_breakpoints(omega, 1e-2, eps, U, U * math.sqrt(eps.real) + U, 1e-9)
        assert len(prop) <= 5631 / 6 and len(evan) <= 54436 / 6
        assert (len(prop), len(evan)) == (704, 1279)

    def test_edges_stop_a_period_past_the_live_fringes(self):
        # every full-period point where |e^{2i k_zm delta}| reaches
        # t = max(1e-18, 0.01 rel_tol) is an edge, and no edge lies more
        # than one period past (at larger k than) the last such point
        omega, delta, rel_tol = 2.0 * OMEGA_R, 1e-2, 1e-9
        eps = permittivity(SIC, omega)
        U = omega / c
        t = max(1e-18, 0.01 * rel_tol)
        # full period n: delta sqrt(Re(eps) U^2 - k^2) = n pi, k falling with n
        n = np.arange(int(math.sqrt(eps.real) * U * delta / math.pi) + 1)
        k_all = np.sqrt(eps.real * U**2 - (n * math.pi / delta) ** 2)
        dead = 0
        for k_lo, k_hi in ((0.0, U), (U, U * math.sqrt(eps.real) + U)):
            edges = _slab_phase_breakpoints(omega, delta, eps, k_lo, k_hi, rel_tol)
            k = k_all[(k_all > k_lo) & (k_all < k_hi)]
            amp = np.exp(-2.0 * _slab_kzm(omega, eps, vacuum_kz(omega, k)).imag * delta)
            live = amp >= t
            assert live.any()
            dead += np.count_nonzero(~live)
            assert np.abs(k[live][:, None] - edges).min(axis=1).max() <= 1e-12 * k_hi
            # k is descending: the point after the last live one is a period past it
            past = np.flatnonzero(live)[0] - 1
            if past >= 0:
                assert edges.max() <= k[past] * (1.0 + 1e-12)
        assert dead > 5000

    def test_amplitude_cut_keeps_the_values(self):
        # the fringes the cut drops move B, C and D by roundoff only
        z = np.geomspace(1e-8, 1e-6, 4)
        for rv, frozen in zip(response_vectors_many(2.0 * OMEGA_R, z, 1e-2, SIC), THICK_FROZEN):
            for name, want in zip("BCD", frozen):
                np.testing.assert_allclose(getattr(rv, name)[[0, 2]], want, rtol=1e-11,
                                           atol=0.0, err_msg=name)

    @pytest.mark.parametrize("delta", [1.0, 1e3])
    def test_thick_slab_exceeds_the_panel_budget(self, delta):
        # 1.6e6 eighth-period indices at 1 m, 1.6e9 at 1 km: the full periods
        # alone exceed the initial panel budget of B
        model = DielectricModel(2.0, 2e14, 1e14, 0.0)
        with pytest.raises(ValueError, match="initial panel budget exceeded"):
            response_vectors(3e14, GeometryPoint(z=1e-6, delta=delta), model)

    def test_high_gain_fringes_keep_eighth_periods(self):
        # near the light line the low-loss slab's fringes are sharp
        omega = 3e14
        eps = permittivity(LOW_LOSS, omega)
        U = omega / c
        evan = _slab_phase_breakpoints(omega, 1e-2, eps, U, U * math.sqrt(eps.real) + U, 1e-9)
        gain = loop_gain(omega, eps, 1j * np.sqrt(evan**2 - U**2), 1e-2)
        # eighth-period index of each edge; fringe j holds indices 8j .. 8j+8
        m = np.rint(np.sqrt(eps.real * U**2 - evan**2) * 1e-2 / (0.125 * math.pi)).astype(int)
        hot = np.unique(m[gain > 0.01] // 8)
        hot = hot[(8 * hot >= m.min()) & (8 * hot + 8 <= m.max())]
        assert len(hot) > 100
        assert set((8 * hot[:, None] + np.arange(9)).ravel()) <= set(m)


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
        root = crossover_distance(0.5 * OMEGA_R, 1e-2, SIC, (10e-9, 100e-6))
        z_star = root.z
        assert 10e-9 < z_star < 100e-6
        # the returned pair is the search's own, at the root spec
        assert abs(root.pair.alpha_W - root.pair.alpha_M) < 1e-9 * (root.pair.alpha_W
                                                                     + root.pair.alpha_M)
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

    def test_surface_mode_root_on_one_centimetre(self):
        # omega_p on 1 cm (root 4 of the crossover-roots benchmark) converges
        # from (10 nm, 100 um); at some jittered brackets its upper end fails
        # in C alone
        z_star = crossover_distance(surface_mode_frequency(SIC), 1e-2, SIC, (1e-8, 1e-4)).z
        assert z_star == pytest.approx(1.7039082e-6, rel=1e-6)

    def test_bracket_without_sign_change(self):
        with pytest.raises(NoCrossoverError):
            crossover_distance(0.5 * OMEGA_R, 1e-2, SIC, (1e-8, 2e-8))


def _one_height_bisection(omega, delta, model, bracket, dipole_weights=ISOTROPIC_WEIGHTS):
    """The one-height bisection that shared level passes replaced, kept as an oracle.

    Every height, the bracket ends and each midpoint, is one
    ``alpha_pair`` call that integrates it alone. Bracket checks, stopping
    rule and step cap are crossover_distance's.
    """
    def diff(z):
        pair = response.alpha_pair(omega, GeometryPoint(z=z, delta=delta), model,
                                   dipole_weights, _ROOT_SPEC)
        return pair.alpha_W - pair.alpha_M, pair.alpha_W + pair.alpha_M

    z_lo, z_hi = bracket
    g_lo, _ = diff(z_lo)
    g_hi, _ = diff(z_hi)
    if g_lo == 0.0:
        return z_lo
    if g_hi == 0.0:
        return z_hi
    if g_lo * g_hi > 0.0:
        raise NoCrossoverError("no crossover in bracket")
    t_lo, t_hi = math.log(z_lo), math.log(z_hi)
    for _ in range(200):
        t_mid = 0.5 * (t_lo + t_hi)
        z_mid = math.exp(t_mid)
        g_mid, total = diff(z_mid)
        if abs(g_mid) < 1e-9 * total:
            return z_mid
        if g_lo * g_mid < 0.0:
            t_hi = t_mid
        else:
            t_lo, g_lo = t_mid, g_mid
    return math.exp(0.5 * (t_lo + t_hi))


def _spy(monkeypatch):
    """Record the height and value of each alpha_pair call and the heights of each pass."""
    heights, pairs, passes = [], [], []
    pair, many = response.alpha_pair, response.response_vectors_many

    def alpha_pair_spy(omega, geom, *args, **kwargs):
        heights.append(geom.z)
        pairs.append(pair(omega, geom, *args, **kwargs))
        return pairs[-1]

    def many_spy(omega, z_values, *args, **kwargs):
        passes.append(list(z_values))
        return many(omega, z_values, *args, **kwargs)

    monkeypatch.setattr(response, "alpha_pair", alpha_pair_spy)
    monkeypatch.setattr(response, "response_vectors_many", many_spy)
    return heights, pairs, passes


# (omega, delta, model, bracket): the two CI crossover configs and the
# frozen case
ROOT_CASES = (
    (OMEGA_R, 110e-9, SIC, (1e-8, 1e-4)),
    (2.0 * OMEGA_R, 110e-9, SIC, (1e-8, 1e-4)),
    (0.5 * OMEGA_R, 1e-2, SIC, (10e-9, 100e-6)),
)


class TestLevelPasses:
    @pytest.mark.parametrize("case", ROOT_CASES)
    def test_matches_one_height_bisection(self, monkeypatch, case):
        heights, pairs, passes = _spy(monkeypatch)
        want = _one_height_bisection(*case)
        del heights[:], pairs[:], passes[:]
        got = crossover_distance(*case)
        assert got.z == pytest.approx(want, rel=1e-7)
        # the search returns the height whose alpha pair met the stopping
        # rule, with that pair
        assert heights[-1] == got.z and pairs[-1] == got.pair
        assert abs(got.pair.alpha_W - got.pair.alpha_M) < 1e-9 * (got.pair.alpha_W
                                                                   + got.pair.alpha_M)
        # one first pass of the two bracket ends and the 15-height grid, and
        # at most five interpolation passes, where bisection by three levels
        # a pass needs 12-13
        assert len(passes[0]) == 17 and (passes[0][0], passes[0][-1]) == case[3]
        assert len(passes) <= 6
        # each height is integrated once, and in a pass with others
        integrated = [h for p in passes for h in p]
        assert len(set(integrated)) == len(integrated)
        assert min(len(p) for p in passes) > 1
        assert all(z in integrated for z in heights)

    @pytest.mark.parametrize("bracket, jump", [((1e-8, 1e-4), 3.3e-7), ((0.5, 2.0), 1.0)])
    def test_bracket_at_float_width(self, monkeypatch, bracket, jump):
        # alpha_W - alpha_M jumps from +1 to -1 at ``jump`` and has no zero:
        # no interpolant finds it, and the bracket shrinks to float width,
        # where the midpoints of a level coincide (and at 1 m, exp maps
        # distinct log heights to one float). The search ends at the jump, as
        # the one-height loop does after its 200 steps, with no pass of
        # repeated heights
        passes = []

        def jumping_pair(omega, geom, *args, **kwargs):
            return AlphaPair(1.0, 0.0) if geom.z < jump else AlphaPair(0.0, 1.0)

        def no_integrals(omega, z_values, *args):
            assert np.all(np.diff(z_values) > 0.0)
            passes.append(list(z_values))
            return [None] * len(z_values)

        monkeypatch.setattr(response, "alpha_pair", jumping_pair)
        monkeypatch.setattr(response, "response_vectors_many", no_integrals)
        want = _one_height_bisection(OMEGA_R, 1e-2, SIC, bracket)
        got = crossover_distance(OMEGA_R, 1e-2, SIC, bracket)
        # float width in t = log z, or in z where exp flattens it
        width = 4.0 * (math.ulp(math.log(jump)) + 2.0**-52)
        for z in (want, got.z):
            assert abs(math.log(z) - math.log(jump)) <= width
        # the search passes, the first with the two bracket ends, then the
        # returned height integrated alone for its pair
        assert len(passes[:-1]) <= math.ceil(200 / 3)
        assert passes[-1] == [got.z]
        assert got.pair == jumping_pair(OMEGA_R, GeometryPoint(z=got.z, delta=1e-2))

    def test_stalled_polish_falls_back_to_level_passes(self, monkeypatch):
        # alpha_W - alpha_M has a kink at its root, slope 1/10 in log z below
        # and 1000 above, clipped at 1: the heights on the steep side repeat
        # g = 1, where no inverse interpolant exists, so the pass after them
        # is a 3-level pass of 7 heights. The search takes 6 passes here,
        # with or without the rule on passes that do not halve the bracket
        t0, passes = math.log(3.3e-7), []

        def kinked_pair(omega, geom, *args, **kwargs):
            t = math.log(geom.z)
            g = (t - t0) / 10.0 if t < t0 else min(1.0, 1000.0 * (t - t0))
            return AlphaPair(1.0 + 0.5 * g, 1.0 - 0.5 * g)

        def no_integrals(omega, z_values, *args):
            passes.append(len(z_values))
            return [None] * len(z_values)

        monkeypatch.setattr(response, "alpha_pair", kinked_pair)
        monkeypatch.setattr(response, "response_vectors_many", no_integrals)
        got = crossover_distance(OMEGA_R, 1e-2, SIC, (1e-8, 1e-4))
        assert abs(math.log(got.z) - t0) < 2e-8
        # the first pass holds the two bracket ends and the 15-height grid
        assert passes[0] == 17 and 7 in passes[1:]
        assert len(passes) <= 20

    def test_pass_that_does_not_halve_is_followed_by_a_level_pass(self, monkeypatch):
        # every interpolation pass is one height a thousandth of the way up
        # the bracket, below the root of a linear alpha_W - alpha_M: it
        # narrows the bracket without halving it, so a 7-height pass follows
        t0, passes = math.log(3.3e-7), []

        def linear_pair(omega, geom, *args, **kwargs):
            g = 0.1 * (math.log(geom.z) - t0)
            return AlphaPair(1.0 + 0.5 * g, 1.0 - 0.5 * g)

        def no_integrals(omega, z_values, *args):
            passes.append(len(z_values))
            return [None] * len(z_values)

        monkeypatch.setattr(response, "alpha_pair", linear_pair)
        monkeypatch.setattr(response, "response_vectors_many", no_integrals)
        monkeypatch.setattr(response, "_inverse_step",
                            lambda points, t_lo, t_hi: [t_lo + 1e-3 * (t_hi - t_lo)])
        got = crossover_distance(OMEGA_R, 1e-2, SIC, (1e-8, 1e-4))
        assert abs(math.log(got.z) - t0) < 2e-8
        # the first pass holds the two bracket ends and the 15-height grid
        assert passes[:5] == [17, 1, 7, 1, 7]
        assert all(b == 7 for a, b in zip(passes, passes[1:]) if a == 1)

    def _failing(self, monkeypatch, pick, index):
        """Fail the heights ``pick(heights, z*)`` of one pass of the search, by one error.

        ``index`` counts the passes of the search without the failure: 0 is
        the first pass (the bracket ends around the grid), 1 the first
        interpolation pass, whose heights ascend as (lower flank, t*, upper
        flank). Returns that search's z*, the failure, the failing heights
        and the spy's alpha pair heights and values.
        """
        heights, pairs, passes = _spy(monkeypatch)
        clean = crossover_distance(*ROOT_CASES[0]).z
        assert len(passes[1]) == 3
        bad = pick(passes[index], clean)
        best = QuadratureResult(np.zeros(6), np.ones(6), 15)
        failure = QuadratureToleranceError("forced failure", best=best)
        many = response.response_vectors_many

        def failing_at_bad(omega, z_values, *args, **kwargs):
            got = many(omega, z_values, *args, **kwargs)
            return [PointFailure(failure, z, "B") if z in bad else rv
                    for z, rv in zip(z_values, got)]

        monkeypatch.setattr(response, "response_vectors_many", failing_at_bad)
        del heights[:], pairs[:]
        return clean, failure, bad, heights, pairs

    def _dropped(self, clean, heights, pairs):
        # the root moves within the stopping rule, and the search returns
        # the height whose alpha pair met it
        got = crossover_distance(*ROOT_CASES[0])
        assert got.z == pytest.approx(clean, rel=1e-7)
        assert heights[-1] == got.z and pairs[-1] == got.pair
        assert abs(got.pair.alpha_W - got.pair.alpha_M) < 1e-9 * (got.pair.alpha_W
                                                                   + got.pair.alpha_M)

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_failing_grid_height_is_dropped(self, monkeypatch, side):
        # the grid height next to z* on one side: without it the grid pass
        # leaves a bracket twice as wide
        def next_to_root(first, clean):
            return {max(z for z in first if z < clean) if side == "below"
                    else min(z for z in first if z > clean)}

        clean, _, _, heights, pairs = self._failing(monkeypatch, next_to_root, 0)
        self._dropped(clean, heights, pairs)

    def test_failing_flank_is_dropped(self, monkeypatch):
        clean, _, _, heights, pairs = self._failing(
            monkeypatch, lambda interp, clean: {interp[2]}, 1)
        self._dropped(clean, heights, pairs)

    def test_failure_at_t_star_is_dropped(self, monkeypatch):
        # the flanks still narrow the bracket, and the search goes on
        clean, _, _, heights, pairs = self._failing(
            monkeypatch, lambda interp, clean: {interp[1]}, 1)
        self._dropped(clean, heights, pairs)

    @pytest.mark.parametrize("index", [0, 1], ids=["grid", "interpolation"])
    def test_pass_that_fails_everywhere_raises_its_first_failure(self, monkeypatch, index):
        # one error object for every height, as a failing slab pass gives:
        # the raised record is the lowest height's, the first that the pass
        # visits. In the first pass every grid height fails, and the
        # bracket ends converge
        _, failure, bad, _, _ = self._failing(
            monkeypatch, lambda zs, clean: set(zs[1:-1] if index == 0 else zs), index)
        with pytest.raises(PointFailure) as info:
            crossover_distance(*ROOT_CASES[0])
        assert info.value.error is failure and info.value.z == min(bad)
        assert info.value.integral == "B"


class TestInverseRoot:
    @pytest.mark.parametrize("coeffs", [(2.0, 0.0, 0.0), (2.0, -30.0, 400.0)],
                             ids=["linear", "cubic"])
    def test_recovers_t0(self, coeffs):
        # t = t0 + a g + b g^2 + c g^3: the inverse cubic through four
        # points is t(g) itself, and its value at g = 0 is t0
        t0 = math.log(3.3e-7)
        a, b, c = coeffs

        def t_of(g):
            return t0 + g * (a + g * (b + g * c))

        gs = (-3e-3, -1e-3, 2e-3, 5e-3)
        assert abs(response._inverse_root([(t_of(g), g) for g in gs]) - t0) <= 4 * math.ulp(t0)

    def test_repeated_g_gives_no_step(self):
        points = [(-16.0, -1.0), (-14.0, 1.0), (-15.5, -0.5), (-14.5, 1.0)]
        assert response._inverse_step(points, -15.5, -14.5) is None


class TestFailingIntegral:
    def test_d_at_the_surface_mode(self):
        # D of 110 nm of SiC at omega_p, 1 um, misses the root spec
        (got,) = response_vectors_many(surface_mode_frequency(SIC), [1e-6], 110e-9, SIC,
                                       _ROOT_SPEC)
        assert isinstance(got.error, QuadratureToleranceError)
        assert got.integral == "D"

    def test_c_at_one_centimetre(self):
        # C_zz of 110 nm of SiC at omega_r, 1 cm, misses the default abs_tol
        (got,) = response_vectors_many(OMEGA_R, [1e-2], 110e-9, SIC)
        assert isinstance(got.error, QuadratureToleranceError)
        assert got.integral == "C"
        assert str(got.error) == "tolerance not met after 2000 subdivisions"


class TestValidation:
    def test_geometry_invariants(self):
        with pytest.raises(ValueError):
            GeometryPoint(z=0.0, delta=1e-6)
        with pytest.raises(ValueError):
            GeometryPoint(z=1e-6, delta=-1e-9)
        with pytest.raises(ValueError, match="got inf"):
            GeometryPoint(z=math.inf, delta=1e-6)
        for delta in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"delta must be finite and >= 0, got {delta!r}"):
                GeometryPoint(z=1e-6, delta=delta)
            with pytest.raises(ValueError, match=f"delta must be finite and >= 0, got {delta!r}"):
                response_vectors_many(OMEGA_R, [1e-7, 1e-6], delta, SIC)
        # the bracket end fails as a height, before any root step
        with pytest.raises(ValueError, match="got inf"):
            crossover_distance(OMEGA_R, 1e-2, SIC, (1e-8, math.inf))

    @pytest.mark.parametrize("omega", [math.inf, math.nan, 0.0], ids=["inf", "nan", "zero"])
    def test_omega_checked_before_any_integral(self, monkeypatch, omega):
        def no_slab_pass(*args, **kwargs):
            raise AssertionError("integrated before omega was checked")

        monkeypatch.setattr(response, "_b_vector", no_slab_pass)
        with pytest.raises(ValueError, match=f"omega must be finite and > 0, got {omega!r}"):
            response_vectors_many(omega, [1e-7], 1e-2, SIC)

    @pytest.mark.parametrize("bracket", [(1e-8, math.inf), (math.nan, 1e-4), (1e-4, 1e-8)],
                             ids=["infinite", "nan", "reversed"])
    def test_crossover_bracket_checked_before_any_integral(self, monkeypatch, bracket):
        def no_integral(*args, **kwargs):
            raise AssertionError("integrated before the bracket was checked")

        monkeypatch.setattr(response, "response_vectors_many", no_integral)
        with pytest.raises(ValueError, match="got inf|bracket must satisfy"):
            crossover_distance(OMEGA_R, 1e-2, SIC, bracket)

    def test_crossover_weights_checked_before_any_integral(self, monkeypatch):
        def no_integral(*args, **kwargs):
            raise AssertionError("integrated before the weights were checked")

        monkeypatch.setattr(response, "response_vectors_many", no_integral)
        with pytest.raises(ValueError, match="3 nonnegative entries"):
            crossover_distance(OMEGA_R, 1e-2, SIC, (1e-8, 1e-4), (2.0, 0.0, 0.0))

    def test_alpha_pair_type_invariants(self):
        with pytest.raises(ValueError):
            AlphaPair(alpha_W=-0.1, alpha_M=0.0)
