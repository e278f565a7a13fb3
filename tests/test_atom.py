"""Lambda-system occupations, rates, steady state and dynamics."""

import math

import numpy as np
import pytest
from scipy.constants import hbar, k as k_B

from neqatom.atom import (
    AtomModel,
    DegenerateSteadyStateError,
    Populations,
    TransitionEnvironment,
    VanishingCouplingError,
    bose_occupation,
    effective_occupation,
    effective_temperature,
    evolve_populations,
    inversion_predicate,
    rate_generator,
    steady_state,
    transition_rates,
)
from neqatom.response import AlphaPair

OMEGA_R = 1.495e14


def env_from_rates(gamma_down, gamma_up):
    n = gamma_up / (gamma_down - gamma_up) if gamma_down > gamma_up else 0.0
    return TransitionEnvironment(alpha_W=1.0, alpha_M=0.0, n_eff=n, T_eff=0.0,
                                 gamma_down=gamma_down, gamma_up=gamma_up, gamma0=1.0)


class TestBoseOccupation:
    def test_log2_point(self):
        # hbar*omega/(kB*T) = ln 2  ->  n = 1
        omega = 1e14
        T = hbar * omega / (k_B * math.log(2.0))
        assert bose_occupation(omega, T) == pytest.approx(1.0, rel=1e-12)

    def test_zero_temperature(self):
        assert bose_occupation(1e14, 0.0) == 0.0

    def test_reference_temperature_point(self):
        # hbar*omega_r/kB = 1141.9 K, so x just above 1 at T = 1140 K
        assert bose_occupation(OMEGA_R, 1140.0) == pytest.approx(0.5804323225084302, rel=1e-10)

    def test_extreme_cold_underflows_to_zero(self):
        assert bose_occupation(1e15, 1e-2) == 0.0


class TestEffectiveOccupation:
    def test_equilibrium_cancellation(self):
        rng = np.random.RandomState(1)
        for _ in range(50):
            alphas = AlphaPair(alpha_W=10 ** rng.uniform(-3, 3), alpha_M=10 ** rng.uniform(-3, 3))
            T = rng.uniform(10.0, 2000.0)
            n = effective_occupation(OMEGA_R, T, T, alphas)
            assert n == pytest.approx(bose_occupation(OMEGA_R, T), rel=1e-14)

    def test_wall_only(self):
        alphas = AlphaPair(alpha_W=0.7, alpha_M=0.0)
        n = effective_occupation(OMEGA_R, 500.0, 100.0, alphas)
        assert n == pytest.approx(bose_occupation(OMEGA_R, 500.0), rel=1e-14)

    def test_equal_weights_mean(self):
        alphas = AlphaPair(alpha_W=0.4, alpha_M=0.4)
        n = effective_occupation(OMEGA_R, 500.0, 100.0, alphas)
        mean = 0.5 * (bose_occupation(OMEGA_R, 500.0) + bose_occupation(OMEGA_R, 100.0))
        assert n == pytest.approx(mean, rel=1e-14)

    def test_bounds(self):
        rng = np.random.RandomState(2)
        for _ in range(100):
            alphas = AlphaPair(alpha_W=rng.uniform(0, 5), alpha_M=rng.uniform(1e-3, 5))
            T_W, T_M = rng.uniform(50, 1000, size=2)
            n = effective_occupation(OMEGA_R, T_W, T_M, alphas)
            lo = bose_occupation(OMEGA_R, min(T_W, T_M))
            hi = bose_occupation(OMEGA_R, max(T_W, T_M))
            assert lo - 1e-15 <= n <= hi + 1e-15

    def test_vanishing_coupling(self):
        with pytest.raises(VanishingCouplingError):
            effective_occupation(OMEGA_R, 300.0, 300.0, AlphaPair(0.0, 0.0))


class TestEffectiveTemperature:
    def test_roundtrip(self):
        rng = np.random.RandomState(3)
        for _ in range(50):
            T = 10 ** rng.uniform(1, 3.5)
            n = bose_occupation(OMEGA_R, T)
            assert effective_temperature(OMEGA_R, n) == pytest.approx(T, rel=1e-10)

    def test_unit_occupation(self):
        assert effective_temperature(OMEGA_R, 1.0) == pytest.approx(
            hbar * OMEGA_R / (k_B * math.log(2.0)), rel=1e-12)

    def test_zero_occupation(self):
        assert effective_temperature(OMEGA_R, 0.0) == 0.0


class TestTransitionRates:
    ATOM = AtomModel(omega_31=1.787e14, omega_32=OMEGA_R)

    def test_zero_occupation_limits(self):
        env = transition_rates(self.ATOM, "32", AlphaPair(0.8, 0.2), 1e-3, 1e-3)
        assert env.gamma_up == 0.0
        assert env.gamma_down == pytest.approx(env.gamma0 * 1.0, rel=1e-12)

    def test_vacuum_environment(self):
        env = transition_rates(self.ATOM, "32", AlphaPair(1.0, 0.0), 470.0, 170.0)
        expected = env.gamma0 * (1.0 + bose_occupation(OMEGA_R, 470.0))
        assert env.gamma_down == pytest.approx(expected, rel=1e-12)

    def test_default_dipole_normalizes_vacuum_rate(self):
        env = transition_rates(self.ATOM, "31", AlphaPair(1.0, 0.0), 300.0, 300.0)
        assert env.gamma0 == pytest.approx(1.0, rel=1e-12)

    def test_detailed_balance(self):
        rng = np.random.RandomState(4)
        for _ in range(100):
            alphas = AlphaPair(rng.uniform(0, 2), rng.uniform(1e-3, 2))
            T_W, T_M = rng.uniform(50, 1000, size=2)
            env = transition_rates(self.ATOM, "32", alphas, T_W, T_M)
            assert env.gamma_down * env.n_eff == pytest.approx(
                env.gamma_up * (1.0 + env.n_eff), rel=1e-14)

    def test_rate_bounds_between_equilibria(self):
        rng = np.random.RandomState(5)
        T_W, T_M = 470.0, 170.0
        for _ in range(100):
            alphas = AlphaPair(rng.uniform(0, 2), rng.uniform(1e-3, 2))
            env = transition_rates(self.ATOM, "32", alphas, T_W, T_M)
            scale = env.gamma0 * (alphas.alpha_W + alphas.alpha_M)
            lo = scale * bose_occupation(OMEGA_R, T_M)
            hi = scale * bose_occupation(OMEGA_R, T_W)
            assert lo - 1e-12 * hi <= env.gamma_up <= hi + 1e-12 * hi


class TestSteadyState:
    def test_symmetric_unit_occupations(self):
        p = steady_state(1.0, 1.0)
        assert p.as_array() == pytest.approx([0.4, 0.4, 0.2], rel=1e-14)

    def test_dark_upper_transition(self):
        p = steady_state(0.0, 1.0)
        assert p.as_array() == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)

    def test_infinite_temperature_limit(self):
        p = steady_state(1e9, 1e9)
        assert p.as_array() == pytest.approx([1 / 3] * 3, rel=1e-8)

    def test_degenerate_at_zero_temperature(self):
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(0.0, 0.0)

    def test_trace_one(self):
        rng = np.random.RandomState(6)
        for _ in range(200):
            p = steady_state(10 ** rng.uniform(-8, 2), 10 ** rng.uniform(-8, 2))
            assert abs(p.p1 + p.p2 + p.p3 - 1.0) < 1e-12


class TestEvolution:
    ENV31 = env_from_rates(2.0, 0.7)
    ENV32 = env_from_rates(1.0, 0.3)

    def steady(self):
        n31 = 0.7 / (2.0 - 0.7)
        n32 = 0.3 / (1.0 - 0.3)
        return steady_state(n31, n32)

    def test_fixed_point(self):
        ps = self.steady()
        pt = evolve_populations(ps, self.ENV31, self.ENV32, 17.3)
        assert np.abs(pt.as_array() - ps.as_array()).max() < 1e-10

    def test_identity_at_zero_time(self):
        p0 = Populations(0.2, 0.3, 0.5)
        pt = evolve_populations(p0, self.ENV31, self.ENV32, 0.0)
        assert np.abs(pt.as_array() - p0.as_array()).max() < 1e-15

    def test_long_time_reaches_steady_state(self):
        p0 = Populations(0.0, 0.0, 1.0)
        pt = evolve_populations(p0, self.ENV31, self.ENV32, 500.0)
        assert np.abs(pt.as_array() - self.steady().as_array()).max() < 1e-9

    @pytest.mark.parametrize("t", [1e20, 1e300])
    def test_time_far_beyond_relaxation_gives_the_steady_state(self, t):
        # expm(G t) overflows in its squarings at such t (a RuntimeWarning,
        # then populations outside [0, 1]): t is capped at 50 of the
        # slowest relaxation times
        pt = evolve_populations(Populations(0.0, 0.0, 1.0), self.ENV31, self.ENV32, t)
        assert abs(pt.p1 + pt.p2 + pt.p3 - 1.0) < 1e-12
        assert np.abs(pt.as_array() - self.steady().as_array()).max() < 1e-12

    def test_trace_preserved_along_the_way(self):
        p0 = Populations(0.9, 0.05, 0.05)
        for t in (0.01, 0.1, 1.0, 10.0):
            pt = evolve_populations(p0, self.ENV31, self.ENV32, t)
            assert abs(pt.p1 + pt.p2 + pt.p3 - 1.0) < 1e-12

    def test_negative_rate_rejected(self):
        bad = TransitionEnvironment(1, 0, 0.1, 0, -1.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            evolve_populations(Populations(1, 0, 0), bad, self.ENV32, 1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            evolve_populations(Populations(1, 0, 0), self.ENV31, self.ENV32, -1.0)


class TestNullSpaceOracle:
    def test_generator_null_space_matches_closed_form(self):
        # independent route to the steady state: eigenvector of the rate
        # generator at eigenvalue zero
        rng = np.random.RandomState(7)
        for _ in range(300):
            n31 = 10 ** rng.uniform(-3, 1)
            n32 = 10 ** rng.uniform(-3, 1)
            g31 = 10 ** rng.uniform(-2, 2)
            g32 = 10 ** rng.uniform(-2, 2)
            env31 = TransitionEnvironment(1, 0, n31, 0, g31 * (1 + n31), g31 * n31, g31)
            env32 = TransitionEnvironment(1, 0, n32, 0, g32 * (1 + n32), g32 * n32, g32)
            G = rate_generator(env31, env32)
            w, v = np.linalg.eig(G)
            null = np.real(v[:, np.argmin(np.abs(w))])
            null /= null.sum()
            assert np.abs(null - steady_state(n31, n32).as_array()).max() < 1e-9


class TestInversionPredicate:
    def test_equal_occupations(self):
        assert not inversion_predicate(0.3, 0.3)
        p = steady_state(0.3, 0.3)
        assert p.p1 == pytest.approx(p.p2, rel=1e-14)

    def test_definition(self):
        assert inversion_predicate(0.2, 0.1)
        assert not inversion_predicate(0.1, 0.2)

    def test_consistency_with_steady_state(self):
        rng = np.random.RandomState(8)
        for _ in range(300):
            n31 = 10 ** rng.uniform(-4, 1)
            n32 = 10 ** rng.uniform(-4, 1)
            if n31 == n32:
                continue
            p = steady_state(n31, n32)
            assert inversion_predicate(n31, n32) == (p.p2 > p.p1)


class TestAtomModel:
    def test_frequency_ordering_enforced(self):
        with pytest.raises(ValueError):
            AtomModel(omega_31=1e14, omega_32=2e14)
        with pytest.raises(ValueError):
            AtomModel(omega_31=1e14, omega_32=1e14)

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            AtomModel(omega_31=2e14, omega_32=1e14, weights_31=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            AtomModel(omega_31=2e14, omega_32=1e14, weights_31=(math.nan, 0.0, 1.0))

    @pytest.mark.parametrize("field, value", [
        (f, v) for f in ("omega_31", "omega_32", "d31_mag", "d32_mag")
        for v in (math.nan, math.inf, -math.inf)])
    def test_non_finite_field_named(self, field, value):
        args = dict(omega_31=2e14, omega_32=1e14)
        args[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            AtomModel(**args)

    # omega^3 overflows, underflows to 0, or leaves d = sqrt(.../omega^3) at 0
    @pytest.mark.parametrize("omega_31, omega_32, field", [
        (1e200, 1e14, "omega_31"), (1e102, 1e14, "omega_31"),
        (2e-110, 1e-110, "omega_31"), (2e14, 1e-110, "omega_32")])
    def test_default_dipole_out_of_range_names_the_field(self, omega_31, omega_32, field):
        with pytest.raises(ValueError, match=f"^{field} = .* has no default d{field[-2:]}_mag"):
            AtomModel(omega_31=omega_31, omega_32=omega_32)

    # omega^3 |d|^2 overflows to inf, or a power of it out of float range
    @pytest.mark.parametrize("d_mag", [1e150, 1e160])
    def test_overflowing_vacuum_rate_rejected(self, d_mag):
        atom = AtomModel(omega_31=2e14, omega_32=1e14, d31_mag=d_mag)
        with pytest.raises(ValueError, match="vacuum rate of transition 31 overflows"):
            transition_rates(atom, "31", AlphaPair(0.5, 0.5), 300.0, 300.0)

    def test_populations_validated(self):
        with pytest.raises(ValueError):
            Populations(0.5, 0.6, -0.1)
        with pytest.raises(ValueError):
            Populations(0.5, 0.4, 0.2)


class TestNonFiniteInputs:
    """Every scalar entry point raises ValueError; no NaN or inf gets through."""

    NAN, INF = math.nan, math.inf

    @pytest.mark.parametrize("omega, T", [
        (1e14, NAN), (1e14, INF), (1e14, -INF), (NAN, 300.0), (INF, 300.0),
        (1e-30, 1e300),  # hbar*omega/(k_B*T) underflows to 0
        (1.0, 1e298),  # x is subnormal, so 1/expm1(x) overflows
    ])
    def test_bose_occupation(self, omega, T):
        with pytest.raises(ValueError):
            bose_occupation(omega, T)

    def test_bose_occupation_when_k_B_T_underflows(self):
        # T > 0 but k_B*T == 0: the T -> 0 limit, not a division by zero
        assert bose_occupation(1e14, 1e-310) == 0.0

    @pytest.mark.parametrize("omega, n_eff", [
        (1e14, NAN), (1e14, INF), (NAN, 1.0), (INF, 1.0), (-1e14, 1.0),
        (1e14, 1e305),  # k_B*log1p(1/n_eff) underflows to 0
    ])
    def test_effective_temperature(self, omega, n_eff):
        with pytest.raises(ValueError):
            effective_temperature(omega, n_eff)

    @pytest.mark.parametrize("n31, n32", [
        (NAN, 1.0), (1.0, NAN), (INF, 1.0), (1.0, INF), (NAN, NAN),
        (1e200, 1e200),  # the normalization overflows
    ])
    def test_steady_state(self, n31, n32):
        with pytest.raises(ValueError):
            steady_state(n31, n32)

    @pytest.mark.parametrize("n31, n32", [(NAN, 1.0), (1.0, NAN), (INF, 1.0), (1.0, INF)])
    def test_inversion_predicate(self, n31, n32):
        with pytest.raises(ValueError):
            inversion_predicate(n31, n32)

    @pytest.mark.parametrize("alpha_W, alpha_M", [(INF, 1.0), (1.0, INF), (NAN, 1.0)])
    def test_alpha_pair(self, alpha_W, alpha_M):
        # an infinite weight would make effective_occupation return NaN
        with pytest.raises(ValueError):
            AlphaPair(alpha_W, alpha_M)

    @pytest.mark.parametrize("t", [NAN, INF])
    def test_evolve_populations(self, t):
        env = env_from_rates(2.0, 0.7)
        with pytest.raises(ValueError):
            evolve_populations(Populations(1, 0, 0), env, env, t)

    @pytest.mark.parametrize("ps", [(NAN, 0.5, 0.5), (NAN, NAN, NAN), (1.0, 0.0, INF)])
    def test_populations(self, ps):
        with pytest.raises(ValueError):
            Populations(*ps)

    def test_valid_outputs_match_the_closed_forms_bit_for_bit(self):
        rng = np.random.RandomState(9)
        for _ in range(500):
            omega = 10 ** rng.uniform(11, 16)
            T = 10 ** rng.uniform(-1, 5)
            x = hbar * omega / (k_B * T)
            n = 0.0 if x > 700.0 else 1.0 / math.expm1(x)
            assert bose_occupation(omega, T) == n
            if n > 0.0:
                assert effective_temperature(omega, n) == hbar * omega / (k_B * math.log1p(1.0 / n))
