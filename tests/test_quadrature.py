"""Quadrature engines against analytic oracles.

Oracle kernels and their closed forms:

* propagative: int_0^{w/c} k/k_z dk = w/c,
  int_0^{w/c} (c^2/w^2) k k_z dk = w/(3c);
* oscillatory: int_0^{w/c} (k/k_z) cos(2 k_z z) dk = sin(2 z w/c)/(2z)
  (substitute u = k_z);
* evanescent: with kappa = sqrt(k^2 - w^2/c^2),
  int f dk with f = k kappa e^{-2 kappa z} equals
  int_0^inf kappa^2 e^{-2 kappa z} d kappa = 1/(4 z^3), and
  int_{w/c}^inf k^2 e^{-2 k z} dk = e^{-2az}(a^2/(2z) + a/(2z^2) + 1/(4z^3))
  with a = w/c, which scales as 1/(4z^3) for z -> 0.
"""

import heapq
import math
import tracemalloc

import numpy as np
import pytest
from scipy.constants import c

from neqatom import quadrature, response
from neqatom.optics import DielectricModel, load_material
from neqatom.quadrature import (
    NonFiniteIntegrandError,
    QuadratureResult,
    QuadratureSpec,
    QuadratureToleranceError,
    _adaptive,
    integrate_evanescent,
    integrate_oscillatory,
    integrate_propagative,
)

OMEGA = 1.495e14
U = OMEGA / c


def vec(values):
    return np.asarray(values)[:, None] * np.ones(3)


def kernel_one_over_kz(k, kz):
    return vec(k / kz)


def kernel_k_kz(k, kz):
    return vec((c**2 / OMEGA**2) * k * kz)


class TestPropagative:
    def test_endpoint_singularity_kernel(self):
        res = integrate_propagative(kernel_one_over_kz, OMEGA)
        assert res.value == pytest.approx(U, rel=1e-12)
        assert np.all(res.error_estimate <= np.maximum(1e-9 * np.abs(res.value), 1e-14))

    def test_polynomial_kernel(self):
        res = integrate_propagative(kernel_k_kz, OMEGA)
        assert res.value == pytest.approx(U / 3.0, rel=1e-12)

    def test_zero_integrand(self):
        res = integrate_propagative(lambda k, kz: vec(np.zeros_like(k)), OMEGA)
        assert np.all(res.value == 0.0)
        assert np.all(res.error_estimate == 0.0)

    def test_deterministic(self):
        r1 = integrate_propagative(kernel_one_over_kz, OMEGA)
        r2 = integrate_propagative(kernel_one_over_kz, OMEGA)
        assert np.array_equal(r1.value, r2.value)
        assert np.array_equal(r1.error_estimate, r2.error_estimate)
        assert r1.evaluations == r2.evaluations

    def test_linearity(self):
        a, b = 2.75, -0.5
        spec = QuadratureSpec()
        combo = integrate_propagative(
            lambda k, kz: a * kernel_one_over_kz(k, kz) + b * kernel_k_kz(k, kz),
            OMEGA, spec)
        f = integrate_propagative(kernel_one_over_kz, OMEGA, spec)
        g = integrate_propagative(kernel_k_kz, OMEGA, spec)
        expected = a * f.value + b * g.value
        tol = 2 * np.maximum(spec.rel_tol * np.abs(expected), spec.abs_tol)
        assert np.all(np.abs(combo.value - expected) <= tol + 2e-16 * np.abs(expected))

    def test_breakpoints_accepted(self):
        # initial edges at k = 0.3 U and 0.7 U, given in theta
        res = integrate_propagative(kernel_one_over_kz, OMEGA,
                                    _seeds=np.arcsin([0.3, 0.7]))
        assert res.value == pytest.approx(U, rel=1e-12)

    def test_scalar_integrand_supported(self):
        res = integrate_propagative(lambda k, kz: k / kz, OMEGA)
        assert res.value.shape == (1,)
        assert res.value[0] == pytest.approx(U, rel=1e-12)


class TestOscillatory:
    def test_reduces_to_propagative_at_zero_height(self):
        r_prop = integrate_propagative(kernel_one_over_kz, OMEGA)
        r_osc = integrate_oscillatory(kernel_one_over_kz, OMEGA, 0.0)
        assert np.array_equal(r_prop.value, r_osc.value)

    @pytest.mark.parametrize("zu", [0.5, 7.0, 30.0, 100.0, 2000.0])
    def test_phase_kernel_closed_form(self, zu):
        z = zu / U

        def kernel(k, kz):
            return vec((k / kz) * np.cos(2.0 * kz * z))

        res = integrate_oscillatory(kernel, OMEGA, z)
        exact = math.sin(2.0 * z * U) / (2.0 * z)
        rel = 1e-8 if zu <= 100.0 else 1e-6
        assert res.value == pytest.approx(exact, rel=rel)

    def test_zero_reflection(self):
        res = integrate_oscillatory(lambda k, kz: vec(np.zeros_like(k)), OMEGA, 5.0 / U)
        assert np.all(res.value == 0.0)

    def test_rejects_negative_height(self):
        with pytest.raises(ValueError):
            integrate_oscillatory(kernel_one_over_kz, OMEGA, -1e-9)


class TestEvanescent:
    def test_pure_kappa_kernel(self):
        z = 1e-7

        def kernel(k, kappa):
            return vec(k * kappa * np.exp(-2.0 * kappa * z))

        res = integrate_evanescent(kernel, OMEGA, z)
        assert res.value == pytest.approx(1.0 / (4.0 * z**3), rel=1e-9)

    def test_near_field_kernel_and_scaling(self):
        def kernel_at(z):
            def kernel(k, kappa):
                return vec(k**2 * np.exp(-2.0 * k * z))
            return kernel

        def exact(z):
            a = U
            return math.exp(-2 * a * z) * (a**2 / (2 * z) + a / (2 * z**2) + 1 / (4 * z**3))

        z = 1e-4 / U
        got_z = integrate_evanescent(kernel_at(z), OMEGA, z)
        got_half = integrate_evanescent(kernel_at(z / 2), OMEGA, z / 2)
        assert got_z.value == pytest.approx(exact(z), rel=1e-9)
        assert got_half.value == pytest.approx(exact(z / 2), rel=1e-9)
        ratio = got_half.value[0] / got_z.value[0]
        assert abs(ratio - 8.0) < 0.05

    def test_zero_imaginary_reflection(self):
        res = integrate_evanescent(lambda k, kappa: vec(np.zeros_like(k)), OMEGA, 1e-7)
        assert np.all(res.value == 0.0)

    def test_requires_positive_height(self):
        with pytest.raises(ValueError, match="positive height"):
            integrate_evanescent(lambda k, kappa: vec(k), OMEGA, 0.0)
        with pytest.raises(ValueError, match="positive height"):
            integrate_evanescent(lambda k, kappa: vec(k), OMEGA, -1e-9)


class TestManyHeights:
    """Several heights on shared nodes: one column per height, own tolerances."""

    ZU = np.array([0.5, 7.0, 30.0, 100.0])

    def test_oscillatory_columns_match_closed_form(self):
        z = self.ZU / U

        def kernel(k, kz):
            return (k / kz)[:, None] * np.cos(2.0 * kz[:, None] * z)

        res = integrate_oscillatory(kernel, OMEGA, z)
        exact = np.sin(2.0 * z * U) / (2.0 * z)
        assert res.value == pytest.approx(exact, rel=1e-8)

    def test_evanescent_columns_match_closed_form(self):
        z = np.array([1e-8, 3e-8, 7e-8])

        def kernel(k, kappa):
            return (k * kappa)[:, None] * np.exp(-2.0 * kappa[:, None] * z)

        res = integrate_evanescent(kernel, OMEGA, z)
        assert res.value == pytest.approx(1.0 / (4.0 * z**3), rel=1e-9)

    def test_largest_height_sets_the_oscillatory_edges(self):
        sizes = []

        def kernel(k, kz):
            sizes.append(len(k))
            return vec(k / kz)

        z = self.ZU / U
        integrate_oscillatory(kernel, OMEGA, z)
        integrate_oscillatory(kernel, OMEGA, z[-1])
        assert sizes[0] == sizes[-1] > 15 * 100

    def test_smallest_height_sets_the_evanescent_edges(self):
        # call 0 is the one-node tail bound, call 1 the initial pass
        sizes = []
        z = np.geomspace(1e-8, 9e-8, 16)

        def kernel(k, kappa):
            sizes.append(len(k))
            return vec(k * kappa * np.exp(-2.0 * kappa * z[0]))

        integrate_evanescent(kernel, OMEGA, z)
        many = sizes[1]
        sizes.clear()
        integrate_evanescent(kernel, OMEGA, z[0])
        assert many == sizes[1]

    @staticmethod
    def _decaying(z):
        # e^{-2 kappa z} per height; kappa z may overflow to an exact 0
        def kernel(k, kappa):
            with np.errstate(over="ignore"):
                return np.exp(-2.0 * np.multiply.outer(kappa, z))
        return kernel

    def test_fewest_rungs_within_their_reach(self):
        # below 1/(2 omega/c) every height's ladder floor is (omega/c)/8:
        # a grid within it adds no rung to its smallest height's ladder
        z = np.array([1e-9, 1e-8, 0.99 * 0.5 / U])
        spec = QuadratureSpec(rel_tol=1.0)
        many = integrate_evanescent(self._decaying(z), OMEGA, z, spec)
        alone = integrate_evanescent(self._decaying(z[:1]), OMEGA, z[0], spec)
        assert many.initial_panels == alone.initial_panels
        assert np.array_equal(many.edges, alone.edges)

    def test_cut_ladder_reaches_the_largest_height(self):
        # the ladder goes on down to 1/(2 z_max), far below the floor of
        # the smallest height's ladder
        z = np.array([1e-10, 1e-2])
        res = integrate_evanescent(self._decaying(z), OMEGA, z, QuadratureSpec(rel_tol=1.0))
        assert res.edges[1] <= 0.5 / z[-1] < min(U, 0.5 / z[0]) / 8.0

    def test_heights_hundreds_of_decades_apart(self):
        # their ratio overflows a float, and 0.5**j underflows for the
        # lowest of the ~1340 rungs: neither may raise
        z = np.array([1e-200, 1e200])
        try:
            res = integrate_evanescent(self._decaying(z), OMEGA, z)
        except QuadratureToleranceError as exc:
            res = exc.best
        assert np.isfinite(res.value).all() and np.isfinite(res.error_estimate).all()

    def test_one_height_edges_are_its_ladders(self):
        # the ladder from the cut down to its first rung at or below the
        # floor min(omega/c, 1/(2z))/8, unrefined at rel_tol 1
        z = 1e-7
        ladder = [quadrature._EVANESCENT_CUT / z]
        while ladder[-1] > min(U, 0.5 / z) / 8.0:
            ladder.append(ladder[-1] / 2.0)

        def kernel(k, kappa):
            return vec(k * kappa * np.exp(-2.0 * kappa * z))

        res = integrate_evanescent(kernel, OMEGA, z, QuadratureSpec(rel_tol=1.0))
        assert res.splits == 0
        assert np.array_equal(res.edges, np.unique([0.0, *ladder]))

    def test_smallest_height_sets_every_tail_bound(self):
        # F = 1 in kappa: the panels are exact, so each column's error is
        # its tail bound |F(kappa_max)| / (2 z_min) alone
        z = np.array([1e-8, 3e-8, 7e-8])

        def kernel(k, kappa):
            return (k / kappa)[:, None] * np.ones(3 * len(z))

        res = integrate_evanescent(kernel, OMEGA, z, QuadratureSpec(rel_tol=1.0))
        assert res.error_estimate == pytest.approx(np.full(9, 0.5 / z[0]), rel=1e-9)

    @pytest.mark.parametrize("engine,z", [(integrate_oscillatory, 30.0 / U),
                                          (integrate_evanescent, 1e-7)])
    def test_one_height_array_is_the_scalar_case(self, engine, z):
        def kernel(k, aux):
            if engine is integrate_oscillatory:
                return vec((k / aux) * np.cos(2.0 * aux * z))
            return vec(k * aux * np.exp(-2.0 * aux * z))

        scalar = engine(kernel, OMEGA, z)
        array = engine(kernel, OMEGA, np.array([z]))
        assert np.array_equal(scalar.value, array.value)
        assert np.array_equal(scalar.error_estimate, array.error_estimate)
        assert scalar.evaluations == array.evaluations

    @pytest.mark.parametrize("engine", [integrate_oscillatory, integrate_evanescent])
    def test_descending_heights_rejected(self, engine):
        with pytest.raises(ValueError):
            engine(kernel_one_over_kz, OMEGA, np.array([2e-7, 1e-7]))


class TestFailureAndSpec:
    def test_tolerance_failure_carries_best_estimate(self):
        spec = QuadratureSpec(rel_tol=1e-13, abs_tol=0.0, max_subdivisions=1)

        def spiky(k, kz):
            return vec(1.0 / (1e-6 + (k / U - 0.3) ** 2))

        with pytest.raises(QuadratureToleranceError) as err:
            integrate_propagative(spiky, OMEGA, spec)
        best = err.value.best
        assert isinstance(best, QuadratureResult)
        assert np.all(np.isfinite(best.value))
        assert best.evaluations > 0

    def test_float_width_panel_is_not_converged(self):
        # an integrable peak of 1e15 at an irrational point: the panels around
        # it shrink until their 15 nodes round onto each other, where
        # |K15 - G7| is roundoff only. Such a panel keeps an error of at
        # least |K15|, so the peak ends the search instead of passing
        x0 = 1.0 / math.sqrt(2.0)
        exact = 2.0 * (math.sqrt(x0) + math.sqrt(1.0 - x0))

        def peak(x):
            return 1.0 / np.sqrt(np.abs(x - x0) + 1e-30)

        with pytest.raises(QuadratureToleranceError) as err:
            _adaptive(peak, np.linspace(0.0, 1.0, 5), QuadratureSpec(rel_tol=1e-10, abs_tol=0.0))
        best = err.value.best
        assert abs(best.value[0] - exact) > 0.1
        assert best.error_estimate[0] > 0.5 * abs(best.value[0] - exact)

    def test_panel_rows_grow_with_the_splits_taken(self):
        # a budget of 1e6 splits: the panel rows follow the splits taken
        # (none on a smooth panel, 36 on a peak), not the budget, a row of
        # which per split would trace 38 MiB; the splits keep their bits
        x0 = 1.0 / math.sqrt(2.0)

        def peak(x):
            return 1.0 / np.sqrt(np.abs(x - x0) + 1e-6)

        for F, edges in ((np.square, [0.0, 1.0]), (peak, np.linspace(0.0, 1.0, 5))):
            tracemalloc.start()
            try:
                res = _adaptive(F, edges, QuadratureSpec(max_subdivisions=10**6))
                peak_bytes = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak_bytes < 2**18
            want = _adaptive(F, edges, QuadratureSpec())
            assert (res.value.tobytes(), res.error_estimate.tobytes(), res.splits) == (
                want.value.tobytes(), want.error_estimate.tobytes(), want.splits)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)
        # an infinite tolerance would accept the initial panels as converged
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match="rel_tol must be finite and > 0"):
                QuadratureSpec(rel_tol=value)
            with pytest.raises(ValueError, match="abs_tol must be finite and >= 0"):
                QuadratureSpec(abs_tol=value)
        for value in (2.5, 2000.0, math.inf, "2000"):
            with pytest.raises(ValueError, match="max_subdivisions must be an integer >= 1"):
                QuadratureSpec(max_subdivisions=value)
        assert QuadratureSpec(max_subdivisions=np.int64(7)).max_subdivisions == 7

    def test_convergence_monotonicity(self):
        # halving rel_tol never worsens the true error on the oracle kernel
        z = 30.0 / U

        def kernel(k, kz):
            return vec((k / kz) * np.cos(2.0 * kz * z))

        exact = math.sin(2.0 * z * U) / (2.0 * z)
        errors = []
        rel = 1e-3
        while rel >= 1e-9:
            res = integrate_oscillatory(kernel, OMEGA, z, QuadratureSpec(rel_tol=rel))
            errors.append(abs(res.value[0] - exact))
            rel /= 2.0
        for earlier, later in zip(errors, errors[1:]):
            assert later <= earlier + 1e-15 * abs(exact)


class TestNonFinite:
    def test_nan_in_initial_pass_raises_with_first_node(self):
        def half_nan(k, kz):
            return vec(np.where(k > 0.5 * U, np.nan, k / kz))

        with pytest.raises(NonFiniteIntegrandError) as err:
            integrate_propagative(half_nan, OMEGA)
        node = err.value.node
        assert U * math.sin(node) > 0.5 * U
        assert repr(node) in str(err.value)
        assert isinstance(err.value, ArithmeticError)
        # every node below the named one was finite
        edges = quadrature._merge_edges(0.0, 0.5 * math.pi, [])
        mid, half = 0.5 * (edges[0] + edges[1]), 0.5 * (edges[1] - edges[0])
        nodes = mid + half * quadrature._NODES
        assert node == nodes[np.argmax(U * np.sin(nodes) > 0.5 * U)]

    def test_infinity_from_a_split_raises(self):
        calls = []

        def spiky_then_inf(k, kz):
            y = 1.0 / (1e-6 + (k / U - 0.3) ** 2)
            calls.append(len(k))
            if len(calls) > 1:
                y[-1] = np.inf
            return vec(y)

        with pytest.raises(NonFiniteIntegrandError) as err:
            integrate_propagative(spiky_then_inf, OMEGA)
        assert len(calls) == 2 and calls[1] == 30
        assert 0.0 < err.value.node < 0.5 * math.pi

    def test_nan_tail_raises(self):
        z = 1e-7

        def nan_at_cut(k, kappa):
            return vec(np.where(kappa >= 0.999 * quadrature._EVANESCENT_CUT / z,
                                np.nan, np.exp(-2.0 * kappa * z)))

        with pytest.raises(NonFiniteIntegrandError) as err:
            integrate_evanescent(nan_at_cut, OMEGA, z)
        assert err.value.node == quadrature._EVANESCENT_CUT / z

    def test_nan_error_floor_never_converges(self):
        spec = QuadratureSpec(max_subdivisions=3)
        with pytest.raises(QuadratureToleranceError) as err:
            _adaptive(lambda x: np.ones_like(x), np.array([0.0, 1.0]), spec,
                      extra_error=np.array([np.nan]))
        assert err.value.best.evaluations == 15 + 30 * 3

    def test_overflowing_panel_sum_raises_without_a_warning(self):
        # each panel holds 6e307, finite; the four together overflow. The
        # suite turns a RuntimeWarning into a failure
        with pytest.raises(NonFiniteIntegrandError) as err:
            _adaptive(lambda x: np.full_like(x, 6e307), np.arange(5.0), QuadratureSpec())
        assert err.value.node == 0.5


def _pair_integrand(engine, kind, n):
    """A (kernel, g) integrand of n heights and its dense columns Re(kernel ⊗ g).

    The kernel is e^{2i aux z} on the propagative sector, e^{(-2 + i) aux z}
    on the evanescent one (complex), or e^{-2 aux z} (real); g is complex
    for a complex kernel. g has a Lorentzian inside the sector, at k =
    0.9 omega/c or 1.1 omega/c, so that every case splits. Returns (z,
    pair, dense).
    """
    if engine is integrate_oscillatory:
        z, phase, peak = np.geomspace(0.1, 5.0, n) / U, (2j if kind == "complex" else -2.0), 0.9
    else:
        z, phase, peak = (np.geomspace(1e-8, 1e-6, n),
                          (-2.0 + 1j if kind == "complex" else -2.0), 1.1)

    def pair(k, aux):
        kernel = np.exp(phase * np.multiply.outer(aux, z))
        g = np.stack((k / U + 0.5, 1.0 / (1e-3 + (k / U - peak) ** 2)), axis=1)
        if kind == "complex":
            g = g * (1.0 - 0.4j)
        return kernel, g * (k / U)[:, None]

    def dense(k, aux):
        kernel, g = pair(k, aux)
        return (kernel[:, :, None] * g[:, None, :]).real.reshape(len(k), -1)

    return z, pair, dense


class TestKernelPairs:
    """A (kernel, g) pair integrates as its dense columns Re(kernel ⊗ g)."""

    @pytest.mark.parametrize("n", [1, 13])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("engine", [integrate_oscillatory, integrate_evanescent],
                             ids=["osc", "evan"])
    def test_pair_matches_dense_columns(self, engine, kind, n):
        z, pair, dense = _pair_integrand(engine, kind, n)
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=0.0)
        got, want = engine(pair, OMEGA, z, spec), engine(dense, OMEGA, z, spec)
        assert want.splits > 0
        assert (got.splits, got.rounds, got.evaluations) == (want.splits, want.rounds,
                                                             want.evaluations)
        assert np.array_equal(got.edges, want.edges)
        assert np.allclose(got.value, want.value, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("part", [0, 1], ids=["kernel", "g"])
    @pytest.mark.parametrize("n", [1, 13])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_nan_in_a_pair_names_its_node(self, kind, n, part):
        # NaN in the last column of the kernel or of g at every node past
        # 0.7 omega/c: the first of them is named, without a RuntimeWarning
        # (the suite makes one an error)
        z, pair, _ = _pair_integrand(integrate_oscillatory, kind, n)
        first = []

        def poisoned(k, kz):
            y = pair(k, kz)
            y[part][k > 0.7 * U, -1] = np.nan
            first.append(k[k > 0.7 * U][0])
            return y

        with pytest.raises(NonFiniteIntegrandError) as err:
            integrate_oscillatory(poisoned, OMEGA, z)
        assert len(first) == 1
        assert U * math.sin(err.value.node) == pytest.approx(first[0], rel=1e-14)


def _record_panels(monkeypatch):
    """Track the live panel set (a, b, value, error) through _eval_panels."""
    panels = {}
    original = quadrature._eval_panels

    def recording(F, a, b):
        vals, errs = original(F, a, b)
        for row in zip(a.tolist(), b.tolist(), vals, errs):
            panels[row[0]] = row         # a split overwrites its left half
        return vals, errs

    monkeypatch.setattr(quadrature, "_eval_panels", recording)
    return panels


def _sequential_sums(panels, m, extra_error):
    value = np.zeros(m)
    error = extra_error.copy()
    for lo in sorted(panels):
        _, _, val, err = panels[lo]
        value += val
        error += err
    return value, error


def _final_edges(panels):
    lo = sorted(panels)
    return np.array(lo + [panels[lo[-1]][1]])


class TestOrderedSum:
    """_adaptive sums panel rows in ascending panel order, bit for bit."""

    @staticmethod
    def wavy(x):
        return np.stack((np.cos(37.0 * x) * np.exp(x), x**3 - 0.4 * x,
                         1.0 / (1e-3 + (x - 0.61) ** 2)), axis=-1)

    def test_ten_thousand_initial_panels(self, monkeypatch):
        panels = _record_panels(monkeypatch)
        edges = np.linspace(0.0, 1.0, 10_001) ** 1.5
        extra = np.array([1e-15, 2e-15, 3e-15])
        res = _adaptive(self.wavy, edges, QuadratureSpec(), extra_error=extra)
        assert len(panels) == 10_000
        value, error = _sequential_sums(panels, 3, extra)
        assert res.value.tobytes() == value.tobytes()
        assert res.error_estimate.tobytes() == error.tobytes()
        assert res.evaluations == 15 * 10_000

    def test_after_splits(self, monkeypatch):
        panels = _record_panels(monkeypatch)
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=0.0)
        res = _adaptive(self.wavy, np.linspace(0.0, 1.0, 4), spec)
        splits = len(panels) - 3
        assert splits > 10
        value, error = _sequential_sums(panels, 3, np.zeros(3))
        assert res.value.tobytes() == value.tobytes()
        assert res.error_estimate.tobytes() == error.tobytes()
        assert res.evaluations == 15 * 3 + 30 * splits
        assert res.splits == splits
        assert (res.initial_panels, res.converged) == (3, True)
        assert np.array_equal(res.edges, _final_edges(panels))

    def test_best_estimate_on_failure(self, monkeypatch):
        panels = _record_panels(monkeypatch)
        spec = QuadratureSpec(rel_tol=1e-14, abs_tol=0.0, max_subdivisions=7)
        with pytest.raises(QuadratureToleranceError) as err:
            _adaptive(self.wavy, np.linspace(0.0, 1.0, 4), spec)
        best = err.value.best
        assert len(panels) == 3 + 7
        value, error = _sequential_sums(panels, 3, np.zeros(3))
        assert best.value.tobytes() == value.tobytes()
        assert best.error_estimate.tobytes() == error.tobytes()
        assert best.evaluations == 15 * 3 + 30 * 7
        assert best.splits == 7
        assert (best.initial_panels, best.converged) == (3, False)
        assert np.array_equal(best.edges, _final_edges(panels))


def _one_panel_per_call(F, edges, spec, extra_error=None, _heights=1):
    """The adaptive loop that batched rounds replaced, kept as an oracle.

    Each integrand call after the initial pass bisects the one panel with
    the largest error component; the result sums the panels in ascending
    order and counts every call after the initial pass as a round. The
    initial pass is one call: ``_heights`` sizes no call here.
    """
    edges = np.asarray(edges, dtype=float)
    vals0, errs0 = quadrature._eval_panels(F, edges[:-1], edges[1:])
    a, b, vals, errs = list(edges[:-1]), list(edges[1:]), list(vals0), list(errs0)
    extra = np.zeros(vals0.shape[1]) if extra_error is None else extra_error
    heap = [(-e.max(), i) for i, e in enumerate(errs)]
    heapq.heapify(heap)
    total_val, total_err = vals0.sum(axis=0), errs0.sum(axis=0) + extra
    splits = 0

    def result():
        order = np.argsort(a, kind="stable")
        return QuadratureResult(np.sum(np.array(vals)[order], axis=0),
                                extra + np.sum(np.array(errs)[order], axis=0),
                                15 * len(vals0) + 30 * splits, splits=splits, rounds=splits)

    while not (total_err <= np.maximum(spec.rel_tol * np.abs(total_val), spec.abs_tol)).all():
        if splits >= spec.max_subdivisions or not heap:
            raise QuadratureToleranceError("tolerance not met", best=result())
        neg_err, i = heapq.heappop(heap)
        lo, hi = a[i], b[i]
        mid = 0.5 * (lo + hi)
        if -neg_err != errs[i].max() or not lo < mid < hi:
            continue
        pv, pe = quadrature._eval_panels(F, np.array([lo, mid]), np.array([mid, hi]))
        splits += 1
        total_val = total_val - vals[i] + pv[0] + pv[1]
        total_err = total_err - errs[i] + pe[0] + pe[1]
        b[i], vals[i], errs[i] = mid, pv[0], pe[0]
        a.append(mid)
        b.append(hi)
        vals.append(pv[1])
        errs.append(pe[1])
        heapq.heappush(heap, (-pe[0].max(), i))
        heapq.heappush(heap, (-pe[1].max(), len(a) - 1))
    return result()


def _heap_rounds(F, edges, spec, extra_error=None):
    """The per-panel heap selection that a partial sort replaced, kept as an oracle.

    Each round pops panels one by one off a heap keyed on (minus the
    largest error component, row), drops those at floating-point width and
    subtracts each picked panel's error from the error left, until that
    meets the tolerance or the budget is spent. Rows, halves and sums are
    _adaptive's; every pass is one integrand call. Returns (converged,
    result or best estimate).
    """
    edges = np.asarray(edges, dtype=float)
    n = len(edges) - 1
    rows = n + spec.max_subdivisions
    a, b = np.empty(rows), np.empty(rows)
    a[:n], b[:n] = edges[:-1], edges[1:]
    v0, e0 = quadrature._eval_panels(F, a[:n], b[:n])
    m = v0.shape[1]
    vals, errs = np.empty((rows, m)), np.empty((rows, m))
    vals[:n], errs[:n] = v0, e0
    extra = np.zeros(m) if extra_error is None else extra_error
    heap = list(zip((-errs[:n].max(axis=1)).tolist(), range(n)))
    heapq.heapify(heap)
    total_val, total_err = vals[:n].sum(axis=0), errs[:n].sum(axis=0) + extra
    count, splits, rounds = n, 0, 0
    while True:
        tol = np.maximum(spec.rel_tol * np.abs(total_val), spec.abs_tol)
        if (total_err <= tol).all() or splits >= spec.max_subdivisions:
            break
        left_err, picked = total_err, []
        while heap and len(picked) < spec.max_subdivisions - splits:
            i = heapq.heappop(heap)[1]
            if not a[i] < 0.5 * (a[i] + b[i]) < b[i]:
                continue
            picked.append(i)
            left_err = left_err - errs[i]
            if (left_err <= tol).all():
                break
        if not picked:
            break
        k, rows_in = len(picked), np.array(picked)
        lo, hi = a[rows_in], b[rows_in]
        mid = 0.5 * (lo + hi)
        dest = np.concatenate((rows_in, np.arange(count, count + k)))
        old_val, old_err = vals[rows_in].sum(axis=0), errs[rows_in].sum(axis=0)
        vals[dest], errs[dest] = quadrature._eval_panels(F, np.concatenate((lo, mid)),
                                                         np.concatenate((mid, hi)))
        splits, rounds = splits + k, rounds + 1
        total_val = total_val - old_val + vals[dest].sum(axis=0)
        total_err = total_err - old_err + errs[dest].sum(axis=0)
        b[rows_in] = mid
        a[count:count + k], b[count:count + k] = mid, hi
        for row, e in zip(dest.tolist(), errs[dest].max(axis=1).tolist()):
            heapq.heappush(heap, (-e, row))
        count += k
    order = np.argsort(a[:count], kind="stable")
    value, error = np.zeros(m), extra.copy()
    for i in order:
        value += vals[i]
        error += errs[i]
    ok = bool((total_err <= tol).all())
    return ok, QuadratureResult(value, error, 15 * n + 30 * splits, splits=splits, rounds=rounds,
                                initial_panels=n, converged=ok,
                                edges=np.append(a[order], b[order[-1]]))


_X0 = 1.0 / math.sqrt(2.0)

# (F, initial edges, spec) of each case against the heap oracle
HEAP_CASES = {
    "wavy": (TestOrderedSum.wavy, np.linspace(0.0, 1.0, 4),
             QuadratureSpec(rel_tol=1e-12, abs_tol=0.0)),
    # no tolerance can be met: every round takes every live panel up to
    # the budget, and the 256 ulps of the last panel reach floating-point
    # width on the way
    "budget": (TestOrderedSum.wavy, np.array([0.0, 1.0 - 2.0**-45, 1.0]),
               QuadratureSpec(rel_tol=1e-300, abs_tol=0.0)),
    # a jump at an irrational point, 2^-43 wide: every panel ends at
    # floating-point width, within the budget
    "fp-width": (lambda x: np.stack((1.0 * (x > _X0), x), axis=-1),
                 np.array([_X0 - 2.0**-44, _X0 + 2.0**-44]),
                 QuadratureSpec(rel_tol=1e-300, abs_tol=0.0)),
    # period 1 on [4, 8]: within one binade x % 1 is exact, so the panels
    # at one offset in each unit cell see the same values and tie exactly
    "ties": (lambda x: TestOrderedSum.wavy(x % 1.0), np.arange(4.0, 9.0),
             QuadratureSpec(rel_tol=1e-12, abs_tol=0.0)),
    # the budget ends within a group of tied panels
    "ties-budget": (lambda x: TestOrderedSum.wavy(x % 1.0), np.arange(4.0, 9.0),
                    QuadratureSpec(rel_tol=1e-12, abs_tol=0.0, max_subdivisions=7)),
}


class TestHeapOracle:
    """_adaptive picks a round's panels as the one-by-one heap did, bit for bit."""

    @pytest.mark.parametrize("case", sorted(HEAP_CASES))
    def test_matches_heap_rounds(self, case):
        F, edges, spec = HEAP_CASES[case]
        want_ok, want = _heap_rounds(F, edges, spec)
        try:
            got, got_ok = _adaptive(F, edges, spec), True
        except QuadratureToleranceError as err:
            got, got_ok = err.best, False
        assert want.splits > 0
        assert (got_ok, got.converged) == (want_ok, want_ok)
        assert (got.splits, got.rounds, got.evaluations) == (want.splits, want.rounds,
                                                             want.evaluations)
        assert np.array_equal(got.edges, want.edges)
        assert got.value.tobytes() == want.value.tobytes()
        assert got.error_estimate.tobytes() == want.error_estimate.tobytes()

    def test_ties_go_to_the_lower_row(self):
        # a round that meets the tolerance within a group of tied panels
        # takes the lowest rows: the first unit cell ends with one more panel
        F, edges, spec = HEAP_CASES["ties"]
        res = _adaptive(F, edges, spec)
        cells = [np.sum((res.edges >= c) & (res.edges < c + 1)) for c in range(4, 8)]
        assert cells[0] == cells[1] + 1 and cells[1] == cells[2] == cells[3]


def _spiky(k, kz):
    return vec(1.0 / (1e-6 + (k / U - 0.3) ** 2))


def _oscillatory_columns(k, kz):
    return (k / kz)[:, None] * np.cos(2.0 * kz[:, None] * TestManyHeights.ZU / U)


def _evanescent_columns(k, kappa):
    z = np.array([1e-8, 3e-8, 7e-8])
    return (k * kappa)[:, None] * np.exp(-2.0 * kappa[:, None] * z)


BATCHED_CASES = {
    "wavy": lambda spec: _adaptive(TestOrderedSum.wavy, np.linspace(0.0, 1.0, 4), spec),
    "heights-oscillatory": lambda spec: integrate_oscillatory(
        _oscillatory_columns, OMEGA, TestManyHeights.ZU / U, spec),
    "heights-evanescent": lambda spec: integrate_evanescent(
        _evanescent_columns, OMEGA, np.array([1e-8, 3e-8, 7e-8]), spec),
    "spiky": lambda spec: integrate_propagative(_spiky, OMEGA, spec),
}


def _run(case, spec):
    """(converged, result or best) of one case."""
    try:
        return True, BATCHED_CASES[case](spec)
    except QuadratureToleranceError as err:
        return False, err.best


class TestBatchedRounds:
    """Each round bisects all the worst panels it needs in one integrand call."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """(a, b) of every _eval_panels call, in order."""
        seen = []
        original = quadrature._eval_panels

        def recording(F, a, b):
            seen.append((a.copy(), b.copy()))
            return original(F, a, b)

        monkeypatch.setattr(quadrature, "_eval_panels", recording)
        return seen

    @staticmethod
    def _depth(calls):
        """Bisections from its initial panel to the narrowest final panel."""
        a0, b0 = calls[0]
        final = {}
        for a, b in calls:
            final.update(zip(a.tolist(), b.tolist()))    # a left half keeps its row's edge
        lo = np.array(list(final))
        width = np.array(list(final.values())) - lo
        parent = np.searchsorted(a0, lo, side="right") - 1
        return int(np.rint(np.log2((b0 - a0)[parent] / width)).max())

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12])
    @pytest.mark.parametrize("case", sorted(BATCHED_CASES))
    def test_matches_one_panel_per_call(self, monkeypatch, calls, case, rel_tol):
        spec = QuadratureSpec(rel_tol=rel_tol)
        ok, res = _run(case, spec)
        n_calls, depth = len(calls), self._depth(calls)
        monkeypatch.setattr(quadrature, "_adaptive", _one_panel_per_call)
        oracle_ok, oracle = _run(case, spec)

        assert ok == oracle_ok
        tol = np.maximum(rel_tol * np.abs(oracle.value), spec.abs_tol)
        assert np.all(np.abs(res.value - oracle.value) <= tol)
        assert res.splits <= 1.1 * oracle.splits
        assert n_calls == 1 + res.rounds
        # a round bisects a panel at most once, so the deepest panel bounds
        # the rounds from below; the rule reaches that bound (wavy at 1e-12:
        # 23 splits in 5 rounds; spiky: 32 splits, 12 levels deep)
        assert res.rounds == depth

    @pytest.mark.parametrize("case", sorted(BATCHED_CASES))
    def test_budget_ends_at_exactly_max_subdivisions(self, calls, case):
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=0.0, max_subdivisions=2000)
        ok, best = _run(case, spec)
        assert not ok
        assert best.splits == 2000
        assert best.rounds <= 40 and len(calls) == 1 + best.rounds
        # best.evaluations counts the evanescent tail node, as a result does
        tail = 1 if case == "heights-evanescent" else 0
        assert best.evaluations == 15 * len(calls[0][0]) + 30 * 2000 + tail
        assert sum(len(a) for a, _ in calls[1:]) == 2 * 2000

    def test_halves_of_a_round(self, calls):
        # left halves keep their rows and right halves are appended, both
        # in pop order: one call holds every left half, then every right
        res = _adaptive(TestOrderedSum.wavy, np.linspace(0.0, 1.0, 4),
                        QuadratureSpec(rel_tol=1e-12, abs_tol=0.0))
        assert res.evaluations == 15 * 3 + 30 * res.splits
        for a, b in calls[1:]:
            k = len(a) // 2
            assert np.array_equal(b[:k], a[k:])
            assert np.all(a[:k] < b[:k]) and np.all(a[k:] < b[k:])

    def test_nan_in_a_round_of_several_panels(self):
        sizes = []

        def nan_late(x):
            y = TestOrderedSum.wavy(x)
            sizes.append(len(x))
            if len(sizes) > 1 and len(x) > 30:
                y[-1, 1] = np.nan                # last node of the round's last panel
                nan_late.node = x[-1]
            return y

        with pytest.raises(NonFiniteIntegrandError) as err:
            _adaptive(nan_late, np.linspace(0.0, 1.0, 4), QuadratureSpec(rel_tol=1e-12))
        assert sizes[-1] > 30 and all(s <= 30 for s in sizes[1:-1])
        assert err.value.node == nan_late.node

    def test_result_counts(self):
        res = integrate_propagative(_spiky, OMEGA)
        assert res.splits > res.rounds > 0
        assert res.evaluations == 15 + 30 * res.splits
        default = QuadratureResult(np.zeros(3), np.zeros(3), 0)
        assert (default.splits, default.rounds, default.initial_panels) == (0, 0, 0)
        assert default.converged and default.edges is None

    def test_seeds_are_initial_edges_in_the_engine_variable(self, calls):
        # seeds within a few ulps of grazing or of the light line survive
        # bit for bit: no round trip through k
        theta = np.array([0.3, 0.5 * math.pi * (1.0 - 1e-12)])
        integrate_oscillatory(lambda k, kz: vec(np.ones_like(k)), OMEGA, 1e-9, _seeds=theta)
        assert set(theta) <= set(calls[0][0])
        n = len(calls)
        kappa = np.array([1e-9 * U, 0.5 * U])
        integrate_evanescent(lambda k, kappa: vec(np.exp(-2e-7 * kappa)), OMEGA, 1e-7,
                             _seeds=kappa)
        assert set(kappa) <= set(calls[n][0])



def _response_case(model, omega, delta, z):
    """A z-scan of the slab response as rows of B, C and D, slab pass afresh."""

    def run(spec):
        response._b_vector.cache_clear()
        try:
            many = response.response_vectors_many(omega, z, delta, model, spec)
        finally:
            response._b_vector.cache_clear()
        assert all(isinstance(rv, response.ResponseVectors) for rv in many)
        return np.array([np.concatenate((rv.B, rv.C, rv.D)) for rv in many])

    return run


# (run, _MAX_CELLS) of each case: the low-loss 1 cm slab starts C and D
# from about 9k and 11k panels, SiC at its resonance from a few dozen
CAPPED_CASES = {
    **{case: (run, 150) for case, run in BATCHED_CASES.items()},
    "low-loss-16": (_response_case(DielectricModel(2.0, 2e14, 1e14, gamma_damp=1e10), 3e14,
                                   1e-2, np.geomspace(1e-7, 1e-6, 16)), 1 << 16),
    "resonant-50": (_response_case(load_material("sic"), 1.495e14, 110e-9,
                                   np.geomspace(1e-8, 1e-4, 50)), 1 << 13),
}


class TestCallCap:
    """Every integrand call holds at most _MAX_CELLS node-columns."""

    @pytest.fixture
    def record(self, monkeypatch):
        """Node-columns of every integrand call, and the counts of every integral."""
        seen = {"cells": [], "counts": []}
        evaluate, adaptive = quadrature._eval_panels, quadrature._adaptive

        def recording_eval(F, a, b):
            def counted(x):
                y = F(x)
                # a (kernel, g) pair holds N x heights x orientations cells
                seen["cells"].append(y[0].size * y[1].shape[1] if isinstance(y, tuple)
                                     else np.size(y))
                return y

            return evaluate(counted, a, b)

        def note(res):
            seen["counts"].append((res.evaluations, res.splits, res.rounds))

        def recording_adaptive(*args, **kwargs):
            try:
                res = adaptive(*args, **kwargs)
            except QuadratureToleranceError as err:
                note(err.best)
                raise
            note(res)
            return res

        monkeypatch.setattr(quadrature, "_eval_panels", recording_eval)
        monkeypatch.setattr(quadrature, "_adaptive", recording_adaptive)
        monkeypatch.setattr(response, "_adaptive", recording_adaptive)
        return seen

    @pytest.mark.parametrize("case", sorted(CAPPED_CASES))
    def test_calls_within_max_cells(self, monkeypatch, record, case):
        run, cells = CAPPED_CASES[case]
        spec = QuadratureSpec(rel_tol=1e-10) if case in BATCHED_CASES else QuadratureSpec()

        def outcome():
            record["cells"].clear()
            record["counts"].clear()
            try:
                value = run(spec)
            except QuadratureToleranceError as err:
                value = err.best.value
            value = value if isinstance(value, np.ndarray) else value.value
            return value, list(record["cells"]), list(record["counts"])

        whole_value, whole_cells, whole_counts = outcome()
        monkeypatch.setattr(quadrature, "_MAX_CELLS", cells)
        value, cells_seen, counts = outcome()
        assert max(whole_cells) > cells          # the cap binds
        assert max(cells_seen) <= cells and len(cells_seen) > len(whole_cells)
        # chunks change no evaluation, split, round or value
        assert counts == whole_counts
        assert np.array_equal(value, whole_value)
