"""The B, C and D integrands and the kappa-seed density against their definitions.

``_c_pass`` and ``_d_pass`` hand the engine a pair: the height kernel
(node, height) and a height-free density g (node, orientation), formed
once per node, whose value is Re(kernel ⊗ g). Here each integrand is
captured from the engine call and evaluated at random nodes; the value
formed from its pair is compared with its definition, C's written with
a complex exponential:

    B: pref (k/k_z) [(|rho_TE|^2 + |tau_TE|^2) w_TE + (|rho_TM|^2 + |tau_TM|^2) w_TM]
    C: pref (k/k_z) Re[(rho_TE w_TE + rho_TM w_TM) e^{2i k_z z}]
    D: pref (k/kappa) (Im rho_TE w_TE + Im rho_TM w_TM) e^{-2 kappa z}
    seeds: pref (Im rho_TE w_TE + Im rho_TM w_TM)

with w_TE = (1, 0), w_TM = (c/omega)^2 (a, 2 k^2), a = k_z^2 for B and
a = -k_z^2 (kappa^2 on the evanescent sector) for C, D and the seeds,
and pref = 3c/(4 omega). Batched-against-single tests share the kernel
on both sides, so they cannot see an error in it, and the seed density
only moves panel edges, so no value test can see an error in it.
"""

import numpy as np
import pytest

from neqatom import response
from neqatom.constants import c
from neqatom.optics import DielectricModel, load_material, permittivity, slab_amplitudes
from neqatom.quadrature import DEFAULT_SPEC, QuadratureResult

SIC = load_material("sic")
OMEGA_R = 1.495e14
LOW_LOSS = DielectricModel(2.0, 2e14, 1e14, gamma_damp=1e10)

# (model, omega, delta): SiC at and off resonance, the low-loss thick slab
CASES = [(SIC, OMEGA_R, 110e-9), (SIC, 2.0 * OMEGA_R, 1e-2), (LOW_LOSS, 3e14, 1e-2)]
HEIGHTS = {1: [3e-7], 3: [1e-8, 2e-7, 5e-6], 12: np.geomspace(1e-8, 1e-4, 12).tolist()}
RTOL = 1e-13

# a slab pass is only read for its seeds, which the captured engine ignores
_SLAB = response._SlabPass(B=QuadratureResult(np.zeros(2), np.zeros(2), 0, edges=np.zeros(0)),
                           kappa_seeds=np.zeros(0))


def _captured(monkeypatch, engine, run):
    """The integrand that ``run`` hands to ``response.<engine>``."""
    seen = []

    def capture(integrand, *args, **kwargs):
        seen.append(integrand)
        zero = np.zeros(2)
        return QuadratureResult(zero, zero, 0, edges=np.zeros(0))

    monkeypatch.setattr(response, engine, capture)
    run()
    (integrand,) = seen
    return integrand


def _value(pair, n):
    """Re(kernel ⊗ g) of a captured pair, as (node, height, orientation)."""
    kernel, g = pair
    assert kernel.shape == (len(g), n) and g.shape == (len(g), 2)
    return (kernel[:, :, None] * g[:, None, :]).real


def _check(got, want):
    # (node, height, orientation); each (height, orientation) column to
    # rtol of its own scale over the nodes
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.abs(got - want) <= RTOL * scale)


@pytest.mark.parametrize("n", sorted(HEIGHTS))
@pytest.mark.parametrize("model,omega,delta", CASES, ids=["sic-res", "sic-off", "low-loss"])
def test_c_integrand_matches_definition(monkeypatch, model, omega, delta, n):
    z = np.asarray(HEIGHTS[n])
    eps = permittivity(model, omega)
    integrand = _captured(monkeypatch, "integrate_oscillatory",
                          lambda: response._c_pass(omega, eps, z, delta, _SLAB, DEFAULT_SPEC))
    U = omega / c
    theta = np.random.default_rng(n).uniform(0.0, 0.5 * np.pi, 300)
    k, kz = U * np.sin(theta), U * np.cos(theta)
    got = _value(integrand(k, kz), n)

    (rho_te, rho_tm), _ = slab_amplitudes(omega, eps, kz, delta, want_tau=False)
    s = (c / omega) ** 2
    pref = 0.75 * c / omega
    want = np.empty_like(got)
    for j, h in enumerate(z):
        phase = np.exp(2j * kz * h)
        want[:, j, 0] = pref * (k / kz) * ((rho_te - s * kz**2 * rho_tm) * phase).real
        want[:, j, 1] = pref * (k / kz) * (2.0 * s * k**2 * rho_tm * phase).real
    _check(got, want)


@pytest.mark.parametrize("n", sorted(HEIGHTS))
@pytest.mark.parametrize("model,omega,delta", CASES, ids=["sic-res", "sic-off", "low-loss"])
def test_d_integrand_matches_definition(monkeypatch, model, omega, delta, n):
    z = np.asarray(HEIGHTS[n])
    eps = permittivity(model, omega)
    integrand = _captured(monkeypatch, "integrate_evanescent",
                          lambda: response._d_pass(omega, eps, z, delta, _SLAB, DEFAULT_SPEC))
    U = omega / c
    kappa = U * 10.0 ** np.random.default_rng(n).uniform(-3.0, 3.0, 300)
    k = np.hypot(kappa, U)
    got = _value(integrand(k, kappa), n)

    (rho_te, rho_tm), _ = slab_amplitudes(omega, eps, 1j * kappa, delta, want_tau=False)
    s = (c / omega) ** 2
    pref = 0.75 * c / omega
    want = np.empty_like(got)
    for j, h in enumerate(z):
        damp = np.exp(-2.0 * kappa * h)
        want[:, j, 0] = pref * (k / kappa) * (rho_te.imag + s * kappa**2 * rho_tm.imag) * damp
        want[:, j, 1] = pref * (k / kappa) * (2.0 * s * k**2 * rho_tm.imag) * damp
    _check(got, want)


@pytest.mark.parametrize("model,omega,delta", CASES, ids=["sic-res", "sic-off", "low-loss"])
def test_b_integrand_matches_definition(monkeypatch, model, omega, delta):
    eps = permittivity(model, omega)
    monkeypatch.setattr(response, "_kappa_seeds", lambda *args: None)
    integrand = _captured(monkeypatch, "integrate_propagative",
                          lambda: response._b_vector.__wrapped__(omega, delta, model, DEFAULT_SPEC))
    U = omega / c
    theta = np.random.default_rng(7).uniform(0.0, 0.5 * np.pi, 300)
    k, kz = U * np.sin(theta), U * np.cos(theta)
    got = integrand(k, kz)

    (rho_te, rho_tm), (tau_te, tau_tm) = slab_amplitudes(omega, eps, kz, delta)
    te = np.abs(rho_te) ** 2 + np.abs(tau_te) ** 2
    tm = np.abs(rho_tm) ** 2 + np.abs(tau_tm) ** 2
    s = (c / omega) ** 2
    pref = 0.75 * c / omega
    want = np.empty_like(got)
    want[:, 0] = pref * (k / kz) * (te + s * kz**2 * tm)
    want[:, 1] = pref * (k / kz) * (2.0 * s * k**2 * tm)
    _check(got, want)


@pytest.mark.parametrize("omega", [OMEGA_R, 1.787e14, 2.0 * OMEGA_R],
                         ids=["sic-res", "sic-surface", "sic-off"])
def test_kappa_seed_density_matches_definition(monkeypatch, omega):
    # a 110 nm SiC slab has no evanescent slab-phase breakpoints at these
    # frequencies, so its seeds come from one adaptive pass over the density
    delta = 110e-9
    eps = permittivity(SIC, omega)
    density = _captured(monkeypatch, "_adaptive",
                        lambda: response._kappa_seeds(omega, eps, delta, DEFAULT_SPEC))
    U = omega / c
    kappa = U * 10.0 ** np.random.default_rng(11).uniform(-3.0, 1.0, 300)
    got = density(kappa)

    (rho_te, rho_tm), _ = slab_amplitudes(omega, eps, 1j * kappa, delta, want_tau=False)
    s = (c / omega) ** 2
    pref = 0.75 * c / omega
    want = np.empty_like(got)
    want[:, 0] = pref * (rho_te.imag + s * kappa**2 * rho_tm.imag)
    want[:, 1] = pref * (2.0 * s * (kappa**2 + U**2) * rho_tm.imag)
    _check(got, want)
