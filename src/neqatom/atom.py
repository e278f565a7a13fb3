"""Three-level Lambda-system thermodynamics.

Levels |1>, |2>, |3> in increasing energy; the only allowed dipole
transitions are 3<->1 and 3<->2. Each transition sees an effective
photon number mixing the wall and body occupations through its channel
weights, and relaxes with detailed-balance rates at the corresponding
effective temperature. Coherences decay to zero and are not tracked; the
populations obey a classical 3x3 rate equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .constants import c, epsilon_0, hbar, k_B
from .response import ISOTROPIC_WEIGHTS, AlphaPair, check_weights


class VanishingCouplingError(ArithmeticError):
    """alpha_W + alpha_M = 0: the transition is decoupled from the field."""


class DegenerateSteadyStateError(ArithmeticError):
    """Both upward occupations vanish; the two ground states are dark."""


def unit_rate_dipole(omega: float) -> float:
    """Dipole magnitude [C m] giving a vacuum emission rate of 1 /s at omega."""
    return math.sqrt(3.0 * math.pi * epsilon_0 * hbar * c**3 / omega**3)


@dataclass(frozen=True)
class AtomModel:
    """Transition frequencies, dipole magnitudes and orientation weights.

    Dipole magnitudes default to the value giving a vacuum rate of 1 /s
    for each transition; they only set the overall time scale, never the
    steady state or the effective temperatures.
    """

    omega_31: float
    omega_32: float
    d31_mag: float | None = None
    d32_mag: float | None = None
    weights_31: tuple = ISOTROPIC_WEIGHTS
    weights_32: tuple = ISOTROPIC_WEIGHTS

    def __post_init__(self):
        for name in ("omega_31", "omega_32", "d31_mag", "d32_mag"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not (self.omega_31 > self.omega_32 > 0.0):
            raise ValueError("need omega_31 > omega_32 > 0")
        object.__setattr__(self, "weights_31", check_weights(self.weights_31))
        object.__setattr__(self, "weights_32", check_weights(self.weights_32))
        for which in ("31", "32"):
            if getattr(self, f"d{which}_mag") is None:
                omega = getattr(self, f"omega_{which}")
                try:  # omega**3 out of float range raises, or d underflows to 0
                    d_mag = unit_rate_dipole(omega)
                except (OverflowError, ZeroDivisionError):
                    d_mag = 0.0
                if not d_mag > 0.0:
                    raise ValueError(f"omega_{which} = {omega!r} has no default d{which}_mag")
                object.__setattr__(self, f"d{which}_mag", d_mag)
        if not (self.d31_mag > 0.0 and self.d32_mag > 0.0):
            raise ValueError("dipole magnitudes must be > 0")

    def transition(self, which: str):
        """(omega, dipole magnitude, orientation weights) for '31' or '32'."""
        if which == "31":
            return self.omega_31, self.d31_mag, self.weights_31
        if which == "32":
            return self.omega_32, self.d32_mag, self.weights_32
        raise ValueError("transition must be '31' or '32'")


@dataclass(frozen=True)
class TransitionEnvironment:
    """Radiative environment of one transition: weights, occupation, rates."""

    alpha_W: float
    alpha_M: float
    n_eff: float
    T_eff: float
    gamma_down: float
    gamma_up: float
    gamma0: float


@dataclass(frozen=True)
class Populations:
    """Diagonal of the atomic density matrix."""

    p1: float
    p2: float
    p3: float

    def __post_init__(self):
        ps = (self.p1, self.p2, self.p3)
        if not all(-1e-12 <= p <= 1.0 + 1e-12 for p in ps):
            raise ValueError("populations must lie in [0, 1]")
        if not abs(sum(ps) - 1.0) <= 1e-12:
            raise ValueError("populations must sum to 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.p1, self.p2, self.p3])


def _check_frequency(omega: float) -> None:
    if not (omega > 0.0 and math.isfinite(omega)):
        raise ValueError("omega must be finite and > 0")


def _check_nonnegative(name: str, *values: float) -> None:
    if not all(v >= 0.0 and math.isfinite(v) for v in values):
        raise ValueError(f"{name} must be finite and >= 0")


@lru_cache(maxsize=64)  # a scan asks again at every height; a failure is not kept
def bose_occupation(omega: float, T: float) -> float:
    """Mean photon number n(omega, T); 0 at T = 0.

    Raises ValueError for a non-finite input, and when hbar*omega/(k_B*T)
    is so small that n overflows (down to x = 0 by underflow).
    """
    _check_frequency(omega)
    _check_nonnegative("T", T)
    kT = k_B * T
    if kT == 0.0:
        return 0.0
    x = hbar * omega / kT
    if x > 700.0:
        return 0.0
    n = 1.0 / math.expm1(x) if x > 0.0 else math.inf
    if n == math.inf:
        raise ValueError("hbar*omega/(k_B*T) underflows: n(omega, T) overflows")
    return n


def effective_occupation(omega: float, T_W: float, T_M: float, alphas: AlphaPair) -> float:
    """Channel-weighted mean photon number seen by one transition."""
    total = alphas.alpha_W + alphas.alpha_M
    if not total > 0.0:
        raise VanishingCouplingError("vanishing total coupling")
    return (bose_occupation(omega, T_W) * alphas.alpha_W
            + bose_occupation(omega, T_M) * alphas.alpha_M) / total


def effective_temperature(omega: float, n_eff: float) -> float:
    """Temperature whose equilibrium occupation at omega equals n_eff."""
    _check_frequency(omega)
    _check_nonnegative("n_eff", n_eff)
    if n_eff == 0.0:
        return 0.0
    k_x = k_B * math.log1p(1.0 / n_eff)  # hbar * omega / T
    T = hbar * omega / k_x if k_x > 0.0 else math.inf
    if T == math.inf:
        raise ValueError("n_eff too large: T_eff overflows")
    return T


def transition_rates(atom: AtomModel, which: str, alphas: AlphaPair,
                     T_W: float, T_M: float) -> TransitionEnvironment:
    """Downward/upward rates of one transition in the given environment.

    gamma0 = omega^3 |d|^2 / (3 pi eps0 hbar c^3) is the vacuum rate;
    the environment multiplies it by (alpha_W + alpha_M) and the usual
    (1 + n) / n detailed-balance factors at the effective occupation.
    """
    omega, d_mag, _ = atom.transition(which)
    try:
        gamma0 = omega**3 * d_mag**2 / (3.0 * math.pi * epsilon_0 * hbar * c**3)
    except OverflowError:  # a float power out of range
        gamma0 = math.inf
    if gamma0 == math.inf:
        raise ValueError(f"vacuum rate of transition {which} overflows")
    n_eff = effective_occupation(omega, T_W, T_M, alphas)
    base = gamma0 * (alphas.alpha_W + alphas.alpha_M)
    return TransitionEnvironment(
        alpha_W=alphas.alpha_W,
        alpha_M=alphas.alpha_M,
        n_eff=n_eff,
        T_eff=effective_temperature(omega, n_eff),
        gamma_down=base * (1.0 + n_eff),
        gamma_up=base * n_eff,
        gamma0=gamma0,
    )


def steady_state(n31: float, n32: float) -> Populations:
    """Closed-form stationary populations from the two effective occupations."""
    _check_nonnegative("occupations", n31, n32)
    Z = 3.0 * n31 * n32 + n31 + n32
    if Z < 1e-300:
        raise DegenerateSteadyStateError("steady state not unique at zero temperature")
    if Z == math.inf:
        raise ValueError("occupations too large: the normalization overflows")
    p = np.array([n32 * (1.0 + n31), n31 * (1.0 + n32), n31 * n32]) / Z
    p /= p.sum()
    return Populations(p1=float(p[0]), p2=float(p[1]), p3=float(p[2]))


def rate_generator(env31: TransitionEnvironment, env32: TransitionEnvironment) -> np.ndarray:
    """Generator G of the population rate equation dp/dt = G p."""
    for env in (env31, env32):
        if env.gamma_down < 0.0 or env.gamma_up < 0.0:
            raise ValueError("rates must be >= 0")
    d31, u31 = env31.gamma_down, env31.gamma_up
    d32, u32 = env32.gamma_down, env32.gamma_up
    return np.array([
        [-u31, 0.0, d31],
        [0.0, -u32, d32],
        [u31, u32, -(d31 + d32)],
    ])


def evolve_populations(initial: Populations, env31: TransitionEnvironment,
                       env32: TransitionEnvironment, t: float) -> Populations:
    """Propagate the populations for a time t >= 0 via the matrix exponential.

    A t past 50 slowest relaxation times (rates: roots of x^2 - T x + D, T = -tr G,
    D the sum of G's principal 2x2 minors) is taken as 50, where p is steady to
    e^-50: a larger t only overflows expm.
    """
    from scipy.linalg import expm  # imported here, so that only `evolve` loads scipy

    _check_nonnegative("t", t)
    G = rate_generator(env31, env32)
    u31, d31, u32, d32 = env31.gamma_up, env31.gamma_down, env32.gamma_up, env32.gamma_down
    T, D = u31 + d31 + u32 + d32, u31 * u32 + u31 * d32 + u32 * d31
    slowest = D / (0.5 * T + math.sqrt(max(0.25 * T * T - D, 0.0))) if D > 0.0 else T
    if slowest > 0.0:
        t = min(t, 50.0 / slowest)
    p = expm(G * t) @ initial.as_array()
    p = np.clip(p, 0.0, None)
    p /= p.sum()
    return Populations(p1=float(p[0]), p2=float(p[1]), p3=float(p[2]))


def inversion_predicate(n31: float, n32: float) -> bool:
    """True iff the steady state orders the two ground states as p2 > p1."""
    _check_nonnegative("occupations", n31, n32)
    return n32 < n31
