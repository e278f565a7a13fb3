"""Dielectric response of the body and plane-wave optics of a finite slab.

Everything is SI: angular frequencies in rad/s, lengths in m. Complex
square roots are taken on the branch with Im >= 0, so evanescent fields
decay away from the interface that binds them.

The slab is vacuum / medium / vacuum with thickness ``delta``. One
vectorized path, :func:`slab_amplitudes`, gives its (rho, tau) for both
polarizations from the interface reflection amplitude r alone, through the
exact identity t*tbar = 1 - r**2. ``_slab_kzm`` is the one k_zm formula.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .constants import c


class LosslessResonanceError(ArithmeticError):
    """Undamped oscillator evaluated exactly at its resonance frequency."""


class DegenerateModeError(ArithmeticError):
    """Vanishing Fresnel denominator (grazing or surface-mode degenerate)."""


class SlabResonanceError(ArithmeticError):
    """Guided-mode resonance of a lossless slab (vanishing denominator)."""


@dataclass(frozen=True)
class DielectricModel:
    """Single-oscillator Drude-Lorentz permittivity.

    eps(omega) = eps_inf * (omega_L**2 - omega**2 - i*gamma_damp*omega)
                         / (omega_T**2 - omega**2 - i*gamma_damp*omega)

    Parameters
    ----------
    eps_inf : float
        High-frequency permittivity, >= 1.
    omega_L : float
        Longitudinal optical frequency [rad/s].
    omega_T : float
        Transverse (resonance) frequency [rad/s], 0 < omega_T < omega_L.
    gamma_damp : float
        Phenomenological damping rate [rad/s], >= 0.
    """

    eps_inf: float
    omega_L: float
    omega_T: float
    gamma_damp: float

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        if not self.eps_inf >= 1.0:
            raise ValueError("eps_inf must be >= 1")
        # omega_L == omega_T is the zero-strength oscillator: a
        # dispersionless medium with eps identically eps_inf (vacuum for
        # eps_inf = 1), used by the empty-slab checks
        if not (self.omega_L >= self.omega_T > 0.0):
            raise ValueError("need omega_L >= omega_T > 0")
        if not self.gamma_damp >= 0.0:
            raise ValueError("gamma_damp must be >= 0")

    @property
    def dispersionless(self) -> bool:
        return self.omega_L == self.omega_T


def permittivity(model: DielectricModel, omega):
    """Drude-Lorentz permittivity at finite angular frequencies omega > 0.

    Passivity (Im eps >= 0 for omega > 0) is guaranteed by the parameter
    constraints. A lossless model evaluated exactly at omega_T has a pole
    and raises LosslessResonanceError; a NaN, infinite or non-positive
    omega raises ValueError.
    """
    omega = np.asarray(omega, dtype=float)
    if not np.all((omega > 0.0) & (omega < np.inf)):
        raise ValueError("permittivity requires finite omega > 0")
    if model.dispersionless:
        eps = np.full(omega.shape, complex(model.eps_inf))
        return complex(model.eps_inf) if omega.ndim == 0 else eps
    num = model.omega_L**2 - omega**2 - 1j * model.gamma_damp * omega
    den = model.omega_T**2 - omega**2 - 1j * model.gamma_damp * omega
    if np.any(den == 0):
        raise LosslessResonanceError("lossless resonance singularity")
    eps = model.eps_inf * num / den
    return complex(eps) if eps.ndim == 0 else eps


def surface_mode_frequency(model: DielectricModel) -> float:
    """Frequency where Re eps(omega) = -1 (surface phonon-polariton), in closed form.

    With x = omega**2/omega_T**2, l = omega_L**2/omega_T**2 and
    g = gamma_damp**2/omega_T**2, Re eps + 1 has the sign of the quadratic
    a*x**2 - b*x + c' with a = eps_inf + 1, c' = eps_inf*l + 1 and
    b = a + c' - a*g. The quadratic is a*g >= 0 at x = 1 (omega_T) and
    (l - 1)**2 + a*g*l > 0 at x = l (omega_L), so Re eps climbs back
    through -1 at the larger root x+ = (b + sqrt(disc))/(2a), and the
    surface mode is omega_T*sqrt(x+) when 1 < x+ < l. The discriminant b**2 - 4ac' is written as
    (eps_inf (l - 1))**2 + a g (a g - 2(a + c')), which does not cancel as
    gamma_damp -> 0. At gamma_damp = 0 the root is
    sqrt((eps_inf*omega_L**2 + omega_T**2)/(eps_inf + 1)). Raises
    ValueError when there is no such root: a dispersionless model, or one
    damped so strongly that Re eps stays above -1.
    """
    l, g = (model.omega_L / model.omega_T) ** 2, (model.gamma_damp / model.omega_T) ** 2
    a = model.eps_inf + 1.0
    c1 = model.eps_inf * l + 1.0
    disc = (model.eps_inf * (l - 1.0)) ** 2 + a * g * (a * g - 2.0 * (a + c1))
    x = (a + c1 - a * g + math.sqrt(disc)) / (2.0 * a) if disc > 0.0 else 0.0
    if not 1.0 < x < l:
        raise ValueError("no surface mode: Re eps = -1 has no root in (omega_T, omega_L)")
    return model.omega_T * math.sqrt(x)


def sqrt_im_nonneg(w):
    """Principal square root flipped onto the Im >= 0 branch."""
    s = np.sqrt(np.asarray(w, dtype=complex))
    return np.where(s.imag < 0.0, -s, s)


def vacuum_kz(omega, k):
    """z-wavevector in vacuum: sqrt(omega^2/c^2 - k^2), Im >= 0 branch."""
    return sqrt_im_nonneg((omega / c) ** 2 - np.asarray(k, dtype=float) ** 2)


def _slab_kzm(omega, eps, kz):
    """k_zm from (eps - 1) omega^2/c^2 + kz^2, cancellation-free at the light line."""
    return sqrt_im_nonneg((eps - 1.0) * (omega / c) ** 2 + kz * kz)


def _interface_r(eps, kz, kzm):
    """Vacuum-side reflections (r_TE, r_TM); DegenerateModeError on a zero denominator."""
    den_te, den_tm = kz + kzm, eps * kz + kzm
    # for Im eps > 0 neither vanishes at real k_z > 0 or at k_z = i kappa:
    # TE needs eps = 1, TM k_z^2 = U^2/(eps + 1) or kappa^2 = -U^2/(eps + 1),
    # all with a real eps; so a lossy medium pays one scalar comparison
    if eps.imag == 0.0 and not (den_te.all() and den_tm.all()):
        raise DegenerateModeError("vanishing interface denominator")
    return (kz - kzm) / den_te, (eps * kz - kzm) / den_tm


def loop_gain(omega: float, eps, kz, delta: float):
    """Airy loop gain max(|r_TE^2|, |r_TM^2|) |e^{2i k_zm delta}| over an array of k_z.

    One round trip inside the slab multiplies a wave by r^2 e^{2i k_zm delta};
    the slab coefficients are the geometric series in it, so their fringes
    in k have a contrast set by this gain. Same k_zm and r as
    :func:`slab_amplitudes`.
    """
    kz = np.asarray(kz)
    kzm = _slab_kzm(omega, eps, kz)
    r_te, r_tm = _interface_r(eps, kz, kzm)
    r2 = np.maximum(np.abs(r_te), np.abs(r_tm)) ** 2
    return r2 * np.exp(-2.0 * kzm.imag * delta)


def slab_amplitudes(omega: float, eps, kz, delta: float, want_tau: bool = True):
    """Vectorized slab (rho, tau) of both polarizations over an array of k_z.

    ``kz`` is supplied by the caller (real for propagative modes, i*kappa
    for evanescent ones) so integration substitutions stay cancellation-free.
    k_zm comes from (eps - 1) omega^2/c^2 + kz^2, the cancellation-free
    form of eps omega^2/c^2 - k^2 near the light line; it, e = e^{2i k_zm delta}
    (|e| <= 1 for any delta >= 0) and the tau phase are shared by TE and TM:
    rho = r (1 - e) / (1 - r^2 e), tau = t tbar e^{i(k_zm - k_z) delta} / (1 - r^2 e)
    with t tbar = 1 - r^2. Returns ``((rho_TE, rho_TM), (tau_TE, tau_TM))``.
    For evanescent incidence tau grows like exp((kappa - Im k_zm) delta) and
    is skipped with want_tau=False, which returns None in its place. A
    zero thickness is vacuum: rho = 0 and tau = 1 exactly, also near the
    light line, where 1 - r^2 vanishes. Raises ValueError unless delta is
    finite and >= 0, DegenerateModeError (see _interface_r), and
    SlabResonanceError on a guided-mode pole of a lossless slab.
    """
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and >= 0, got {delta!r}")
    kz = np.asarray(kz)
    if delta == 0.0:
        rho = tuple(np.zeros((2, *kz.shape), dtype=complex))
        return rho, (tuple(np.ones((2, *kz.shape), dtype=complex)) if want_tau else None)
    kzm = _slab_kzm(omega, eps, kz)
    e2 = np.exp(2j * kzm * delta)
    phase = np.exp(1j * (kzm - kz) * delta) if want_tau else None
    one_minus_e2 = 1.0 - e2
    rho, tau = [], []
    for r in _interface_r(eps, kz, kzm):
        r2 = r * r
        den = 1.0 - r2 * e2
        if (np.abs(den) < 1e-13).any():
            raise SlabResonanceError("slab resonance")
        # rho in r's own buffer, operands in a fixed order: numpy elides an
        # unnamed temporary in place only in large arrays, which would swap
        # the operands of the complex product and move its last bit with
        # the length of kz
        r *= one_minus_e2
        r /= den
        rho.append(r)
        if want_tau:
            tau.append((1.0 - r2) * phase / den)
    return tuple(rho), (tuple(tau) if want_tau else None)


# --- material files -------------------------------------------------------

_MATERIAL_KEYS = ("eps_inf", "omega_L", "omega_T", "gamma_damp")


def parse_key_values(text: str, keys) -> dict:
    """Raw string values of a flat ``key = value`` text.

    One pair per line, ``#`` starts a comment, blank lines are skipped.
    Raises ValueError on a line without ``=``, a key not in ``keys``,
    or a key given twice.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise ValueError(f"unknown key: {key!r}")
        if key in values:
            raise ValueError(f"duplicate key: {key!r}")
        values[key] = val.strip()
    return values


def parse_numbers(text: str, key: str, count: int | None = None) -> list:
    """Finite floats of comma-separated ``text``; a ValueError names ``key``."""
    parts = text.split(",")
    if count is not None and len(parts) != count:
        raise ValueError(f"{key}: expected {count} comma-separated value(s)")
    try:
        values = [float(x) for x in parts]
    except ValueError:
        raise ValueError(f"{key}: cannot parse {text!r}") from None
    if not all(math.isfinite(x) for x in values):
        raise ValueError(f"{key}: values must be finite")
    return values


def load_material(source: str | Path) -> DielectricModel:
    """Load a Drude-Lorentz model from a flat key/value file.

    The format is that of :func:`parse_key_values` (SI units). The name
    ``sic`` resolves to the bundled silicon carbide preset.
    """
    if isinstance(source, str) and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", source):
        text = resources.files("neqatom").joinpath(f"materials/{source.lower()}.dat").read_text()
    else:
        text = Path(source).read_text()
    values = parse_key_values(text, _MATERIAL_KEYS)
    missing = [k for k in _MATERIAL_KEYS if k not in values]
    if missing:
        raise ValueError(f"missing material keys: {', '.join(missing)}")
    return DielectricModel(**{k: parse_numbers(v, k, 1)[0] for k, v in values.items()})
