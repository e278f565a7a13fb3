"""Field-response vectors of the slab geometry and the channel weights.

``B`` collects |rho|^2 + |tau|^2 over the propagative sector, ``C`` the
interference term Re(rho e^{2i k_z z}) and ``D`` the evanescent term
Im(rho) e^{-2 Im(k_z) z}. Each is a 3-vector over dipole orientations
(xx, yy, zz), combining TE with weight (1, 1, 0) and TM with weight
(c^2/omega^2) (a, a, 2 k^2), a = |k_z|^2 for B and -k_z^2 for C and D
(``_density``). The xx and yy weights are equal, so only the (xx, zz)
columns are integrated and yy is a copy of xx. The wall/body weights are
then

    alpha_W = (1 + B + 2C)/2 . d,    alpha_M = (1 - B + 2D)/2 . d,

with d the dipole orientation weights.

What does not depend on the atom height is computed once per (frequency,
thickness, material, tolerances), in one cached slab pass (``_b_vector``):
B itself, the panel edges every height's C and D start from, and C's
density at B's nodes. B starts from the slab-phase breakpoints and a
geometric ladder toward grazing incidence (``_GRAZING_LADDER``), and C
from B's final edges (in theta), which hold both. D starts from the
evanescent slab-phase breakpoints when the slab has any; otherwise from
the final edges (in kappa) of one adaptive pass over the D density
without its height factor, which resolves the guided-mode poles near
the light line. That pass starts from a geometric ladder toward the
light line (``_LIGHT_LINE_LADDER``), whose rungs D inherits below the
floor of its own ladder. C adds the phase edges of the largest height of
a pass and D the ladder of its heights, so the seeds move where panels
start, not what each integral must meet.

A z-scan at one frequency and slab goes through ``response_vectors_many``:
it takes the slab pass, then integrates C and D in passes of several
heights, so that one slab-amplitude evaluation per node serves them all, and
B's serve C too. C keeps a pass within one decade, because its height-phase
edges grow with the largest height. D integrates the heights whose C
converged in one pass: its ladder reaches from the smallest one's cut down
past the largest one's scale, and a height whose C fails takes no part in
it. The C and D integrands return the height kernel and the height-free
density apart, and the engine contracts them panel by panel. The engine
bounds nodes x columns of every integrand call, so a pass may hold any
number of heights. A pass that fails is integrated again height by height,
for that integral only, so each failure stays with its own height.
``response_vectors`` and ``alpha_pair`` are its one-height case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import c
from .optics import (
    DielectricModel,
    _slab_kzm,
    loop_gain,
    permittivity,
    slab_amplitudes,
    vacuum_kz,
)
from .quadrature import (
    DEFAULT_SPEC,
    QuadratureResult,
    QuadratureSpec,
    QuadratureToleranceError,
    _MAX_CELLS,
    _MAX_INITIAL_PANELS,
    _adaptive,
    _theta_from_k,
    integrate_evanescent,
    integrate_oscillatory,
    integrate_propagative,
)


class PassivityError(ArithmeticError):
    """A channel weight came out negative beyond tolerance."""


class NoCrossoverError(ValueError):
    """alpha_W - alpha_M does not change sign on the given bracket."""


class PointFailure(Exception):
    """Typed ``error`` of height ``z``; ``integral`` "B", "C", "D", or None past the integrals."""

    def __init__(self, error: Exception, z: float, integral: str | None = None):
        super().__init__(error, z, integral)
        self.error, self.z, self.integral = error, float(z), integral

    def __str__(self):
        named = f" (integral {self.integral})" if self.integral else ""
        return f"{type(self.error).__name__}: {self.error}{named}"


@dataclass(frozen=True)
class GeometryPoint:
    """Atom height z above the near face of a slab of thickness delta."""

    z: float
    delta: float

    def __post_init__(self):
        if not 0.0 < self.z < math.inf:
            raise ValueError(f"z must be finite and > 0, got {self.z!r}")
        if not 0.0 <= self.delta < math.inf:
            raise ValueError(f"delta must be finite and >= 0, got {self.delta!r}")


@dataclass(frozen=True)
class ResponseVectors:
    """B, C, D 3-vectors (xx, yy, zz) plus the combined quadrature error."""

    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    error: np.ndarray


@dataclass(frozen=True)
class AlphaPair:
    """Wall and body absorptivity weights of one transition."""

    alpha_W: float
    alpha_M: float

    def __post_init__(self):
        if not (0.0 <= self.alpha_W < math.inf and 0.0 <= self.alpha_M < math.inf):
            raise ValueError("alpha weights must be finite and >= 0, got "
                             f"({self.alpha_W!r}, {self.alpha_M!r})")


@dataclass(frozen=True)
class Crossover:
    """Height z where alpha_W = alpha_M, and the AlphaPair that met the stopping rule there."""

    z: float
    pair: AlphaPair


ISOTROPIC_WEIGHTS = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

# quadrature spec of crossover_distance: tighter than its 1e-9 stopping
# threshold on the alpha difference, but above the fp floor of the K15-G7
# error estimator
_ROOT_SPEC = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-15)
# levels of crossover_distance's first pass besides the bracket ends:
# 2^levels - 1 heights evenly spaced in log z, the midpoints of that many
# bisection levels; its fallback passes take one level fewer
_ROOT_LEVELS = 4


def check_weights(w) -> tuple:
    """Orientation weights as floats: 3 entries >= 0 summing to 1 (NaN fails)."""
    w = tuple(float(x) for x in w)
    if not (len(w) == 3 and all(x >= 0.0 for x in w) and abs(sum(w) - 1.0) <= 1e-9):
        raise ValueError("orientation weights must be 3 nonnegative entries summing to 1")
    return w


def _density(omega, k, a, te, tm, jac):
    """(3c/4 omega) jac (te w_TE + tm w_TM), w_TE = (1, 0), w_TM = (c/omega)^2 (a, 2 k^2)."""
    s = (c / omega) ** 2
    g = np.empty((len(k), 2), dtype=tm.dtype)
    g[:, 0] = te + tm * (s * a)
    g[:, 1] = tm * (2.0 * s * k**2)
    g *= (0.75 * c / omega * jac)[:, None]
    return g

_XX_YY_ZZ = np.array([0, 0, 1])


def _with_yy(v):
    """(xx, zz) values as (xx, yy, zz), yy a copy of xx."""
    return v[_XX_YY_ZZ]


# Airy loop gain above which a fringe, and its two neighbours, keeps its
# eighth-period panel edges (0.001 gives the same B, C, D on the tests)
_FRINGE_GAIN = 0.01


def _slab_phase_breakpoints(omega, delta, eps, k_lo, k_hi, rel_tol, max_points=None):
    """Initial panel edges in k, an array, tracking the slab phase Re(k_zm) delta.

    Interfering reflections inside the slab make every coefficient
    oscillate in k with period pi in that phase: each is an Airy series
    in the loop gain g = |r^2 e^{2i k_zm delta}|, so a fringe is sharp
    only where g is high. Boundaries go at every full period; fringes
    whose gain (the larger of TE and TM) exceeds _FRINGE_GAIN, and their
    two neighbours, also keep the eighth-period points. Fringes whose
    round-trip amplitude exp(-2 Im(k_zm) delta) is below
    t = max(1e-18, 0.01 rel_tol) cannot disturb the requested tolerance
    and get no edge, bar one period of margin: with k_zm = a + ib,
    2ab = Im(eps) omega^2/c^2 is fixed and a^2 - b^2 falls with k, so b
    rises with k and reaches ln(1/t)/(2 delta) at one a^2 - b^2, in
    closed form. When it does so at k_lo, no gain is computed.

    ``max_points`` is the initial panel budget of an integral that takes
    every point as an edge: when the full periods kept alone exceed it,
    the ValueError of that budget is raised before any array is built.
    """
    if delta <= 0.0:
        return np.zeros(0)
    kzm_lo = complex(_slab_kzm(omega, eps, vacuum_kz(omega, k_lo)))
    amplitude = math.exp(-2.0 * min(kzm_lo.imag * delta, 700.0))
    t = max(1e-18, 0.01 * rel_tol)
    if amplitude < t:
        return np.zeros(0)
    phase_lo = kzm_lo.real * delta
    phase_hi = complex(_slab_kzm(omega, eps, vacuum_kz(omega, k_hi))).real * delta
    q = 0.125 * math.pi
    # invert Re(k_zm) ~ sqrt(Re(eps) omega^2/c^2 - k^2); exactness is not
    # required, the points only seed panel boundaries. Indices whose k
    # falls outside (k_lo, k_hi) are dropped, so the range is cut to
    # those that can fall inside, one index wider against rounding
    k_top_sq = eps.real * (omega / c) ** 2
    # the index phase m q is delta sqrt(a^2 - b^2), and the amplitude is t
    # at index phase `live`: edges stop one period below it
    b_t = -math.log(t) / (2.0 * delta)
    a_t = eps.imag * (omega / c) ** 2 / (2.0 * b_t)
    live = delta * math.sqrt(max(a_t - b_t, 0.0) * (a_t + b_t))
    m_lo = max(int(math.ceil(min(phase_lo, phase_hi) / q)),
               int(math.sqrt(max(k_top_sq - k_hi**2, 0.0)) * delta / q) - 1,
               int(math.ceil((live - math.pi) / q)))
    m_hi = min(int(math.floor(max(phase_lo, phase_hi) / q)),
               int(math.ceil(math.sqrt(max(k_top_sq - k_lo**2, 0.0)) * delta / q)) + 1)
    if m_hi < m_lo:
        return np.zeros(0)
    # all but a few of the full periods counted here are points: the
    # widening, and points that round onto k_lo or k_hi, lose the rest
    if max_points is not None and (m_hi - m_lo) // 8 > max_points + 8:
        raise ValueError("initial panel budget exceeded")
    m = np.arange(m_lo, m_hi + 1)
    k_sq = k_top_sq - (m * q / delta) ** 2
    k_pts = np.sqrt(np.maximum(k_sq, 0.0))
    inside = (k_pts > k_lo) & (k_pts < k_hi)
    m, k_pts = m[inside], k_pts[inside]
    if not len(m):
        return k_pts
    # fringe j runs over the eighth-period points 8j .. 8j+8; the gain
    # varies slowly across a fringe, so it is sampled at the full periods
    # and at the two points nearest the ends of (k_lo, k_hi)
    full = m % 8 == 0
    sampled = full.copy()
    sampled[[0, -1]] = True
    j0 = m[0] // 8
    n_fringes = m[-1] // 8 - j0 + 1
    g = np.zeros(8 * n_fringes + 1)
    g[m[sampled] - 8 * j0] = loop_gain(omega, eps, vacuum_kz(omega, k_pts[sampled]), delta)
    fringe_gain = np.maximum(g[:-1].reshape(n_fringes, 8).max(axis=1), g[8::8])
    hot = np.convolve(fringe_gain > _FRINGE_GAIN, np.ones(3), mode="same") > 0
    return k_pts[full | hot[m // 8 - j0]]


# B's initial edges toward grazing incidence, theta_j = (pi/2)(1 - 2^-j) for
# j = 1 .. 8. From one panel B bisects toward grazing, one split per round
# (1-8 rounds on the resonant slabs of a thermal track); the rungs put
# those edges in up front, and C inherits them through B's final edges
_GRAZING_RUNGS = 8
_GRAZING_LADDER = 0.5 * math.pi * (1.0 - 0.5 ** np.arange(1, _GRAZING_RUNGS + 1))

# The kappa-seed pass's initial edges toward the light line kappa = 0, as
# fractions 2^-j of the top of its band for j = 1 .. 11. From one panel
# the pass bisects toward the light line, one round a halving (up to 22
# rounds on the benchmark's slabs); 11 is the fewest rungs past which
# those rounds stop falling, and D inherits the rungs through the seeds
_LIGHT_LINE_RUNGS = 11
_LIGHT_LINE_LADDER = 0.5 ** np.arange(_LIGHT_LINE_RUNGS, 0, -1)


@dataclass(frozen=True)
class _SlabPass:
    """The height-free integrals of one (frequency, thickness, material, spec).

    ``eps`` is the permittivity, formed once for B, C and D, and ``B`` the B result
    (columns xx, zz). Every height's C starts from its final edges ``B.edges``, in theta:
    the slab-phase breakpoints of the propagative sector, the grazing ladder and B's
    refinement. ``kappa_seeds`` are the initial edges every pass of D adds to its ladder,
    in kappa, or None for a real permittivity (D = 0). ``c_density``: (kz, k, C's g) at
    the nodes of B's calls that fit _MAX_CELLS / 2 nodes, by middle kz; None if none fit.
    """

    eps: complex
    B: QuadratureResult
    kappa_seeds: np.ndarray | None
    c_density: tuple | None = None


def _d_density(omega, eps, delta, k, kappa, jac):
    """``_density`` of Im rho, a = kappa^2, at k = sqrt(kappa^2 + omega^2/c^2)."""
    (rho_te, rho_tm), _ = slab_amplitudes(omega, eps, 1j * kappa, delta, want_tau=False)
    return _density(omega, k, kappa**2, rho_te.imag, rho_tm.imag, jac)


def _kappa_seeds(omega, eps, delta, spec):
    """Initial D edges in kappa that no ladder provides.

    The slab-phase breakpoints of the evanescent sector up to the band
    k_osc where the slab oscillates, when there are any. Otherwise the
    final edges of one adaptive pass over that band of the D density
    without its height factor e^{-2 kappa z}: it resolves the guided-mode
    poles near the light line once, where each height would refine them
    again. The pass starts from the light-line ladder kappa_top 2^-j
    (``_LIGHT_LINE_LADDER``), kappa_top the top of the band, so it does
    not bisect its way down to kappa = 0 one round a halving, and every
    rung is among the seeds. A pass that misses the tolerance still
    seeds, from its best panels.
    """
    U = omega / c
    k_osc = U * math.sqrt(max(eps.real, 1.0)) + U
    bk = _slab_phase_breakpoints(omega, delta, eps, U, k_osc, spec.rel_tol)
    if len(bk):
        return np.sqrt(bk**2 - U**2)

    def density(kappa):
        return _d_density(omega, eps, delta, np.hypot(kappa, U), kappa, np.ones_like(kappa))

    kappa_top = math.sqrt(k_osc**2 - U**2)
    edges = np.concatenate(([0.0], kappa_top * _LIGHT_LINE_LADDER, [kappa_top]))
    try:
        res = _adaptive(density, edges, spec)
    except QuadratureToleranceError as exc:
        res = exc.best
    return res.edges


@lru_cache(maxsize=8)  # tables of at most 2^19 nodes x 48 B: 192 MiB in all
def _b_vector(omega: float, delta: float, model: DielectricModel,
              spec: QuadratureSpec) -> _SlabPass:
    """B, the C and D seed edges and C's density of one (omega, delta), shared by every height."""
    eps = permittivity(model, omega)
    kept = []  # (kz, k, C's density) at B's nodes, each call that fits _MAX_CELLS / 2 nodes

    def integrand(k, kz):
        (rho_te, rho_tm), (tau_te, tau_tm) = slab_amplitudes(omega, eps, kz, delta)
        if 2 * (len(kz) + sum(len(nodes[0]) for nodes in kept)) <= _MAX_CELLS:
            kept.append((kz, k, _density(omega, k, -kz**2, rho_te, rho_tm, k / kz)))
        return _density(omega, k, kz**2, np.abs(rho_te) ** 2 + np.abs(tau_te) ** 2,
                        np.abs(rho_tm) ** 2 + np.abs(tau_tm) ** 2, k / kz)

    # B takes every breakpoint as an initial edge; D's seeds are clipped
    # at each height's cut, so only B's count is bounded up front
    bk = _slab_phase_breakpoints(omega, delta, eps, 0.0, omega / c, spec.rel_tol,
                                 max_points=_MAX_INITIAL_PANELS)
    seeds = np.concatenate((_theta_from_k(bk, omega), _GRAZING_LADDER))
    b_res = integrate_propagative(integrand, omega, spec, _seeds=seeds)
    table = None
    if kept:  # the kept panels, by their middle node's kz
        kz, k, g = (np.concatenate(column) for column in zip(*kept))
        order = np.argsort(kz[7::15])
        table = kz.reshape(-1, 15)[order], k.reshape(-1, 15)[order], g.reshape(-1, 15, 2)[order]
    kappa = None if eps.imag == 0.0 else _kappa_seeds(omega, eps, delta, spec)
    return _SlabPass(eps=eps, B=b_res, kappa_seeds=kappa, c_density=table)


# failures recorded against the height (or scan point) they belong to
_POINT_ERRORS = (ArithmeticError, RuntimeError, ValueError)


def _c_passes(z):
    """Slices of the ascending heights ``z`` that share a C pass.

    C keeps its heights within a decade: its height-phase edges grow with
    the largest height, so a wider pass costs more columns on more nodes.
    The log-span of ``z`` is cut into the fewest equal parts of at most one
    decade each (a grid from 1e-8 to 1e-6 makes two: decades counted from
    floor(log10 z) would give its end point a part of its own), and a pass
    is one part.
    """
    # decades as a difference of logs: the ratio of the heights can overflow
    decades = np.log10(z) - math.log10(z[0])
    span = decades[-1]
    # a span a rounding error above a whole number of decades is that number
    parts = max(1, math.ceil(span - 1e-9))
    if parts == 1:
        return [slice(0, len(z))]
    part = np.minimum((decades * (parts / span)).astype(int), parts - 1)
    bounds = [0, *(np.flatnonzero(np.diff(part)) + 1).tolist(), len(z)]
    return [slice(start, stop) for start, stop in zip(bounds[:-1], bounds[1:])]


def response_vectors_many(omega: float, z_values, delta: float, model: DielectricModel,
                          spec: QuadratureSpec = DEFAULT_SPEC) -> list:
    """B, C and D at every height of one frequency and slab, on shared nodes.

    ``z_values`` are heights > 0 in strictly increasing order. Returns one
    entry per height: its :class:`ResponseVectors`, or the PointFailure of
    the error (ArithmeticError, RuntimeError, ValueError) it raised.
    B and the seed edges of C and D are computed once. C integrates its
    heights in passes of at most a decade (see _c_passes), D the heights
    whose C converged in one pass: one integrand call serves the C (or D)
    columns of all of a pass's heights, each held to its own tolerance,
    and the engine keeps every call within its cap on nodes x columns. A
    pass that fails is integrated again one height at a time, for that
    integral only, so a failure lands on the height that causes it. A
    height whose C fails reports C's error and takes no part in D, so it
    sets no D edge of its neighbours; a height whose D fails reports D's.
    A failing slab pass (eps, B and D's seed edges) gives every height its
    own PointFailure of the one error, its ``integral`` "B" (else "C" or "D").

    For a real permittivity (``Im eps == 0``, a lossless model) D is zero
    and is not integrated: rho is real away from the guided-mode poles of
    the slab, and the delta-function terms of those poles are left out.
    """
    if not 0.0 < omega < math.inf:
        raise ValueError(f"omega must be finite and > 0, got {omega!r}")
    z = np.atleast_1d(np.asarray(z_values, dtype=float))
    if z.ndim != 1 or z.size == 0 or not (np.all(z > 0.0) and np.all(np.diff(z) > 0.0)):
        raise ValueError("heights must be > 0 and strictly increasing")
    if not z[-1] < np.inf:  # increasing: only the last height can be infinite
        raise ValueError(f"heights must be finite, got {float(z[-1])!r}")
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and >= 0, got {delta!r}")
    try:
        slab = _b_vector(omega, delta, model, spec)
    except _POINT_ERRORS as exc:
        return [PointFailure(exc, h, "B") for h in z]

    args = (omega, delta, slab, spec)
    c_rows = [row for p in _c_passes(z) for row in _pass_rows(_c_pass, "C", z[p], *args)]
    # a height whose C failed reports C's error and takes no part in D
    c_ok = np.array([not isinstance(row, PointFailure) for row in c_rows])
    d_rows = iter(_pass_rows(_d_pass, "D", z[c_ok], *args) if c_ok.any() else [])
    B = _with_yy(slab.B.value)
    out = []
    for c_row in c_rows:
        d_row = c_row if isinstance(c_row, PointFailure) else next(d_rows)
        if isinstance(d_row, PointFailure):
            out.append(d_row)
            continue
        (C, c_err), (D, d_err) = c_row, d_row
        out.append(ResponseVectors(B=B, C=_with_yy(C), D=_with_yy(D),
                                   error=_with_yy(slab.B.error_estimate + c_err + d_err)))
    return out


def _pass_rows(integrate, integral, z, omega, delta, slab, spec):
    """(value, error) row, or PointFailure, of each height ``z`` in one pass, a failing
    pass retried height by height. Not a closure: that would be a reference cycle."""
    try:
        res = integrate(omega, z, delta, slab, spec)
    except _POINT_ERRORS as exc:
        if len(z) == 1:
            return [PointFailure(exc, z[0], integral)]
        return [row for h in z[:, None]
                for row in _pass_rows(integrate, integral, h, omega, delta, slab, spec)]
    return list(zip(res.value.reshape(len(z), 2), res.error_estimate.reshape(len(z), 2)))


def _c_pass(omega, z, delta, slab, spec):
    """C of the heights ``z`` (array), columns (xx, zz) height by height.

    It starts from B's final edges in ``slab``, the :class:`_SlabPass` of
    (omega, delta). The integrand returns a pair: the height kernel
    e^{2i kz z}, complex (node, height), and the height-free density
    g = (3c/4 omega)(k/kz)(rho_TE w_TE + rho_TM w_TM), w_TM =
    (c/omega)^2 (-kz^2, 2 k^2), complex (node, orientation), formed once
    per node: at a node of B, read from the slab's table. The engine
    contracts Re(kernel ⊗ g) panel by panel.
    """
    with np.errstate(over="ignore"):  # inf only past the engine's phase-panel budget
        two_z = 2.0 * z

    def density(k, kz):
        (rho_te, rho_tm), _ = slab_amplitudes(omega, slab.eps, kz, delta, want_tau=False)
        return _density(omega, k, -kz**2, rho_te, rho_tm, k / kz)

    # the integrand runs once per split round: kz is real on the propagative
    # sector, so the kernel is one cos and one sin per (node, height)
    def integrand(k, kz):
        phase = np.multiply.outer(kz, two_z)
        kernel = np.empty(phase.shape, dtype=complex)
        np.cos(phase, out=kernel.real)
        np.sin(phase, out=kernel.imag)
        if slab.c_density is None:
            return kernel, density(k, kz)
        # calls hold whole panels of 15 nodes: one of B's, at the same (kz, k), reads the table
        table_kz, table_k, table_g = slab.c_density
        i = np.minimum(np.searchsorted(table_kz[:, 7], kz[7::15]), len(table_kz) - 1)
        new = (table_kz[i] != kz.reshape(-1, 15)) | (table_k[i] != k.reshape(-1, 15))
        new = np.repeat(new.any(axis=1), 15)
        if new.all():
            return kernel, density(k, kz)
        g = table_g[i].reshape(-1, 2)
        if new.any():
            g[new] = density(k[new], kz[new])
        return kernel, g

    return integrate_oscillatory(integrand, omega, z, spec, _seeds=slab.B.edges)


def _d_pass(omega, z, delta, slab, spec):
    """D of the heights ``z`` (array), columns (xx, zz) height by height.

    It starts from the kappa seeds of ``slab``. The integrand returns a
    pair: the height kernel e^{-2 kappa z} (node, height) and the
    height-free density (3c/4 omega)(k/kappa) Im(rho) . w, w_TM =
    (c/omega)^2 (kappa^2, 2 k^2) (node, orientation), formed once per
    node. For a real permittivity rho is real off the guided-mode poles,
    so Im rho = 0 and D is zero; the poles' delta-function terms are left
    out.
    """
    if slab.kappa_seeds is None:
        zero = np.zeros(2 * len(z))
        return QuadratureResult(value=zero, error_estimate=zero, evaluations=0)
    minus_two_z = -2.0 * z

    def integrand(k, kappa):
        return (np.exp(np.multiply.outer(kappa, minus_two_z)),
                _d_density(omega, slab.eps, delta, k, kappa, k / kappa))

    return integrate_evanescent(integrand, omega, z, spec, _seeds=slab.kappa_seeds)


def response_vectors(omega: float, geom: GeometryPoint, model: DielectricModel,
                     spec: QuadratureSpec = DEFAULT_SPEC) -> ResponseVectors:
    """Evaluate B, C and D for one frequency and geometry.

    The one-height case of :func:`response_vectors_many`; a failure raises.
    """
    (rv,) = response_vectors_many(omega, [geom.z], geom.delta, model, spec)
    if isinstance(rv, PointFailure):
        raise rv.error
    return rv


def alpha_pair(omega: float, geom: GeometryPoint, model: DielectricModel,
               dipole_weights=ISOTROPIC_WEIGHTS,
               spec: QuadratureSpec = DEFAULT_SPEC, *, vectors=None) -> AlphaPair:
    """Wall/body weights alpha_W, alpha_M for one transition frequency.

    ``dipole_weights`` are the squared orientation fractions of the
    transition dipole, nonnegative and summing to 1 (isotropic default).
    ``vectors`` are the point's :class:`ResponseVectors` when they are
    already integrated (by :func:`response_vectors_many`); otherwise they
    are integrated here.
    """
    d = np.asarray(check_weights(dipole_weights))
    rv = response_vectors(omega, geom, model, spec) if vectors is None else vectors
    a_w = float(0.5 * (1.0 + rv.B + 2.0 * rv.C) @ d)
    a_m = float(0.5 * (1.0 - rv.B + 2.0 * rv.D) @ d)
    tol = float(max(1e-10, 10.0 * (rv.error @ d)))
    if a_w < -tol or a_m < -tol:
        raise PassivityError("passivity violation")
    return AlphaPair(alpha_W=max(a_w, 0.0), alpha_M=max(a_m, 0.0))


def pair_at(omega: float, z: float, delta: float, model: DielectricModel, weights, entry):
    """The AlphaPair at ``z`` from its response_vectors_many ``entry``, or its PointFailure."""
    if isinstance(entry, PointFailure):
        return entry
    try:
        return alpha_pair(omega, GeometryPoint(z=z, delta=delta), model, weights, vectors=entry)
    except _POINT_ERRORS as exc:
        return PointFailure(exc, z)


def _inverse_root(points):
    """t at g = 0 of the inverse Lagrange interpolant t(g) through the (t, g) ``points``.

    The g must be distinct. Each t enters relative to the first point's,
    so rounding scales with the points' spread in t, not with t.
    """
    t0 = points[0][0]
    return t0 + sum((t - t0) * math.prod(gj / (gj - g) for j, (_, gj) in enumerate(points)
                                         if j != i)
                    for i, (t, g) in enumerate(points))


def _inverse_step(points, t_lo, t_hi):
    """t* and its two flanks, the log heights of an interpolation pass, or None.

    t* is the value at g = 0 of the inverse cubic t(g) through the four
    (t, g) ``points`` nearest the bracket (t_lo, t_hi), e its distance to
    that of the inverse quadratic through the nearest three, and the
    flanks t* -+ 4e are cut at half-way to the bracket ends. None when two
    of the four g are equal or exp(t*) is not strictly inside the bracket.
    """
    near = sorted(points, key=lambda p: max(t_lo - p[0], p[0] - t_hi))[:4]
    if len({g for _, g in near}) < 4:
        return None
    t_star = _inverse_root(near)
    # the test in t first: far outside the bracket, exp(t*) can overflow
    if not (t_lo < t_star < t_hi and math.exp(t_lo) < math.exp(t_star) < math.exp(t_hi)):
        return None
    e = 4.0 * abs(t_star - _inverse_root(near[:3]))
    return [t_star, max(t_star - e, 0.5 * (t_lo + t_star)), min(t_star + e, 0.5 * (t_star + t_hi))]


def crossover_distance(omega: float, delta: float, model: DielectricModel,
                       bracket, dipole_weights=ISOTROPIC_WEIGHTS) -> Crossover:
    """Height z* where alpha_W = alpha_M, by bracketed interpolation on t = log z.

    ``bracket`` is (z_lo, z_hi) with a sign change of alpha_W - alpha_M.
    Returns z* and the alpha pair that met |alpha_W - alpha_M| < 1e-9
    (alpha_W + alpha_M) there, or the bracket's midpoint at floating-point
    width. Each pass is one :func:`response_vectors_many` call at
    ``_ROOT_SPEC``: first the bracket ends and 2^``_ROOT_LEVELS`` - 1
    heights evenly spaced in t, then t* and its flanks (``_inverse_step``)
    or evenly spaced heights, which narrow the bracket in ascending z until
    one meets that rule. A failing bracket end raises its PointFailure, as
    does a pass whose every height fails (the lowest's); others are dropped.
    """
    z_lo, z_hi = bracket
    if not (0.0 < z_lo < z_hi):
        raise ValueError("bracket must satisfy 0 < z_lo < z_hi")
    if not z_hi < math.inf:
        raise ValueError(f"heights must be finite, got {float(z_hi)!r}")
    dipole_weights = check_weights(dipole_weights)

    def visit(zs):
        # the Crossover, or the PointFailure, of each height of one pass, in turn
        for z, entry in zip(zs, response_vectors_many(omega, zs, delta, model, _ROOT_SPEC)):
            pair = pair_at(omega, z, delta, model, dipole_weights, entry)
            yield pair if isinstance(pair, PointFailure) else Crossover(z, pair)

    t_lo, t_hi = math.log(z_lo), math.log(z_hi)
    ts = np.linspace(t_lo, t_hi, 2**_ROOT_LEVELS + 1)[1:-1].tolist()
    heights = {math.exp(t): t for t in ts if z_lo < math.exp(t) < z_hi}  # each float once
    lo, *passed, hi = visit([z_lo, *sorted(heights), z_hi])
    for end in (lo, hi):
        if isinstance(end, PointFailure):
            raise end
    g_lo, g_hi = (end.pair.alpha_W - end.pair.alpha_M for end in (lo, hi))
    if g_lo == 0.0 or g_hi == 0.0:
        return lo if g_lo == 0.0 else hi
    if g_lo * g_hi > 0.0:
        raise NoCrossoverError("no crossover in bracket")
    points = [(t_lo, g_lo), (t_hi, g_hi)]  # (t, g) of every height that converged

    for n in range(200):
        if not heights:  # the bracket is at floating-point width
            break
        width, narrowed, failure = t_hi - t_lo, False, None
        for found in visit(sorted(heights)) if n else passed:
            if isinstance(found, PointFailure):
                failure = failure or found
                continue
            t, g = heights[found.z], found.pair.alpha_W - found.pair.alpha_M
            points.append((t, g))
            if t_lo < t < t_hi:
                if abs(g) < 1e-9 * (found.pair.alpha_W + found.pair.alpha_M):
                    return found
                t_lo, g_lo, t_hi = (t_lo, g_lo, t) if g_lo * g < 0.0 else (t, g, t_hi)
                narrowed = True
        if not narrowed:  # every height failed
            raise failure
        ts = (t_hi - t_lo <= 0.5 * width and _inverse_step(points, t_lo, t_hi)
              or np.linspace(t_lo, t_hi, 2**(_ROOT_LEVELS - 1) + 1)[1:-1].tolist())
        heights = {math.exp(t): t for t in ts if math.exp(t_lo) < math.exp(t) < math.exp(t_hi)}
    (found,) = visit([math.exp(0.5 * (t_lo + t_hi))])
    if isinstance(found, PointFailure):
        raise found
    return found
