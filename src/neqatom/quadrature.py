"""Adaptive 1-D integration engines for the slab-response integrals.

Three integral classes show up when integrating over transverse
wavenumber k at fixed frequency:

* smooth finite-interval over the propagative sector 0 <= k <= omega/c,
  with an integrable 1/k_z endpoint singularity,
* the same sector with an oscillatory factor exp(2i k_z z),
* exponentially damped semi-infinite over the evanescent sector k > omega/c.

All engines integrate a k-space density ``f(k, aux)`` where ``aux`` is
k_z (propagative, real) or kappa = Im k_z (evanescent). The density is
an array ``(N, m)`` (or ``(N,)``, one column), or a pair
``(kernel, g)``: a height kernel ``(N, n_z)``, real or complex, and a
height-free density ``(N, p)``, whose value is Re(kernel ⊗ g), ``(N,
n_z * p)`` height-major. The engines apply their Jacobian to g, and
contract a kernel of _BATCHED_HEIGHTS heights or more panel by panel
against g with the Kronrod and Gauss weights folded in, so the product
of the two is never formed; an array is the unit-kernel case of that
contraction (``_panel_sums``).

The endpoint singularity and the infinite domain are removed by
substitution: k = (omega/c) sin(theta) on the propagative sector and
kappa as the variable on the evanescent one. Nested Gauss-Kronrod (G7,
K15) rule pairs give the per-panel error estimate; on failure the worst
panels are bisected in rounds.
Panels never evaluate interval endpoints, so 1/k_z densities are safe.
An integrand that returns NaN or infinity raises NonFiniteIntegrandError
naming the node, and so do finite panels whose sum overflows; neither
passes as converged.

Panels live in preallocated arrays (edges, K15 values, error estimates)
with one row per panel: a split overwrites the parent's row with its left
half and appends the right half, so ``initial + max_subdivisions`` rows
always suffice. Each round bisects the worst panels, by largest error
component with ties to the lower row, until the error left in the others
would meet the tolerance in every column or the budget is spent (the
multi-region rule of S. G. Johnson's ``hcubature``), so an integral that
needs many splits makes few calls. A partial sort and one cumulative sum
pick them, with no numpy call per panel. Left halves keep their rows and
right halves are appended in that order. A failing integral spends the
whole budget unless every panel reaches floating-point width first.

No integrand call holds more than ``_MAX_CELLS`` nodes x columns (a
pair's columns counted as n_z * p): the initial panels and a round's
halves go to the integrand in as many calls as that takes, written
straight into the panel rows, so the working set is bounded whatever the
number of panels or heights.

The oscillatory and evanescent engines also take an ascending array of
heights, integrated together on shared nodes: the integrand returns the
columns of every height side by side, ``(N, m * n_z)`` or a pair, and
each column keeps its own tolerance. The largest height sets the
height-phase edges and the floor of the evanescent ladder; the smallest
sets the evanescent cut, where that ladder starts, and the tail bound of
every column.
With one height both engines reproduce the single-height edges and
arithmetic bit for bit. The initial pass is sized for three columns per
height, as the integrand's width is not yet known; the slab response's C
and D return two (xx, zz), so those calls fill at most two thirds of the cap.
Later calls are sized for the actual width.

A result carries its final panel edges, sorted, in the engine's own
variable, also on failure (``QuadratureToleranceError.best``). Every
engine takes initial edges in that variable too, through ``_seeds``, its
one edge input: near grazing incidence and near the light line a round
trip through k rounds neighbouring edges together.

Everything is deterministic: fixed node sets and a fixed choice of splits.
The returned value and error are sequential sums over the panel rows in
ascending panel order (the error seeded with the constant error floor),
carried across row blocks of at most ``_MAX_CELLS`` cells, so they are
reproducible bit for bit and do not depend on the order in which panels
were split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import c

# Gauss-Kronrod 7-15 nodes and weights on [-1, 1] (QUADPACK values).
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))          # 15 ascending
_K15_W = np.concatenate((_WGK[:-1], _WGK[::-1]))
_G7_W = np.zeros(15)
_G7_W[1:14:2] = np.concatenate((_WG[:-1], _WG[::-1]))       # Gauss points interleaved
_WEIGHTS = np.stack((_K15_W, _G7_W))                        # (2, 15)

_MAX_INITIAL_PANELS = 1 << 17

# nodes x columns of one integrand call at most: it bounds the working set
# of an integrand, whatever the number of panels or heights
_MAX_CELLS = 1 << 20

# Height-phase edges per period pi/z of exp(2i k_z z) in k_z. On one
# panel of a quarter period the bare phase factor's |K15 - G7| is 3.4e-15
# of its integral (3.6e-15 at an eighth, 9.0e-13 at a half): the estimate
# stays at roundoff with half the panels of an eighth
_PHASE_EDGES_PER_PERIOD = 4

# Kernel width (heights) from which a (kernel, g) pair is contracted panel
# by panel rather than as its columns. Per call on 20-300 panels the
# batched form wins from about 2-4 real heights and 4-6 complex ones, and
# is 2-3x slower at one height (a root search), where the per-panel
# matmul overhead outweighs forming 2 columns
_BATCHED_HEIGHTS = 4

# Evanescent upper cut: damping factor below 1e-14 of its peak.
_EVANESCENT_CUT = 0.5 * math.log(1e14)

# rel_tol below which the evanescent ladder gets a rung at 0.75 kappa_max:
# with x = kappa z, one panel over the top octave [cut/2, cut] leaves a
# |K15 - G7| of 7.1e-12, 5.8e-11, 2.0e-10 and 2.7e-10 of the whole
# integral p!/2^(p+1) of a density x^p e^{-2x}, p = 0...3
_TOP_OCTAVE_ERROR = max(_EVANESCENT_CUT / 4 * 2 ** (p + 1) / math.factorial(p)
                        * abs((_WEIGHTS[0] - _WEIGHTS[1]) @ (x**p * np.exp(-2.0 * x)))
                        for x in [_EVANESCENT_CUT * (0.75 + _NODES / 4)] for p in range(4))


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision budget for one integral."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-14
    max_subdivisions: int = 2000

    def __post_init__(self):
        # an infinite tolerance would accept every initial estimate, and a
        # non-integer budget would fail later, inside the engine
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and > 0, got {self.rel_tol!r}")
        if not 0.0 <= self.abs_tol < math.inf:
            raise ValueError(f"abs_tol must be finite and >= 0, got {self.abs_tol!r}")
        if not (isinstance(self.max_subdivisions, (int, np.integer))
                and self.max_subdivisions >= 1):
            raise ValueError(f"max_subdivisions must be an integer >= 1, "
                             f"got {self.max_subdivisions!r}")


DEFAULT_SPEC = QuadratureSpec()


@dataclass
class QuadratureResult:
    """Value and error estimate of one integral, with its panel counts.

    ``edges`` are the final panel edges, ascending, in the engine's own
    variable (theta on the propagative sector, kappa on the evanescent
    one); a later integral over the same sector can start from them. The
    defaults describe an integral that was not run (D = 0 on a lossless
    slab): no panels, nothing split, converged.
    """

    value: np.ndarray
    error_estimate: np.ndarray
    evaluations: int
    splits: int = 0            # panels bisected after the initial pass
    rounds: int = 0            # integrand calls after the initial pass
    initial_panels: int = 0    # panels of the initial pass
    converged: bool = True     # False on QuadratureToleranceError.best
    edges: np.ndarray | None = None


class NonFiniteIntegrandError(ArithmeticError):
    """The integrand returned NaN or infinity; ``node`` is where it did."""

    def __init__(self, node: float):
        super().__init__(f"integrand not finite at node {node!r}")
        self.node = node


class QuadratureToleranceError(RuntimeError):
    """Tolerance not met within the subdivision budget; carries best estimate."""

    def __init__(self, message: str, best: QuadratureResult):
        super().__init__(message)
        self.best = best


def _columns(y):
    """An integrand's value as its (N, m) float columns.

    A (kernel, g) pair gives Re(kernel ⊗ g), height-major: column
    j * p + i is Re(kernel[:, j] g[:, i]). An array of one column may be 1-D.
    """
    if isinstance(y, tuple):
        kernel, g = y
        return (kernel[:, :, None] * g[:, None, :]).real.reshape(len(g), -1)
    y = np.asarray(y, dtype=float)
    return y[:, None] if y.ndim == 1 else y


def _scaled(y, jac):
    """An integrand's value times the Jacobian ``jac`` (N,): g of a pair, else every column."""
    if isinstance(y, tuple):
        kernel, g = y
        return kernel, g * jac[:, None]
    return _columns(y) * jac[:, None]


def _panel_sums(y, n):
    """Unscaled K15 and G7 sums, (n, m) each, of an integrand's value on n panels.

    The one contraction of the engine. A pair whose kernel holds at least
    _BATCHED_HEIGHTS heights is contracted panel by panel: the weights are
    folded into g, and each panel's 15 x heights kernel meets its 15 x 2p
    weighted g in one batched ``matmul``, so Re(kernel ⊗ g) is never
    formed. A narrower pair, or an array (the unit kernel), is contracted
    as its columns, against both weight rows at once.
    """
    if isinstance(y, tuple) and y[0].shape[1] >= _BATCHED_HEIGHTS:
        kernel, g = y
        h, p = kernel.shape[1], g.shape[1]
        # (2, p, N), node axis last: per panel a (15, 2p) matrix
        gw = g.T[None, :, :] * np.tile(_WEIGHTS, n)[:, None, :]
        gw = gw.reshape(2 * p, n, 15).transpose(1, 2, 0)
        s = np.matmul(kernel.reshape(n, 15, h).transpose(0, 2, 1), gw).real.reshape(n, h, 2, p)
        return s[:, :, 0].reshape(n, h * p), s[:, :, 1].reshape(n, h * p)
    s = np.matmul(_WEIGHTS, _columns(y).reshape(n, 15, -1))
    return s[:, 0], s[:, 1]


def _eval_panels(F, a, b):
    """K15 values and |K15 - G7| error estimates for a batch of panels.

    A panel too narrow for distinct nodes gets an error of at least |K15|.
    Raises NonFiniteIntegrandError if any panel value or error is not
    finite, naming the first node where the integrand (a kernel or g of
    a pair) is not. A finite |K15 - G7| implies finite K15 and G7, so one
    check covers both.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * _NODES[None, :]
    y = F(x.reshape(-1))
    if not isinstance(y, tuple):
        y = _columns(y)
    # a sum that overflows (inf - inf is NaN) is raised below, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        k15, g7 = (s * half[:, None] for s in _panel_sums(y, len(a)))
        err = np.abs(k15 - g7)
    if not np.isfinite(err).all():
        parts = y if isinstance(y, tuple) else (y,)
        bad = ~np.logical_and.reduce([np.isfinite(f).all(axis=1) for f in parts])
        bad = bad.reshape(len(a), 15)
        # finite samples can still overflow a panel sum: name its midpoint
        node = x[bad][0] if bad.any() else mid[~np.isfinite(err).all(axis=1)][0]
        raise NonFiniteIntegrandError(float(node))
    # a panel whose outermost node gap, its smallest, is within two float
    # spacings can have nodes that round onto each other: |K15 - G7| is then
    # roundoff, not error, so its error is at least |K15|
    narrow = half * (_NODES[-1] - _NODES[-2]) <= 2.0 * np.spacing(np.abs(mid))
    if narrow.any():
        err[narrow] = np.maximum(err[narrow], np.abs(k15[narrow]))
    return k15, err


def _adaptive(F, edges, spec, extra_error=None, _heights=1):
    """Adaptive panel integration of F over [edges[0], edges[-1]].

    ``edges`` supplies the initial panel boundaries (>= 2, ascending).
    ``extra_error`` is a constant error floor (e.g. a truncation tail)
    that subdivision cannot reduce but that counts towards the tolerance.
    ``_heights`` is the number of heights whose columns F returns side by
    side; it sizes the calls of the initial pass.
    """
    edges = np.asarray(edges, dtype=float)
    n = len(edges) - 1
    if n > _MAX_INITIAL_PANELS:
        raise ValueError("initial panel budget exceeded")
    rows = n + spec.max_subdivisions      # a split adds exactly one row
    a, b = np.empty(rows), np.empty(rows)
    a[:n], b[:n] = edges[:-1], edges[1:]
    vals = errs = worst = None            # worst: a row's largest error component

    def evaluate(lo, hi, dest):
        # panels (lo, hi) into rows ``dest``, in calls of at most _MAX_CELLS
        # node-columns: three columns per height until F's width is known
        nonlocal vals, errs, worst
        step = max(1, _MAX_CELLS // (15 * (3 * _heights if vals is None else vals.shape[1])))
        for s in range(0, len(lo), step):
            v, e = _eval_panels(F, lo[s:s + step], hi[s:s + step])
            if vals is None:
                (vals, errs), worst = np.empty((2, rows, v.shape[1])), np.empty(rows)
            d = dest[s:s + step]
            vals[d], errs[d], worst[d] = v, e, e.max(axis=1)

    evaluate(edges[:-1], edges[1:], np.arange(n))
    evaluations = 15 * n
    m = vals.shape[1]
    extra_error = np.zeros(m) if extra_error is None else extra_error

    # finite panels can still overflow their sum: raised, as in _eval_panels,
    # at the midpoint of the largest panel. The error floor is not checked:
    # a NaN floor never converges, and ends as QuadratureToleranceError
    with np.errstate(over="ignore"):
        total_val = vals[:n].sum(axis=0)
        total_err = errs[:n].sum(axis=0)
    if not (np.isfinite(total_val).all() and np.isfinite(total_err).all()):
        j = int(np.maximum(np.abs(vals[:n]), errs[:n]).max(axis=1).argmax())
        raise NonFiniteIntegrandError(float(0.5 * (a[j] + b[j])))
    total_err = total_err + extra_error
    count, splits, rounds = n, 0, 0

    def _final(ok):
        # one sequential sum of the value and error columns side by side, in
        # ascending panel order, carried across blocks of at most _MAX_CELLS cells
        order = np.argsort(a[:count], kind="stable")
        total = np.concatenate((np.zeros(m), extra_error))
        step = max(1, _MAX_CELLS // (2 * m))
        for start in range(0, count, step):
            block = order[start:start + step]
            sums = np.vstack((total, np.hstack((vals[block], errs[block]))))
            total = np.cumsum(sums, axis=0, out=sums)[-1]
        result = QuadratureResult(total[:m].copy(), total[m:].copy(), evaluations=evaluations,
                                  splits=splits, rounds=rounds, initial_panels=n,
                                  converged=ok, edges=np.append(a[order], b[order[-1]]))
        if not ok:
            raise QuadratureToleranceError(
                f"tolerance not met after {splits} subdivisions", best=result)
        return result

    while True:
        tol = np.maximum(spec.rel_tol * np.abs(total_val), spec.abs_tol)
        if (total_err <= tol).all():
            return _final(ok=True)
        if splits >= spec.max_subdivisions:
            return _final(ok=False)
        # the panels wider than floating point, worst first with ties to the
        # lower row; one cumsum of the error left, bit for bit as subtracting
        # one by one, ends the round at the first pick that meets tol
        mid = 0.5 * (a[:count] + b[:count])
        live = np.flatnonzero((a[:count] < mid) & (mid < b[:count]))
        budget, take = spec.max_subdivisions - splits, 16
        while True:                     # sort only the worst take, 4x more if short
            take = min(take, budget, len(live))
            order = (live if take == len(live)
                     else live[worst[live] >= np.partition(worst[live], -take)[-take]])
            order = order[np.argsort(-worst[order], kind="stable")][:take]
            left = np.cumsum(np.concatenate((total_err[None], -errs[order])), axis=0)[1:]
            met = np.flatnonzero((left <= tol).all(axis=1))
            if len(met) or take == min(budget, len(live)):
                break
            take *= 4
        rows_in = order[:met[0] + 1] if len(met) else order
        if not len(rows_in):            # every panel is at floating-point width
            return _final(ok=False)
        k = len(rows_in)
        lo, hi = a[rows_in], b[rows_in]
        mid = 0.5 * (lo + hi)
        # left halves keep their rows, right halves are appended
        dest = np.concatenate((rows_in, np.arange(count, count + k)))
        old_val, old_err = vals[rows_in].sum(axis=0), errs[rows_in].sum(axis=0)
        evaluate(np.concatenate((lo, mid)), np.concatenate((mid, hi)), dest)
        evaluations, splits, rounds = evaluations + 30 * k, splits + k, rounds + 1
        total_val = total_val - old_val + vals[dest].sum(axis=0)
        total_err = total_err - old_err + errs[dest].sum(axis=0)
        b[rows_in] = mid
        a[count:count + k], b[count:count + k] = mid, hi
        count += k


def _merge_edges(lo, hi, interior):
    """Sorted panel edges from interior edges clipped to (lo, hi)."""
    pts = np.asarray(interior, dtype=float)
    pts = pts[(pts > lo) & (pts < hi)]
    edges = np.unique(np.concatenate(([lo], pts, [hi])))
    # drop zero-width panels from near-duplicate edges
    keep = np.concatenate(([True], np.diff(edges) > 1e-14 * (hi - lo)))
    return edges[keep]


def _theta_from_k(k, omega):
    return np.arcsin(np.clip(np.asarray(k, dtype=float) * c / omega, 0.0, 1.0))


def _heights(z):
    """Heights as a 1-D ascending float array (a scalar is one height)."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.ndim != 1 or z.size == 0 or np.any(np.diff(z) < 0.0):
        raise ValueError("heights must be a scalar or a nonempty ascending array")
    return z


def integrate_propagative(integrand, omega, spec=DEFAULT_SPEC, *, _seeds=()):
    """Integrate f(k, k_z) dk over the propagative sector [0, omega/c].

    Same as :func:`integrate_oscillatory` at z = 0: ``_seeds`` are initial
    edges in theta, such as a ladder toward grazing incidence.
    """
    return integrate_oscillatory(integrand, omega, 0.0, spec, _seeds=_seeds)


def integrate_oscillatory(integrand, omega, z, spec=DEFAULT_SPEC, *, _seeds=()):
    """Integrate f(k, k_z) dk over [0, omega/c], f carrying exp(2i k_z z).

    The substitution k = (omega/c) sin(theta) removes the 1/k_z endpoint
    singularity; both k and the real k_z = (omega/c) cos(theta) are handed
    to the integrand in exact trigonometric form. ``_seeds`` are initial
    panel edges in theta, such as the final edges of an earlier integral
    over the sector.

    ``z`` is one height or an ascending array of heights integrated on
    shared nodes; the integrand then returns the columns of every height
    side by side, and each column keeps its own tolerance.

    Initial panels are aligned to the phase of exp(2i k_z z): a boundary
    at every quarter period, k_z = m pi/(4 z) (_PHASE_EDGES_PER_PERIOD),
    which keeps accuracy uniform in z well beyond z = 100 c/omega without
    consuming the subdivision budget. With several heights the largest
    one sets these edges: its grid resolves every smaller height. A
    second phase in the integrand is the caller's to resolve through
    ``_seeds``: the slab response passes the slab phase Re(k_zm) delta
    at every period, and at eighth periods only in the fringes whose
    Airy loop gain makes them sharp, so the height-phase edges stay fine
    where the two phases beat.
    """
    heights = _heights(z)
    if heights[0] < 0.0:
        raise ValueError("z must be >= 0")
    z_max = float(heights[-1])
    if not omega > 0.0:
        raise ValueError("omega must be > 0")
    U = omega / c
    interior = np.asarray(_seeds, dtype=float)
    if z_max > 0.0:
        # a Python float, silently inf near the float maximum: checked before int()
        n = _PHASE_EDGES_PER_PERIOD
        phases = n * z_max * (omega / c) / math.pi
        if phases >= _MAX_INITIAL_PANELS + 1:
            raise ValueError("oscillatory panel budget exceeded: z too large")
        m_max = int(phases)
        kz_pts = np.arange(1, m_max + 1) * (math.pi / (n * z_max))
        k_pts = np.sqrt(np.maximum(U**2 - kz_pts**2, 0.0))
        interior = np.concatenate((_theta_from_k(k_pts, omega), interior))

    def F(theta):
        k = U * np.sin(theta)
        kz = U * np.cos(theta)
        return _scaled(integrand(k, kz), kz)

    return _adaptive(F, _merge_edges(0.0, 0.5 * math.pi, interior), spec, _heights=len(heights))


def integrate_evanescent(integrand, omega, z, spec=DEFAULT_SPEC, *, _seeds=()):
    """Integrate f(k, kappa) dk over the evanescent sector k > omega/c.

    kappa = Im k_z is the integration variable; the domain is truncated
    where the damping factor exp(-2 kappa z) falls below 1e-14 of its
    peak, and the exponential tail beyond the cut is folded into the
    error estimate. Requires z > 0 strictly.

    ``z`` is one height or an ascending array of heights integrated on
    shared nodes, the integrand returning every height's columns side by
    side. The smallest height sets the cut and the tail bound of every
    column. The initial edges are one ladder, kappa_max 2^-j, from the cut
    down to its first rung at or below the floor min(omega/c, 1/(2 z_max))/8,
    so it brackets the scale 1/(2 z) of every height and omega/c. Below
    the floor the slab response's seeds panel the light-line region, and
    adaptivity refines where a column needs it. Below rel_tol 2.7e-10
    (_TOP_OCTAVE_ERROR) the top octave [kappa_max/2, kappa_max] would split,
    so 0.75 kappa_max is a rung too. Rungs closer together than 1e-14 of
    the cut merge (_merge_edges).
    ``_seeds`` are more initial panel edges, in kappa.
    """
    heights = _heights(z)
    if not heights[0] > 0.0:
        raise ValueError("evanescent integral requires positive height")
    if not omega > 0.0:
        raise ValueError("omega must be > 0")
    U = omega / c
    # Python floats: a subnormal z_min gives kappa_max = inf, silently, raised below
    z_min, z_max = float(heights[0]), float(heights[-1])
    kappa_max = _EVANESCENT_CUT / z_min

    def F(kappa):
        k = np.hypot(kappa, U)
        return _scaled(integrand(k, kappa), kappa / k)

    # one geometric ladder resolves the scale gap between the cut and the
    # floor, omega/c or every height's scale 1/(2 z) before adaptivity
    # takes over. The rung count comes from logs, as the cut over the
    # floor can overflow; a rung below the smallest float is 0, and is
    # clipped
    floor = min(U, 0.5 / z_max) / 8.0
    rungs = math.ceil(math.log2(_EVANESCENT_CUT) - math.log2(z_min) - math.log2(floor)) + 1
    interior = [kappa_max * 0.5**j for j in range(rungs)]
    if spec.rel_tol < _TOP_OCTAVE_ERROR:
        interior.append(0.75 * kappa_max)
    interior.extend(np.asarray(_seeds, dtype=float))

    # a tiny z_min overflows the tail bound: raised below
    with np.errstate(over="ignore", invalid="ignore"):
        tail = _columns(F(np.array([kappa_max])))[0] / (2.0 * z_min)
    if not np.isfinite(tail).all():
        raise NonFiniteIntegrandError(kappa_max)
    edges = _merge_edges(0.0, kappa_max, interior)
    try:  # the tail node counts in the result, or in the best estimate of a failure
        result = _adaptive(F, edges, spec, extra_error=np.abs(tail), _heights=len(heights))
    except QuadratureToleranceError as exc:
        exc.best.evaluations += 1
        raise
    result.evaluations += 1
    return result
