"""Adaptive quadrature over the real line and the positive half-line.

All pairings in this package reduce to one-dimensional integrals of
rapidly decaying (possibly oscillatory, possibly complex-valued)
integrands.  The engine here is deliberately simple and robust:

* the real line is mapped to (-1, 1) by ``x = t / (1 - t^2)``, which is
  smooth, monotone, and preserves exponential decay of the integrand;
* each panel is integrated with the embedded 7-point Gauss / 15-point
  Kronrod pair, whose difference provides the local error estimate;
* panels are bisected worst-first until each integral's error estimate
  is at most ``rel_tol`` times its own L1 mass int |f|, summed from the
  panels' QUADPACK ``resabs``; optional breakpoints seed the first
  panels.  An integral that runs out of budget first raises
  ``NonConvergence``, so every returned result has met its target.

The target scales with the integrand and needs no absolute tolerance:
for a one-signed integrand it is ``rel_tol * |value|``, and it sits at
least 2x above the engine's own 50 ulp error floor when
``rel_tol >= 100 eps``.  It stops only at the smallest normal float,
below which an integrand's values are subnormal and carry no relative
precision.  The price falls on
integrands that cancel: their reported error is ``rel_tol`` of
int |f|, not of the (smaller) value.

There is one code path.  An integrand returns n values for n nodes, or
an (m, n) array: m integrals over one shared panel tree, each held to
its own target; a 1-D integrand is the case m = 1, and its value and
error come back as scalars.  Panels are evaluated in batches: one
integrand call covers all initial panels, and one covers both halves
of each bisection.

The half-line is reduced to the real line by the logarithmic
substitution ``x = e^y``, so endpoint behaviour at 0 becomes ordinary
decay at ``y -> -inf``.

Everything is computed in 64-bit floating point; integrands are called
with a numpy array of nodes and must return an array of values.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "QuadratureConfig",
    "IntegralResult",
    "QuadratureError",
    "NonConvergence",
    "NonFiniteEvaluation",
    "integrate_real_line",
    "integrate_half_line",
]


class QuadratureError(Exception):
    """Base class for quadrature failures."""


class NonFiniteEvaluation(QuadratureError):
    """The integrand produced NaN or infinity at the nodes ``points``,
    given as the caller's integrand received them."""

    def __init__(self, points):
        super().__init__(f"integrand returned a non-finite value near x={points[:3]}")
        self.points = points


class NonConvergence(QuadratureError):
    """The subdivision budget was exhausted, or a panel too narrow to
    split missed the target on its own, before the tolerance was met.

    Carries the best available estimate in ``result`` (``converged`` is
    False there).
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class QuadratureConfig:
    """Relative tolerance and subdivision budget for the adaptive engine."""

    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.rel_tol > 0.0):
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")

    def oscillatory(self) -> "QuadratureConfig":
        """Variant with the raised subdivision budget used for oscillatory
        integrands (sin(2*pi*log x) factors, e^{iux} pairings)."""
        return replace(self, max_subdivisions=max(self.max_subdivisions, 8000))


@dataclass(frozen=True)
class IntegralResult:
    """Outcome of one adaptive integration; for an (m, n)-valued
    integrand ``value`` and ``error_estimate`` have shape (m,).
    ``converged`` is False only on the result a ``NonConvergence``
    carries."""

    value: complex
    error_estimate: float
    evaluations: int
    converged: bool


# 7-point Gauss / 15-point Kronrod pair on [-1, 1] (QUADPACK dqk15).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# The pair laid out over one panel's 15 nodes in evaluation order: the
# seven left nodes, the seven right nodes, the centre.
_NODES = np.concatenate((-_XGK[:7], _XGK[:7], _XGK[7:]))
_KRONROD = np.concatenate((_WGK[:7], _WGK[:7], _WGK[7:]))
_GAUSS = np.zeros(15)
_GAUSS[1:7:2] = _GAUSS[8:14:2] = _WG[:3]
_GAUSS[14] = _WG[3]

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_HUGE = np.finfo(float).max
_FLOOR_MIN = _TINY / (50.0 * _EPS)  # below this the 50 ulp floor would underflow


def _kronrod_panels(f, edges):
    """Integrate the P panels between consecutive ``edges`` from one call
    of ``f`` on all P * 15 nodes.  Returns (values, errors, l1), each of
    shape (P, m), with m = 1 for a 1-D integrand and l1 the panel's
    int |f|, and whether ``f`` is 1-D.

    The error model is QUADPACK's: the raw Gauss/Kronrod difference is
    rescaled by the panel's variation so that smooth panels are not
    flagged as inaccurate, with a floor at 50 ulp of the absolute
    integral.
    """
    a, b = edges[:-1, None], edges[1:, None]
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    nodes = (centr + hlgth * _NODES).ravel()
    fv = np.asarray(f(nodes))
    if fv.shape[-1:] != nodes.shape or fv.ndim > 2:
        raise ValueError("integrand must return one value, or one column of values, per node")
    finite = np.isfinite(fv)
    if not finite.all():
        raise NonFiniteEvaluation(nodes[~finite.reshape(-1, nodes.size).all(axis=0)])

    # (P, m, 15), contiguous: each panel's sums round as one (m, 15) product
    # of its own, whatever P is
    rows = np.ascontiguousarray(fv.reshape(-1, centr.size, 15).transpose(1, 0, 2))
    ah = np.abs(hlgth)
    resk = rows @ _KRONROD
    resg = rows @ _GAUSS
    resabs = np.abs(rows) @ _KRONROD * ah
    resasc = np.abs(rows - 0.5 * resk[..., None]) @ _KRONROD * ah
    abserr = np.abs(resk - resg) * ah
    # where resasc is 0 the rescaled term is 0 and abserr stays as it is
    flat = resasc == 0.0
    abserr = resasc * np.minimum(1.0, (200.0 * abserr / (resasc + flat)) ** 1.5) + flat * abserr
    abserr = np.maximum(abserr, 50.0 * _EPS * resabs * (resabs > _FLOOR_MIN))
    return resk * hlgth, abserr, resabs, fv.ndim == 1


def _adaptive(f, edges, cfg: QuadratureConfig) -> IntegralResult:
    """Worst-panel-first bisection with the embedded pair, starting from
    the panels between consecutive ``edges``.

    Every integrand is m rows sharing one panel tree (m = 1 for a 1-D
    integrand).  One integrand call covers all initial panels, and one
    covers both halves of each bisection.  Each panel carries its value,
    error and int |f| per row, and the pass keeps their running sums.
    Row i has met its target when ``err_i <= rel_tol * int |f_i|``, a
    target never set below the smallest normal float: a row that small
    is built from subnormal values, which carry no relative precision
    (a row whose int |f| is 0 has error 0 and is met at once).  The
    pass returns when every row has met its target.  It bisects the
    panel of largest err_i / scale_i, with scale_i the target of row i
    at the first estimate (for m = 1 the order of err itself); ratios
    that overflow rank first, by log2.  A 1-D integrand's value and
    error come back as scalars.

    Raises ``NonConvergence`` when the budget runs out first, or when
    the panels too narrow to split miss the target on their own; the
    message names the component furthest from its target.
    """
    edges = np.asarray(edges, dtype=float)
    vals, errs, l1s, scalar = _kronrod_panels(f, edges)
    val_sum, err_sum, l1_sum = sum(vals), sum(errs), sum(l1s)
    evaluations = 15 * len(vals)
    target = lambda: np.maximum(cfg.rel_tol * l1_sum, _TINY)
    met = lambda e: bool((e <= target()).all())
    # heap keys (-max_i(err_i / scale_i), tie): worst panel first
    scale = target()

    def keys(e):
        with np.errstate(over="ignore", divide="ignore"):
            return [(-r, 0.0) if r < np.inf else (-_HUGE, -float(np.max(np.log2(p) - np.log2(scale))))
                    for r, p in zip((e / scale).max(axis=1).tolist(), e)]

    heap = list(zip(keys(errs), range(len(vals)), edges[:-1].tolist(), edges[1:].tolist(),
                    vals, errs, l1s))
    heapq.heapify(heap)
    counter = len(heap)
    subdivisions = 0
    stuck_err = 0.0  # panels too narrow to split further
    result = lambda converged: IntegralResult(val_sum[0] if scalar else val_sum,
                                              err_sum[0] if scalar else err_sum,
                                              evaluations, converged)

    while True:
        if met(err_sum):
            return result(True)
        if subdivisions >= cfg.max_subdivisions or not heap:
            break

        _, _, pa, pb, pval, perr, pl1 = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if mid <= pa or mid >= pb:
            # panel narrower than one ulp; its error is irreducible
            stuck_err = stuck_err + perr
            if not met(stuck_err):
                break
            continue
        v, e, l1, _ = _kronrod_panels(f, np.array((pa, mid, pb)))
        evaluations += 30
        subdivisions += 1
        val_sum = val_sum + ((v[0] + v[1]) - pval)
        err_sum = err_sum + ((e[0] + e[1]) - perr)
        l1_sum = l1_sum + ((l1[0] + l1[1]) - pl1)
        k1, k2 = keys(e)
        heapq.heappush(heap, (k1, counter, pa, mid, v[0], e[0], l1[0]))
        heapq.heappush(heap, (k2, counter + 1, mid, pb, v[1], e[1], l1[1]))
        counter += 2

    goal = target()
    i = int(np.argmax(err_sum / goal))
    which = f"component {i} " if err_sum.size > 1 else ""
    raise NonConvergence(f"adaptive quadrature: {which}error {err_sum[i]:.3e} against a target of "
                         f"{goal[i]:.3e} after {evaluations // 15} panels", result(False))


def integrate_real_line(f, cfg: QuadratureConfig | None = None, points=None) -> IntegralResult:
    """Approximate the integral of ``f`` over the whole real line.

    ``f`` must accept an ndarray of n points and return n finite values,
    or an (m, n) array for m integrands sharing one panel tree; it must
    be absolutely integrable.  Uses the substitution
    ``x = t / (1 - t^2)`` with Jacobian ``(1 + t^2) / (1 - t^2)^2``.
    Beyond the representable floating-point range (|x| > ~1e150) the
    transformed integrand is treated as zero, which for an integrable
    ``f`` discards a tail of mass below 1e-150.

    ``points`` are breakpoints in x: the first panels end there, so a
    feature narrower than one panel of the transformed line (a peak far
    from 0) is seen from the start.
    """
    def transformed(t):
        tt = t * t
        one = 1.0 - tt
        good = one > 1e-150
        one = one[good]
        fx = f(t[good] / one) * ((1.0 + tt[good]) / (one * one))
        vals = np.zeros(fx.shape[:-1] + t.shape, dtype=fx.dtype)
        vals[..., good] = fx
        return vals

    edges = [-1.0, 1.0]
    if points is not None:
        x = np.asarray(points, dtype=float)
        x = x[np.abs(x) < 1e150]
        # inverse of x = t / (1 - t^2), written to avoid cancellation
        t = 2.0 * x / (1.0 + np.sqrt(1.0 + 4.0 * x * x))
        edges = sorted({*edges, *t[np.abs(t) < 1.0].tolist()})
    try:
        return _adaptive(transformed, edges, cfg or QuadratureConfig())
    except NonFiniteEvaluation as exc:  # name the nodes in x, as f received them
        raise NonFiniteEvaluation(exc.points / (1.0 - exc.points * exc.points)) from None


def integrate_half_line(f, cfg: QuadratureConfig | None = None, points=None) -> IntegralResult:
    """Approximate the integral of ``f`` over (0, inf).

    Applies the logarithmic substitution ``x = e^y`` and reuses
    :func:`integrate_real_line` on ``y -> f(e^y) e^y``; ``f`` may be
    (m, n)-valued as there, and ``points`` are breakpoints in x (those
    outside the range below are dropped).  The substituted
    range is clipped to |log x| <= 64, i.e. x in [e^-64, e^64]; outside
    it the integrand is treated as zero.  Every density/kernel pairing in
    this package is identically zero in double precision well inside
    that envelope, and the clip keeps naive power-times-density
    integrands evaluable (x^j stays finite there for j <= 11; compose
    more extreme products in exponent space).
    """

    def substituted(y):
        good = np.abs(y) < 64.0
        x = np.exp(y[good])
        fx = f(x) * x
        vals = np.zeros(fx.shape[:-1] + y.shape, dtype=fx.dtype)
        vals[..., good] = fx
        return vals

    if points is not None:
        x = np.asarray(points, dtype=float)
        y = np.log(x[x > 0.0])
        points = y[np.abs(y) < 64.0]
    try:
        return integrate_real_line(substituted, cfg, points)
    except NonFiniteEvaluation as exc:
        raise NonFiniteEvaluation(np.exp(exc.points)) from None
