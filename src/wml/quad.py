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
  panels.  Every integral has the same setting, ``rel_tol`` = 1e-10 and
  a budget of 2000 bisections (``_REL_TOL``, ``_MAX_SUBDIVISIONS``); one
  that runs out of budget first raises ``NonConvergence``, so every
  returned result has met its target.

The target scales with the integrand and needs no absolute tolerance:
for a one-signed integrand it is ``rel_tol * |value|``, and it sits at
least 2x above the engine's own 50 ulp error floor when
``rel_tol >= 100 eps``.  It stops only at the smallest normal float,
below which an integrand's values are subnormal and carry no relative
precision.  The price falls on integrands that cancel: their reported
error is ``rel_tol`` of int |f|, not of the (smaller) value.

There is one code path.  An integrand returns n values for n nodes, or
an (m, n) array: m integrals over one shared panel tree, each held to
its own target; a 1-D integrand is the case m = 1, and its value and
error come back as scalars.  The panel tree is a table of arrays, and
panels are evaluated in batches: one integrand call covers all initial
panels, and each later round bisects, from one call, the shortest
worst-first run of panels whose removal would meet every target.

The half-line is reduced to the real line by the logarithmic
substitution ``x = e^y``, so endpoint behaviour at 0 becomes ordinary
decay at ``y -> -inf``.

Everything is computed in 64-bit floating point; integrands are called
with a numpy array of nodes and must return an array of values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
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
    given as the caller's integrand received them; ``var`` names them."""

    def __init__(self, points, var="x"):
        super().__init__(f"integrand returned a non-finite value near {var}={points[:3]}")
        self.points = points


class NonConvergence(QuadratureError):
    """The subdivision budget ran out, or no panel was left to bisect,
    before the tolerance was met.

    Carries the best available estimate in ``result`` (``converged`` is
    False there) and the index of the row furthest from its target in
    ``component``.
    """

    def __init__(self, message, result=None, component=0):
        super().__init__(message)
        self.result = result
        self.component = component


@dataclass(frozen=True)
class IntegralResult:
    """Outcome of one adaptive integration; for an (m, n)-valued
    integrand ``value`` and ``error_estimate`` have shape (m,).
    ``converged`` is False only on the result a ``NonConvergence`` carries."""

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
_FLOOR_MIN = _TINY / (50.0 * _EPS)  # below this the 50 ulp floor would underflow
_REL_TOL = 1e-10
_MAX_SUBDIVISIONS = 2000


def _as_real(op, z):
    """op(z), on a complex z's real and imaginary parts as on real arrays."""
    if not np.iscomplexobj(z):
        return op(z)
    return op(np.ascontiguousarray(z.real)) + 1j * op(np.ascontiguousarray(z.imag))


def _kronrod_panels(f, a, b):
    """Integrate the P panels [a_k, b_k] from one call of ``f`` on all
    P * 15 nodes.  Returns (values, errors, l1), each of shape (P, m),
    with m = 1 for a 1-D integrand and l1 the panel's int |f|, and
    whether ``f`` is 1-D.

    The error model is QUADPACK's: the raw Gauss/Kronrod difference is
    rescaled by the panel's variation so that smooth panels are not
    flagged as inaccurate, with a floor at 50 ulp of the absolute
    integral.
    """
    a, b = a[:, None], b[:, None]
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
    resk = _as_real(lambda r: r @ _KRONROD, rows)
    resg = _as_real(lambda r: r @ _GAUSS, rows)
    # one buffer holds |rows|, then |rows - resk / 2|
    buf = np.abs(rows)
    resabs = buf @ _KRONROD * ah
    dev = np.subtract(rows, 0.5 * resk[..., None], out=None if np.iscomplexobj(rows) else buf)
    resasc = np.abs(dev, out=buf) @ _KRONROD * ah
    abserr = np.abs(resk - resg) * ah
    # where resasc is 0 the rescaled term is 0 and abserr stays as it is
    flat = resasc == 0.0
    abserr = resasc * np.minimum(1.0, (200.0 * abserr / (resasc + flat)) ** 1.5) + flat * abserr
    abserr = np.maximum(abserr, 50.0 * _EPS * resabs * (resabs > _FLOOR_MIN))
    return resk * hlgth, abserr, resabs, fv.ndim == 1


def _adaptive(f, edges) -> IntegralResult:
    """Worst-panel-first bisection with the embedded pair, in rounds,
    starting from the panels between consecutive ``edges``.

    Every integrand is m rows sharing one panel tree (m = 1 for a 1-D
    integrand), held as a table of arrays: each panel's ends and, per
    row, its value, error and int |f|.  Row i has met its target when
    its summed ``err_i <= _REL_TOL * int |f_i|``, a target never set
    below the smallest normal float: a row that small is built from
    subnormal values, which carry no relative precision (a row whose
    int |f| is 0 has error 0 and is met at once).

    One integrand call covers all initial panels.  Panels rank by
    max_i(log2 err_i - log2 scale_i), scale_i being row i's target at
    the first estimate; one too narrow to split, or with error 0 in every
    row, ranks last and is never bisected.  Until every row has met its
    target, each round bisects, from one integrand call, the shortest
    worst-first run of panels whose removal would meet every target: the
    left halves replace their panels, the right halves are appended.

    Raises ``NonConvergence`` when the ``_MAX_SUBDIVISIONS`` bisections
    run out first (a round never bisects past them), or when no panel
    left can be bisected, as when the error sits in panels narrower than
    one ulp; the message names the component furthest from its target.
    Both settings are read at call time.
    """
    # copies, as the table is written in place (edges[:-1] and edges[1:] would overlap)
    a, b = np.array(edges[:-1], dtype=float), np.array(edges[1:], dtype=float)
    vals, errs, l1s, scalar = _kronrod_panels(f, a, b)
    log_scale = np.log2(np.maximum(_REL_TOL * l1s.sum(axis=0), _TINY))

    pick = 0 if scalar else slice(None)  # a 1-D integrand's value and error are scalars

    def rank(a, b, errs):
        with np.errstate(divide="ignore"):
            keys = np.maximum.reduce(np.log2(errs) - log_scale, axis=1)
        return np.where(np.nextafter(a, b) < b, keys, -np.inf)  # else 0.5 * (a + b) is a or b

    def result(converged):
        value = _as_real(lambda t: t.sum(axis=0), vals)
        return IntegralResult(value[pick], err_sum[pick], evaluations, converged)

    table = [a, b, vals, errs, l1s, rank(a, b, errs)]
    while True:
        a, b, vals, errs, l1s, keys = table
        # every bisection adds one panel to the table and evaluates two
        evaluations = 15 * (2 * len(a) - len(edges) + 1)
        err_sum = errs.sum(axis=0)
        goal = np.maximum(_REL_TOL * l1s.sum(axis=0), _TINY)
        if (err_sum <= goal).all():
            return result(True)
        order = (-keys).argsort(kind="stable")
        meets = np.logical_and.reduce(err_sum - np.add.accumulate(errs[order]) <= goal, axis=1)
        # the shortest run meeting every target (meets only turns True), within splittable and budget
        n = min(1 + len(order) - np.count_nonzero(meets), np.count_nonzero(keys > -np.inf),
                _MAX_SUBDIVISIONS - (len(a) - len(edges) + 1))
        if n <= 0:
            i = int(np.argmax(err_sum / goal))
            which = f"component {i} " if err_sum.size > 1 else ""
            raise NonConvergence(f"adaptive quadrature: {which}error {err_sum[i]:.3e} against a target of "
                                 f"{goal[i]:.3e} after {evaluations // 15} panels", result(False), i)
        popped = order[:n]
        pa, pb = a[popped], b[popped]
        mid = 0.5 * (pa + pb)
        left, right = np.concatenate((pa, mid)), np.concatenate((mid, pb))
        v, e, l1, _ = _kronrod_panels(f, left, right)
        halves = (left, right, v, e, l1, rank(left, right, e))
        for column, half in zip(table, halves):
            column[popped] = half[:n]
        table = [np.concatenate((column, half[n:])) for column, half in zip(table, halves)]


def _on_nodes(fx, w, good):
    """fx * w at the nodes where ``good`` and 0 at the others, written
    into fx (an integrand returns a new array on every call) where that
    gives the same array; with every node good that is the result."""
    inplace = isinstance(fx, np.ndarray) and fx.flags.writeable and np.result_type(fx, w) == fx.dtype
    fx = np.multiply(fx, w, out=fx if inplace else None)
    if good.all():
        return fx
    vals = np.zeros(fx.shape[:-1] + good.shape, dtype=fx.dtype)
    vals[..., good] = fx
    return vals


def integrate_real_line(f, points=None) -> IntegralResult:
    """Approximate the integral of ``f`` over the whole real line.

    ``f`` must accept an ndarray of n points and return a new array of n
    finite values, or of (m, n) values for m integrands sharing one panel
    tree (the pass scales that array in place); it must
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
        return _on_nodes(f(t[good] / one), (1.0 + tt[good]) / (one * one), good)

    edges = [-1.0, 1.0]
    if points is not None:
        x = np.asarray(points, dtype=float)
        x = x[np.abs(x) < 1e150]
        # inverse of x = t / (1 - t^2), written to avoid cancellation
        t = 2.0 * x / (1.0 + np.sqrt(1.0 + 4.0 * x * x))
        edges = sorted({*edges, *t[np.abs(t) < 1.0].tolist()})
    try:
        return _adaptive(transformed, edges)
    except NonFiniteEvaluation as exc:  # name the nodes in x, as f received them
        raise NonFiniteEvaluation(exc.points / (1.0 - exc.points * exc.points)) from None


def integrate_half_line(f, points=None) -> IntegralResult:
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
        return _on_nodes(f(x), x, good)

    if points is not None:
        x = np.asarray(points, dtype=float)
        y = np.log(x[x > 0.0])
        points = y[np.abs(y) < 64.0]
    try:
        return integrate_real_line(substituted, points)
    except NonFiniteEvaluation as exc:
        raise NonFiniteEvaluation(np.exp(exc.points)) from None
