"""Adaptive quadrature over the real line and the positive half-line.

All pairings in this package reduce to one-dimensional integrals of
rapidly decaying, possibly oscillatory, real integrands (a complex
one is two: its real and imaginary parts).  The engine here is
deliberately simple and robust:

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
an (m, n) array: m integrals over one panel tree, each held to its own
target; a 1-D integrand is the case m = 1, and its value and error come
back as scalars.  The panel tree is a table of arrays, and panels are
evaluated in batches: one integrand call covers all initial panels,
and each later round bisects, from one call, the shortest worst-first
run of panels whose removal would meet every target.

Several such integrands, segments, can share a pass: each keeps its own
panel tree, targets and budget, and rounds as it would alone, while
the nodes of all live segments go to one integrand call, which also
gets each node's segment.  As each panel's sums are its own, a segment
returns, bit for bit, what it returns alone.  A lone integrand is one
segment.

The half-line is reduced to the real line by the logarithmic
substitution ``x = e^y``, so endpoint behaviour at 0 becomes ordinary
decay at ``y -> -inf``.

Everything is computed in 64-bit floating point; integrands are called
with a numpy array of nodes and must return an array of real values.
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
    given as the caller's integrand received them; ``var`` names them.
    In a pass over several segments they are the nodes of ``segment``,
    the first segment that had any."""

    def __init__(self, points, var="x", segment=0):
        super().__init__(f"integrand returned a non-finite value near {var}={points[:3]}")
        self.points = points
        self.segment = segment


class NonConvergence(QuadratureError):
    """The subdivision budget ran out, or no panel was left to bisect,
    before the tolerance was met.

    Carries the best available estimate in ``result`` (``converged`` is
    False there), the index of the row furthest from its target in
    ``component``, and in a pass over several segments the segment that
    failed in ``segment``.
    """

    def __init__(self, message, result=None, component=0, segment=0):
        super().__init__(message)
        self.result = result
        self.component = component
        self.segment = segment


@dataclass(frozen=True)
class IntegralResult:
    """Outcome of one adaptive integration: a float ``value`` and
    ``error_estimate``, or for an (m, n)-valued integrand two (m,) arrays.
    ``converged`` is False only on the result a ``NonConvergence`` carries."""

    value: float | np.ndarray
    error_estimate: float | np.ndarray
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
_ENDS = np.array([-1.0, 1.0])  # the transformed real line


def _kronrod_panels(f, a, b, seg):
    """Integrate the P panels [a_k, b_k], of segments ``seg``, from one
    call of ``f`` on all P * 15 nodes and each node's segment.  Returns
    (values, errors, l1), each of shape (P, m), with m = 1 for a 1-D
    integrand and l1 the panel's int |f|, and whether ``f`` is 1-D.

    The error model is QUADPACK's: the raw Gauss/Kronrod difference is
    rescaled by the panel's variation so that smooth panels are not
    flagged as inaccurate, with a floor at 50 ulp of the absolute
    integral.
    """
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    nodes = hlgth[:, None] * _NODES
    nodes += centr[:, None]
    nodes = nodes.ravel()
    at = seg.repeat(15)
    fv = np.asarray(f(nodes, at))
    if fv.shape[-1:] != nodes.shape or fv.ndim > 2 or np.iscomplexobj(fv):
        raise ValueError("integrand must return one real value, or one column of real values, per node")
    # (P, m, 15), contiguous: each panel's sums round as one (m, 15) product
    # of its own, whatever P is and whatever other panels share the call.
    # A row's bits do depend on m: row 0 rounds one way for m = 1, another
    # for m = 2-3 and another for m >= 4, so an integral that must match a
    # lone one bit for bit is a one-row segment, not a row of a shared tree
    rows = np.ascontiguousarray(fv.reshape(-1, centr.size, 15).transpose(1, 0, 2))
    resk = rows @ _KRONROD
    # every Kronrod weight is positive, so a non-finite value leaves its sum non-finite
    if not np.isfinite(resk).all():
        bad = ~np.isfinite(fv).reshape(-1, nodes.size).all(axis=0)
        if bad.any():
            first = at[bad].min()
            raise NonFiniteEvaluation(nodes[bad & (at == first)], segment=int(first))
    ah = np.abs(hlgth)[:, None]
    resg = rows @ _GAUSS
    # one buffer holds |rows|, then |rows - resk / 2|
    buf = np.abs(rows)
    resabs = buf @ _KRONROD * ah
    resasc = np.abs(np.subtract(rows, 0.5 * resk[..., None], out=buf), out=buf) @ _KRONROD * ah
    abserr = np.abs(resk - resg) * ah
    # where resasc is 0 the rescaled term is 0 and abserr stays as it is
    flat = resasc == 0.0
    abserr = resasc * np.minimum(1.0, (200.0 * abserr / (resasc + flat)) ** 1.5) + flat * abserr
    abserr = np.maximum(abserr, 50.0 * _EPS * resabs * (resabs > _FLOOR_MIN))
    return resk * hlgth[:, None], abserr, resabs, fv.ndim == 1


def _adaptive(f, a, b, seg):
    """Worst-panel-first bisection with the embedded pair, in rounds, of
    the segments 0, 1, ...: segment i starts from the panels [a_k, b_k]
    where ``seg`` (which never decreases) is i.  Returns (value, error,
    evaluations): each segment's values and errors, of shape (S, m) for S
    segments of m rows (or (S,) for a 1-D integrand), and its integrand
    evaluations.

    Each segment is m rows sharing one panel tree (m = 1 for a 1-D
    integrand), and all trees are held as one table of arrays, grouped by
    segment: each panel's segment and ends and, per row, its value, error
    and int |f|.  Row i of a segment has met its target when its summed
    ``err_i <= _REL_TOL * int |f_i|``, a target never set below the
    smallest normal float: a row that small is built from subnormal
    values, which carry no relative precision (a row whose int |f| is 0
    has error 0 and is met at once).

    One integrand call covers the initial panels of every segment, and a
    pass whose rows all meet their targets there returns before any panel
    is ranked.  Panels rank by max_i(log2 err_i - log2 scale_i), scale_i
    being row i's target in the panel's segment at the first estimate;
    one too narrow to split, or with error 0 in every row, ranks last and
    is never bisected.  Each round bisects, in every segment that has not
    met its targets, the shortest worst-first run of its panels whose
    removal would meet them all, and one integrand call covers the halves
    of every run: the left halves replace their panels, the right halves
    follow the segment's other panels.  A segment's sums and decisions
    read its own panels only, so it rounds as it would alone.

    Raises ``NonConvergence`` when a segment's ``_MAX_SUBDIVISIONS``
    bisections run out first (a round never bisects past them), or when
    no panel of it left can be bisected, as when the error sits in panels
    narrower than one ulp; the message names the segment's component
    furthest from its target.  Both settings are read at call time.
    """
    first = np.bincount(seg)  # the initial panels of each segment
    vals, errs, l1s, scalar = _kronrod_panels(f, a, b, seg)
    keys = None

    def rank(a, b, errs, seg):
        with np.errstate(divide="ignore"):
            keys = np.maximum.reduce(np.log2(errs) - log_scale[seg], axis=1)
        return np.where(np.nextafter(a, b) < b, keys, -np.inf)  # else 0.5 * (a + b) is a or b

    while True:
        sizes = np.bincount(seg, minlength=first.size)
        starts = sizes.cumsum() - sizes
        err_sum = np.add.reduceat(errs, starts, axis=0)
        goal = np.maximum(_REL_TOL * np.add.reduceat(l1s, starts, axis=0), _TINY)
        unmet = np.logical_or.reduce(err_sum > goal, axis=1).nonzero()[0]
        # each segment's panels summed in table order, one after another (as
        # numpy sums a (P, m) table, m > 1), a row each padded with -0.0
        def value():
            rows = vals[None]
            if sizes.size > 1:
                rows = np.full((sizes.size, sizes.max(), vals.shape[1]), -0.0)
                rows[np.arange(sizes.max()) < sizes[:, None]] = vals
            return np.add.accumulate(rows, axis=1)[:, -1]
        # every bisection adds one panel to the table and evaluates two
        evaluations = lambda: 15 * (2 * sizes - first)
        if unmet.size == 0:
            return (value()[:, 0], err_sum[:, 0], evaluations()) if scalar else (value(), err_sum, evaluations())
        if keys is None:  # the targets at the first estimate
            log_scale = np.log2(goal)
            keys = rank(a, b, errs, seg)
        # the unmet segments' panels, a row each, ranked worst first by a
        # stable sort as alone; the padding ranks last and adds 0
        lens, step, lo = sizes[unmet], np.arange(sizes.max()), starts[unmet, None]
        inside = step < lens[:, None]
        ranked = np.where(inside, keys[np.where(inside, lo + step, 0)], -np.inf)
        at = np.where(inside, lo + (-ranked).argsort(axis=1, kind="stable"), 0)
        spent = np.add.accumulate(np.where(inside[..., None], errs[at], 0.0), axis=1)
        meets = np.logical_and.reduce(err_sum[unmet, None] - spent <= goal[unmet, None], axis=2) & inside
        # the shortest run meeting every target (meets only turns True), within splittable and budget
        n = np.minimum(np.minimum(1 + lens - np.add.reduce(meets, axis=1), np.add.reduce(ranked > -np.inf, axis=1)),
                       _MAX_SUBDIVISIONS - (lens - first[unmet]))
        if (n <= 0).any():
            s = int(unmet[np.argmax(n <= 0)])
            c = int(np.argmax(err_sum[s] / goal[s]))
            pick = 0 if scalar else slice(None)  # a 1-D integrand's value and error are scalars
            which = f"component {c} " if err_sum.shape[1] > 1 else ""
            spent = 15 * (2 * sizes[s] - first[s])
            raise NonConvergence(f"adaptive quadrature: {which}error {err_sum[s][c]:.3e} against a target "
                                 f"of {goal[s][c]:.3e} after {spent // 15} panels",
                                 IntegralResult(value()[s][pick], err_sum[s][pick], int(spent), False), c, s)
        popped = at[step < n[:, None]]
        pa, pb, ps = a[popped], b[popped], seg[popped]
        mid = 0.5 * (pa + pb)
        left, right, both = np.concatenate((pa, mid)), np.concatenate((mid, pb)), np.concatenate((ps, ps))
        v, e, l1, _ = _kronrod_panels(f, left, right, both)
        table, halves = (seg, a, b, vals, errs, l1s, keys), (both, left, right, v, e, l1, rank(left, right, e, both))
        for column, half in zip(table, halves):
            column[popped] = half[:popped.size]
        table = [np.concatenate((column, half[popped.size:])) for column, half in zip(table, halves)]
        if first.size > 1:  # each segment's right halves after its other panels
            grouped = np.argsort(table[0], kind="stable")
            table = [column[grouped] for column in table]
        seg, a, b, vals, errs, l1s, keys = table


def _inside(v, bound):
    """Where |v| < ``bound``, or None where it holds everywhere."""
    return None if not v.size or -bound < v.min() and v.max() < bound else np.abs(v) < bound


def _at(good, *arrays):
    """The arrays at the nodes where ``good`` (all of them where None)."""
    return arrays if good is None else tuple(x[good] for x in arrays)


def _on_nodes(fx, w, good):
    """fx * w at the nodes where ``good`` (all of them where None) and 0 at
    the others, written into fx (an integrand returns a new array on every
    call) where that gives the same array; with every node good that is
    the result."""
    inplace = isinstance(fx, np.ndarray) and fx.flags.writeable and np.result_type(fx, w) == fx.dtype
    fx = np.multiply(fx, w, out=fx if inplace else None)
    if good is None:
        return fx
    vals = np.zeros(fx.shape[:-1] + good.shape, dtype=fx.dtype)
    vals[..., good] = fx
    return vals


def _real_line(f, points, reach=1e150):
    """The integrals over the whole real line of n segments of ``f``,
    which takes nodes and their segments, each from its own breakpoints in
    x within |x| < ``reach``, a row of ``points`` (n, L), nan where it has
    fewer than L; see :func:`integrate_real_line`."""
    def transformed(t, seg):
        good = _inside(t, 1.0)  # where 1 - t^2 > 0
        t, seg = _at(good, t, seg)
        one = 1.0 - t * t
        fx = f(np.divide(t, one, out=one), seg)  # x, in the buffer of 1 - t^2
        # the Jacobian (1 + t^2) / (1 - t^2)^2
        w = t * t
        one = 1.0 - w
        w += 1.0
        w /= np.multiply(one, one, out=one)
        return _on_nodes(fx, w, good)

    n = len(points)
    # inverse of x = t / (1 - t^2), written to avoid cancellation; nan where dropped
    x = np.where(np.abs(points) < reach, points, np.nan)
    t = 2.0 * x / (1.0 + np.sqrt(1.0 + 4.0 * x * x))
    t = np.sort(np.concatenate((np.where(np.abs(t) < 1.0, t, np.nan), _ENDS.repeat(n).reshape(2, n).T), axis=1))
    # the panels between consecutive distinct edges of a row, nan (sorted
    # last) never an edge (copies, as the engine writes its table in place)
    panel = t[:, 1:] > t[:, :-1]
    try:
        return _adaptive(transformed, t[:, :-1][panel], t[:, 1:][panel], panel.nonzero()[0])
    except NonFiniteEvaluation as exc:  # name the nodes in x, as f received them
        raise NonFiniteEvaluation(exc.points / (1.0 - exc.points * exc.points), segment=exc.segment) from None


def _half_line(f, points):
    """The integrals over (0, inf) of n segments of ``f``, as
    :func:`_real_line`; see :func:`integrate_half_line`."""
    def substituted(y, seg):
        good = _inside(y, 64.0)
        y, seg = _at(good, y, seg)
        x = np.exp(y)
        return _on_nodes(f(x, seg), x, good)

    try:
        return _real_line(substituted, np.log(np.where(points > 0.0, points, np.nan)), 64.0)
    except NonFiniteEvaluation as exc:
        raise NonFiniteEvaluation(np.exp(exc.points), segment=exc.segment) from None


def _one(points):
    """A lone integrand's breakpoints, as the row of its segment 0."""
    return np.reshape(np.asarray(() if points is None else points, dtype=float), (1, -1))


def _lone(out) -> IntegralResult:
    """The result of a pass over one segment."""
    value, error, evaluations = out
    return IntegralResult(value[0], error[0], int(evaluations[0]), True)


def integrate_real_line(f, points=None) -> IntegralResult:
    """Approximate the integral of ``f`` over the whole real line.

    ``f`` must accept an ndarray of n points and return a new array of n
    finite real values, or of (m, n) values for m integrands sharing one
    panel tree (the pass scales that array in place); it must be
    absolutely integrable; a complex-valued ``f`` raises ``ValueError``.
    Uses the substitution ``x = t / (1 - t^2)`` with Jacobian
    ``(1 + t^2) / (1 - t^2)^2``.
    Beyond the representable floating-point range (|x| > ~1e150) the
    transformed integrand is treated as zero, which for an integrable
    ``f`` discards a tail of mass below 1e-150.

    ``points`` are breakpoints in x: the first panels end there, so a
    feature narrower than one panel of the transformed line (a peak far
    from 0) is seen from the start, but only within them: the first panel
    beyond the outermost one reaches to infinity, and its nodes and error
    estimate may both miss a tail just past that point.
    """
    return _lone(_real_line(lambda x, _: f(x), _one(points)))


def integrate_half_line(f, points=None) -> IntegralResult:
    """Approximate the integral of ``f`` over (0, inf).

    Applies the logarithmic substitution ``x = e^y`` and integrates
    ``y -> f(e^y) e^y`` over the real line as there; ``f`` may be
    (m, n)-valued as there, and ``points`` are breakpoints in x (those
    outside the range below are dropped; the first panel beyond the
    outermost one reaches to infinity, as there).  The substituted
    range is clipped to |log x| <= 64, i.e. x in [e^-64, e^64]; outside
    it the integrand is treated as zero.  Every density/kernel pairing in
    this package is identically zero in double precision well inside
    that envelope, and the clip keeps naive power-times-density
    integrands evaluable (x^j stays finite there for j <= 11; compose
    more extreme products in exponent space).
    """
    return _lone(_half_line(lambda x, _: f(x), _one(points)))
