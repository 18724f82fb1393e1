"""Weak moments, the feature map, and the objects derived from it.

The weak moment of order j pairs a model with the kernel:

    w_j = E[X^j phi(X)],

finite for every order and every model in the catalog because the
Gaussian window decays faster than any polynomial grows.  Two
evaluation routes are provided:

* the density route pairs x^j phi(x) with f(x), in one way per law
  (``models._frame``).  A Gaussian model times the window is w_0 N(m, w^2),
  so its w_j = w_0 E[Y^j], Y ~ N(m, w^2), and their Jacobian come in
  closed form, with no integral (``_gaussian_pairings``); where var + s^2
  is not a normal double it is refused (``Unsupported``).  The
  Lorentzians, the Cauchy and stable(1), are Voigt profiles: their w_j
  and Jacobian come from the trapezoidal rule in the window's coordinate
  z = (x - c) / s with the pole's correction, the Faddeeva function's
  moments, each entry with a propagated bound (``_lorentz_pairings``);
  a point that bound cannot certify is integrated over the line in z,
  and the half-line models in y = log x, with the law's density and
  scores in y (``models._log_density``), each from a first mesh placed
  on its own product (``models._breakpoints``);
* the characteristic-function route uses Parseval's identity.  With the
  forward transform Psi(u) = int psi(x) e^{-iux} dx and the model's
  char fn c(u) = E[e^{iuX}] = int f(x) e^{iux} dx, one has

      int f(x) psi(x) dx = (1 / 2 pi) int c(u) Psi(u) du
                         = (1 / pi) int_0^inf Re c(u) Psi(u) du,

  since f and psi are real, so c(-u) Psi(-u) is the conjugate of
  c(u) Psi(u).  The half-line is integrated over the line in v = log u,
  where the kink of a stable char fn exp(-|sigma u|^alpha) at u = 0 is
  smooth, with the Jacobian u folded into the integrand.  For
  psi(x) = x^j phi(x) with a Gaussian window the identity
  x phi = c phi - s^2 phi' gives the transforms Psi_j by a three-term
  recurrence: with a = c - i s^2 u,

      Psi_0 = exp(-iuc - s^2 u^2 / 2),  Psi_{j+1} = a Psi_j + j s^2 Psi_{j-1}.

A grid enters its pass as parameter columns (``models._columns``), and
its points share passes, each with a panel tree of its own, while one
vectorised call fills the rows of all their nodes (``_pairing_pass``).
The tilted law f phi / w_0 supplies weak cumulants; the boundedness of
x^j phi(x) supplies the influence bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from math import comb

import numpy as np

from .models import (
    KernelSpec,
    ModelFamily,
    ModelSpec,
    NoDensity,
    Undefined,
    Unsupported,
    _SQRT_2PI,
    _TINY,
    _breakpoints,
    _char_law,
    _char_power,
    _charfn_points,
    _charfn_score,
    _count,
    _frame,
    _log_density,
    _lorentz_width,
    _score,
    _take,
    _tilt,
    density,
    kernel_eval,
    support,
    support_has_density,
)
from .quad import _REL_TOL, NonConvergence, NonFiniteEvaluation, QuadratureError, _real_line

__all__ = [
    "FeatureMapSpec",
    "MomentEstimate",
    "FeatureVector",
    "WeakCumulants",
    "weak_moment",
    "feature_map",
    "weak_char_fn",
    "weak_cumulants",
    "weak_moment_jacobian",
    "moments_to_cumulants",
    "influence_value",
    "influence_bound",
]

_PATHS = ("density", "charfn", "auto")


@dataclass(frozen=True)
class FeatureMapSpec:
    """Which weak moments to evaluate and how."""

    orders: tuple
    path: str = "auto"

    def __post_init__(self):
        orders = tuple(int(j) for j in self.orders)
        object.__setattr__(self, "orders", orders)
        if len(orders) == 0:
            raise ValueError("at least one moment order is required")
        if any(j < 0 for j in orders):
            raise ValueError("moment orders must be nonnegative")
        if any(b <= a for a, b in zip(orders, orders[1:])):
            raise ValueError("moment orders must be strictly increasing")
        if self.path not in _PATHS:
            raise ValueError(f"path must be one of {_PATHS}, got {self.path!r}")


@dataclass(frozen=True)
class MomentEstimate:
    """One weak moment with its quadrature error and the route used."""

    value: float
    error: float
    path: str


@dataclass(frozen=True)
class FeatureVector:
    """Evaluated feature map: values w_{j_k} plus per-entry provenance."""

    values: np.ndarray
    errors: np.ndarray
    paths: tuple

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        e = np.asarray(self.errors, dtype=float)
        v.flags.writeable = False
        e.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "errors", e)


@dataclass(frozen=True)
class WeakCumulants:
    """Cumulants kappa_1..kappa_J of the kernel-tilted law f phi / w_0."""

    kappa: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.kappa, dtype=float)
        k.flags.writeable = False
        object.__setattr__(self, "kappa", k)


def weak_moment(m: ModelSpec, k: KernelSpec, j: int, spec: FeatureMapSpec | None = None) -> MomentEstimate:
    """Weak moment w_j = E[X^j phi(X)] with an error estimate.

    ``spec.path`` selects the route (its orders are ignored): 'density'
    integrates against the model density, 'charfn' uses Parseval with
    the window transform Psi_j, 'auto' takes the density route
    when the model has a density and the char-fn route otherwise.  The
    char-fn route needs a closed-form char fn; other models raise
    ``Unsupported`` there.
    """
    spec = FeatureMapSpec(orders=(j,)) if spec is None else replace(spec, orders=(j,))
    route, values, errors = _pairing_pass(m, k, spec, (None,), ())
    return MomentEstimate(float(values[0, 0, 0]), float(errors[0, 0, 0]), route)


def feature_map(fam: ModelFamily, theta, k: KernelSpec, spec: FeatureMapSpec) -> FeatureVector:
    """Evaluate the feature map theta -> (w_{j_0}, ..., w_{j_K})."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.size != fam.p:
        raise ValueError(f"family {fam.name} expects {fam.p} parameters, got {theta.size}")
    route, values, errors = _pairing_pass(fam.make(theta), k, spec, (None,), ())
    return FeatureVector(values[0, :, 0], errors[0, :, 0], (route,) * len(spec.orders))


# model parameter name -> the score it selects in models._score
_SCORE_NAMES = {"mu": "location", "sigma": "scale", "a": "a"}


def weak_moment_jacobian(m: ModelSpec, k: KernelSpec, model_params, kernel_params,
                         spec: FeatureMapSpec):
    """Derivatives of w_j, j in ``spec.orders``, with respect to the
    named fields of ``m`` (``model_params``, from 'mu', 'sigma', 'a') and
    of ``k`` (``kernel_params``, from 's', 'c'), with their error
    estimates: two (K+1, p+q) arrays, columns in the order named.

    All (K+1)(p+q) entries share one pass: in closed form for a Gaussian
    density pairing, else as integrals.  On the density route

        d/dtheta w_j = E[X^j phi(X) d/dtheta log f(X)],
        d/dlambda w_j = E[X^j d/dlambda phi(X)];

    on the char-fn route the Parseval pairing differentiates c(u) in
    closed form (d/dtheta c = c d/dtheta log c), and the window transform
    by Leibniz's rule on Psi_j = (i d/du)^j Psi_0, which reaches back to
    lower orders only:

        d/dc Psi_j = j Psi_{j-1} - iu Psi_j,
        d/ds Psi_j = s (j (j-1) Psi_{j-2} - 2iju Psi_{j-1} - u^2 Psi_j).

    The route follows ``spec.path`` as in :func:`weak_moment`.
    """
    _, values, errors = _pairing_pass(m, k, spec, model_params, kernel_params)
    return values[0], errors[0]


# first-mesh values per integrand call (15 nodes a panel, times the rows),
# and closed-form values per call (a Gaussian's one a row, a Lorentzian's
# node values times 4 arrays): the points are cut into calls of at most
# this many, so that a call's arrays stay a few MB however many points it holds
_CALL_VALUES = 2**17


def _pairing_pass(models, kernels, spec, model_params, kernel_params):
    """The rows of the pairing of each point of the columns ``models`` and
    ``kernels`` (``models._columns``; a spec is one point, or beside
    columns one shared by all): for each order j in ``spec.orders``, one
    row per entry of ``model_params`` (None: w_j itself; a name: d/dtheta
    w_j) and one per entry of ``kernel_params``.  Returns the route, and
    the values and errors, (N, K+1, C) for N points, K+1 orders and C
    columns.

    The law (and alpha) fixes the route, and on the density route its
    ``models._frame``.  In 'z' and 'window' a closed form comes first, in
    calls of at most ``_CALL_VALUES`` values (a row of a point holds about
    one in ``_gaussian_pairings``, four node arrays in ``_lorentz_pairings``,
    orders up to ``_LORENTZ_TOP``); each call returns the points it took,
    the Gaussian's every point, the Lorentzian's those whose every entry it
    certifies (a bound at most ``quad._REL_TOL`` of |value| - bound).  The
    others are gathered (``models._take``) and integrated, each returned to
    its place, and share adaptive passes of at most ``_CALL_VALUES``
    first-mesh values (or one point): each point is a segment of its
    pass, from its own row of one ``models._breakpoints`` (or
    ``_charfn_points``) call, so it returns, bit for bit, what it returns
    alone, while each integrand call fills the rows of all its points'
    nodes at once (``models._take``).  A point that fails raises its
    error naming it, and for ``NonConvergence`` the order and column."""
    unknown = [name for name in model_params  # a field the law lacks has no score either
               if name is not None and (name not in _SCORE_NAMES or not hasattr(models, name))]
    unknown += [name for name in kernel_params if name not in ("s", "c")]
    if unknown:
        raise Unsupported(f"no analytic derivative for parameters {unknown}")
    if type(getattr(models, "alpha", None)) is np.ndarray and spec.path != "charfn":  # density branches on alpha
        raise Unsupported("alpha is a column on the char-fn route only")
    columns = [name or "value" for name in model_params] + list(kernel_params)
    width, n = len(spec.orders) * len(columns), _count(models, kernels)
    on_density = spec.path == "density" or (spec.path == "auto" and support_has_density(models))
    route, out = "density" if on_density else "charfn", np.empty((2, n, len(spec.orders), len(columns)))
    # at extreme orders x^j, Psi_j or M_j overflows (raised as
    # NonFiniteEvaluation), and a score may divide by 0 where f is 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        frame, todo = _frame(models) if on_density else "u", None
        try:
            if frame == "z" or frame == "window" and spec.orders[-1] <= _LORENTZ_TOP:
                closed, size = ((_gaussian_pairings, 1) if frame == "z"
                                else (_lorentz_pairings, 4 * _lorentz_grid(spec.orders)[3].size))
                per, taken = max(1, _CALL_VALUES // (size * width)), np.empty(n, bool)
                for at in range(0, n, per):
                    cut = slice(at, at + per)
                    ms, ks = (models, kernels) if per >= n else (_take(models, cut), _take(kernels, cut))
                    values, errors, took = closed(ms, ks, spec.orders, model_params, kernel_params)
                    if per >= n and (took is True or took.all()):  # every point, in input order
                        return route, values, errors
                    out[0, cut], out[1, cut], taken[cut] = values, errors, took
                if taken.all():
                    return route, out[0], out[1]
                if taken.any():  # only the points no closed form took are integrated
                    todo = np.flatnonzero(~taken)
                    models, kernels, n = _take(models, todo), _take(kernels, todo), len(todo)
            mesh = (_breakpoints if on_density else _charfn_points)(models, kernels)
            per = max(1, _CALL_VALUES // (15 * width * (mesh.shape[1] + 1)))
            for at in range(0, n, per):
                cut = slice(at, at + per)
                ms, ks = (models, kernels) if per >= n else (_take(models, cut), _take(kernels, cut))
                # every frame's variable runs over the line: z, y = log x, or
                # v = log u (the char-fn rows are even in u: their pairing is over u > 0)
                values, errors, _ = _real_line(
                    (_charfn_stack if frame == "u" else _density_stack)(ms, ks, spec.orders, model_params,
                                                                         kernel_params), mesh[cut])
                shape = (min(per, n - at), len(spec.orders), len(columns))  # rows run (order, column)
                if per >= n and todo is None:  # every point, in input order
                    return route, values.reshape(shape), errors.reshape(shape)
                out[:, cut if todo is None else todo[cut]] = values.reshape(shape), errors.reshape(shape)
        except QuadratureError as exc:
            order, col = divmod(getattr(exc, "component", 0), len(columns))
            what = f"order {spec.orders[order]}, column {columns[col]}" if isinstance(exc, NonConvergence) else ""
            raise _named(exc, frame, _take(ms, exc.segment), _take(ks, exc.segment), what) from None
    return route, out[0], out[1]


def _named(exc, frame, m, k, what):
    """``exc`` of a pass in ``frame``, naming ``what`` failed (if anything),
    the point ``m`` with ``k`` and a non-finite node in x (u on the char-fn route)."""
    if isinstance(exc, NonFiniteEvaluation) and frame != "z":
        at = k.c + k.s * exc.points if frame == "window" else np.exp(exc.points)
        exc = NonFiniteEvaluation(at, "u" if frame == "u" else "x")
    exc.args = (f"{exc}; {what + ', at ' if what else ''}{m} with {k}",)
    return exc


def _powers(x, orders, stop=32):
    """x^j for j in ``orders`` on a new first axis, by a running product
    (``x ** j`` takes libm's scalar pow at every negative x).  Past order
    ``stop`` it stops at the first non-finite power, as the char-fn
    recurrence does, or at the first power that is 0 at every node, as
    every higher one is."""
    out = np.empty((len(orders),) + x.shape)
    xj, j = 1.0, 0
    for i, order in enumerate(orders):
        while j < order and (j < stop or np.isfinite(xj).all() and np.any(xj)):
            xj, j = xj * x, j + 1
        out[i] = xj
    return out


def _density_stack(ms, ks, orders, model_params, kernel_params):
    """f(v, seg), the density-route rows of the points of columns ``ms``
    and ``ks`` of an integrated law (``models._frame``), each node's rows
    those of its own point ``seg`` (``models._take``): per order j, x^j phi
    f times each score d/dtheta log f (None: the value row), then x^j f
    d/dlambda phi, phi and d/dlambda log phi, (z^2 - 1) / s and z / s,
    from the window's z = (x - c) / s.  In the frame 'window' v is z and
    the rows carry dx/dz = s: s phi = exp(-z^2 / 2) / sqrt(2 pi); in
    'half' v is y = log x, x = e^y is formed once, and the law's density
    and scores are those in y (``models._log_density``, ``models._score``),
    which carry dx/dy = x.  Where e^y overflows phi is 0, as is each row."""
    window = support(ms) == "real"

    def f(v, seg):
        m, k = _take(ms, seg), _take(ks, seg)
        if window:
            z, x = v, k.s * v
            x += k.c
            phi = np.exp(-0.5 * z * z) / _SQRT_2PI
            dens, at = density(m, x), x
        else:
            x = np.exp(v)
            z = (x - k.c) / k.s
            phi = np.exp(-0.5 * z * z) / (_SQRT_2PI * k.s)
            dens, at = _log_density(m, v), v
        dphi = {"s": lambda: phi * (z * z - 1.0) / k.s, "c": lambda: phi * z / k.s}
        # x^j goes into phi before f: far out phi * f alone is subnormal, and
        # x^j and the score would magnify its rounding.  Where phi or f is
        # 0 the product is far below double range, while x^j alone may
        # overflow, so x^j is formed only where both are nonzero
        nz = (phi != 0.0) & (dens != 0.0)
        masked = not nz.all()
        xj = _powers(np.where(nz, x, 0.0) if masked else x, orders)
        base = xj * phi
        base *= dens
        rows = np.empty((len(orders), len(model_params) + len(kernel_params), v.size))
        for col, name in enumerate(model_params):
            if name is None:
                rows[:, col] = base
            else:
                np.multiply(base, _score(m, _SCORE_NAMES[name])(at), out=rows[:, col])
        for col, name in enumerate(kernel_params, len(model_params)):
            np.multiply(xj, dphi[name](), out=rows[:, col])
            rows[:, col] *= dens
        if masked:
            rows[..., ~nz] = 0.0
        return rows.reshape(-1, v.size)

    return f


_EPS, _SUBNORMAL = np.finfo(float).eps, float(np.nextafter(0.0, 1.0))
_LOG_PI = math.log(math.pi)
_ROUNDING = 20.0 * _EPS  # a closed-form entry's own, beside its M_j's (about 12 eps)


def _gaussian_pairings(m, k, orders, model_params, kernel_params):
    """(values, errors, True), (N, K+1, C) as in ``_pairing_pass``: Gaussian
    models ``m`` (of one type) and windows ``k``, every point in closed form:
    f phi = w_0 N(mean, width2) (``models._tilt``), so w_j = w_0 M_j with
    M_j = E[Y^j], Y = mean + width Z, M_{j+1} = mean M_j + j width2 M_{j-1}.
    A score is a polynomial in x - mu = mu_gap + width Z, and by Stein
    E[Y^j Z] = j width M_{j-1}, E[Y^j Z^2] = M_j + j (j-1) width2 M_{j-2}:
    d/dmu w_j = w_0 (mu_gap M_j + j width2 M_{j-1}) / var, d/dsd w_j =
    w_0 (S M_j + 2 mu_gap j width2 M_{j-1} + j (j-1) width2^2 M_{j-2}) / sd^3,
    S = mu_gap^2 + width2 - var = (var / T)^2 spread, and d/dsigma w_j =
    (sd / sigma) d/dsd w_j divides by var sigma; c and s likewise.
    The recurrence runs on mass M_j, e^-lift applied last, and past order
    32 stops at its first non-finite term, which every higher order gets,
    or once M_{j-1} and M_j are 0 at every point with |mean| + order
    width2 <= 3/4, where every higher term is 0.
    Its terms never cancel (M_j(-m) = (-1)^j M_j(m)), so each M_j's
    rounding bound runs beside it on |mean|, fed by the errors of mass,
    mean and width2 and by each step's rounding."""
    n, t = _count(m, k), _tilt(m, k)
    zero = np.zeros(n) if np.ndim(t.mean) else 0.0  # columns: every one n long, shared fields too
    w2, s2 = t.width2 + zero, k.s * k.s
    mean_err = _EPS * (4.0 * np.minimum(abs(t.mu_gap), abs(t.c_gap)) + 3.0 * abs(t.mean))  # with its rounding
    a, e = [zero, zero, t.mass + zero], [zero, zero, t.mass * t.mass_err + _SUBNORMAL + zero]  # M_{j-2, j-1, j}
    windows, j = [], 0
    for order in orders:
        while j < order and (j < 32 or (np.isfinite(a[2]).all() and np.isfinite(e[2]).all())):
            if j >= 32 and not (np.any(a[1]) or np.any(a[2])) and np.all(abs(t.mean) + order * w2 <= 0.75):
                # every later M is 0, and the bound contracts by 3/4 a step plus 2 subnormals
                bound = np.maximum(e[1], e[2]) + 8.0 * _SUBNORMAL
                a, e, j = [zero, zero, zero], [bound, bound, bound], order
                break
            jw2 = j * w2
            bound = abs(t.mean) * e[2] + jw2 * e[1] + mean_err * abs(a[2]) + 6.0 * _EPS * jw2 * abs(a[1])
            a, e = [a[1], a[2], t.mean * a[2] + jw2 * a[1]], [e[1], e[2], bound + 2.0 * _SUBNORMAL]
            j += 1
        windows.append(a + e + [j + zero])
    windows = np.array(windows)[:, None]  # (orders, 1, 7[, n])
    a, e, j = windows[:, :, :3], windows[:, :, 3:6] + _ROUNDING * abs(windows[:, :, :3]), windows[:, :, 6]
    # per column: the coefficients of M_j, j M_{j-1} and j (j-1) M_{j-2}, the
    # divisor and the absolute error of the first coefficient
    vshare, kshare = (t.var / t.total) * (t.var / t.total), (s2 / t.total) * (s2 / t.total)  # squares
    columns = {None: (1.0, 0.0, 0.0, 1.0, 0.0), "mu": (t.mu_gap, w2, 0.0, t.var, 0.0), "c": (t.c_gap, w2, 0.0, s2, 0.0),
               "sigma": (vshare * t.spread, 2.0 * t.mu_gap * w2, w2 * w2, t.var * m.sigma, vshare * t.spread_err),
               "s": (kshare * t.spread, 2.0 * t.c_gap * w2, w2 * w2, s2 * k.s, kshare * t.spread_err)}
    k0, k1, k2, div, slack = (np.array([x + zero for x in col])  # (columns[, n])
                              for col in zip(*(columns[name] for name in (*model_params, *kernel_params))))
    scale = np.exp(-t.lift) / div
    values = (k0 * a[:, :, 2] + j * k1 * a[:, :, 1] + j * (j - 1.0) * k2 * a[:, :, 0]) * scale
    errors = (abs(k0) * e[:, :, 2] + j * abs(k1) * e[:, :, 1] + j * (j - 1.0) * abs(k2) * e[:, :, 0]
              + slack * abs(a[:, :, 2])) * scale + _SUBNORMAL
    values, errors = (x.reshape(len(orders), -1, n).transpose(2, 0, 1) for x in (values, errors))  # (n, K+1, C)
    finite = np.isfinite(values).all(axis=2) & np.isfinite(errors).all(axis=2)
    if not finite.all():  # the first point and order that overflowed; no integrand ran
        i, order = np.argwhere(~finite)[0]
        exc = NonFiniteEvaluation(np.atleast_1d(t.mean + zero)[i:i + 1], segment=int(i))
        exc.args = (f"the closed-form Gaussian pairing is not finite at order {orders[order]}",)
        raise exc
    return values, errors, True


_LORENTZ_TOP = 400  # the highest order in closed form: a higher order's grid runs to thousands of nodes
_ONE_OFF = np.array([-1.0, 1.0])[:, None, None]


@functools.lru_cache(maxsize=32)
def _lorentz_grid(orders):
    """The grid of ``_lorentz_pairings`` for ``orders``: the step h, the
    contour's height a = 2 pi / h, the first node's shift and the nodes'
    offsets from it, the orders j (K+1, 1) and, for the contour's and the
    tails' remainders, bounded by D (k (|c| + s R))^j, the arrays D, k, R."""
    top = orders[-1] + 2.0  # the highest degree of a row's polynomial in t
    h = math.floor(128.0 * math.pi / (math.sqrt(top + 1.0) + 11.0)) / 64.0
    far, reach = 2.0 * math.pi / h, math.sqrt(top) + 10.0
    offsets = (np.arange(math.ceil(2.0 * reach / h) + 2) + 0.5) * h
    j = np.array(orders, dtype=float)[:, None]
    nu = np.exp([[(math.lgamma(0.5 * order + 1.5) + 0.5 * (order + 2) * math.log(2.0) - 0.5 * math.log(math.pi))
                  / (order + 2.0)] for order in orders])  # the L^{j+2} norm of N(0, 1)
    # coef V^2 U^{j-1} (U + j s) <= coef V^2 (1 + j / R) U^j, U = |c| + s R, on the contour and past the reach
    coef = np.array([2.02 * math.exp(0.5 - 0.5 * far * far),
                     4.0 * math.exp(-0.5 * reach * reach) / (_SQRT_2PI * (1.0 - math.exp(-10.0 * h)))])[:, None, None]
    big = np.array([far + 1.0 + nu, reach + 0.0 * nu])
    first = j == 0.0
    return h, far, -reach / h - 0.5, offsets, j, (
        np.array([2.0 + far + nu, 1.0 + reach + 0.0 * nu]) ** 2 * (1.0 + j / big) * np.where(first, coef, 1.0),
        np.where(first, 1.0, coef ** (1.0 / np.maximum(j, 1.0))), big)


def _lorentz_pairings(m, k, orders, model_params, kernel_params):
    """(values, errors, certified) of Lorentzian models ``m`` (the Cauchy
    and stable(1), of width gamma, ``models._lorentz_width``) paired with
    windows ``k``: (N, K+1, C) as in ``_pairing_pass``, and whether each
    point's every entry is certified.  In the window's t = (x - c) / s the
    density is Im 1/(t - t0) / (pi s), t0 = x0 + i y0 = (mu - c + i gamma) / s,
    so with Z ~ N(0, 1) each row is Im (d/dsigma: Re) of M_Q = E[Q(Z) / (Z - t0)]
    (i sqrt(pi / 2) w(t0 / sqrt 2) for Q = 1, w the Faddeeva function) over
    pi s (w_j, Q = x^j) or pi s^2: Q = x^j t (d/dc), x^j (t^2 - 1) (d/ds),
    and j s x^{j-1} - t x^j (d/dmu, d/dsigma), by Stein's identity
    E[Q / (Z - t0)^2] = E[(Q' - t Q) / (Z - t0)].  Each M_Q is the
    trapezoidal sum with its pole's correction (Matta & Reichel 1971,
    Math. Comp. 25:339), the pole midway between two nodes,

        M_Q = h sum_n (Q N)(t_n) / (t_n - t0) + 2 pi i (Q N)(t0) / (e^{a y0} + 1),

    N the normal density, a = 2 pi / h = sqrt(J + 1) + 11 (to a 64th in h)
    for J = max order + 2 and the correction made where y0 < a.  Moving
    the contour to Im t = +-(a +- 1), a unit from the pole, leaves
    2.02 e^{(1 - a^2) / 2} times the mean of |Q| there (by Hoelder's
    inequality); the nodes cover |t| <= sqrt(J) + 10, and the tails past
    them are bounded geometrically.  Rounding is bounded at each node
    from the majorant of Q ((|c| + s |t|)^j for |x|^j), and x0's own by
    |Im 1/(t - t0)^2| = Im 1/(t - t0) 2 |t - x0| / |t - t0|^2.  An entry is
    certified when its bound is at most ``quad._REL_TOL`` times |value| -
    bound, a lower bound on its row's int |f|; an overflow never is.  The
    orders are at most ``_LORENTZ_TOP``, and the powers run in full at each
    node, so a point's entries do not depend on the other points."""
    names, n = (*model_params, *kernel_params), _count(m, k)
    h, far, start, offsets, j, extra = _lorentz_grid(orders)
    zero = np.zeros(n)
    mu, gamma, s, c = m.mu + zero, _lorentz_width(m) + zero, k.s + zero, k.c + zero
    x0, y0 = np.array((mu - c, gamma)) / s
    e = np.floor(x0 * (-1.0 / h) + start)[:, None] * h + offsets  # the nodes t, from Re t0
    t = x0[:, None] + e
    tt, tb = t * t, np.array((t, abs(t)))
    inv = 1.0 / (e * e + (y0 * y0)[:, None])  # 1 / |t - t0|^2
    w = np.exp(-0.5 * tt) * (y0 * (h / _SQRT_2PI))[:, None] * inv  # h N Im 1/(t - t0)
    ac = abs(c)
    xb = np.array((c, ac))[:, :, None] + s[:, None] * tb  # x and its majorant
    inside, y_in = y0 < far, np.minimum(y0, far)
    t0, a = x0 + 1j * y_in, mu + 1j * gamma
    pole = np.exp(-0.5 * t0 * t0 - np.logaddexp(far * y_in, 0.0)) * (inside * (2j * math.pi / _SQRT_2PI))
    pw, aj = _powers(xb, orders, _LORENTZ_TOP), a ** j
    rows, at_pole, held_pole, stein = [], [], [], None  # per column: Q and its majorant at the nodes and at t0
    for name in names:
        if name is None:
            rows.append(pw)
            at_pole.append(aj)
            held_pole.append(abs(aj))
        elif name in ("c", "s"):
            rows.append(pw * (tb if name == "c" else tt + _ONE_OFF))
            f = (t0, abs(t0)) if name == "c" else (t0 * t0 - 1.0, abs(t0) ** 2 + 1.0)
            at_pole.append(aj * f[0])
            held_pole.append(abs(aj) * f[1])
        else:  # d/dmu and d/dsigma share their Q, the Im and Re of one M_Q
            if stein is None:
                pl = _powers(xb, [max(order - 1, 0) for order in orders], _LORENTZ_TOP)
                al, js = a ** np.maximum(j - 1.0, 0.0), j * s
                stein = (js[:, None, :, None] * pl + tb * _ONE_OFF * pw, js * al - t0 * aj,
                         js * abs(al) + abs(t0) * abs(aj))
            for part, q in zip((rows, at_pole, held_pole), stein):
                part.append(q)
    # rounding per node, and x0's (3 ulp, 2x for |Q|) by |Im 1/(t - t0)^2| = Im 1/(t - t0) 2 |e| / |t - t0|^2
    u, shift = 0.5 * _EPS, abs(x0) * (6.0 * _EPS)
    kappa = u * (3.0 * orders[-1] + 28.0 + 2.0 * math.log2(offsets.size))
    wk = w * (kappa + (0.5 * u) * tt + shift[:, None] * abs(e) * inv)
    rows = np.array(rows) if len(rows) > 1 else rows[0][None]  # (C, K+1, (Q, |Q|), N, L)
    at_pole, held_pole = pole * np.array(at_pole), abs(pole) * np.array(held_pole)  # (C, K+1, N)
    value, bound = (rows[:, :, 0] * w).sum(-1) + at_pole.imag, (rows[:, :, 1] * wk).sum(-1)
    if "sigma" in names:  # Re 1/(t - t0) in place of Im, and both in its bound
        col, wr = names.index("sigma"), w * e / y0[:, None]
        value[col] = (rows[col][:, 0] * wr).sum(-1) + at_pole[col].real
        held = abs(wr) * (kappa + (0.5 * u) * tt) + (shift / y0)[:, None] * w
        bound[col] += (rows[col][:, 1] * held).sum(-1)
    r0 = abs(x0) + y0  # >= |t0|: the pole's rounding, of exp(-t0^2 / 2 - a y0), and x0's through N and Q
    bound += ((shift + u * y0 * r0 * (r0 + far)) / y0 + (kappa + u * (8.0 * orders[-1] + 16.0))) * held_pole
    bound += (extra[0] * (extra[1] * (ac + s * extra[2])) ** j).sum(0)
    scale = 1.0 / (math.pi * s)
    for col, name in enumerate(names):  # a derivative is over pi s^2
        if name is not None:
            value[col] /= s
            bound[col] /= s
    values, errors = (value * scale).transpose(2, 1, 0), (bound * scale).transpose(2, 1, 0)
    certified = (errors <= _REL_TOL * (abs(values) - errors)) & (abs(values) < np.inf)
    return values, errors, certified.all(axis=(1, 2))


def _charfn_stack(ms, ks, orders, model_params, kernel_params):
    """f(v, seg), the char-fn-route rows in v = log u of the points of
    columns ``ms`` and ``ks``, each node's rows those of its own point
    ``seg`` (``models._take``): per order j, Re T_j times each d/dtheta
    log c (None: the value row), then Re d/dlambda T_j, where
    T_j = u c Psi_j / pi.  Each row, the real part of the transform of a
    real function, is even in u: 1 / pi over (0, inf) is 1 / 2 pi over the
    line, and u = du/dv.  u = e^v is formed once, and c's h |sigma u|^alpha
    as h e^{alpha (v + log sigma)} (``models._char_power``, log sigma once
    a point), so T_0 = e^{v - h |sigma u|^alpha - s^2 u^2 / 2 + iu (mu - c)}
    / pi is one exponential.  Where it underflows to 0, so does every row,
    and u may overflow there: those nodes are computed at u = 0 and their
    rows set to 0.

    T_j follows the window-transform recurrence, as u c / pi is the same
    factor at every order, rolled up to the highest order with only the
    last three terms kept.  Past order 32 it stops at the first
    non-finite T_j, and every higher order gets that T_j's rows, so the
    engine raises at once rather than rolling on through inf/nan.
    """
    law = _char_law(ms)

    def f(v, seg):
        m, k = _take(ms, seg), _take(ks, seg)
        s2 = k.s * k.s
        u = np.exp(v)
        power = _char_power([x[seg] if type(x) is np.ndarray else x for x in law], v)
        lead = (v - _LOG_PI) - power - 0.5 * s2 * u * u  # log |T_0|
        live = lead > -746.0  # elsewhere T_0 is 0 (and u may be inf)
        masked = not live.all()
        if masked:
            u, lead = np.where(live, u, 0.0), np.where(live, lead, -np.inf)
        psi, a = np.empty(v.shape, complex), np.empty(v.shape, complex)  # T_0 and c - i s^2 u
        psi.real, psi.imag, a.real, a.imag = lead, u * (m.mu - k.c), k.c, -s2 * u
        psi = np.exp(psi, out=psi)
        scores = [None if name is None else _charfn_score(m, _SCORE_NAMES[name])(u, power) for name in model_params]
        iu = 1j * u
        older = old = np.zeros_like(psi)
        rows = np.empty((len(orders) * (len(scores) + len(kernel_params)), u.size))
        j, row = 0, 0
        for order in orders:
            while j < order and (j < 32 or np.isfinite(psi).all()):
                older, old, psi = old, psi, a * psi + j * s2 * old
                j += 1
            cols = [psi if score is None else score * psi for score in scores]
            for name in kernel_params:
                if name == "s":
                    cols.append(k.s * (j * (j - 1) * older - 2 * j * iu * old + iu * iu * psi))
                else:
                    cols.append(j * old - iu * psi)
            for z in cols:
                rows[row] = z.real
                row += 1
        if masked:
            rows[:, ~live] = 0.0
        return rows

    return f


def weak_char_fn(m: ModelSpec, k: KernelSpec, u: float) -> complex:
    """Weak characteristic function E[e^{iuX} phi(X)] of the density
    pairing (entire in u): for a Gaussian product w_0 N(mean, width2),
    w_0 exp(iu mean - width2 u^2 / 2) in closed form, with w_0 that of
    ``weak_moment``; else E[cos(uX) phi(X)] and E[sin(uX) phi(X)] as the
    one-row segments 0 and 1 of one adaptive pass over the line in the
    pairing's own variable (``models._frame``: z, or y = log x), each from
    its own breakpoints: each rounds as the w_0 pass does, so at u = 0 the
    real part is w_0 bit for bit.  A failure names its part, u and the
    point."""
    if not support_has_density(m):
        raise NoDensity(f"{type(m).__name__}: the weak char fn is computed on the density path")
    frame = _frame(m)
    if frame == "z":
        t, w0 = _tilt(m, k), _gaussian_pairings(m, k, (0,), (None,), ())[0][0, 0, 0]
        return complex(w0 * np.exp(1j * u * t.mean - 0.5 * t.width2 * u * u))
    rows = _density_stack(m, k, (0,), (None,), ())

    def f(v, seg):  # seg 0 is cos, 1 is sin; x = e^y may overflow where the row is 0
        row = rows(v, 0)[0]
        ux = u * np.where(row != 0.0, k.c + k.s * v if frame == "window" else np.exp(v), 0.0)
        return np.where(seg == 0, np.cos(ux), np.sin(ux)) * row

    mesh = _breakpoints(m, k)
    try:
        with np.errstate(over="ignore"):
            values, _, _ = _real_line(f, np.concatenate((mesh, mesh)))
    except QuadratureError as exc:
        raise _named(exc, frame, _take(m, 0), _take(k, 0), f"{('cos', 'sin')[exc.segment]} part at u={u}") from None
    return complex(values[0], values[1])


def moments_to_cumulants(raw: np.ndarray) -> np.ndarray:
    """Convert raw moments (m_1, ..., m_J) to cumulants (kappa_1, ..., kappa_J)
    by the standard recursion

        kappa_r = m_r - sum_{i=1}^{r-1} C(r-1, i-1) kappa_i m_{r-i}.
    """
    raw = np.asarray(raw, dtype=float)
    J = raw.size
    kappa = np.zeros(J)
    for r in range(1, J + 1):
        acc = raw[r - 1]
        for i in range(1, r):
            acc -= comb(r - 1, i - 1) * kappa[i - 1] * raw[r - i - 1]
        kappa[r - 1] = acc
    return kappa


def weak_cumulants(m: ModelSpec, k: KernelSpec, J: int) -> WeakCumulants:
    """Cumulants of the tilted probability f phi / w_0 up to order J <= 6;
    ``Undefined`` where w_0 is not a positive normal double."""
    if not (1 <= J <= 6):
        raise ValueError("cumulant order must lie in [1, 6]")
    if not support_has_density(m):
        raise NoDensity("weak cumulants need pointwise f phi (a density-bearing model)")
    w = _pairing_pass(m, k, FeatureMapSpec(orders=tuple(range(J + 1)), path="density"), (None,), ())[1][0, :, 0]
    if not _TINY <= w[0] < np.inf:
        raise Undefined(f"weak cumulants of {m} with {k}: w_0 = {w[0]:.3e} is not a positive normal double")
    return WeakCumulants(moments_to_cumulants(w[1:] / w[0]))


def influence_value(k: KernelSpec, j: int, x: float, w_j: float) -> float:
    """Influence function of the weak-moment functional at x: x^j phi(x) - w_j."""
    return float(_power_window(k, j, np.float64(x)) - w_j)


def influence_bound(k: KernelSpec, j: int) -> float:
    """sup_x |x^j phi(x)|, the worst-case contribution of one observation.

    Setting d/dx log|x^j phi(x)| = j / x - (x - c) / s^2 to zero gives
    x^2 - c x - j s^2 = 0; the supremum is the larger of |x^j phi(x)| at
    its two roots (for j = 0 the roots are c and 0, and the value phi(c)).
    """
    if j < 0:
        raise ValueError("order must be nonnegative")
    half_gap = 0.5 * np.sqrt(k.c * k.c + 4.0 * j * k.s * k.s)
    roots = 0.5 * k.c + np.array([half_gap, -half_gap])
    return float(np.max(np.abs(_power_window(k, j, roots))))


def _power_window(k: KernelSpec, j: int, x):
    """x^j phi(x) at a numpy float x or over an array: the product where
    x^j and phi are normal doubles, else, so that neither factor's range
    spoils it, exp(j log|x| + log phi) with the sign of x^j."""
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        xj, phi = x**j, kernel_eval(k, x)
        normal = (_TINY <= np.abs(xj)) & (np.abs(xj) < np.inf) & (phi >= _TINY)
        log = (j * np.log(np.abs(x)) if j else 0.0) - 0.5 * ((x - k.c) / k.s) ** 2 - np.log(_SQRT_2PI * k.s)
        return np.where(normal, xj * phi, np.copysign(np.exp(log), xj))
