"""Weak moments, the feature map, and the objects derived from it.

The weak moment of order j pairs a model with the kernel:

    w_j = E[X^j phi(X)],

finite for every order and every model in the catalog because the
Gaussian window decays faster than any polynomial grows.  Two
evaluation routes are provided:

* the density route integrates x^j phi(x) f(x) over the model support;
* the characteristic-function route uses Parseval's identity.  With the
  forward transform Psi(u) = int psi(x) e^{-iux} dx and the model's
  char fn c(u) = E[e^{iuX}] = int f(x) e^{iux} dx, one has

      int f(x) psi(x) dx = (1 / 2 pi) int c(u) Psi(u) du,

  and for psi(x) = x^j phi(x) with a Gaussian window the transform
  Psi_j is available in closed form as a complex polynomial times the
  transform of the window itself (a Hermite-derivative identity).

The tilted law f phi / w_0 supplies weak cumulants; the boundedness of
x^j phi(x) supplies the influence bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb

import numpy as np

from .models import (
    KernelSpec,
    ModelFamily,
    ModelSpec,
    NoDensity,
    Unsupported,
    _breakpoints,
    _charfn_score,
    _integrate_support,
    _score,
    char_fn,
    density,
    kernel_eval,
    support_has_density,
)
from .quad import QuadratureConfig, integrate_real_line

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


def _window_transform_coeffs(j: int, k: KernelSpec) -> np.ndarray:
    """Ascending coefficients of the polynomial P_j with

        Psi_j(u) = int x^j phi(x) e^{-iux} dx = P_j(u) exp(-iuc - s^2 u^2 / 2).

    Differentiating Psi_0 once per order gives the recursion
    P_{j+1} = (c - i s^2 u) P_j + i P_j'.
    """
    s2 = k.s * k.s
    p = np.array([1.0 + 0.0j])
    for _ in range(j):
        nxt = np.zeros(p.size + 1, dtype=complex)
        nxt[: p.size] += k.c * p
        nxt[1:] += -1j * s2 * p
        if p.size > 1:
            nxt[: p.size - 1] += 1j * p[1:] * np.arange(1, p.size)
        p = nxt
    return p


def _weak_moments(m: ModelSpec, k: KernelSpec, spec: FeatureMapSpec) -> FeatureVector:
    """w_j for every j in ``spec.orders``, all from one adaptive pass."""
    route, res = _pairing_pass(m, k, spec, [None], ())
    return FeatureVector(np.atleast_1d(res.value), np.atleast_1d(res.error_estimate),
                         (route,) * len(spec.orders))


def weak_moment(m: ModelSpec, k: KernelSpec, j: int, spec: FeatureMapSpec | None = None) -> MomentEstimate:
    """Weak moment w_j = E[X^j phi(X)] with an error estimate.

    ``spec.path`` selects the route (its orders are ignored): 'density'
    integrates against the model density, 'charfn' uses Parseval with
    the closed-form window transform, 'auto' takes the density route
    when the model has a density and the char-fn route otherwise.  The
    char-fn route needs a closed-form char fn; other models raise
    ``Unsupported`` there.
    """
    spec = FeatureMapSpec(orders=(j,)) if spec is None else replace(spec, orders=(j,))
    fv = _weak_moments(m, k, spec)
    return MomentEstimate(float(fv.values[0]), float(fv.errors[0]), fv.paths[0])


def feature_map(fam: ModelFamily, theta, k: KernelSpec, spec: FeatureMapSpec) -> FeatureVector:
    """Evaluate the feature map theta -> (w_{j_0}, ..., w_{j_K})."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.size != fam.p:
        raise ValueError(f"family {fam.name} expects {fam.p} parameters, got {theta.size}")
    return _weak_moments(fam.make(theta), k, spec)


# model parameter name -> the score it selects in models._score
_SCORE_NAMES = {"mu": "location", "sigma": "scale", "a": "a"}


def weak_moment_jacobian(m: ModelSpec, k: KernelSpec, model_params, kernel_params,
                         spec: FeatureMapSpec):
    """Derivatives of w_j, j in ``spec.orders``, with respect to the
    named fields of ``m`` (``model_params``, from 'mu', 'sigma', 'a') and
    of ``k`` (``kernel_params``, from 's', 'c'), with their error
    estimates: two (K+1, p+q) arrays, columns in the order named.

    Every entry is an integral, and all (K+1)(p+q) of them share one
    adaptive pass.  On the density route

        d/dtheta w_j = E[X^j phi(X) d/dtheta log f(X)],
        d/dlambda w_j = E[X^j d/dlambda phi(X)];

    on the char-fn route the Parseval pairing differentiates c(u) in
    closed form (d/dtheta c = c d/dtheta log c) and the window transform
    through d/dc Psi_j = (Psi_{j+1} - c Psi_j) / s^2 and
    d/ds Psi_j = (Psi_{j+2} - 2c Psi_{j+1} + (c^2 - s^2) Psi_j) / s^3.
    The route follows ``spec.path`` as in :func:`weak_moment`.
    """
    unknown = [name for name in model_params if name not in _SCORE_NAMES]
    unknown += [name for name in kernel_params if name not in ("s", "c")]
    if unknown:
        raise Unsupported(f"no analytic derivative for parameters {unknown}")
    _, res = _pairing_pass(m, k, spec, model_params, kernel_params)
    shape = (len(spec.orders), len(model_params) + len(kernel_params))
    return np.reshape(res.value, shape), np.reshape(res.error_estimate, shape)


def _pairing_pass(m, k, spec, model_params, kernel_params):
    """One adaptive pass over the rows of the pairing of ``m`` with ``k``:
    for each order j in ``spec.orders``, one row per entry of
    ``model_params`` (None: w_j itself; a name: d/dtheta w_j) and one per
    entry of ``kernel_params``.  Returns the route and the
    :class:`IntegralResult`."""
    on_density = spec.path == "density" or (spec.path == "auto" and support_has_density(m))
    route = "density" if on_density else "charfn"
    score_of = _score if route == "density" else _charfn_score
    scores = [None if name is None else score_of(m, _SCORE_NAMES[name]) for name in model_params]
    build = _density_rows if route == "density" else _charfn_rows
    # at extreme orders x^j, P_j or its coefficients overflow; the inf or
    # nan reaches the engine, which raises it as NonFiniteEvaluation
    with np.errstate(over="ignore", invalid="ignore"):
        f = build(m, k, spec.orders, scores, kernel_params)
        if route == "density":
            return route, _integrate_support(m, f, _breakpoints(m, k))
        return route, integrate_real_line(f, QuadratureConfig().oscillatory())


def _density_rows(m, k, orders, scores, kernel_params):
    """Density-route integrand: per order j, x^j phi f times each score
    (None: the value row x^j phi f), then x^j f d/dlambda phi."""
    powers = np.array(orders)[:, None]

    def integrand(x):
        if kernel_params:
            phi, dphi_ds, dphi_dc = kernel_eval(k, x, derivs=True)
        else:
            phi = kernel_eval(k, x)
        dens = density(m, x)
        base = phi * dens
        # multiply x^j only where the damped base is nonzero: at points where
        # phi * f underflows to 0 the true product is far below double range,
        # while x^j alone may overflow
        nz = base != 0.0
        xs = x[nz]
        cols = [base[nz] if score is None else base[nz] * score(xs) for score in scores]
        if kernel_params:
            dphi = {"s": dphi_ds, "c": dphi_dc}
            cols += [dphi[name][nz] * dens[nz] for name in kernel_params]
        out = np.zeros((powers.size, len(cols), x.size))
        out[:, :, nz] = (xs ** powers)[:, None, :] * np.array(cols)
        return out.reshape(-1, x.size)

    return integrand


def _charfn_rows(m, k, orders, scores, kernel_params):
    """Char-fn-route integrand: per order j, Re c Psi_j / 2 pi times each
    score (None: the value row), then Re c d/dlambda Psi_j / 2 pi."""
    s, c = k.s, k.c
    # the kernel columns reach Psi_{j+1} (d/dc) and Psi_{j+2} (d/ds)
    reach = 2 if kernel_params else 0
    coeffs = {i: _window_transform_coeffs(i, k) for j in orders for i in range(j, j + reach + 1)}

    def integrand(u):
        cf = char_fn(m, u)
        window = np.exp(-1j * u * c - 0.5 * s * s * u * u) / (2.0 * np.pi)
        psi = {i: np.polynomial.polynomial.polyval(u, p) * window for i, p in coeffs.items()}
        dcf = [cf if score is None else cf * score(u) for score in scores]
        rows = []
        for j in orders:
            rows += [d * psi[j] for d in dcf]
            for name in kernel_params:
                if name == "s":
                    rows.append(cf * (psi[j + 2] - 2.0 * c * psi[j + 1] + (c * c - s * s) * psi[j]) / s**3)
                else:
                    rows.append(cf * (psi[j + 1] - c * psi[j]) / (s * s))
        return np.real(rows)

    return integrand


def weak_char_fn(m: ModelSpec, k: KernelSpec, u: float) -> complex:
    """Weak characteristic function E[e^{iuX} phi(X)] by complex quadrature
    of the density pairing (entire in u)."""
    if not support_has_density(m):
        raise NoDensity(f"{type(m).__name__}: the weak char fn is computed on the density path")
    f = lambda x: np.exp(1j * u * x) * kernel_eval(k, x) * density(m, x)
    return complex(_integrate_support(m, f, _breakpoints(m, k), QuadratureConfig().oscillatory()).value)


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
    """Cumulants of the tilted probability f phi / w_0 up to order J <= 6."""
    if not (1 <= J <= 6):
        raise ValueError("cumulant order must lie in [1, 6]")
    if not support_has_density(m):
        raise NoDensity("weak cumulants need pointwise f phi (a density-bearing model)")
    spec = FeatureMapSpec(orders=tuple(range(J + 1)), path="density")
    w = _weak_moments(m, k, spec).values
    tilted = w[1:] / w[0]
    return WeakCumulants(moments_to_cumulants(tilted))


def influence_value(k: KernelSpec, j: int, x: float, w_j: float) -> float:
    """Influence function of the weak-moment functional at x: x^j phi(x) - w_j."""
    return float(x**j * kernel_eval(k, x) - w_j)


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
    return float(np.max(np.abs(roots**j * kernel_eval(k, roots))))
