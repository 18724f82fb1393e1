"""Distributional models and the Gaussian kernel family.

A model is a small frozen value object describing one member of the
catalog: Gaussian, Cauchy, log-normal, the Stieltjes perturbation of the
log-normal, and a symmetric stable law (characteristic-function-only for
alpha outside {1, 2}).  Scalar operations (density, characteristic
function, classical moments, classical Fisher information) dispatch on
the variant; models without a usable density raise ``NoDensity`` so
callers can fall back to the characteristic-function route.

The kernel is always a normalised Gaussian window

    phi(x) = (2 pi s^2)^(-1/2) exp(-(x - c)^2 / (2 s^2)),

with strictly positive scale ``s`` and centre ``c`` (default 0); it
integrates to one and decays fast enough that x^j phi(x) is bounded for
every j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Union

import numpy as np

from .quad import IntegralResult, integrate_half_line, integrate_real_line

__all__ = [
    "NoDensity",
    "OutOfSupport",
    "Unsupported",
    "Undefined",
    "Gaussian",
    "Cauchy",
    "LogNormal",
    "StieltjesLogNormal",
    "SymmetricStable",
    "ModelSpec",
    "ModelFamily",
    "KernelSpec",
    "KernelFamily",
    "support",
    "density",
    "char_fn",
    "classical_moment",
    "classical_fisher_info",
    "kernel_eval",
    "gaussian_family",
    "cauchy_family",
    "lognormal_family",
    "stieltjes_family",
    "stable_family",
    "scale_kernel_family",
    "scale_center_kernel_family",
    "canonical_family",
]

_SQRT_2PI = np.sqrt(2.0 * np.pi)


class NoDensity(Exception):
    """The model has no usable density (characteristic-function-only)."""


class OutOfSupport(Exception):
    """A density was requested outside the model's support."""


class Unsupported(Exception):
    """The requested operation is not available for this variant."""


class Undefined(Exception):
    """The classical moment diverges or does not exist."""


def _require_finite(spec):
    """ValueError naming the first field of the dataclass ``spec`` that is
    infinite or NaN."""
    for field in fields(spec):
        value = getattr(spec, field.name)
        if not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value}")


@dataclass(frozen=True)
class Gaussian:
    mu: float
    sigma: float

    def __post_init__(self):
        _require_finite(self)
        if not (self.sigma > 0.0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class Cauchy:
    mu: float = 0.0

    def __post_init__(self):
        _require_finite(self)


@dataclass(frozen=True)
class LogNormal:
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        _require_finite(self)
        if not (self.sigma > 0.0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class StieltjesLogNormal:
    """Heyde's family (1 + a sin(2 pi log x)) dLogNormal(0,1): every member
    shares the log-normal's classical moments."""

    a: float

    def __post_init__(self):
        if not (-1.0 <= self.a <= 1.0):
            raise ValueError(f"|a| must be <= 1, got {self.a}")


@dataclass(frozen=True)
class SymmetricStable:
    """Symmetric alpha-stable law with char fn exp(i u mu - |sigma u|^alpha).

    Densities are exposed only at the closed-form endpoints alpha = 1
    (Cauchy with scale sigma) and alpha = 2 (Gaussian with variance
    2 sigma^2); all other alpha are characteristic-function-only.
    """

    alpha: float
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        _require_finite(self)
        if not (0.0 < self.alpha <= 2.0):
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")
        if not (self.sigma > 0.0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")


ModelSpec = Union[Gaussian, Cauchy, LogNormal, StieltjesLogNormal, SymmetricStable]


def support(m: ModelSpec) -> str:
    """'real' or 'half' (the open positive half-line)."""
    if isinstance(m, (LogNormal, StieltjesLogNormal)):
        return "half"
    return "real"


def _gauss_pdf(x, mu, sigma):
    z = (x - mu) / sigma
    with np.errstate(over="ignore"):  # huge z*z -> exp(-inf) = 0, the right value
        return np.exp(-0.5 * z * z) / (_SQRT_2PI * sigma)


def _lognorm_pdf(x, mu, sigma):
    lx = np.log(x)
    z = (lx - mu) / sigma
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * z * z) / (x * sigma * _SQRT_2PI)


def density(m: ModelSpec, x):
    """Density of ``m`` at ``x`` (scalar or ndarray).

    Raises ``NoDensity`` for characteristic-function-only variants and
    ``OutOfSupport`` for x <= 0 on half-line models.
    """
    scalar = np.isscalar(x)
    xv = np.asarray(x, dtype=float)
    if support_has_density(m) and support(m) == "half" and np.any(xv <= 0.0):
        raise OutOfSupport(f"x must be positive for {type(m).__name__}")

    with np.errstate(over="ignore"):  # far-tail overflow collapses to the correct 0
        if isinstance(m, Gaussian):
            out = _gauss_pdf(xv, m.mu, m.sigma)
        elif isinstance(m, Cauchy):
            d = xv - m.mu
            out = 1.0 / (np.pi * (1.0 + d * d))
        elif isinstance(m, LogNormal):
            out = _lognorm_pdf(xv, m.mu, m.sigma)
        elif isinstance(m, StieltjesLogNormal):
            out = (1.0 + m.a * np.sin(2.0 * np.pi * np.log(xv))) * _lognorm_pdf(xv, 0.0, 1.0)
        elif m.alpha == 1.0:  # SymmetricStable
            d = xv - m.mu
            out = m.sigma / (np.pi * (m.sigma * m.sigma + d * d))
        elif m.alpha == 2.0:
            out = _gauss_pdf(xv, m.mu, m.sigma * np.sqrt(2.0))
        else:
            raise NoDensity(f"symmetric stable with alpha={m.alpha} is characteristic-function-only")
    return float(out) if scalar else out


def support_has_density(m: ModelSpec) -> bool:
    if isinstance(m, SymmetricStable):
        return m.alpha in (1.0, 2.0)
    return True


def char_fn(m: ModelSpec, u):
    """Characteristic function E[e^{iuX}] at ``u`` (scalar or ndarray).

    Closed forms for Gaussian, Cauchy and symmetric stable.  Raises
    ``Unsupported`` for the log-normal and the Stieltjes family, which
    have none (use the density route).
    """
    scalar = np.isscalar(u)
    uv = np.asarray(u, dtype=float)

    if isinstance(m, Gaussian):
        out = np.exp(1j * uv * m.mu - 0.5 * (m.sigma * uv) ** 2)
    elif isinstance(m, Cauchy):
        out = np.exp(1j * uv * m.mu - np.abs(uv))
    elif isinstance(m, SymmetricStable):
        out = np.exp(1j * uv * m.mu - np.abs(m.sigma * uv) ** m.alpha)
    else:
        raise Unsupported(f"{type(m).__name__} has no closed-form char fn; use the density route")
    return complex(out) if scalar else out


def classical_moment(m: ModelSpec, n: int) -> float:
    """Classical n-th moment E[X^n]; raises ``Undefined`` when divergent."""
    if n < 0 or int(n) != n:
        raise ValueError("moment order must be a nonnegative integer")
    n = int(n)
    if n == 0:
        return 1.0

    if isinstance(m, Gaussian):
        return _gaussian_moment(n, m.mu, m.sigma)
    if isinstance(m, Cauchy):
        raise Undefined("the Cauchy law has no finite moments of order >= 1")
    if isinstance(m, LogNormal):
        return float(np.exp(n * m.mu + 0.5 * (n * m.sigma) ** 2))
    if isinstance(m, StieltjesLogNormal):
        # moment-blind: identical to LogNormal(0, 1) for every a
        return float(np.exp(0.5 * n * n))
    # SymmetricStable
    if m.alpha == 2.0:
        return _gaussian_moment(n, m.mu, m.sigma * np.sqrt(2.0))
    if n == 1 and m.alpha > 1.0:
        return m.mu
    raise Undefined(f"stable law with alpha={m.alpha} has no finite moment of order {n}")


def _gaussian_moment(n, mu, sigma):
    # m_k = mu m_{k-1} + (k-1) sigma^2 m_{k-2}
    prev, cur = 1.0, mu
    for k in range(2, n + 1):
        prev, cur = cur, mu * cur + (k - 1) * sigma * sigma * prev
    return float(cur if n >= 1 else prev)


def _score(m: ModelSpec, which: str):
    """Analytic score function d/dtheta log f for the selected parameter."""
    if isinstance(m, Gaussian):
        if which == "location":
            return lambda x: (x - m.mu) / m.sigma**2
        if which == "scale":
            return lambda x: ((x - m.mu) ** 2 - m.sigma**2) / m.sigma**3
    elif isinstance(m, Cauchy):
        if which == "location":
            return lambda x: 2.0 * (x - m.mu) / (1.0 + (x - m.mu) ** 2)
    elif isinstance(m, LogNormal):
        if which == "location":
            return lambda x: (np.log(x) - m.mu) / m.sigma**2
        if which == "scale":
            return lambda x: ((np.log(x) - m.mu) ** 2 - m.sigma**2) / m.sigma**3
    elif isinstance(m, StieltjesLogNormal):
        if which == "a":
            return lambda x: np.sin(2.0 * np.pi * np.log(x)) / (1.0 + m.a * np.sin(2.0 * np.pi * np.log(x)))
    elif isinstance(m, SymmetricStable) and m.alpha == 1.0:
        if which == "location":
            return lambda x: 2.0 * (x - m.mu) / (m.sigma**2 + (x - m.mu) ** 2)
        if which == "scale":
            return lambda x: ((x - m.mu) ** 2 - m.sigma**2) / (m.sigma * (m.sigma**2 + (x - m.mu) ** 2))
    elif isinstance(m, SymmetricStable) and m.alpha == 2.0:
        # Gaussian with standard deviation sqrt(2) sigma: the scale score
        # carries the chain-rule factor sqrt(2)
        score = _score(Gaussian(m.mu, m.sigma * np.sqrt(2.0)), which)
        if which == "scale":
            return lambda x: np.sqrt(2.0) * score(x)
        return score
    raise ValueError(f"no '{which}' score for {type(m).__name__}")


def _charfn_score(m: ModelSpec, which: str):
    """d/dtheta log c(u) of a closed-form characteristic function."""
    if isinstance(m, (Gaussian, Cauchy, SymmetricStable)) and which == "location":
        return lambda u: 1j * u
    if isinstance(m, Gaussian) and which == "scale":
        return lambda u: -m.sigma * u * u
    if isinstance(m, SymmetricStable) and which == "scale":
        return lambda u: -m.alpha * m.sigma ** (m.alpha - 1.0) * np.abs(u) ** m.alpha
    raise Unsupported(f"no closed-form '{which}' derivative of the char fn of {type(m).__name__}")


_OFFSETS = np.array([-10.0, -6.0, -3.0, -1.0, 0.0, 1.0, 3.0, 6.0, 10.0])


def _model_points(m: ModelSpec) -> np.ndarray:
    """Quadrature breakpoints at the model's location +- {0, 1, 3, 6, 10}
    scales (placed in log x for the half-line models), so that the first
    panels see a narrow peak wherever it sits.  The points at 10 scales
    keep the panels next to the 6-scale ones short enough that their
    nodes sample the tails."""
    if isinstance(m, LogNormal):
        return np.exp(m.mu + m.sigma * _OFFSETS)
    if isinstance(m, StieltjesLogNormal):
        return np.exp(_OFFSETS)
    if isinstance(m, Cauchy):
        return m.mu + _OFFSETS
    return m.mu + m.sigma * _OFFSETS  # Gaussian, SymmetricStable


def _breakpoints(m: ModelSpec, k: KernelSpec) -> np.ndarray:
    """Breakpoints for a pairing of ``m`` with the window ``k``: the
    model's points and the window's centre +- {0, 1, 3, 6, 10} s."""
    return np.concatenate((_model_points(m), k.c + k.s * _OFFSETS))


def _integrate_support(m: ModelSpec, f, points, cfg=None) -> IntegralResult:
    """Integrate ``f`` over the support of ``m`` from breakpoints ``points``."""
    if support(m) == "half":
        return integrate_half_line(f, cfg, points)
    return integrate_real_line(f, cfg, points)


def classical_fisher_info(m: ModelSpec, which: str = "location") -> float:
    """Classical Fisher information for one parameter, by quadrature of
    score^2 * density over the model's support, with breakpoints at the
    model's location and scale."""
    if not support_has_density(m):
        raise NoDensity(f"{type(m).__name__} has no density to differentiate")
    score = _score(m, which)

    def f(x):
        dens = density(m, x)
        out = np.zeros_like(dens)
        nz = dens != 0.0
        out[nz] = score(x[nz]) ** 2 * dens[nz]
        return out
    return float(_integrate_support(m, f, _model_points(m)).value)


@dataclass(frozen=True)
class KernelSpec:
    """Normalised Gaussian kernel with scale s > 0 and centre c."""

    s: float
    c: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if not (self.s > 0.0):
            raise ValueError(f"kernel scale must be positive, got {self.s}")


def kernel_eval(k: KernelSpec, x, derivs: bool = False):
    """Kernel value phi(x); with ``derivs=True`` also the analytic
    partials (d/ds phi, d/dc phi)."""
    scalar = np.isscalar(x)
    xv = np.asarray(x, dtype=float)
    d = xv - k.c
    with np.errstate(over="ignore"):
        phi = np.exp(-0.5 * (d / k.s) ** 2) / (_SQRT_2PI * k.s)
    if not derivs:
        return float(phi) if scalar else phi
    ds = phi * (d * d - k.s * k.s) / k.s**3
    dc = phi * d / k.s**2
    if scalar:
        return float(phi), float(ds), float(dc)
    return phi, ds, dc


@dataclass(frozen=True)
class ModelFamily:
    """A parametric family theta -> ModelSpec with its probe box."""

    name: str
    param_names: tuple
    make: Callable
    box: tuple  # ((lo, hi), ...) per parameter

    @property
    def p(self) -> int:
        return len(self.param_names)

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("a family needs at least one parameter")
        if len(self.box) != self.p:
            raise ValueError("box must have one (lo, hi) pair per parameter")
        for lo, hi in self.box:
            if not (lo <= hi):
                raise ValueError(f"invalid box interval ({lo}, {hi})")


@dataclass(frozen=True)
class KernelFamily:
    """Kernel parameter family: scale-only (q = 1) or scale-and-centre (q = 2)."""

    mode: str = "scale"  # "scale" | "scale-center"
    box: tuple = ((0.05, 100.0),)
    fixed_c: float = 0.0

    def __post_init__(self):
        if self.mode not in ("scale", "scale-center"):
            raise ValueError(f"unknown kernel family mode {self.mode!r}")
        if len(self.box) != self.q:
            raise ValueError("box must have one (lo, hi) pair per kernel parameter")
        if self.box[0][0] <= 0.0:
            raise ValueError("kernel scale box must be strictly positive")

    @property
    def q(self) -> int:
        return 1 if self.mode == "scale" else 2

    @property
    def param_names(self):
        return ("s",) if self.mode == "scale" else ("s", "c")

    def make(self, lam) -> KernelSpec:
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        if lam.size != self.q:
            raise ValueError(f"expected {self.q} kernel parameters, got {lam.size}")
        if self.mode == "scale":
            return KernelSpec(s=float(lam[0]), c=self.fixed_c)
        return KernelSpec(s=float(lam[0]), c=float(lam[1]))


def gaussian_family() -> ModelFamily:
    return ModelFamily("gaussian", ("mu", "sigma"),
                       lambda th: Gaussian(float(th[0]), float(th[1])),
                       ((-5.0, 5.0), (0.05, 10.0)))


def cauchy_family() -> ModelFamily:
    return ModelFamily("cauchy", ("mu",),
                       lambda th: Cauchy(float(np.atleast_1d(th)[0])),
                       ((-5.0, 5.0),))


def lognormal_family() -> ModelFamily:
    return ModelFamily("lognormal", ("mu", "sigma"),
                       lambda th: LogNormal(float(th[0]), float(th[1])),
                       ((-3.0, 3.0), (0.1, 5.0)))


def stieltjes_family() -> ModelFamily:
    return ModelFamily("stieltjes", ("a",),
                       lambda th: StieltjesLogNormal(float(np.atleast_1d(th)[0])),
                       ((-1.0, 1.0),))


def stable_family(alpha: float) -> ModelFamily:
    return ModelFamily(f"stable(alpha={alpha:g})", ("mu", "sigma"),
                       lambda th, a=alpha: SymmetricStable(a, float(th[0]), float(th[1])),
                       ((-5.0, 5.0), (0.05, 10.0)))


def scale_kernel_family(lo: float = 0.05, hi: float = 1000.0, c: float = 0.0) -> KernelFamily:
    return KernelFamily("scale", ((lo, hi),), fixed_c=c)


def scale_center_kernel_family(s_box=(0.05, 1000.0), c_box=(-10.0, 10.0)) -> KernelFamily:
    return KernelFamily("scale-center", (tuple(s_box), tuple(c_box)))


def canonical_family(m: ModelSpec):
    """The canonical family containing ``m`` plus its parameter vector."""
    if isinstance(m, Gaussian):
        return gaussian_family(), np.array([m.mu, m.sigma])
    if isinstance(m, Cauchy):
        return cauchy_family(), np.array([m.mu])
    if isinstance(m, LogNormal):
        return lognormal_family(), np.array([m.mu, m.sigma])
    if isinstance(m, StieltjesLogNormal):
        return stieltjes_family(), np.array([m.a])
    return stable_family(m.alpha), np.array([m.mu, m.sigma])  # SymmetricStable
