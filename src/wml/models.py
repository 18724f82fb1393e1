"""Distributional models and the Gaussian kernel families.

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
every j.  Its parameter families are ``ModelFamily`` values like the
models': lambda = (s) or (s, c) -> ``KernelSpec``, each with its box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .quad import integrate_half_line, integrate_real_line

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
_TINY = float(np.finfo(float).tiny)
_EPS = np.finfo(float).eps
_SCALE_BOX, _CENTRE_BOX = (0.05, 1000.0), (-10.0, 10.0)  # the kernel families' boxes


class NoDensity(Exception):
    """The model has no usable density (characteristic-function-only)."""


class OutOfSupport(Exception):
    """A density was requested outside the model's support."""


class Unsupported(Exception):
    """The requested operation is not available for this variant."""


class Undefined(Exception):
    """The classical moment diverges or does not exist."""


# a field's admissible values beyond finiteness (elementwise over columns),
# and the error of a value outside them
_RANGES = {"sigma": (lambda v: v > 0.0, "sigma must be positive"),
           "s": (lambda v: v > 0.0, "kernel scale must be positive"),
           "a": (lambda v: abs(v) <= 1.0, "|a| must be <= 1"),
           "alpha": (lambda v: (0.0 < v) & (v <= 2.0), "alpha must lie in (0, 2]")}


def _check(spec):
    """ValueError naming the first field of the dataclass ``spec`` that is
    infinite or NaN, or else outside its range (``_RANGES``)."""
    fields = vars(spec).items()
    for name, value in fields:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    for name, value in fields:
        if name in _RANGES and not _RANGES[name][0](value):
            raise ValueError(f"{_RANGES[name][1]}, got {value}")


@dataclass(frozen=True)
class Gaussian:
    mu: float
    sigma: float

    __post_init__ = _check


@dataclass(frozen=True)
class Cauchy:
    mu: float = 0.0

    __post_init__ = _check


@dataclass(frozen=True)
class LogNormal:
    mu: float = 0.0
    sigma: float = 1.0

    __post_init__ = _check


@dataclass(frozen=True)
class StieltjesLogNormal:
    """Heyde's family (1 + a sin(2 pi log x)) dLogNormal(0,1): every member
    shares the log-normal's classical moments."""

    a: float

    __post_init__ = _check


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

    __post_init__ = _check


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
        ratio, gamma = _variance_ratio(m), _lorentz_width(m)
        if ratio is not None:
            out = _gauss_pdf(xv, m.mu, m.sigma * np.sqrt(ratio))
        elif gamma is not None:
            d = xv - m.mu
            out = gamma / (np.pi * (gamma * gamma + d * d))
        elif isinstance(m, LogNormal):
            out = _lognorm_pdf(xv, m.mu, m.sigma)
        elif isinstance(m, StieltjesLogNormal):
            out = (1.0 + m.a * np.sin(2.0 * np.pi * np.log(xv))) * _lognorm_pdf(xv, 0.0, 1.0)
        else:
            raise _no_density(m)
    return float(out) if scalar else out


def _no_density(m: SymmetricStable) -> NoDensity:
    return NoDensity(f"symmetric stable with alpha={m.alpha} is characteristic-function-only")


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
    elif isinstance(m, (Cauchy, SymmetricStable)):  # the Cauchy is stable(1) of sigma 1
        out = np.exp(1j * uv * m.mu - np.abs(getattr(m, "sigma", 1.0) * uv) ** getattr(m, "alpha", 1.0))
    else:
        raise _no_char_fn(m)
    return complex(out) if scalar else out


def _no_char_fn(m: ModelSpec) -> Unsupported:
    return Unsupported(f"{type(m).__name__} has no closed-form char fn; use the density route")


def classical_moment(m: ModelSpec, n: int) -> float:
    """Classical n-th moment E[X^n]; raises ``Undefined`` when divergent."""
    if n < 0 or int(n) != n:
        raise ValueError("moment order must be a nonnegative integer")
    n = int(n)
    if n == 0:
        return 1.0

    ratio = _variance_ratio(m)
    if ratio is not None:
        return _gaussian_moment(n, m.mu, m.sigma * np.sqrt(ratio))
    if isinstance(m, Cauchy):
        raise Undefined("the Cauchy law has no finite moments of order >= 1")
    if isinstance(m, LogNormal):
        return float(np.exp(n * m.mu + 0.5 * (n * m.sigma) ** 2))
    if isinstance(m, StieltjesLogNormal):
        # moment-blind: identical to LogNormal(0, 1) for every a
        return float(np.exp(0.5 * n * n))
    if n == 1 and m.alpha > 1.0:  # SymmetricStable
        return m.mu
    raise Undefined(f"stable law with alpha={m.alpha} has no finite moment of order {n}")


def _gaussian_moment(n, mu, sigma):
    # m_k = mu m_{k-1} + (k-1) sigma^2 m_{k-2}
    prev, cur = 1.0, mu
    for k in range(2, n + 1):
        prev, cur = cur, mu * cur + (k - 1) * sigma * sigma * prev
    return float(cur if n >= 1 else prev)


def _score(m: ModelSpec, which: str):
    """Analytic score function d/dtheta log f for the selected parameter;
    ``NoDensity`` for a characteristic-function-only model.  Powers of a
    field are products: a field and its column (``_take``) round alike."""
    ratio, gamma = _variance_ratio(m), _lorentz_width(m)
    if ratio is not None:
        # a Gaussian with standard deviation sd: stable(2) has sd = sqrt(2)
        # sigma, and its scale score carries the chain-rule factor sqrt(2)
        sd, chain = m.sigma * np.sqrt(ratio), np.sqrt(ratio)
        if which == "location":
            return lambda x: (x - m.mu) / (sd * sd)
        if which == "scale":
            return lambda x: chain * (((x - m.mu) ** 2 - sd * sd) / (sd * sd * sd))
    elif gamma is not None:  # the Cauchy has gamma = 1 and no scale
        if which == "location":
            return lambda x: 2.0 * (x - m.mu) / (gamma * gamma + (x - m.mu) ** 2)
        if which == "scale" and isinstance(m, SymmetricStable):
            return lambda x: ((x - m.mu) ** 2 - gamma * gamma) / (gamma * (gamma * gamma + (x - m.mu) ** 2))
    elif isinstance(m, LogNormal):
        if which == "location":
            return lambda x: (np.log(x) - m.mu) / (m.sigma * m.sigma)
        if which == "scale":
            return lambda x: ((np.log(x) - m.mu) ** 2 - m.sigma * m.sigma) / (m.sigma * m.sigma * m.sigma)
    elif isinstance(m, StieltjesLogNormal):
        if which == "a":
            return lambda x: np.sin(2.0 * np.pi * np.log(x)) / (1.0 + m.a * np.sin(2.0 * np.pi * np.log(x)))
    elif isinstance(m, SymmetricStable):
        raise _no_density(m)
    raise ValueError(f"no '{which}' score for {type(m).__name__}")


def _charfn_score(m: ModelSpec, which: str):
    """d/dtheta log c(u) of a closed-form characteristic function;
    ``Unsupported`` for a model that has none."""
    if isinstance(m, (LogNormal, StieltjesLogNormal)):
        raise _no_char_fn(m)
    if isinstance(m, (Gaussian, Cauchy, SymmetricStable)) and which == "location":
        return lambda u: 1j * u
    if isinstance(m, Gaussian) and which == "scale":
        return lambda u: -m.sigma * u * u
    if isinstance(m, SymmetricStable) and which == "scale":  # alpha sigma^(alpha - 1) |u|^alpha
        return lambda u: -m.alpha * np.abs(m.sigma * u) ** m.alpha / m.sigma
    raise Unsupported(f"no closed-form '{which}' derivative of the char fn of {type(m).__name__}")


_OFFSETS = np.array([-10.0, -6.0, -3.0, -1.0, 0.0, 1.0, 3.0, 6.0, 10.0])


def _model_points(m: ModelSpec) -> np.ndarray:
    """Breakpoints for ``classical_fisher_info``, at the model's location
    +- {0, 1, 3, 6, 10} scales sigma (1 where there is none: the Cauchy's
    width, the Stieltjes' N(0, 1)), in log x for the half-line models, so
    that the first panels see a narrow peak wherever it sits.  The points
    at 10 scales keep the panels next to the 6-scale ones short enough
    that their nodes sample the tails."""
    at = getattr(m, "mu", 0.0) + getattr(m, "sigma", 1.0) * _OFFSETS
    return np.exp(at) if support(m) == "half" else at


def _variance_ratio(m: ModelSpec):
    """var / sigma^2 of a Gaussian model, or None for any other: 1 for a
    Gaussian, 2 for stable(2), the Gaussian with variance 2 sigma^2."""
    if isinstance(m, Gaussian):
        return 1.0
    if isinstance(m, SymmetricStable) and m.alpha == 2.0:
        return 2.0
    return None


def _lorentz_width(m: ModelSpec):
    """gamma of a Lorentzian model, of density gamma / (pi (gamma^2 + (x - mu)^2)):
    1 for the Cauchy, sigma for stable(1); None for any other."""
    if isinstance(m, Cauchy) or isinstance(m, SymmetricStable) and m.alpha == 1.0:
        return getattr(m, "sigma", 1.0)
    return None


_SPLIT = 2.0**27 + 1.0  # Dekker's splitter for doubles


def _two_sum(a, b):
    """(s, e): s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _two_product(a, b):
    """(p, e): p = fl(a b) and p + e = a b exactly (Dekker), for a and b
    well inside the double range."""
    p = a * b
    ah, bh = _SPLIT * a, _SPLIT * b
    ah, bh = ah - (ah - a), bh - (bh - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


# the tilted mass is kept as mass e^-lift with mass normal: below this log
# mass the recurrence for w_j would start from a subnormal value, or nearly so
_LOG_LIFT = -600.0


@dataclass
class _Tilt:
    """A Gaussian model f, of variance ``var``, times the window phi, in
    closed form: f phi = w_0 N(mean, width2), w_0 = mass e^-lift, ``mass``
    within a relative ``mass_err``; ``mu_gap``, ``c_gap`` are mean - mu and
    mean - c, and ``spread`` is (c - mu)^2 - total, total = var + s^2, within
    ``spread_err``.  Each field is a scalar or a column (``_columns``)."""

    mean: float
    width2: float
    var: float
    total: float
    mu_gap: float
    c_gap: float
    spread: float
    spread_err: float
    mass: float
    mass_err: float
    lift: float


def _tilt(m: ModelSpec, k: KernelSpec) -> _Tilt:
    """The tilted law (``_Tilt``) of a Gaussian model under the window
    ``k`` (the frame 'z'), elementwise over the columns of points
    (``_columns``; scalar fields give the same bits); ``Unsupported``
    at the first point whose T = var + s^2 is not a normal double.

    log(mass e^-lift) = -(c - mu)^2 / 2T - log(2 pi T) / 2.  Its first
    term reaches 700 before the pairing underflows, where one rounding of
    it costs 1e-13 of every entry, so it is formed in double-double
    arithmetic, as is the spread, which cancels near its zero; lift > 0
    only where e^log_mass would be subnormal, or nearly so."""
    ratio = _variance_ratio(m)
    gap, gap_lo = _two_sum(k.c, -m.mu)
    square, square_lo = _two_product(gap, gap)
    square_lo += 2.0 * gap * gap_lo
    var, var_lo = _two_product(m.sigma, m.sigma)
    var, var_lo = ratio * var, ratio * var_lo
    s2, s2_lo = _two_product(k.s, k.s)
    total, total_lo = _two_sum(var, s2)
    bad = np.logical_not((_TINY <= total) & (total < np.inf))
    if _any(bad):
        i = int(np.argmax(bad))  # the first such point
        raise Unsupported(f"a Gaussian's var + s^2 is not a normal double, at {_take(m, i)} with {_take(k, i)}")
    total_lo += var_lo + s2_lo
    q = square / total  # (c - mu)^2 / T = q + q_lo
    p, p_lo = _two_product(q, total)
    q_lo = ((square - p) - p_lo + square_lo - q * total_lo) / total
    log_total = np.log(total)
    log_mass, lo = _two_sum(-0.5 * q, -0.5 * (log_total + math.log(2.0 * math.pi)))
    lift = np.ceil(np.minimum(np.maximum(_LOG_LIFT - log_mass, 0.0), 700.0))
    mass = np.exp(log_mass + lift)  # log_mass + lift is exact
    mass = np.where(mass > 0.0, mass * (1.0 + (lo - 0.5 * q_lo)), 0.0)  # q_lo is nan where gap^2 overflows
    mu_gap, c_gap = gap * var / total, -gap * s2 / total
    return _Tilt(mean=np.where(var <= s2, m.mu + mu_gap, k.c + c_gap),  # from the nearer of mu and c
                 width2=var * s2 / total, var=var, total=total, mu_gap=mu_gap, c_gap=c_gap,
                 spread=(square - total) + (square_lo - total_lo),
                 spread_err=4.0 * _EPS * _EPS * (square + total), mass=mass,
                 mass_err=_EPS * (8.0 + 2.0 * abs(log_total)), lift=lift)


# a first mesh for a factor exp(-z^2 / 2) in its own coordinate z (the
# log-normal in log x, a window in x): the factor times x^j and a score is
# resolved on it to 1e-10 for low orders, and the points at 10 widths
# close its tails
_Z_HALF = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0, 10.0])
_Z_MESH = np.concatenate((-_Z_HALF[::-1], [0.0], _Z_HALF))


def _frame(m: ModelSpec) -> str:
    """How a density pairing of the law ``m`` is evaluated: 'z', in closed
    form (``_tilt``), for a Gaussian; else integrated, in 'window', the
    window's z = (x - c) / s over the line, for a Lorentzian, or in
    'half', x over (0, inf); ``NoDensity`` for a law without a density."""
    if not support_has_density(m):
        raise _no_density(m)
    return "z" if _variance_ratio(m) is not None else "window" if support(m) == "real" else "half"


def _columns(first, names, z):
    """The points of a grid as one unchecked spec of the type of ``first``
    (a spec is one point): its fields ``names`` are the (N,) columns of
    ``z``, its others those of ``first``, shared (alpha may be a column on
    the char-fn route only).  The points are checked as ``_check`` checks
    one, by one comparison per field, and the first that fails raises its
    ``ValueError``, naming the field; one point is a spec of its own."""
    z = np.asarray(z, dtype=float)
    ok = np.logical_and.reduce(np.isfinite(z), axis=1)
    for name, column in zip(names, z.T):
        if name in _RANGES:
            ok &= _RANGES[name][0](column)
    if len(z) == 1 or not ok.all():  # the first point that fails raises its error
        return type(first)(**{**vars(first), **dict(zip(names, z[np.argmin(ok)].tolist()))})
    spec = object.__new__(type(first))
    vars(spec).update(vars(first), **dict(zip(names, z.T.copy())))  # each column contiguous
    return spec


def _count(*specs) -> int:
    """The number of points of columns (``_columns``)."""
    for spec in specs:
        for value in vars(spec).values():
            if type(value) is np.ndarray:
                return len(value)
    return 1


def _take(spec, index):
    """The points ``index`` (an index array, each node's segment, or a
    slice) of columns, for ``density``, ``char_fn``, the scores and
    ``kernel_eval`` to work on elementwise; a spec of no column as it is;
    for an int, that point as a spec of its own."""
    columns = {name: value[index] for name, value in vars(spec).items() if type(value) is np.ndarray}
    if isinstance(index, int):
        return type(spec)(**{name: float(value) for name, value in {**vars(spec), **columns}.items()})
    if not columns:
        return spec
    out = object.__new__(type(spec))
    vars(out).update(vars(spec), **columns)
    return out


# the first mesh of a window pairing, in z = (x - c) / s, whose half also
# places the char-fn route's points over 1 / s and 1 / sigma; and the points
# of a Lorentzian narrower than the window, about its centre in its own widths
_W_HALF = np.array([0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 10.0])
_W_MESH = np.concatenate((-_W_HALF[::-1], [0.0], _W_HALF))
_PEAK = np.array([-4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0])
_NO_TAIL = np.full(_PEAK.size, -np.inf)  # the peak's points are not tail points

# a Stieltjes pairing's own points in y = log x, and in x: the quarter
# periods of sin(2 pi y) over |y| <= 4, and its tails beyond them.  A window
# over (lo, hi) in y keeps the quarter periods out to the first beyond each
# end, lo < y + 1/4 and y - 1/4 < hi, and the tails within it: lo <= y <= hi,
# each from y's edge in _LOG_LOW or _LOG_HIGH
_LOG_POINTS = np.concatenate((np.arange(-16.0, 17.0) * 0.25, [-10.0, -8.0, -6.0, -5.0, 5.0, 6.0, 8.0, 10.0]))
_QUARTER, _LOG_POINTS_X = np.abs(_LOG_POINTS) <= 4.0, np.exp(_LOG_POINTS)
_LOG_LOW = np.where(_QUARTER, np.nextafter(_LOG_POINTS + 0.25, -np.inf), _LOG_POINTS)
_LOG_HIGH = np.where(_QUARTER, np.nextafter(_LOG_POINTS - 0.25, np.inf), _LOG_POINTS)


def _breakpoints(m: ModelSpec, k: KernelSpec):
    """Breakpoints for the density pairings of the points of columns ``m``
    and ``k`` (``_columns``) of a law in the ``_frame`` 'window' or 'half',
    in its variable, each placed on its own product f phi, a row a point:

    * the Lorentzians, the Cauchy and stable(1), in the window's
      z = (x - c) / s: ``_W_MESH``, the same for all; and for one
      narrower than the window (gamma / s < 0.7, ``_lorentz_width``) its
      own points (mu - c) / s + (gamma / s) ``_PEAK`` within |z| <= 10,
      and +-(gamma / s) 2^k, k >= 3, up to the window mesh's 0.5, which
      split its 1 / z^2 tails;
    * the Stieltjes family, N(0, 1) in y = log x: the quarter periods of
      sin(2 pi y) over |y| <= 4 and y = +-{5, 6, 8, 10} as far as the
      window reaches (c +- 10 s, in x > 0), and the window's points
      c + s ``_Z_MESH`` where its range in y is bounded (narrow there);
    * the log-normal, and a Stieltjes pairing with no quarter period in
      that range: y = mu + sigma ``_Z_MESH`` up to the window's reach, and
      the window's points in x > 0 (the pass drops x <= 0).

    Each block of candidates is one array expression, nan where a point
    does not keep one (``_rows``); a block no point keeps is skipped."""
    if support(m) == "real":
        width = _col(_lorentz_width(m) / k.s)
        narrow, blocks = width < 0.7, [(_W_MESH, True)]
        if _any(narrow):
            top = np.log2(0.5 / width) + 1.0  # the tail's exponents run 3, 4, ... below top
            exps = np.arange(3.0, np.maximum.reduce(top, axis=None))
            tail = 2.0 ** exps
            peak = _col((m.mu - k.c) / k.s) + width * np.concatenate((_PEAK, tail, -tail))
            below = np.concatenate((_NO_TAIL, exps, exps)) < top
            blocks.append((peak, narrow & below & (np.abs(peak) <= 10.0)))
        return _rows(_count(m, k), blocks)
    window = _col(k.c) + _col(k.s) * _Z_MESH
    start, end = _col(k.c - 10.0 * k.s), _col(k.c + 10.0 * k.s)  # the window's first and last points
    hi, blocks, rest = np.log(np.where(end > 0.0, end, np.inf)), [], True  # the window's reach in y
    if isinstance(m, StieltjesLogNormal):
        lo = np.log(np.maximum(start, _TINY))
        quarter = (end > 0.0) & (np.maximum(lo, -4.0) < np.minimum(hi, 4.0))  # its quarter periods in range
        if _any(quarter):
            blocks += [(_LOG_POINTS_X, quarter & (lo <= _LOG_LOW) & (_LOG_HIGH <= hi)),
                       (window, quarter & (start > 0.0))]
        rest = ~quarter
    if _any(rest):
        y = _col(getattr(m, "mu", 0.0)) + _col(getattr(m, "sigma", 1.0)) * _Z_MESH
        blocks += [(np.exp(y), rest & (y <= hi)), (window, rest)]
    return _rows(_count(m, k), blocks)


def _any(mask) -> bool:
    """Whether a mask over the points, a bool or a column, holds anywhere."""
    return mask.any() if type(mask) is np.ndarray else bool(mask)


def _col(v):
    """A field against a row of candidates: a column as (N, 1)."""
    return v[:, None] if type(v) is np.ndarray else v


def _rows(n: int, blocks):
    """The candidates of n points, a row each, nan where a point does not
    keep one, from blocks of (candidates, mask)."""
    out, at = np.empty((n, sum([block.shape[-1] for block, _ in blocks]))), 0
    for block, keep in blocks:
        out[:, at:at + block.shape[-1]] = block if keep is True else np.where(keep, block, np.nan)
        at += block.shape[-1]
    return out


_LEFT_TAIL = np.exp(-np.array([0.5, 1.0, 2.0, 3.0, 5.0, 7.5, 10.0, 16.0, 24.0]))


def _charfn_points(m: ModelSpec, k: KernelSpec):
    """Breakpoints in u > 0 for the char-fn pairing of each point of
    columns ``m`` and ``k``, a row each:
    {0.5, 1, 1.5, 2, 3, 4, 6, 10} over s, where the window transform
    decays, and over sigma (1 for a model without one, as the Cauchy),
    where the char fn decays; and the least of those times
    e^{-0.5, -1, -2, -3, -5, -7.5, -10, -16, -24}, for the left tail in
    log u, where the pairing levels off towards u = 0, close enough that
    the panels there converge on the first mesh."""
    sigma = _col(getattr(m, "sigma", 1.0))
    least = np.minimum(_W_HALF[0] / _col(k.s), _W_HALF[0] / sigma)  # the least decay point
    return _rows(_count(m, k), [(_W_HALF / _col(k.s), True), (_W_HALF / sigma, True), (least * _LEFT_TAIL, True)])


def classical_fisher_info(m: ModelSpec, which: str = "location") -> float:
    """Classical Fisher information for one parameter, by quadrature of
    score^2 * density over the model's support, with breakpoints at the
    model's location and scale."""
    score = _score(m, which)

    def f(x):
        dens = density(m, x)
        out = np.zeros_like(dens)
        nz = dens != 0.0
        out[nz] = score(x[nz]) ** 2 * dens[nz]
        return out
    integrate = integrate_half_line if support(m) == "half" else integrate_real_line
    return float(integrate(f, _model_points(m)).value)


@dataclass(frozen=True)
class KernelSpec:
    """Normalised Gaussian kernel with scale s > 0 and centre c."""

    s: float
    c: float = 0.0

    __post_init__ = _check


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
    ds = phi * (d * d - k.s * k.s) / (k.s * k.s * k.s)
    dc = phi * d / (k.s * k.s)
    if scalar:
        return float(phi), float(ds), float(dc)
    return phi, ds, dc


@dataclass(frozen=True)
class ModelFamily:
    """A parametric family theta -> ModelSpec (or, for the kernel
    families, lambda -> KernelSpec) with its probe box."""

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


def scale_kernel_family() -> ModelFamily:
    return ModelFamily("scale", ("s",),
                       lambda lam: KernelSpec(float(np.atleast_1d(lam)[0])),
                       (_SCALE_BOX,))


def scale_center_kernel_family() -> ModelFamily:
    return ModelFamily("scale-center", ("s", "c"),
                       lambda lam: KernelSpec(float(lam[0]), float(lam[1])),
                       (_SCALE_BOX, _CENTRE_BOX))


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
