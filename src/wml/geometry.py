"""Differential-geometric diagnostics of the joint feature map.

The joint map F(theta, lambda) sends model parameters and kernel
parameters to the feature vector of weak moments.  Its Jacobian
decomposes into a model block D_theta F (the immersion differential;
its Gram matrix is the distributional metric tensor) and a kernel block
D_lambda F (the supplementary directions the kernel contributes).  All
verdicts here are finite linear algebra on that matrix:

* submersivity: rank [D_theta F | D_lambda F] equals the number of
  features, which implies transversality to every stratum at once;
* the component-wise criterion: a stratum is a level set {y : g(y) = 0}
  of a submersion g, so its normal space is the row space of Dg; project
  both blocks onto that space and check the stacked projections have
  rank equal to the stratum's codimension;
* rank enrichment: joint rank minus model rank counts the independent
  directions contributed by kernel variation alone.

Derivatives are analytic: each Jacobian entry pairs the kernel with a
model score or a kernel parameter derivative, in closed form for a
Gaussian density pairing and as an integral otherwise, with its own
error estimate.  A grid is two arrays, theta (N, p) and lambda (N, q):
its box checks are array comparisons, its points enter their passes as
parameter columns, and its Jacobians come back as one stacked report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .features import FeatureMapSpec, FeatureVector, _pairing_pass
from .models import ModelFamily, Unsupported, _columns

__all__ = [
    "StepUnderflow",
    "DimensionMismatch",
    "MetricOverflow",
    "JacobianReport",
    "MetricTensor",
    "RankReport",
    "StratumSpec",
    "StratumVerdict",
    "TransversalityReport",
    "ThresholdReport",
    "CollisionCandidate",
    "jacobian",
    "metric_tensor",
    "numerical_rank",
    "transversality_check",
    "codimension_thresholds",
    "injectivity_probe",
]

_RANK_TOL = 1e-10
_INTERSECTION_TOL = 1e-8  # a point this close to a stratum lies on it
# injectivity_probe's iteration cap; a pair stops once its step is below _PROBE_STEP
# of the box widths, its damping above _PROBE_DAMPING or |r|^2 below _PROBE_FLOOR tol^2
_PROBE_ITERATIONS, _PROBE_STEP, _PROBE_DAMPING, _PROBE_FLOOR = 60, 1e-6, 1e8, 1e-4


class StepUnderflow(Exception):
    """The point is not strictly inside its parameter box."""


class DimensionMismatch(Exception):
    """Inconsistent shapes between Jacobian, strata and feature vector."""


class MetricOverflow(ValueError):
    """The metric tensor G = D^T D is not finite."""


@dataclass(frozen=True)
class JacobianReport:
    """Derivative of the joint feature map at one point or N stacked ones,
    every entry's error estimate, and the feature values from the same
    pass (for N points, (N, K+1) and one paths tuple per point)."""

    d_theta: np.ndarray        # ([N,] K+1, p)
    d_lambda: np.ndarray       # ([N,] K+1, q)
    error_estimates: np.ndarray  # ([N,] K+1, p + q)
    features: FeatureVector | None = None

    @property
    def joint(self) -> np.ndarray:
        return np.concatenate((self.d_theta, self.d_lambda), axis=-1)


@dataclass(frozen=True)
class MetricTensor:
    """First fundamental form G = (D_theta F)^T (D_theta F)."""

    matrix: np.ndarray
    det: float
    condition_number: float
    correlation_det: float


@dataclass(frozen=True)
class RankReport:
    singular_values: np.ndarray
    rank: int
    tol_used: float


@dataclass(frozen=True)
class StratumSpec:
    """A degeneracy stratum in feature space: the level set {y : g(y) = 0}
    of a submersion g: R^{K+1} -> R^codim, whose differential ``dg(y)``
    is a (codim, K+1) matrix of full row rank.  The normal space at y is
    the row space of Dg; ``normal_basis`` returns orthonormal rows
    spanning it.  The factories build a coordinate level set {y_i = v},
    an affine stratum {y : A (y - y0) = 0} and a sphere {|y - y0| = r}.
    """

    name: str
    codim: int
    g: Callable
    dg: Callable

    @staticmethod
    def coordinate(index: int, value: float, name: str | None = None) -> "StratumSpec":
        return StratumSpec(name or f"y[{index}]={value:g}", 1,
                           lambda y: np.array([y[index] - value]), lambda y: np.eye(y.size)[[index]])

    @staticmethod
    def affine(matrix, base, name: str = "affine") -> "StratumSpec":
        a = np.atleast_2d(np.asarray(matrix, dtype=float))
        if numerical_rank(a).rank < a.shape[0]:
            raise ValueError("affine stratum rows must be linearly independent")
        y0 = np.asarray(base, dtype=float)
        return StratumSpec(name, a.shape[0], lambda y: a @ (y - y0), lambda y: a)

    @staticmethod
    def sphere(center, radius: float, name: str | None = None) -> "StratumSpec":
        if radius <= 0.0:
            raise ValueError("sphere radius must be positive")
        y0 = np.asarray(center, dtype=float)

        def dg(y):
            d = y - y0
            nrm = np.linalg.norm(d)
            if nrm == 0.0:
                raise DimensionMismatch("sphere normal is undefined at the centre")
            return (d / nrm)[None, :]
        return StratumSpec(name or f"sphere(r={radius:g})", 1,
                           lambda y: np.array([np.linalg.norm(y - y0) - radius]), dg)

    def constraint(self, y) -> np.ndarray:
        return self.g(np.asarray(y, dtype=float))

    def normal_basis(self, y) -> np.ndarray:
        """The QR of Dg^T, with signs so that diag(R) > 0: each row keeps
        the sign of the Dg row it orthonormalises."""
        q, r = np.linalg.qr(self.dg(np.asarray(y, dtype=float)).T)
        return (q * np.sign(np.diag(r))).T


@dataclass(frozen=True)
class StratumVerdict:
    name: str
    status: str            # 'transversal' | 'non-transversal' | 'no-intersection'
    distance: float        # |g(y)|
    normal_rank: int       # rank of the stacked normal projections


@dataclass(frozen=True)
class TransversalityReport:
    submersive: bool
    model_rank: int
    joint_rank: int
    enrichment: int
    verdicts: tuple
    point: np.ndarray      # the feature-space evaluation point


@dataclass(frozen=True)
class ThresholdReport:
    """Codimension counting for p parameters and moment orders j_0..j_K."""

    p: int
    K: int
    identifiability_generic: bool   # K+1 > 2p
    info_regular_generic: bool      # K+1 > 2p-1
    self_intersection_codim: int    # K+1
    sigma1_codim: int               # K+1 - p + 1


@dataclass(frozen=True)
class CollisionCandidate:
    theta_1: np.ndarray
    theta_2: np.ndarray
    objective: float


def jacobian(fam: ModelFamily, kfam: ModelFamily, theta, lam,
             spec: FeatureMapSpec) -> JacobianReport:
    """Analytic Jacobian of the joint map at (theta, lam), which must lie
    strictly inside the family boxes; see
    :func:`wml.features.weak_moment_jacobian` for the integrals.  The
    family's parameters must be the model's own fields (as in every
    catalog family).  The feature values come from the same pass."""
    rep = _jacobians(fam, kfam, _points(fam, [theta]), _points(kfam, [lam]), spec)
    return JacobianReport(rep.d_theta[0], rep.d_lambda[0], rep.error_estimates[0],
                          FeatureVector(rep.features.values[0], rep.features.errors[0], rep.features.paths[0]))


def _points(fam: ModelFamily, z) -> np.ndarray:
    """The points ``z`` of ``fam`` as an (N, p) array (a point of one
    parameter may be a number); ``DimensionMismatch`` for a ragged grid
    or any other shape."""
    try:
        z = np.array(z, dtype=float)
    except ValueError:  # ragged
        z = np.empty((0, 0))
    z = z[:, None] if z.ndim == 1 and fam.p == 1 else z
    if z.ndim != 2 or z.shape[1] != fam.p:
        raise DimensionMismatch(f"family {fam.name} expects {fam.p} parameters at each of its points")
    return z


def _family_columns(fam: ModelFamily, z: np.ndarray):
    """The points ``z`` (N, p) of ``fam`` as columns (``models._columns``)
    of its spec at the first point, whose other fields they share;
    ``Unsupported`` unless the parameters are that spec's own fields."""
    first = fam.make(z[0])
    if any(getattr(first, name, None) != value for name, value in zip(fam.param_names, z[0].tolist())):
        raise Unsupported(f"family {fam.name}: parameters {fam.param_names} are not fields of {first}")
    return _columns(first, fam.param_names, z)


def _jacobians(fam: ModelFamily, kfam: ModelFamily, theta, lam, spec: FeatureMapSpec) -> JacobianReport:
    """:func:`jacobian` at every point of the grid theta (N, p), lam
    (N, q), arrays of those shapes (see ``_points``), each point checked
    as there by one array comparison per family, from stacked passes
    over their columns (see ``features._pairing_pass``): one report with
    the points on a leading axis."""
    grid = []
    for family, z in ((fam, theta), (kfam, lam)):
        box = np.array(family.box)
        inside = (box[:, 0] < z) & (z < box[:, 1])
        if not inside.all():
            i, col = np.argwhere(~inside)[0]
            raise StepUnderflow(f"point {z[i, col]} is not interior to the box [{box[col, 0]}, {box[col, 1]}]")
        grid.append(_family_columns(family, z))
    route, v, e = _pairing_pass(*grid, spec, (None, *fam.param_names), kfam.param_names)
    return JacobianReport(v[..., 1:fam.p + 1], v[..., fam.p + 1:], e[..., 1:],
                          FeatureVector(v[..., 0], e[..., 0], ((route,) * len(spec.orders),) * len(v)))


def metric_tensor(report: JacobianReport) -> MetricTensor:
    """Gram matrix of the model block, with determinant, condition number
    (computed from the singular values of D_theta F) and the determinant
    of the correlation-normalised tensor; ``MetricOverflow`` if G or its
    determinant overflows.  Blocks stacked (N, K+1, p) give a stack of
    tensors, and arrays of numbers, from one batched det and SVD."""
    d = report.d_theta
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g = np.swapaxes(d, -1, -2) @ d
        g = 0.5 * (g + np.swapaxes(g, -1, -2))
        det = np.linalg.det(g)
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(det))):
            raise MetricOverflow("metric tensor G = D^T D or its determinant is not finite")
        sv = np.linalg.svd(d, compute_uv=False)
        top, least = (sv[..., 0], sv[..., -1]) if sv.shape[-1] else (np.zeros(sv.shape[:-1]),) * 2
        cond = np.where(least == 0.0, np.inf, (top / least) ** 2)
        # normalise by sqrt(diag) on each side: diag_i * diag_j may overflow
        root = np.sqrt(np.diagonal(g, axis1=-2, axis2=-1))
        corr = np.linalg.det(g / (root[..., :, None] * root[..., None, :]))
    corr_det = np.where(np.all(root > 0.0, axis=-1), corr, 0.0)
    if d.ndim == 2:
        det, cond, corr_det = float(det), float(cond), float(corr_det)
    return MetricTensor(matrix=g, det=det, condition_number=cond, correlation_det=corr_det)


def numerical_rank(matrix, errors=None) -> RankReport:
    """Rank by singular-value thresholding at the larger of
    _RANK_TOL * sigma_max * max(m, n) and |E|_F, the Frobenius norm of
    the entries' error estimates ``errors``: by Weyl's inequality a
    singular value moves by at most |E|_2 <= |E|_F, so one at or below
    that floor may be zero.  A stack (..., m, n) of matrices and errors
    gives arrays of ranks and thresholds, from one batched SVD."""
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    if not np.isfinite(a).all():
        raise ValueError("matrix must be finite")
    sv = np.linalg.svd(a, compute_uv=False)
    smax = np.max(sv, axis=-1, initial=0.0)
    floor = 0.0 if errors is None else np.sqrt(np.square(np.atleast_2d(errors)).sum(axis=(-2, -1)))
    tol = np.maximum(_RANK_TOL * smax * max(a.shape[-2:]), floor)
    rank = (sv > tol[..., None]).sum(axis=-1)
    return RankReport(sv, int(rank), float(tol)) if a.ndim == 2 else RankReport(sv, rank, tol)


def transversality_check(report: JacobianReport, strata, y) -> TransversalityReport:
    """Transversality verdicts for the joint map at one evaluation point.

    Model and joint ranks count only singular values above the entries'
    error estimates (see :func:`numerical_rank`).  If the joint Jacobian
    is surjective (rank K+1) every stratum verdict
    is 'transversal'.  Otherwise each stratum within ``_INTERSECTION_TOL``
    of the point is tested by the component-wise criterion: stack the
    projections of the model and kernel blocks onto the stratum's normal
    space and require rank equal to the codimension.  Strata the point
    does not touch report 'no-intersection' (transversality is vacuous).
    """
    yv = np.asarray(y.values if isinstance(y, FeatureVector) else y, dtype=float)
    n_feat = report.d_theta.shape[0]
    if yv.size != n_feat:
        raise DimensionMismatch(f"feature point has size {yv.size}, Jacobian has {n_feat} rows")

    joint = report.joint
    p = report.d_theta.shape[1]
    model_rank = numerical_rank(report.d_theta, report.error_estimates[:, :p]).rank
    joint_rank = numerical_rank(joint, report.error_estimates).rank
    submersive = joint_rank == n_feat

    verdicts = []
    for stratum in strata:
        g = stratum.constraint(yv)
        if g.size != stratum.codim:
            raise DimensionMismatch(f"stratum {stratum.name}: constraint size != codim")
        dist = float(np.linalg.norm(g))
        if dist > _INTERSECTION_TOL:
            verdicts.append(StratumVerdict(stratum.name, "no-intersection", dist, 0))
            continue
        normal = stratum.normal_basis(yv)
        if normal.shape[1] != n_feat:
            raise DimensionMismatch(f"stratum {stratum.name}: normal basis has wrong width")
        projected = normal @ joint
        nrank = numerical_rank(projected, np.abs(normal) @ report.error_estimates).rank
        status = "transversal" if (submersive or nrank == stratum.codim) else "non-transversal"
        verdicts.append(StratumVerdict(stratum.name, status, dist, nrank))

    return TransversalityReport(
        submersive=submersive,
        model_rank=model_rank,
        joint_rank=joint_rank,
        enrichment=joint_rank - model_rank,
        verdicts=tuple(verdicts),
        point=yv,
    )


def codimension_thresholds(p: int, K: int) -> ThresholdReport:
    """Moment-count thresholds from codimension counting.

    The self-intersection stratum has codimension K+1 (> 2p makes a
    transversal map generically injective); the rank-drop stratum has
    codimension K+1-p+1 (K+1 > 2p-1 makes the metric generically
    non-singular everywhere).  Both inequalities are strict.
    """
    if p < 1 or K < 0:
        raise ValueError("need p >= 1 and K >= 0")
    n_feat = K + 1
    return ThresholdReport(
        p=p,
        K=K,
        identifiability_generic=n_feat > 2 * p,
        info_regular_generic=n_feat > 2 * p - 1,
        self_intersection_codim=n_feat,
        sigma1_codim=n_feat - p + 1,
    )


def injectivity_probe(fam: ModelFamily, kernel, spec: FeatureMapSpec,
                      n_starts: int = 8, separation: float = 0.5,
                      tol: float = 1e-4, seed: int = 0) -> list:
    """Numerical search for feature-map collisions (a Type-I detector).

    From ``n_starts`` random parameter pairs at least ``separation``
    apart, Levenberg-Marquardt minimises |r|^2, r = Phi(theta_1) -
    Phi(theta_2), by one stacked pass per iteration over both points of
    every live pair (value and model columns only: no kernel box).  A
    pair on the separation bound whose step would close it steps along
    the bound instead.  A step is clipped into the box, pushed apart by
    :func:`_separate`, and kept if |r|^2 falls.  Pairs ending below
    tol^2 are returned with |r|^2; an empty list means no collision was
    found (a probe, not a proof).  The family's parameters must be fields of its model.
    """
    if separation <= 0.0:
        raise ValueError("separation must be positive")
    rng = np.random.default_rng(seed)
    lo, hi = np.array(fam.box, dtype=float).T
    widths, starts = hi - lo, []
    for _ in range(n_starts):
        for _ in range(200):
            pair = lo + widths * rng.random((2, fam.p))
            if np.linalg.norm(pair[0] - pair[1]) >= separation:
                starts.append(pair)
                break
    if not starts:
        return []
    trial = np.array(starts)  # (pair, point, parameter)
    n, k = trial.shape[0], len(spec.orders)
    pairs, r, jac, obj = trial.copy(), np.empty((n, k)), np.empty((n, k, 2 * fam.p)), np.full(n, np.inf)
    # the starts' pass counts as a kept step, which divides the damping by 10
    damping, live, idx = np.full(n, 1e-2), np.ones(n, dtype=bool), np.arange(n)
    for _ in range(_PROBE_ITERATIONS + 1):
        _, rows, _ = _pairing_pass(_family_columns(fam, trial.reshape(-1, fam.p)), kernel,
                                   spec, (None, *fam.param_names), ())
        rows = rows.reshape(idx.size, 2, k, 1 + fam.p)
        r_new = rows[:, 0, :, 0] - rows[:, 1, :, 0]
        obj_new = np.einsum("nk,nk->n", r_new, r_new)
        down = (obj_new < obj[idx]) & (np.linalg.norm(trial[:, 0] - trial[:, 1], axis=1) >= separation)
        keep = idx[down]
        pairs[keep], r[keep], obj[keep] = trial[down], r_new[down], obj_new[down]
        jac[keep] = np.concatenate((rows[down, 0, :, 1:], -rows[down, 1, :, 1:]), axis=2) * np.tile(widths, 2)
        damping[idx] *= np.where(down, 0.1, 10.0)
        live &= (damping <= _PROBE_DAMPING) & (obj >= _PROBE_FLOOR * tol * tol)
        idx = np.flatnonzero(live)
        step, top = _lm_step(jac[idx], r[idx], damping[idx])
        step = step.reshape(-1, 2, fam.p)
        # a pair on the separation bound whose step would close it slides
        # along the bound: the bound's normal (d, -d), in box widths, is
        # projected out of J and the step solved again
        d = pairs[idx, 0] - pairs[idx, 1]
        slide = (np.linalg.norm(d, axis=1) <= separation * (1.0 + 1e-6)) & \
            (np.linalg.norm(d - (step[:, 0] - step[:, 1]) * widths, axis=1) < separation)
        if slide.any():
            normal = np.concatenate((d, -d), axis=1)[slide] * np.tile(widths, 2)
            normal /= np.linalg.norm(normal, axis=1, keepdims=True)
            along = jac[idx[slide]] - np.einsum("nkm,nm,ni->nki", jac[idx[slide]], normal, normal)
            step[slide] = _lm_step(along, r[idx[slide]], damping[idx[slide]], top[slide])[0].reshape(-1, 2, fam.p)
        trial = _separate(np.clip(pairs[idx] - step * widths, lo, hi), pairs[idx], lo, hi, separation)
        moved = np.any(np.abs(trial - pairs[idx]) > _PROBE_STEP * widths, axis=(1, 2))
        live[idx] = moved
        idx, trial = idx[moved], trial[moved]
        if idx.size == 0:
            break
    return [CollisionCandidate(t1, t2, float(o)) for (t1, t2), o in zip(pairs, obj) if o < tol * tol]


def _lm_step(jac, r, damping, top=None):
    """The least-squares steps argmin |r + J d|^2 + mu |d|^2, mu = damping
    top^2, from the SVD of each J, and top, J's largest singular value
    unless given: a zero singular value takes no step."""
    u, sv, vt = np.linalg.svd(jac, full_matrices=False)
    top = sv[:, :1] if top is None else top
    gain = np.divide(sv, sv * sv + damping[:, None] * top**2, out=np.zeros_like(sv), where=sv > 0.0)
    return np.einsum("nmi,nm->ni", vt, gain * np.einsum("nkm,nk->nm", u, r)), top


def _separate(pairs, before, lo, hi, separation):
    """Push each pair closer than ``separation`` apart about its midpoint, to a
    hair over it, along its line, or its line in ``before`` if its points meet
    or cross (a swap only reflects the pair); the midpoint stays in the box."""
    d, d_before = pairs[:, 0] - pairs[:, 1], before[:, 0] - before[:, 1]
    u = np.where(np.einsum("ni,ni->n", d, d_before)[:, None] > 0.0, d, d_before)
    half = 0.5 * separation * (1.0 + 1e-9) * u / np.linalg.norm(u, axis=1, keepdims=True)
    mid = np.clip(0.5 * (pairs[:, 0] + pairs[:, 1]), lo + np.abs(half), hi - np.abs(half))
    close = np.linalg.norm(d, axis=1)[:, None, None] < separation
    return np.clip(np.where(close, np.stack((mid + half, mid - half), axis=1), pairs), lo, hi)
