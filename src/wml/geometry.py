"""Differential-geometric diagnostics of the joint feature map.

The joint map F(theta, lambda) sends model parameters and kernel
parameters to the feature vector of weak moments.  Its Jacobian
decomposes into a model block D_theta F (the immersion differential;
its Gram matrix is the distributional metric tensor) and a kernel block
D_lambda F (the supplementary directions the kernel contributes).  All
verdicts here are finite linear algebra on that matrix:

* submersivity: rank [D_theta F | D_lambda F] equals the number of
  features, which implies transversality to every stratum at once;
* the component-wise criterion: project both blocks onto the normal
  space of a stratum and check the stacked projections have full rank;
* rank enrichment: joint rank minus model rank counts the independent
  directions contributed by kernel variation alone.

Derivatives are analytic: each Jacobian entry is itself an integral
(the score of the model, or the kernel's parameter derivative, under
the same pairing), and all of them come from one adaptive quadrature
pass per point, each with its own error estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import FeatureMapSpec, FeatureVector, feature_map, weak_moment_jacobian
from .models import KernelFamily, ModelFamily, Unsupported

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

_EPS = np.finfo(float).eps


class StepUnderflow(Exception):
    """The point is not strictly inside its parameter box."""


class DimensionMismatch(Exception):
    """Inconsistent shapes between Jacobian, strata and feature vector."""


class MetricOverflow(ValueError):
    """The metric tensor G = D^T D is not finite."""


@dataclass(frozen=True)
class JacobianReport:
    """Derivative of the joint feature map at one point, with the
    quadrature error estimate of every entry."""

    d_theta: np.ndarray        # (K+1, p)
    d_lambda: np.ndarray       # (K+1, q)
    error_estimates: np.ndarray  # (K+1, p + q)

    @property
    def joint(self) -> np.ndarray:
        return np.hstack((self.d_theta, self.d_lambda))


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
    """A catalog degeneracy stratum in feature space.

    Supported kinds: 'coordinate' (the level set {y_i = v}), 'affine'
    ({y : A (y - y0) = 0} with A of full row rank c), and 'sphere'
    ({|y - y0| = r}).  ``constraint`` evaluates the defining map
    g: R^{K+1} -> R^c and ``normal_basis`` returns orthonormal rows
    spanning the normal space (the rows of Dg, orthonormalised).
    """

    kind: str
    name: str
    index: int = 0
    value: float = 0.0
    matrix: np.ndarray | None = None
    base: np.ndarray | None = None
    radius: float = 0.0

    @staticmethod
    def coordinate(index: int, value: float, name: str | None = None) -> "StratumSpec":
        return StratumSpec("coordinate", name or f"y[{index}]={value:g}", index=index, value=value)

    @staticmethod
    def affine(matrix, base, name: str = "affine") -> "StratumSpec":
        a = np.atleast_2d(np.asarray(matrix, dtype=float))
        if numerical_rank(a).rank < a.shape[0]:
            raise ValueError("affine stratum rows must be linearly independent")
        return StratumSpec("affine", name, matrix=a, base=np.asarray(base, dtype=float))

    @staticmethod
    def sphere(center, radius: float, name: str | None = None) -> "StratumSpec":
        if radius <= 0.0:
            raise ValueError("sphere radius must be positive")
        return StratumSpec("sphere", name or f"sphere(r={radius:g})",
                           base=np.asarray(center, dtype=float), radius=radius)

    @property
    def codim(self) -> int:
        if self.kind == "affine":
            return self.matrix.shape[0]
        return 1

    def constraint(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if self.kind == "coordinate":
            return np.array([y[self.index] - self.value])
        if self.kind == "affine":
            return self.matrix @ (y - self.base)
        if self.kind == "sphere":
            return np.array([np.linalg.norm(y - self.base) - self.radius])
        raise ValueError(f"unknown stratum kind {self.kind!r}")

    def normal_basis(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if self.kind == "coordinate":
            e = np.zeros((1, y.size))
            e[0, self.index] = 1.0
            return e
        if self.kind == "affine":
            q, _ = np.linalg.qr(self.matrix.T)
            return q.T[: self.matrix.shape[0]]
        if self.kind == "sphere":
            d = y - self.base
            nrm = np.linalg.norm(d)
            if nrm == 0.0:
                raise DimensionMismatch("sphere normal is undefined at the centre")
            return (d / nrm)[None, :]
        raise ValueError(f"unknown stratum kind {self.kind!r}")


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


def jacobian(fam: ModelFamily, kfam: KernelFamily, theta, lam,
             spec: FeatureMapSpec) -> JacobianReport:
    """Analytic Jacobian of the joint map at (theta, lam), which must lie
    strictly inside the family boxes; see
    :func:`wml.features.weak_moment_jacobian` for the integrals.  The
    family's parameters must be the model's own fields (as in every
    catalog family)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if theta.size != fam.p:
        raise DimensionMismatch(f"family {fam.name} expects {fam.p} parameters")
    if lam.size != kfam.q:
        raise DimensionMismatch(f"kernel family expects {kfam.q} parameters")
    for x, (lo, hi) in zip(np.concatenate((theta, lam)), tuple(fam.box) + tuple(kfam.box)):
        if not lo < x < hi:
            raise StepUnderflow(f"point {x} is not interior to the box [{lo}, {hi}]")

    m = fam.make(theta)
    if any(getattr(m, name, None) != value for name, value in zip(fam.param_names, theta)):
        raise Unsupported(f"family {fam.name}: parameters {fam.param_names} are not fields of {m}")
    full, errors = weak_moment_jacobian(m, kfam.make(lam), fam.param_names, kfam.param_names, spec)
    return JacobianReport(
        d_theta=full[:, : fam.p].copy(),
        d_lambda=full[:, fam.p:].copy(),
        error_estimates=errors,
    )


def metric_tensor(report: JacobianReport) -> MetricTensor:
    """Gram matrix of the model block, with determinant, condition number
    (computed from the singular values of D_theta F) and the determinant
    of the correlation-normalised tensor; ``MetricOverflow`` if G or its
    determinant overflows."""
    d = report.d_theta
    with np.errstate(over="ignore", invalid="ignore"):
        g = d.T @ d
        g = 0.5 * (g + g.T)
        det = float(np.linalg.det(g))
        if not (np.all(np.isfinite(g)) and np.isfinite(det)):
            raise MetricOverflow("metric tensor G = D^T D or its determinant is not finite")
        sv = np.linalg.svd(d, compute_uv=False)
        smin = sv[min(d.shape) - 1] if min(d.shape) > 0 else 0.0
        cond = float("inf") if smin == 0.0 else float((sv[0] / smin) ** 2)
    # normalise by sqrt(diag) on each side: diag_i * diag_j may overflow
    root = np.sqrt(np.diag(g))
    corr_det = float(np.linalg.det(g / np.outer(root, root))) if np.all(root > 0.0) else 0.0
    return MetricTensor(matrix=g, det=det, condition_number=cond, correlation_det=corr_det)


def numerical_rank(matrix, rel_tol: float = 1e-10) -> RankReport:
    """Rank by singular-value thresholding at rel_tol * sigma_max * max(m, n)."""
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix must be finite")
    sv = np.linalg.svd(a, compute_uv=False)
    smax = sv[0] if sv.size else 0.0
    if smax == 0.0:
        return RankReport(sv, 0, 0.0)
    tol = rel_tol * smax * max(a.shape)
    return RankReport(sv, int(np.sum(sv > tol)), float(tol))


def transversality_check(report: JacobianReport, strata, y,
                         rank_tol: float = 1e-10,
                         intersection_tol: float = 1e-8) -> TransversalityReport:
    """Transversality verdicts for the joint map at one evaluation point.

    If the joint Jacobian is surjective (rank K+1) every stratum verdict
    is 'transversal'.  Otherwise each stratum within ``intersection_tol``
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
    model_rank = numerical_rank(report.d_theta, rank_tol).rank
    joint_rank = numerical_rank(joint, rank_tol).rank
    submersive = joint_rank == n_feat

    verdicts = []
    for stratum in strata:
        g = stratum.constraint(yv)
        if g.size != stratum.codim:
            raise DimensionMismatch(f"stratum {stratum.name}: constraint size != codim")
        dist = float(np.linalg.norm(g))
        if dist > intersection_tol:
            verdicts.append(StratumVerdict(stratum.name, "no-intersection", dist, 0))
            continue
        normal = stratum.normal_basis(yv)
        if normal.shape[1] != n_feat:
            raise DimensionMismatch(f"stratum {stratum.name}: normal basis has wrong width")
        projected = normal @ joint
        nrank = numerical_rank(projected, rank_tol).rank
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
                      tol: float = 1e-4, seed: int = 0,
                      max_sweeps: int = 60) -> list:
    """Numerical search for feature-map collisions (a Type-I detector).

    From ``n_starts`` random parameter pairs at least ``separation``
    apart, the squared feature distance |Phi(theta_1) - Phi(theta_2)|^2
    is minimised by coordinate-wise pattern search with shrinking steps,
    rejecting moves that leave the box or violate the separation.  Pairs
    whose final objective falls below tol^2 are returned with their
    objectives; an empty list means no collision was found (a probe, not
    a proof).
    """
    if separation <= 0.0:
        raise ValueError("separation must be positive")
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in fam.box])
    hi = np.array([b[1] for b in fam.box])
    widths = hi - lo
    if np.linalg.norm(widths) < separation:
        return []

    cache: dict = {}

    def phi(theta_key):
        if theta_key not in cache:
            cache[theta_key] = feature_map(fam, np.array(theta_key), kernel, spec).values
        return cache[theta_key]

    def objective(z):
        t1 = tuple(np.round(z[: fam.p], 12))
        t2 = tuple(np.round(z[fam.p:], 12))
        d = phi(t1) - phi(t2)
        return float(np.dot(d, d))

    def admissible(z):
        t1, t2 = z[: fam.p], z[fam.p:]
        inside = np.all(t1 >= lo) and np.all(t1 <= hi) and np.all(t2 >= lo) and np.all(t2 <= hi)
        return inside and np.linalg.norm(t1 - t2) >= separation

    found = []
    for _ in range(n_starts):
        for _ in range(200):
            t1 = lo + widths * rng.random(fam.p)
            t2 = lo + widths * rng.random(fam.p)
            if np.linalg.norm(t1 - t2) >= separation:
                break
        else:
            continue
        z = np.concatenate((t1, t2))
        best = objective(z)
        step = 0.25 * np.concatenate((widths, widths))
        for _ in range(max_sweeps):
            improved = False
            for a in range(z.size):
                for sign in (+1.0, -1.0):
                    trial = z.copy()
                    trial[a] += sign * step[a]
                    if not admissible(trial):
                        continue
                    val = objective(trial)
                    if val < best:
                        z, best, improved = trial, val, True
                        break
            if not improved:
                step *= 0.5
                if np.max(step / np.maximum(widths, _EPS)) < 1e-6:
                    break
        if best < tol * tol:
            found.append(CollisionCandidate(z[: fam.p].copy(), z[fam.p:].copy(), best))
    return found
