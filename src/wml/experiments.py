"""Named end-to-end experiments with pass/fail metrics.

Each catalog entry reproduces one worked computation: the Stieltjes
moment cancellation and its kernel breaking, log-normal moments, Cauchy
Fisher information, the Cauchy/log-normal rank checks, the two-sample
Gaussian zeroth weak moment and its nuisance flattening, the
large-kernel-scale degradation of the metric tensor, the density-free
characteristic-function route, sinusoidal orthogonality, tilted
cumulants, and the moment-count thresholds.  Every experiment is
deterministic: fixed grids, no sampling, and no quadrature setting of
their own.

An experiment maps its tolerances to (metrics, checks, rows), and
``_CATALOG`` pairs it with its default tolerances.  Only
:func:`run_experiment` times a run, merges tolerance overrides and
builds the :class:`ExperimentResult`.  The two grid experiments
(log-normal immersion, singular limit) are :func:`sweep_kernel` calls,
so their table rows are sweep rows.

A note on the cancellation residuals: the integrals
int x^n sin(2 pi log x) dLogNormal vanish exactly, but their integrands
reach magnitude exp(n^2/2) (5e21 at n = 10), so 64-bit arithmetic can
only certify the cancellation relative to that scale: the best
achievable absolute residual is about exp(n^2/2) * 1e-16.  Each order's
integrand is therefore divided by exp(n^2/2), and the one pass over all
orders returns the scale-normalised residuals |I_n| / exp(n^2/2) that
are reported, with the raw values kept in the table.  The quadrature
needs no per-order setting for this: each row's target is rel_tol times
its own int |f|.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .features import (
    FeatureMapSpec,
    feature_map,
    weak_cumulants,
    weak_moment,
    weak_moment_jacobian,
)
from .geometry import (
    DimensionMismatch,
    MetricOverflow,
    StepUnderflow,
    codimension_thresholds,
    jacobian,
    metric_tensor,
    numerical_rank,
)
from .models import (
    Cauchy,
    Gaussian,
    KernelSpec,
    NoDensity,
    StieltjesLogNormal,
    Undefined,
    Unsupported,
    _score,
    cauchy_family,
    classical_fisher_info,
    density,
    gaussian_family,
    lognormal_family,
    scale_kernel_family,
    stable_family,
)
from .quad import QuadratureError, integrate_half_line, integrate_real_line

__all__ = [
    "UnknownExperiment",
    "EmptyGrid",
    "ExperimentResult",
    "run_experiment",
    "list_experiments",
    "sweep_kernel",
]

_SQRT_2PI = np.sqrt(2.0 * np.pi)

_NUMERIC_ERRORS = (QuadratureError, NoDensity, Unsupported, Undefined,
                   StepUnderflow, DimensionMismatch, MetricOverflow)


class UnknownExperiment(Exception):
    """The requested name is not in the catalog."""


class EmptyGrid(Exception):
    """A sweep was requested over an empty grid."""


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    metrics: dict
    passed: bool
    tolerances: dict
    runtime_seconds: float
    table: tuple = ()
    diagnostic: str = ""


def _lognorm_power_integrand(orders):
    """Rows x^n * LogNormal(0,1) density / e^{n^2/2}, one per order n, as
    a function of x.  Each row integrates to 1 (e^{n^2/2} is the n-th
    moment) and is evaluated through a single exponential of
    (n - 1) y - y^2 / 2 - n^2 / 2 with y = log x, so that no
    intermediate power of x can overflow."""
    n = np.asarray(orders, dtype=float)[:, None]

    def f(x):
        y = np.log(x)
        return np.exp((n - 1.0) * y - 0.5 * y * y - 0.5 * n * n) / _SQRT_2PI

    return f


def _stieltjes_cancellation(tol):
    orders = range(11)
    power = _lognorm_power_integrand(orders)
    res = integrate_half_line(lambda x: np.sin(2.0 * np.pi * np.log(x)) * power(x))
    rows = []
    for n, value in zip(orders, res.value.tolist()):
        moment_scale = float(np.exp(0.5 * n * n))
        rows.append({"n": n, "integral": value * moment_scale, "moment_scale": moment_scale,
                     "scaled_residual": abs(value)})
    metrics = {"max_scaled_residual": max(row["scaled_residual"] for row in rows)}
    checks = {"max_scaled_residual": metrics["max_scaled_residual"] < tol["max_scaled_residual"]}
    return metrics, checks, rows


def _stieltjes_kernel_break(tol):
    """The pairings J_n = int x^n phi_1(x) sin(2 pi log x) dLogNormal(0,1),
    n = 0..6, are the a-derivatives of the Stieltjes family's weak
    moments: the a-score times the family's density is
    sin(2 pi log x) LogNormal(0,1)(x) for every a."""
    spec = FeatureMapSpec(orders=tuple(range(7)), path="density")
    pairings, _ = weak_moment_jacobian(StieltjesLogNormal(0.0), KernelSpec(1.0), ("a",), (), spec)
    vals = [float(v) for v in pairings[:, 0]]
    rows = [{"n": n, "pairing": v} for n, v in enumerate(vals)]
    metrics = {"max_abs_pairing": max(abs(v) for v in vals)}
    checks = {"max_abs_pairing_min": metrics["max_abs_pairing"] > tol["max_abs_pairing_min"]}
    return metrics, checks, rows


def _lognormal_classical_moments(tol):
    orders = range(7)
    res = integrate_half_line(_lognorm_power_integrand(orders))
    rows = []
    for n, value in zip(orders, res.value.tolist()):
        expected = float(np.exp(0.5 * n * n))
        got = value * expected
        rows.append({"n": n, "quadrature": got, "closed_form": expected,
                     "rel_err": abs(got - expected) / expected})
    metrics = {"max_rel_err": max(row["rel_err"] for row in rows)}
    checks = {"max_rel_err": metrics["max_rel_err"] < tol["max_rel_err"]}
    return metrics, checks, rows


def _cauchy_fisher(tol):
    info = classical_fisher_info(Cauchy(0.0), "location")
    metrics = {"fisher_information": info, "abs_error": abs(info - 0.5)}
    checks = {"abs_error": metrics["abs_error"] < tol["abs_error"]}
    return metrics, checks, ()


def _cauchy_submersion(tol):
    """Joint 1x2 Jacobian of the Cauchy zeroth weak moment on a (mu, s) grid.

    The rank check uses the analytic Jacobian of the normalised-kernel
    pairing.  The positivity metric is the kernel
    window sensitivity E[X^2 phi_s(X)] / s^3, i.e. the derivative of the
    pairing when only the Gaussian window (not its normalisation) varies
    with s; that is the quantity whose strict positivity underwrites the
    rank-1 claim for a location family.
    """
    fam = cauchy_family()
    kfam = scale_kernel_family()
    spec = FeatureMapSpec(orders=(0,), path="density")
    mspec = FeatureMapSpec(orders=(2,), path="density")
    rows = []
    for mu in np.linspace(-2.0, 2.0, 5):
        for s in np.linspace(0.5, 4.0, 5):
            rep = jacobian(fam, kfam, [mu], [s], spec)
            rank = numerical_rank(rep.joint).rank
            w2 = weak_moment(Cauchy(mu), KernelSpec(s), 2, mspec).value
            sensitivity = w2 / s**3
            rows.append({"mu": float(mu), "s": float(s), "joint_rank": rank,
                         "d_mu": float(rep.d_theta[0, 0]),
                         "d_s": float(rep.d_lambda[0, 0]),
                         "scale_sensitivity": sensitivity})
    ranks = [row["joint_rank"] for row in rows]
    metrics = {"min_joint_rank": float(min(ranks)), "max_joint_rank": float(max(ranks)),
               "min_scale_sensitivity": min(row["scale_sensitivity"] for row in rows)}
    checks = {
        "joint_rank": metrics["min_joint_rank"] == tol["joint_rank"] == metrics["max_joint_rank"],
        "min_scale_sensitivity_min": metrics["min_scale_sensitivity"] > tol["min_scale_sensitivity_min"],
    }
    return metrics, checks, rows


def _lognormal_immersion(tol):
    thetas = [(mu, sigma) for mu in (-1.0, 0.0, 1.0) for sigma in (0.7, 1.0, 1.5)]
    rows = sweep_kernel(lognormal_family(), scale_kernel_family(),
                        FeatureMapSpec(orders=(0, 1), path="density"), [1.0], thetas)
    metrics = {"min_model_rank": float(min(row["model_rank"] for row in rows)),
               "min_joint_rank": float(min(row["joint_rank"] for row in rows)),
               "min_det_g": min(row["det_g"] for row in rows)}
    checks = {
        "model_rank": metrics["min_model_rank"] == tol["model_rank"],
        "joint_rank": metrics["min_joint_rank"] == tol["joint_rank"],
        "min_det_g_min": metrics["min_det_g"] > tol["min_det_g_min"],
    }
    return metrics, checks, rows


def _behrens_fisher_w0(tol):
    spec = FeatureMapSpec(orders=(0,), path="density")
    rows = []
    for mu in (0.0, 1.0, 2.0):
        for sigma in (0.5, 1.0, 2.0):
            for s in (1.0, 3.0, 10.0):
                got = weak_moment(Gaussian(mu, sigma), KernelSpec(s), 0, spec).value
                v = sigma * sigma + s * s
                closed = np.exp(-0.5 * mu * mu / v) / np.sqrt(2.0 * np.pi * v)
                rel = abs(got - closed) / closed
                rows.append({"mu": mu, "sigma": sigma, "s": s, "w0": got,
                             "closed_form": float(closed), "rel_err": rel})

    # nuisance flattening at fixed mu: the sigma-spread of w0 shrinks with s
    mu = 1.0
    spreads = {}
    for s in (1.0, 3.0, 10.0, 30.0):
        w0s = np.array([weak_moment(Gaussian(mu, sg), KernelSpec(s), 0, spec).value
                        for sg in np.linspace(0.5, 2.0, 7)])
        wbar = float(np.mean(w0s))
        spreads[s] = float(np.max(np.abs(w0s - wbar)) / wbar)
    spread_vals = [spreads[s] for s in (1.0, 3.0, 10.0, 30.0)]
    decreasing = all(a > b for a, b in zip(spread_vals, spread_vals[1:]))

    metrics = {"max_w0_rel_err": max(row["rel_err"] for row in rows),
               "spread_s1": spreads[1.0], "spread_s3": spreads[3.0],
               "spread_s10": spreads[10.0], "spread_s30": spreads[30.0],
               "nuisance_spread_decreasing": 1.0 if decreasing else 0.0}
    checks = {"max_w0_rel_err": metrics["max_w0_rel_err"] < tol["max_w0_rel_err"],
              "nuisance_spread_decreasing":
                  metrics["nuisance_spread_decreasing"] == tol["nuisance_spread_decreasing"]}
    return metrics, checks, rows


def _singular_limit(tol):
    """Metric degradation as the kernel scale grows toward the classical
    (constant-kernel) limit: det G decays to zero beyond s = 2 while the
    condition number climbs."""
    rows = sweep_kernel(gaussian_family(), scale_kernel_family(),
                        FeatureMapSpec(orders=(0, 1, 2), path="density"),
                        [1.0, 2.0, 5.0, 10.0, 30.0, 100.0], [(0.0, 1.0)])
    metrics = {}
    for row in rows:
        metrics[f"det_g_s{row['s']:g}"] = row["det_g"]
        metrics[f"cond_s{row['s']:g}"] = row["condition_number"]
    tail_dets = [row["det_g"] for row in rows[1:]]   # s >= 2
    tail_conds = [row["condition_number"] for row in rows[1:]]
    metrics["det_strictly_decreasing"] = 1.0 if all(
        a > b for a, b in zip(tail_dets, tail_dets[1:])) else 0.0
    metrics["cond_nondecreasing"] = 1.0 if all(
        a <= b for a, b in zip(tail_conds, tail_conds[1:])) else 0.0
    checks = {"det_strictly_decreasing":
                  metrics["det_strictly_decreasing"] == tol["det_strictly_decreasing"],
              "cond_nondecreasing": metrics["cond_nondecreasing"] == tol["cond_nondecreasing"]}
    return metrics, checks, rows


def _type0_charpath(tol):
    kernel = KernelSpec(s=1.0, c=0.0)
    rows = []

    # density-free route for a model with no closed-form density
    spec = FeatureMapSpec(orders=(0, 1, 2), path="charfn")
    values = feature_map(stable_family(1.5), [0.0, 1.0], kernel, spec).values
    for j, v in zip(spec.orders, values):
        rows.append({"model": "stable(1.5)", "j": j, "charfn_path": float(v),
                     "density_path": float("nan"), "rel_err": float("nan")})

    # alpha in {1, 2} twins against the closed-form densities
    twins = [
        ("stable(1)=cauchy", stable_family(1.0), [0.5, 1.0], cauchy_family(), [0.5]),
        ("stable(2)=gaussian", stable_family(2.0), [0.5, 1.0 / np.sqrt(2.0)],
         gaussian_family(), [0.5, 1.0]),
    ]
    cspec = FeatureMapSpec(orders=tuple(range(5)), path="charfn")
    dspec = FeatureMapSpec(orders=tuple(range(5)), path="density")
    errs = []
    for label, stable, stable_theta, twin, twin_theta in twins:
        via_char = feature_map(stable, stable_theta, kernel, cspec).values
        via_dens = feature_map(twin, twin_theta, kernel, dspec).values
        for j, vc, vd in zip(cspec.orders, via_char, via_dens):
            rel = abs(vc - vd) / abs(vd)
            errs.append(float(rel))
            rows.append({"model": label, "j": j, "charfn_path": float(vc),
                         "density_path": float(vd), "rel_err": float(rel)})

    metrics = {"max_twin_rel_err": max(errs),
               "stable15_all_finite": 1.0 if np.isfinite(values).all() else 0.0}
    checks = {"max_twin_rel_err": metrics["max_twin_rel_err"] < tol["max_twin_rel_err"],
              "stable15_all_finite": metrics["stable15_all_finite"] == 1.0}
    return metrics, checks, rows


def _sinusoidal_orthogonality(tol):
    mu, sigma = 0.3, 1.2
    model = Gaussian(mu, sigma)
    scale_score = _score(model, "scale")
    cs = (0.5, 1.0, 2.0)
    freqs = np.array(cs)[:, None]
    res = integrate_real_line(
        lambda x: np.sin(freqs * (x - mu)) * (scale_score(x) * density(model, x)))
    rows = [{"c": c, "abs_pairing": abs(v)} for c, v in zip(cs, res.value.tolist())]
    metrics = {"max_abs_pairing": max(row["abs_pairing"] for row in rows)}
    checks = {"max_abs_pairing": metrics["max_abs_pairing"] < tol["max_abs_pairing"]}
    return metrics, checks, rows


def _gaussian_tilted_cumulants(tol):
    mu, sigma = 0.7, 1.3
    kernel = KernelSpec(s=0.9, c=-0.4)
    kappa = weak_cumulants(Gaussian(mu, sigma), kernel, 4).kappa

    # the tilted law of a Gaussian under a Gaussian window is Gaussian
    var_tilt = 1.0 / (1.0 / sigma**2 + 1.0 / kernel.s**2)
    mean_tilt = var_tilt * (mu / sigma**2 + kernel.c / kernel.s**2)

    metrics = {
        "kappa1": float(kappa[0]), "kappa2": float(kappa[1]),
        "kappa1_rel_err": abs(kappa[0] - mean_tilt) / abs(mean_tilt),
        "kappa2_rel_err": abs(kappa[1] - var_tilt) / var_tilt,
        "abs_kappa3": abs(float(kappa[2])), "abs_kappa4": abs(float(kappa[3])),
    }
    checks = {key: metrics[key] < tol[key] for key in
              ("kappa1_rel_err", "kappa2_rel_err", "abs_kappa3", "abs_kappa4")}
    return metrics, checks, ()


def _thresholds(tol):
    rep = codimension_thresholds(3, 7)
    metrics = {
        "identifiability_generic": 1.0 if rep.identifiability_generic else 0.0,
        "info_regular_generic": 1.0 if rep.info_regular_generic else 0.0,
        "self_intersection_codim": float(rep.self_intersection_codim),
        "sigma1_codim": float(rep.sigma1_codim),
    }
    checks = {
        "identifiability_generic": metrics["identifiability_generic"] == 1.0,
        "info_regular_generic": metrics["info_regular_generic"] == 1.0,
        "self_intersection_codim":
            metrics["self_intersection_codim"] == tol["self_intersection_codim"],
        "sigma1_codim": metrics["sigma1_codim"] == tol["sigma1_codim"],
    }
    return metrics, checks, ()


# name -> (experiment, its default tolerances)
_CATALOG = {
    "stieltjes-cancellation": (_stieltjes_cancellation, {"max_scaled_residual": 1e-8}),
    "stieltjes-kernel-break": (_stieltjes_kernel_break, {"max_abs_pairing_min": 1e-6}),
    "lognormal-classical-moments": (_lognormal_classical_moments, {"max_rel_err": 1e-6}),
    "cauchy-fisher": (_cauchy_fisher, {"abs_error": 1e-6}),
    "cauchy-submersion": (_cauchy_submersion,
                          {"joint_rank": 1.0, "min_scale_sensitivity_min": 0.0}),
    "lognormal-immersion": (_lognormal_immersion,
                            {"model_rank": 2.0, "joint_rank": 2.0, "min_det_g_min": 0.0}),
    "behrens-fisher-w0": (_behrens_fisher_w0,
                          {"max_w0_rel_err": 1e-8, "nuisance_spread_decreasing": 1.0}),
    "singular-limit": (_singular_limit,
                       {"det_strictly_decreasing": 1.0, "cond_nondecreasing": 1.0}),
    "type0-charpath": (_type0_charpath, {"max_twin_rel_err": 1e-6}),
    "sinusoidal-orthogonality": (_sinusoidal_orthogonality, {"max_abs_pairing": 1e-10}),
    "gaussian-tilted-cumulants": (_gaussian_tilted_cumulants,
                                  {"kappa1_rel_err": 1e-8, "kappa2_rel_err": 1e-8,
                                   "abs_kappa3": 1e-6, "abs_kappa4": 1e-6}),
    "thresholds": (_thresholds, {"self_intersection_codim": 8.0, "sigma1_codim": 6.0}),
}


def list_experiments() -> tuple:
    return tuple(_CATALOG)


def run_experiment(name: str, overrides: dict | None = None) -> ExperimentResult:
    """Run one catalog experiment with its default tolerances, updated
    from ``overrides["tolerances"]``; a tolerance the experiment does not
    have raises ``ValueError``.  Numeric failures are reported in the
    result (pass = false with a diagnostic) rather than raised."""
    if name not in _CATALOG:
        raise UnknownExperiment(f"unknown experiment {name!r}; have {', '.join(_CATALOG)}")
    experiment, defaults = _CATALOG[name]
    given = (overrides or {}).get("tolerances", {})
    unknown = [key for key in given if key not in defaults]
    if unknown:
        raise ValueError(f"experiment {name} has no tolerance {', '.join(unknown)}; "
                         f"its tolerances are {', '.join(defaults)}")
    tol = {**defaults, **given}
    t0 = time.perf_counter()
    try:
        metrics, checks, rows = experiment(tol)
        failed = [key for key, ok in checks.items() if not ok]
        diagnostic = f"failed checks: {', '.join(failed)}" if failed else ""
    except _NUMERIC_ERRORS as exc:
        metrics, rows, tol = {"numeric_failure": 1.0}, (), {}
        diagnostic = f"{type(exc).__name__}: {exc}"
    return ExperimentResult(name=name, metrics=metrics, passed=not diagnostic, tolerances=tol,
                            runtime_seconds=time.perf_counter() - t0, table=tuple(rows),
                            diagnostic=diagnostic)


def sweep_kernel(fam, kfam, spec: FeatureMapSpec, lambda_grid, theta_grid):
    """Diagnostics on a (lambda, theta) grid: one row per pair, in grid
    order, each with the metric-tensor and rank summaries."""
    lambdas = [np.atleast_1d(np.asarray(l, dtype=float)) for l in lambda_grid]
    thetas = [np.atleast_1d(np.asarray(t, dtype=float)) for t in theta_grid]
    if not lambdas or not thetas:
        raise EmptyGrid("sweep grids must be non-empty")

    def row(lam, th):
        rep = jacobian(fam, kfam, th, lam, spec)
        g = metric_tensor(rep)
        model_rank = numerical_rank(rep.d_theta).rank
        joint_rank = numerical_rank(rep.joint).rank
        out = {}
        for name, value in zip(kfam.param_names, lam):
            out[name] = float(value)
        for name, value in zip(fam.param_names, th):
            out[name] = float(value)
        out.update({
            "det_g": g.det,
            "condition_number": g.condition_number,
            "correlation_det": g.correlation_det,
            "model_rank": model_rank,
            "joint_rank": joint_rank,
            "enrichment": joint_rank - model_rank,
            "submersive": joint_rank == len(spec.orders),
        })
        return out

    return tuple(row(lam, th) for lam in lambdas for th in thetas)
