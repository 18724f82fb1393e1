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
:func:`run_experiment` times a run, merges the given tolerances and
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
    _pairing_pass,
    feature_map,
    weak_cumulants,
    weak_moment_jacobian,
)
from .geometry import (
    DimensionMismatch,
    MetricOverflow,
    StepUnderflow,
    _jacobians,
    _points,
    codimension_thresholds,
    metric_tensor,
    numerical_rank,
)
from .models import (
    Cauchy,
    Gaussian,
    KernelSpec,
    NoDensity,
    StieltjesLogNormal,
    SymmetricStable,
    Undefined,
    Unsupported,
    _Z_MESH,
    _columns,
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
    orders, half_periods = range(11), np.exp(np.arange(-20.0, 41.0) * 0.5)
    power = _lognorm_power_integrand(orders)
    # row n peaks at log x = n + 1 with width 1: half periods of the sine
    # over [-10, 20] in log x cover every row out to 10 widths
    res = integrate_half_line(lambda x: np.sin(2.0 * np.pi * np.log(x)) * power(x), half_periods)
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
    # row n peaks at log x = n + 1 with width 1
    res = integrate_half_line(_lognorm_power_integrand(orders), np.exp(np.arange(-10.0, 17.0)))
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

    The ranks count singular values above their errors: the model rank is
    0 at mu = 0, where d/dmu w_0 = 0 by symmetry.  The positivity metric
    is the window sensitivity E[X^2 phi_s(X)] / s^3, i.e. the derivative
    of the pairing when only the Gaussian window (not its normalisation)
    varies with s; that is the quantity whose strict positivity
    underwrites the rank-1 claim for a location family.  The Jacobian's
    pass gives it: d/ds w_0 = w_2 / s^3 - w_0 / s for the normalised window.
    """
    grid = np.stack(np.meshgrid(np.linspace(-2.0, 2.0, 5), np.linspace(0.5, 4.0, 5), indexing="ij"), -1)
    grid = grid.reshape(-1, 2)  # (mu, s), mu outermost
    stack = _jacobians(cauchy_family(), scale_kernel_family(), grid[:, :1], grid[:, 1:],
                       FeatureMapSpec(orders=(0,), path="density"))
    models = numerical_rank(stack.d_theta, stack.error_estimates[..., :1]).rank.tolist()
    joints = numerical_rank(stack.joint, stack.error_estimates).rank.tolist()
    rows = []
    for (mu, s), model, joint, d_mu, d_s, w0 in zip(grid.tolist(), models, joints, stack.d_theta[:, 0, 0].tolist(),
                                                   stack.d_lambda[:, 0, 0].tolist(),
                                                   stack.features.values[:, 0].tolist()):
        rows.append({"mu": mu, "s": s, "model_rank": model, "joint_rank": joint,
                     "enrichment": joint - model, "d_mu": d_mu, "d_s": d_s,
                     "scale_sensitivity": d_s + w0 / s})
    ranks = [row["joint_rank"] for row in rows]
    metrics = {"min_joint_rank": float(min(ranks)), "max_joint_rank": float(max(ranks)),
               "min_scale_sensitivity": min(row["scale_sensitivity"] for row in rows),
               "max_model_rank_mu0": float(max(row["model_rank"] for row in rows if row["mu"] == 0.0)),
               "min_model_rank_off_mu0": float(min(row["model_rank"] for row in rows if row["mu"] != 0.0))}
    checks = {
        "joint_rank": metrics["min_joint_rank"] == tol["joint_rank"] == metrics["max_joint_rank"],
        "min_scale_sensitivity_min": metrics["min_scale_sensitivity"] > tol["min_scale_sensitivity_min"],
        "model_rank_mu0": metrics["max_model_rank_mu0"] == tol["model_rank_mu0"],
        "model_rank_off_mu0": metrics["min_model_rank_off_mu0"] == tol["model_rank_off_mu0"],
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
    closed_grid = np.stack(np.meshgrid((0.0, 1.0, 2.0), (0.5, 1.0, 2.0), (1.0, 3.0, 10.0), indexing="ij"), -1)
    # nuisance flattening at fixed mu: the sigma-spread of w0 shrinks with s
    mu, scales, sigmas = 1.0, (1.0, 3.0, 10.0, 30.0), np.linspace(0.5, 2.0, 7)
    spread_grid = np.stack(np.meshgrid(scales, sigmas, (mu,), indexing="ij"), -1)[..., ::-1]  # s outermost
    closed_grid = closed_grid.reshape(-1, 3)
    grid = np.concatenate((closed_grid, spread_grid.reshape(-1, 3)))  # (mu, sigma, s)
    _, w0, _ = _pairing_pass(_columns(Gaussian(0.0, 1.0), ("mu", "sigma"), grid[:, :2]),
                             _columns(KernelSpec(1.0), ("s",), grid[:, 2:]), spec, (None,), ())
    w0, spread = w0[:len(closed_grid), 0, 0], w0[len(closed_grid):, 0, 0].reshape(len(scales), -1)
    m, sigma, s = closed_grid.T
    v = sigma * sigma + s * s
    closed = np.exp(-0.5 * m * m / v) / np.sqrt(2.0 * np.pi * v)
    rows = [{"mu": m, "sigma": sigma, "s": s, "w0": got, "closed_form": want, "rel_err": rel}
            for (m, sigma, s), got, want, rel in zip(closed_grid.tolist(), w0.tolist(), closed.tolist(),
                                                     (abs(w0 - closed) / closed).tolist())]
    mean = spread.mean(axis=1, keepdims=True)
    spreads = (np.abs(spread - mean).max(axis=1) / mean[:, 0]).tolist()
    decreasing = all(a > b for a, b in zip(spreads, spreads[1:]))

    metrics = {"max_w0_rel_err": max(row["rel_err"] for row in rows),
               **{f"spread_s{s:g}": v for s, v in zip(scales, spreads)},
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
    metrics["det_strictly_decreasing"] = float(all(a > b for a, b in zip(tail_dets, tail_dets[1:])))
    metrics["cond_nondecreasing"] = float(all(a <= b for a, b in zip(tail_conds, tail_conds[1:])))
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

    # alpha in {1, 2} twins against the closed-form densities; on the char-fn
    # route alpha is a column, and the two stables share one pass
    labels = ("stable(1)=cauchy", "stable(2)=gaussian")
    stables = _columns(SymmetricStable(1.0, 0.5, 1.0), ("alpha", "sigma"), [[1.0, 1.0], [2.0, 1.0 / np.sqrt(2.0)]])
    twins = (Cauchy(0.5), Gaussian(0.5, 1.0))
    cspec = FeatureMapSpec(orders=tuple(range(5)), path="charfn")
    dspec = FeatureMapSpec(orders=tuple(range(5)), path="density")
    via_char = _pairing_pass(stables, kernel, cspec, (None,), ())[1][..., 0]
    via_dens = [_pairing_pass(m, kernel, dspec, (None,), ())[1][0, :, 0] for m in twins]
    errs = []
    for label, fc, fd in zip(labels, via_char, via_dens):
        for j, vc, vd in zip(cspec.orders, fc, fd):
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
        lambda x: np.sin(freqs * (x - mu)) * (scale_score(x) * density(model, x)), mu + sigma * _Z_MESH)
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
                          {"joint_rank": 1.0, "min_scale_sensitivity_min": 0.0,
                           "model_rank_mu0": 0.0, "model_rank_off_mu0": 1.0}),
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


def run_experiment(name: str, tolerances: dict | None = None) -> ExperimentResult:
    """Run one catalog experiment with its default tolerances, updated
    from ``tolerances``; a tolerance the experiment does not have raises
    ``ValueError``.  Numeric failures are reported in the result
    (pass = false with a diagnostic) rather than raised."""
    if name not in _CATALOG:
        raise UnknownExperiment(f"unknown experiment {name!r}; have {', '.join(_CATALOG)}")
    experiment, defaults = _CATALOG[name]
    given = tolerances or {}
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
    order, each with the metric-tensor and rank summaries.  The Jacobians
    of all pairs come from stacked passes, their tensors and ranks from
    one batched call each; the ranks count only singular values above the
    entries' error estimates."""
    if not len(lambda_grid) or not len(theta_grid):
        raise EmptyGrid("sweep grids must be non-empty")
    lambdas, thetas = _points(kfam, lambda_grid), _points(fam, theta_grid)
    lam, theta = lambdas.repeat(len(thetas), axis=0), np.concatenate([thetas] * len(lambdas))
    stack = _jacobians(fam, kfam, theta, lam, spec)
    g = metric_tensor(stack)
    models = numerical_rank(stack.d_theta, stack.error_estimates[..., :fam.p]).rank.tolist()
    joints = numerical_rank(stack.joint, stack.error_estimates).rank.tolist()
    names, rows = kfam.param_names + fam.param_names, []
    for point, det, cond, corr, model, joint in zip(np.concatenate((lam, theta), axis=1).tolist(), g.det.tolist(),
                                                    g.condition_number.tolist(), g.correlation_det.tolist(),
                                                    models, joints):
        rows.append({**dict(zip(names, point)), "det_g": det, "condition_number": cond, "correlation_det": corr,
                     "model_rank": model, "joint_rank": joint, "enrichment": joint - model,
                     "submersive": joint == len(spec.orders)})
    return tuple(rows)

