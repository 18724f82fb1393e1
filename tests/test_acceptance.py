"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[acceptance NN] name: PASS/FAIL` line (run pytest
with `-s` to stream them).  Experiments are executed once per session
and shared across criteria.

One numerical note, recorded once here: the raw cancellation integrals
of criterion 1 have integrands of magnitude exp(n^2/2) (about 5e21 at
n = 10), so the smallest absolute residual 64-bit arithmetic can
certify is exp(n^2/2) * machine-epsilon, about 1e6 at n = 10.  The
exact mathematical value 0 is therefore checked through the residual
normalised by the integrand scale max(1, exp(n^2/2)), which carries the
full 1e-8 tolerance with nine orders of margin; the raw residual is
additionally asserted on the orders (n <= 5) where it is representable.
"""

import json
import pathlib

import numpy as np
import pytest

from wml.experiments import run_experiment
from wml.features import FeatureMapSpec, weak_cumulants, weak_moment
from wml.geometry import jacobian, metric_tensor, numerical_rank
from wml.models import (
    Gaussian,
    KernelSpec,
    SymmetricStable,
    gaussian_family,
    scale_center_kernel_family,
)
from wml.quad import QuadratureConfig

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
_CACHE = {}


def experiment(name):
    if name not in _CACHE:
        _CACHE[name] = run_experiment(name)
    return _CACHE[name]


def report(num, name, ok, detail=""):
    line = f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)


def test_c01_stieltjes_cancellation():
    res = experiment("stieltjes-cancellation")
    scaled = res.metrics["max_scaled_residual"]
    ok = scaled < 1e-8
    low_order_raw = max(abs(row["integral"]) for row in res.table if row["n"] <= 5)
    ok = ok and low_order_raw < 1e-8
    report(1, "stieltjes cancellation", ok,
           f"max scaled residual {scaled:.3e}, raw residual (n<=5) {low_order_raw:.3e}")
    assert scaled < 1e-8
    assert low_order_raw < 1e-8


def test_c02_kernel_breaking_matches_frozen_oracle():
    res = experiment("stieltjes-kernel-break")
    fixture = json.loads((FIXTURES / "stieltjes_kernel_break.json").read_text())
    max_abs = res.metrics["max_abs_pairing"]
    worst_rel = 0.0
    for row in res.table:
        frozen = fixture["values"][str(row["n"])]["value"]
        worst_rel = max(worst_rel, abs(row["pairing"] - frozen) / abs(frozen))
    ok = max_abs > 1e-6 and worst_rel < 1e-8
    report(2, "kernel breaking", ok,
           f"max |J_n| {max_abs:.4e}, worst fixture deviation {worst_rel:.2e}")
    assert max_abs > 1e-6
    assert worst_rel < 1e-8


def test_c03_lognormal_classical_moments():
    res = experiment("lognormal-classical-moments")
    err = res.metrics["max_rel_err"]
    report(3, "log-normal classical moments", err < 1e-6, f"max rel err {err:.3e}")
    assert err < 1e-6


def test_c04_cauchy_fisher_information():
    res = experiment("cauchy-fisher")
    err = res.metrics["abs_error"]
    report(4, "Cauchy Fisher information = 1/2", err < 1e-6,
           f"value {res.metrics['fisher_information']:.12f}")
    assert err < 1e-6


def test_c05_behrens_fisher_w0_and_flattening():
    res = experiment("behrens-fisher-w0")
    err = res.metrics["max_w0_rel_err"]
    spreads = [res.metrics[f"spread_s{s}"] for s in (1, 3, 10, 30)]
    decreasing = all(a > b for a, b in zip(spreads, spreads[1:]))
    ok = err < 1e-8 and decreasing
    report(5, "two-sample w0 closed form + nuisance flattening", ok,
           f"max rel err {err:.3e}, spreads {['%.4f' % s for s in spreads]}")
    assert err < 1e-8
    assert decreasing


def test_c06_cauchy_submersion():
    # rank from the analytic Jacobian; positivity from the
    # kernel-window sensitivity E[X^2 phi_s(X)]/s^3, the quantity whose
    # strict positivity carries the location-family rank-1 argument
    res = experiment("cauchy-submersion")
    ranks_ok = res.metrics["min_joint_rank"] == 1 == res.metrics["max_joint_rank"]
    sens_ok = res.metrics["min_scale_sensitivity"] > 0.0
    assert len(res.table) == 25
    ok = ranks_ok and sens_ok
    report(6, "Cauchy joint submersion on 5x5 grid", ok,
           f"rank 1 everywhere: {ranks_ok}, min dF/ds {res.metrics['min_scale_sensitivity']:.3e}")
    assert ranks_ok and sens_ok


def test_c07_lognormal_immersion():
    res = experiment("lognormal-immersion")
    ok = res.metrics["min_model_rank"] == 2 and res.metrics["min_det_g"] > 0.0
    report(7, "log-normal immersion (rank 2, det G > 0)", ok,
           f"min det G {res.metrics['min_det_g']:.3e}")
    assert res.metrics["min_model_rank"] == 2
    assert res.metrics["min_det_g"] > 0.0


def test_c08_codimension_thresholds():
    res = experiment("thresholds")
    ok = (res.metrics["identifiability_generic"] == 1.0
          and res.metrics["info_regular_generic"] == 1.0
          and res.metrics["self_intersection_codim"] == 8.0
          and res.metrics["sigma1_codim"] == 6.0)
    report(8, "codimension thresholds (p=3, K+1=8)", ok,
           "codims (8, 6), both flags true")
    assert ok


def test_c09_type0_path_agreement():
    res = experiment("type0-charpath")
    err = res.metrics["max_twin_rel_err"]
    finite = res.metrics["stable15_all_finite"] == 1.0
    ok = err < 1e-6 and finite
    report(9, "type-0 characteristic-function route", ok,
           f"max twin rel err {err:.3e}, alpha=1.5 finite: {finite}")
    assert err < 1e-6
    assert finite


def test_c10_gaussian_tilted_cumulants():
    res = experiment("gaussian-tilted-cumulants")
    ok = (res.metrics["kappa1_rel_err"] < 1e-8 and res.metrics["kappa2_rel_err"] < 1e-8
          and res.metrics["abs_kappa3"] < 1e-6 and res.metrics["abs_kappa4"] < 1e-6)
    report(10, "Gaussian tilted cumulants", ok,
           f"k1 rel {res.metrics['kappa1_rel_err']:.2e}, "
           f"|k3| {res.metrics['abs_kappa3']:.2e}")
    assert res.metrics["kappa1_rel_err"] < 1e-8
    assert res.metrics["kappa2_rel_err"] < 1e-8
    assert res.metrics["abs_kappa3"] < 1e-6
    assert res.metrics["abs_kappa4"] < 1e-6


def test_c11_sinusoidal_orthogonality():
    res = experiment("sinusoidal-orthogonality")
    worst = res.metrics["max_abs_pairing"]
    report(11, "sinusoidal inference-function orthogonality", worst < 1e-10,
           f"max |pairing| {worst:.3e}")
    assert worst < 1e-10


def _w0_gradient(mu, sigma, s, c):
    v = sigma * sigma + s * s
    d = mu - c
    w0 = np.exp(-0.5 * d * d / v) / np.sqrt(2 * np.pi * v)
    return np.array([-d / v * w0,
                     sigma * (d * d - v) / v**2 * w0,
                     s * (d * d - v) / v**2 * w0,
                     d / v * w0])


def test_c12_derivative_correctness_and_psd_metric():
    fam = gaussian_family()
    kfam = scale_center_kernel_family()
    spec = FeatureMapSpec(orders=(0,), path="density",
                          quadrature=QuadratureConfig(rel_tol=1e-11, abs_tol=1e-14))
    rng = np.random.default_rng(123)
    worst = 0.0
    psd_ok = True
    for _ in range(20):
        mu = rng.uniform(-2.0, 2.0)
        sigma = rng.uniform(0.5, 2.0)
        s = rng.uniform(0.5, 3.0)
        c = rng.uniform(-1.0, 1.0)
        rep = jacobian(fam, kfam, [mu, sigma], [s, c], spec)
        got = np.concatenate((rep.d_theta[0], rep.d_lambda[0]))
        expected = _w0_gradient(mu, sigma, s, c)
        worst = max(worst, float(np.max(np.abs(got - expected) / np.abs(expected))))
        g = metric_tensor(rep)
        sym = np.allclose(g.matrix, g.matrix.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(g.matrix)
        psd_ok = psd_ok and sym and np.all(eigs >= -1e-10 * max(np.trace(g.matrix), 1e-300))
    ok = worst < 1e-6 and psd_ok
    report(12, "Jacobian derivatives vs closed form", ok,
           f"worst rel err {worst:.3e} over 20 random points; metric sym+PSD: {psd_ok}")
    assert worst < 1e-6
    assert psd_ok


def test_c13_singular_limit_matches_frozen_oracle():
    res = experiment("singular-limit")
    fixture = json.loads((FIXTURES / "singular_limit.json").read_text())
    dets = [row["det_g"] for row in res.table]
    conds = [row["condition_number"] for row in res.table]
    frozen_dets = [row["det_g"] for row in fixture["rows"]]
    frozen_conds = [row["condition_number"] for row in fixture["rows"]]

    tail = slice(1, None)  # s in {2, 5, 10, 30, 100}
    det_decreasing = all(a > b for a, b in zip(dets[tail], dets[tail][1:]))
    cond_nondecr = all(a <= b for a, b in zip(conds[tail], conds[tail][1:]))
    frozen_decreasing = all(a > b for a, b in zip(frozen_dets[tail], frozen_dets[tail][1:]))
    frozen_nondecr = all(a <= b for a, b in zip(frozen_conds[tail], frozen_conds[tail][1:]))
    value_dev = max(abs(d - f) / abs(f) for d, f in zip(dets, frozen_dets))

    ok = (det_decreasing and cond_nondecr and frozen_decreasing and frozen_nondecr
          and value_dev < 1e-6)
    report(13, "singular kernel-scale limit", ok,
           f"det G trend matches oracle, worst det deviation {value_dev:.2e}")
    assert det_decreasing and frozen_decreasing
    assert cond_nondecr and frozen_nondecr
    assert value_dev < 1e-6


def test_c14_influence_bound_matches_grid_search():
    from wml.features import influence_bound
    k = KernelSpec(1.0, 0.0)
    grid = np.arange(-100.0, 100.0, 1e-4)
    phi = np.exp(-0.5 * grid * grid) / np.sqrt(2 * np.pi)
    worst = 0.0
    for j in (0, 1, 2, 4):
        analytic = influence_bound(k, j)
        searched = float(np.max(np.abs(grid**j * phi)))
        worst = max(worst, abs(analytic - searched))
    report(14, "influence bound vs grid supremum", worst < 1e-8,
           f"worst |analytic - grid| {worst:.3e}")
    assert worst < 1e-8
