import numpy as np
import pytest

import wml.experiments
import wml.quad
from wml.experiments import (
    EmptyGrid,
    UnknownExperiment,
    list_experiments,
    run_experiment,
    sweep_kernel,
)
from wml.features import FeatureMapSpec
from wml.geometry import JacobianReport
from wml.models import cauchy_family, gaussian_family, scale_kernel_family

ALL_NAMES = (
    "stieltjes-cancellation",
    "stieltjes-kernel-break",
    "lognormal-classical-moments",
    "cauchy-fisher",
    "cauchy-submersion",
    "lognormal-immersion",
    "behrens-fisher-w0",
    "singular-limit",
    "type0-charpath",
    "sinusoidal-orthogonality",
    "gaussian-tilted-cumulants",
    "thresholds",
)


def test_catalog_is_complete():
    assert list_experiments() == ALL_NAMES


def test_unknown_experiment_raises():
    with pytest.raises(UnknownExperiment):
        run_experiment("no-such-name")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_every_catalog_experiment_passes(name):
    res = run_experiment(name)
    assert res.passed, (name, res.metrics, res.diagnostic)
    assert res.metrics
    assert res.runtime_seconds >= 0.0


def test_results_are_deterministic():
    a = run_experiment("stieltjes-kernel-break")
    b = run_experiment("stieltjes-kernel-break")
    assert a.metrics == b.metrics  # bit-for-bit
    assert a.table == b.table
    c = run_experiment("cauchy-submersion")
    d = run_experiment("cauchy-submersion")
    assert c.metrics == d.metrics
    assert c.table == d.table


def test_pass_flag_recomputable_from_metrics_and_tolerances():
    res = run_experiment("cauchy-fisher")
    assert res.passed == (res.metrics["abs_error"] < res.tolerances["abs_error"])
    res = run_experiment("stieltjes-kernel-break")
    assert res.passed == (res.metrics["max_abs_pairing"] > res.tolerances["max_abs_pairing_min"])


def test_tolerance_overrides_can_fail_an_experiment():
    res = run_experiment("cauchy-fisher", {"abs_error": 0.0})
    assert not res.passed


def test_sweep_cauchy_rank_constant_one():
    rows = sweep_kernel(cauchy_family(), scale_kernel_family(),
                        FeatureMapSpec(orders=(0,)),
                        [(s,) for s in (0.5, 1.0, 2.0, 5.0)],
                        [(mu,) for mu in (-1.0, 0.0, 1.0)])
    assert len(rows) == 12
    assert all(row["joint_rank"] == 1 for row in rows)
    assert all(row["submersive"] for row in rows)
    assert [(row["s"], row["mu"]) for row in rows] == \
        [(s, mu) for s in (0.5, 1.0, 2.0, 5.0) for mu in (-1.0, 0.0, 1.0)]


def test_sweep_gaussian_det_decreasing_in_scale():
    rows = sweep_kernel(gaussian_family(), scale_kernel_family(),
                        FeatureMapSpec(orders=(0, 1, 2)),
                        [(s,) for s in (2.0, 5.0, 10.0, 30.0)],
                        [(0.0, 1.0)])
    dets = [row["det_g"] for row in rows]
    assert all(a > b for a, b in zip(dets, dets[1:]))


def test_sweep_empty_grid():
    spec = FeatureMapSpec(orders=(0,))
    with pytest.raises(EmptyGrid):
        sweep_kernel(cauchy_family(), scale_kernel_family(), spec, [], [(0.0,)])
    with pytest.raises(EmptyGrid):
        sweep_kernel(cauchy_family(), scale_kernel_family(), spec, [(1.0,)], [])


@pytest.mark.parametrize("name, rows", (("stieltjes-cancellation", 11),
                                        ("lognormal-classical-moments", 7),
                                        ("sinusoidal-orthogonality", 3)))
def test_one_adaptive_pass_per_experiment(monkeypatch, name, rows):
    # every order (or frequency) of these experiments shares one panel tree
    calls = []
    adaptive = wml.quad._adaptive
    monkeypatch.setattr(wml.quad, "_adaptive", lambda *a: calls.append(1) or adaptive(*a))
    res = run_experiment(name)
    assert res.passed, res.metrics
    assert len(calls) == 1 and len(res.table) == rows


@pytest.mark.parametrize("name", ("behrens-fisher-w0", "gaussian-tilted-cumulants", "singular-limit"))
def test_gaussian_experiments_take_their_closed_form(monkeypatch, name):
    # every pairing of these experiments is a Gaussian model under a
    # Gaussian window, w_0 N(mean, width2): no integrand call at all
    calls = []
    kronrod = wml.quad._kronrod_panels
    monkeypatch.setattr(wml.quad, "_kronrod_panels", lambda *a: calls.append(1) or kronrod(*a))
    res = run_experiment(name)
    assert res.passed, res.metrics
    assert not calls


def test_cauchy_submersion_takes_its_scale_sensitivity_from_the_jacobian_pass(monkeypatch):
    # 25 points of 3 rows in one pass, and no second pass for w_2, which
    # d/ds w_0 = w_2 / s^3 - w_0 / s already gives
    calls = []
    adaptive = wml.quad._adaptive
    monkeypatch.setattr(wml.quad, "_adaptive", lambda *a: calls.append(1) or adaptive(*a))
    res = run_experiment("cauchy-submersion")
    assert res.passed, res.metrics
    assert len(calls) == 1 and len(res.table) == 25


def test_cauchy_submersion_stacks_converge_on_their_first_mesh(monkeypatch):
    # the closed form certifies the 20 points off mu = 0; at mu = 0 d/dmu w_0
    # vanishes by symmetry, and those 5 points are integrated in the
    # window's z = (x - c) / s, each over its own panel tree from its own
    # mesh.  All 25 took 1,704 rows x panels that way, 36 of them on a
    # second call; stacks of 10 points over the union of their breakpoints
    # evaluated 3,570
    calls, segments = [], []
    kronrod = wml.quad._kronrod_panels

    def panels(f, a, b, seg):
        out = kronrod(f, a, b, seg)
        calls.append(a.size * out[0].shape[1])
        segments.append(np.unique(seg).size)
        return out

    monkeypatch.setattr(wml.quad, "_kronrod_panels", panels)
    res = run_experiment("cauchy-submersion")
    assert res.passed, res.metrics
    assert len(calls) <= 2 and sum(calls) <= 1704 and max(segments) <= 5


def test_type0_charpath_twins_share_one_pass(monkeypatch):
    # alpha is a column on the char-fn route, where nothing branches on it:
    # the stable(1) and stable(2) twins share one pass, and the experiment
    # makes 2 integrand calls, as the Cauchy twin's density pairing takes
    # its closed form (5 when alpha split them, 4 while the Gaussian
    # twin's density pairing was integrated, 3 while the Cauchy's was)
    calls = []
    kronrod = wml.quad._kronrod_panels
    monkeypatch.setattr(wml.quad, "_kronrod_panels", lambda *a: calls.append(np.unique(a[3]).size) or kronrod(*a))
    res = run_experiment("type0-charpath")
    assert res.passed, res.metrics
    assert len(calls) == 2 and max(calls) == 2


def test_cauchy_submersion_checks_the_model_rank():
    # d/dmu w_0 vanishes by symmetry at mu = 0: the model rank is 0 at those
    # five points, where kernel variation alone restores rank 1, and 1 elsewhere
    res = run_experiment("cauchy-submersion")
    assert res.passed, res.metrics
    assert (res.metrics["max_model_rank_mu0"], res.metrics["min_model_rank_off_mu0"]) == (0.0, 1.0)
    ranks = [(row["mu"] == 0.0, row["model_rank"], row["joint_rank"], row["enrichment"]) for row in res.table]
    assert ranks == [(mu0, 0 if mu0 else 1, 1, 1 if mu0 else 0) for mu0, *_ in ranks]
    assert sum(mu0 for mu0, *_ in ranks) == 5
    for key, wrong in (("model_rank_mu0", 1.0), ("model_rank_off_mu0", 0.0)):
        res = run_experiment("cauchy-submersion", {key: wrong})
        assert not res.passed and key in res.diagnostic


def test_numeric_failure_is_reported_not_raised(one_bisection):
    # an unreachable quadrature budget raises NonConvergence inside the
    # experiment; the result carries the diagnostic instead
    res = run_experiment("stieltjes-cancellation")
    assert res.passed is False
    assert res.metrics == {"numeric_failure": 1.0}
    assert res.diagnostic.startswith("NonConvergence")


def test_metric_overflow_is_reported_not_raised(monkeypatch):
    # a Jacobian whose Gram matrix overflows makes metric_tensor raise;
    # the result carries the diagnostic instead
    def huge(fam, kfam, theta, lam, spec):
        n = len(theta)
        return JacobianReport(d_theta=np.full((n, 3, 2), 1e200), d_lambda=np.zeros((n, 3, 1)),
                              error_estimates=np.zeros((n, 3, 3)))

    monkeypatch.setattr(wml.experiments, "_jacobians", huge)
    res = run_experiment("singular-limit")
    assert res.passed is False
    assert res.metrics == {"numeric_failure": 1.0}
    assert res.diagnostic.startswith("MetricOverflow")
