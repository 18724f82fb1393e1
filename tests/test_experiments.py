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
    res = run_experiment("cauchy-fisher", {"tolerances": {"abs_error": 0.0}})
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


def test_numeric_failure_is_reported_not_raised(one_bisection):
    # an unreachable quadrature budget raises NonConvergence inside the
    # experiment; the result carries the diagnostic instead
    res = run_experiment("stieltjes-kernel-break")
    assert res.passed is False
    assert res.metrics == {"numeric_failure": 1.0}
    assert res.diagnostic.startswith("NonConvergence")


def test_metric_overflow_is_reported_not_raised(monkeypatch):
    # a Jacobian whose Gram matrix overflows makes metric_tensor raise;
    # the result carries the diagnostic instead
    huge = JacobianReport(d_theta=np.full((3, 2), 1e200), d_lambda=np.zeros((3, 1)),
                          error_estimates=np.zeros((3, 3)))
    monkeypatch.setattr(wml.experiments, "jacobian", lambda *a: huge)
    res = run_experiment("singular-limit")
    assert res.passed is False
    assert res.metrics == {"numeric_failure": 1.0}
    assert res.diagnostic.startswith("MetricOverflow")
