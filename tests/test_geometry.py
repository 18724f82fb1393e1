import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

import wml.features
import wml.geometry
from wml.experiments import sweep_kernel
from wml.features import FeatureMapSpec, feature_map
from wml.geometry import (
    CollisionCandidate,
    DimensionMismatch,
    JacobianReport,
    MetricOverflow,
    StepUnderflow,
    StratumSpec,
    _jacobians,
    _separate,
    codimension_thresholds,
    injectivity_probe,
    jacobian,
    metric_tensor,
    numerical_rank,
    transversality_check,
)
from wml.models import (
    Gaussian,
    KernelSpec,
    Unsupported,
    cauchy_family,
    gaussian_family,
    lognormal_family,
    scale_center_kernel_family,
    scale_kernel_family,
    stable_family,
    stieltjes_family,
)
from wml.quad import NonConvergence

SQRT_2PI = np.sqrt(2.0 * np.pi)


def w0_closed_form(mu, sigma, s, c):
    v = sigma * sigma + s * s
    return np.exp(-0.5 * (mu - c) ** 2 / v) / np.sqrt(2 * np.pi * v)


def w0_gradient(mu, sigma, s, c):
    v = sigma * sigma + s * s
    d = mu - c
    w0 = w0_closed_form(mu, sigma, s, c)
    return np.array([
        -d / v * w0,                      # d/dmu
        sigma * (d * d - v) / v**2 * w0,  # d/dsigma
        s * (d * d - v) / v**2 * w0,      # d/ds
        d / v * w0,                       # d/dc
    ])


def make_report(d_theta, d_lambda):
    d_theta = np.atleast_2d(np.asarray(d_theta, dtype=float))
    d_lambda = np.asarray(d_lambda, dtype=float)
    if d_lambda.size == 0:
        d_lambda = np.zeros((d_theta.shape[0], 0))
    else:
        d_lambda = np.atleast_2d(d_lambda)
    n_cols = d_theta.shape[1] + d_lambda.shape[1]
    return JacobianReport(d_theta, d_lambda, np.zeros((d_theta.shape[0], n_cols)))


def test_jacobian_matches_analytic_gaussian_w0():
    fam = gaussian_family()
    kfam = scale_center_kernel_family()
    spec = FeatureMapSpec(orders=(0,), path="density")
    rng = np.random.default_rng(42)
    for _ in range(8):
        mu = rng.uniform(-2.0, 2.0)
        sigma = rng.uniform(0.5, 2.0)
        s = rng.uniform(0.5, 3.0)
        c = rng.uniform(-1.0, 1.0)
        rep = jacobian(fam, kfam, [mu, sigma], [s, c], spec)
        got = np.concatenate((rep.d_theta[0], rep.d_lambda[0]))
        expected = w0_gradient(mu, sigma, s, c)
        assert np.allclose(got, expected, rtol=1e-6), (mu, sigma, s, c)
        assert rep.error_estimates.shape == (1, 4)


def fd_jacobian(fam, kfam, theta, lam, spec, rel_step=1e-3):
    """Central differences of feature_map with one Richardson step, column
    by column: an oracle that shares no derivative code with jacobian."""
    z0 = np.concatenate((theta, lam)).astype(float)

    def features(z):
        return feature_map(fam, z[: fam.p], kfam.make(z[fam.p:]), spec).values

    def central(a, h):
        zp, zm = z0.copy(), z0.copy()
        zp[a] += h
        zm[a] -= h
        return (features(zp) - features(zm)) / (2.0 * h)

    cols = []
    for a in range(z0.size):
        h = rel_step * max(1.0, abs(z0[a]))
        cols.append((4.0 * central(a, 0.5 * h) - central(a, h)) / 3.0)
    return np.column_stack(cols)


JACOBIAN_CASES = [
    (gaussian_family(), [0.3, 1.2], "auto"),
    (cauchy_family(), [0.4], "auto"),
    (lognormal_family(), [0.2, 0.8], "auto"),
    (stieltjes_family(), [0.5], "auto"),
    (stable_family(1.0), [0.3, 0.9], "auto"),
    (stable_family(1.0), [0.3, 0.9], "charfn"),
    (stable_family(2.0), [0.3, 0.9], "auto"),
    (stable_family(1.5), [-0.2, 1.1], "auto"),   # char-fn route: no density
]


@pytest.mark.parametrize("fam,theta,path", JACOBIAN_CASES,
                         ids=[f"{f.name}-{p}" for f, _, p in JACOBIAN_CASES])
def test_analytic_jacobian_matches_finite_differences(fam, theta, path):
    spec = FeatureMapSpec(orders=(0, 1, 2), path=path)
    for kfam, lam in ((scale_kernel_family(), [1.3]),
                      (scale_center_kernel_family(), [0.9, 0.4])):
        rep = jacobian(fam, kfam, theta, lam, spec)
        oracle = fd_jacobian(fam, kfam, theta, lam, spec)
        assert rep.joint.shape == oracle.shape == (3, fam.p + kfam.p)
        assert rep.error_estimates.shape == oracle.shape
        assert np.allclose(rep.joint, oracle, rtol=1e-6, atol=1e-9 * np.abs(oracle).max()), \
            (fam.name, kfam.name, rep.joint, oracle)


@pytest.mark.parametrize("fam,theta", [(cauchy_family(), [0.4]),
                                       (lognormal_family(), [0.2, 0.8]),
                                       (stable_family(1.5), [-0.2, 1.1])],
                         ids=["cauchy", "lognormal", "stable(1.5)"])
def test_kernel_block_obeys_moment_identities(fam, theta):
    # d phi / dc = phi (x - c) / s^2 and d phi / ds = phi ((x - c)^2 - s^2) / s^3
    # turn the kernel block into combinations of higher weak moments
    s, c = 0.9, 0.4
    rep = jacobian(fam, scale_center_kernel_family(), theta, [s, c],
                   FeatureMapSpec(orders=(0, 1, 2)))
    w = feature_map(fam, theta, KernelSpec(s, c), FeatureMapSpec(orders=tuple(range(5)))).values
    for j in range(3):
        d_s = (w[j + 2] - 2.0 * c * w[j + 1] + (c * c - s * s) * w[j]) / s**3
        d_c = (w[j + 1] - c * w[j]) / s**2
        assert rep.d_lambda[j] == pytest.approx([d_s, d_c], rel=1e-8, abs=1e-12)


def test_jacobian_refuses_what_it_cannot_differentiate():
    # no closed-form char fn for the log-normal
    with pytest.raises(Unsupported):
        jacobian(lognormal_family(), scale_kernel_family(), [0.0, 1.0], [1.0],
                 FeatureMapSpec(orders=(0,), path="charfn"))
    # the scores are those of the model's own fields; a family in log sigma
    # would get wrong derivatives, so it is refused
    fam = gaussian_family()
    log_sigma = type(fam)("gaussian-log-sigma", fam.param_names,
                          lambda th: Gaussian(float(th[0]), float(np.exp(th[1]))),
                          ((-5.0, 5.0), (-3.0, 2.0)))
    with pytest.raises(Unsupported):
        jacobian(log_sigma, scale_kernel_family(), [0.0, 0.1], [1.0],
                 FeatureMapSpec(orders=(0,)))


def test_jacobian_reports_an_unmet_budget(one_bisection):
    # a window 0.06 wide over a log-normal 0.15 wide in log x needs more
    # than one bisection
    spec = FeatureMapSpec(orders=(0, 1, 2))
    with pytest.raises(NonConvergence, match="component"):
        jacobian(lognormal_family(), scale_kernel_family(), [0.3, 0.15], [0.06], spec)


def test_jacobian_symmetry_zero_mu_derivative():
    # w_0 is even in mu about the kernel centre
    rep = jacobian(gaussian_family(), scale_kernel_family(), [0.0, 1.0], [1.0],
                   FeatureMapSpec(orders=(0,)))
    assert abs(rep.d_theta[0, 0]) < 1e-8


def test_jacobian_step_underflow_at_box_edge():
    fam = gaussian_family()
    lo_sigma = fam.box[1][0]
    with pytest.raises(StepUnderflow):
        jacobian(fam, scale_kernel_family(), [0.0, lo_sigma], [1.0],
                 FeatureMapSpec(orders=(0,)))


def test_metric_tensor_identity_and_rank_one():
    g = metric_tensor(make_report(np.eye(2), np.zeros((2, 0))))
    assert np.allclose(g.matrix, np.eye(2))
    assert g.det == pytest.approx(1.0)
    assert g.condition_number == pytest.approx(1.0)

    col = np.array([[1.0], [2.0]])
    rep = make_report(np.hstack([col, col]), np.zeros((2, 0)))
    g1 = metric_tensor(rep)
    assert abs(g1.det) < 1e-12
    assert g1.condition_number == np.inf or g1.condition_number > 1e12


def test_metric_tensor_equals_explicit_sum():
    rng = np.random.default_rng(9)
    d = rng.normal(size=(4, 3))
    g = metric_tensor(make_report(d, np.zeros((4, 0)))).matrix
    explicit = np.zeros((3, 3))
    for a in range(3):
        for b in range(3):
            explicit[a, b] = np.sum(d[:, a] * d[:, b])
    assert np.max(np.abs(g - explicit)) < 1e-12


def test_correlation_det_of_a_huge_diagonal_is_one():
    # diag(G)^2 = 3.3e439 overflows; normalising by sqrt(diag) does not
    g = metric_tensor(make_report(np.array([[1e-3], [7.6e109]]), np.zeros((2, 0))))
    assert g.correlation_det == 1.0


def test_correlation_det_with_a_zero_diagonal_entry_is_zero():
    # a model column that is identically 0 makes G singular: its correlation
    # matrix is undefined, and its determinant reads 0, not 1
    g = metric_tensor(make_report(np.array([[1.0, 0.0], [2.0, 0.0]]), np.zeros((2, 0))))
    assert g.correlation_det == 0.0


def test_metric_tensor_determinant_overflow_is_an_error():
    # G = diag(1e220, 1e220) is finite; its determinant 1e440 is not
    with pytest.raises(MetricOverflow):
        metric_tensor(make_report(np.diag([1e110, 1e110]), np.zeros((2, 0))))


def test_metric_tensor_lognormal_det_positive():
    rep = jacobian(lognormal_family(), scale_kernel_family(), [0.0, 1.0], [1.0],
                   FeatureMapSpec(orders=(0, 1, 2)))
    g = metric_tensor(rep)
    assert g.det > 0.0
    assert np.allclose(g.matrix, g.matrix.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(g.matrix) >= -1e-10 * np.trace(g.matrix))


def test_numerical_rank_examples():
    assert numerical_rank(np.eye(3)).rank == 3
    assert numerical_rank(np.zeros((3, 3))).rank == 0
    u = np.array([1.0, -2.0, 0.5])
    v = np.array([0.3, 1.0])
    assert numerical_rank(np.outer(u, v)).rank == 1
    rep = numerical_rank(np.diag([1.0, 1e-14]))
    assert rep.rank == 1
    assert rep.tol_used == pytest.approx(1e-10 * 1.0 * 2)
    assert np.all(np.diff(rep.singular_values) <= 0)


def test_numerical_rank_counts_only_singular_values_above_the_error_norm():
    # Weyl: a singular value moves by at most |E|_2 <= |E|_F under the
    # entries' errors E, so one below |E|_F may be zero
    a = np.diag([1.0, 1e-6])
    assert numerical_rank(a, np.zeros((2, 2))).rank == numerical_rank(a).rank == 2
    assert numerical_rank(a, np.full((2, 2), 1e-8)).rank == 2
    rep = numerical_rank(a, np.full((2, 2), 1e-6))
    assert rep.rank == 1 and rep.tol_used == pytest.approx(2e-6)
    assert numerical_rank([[2.8e-18]], [[7.2e-13]]).rank == 0


def test_numerical_rank_of_a_stack_is_the_rank_of_each_matrix():
    # one batched SVD over a stack gives each matrix the rank and the
    # threshold of its own call, with and without errors
    rng = np.random.default_rng(21)
    for shape in ((1, 1), (1, 2), (3, 1), (3, 3), (5, 2), (5, 4)):
        a = rng.normal(size=(40, *shape)) * np.exp(rng.uniform(-20.0, 20.0, (40, 1, 1)))
        a[::4] = rng.normal(size=(10, shape[0], 1)) * rng.normal(size=(10, 1, shape[1]))  # rank 1
        a[1::8] = 0.0
        errors = np.abs(a).max(axis=(1, 2), keepdims=True) * 10.0 ** rng.uniform(-18.0, 0.0, (40, 1, 1)) \
            * rng.random((40, *shape))
        for e in (None, errors):
            stacked = numerical_rank(a, e)
            for i in range(a.shape[0]):
                alone = numerical_rank(a[i], None if e is None else e[i])
                assert (stacked.rank[i], stacked.tol_used[i]) == (alone.rank, alone.tol_used), (shape, i)
    # the mu = 0 Cauchy Jacobians: model rank 0 (d/dmu w_0 = 0 by symmetry), joint rank 1
    stack = _jacobians(cauchy_family(), scale_kernel_family(), np.zeros((9, 1)), np.geomspace(0.5, 100.0, 9)[:, None],
                       FeatureMapSpec(orders=(0,)))
    for block, errs, rank in ((stack.d_theta, stack.error_estimates[..., :1], 0),
                              (stack.joint, stack.error_estimates, 1)):
        stacked = numerical_rank(block, errs)
        alone = [numerical_rank(b, e) for b, e in zip(block, errs)]
        assert stacked.rank.tolist() == [r.rank for r in alone] == [rank] * 9
        assert stacked.tol_used.tolist() == [r.tol_used for r in alone]


@pytest.mark.parametrize("fam, thetas", [(gaussian_family(), [(0.0, 1.0), (0.7, 0.4)]),
                                         (cauchy_family(), [(0.0,), (1.2,)]),
                                         (lognormal_family(), [(0.2, 0.8)])])
def test_sweep_rows_are_the_per_point_linear_algebra(fam, thetas):
    # one batched det, SVD and rank per grid: the ranks and verdicts are
    # those of per-point calls on the same Jacobians, and the metric
    # numbers within 8 ulps of them
    kfam, spec, scales = scale_kernel_family(), FeatureMapSpec(orders=(0, 1, 2)), [(0.5,), (3.0,), (30.0,)]
    rows = sweep_kernel(fam, kfam, spec, scales, thetas)
    reps = [jacobian(fam, kfam, th, lam, spec) for lam in scales for th in thetas]
    assert len(rows) == len(reps) == len(scales) * len(thetas)
    for row, rep in zip(rows, reps):
        g, trans = metric_tensor(rep), transversality_check(rep, (), rep.features)
        assert (row["model_rank"], row["joint_rank"], row["enrichment"], row["submersive"]) == \
            (trans.model_rank, trans.joint_rank, trans.enrichment, trans.submersive)
        for key, value in (("det_g", g.det), ("condition_number", g.condition_number),
                           ("correlation_det", g.correlation_det)):
            assert abs(row[key] - value) <= 8 * np.spacing(abs(value)), (key, row[key], value)


def test_jacobian_reads_singular_information_off_its_errors():
    # d/dmu w_0 of Cauchy(0) under a centred window is 0 by symmetry; the
    # pass returns it as rounding far below its error estimate.  The
    # features come from the same pass, within its errors of feature_map
    spec = FeatureMapSpec(orders=(0,))
    rep = jacobian(cauchy_family(), scale_kernel_family(), [0.0], [1.0], spec)
    fv = feature_map(cauchy_family(), [0.0], KernelSpec(1.0), spec)
    assert rep.features.paths == fv.paths
    assert abs(rep.features.values[0] - fv.values[0]) <= rep.features.errors[0] + fv.errors[0]
    report = transversality_check(rep, (), rep.features)
    assert (report.model_rank, report.joint_rank, report.enrichment) == (0, 1, 1)
    assert report.submersive


def test_numerical_rank_invariances():
    rng = np.random.default_rng(17)
    for _ in range(10):
        m, n, r = 5, 4, rng.integers(1, 4)
        a = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
        base = numerical_rank(a).rank
        assert base == r
        perm_rows = a[rng.permutation(m)]
        perm_cols = a[:, rng.permutation(n)]
        q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        assert numerical_rank(perm_rows).rank == base
        assert numerical_rank(perm_cols).rank == base
        assert numerical_rank(q @ a).rank == base


def test_cauchy_joint_jacobian_is_submersive():
    fam = cauchy_family()
    kfam = scale_kernel_family()
    spec = FeatureMapSpec(orders=(0,))
    rep = jacobian(fam, kfam, [0.5], [1.0], spec)
    y = feature_map(fam, [0.5], kfam.make([1.0]), spec)
    strata = (
        StratumSpec.coordinate(0, float(y.values[0]), name="level-through-point"),
        StratumSpec.coordinate(0, float(y.values[0]) + 0.1, name="level-off-point"),
    )
    report = transversality_check(rep, strata, y)
    assert report.submersive
    assert report.joint_rank == 1
    assert report.verdicts[0].status == "transversal"
    assert report.verdicts[1].status == "no-intersection"


def test_lognormal_joint_rank_three_with_centre_direction():
    # p = 2 model directions plus the kernel scale: orders (0,1,2) give a
    # 3x3 joint block; oracle below recomputes the Jacobian independently
    fam = lognormal_family()
    kfam = scale_kernel_family()
    spec = FeatureMapSpec(orders=(0, 1, 2))
    theta, lam = [0.2, 1.0], [1.0]
    rep = jacobian(fam, kfam, theta, lam, spec)
    assert numerical_rank(rep.joint).rank == 3

    def oracle_w(j, mu, sigma, s):
        def f(x):
            lx = np.log(x)
            return (x**j * np.exp(-0.5 * (x / s) ** 2) / (SQRT_2PI * s)
                    * np.exp(-0.5 * ((lx - mu) / sigma) ** 2) / (x * sigma * SQRT_2PI))
        v, _ = scipy_quad(f, 0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
        return v

    h = 1e-6
    oracle = np.zeros((3, 3))
    for row, j in enumerate((0, 1, 2)):
        oracle[row, 0] = (oracle_w(j, 0.2 + h, 1.0, 1.0) - oracle_w(j, 0.2 - h, 1.0, 1.0)) / (2 * h)
        oracle[row, 1] = (oracle_w(j, 0.2, 1.0 + h, 1.0) - oracle_w(j, 0.2, 1.0 - h, 1.0)) / (2 * h)
        oracle[row, 2] = (oracle_w(j, 0.2, 1.0, 1.0 + h) - oracle_w(j, 0.2, 1.0, 1.0 - h)) / (2 * h)
    assert np.linalg.matrix_rank(oracle, tol=1e-8) == 3
    assert np.allclose(rep.joint, oracle, rtol=1e-4, atol=1e-10)


def test_kernel_only_submersion_and_enrichment():
    # d_theta = 0, d_lambda = identity: the kernel contributes all K+1
    # directions by itself
    n = 3
    rep = make_report(np.zeros((n, 2)), np.eye(n))
    report = transversality_check(rep, (), np.zeros(n))
    assert report.submersive
    assert report.model_rank == 0
    assert report.joint_rank == n
    assert report.enrichment == n


def test_enrichment_zero_when_kernel_adds_nothing():
    d_theta = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    d_lambda = (d_theta @ np.array([0.4, -0.2]))[:, None]  # inside the column span
    rep = make_report(d_theta, d_lambda)
    report = transversality_check(rep, (), np.zeros(3))
    assert report.enrichment == 0
    assert report.joint_rank == report.model_rank == 2
    assert not report.submersive


def test_componentwise_criterion_detects_non_transversal():
    # joint image = span{e_0}: transversal to {y_0 = 0}, not to {y_1 = 0}
    rep = make_report(np.array([[1.0], [0.0]]), np.zeros((2, 0)))
    y = np.zeros(2)
    strata = (StratumSpec.coordinate(0, 0.0, name="hit-0"),
              StratumSpec.coordinate(1, 0.0, name="hit-1"))
    report = transversality_check(rep, strata, y)
    assert not report.submersive
    assert report.verdicts[0].status == "transversal"
    assert report.verdicts[1].status == "non-transversal"


def test_submersive_implies_every_verdict_transversal():
    rng = np.random.default_rng(23)
    d = rng.normal(size=(2, 4))
    while numerical_rank(d).rank < 2:
        d = rng.normal(size=(2, 4))
    y = rng.normal(size=2)
    rep = make_report(d[:, :2], d[:, 2:])
    strata = (
        StratumSpec.coordinate(0, float(y[0])),
        StratumSpec.coordinate(1, float(y[1])),
        StratumSpec.sphere(y - np.array([0.5, 0.0]), 0.5),
        StratumSpec.affine(np.array([[1.0, 1.0]]), y, name="diag"),
    )
    report = transversality_check(rep, strata, y)
    assert report.submersive
    for verdict in report.verdicts:
        assert verdict.status in ("transversal", "no-intersection")
        assert verdict.status == "transversal"  # all pass through y


def test_stratum_normal_rank_uses_the_error_floor():
    # the joint map's projection onto the normal of {y_1 = 0} is 1e-9, below
    # its error |n| @ E = 1e-6, so it may be zero: no transversality there
    rep = JacobianReport(np.array([[1.0], [1e-9]]), np.zeros((2, 0)), np.full((2, 1), 1e-6))
    report = transversality_check(rep, (StratumSpec.coordinate(1, 0.0),), np.array([0.3, 0.0]))
    assert not report.submersive
    assert [(v.status, v.normal_rank) for v in report.verdicts] == [("non-transversal", 0)]


def test_stratum_constraints_and_normals():
    sph = StratumSpec.sphere(np.zeros(2), 1.0)
    assert sph.constraint(np.array([2.0, 0.0]))[0] == pytest.approx(1.0)
    n = sph.normal_basis(np.array([0.0, 3.0]))
    assert np.allclose(n, [[0.0, 1.0]])
    aff = StratumSpec.affine(np.array([[2.0, 0.0], [0.0, 1.0]]), np.zeros(2))
    assert aff.codim == 2
    basis = aff.normal_basis(np.zeros(2))
    assert np.allclose(basis @ basis.T, np.eye(2), atol=1e-12)
    # non-orthogonal rows: the basis is orthonormal and spans them
    a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    basis = StratumSpec.affine(a, np.zeros(3)).normal_basis(np.zeros(3))
    assert np.allclose(basis @ basis.T, np.eye(2), atol=1e-12)
    assert np.allclose(a @ (np.eye(3) - basis.T @ basis), 0.0, atol=1e-12)
    assert np.array_equal(StratumSpec.coordinate(1, 0.5).normal_basis(np.zeros(3)), [[0.0, 1.0, 0.0]])
    with pytest.raises(ValueError):
        StratumSpec.affine(np.array([[1.0, 0.0], [2.0, 0.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        StratumSpec.sphere(np.zeros(2), -1.0)


def test_transversality_dimension_mismatch():
    rep = make_report(np.eye(2), np.zeros((2, 0)))
    with pytest.raises(DimensionMismatch):
        transversality_check(rep, (), np.zeros(3))


def test_codimension_thresholds_cases():
    r = codimension_thresholds(3, 7)
    assert (r.identifiability_generic, r.info_regular_generic) == (True, True)
    assert r.self_intersection_codim == 8
    assert r.sigma1_codim == 6

    r = codimension_thresholds(3, 5)   # K+1 = 6 = 2p fails the strict test
    assert not r.identifiability_generic
    assert r.info_regular_generic

    r = codimension_thresholds(1, 1)   # K+1 = 2: 2 > 2 fails, 2 > 1 holds
    assert not r.identifiability_generic
    assert r.info_regular_generic

    with pytest.raises(ValueError):
        codimension_thresholds(0, 3)


def test_threshold_flags_recomputable():
    for p in (1, 2, 3, 4):
        for K in range(0, 9):
            r = codimension_thresholds(p, K)
            assert r.identifiability_generic == (K + 1 > 2 * p)
            assert r.info_regular_generic == (K + 1 > 2 * p - 1)
            assert r.self_intersection_codim == K + 1
            assert r.sigma1_codim == K + 1 - p + 1


PROBE_SPEC = FeatureMapSpec(orders=(0, 1, 2, 3, 4))


def test_probe_finds_classical_blindness_at_huge_scale():
    # s = 1000 emulates classical moments: the Stieltjes family collides
    fam = stieltjes_family()
    found = injectivity_probe(fam, KernelSpec(1000.0, 0.0), PROBE_SPEC,
                              n_starts=2, separation=0.5, tol=1e-5, seed=1)
    assert len(found) >= 1
    assert all(isinstance(c, CollisionCandidate) for c in found)
    assert min(c.objective for c in found) < 1e-10
    for c in found:
        assert np.linalg.norm(c.theta_1 - c.theta_2) >= 0.5


def test_probe_finds_no_collision_at_unit_scale():
    # oracle: the direct w_0 separation at a = 0 vs a = 1 exceeds 1e-6,
    # so no admissible pair can reach the collision tolerance
    fam = stieltjes_family()
    phi_a1 = feature_map(fam, [1.0], KernelSpec(1.0, 0.0), PROBE_SPEC).values
    phi_a0 = feature_map(fam, [0.0], KernelSpec(1.0, 0.0), PROBE_SPEC).values
    assert np.abs(phi_a1 - phi_a0).max() > 1e-6
    found = injectivity_probe(fam, KernelSpec(1.0, 0.0), PROBE_SPEC,
                              n_starts=3, separation=0.5, tol=1e-4, seed=2)
    assert found == []


def test_probe_runs_on_a_two_parameter_family():
    # the step of a pair (theta_1, theta_2) has 2p entries and the box p
    # widths: on every two-parameter family the first step shrink raised
    # "operands could not be broadcast together with shapes (4,) (2,)".
    # w_0, w_1, w_2 fix the tilted mean and variance, and with them mu and
    # sigma, so no collision is found
    fam = gaussian_family()
    found = injectivity_probe(fam, KernelSpec(1.0, 0.0), PROBE_SPEC,
                              n_starts=1, separation=0.5, tol=1e-4, seed=0)
    assert found == []


# orders (0,): w_0 alone cannot separate points, so every family collides.
# The Stieltjes w_0 is affine in a under a unit window, and collides only in
# the classical limit, here s = 1000
PROBE_FAMILIES = {
    "gaussian": (gaussian_family(), KernelSpec(1.0), "auto"),
    "cauchy": (cauchy_family(), KernelSpec(1.0), "auto"),
    "lognormal": (lognormal_family(), KernelSpec(1.0), "auto"),
    "stieltjes": (stieltjes_family(), KernelSpec(1000.0), "auto"),
    "stable1.5-charfn": (stable_family(1.5), KernelSpec(1.0), "charfn"),
}


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("name", PROBE_FAMILIES)
def test_probe_finds_admissible_collisions_on_every_family(name, seed):
    fam, kernel, path = PROBE_FAMILIES[name]
    found = injectivity_probe(fam, kernel, FeatureMapSpec(orders=(0,), path=path),
                              n_starts=2, separation=0.5, tol=1e-4, seed=seed)
    assert len(found) >= 1
    lo, hi = np.array(fam.box).T
    for c in found:
        for theta in (c.theta_1, c.theta_2):
            assert np.all((lo <= theta) & (theta <= hi))
        assert np.linalg.norm(c.theta_1 - c.theta_2) >= 0.5
        assert c.objective < 1e-8


@pytest.mark.parametrize("fam, most", [(cauchy_family(), 20), (stieltjes_family(), 2)])
def test_probe_slides_along_the_separation_bound(monkeypatch, fam, most):
    # Cauchy pairs meet the separation bound with steps that would close it;
    # pushed back about their midpoints, they crept to the iteration cap
    # (61 passes).  Sliding along the bound, every pair stops within 20.
    # A Stieltjes pair's w_j is nearly affine in a at s = 1, so its J along
    # the bound is nearly 0: damped by that J's own scale, not the full J's,
    # its slide took huge steps and 17 passes, where the family needs 2
    calls = []
    pairing_pass = wml.geometry._pairing_pass
    monkeypatch.setattr(wml.geometry, "_pairing_pass", lambda *a: calls.append(1) or pairing_pass(*a))
    found = injectivity_probe(fam, KernelSpec(1.0), PROBE_SPEC, n_starts=8, seed=0)
    assert found == [] and len(calls) <= most


def test_probe_makes_one_stacked_pass_per_iteration(monkeypatch):
    # each call carries both points of every live pair, pair by pair, with
    # the value and model columns only; no feature map is evaluated alone
    calls = []
    pairing_pass = wml.geometry._pairing_pass

    def counted(models, kernels, spec, model_params, kernel_params):
        calls.append((np.column_stack((models.mu, models.sigma)), model_params, kernel_params))
        return pairing_pass(models, kernels, spec, model_params, kernel_params)

    def refuse(*args):
        raise AssertionError("the probe evaluated a feature map alone")

    monkeypatch.setattr(wml.geometry, "_pairing_pass", counted)
    monkeypatch.setattr(wml.features, "feature_map", refuse)
    assert not hasattr(wml.geometry, "feature_map")
    injectivity_probe(gaussian_family(), KernelSpec(1.0), PROBE_SPEC, n_starts=4, seed=0)
    sizes = [len(points) for points, _, _ in calls]
    assert sizes[0] == 8 and 1 < len(calls) <= 1 + wml.geometry._PROBE_ITERATIONS
    assert all(n > 0 and n % 2 == 0 for n in sizes)
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))  # a pair that stops never comes back
    for points, model_params, kernel_params in calls:
        assert (model_params, kernel_params) == ((None, "mu", "sigma"), ())
        pairs = np.array(points).reshape(-1, 2, 2)
        assert np.all(np.linalg.norm(pairs[:, 0] - pairs[:, 1], axis=1) >= 0.5)


def test_separate_pushes_coincident_and_crossed_points_along_their_old_line():
    # a step may clip both points of a pair onto one corner of the box, or
    # carry them past each other: such a pair goes apart along the line it
    # had, with no 0/0, and the midpoint moves back into the box
    lo, hi = np.array([-5.0, 0.05]), np.array([5.0, 10.0])
    before = np.array([[[4.0, 9.0], [4.6, 9.8]], [[0.0, 1.0], [0.3, 1.4]], [[-4.0, 2.0], [-3.0, 2.0]]])
    after = np.array([[[5.0, 10.0], [5.0, 10.0]], [[0.2, 1.3], [0.1, 1.1]], [[-4.5, 2.0], [-3.5, 2.0]]])
    out = _separate(after, before, lo, hi, 0.5)
    assert np.all((lo <= out) & (out <= hi))
    d, d_before = out[:, 0] - out[:, 1], before[:, 0] - before[:, 1]
    assert np.all(np.linalg.norm(d, axis=1) >= 0.5)
    unit = lambda v: v / np.linalg.norm(v)
    for i in (0, 1):
        assert np.allclose(unit(d[i]), unit(d_before[i]))
    assert np.array_equal(out[2], after[2])  # a pair far enough apart is left alone


@pytest.mark.parametrize("fam, path", ((gaussian_family(), "auto"), (stable_family(1.5), "charfn")),
                         ids=("gaussian", "stable1.5-charfn"))
def test_probe_runs_where_the_normal_equations_are_singular(fam, path):
    # with orders (0, 1) J is 2x4, so J^T J is singular at every step: the
    # step is a least-squares solve, which raises no LinAlgError
    found = injectivity_probe(fam, KernelSpec(5.0), FeatureMapSpec(orders=(0, 1), path=path),
                              n_starts=4, separation=0.5, tol=1e-4, seed=1)
    assert all(c.objective < 1e-8 for c in found)


def test_probe_solves_a_rank_one_jacobian(monkeypatch):
    # Phi(mu, sigma) = mu + sigma: J = [1, 1, -1, -1] times the box widths
    # has rank 1, and the least-squares steps bring every pair below tol^2
    def plane(models, kernels, spec, model_params, kernel_params):
        values = np.stack(np.broadcast_arrays(models.mu + models.sigma, 1.0, 1.0), axis=-1)[:, None]
        return "density", values, np.zeros_like(values)

    monkeypatch.setattr(wml.geometry, "_pairing_pass", plane)
    found = injectivity_probe(gaussian_family(), KernelSpec(1.0), FeatureMapSpec(orders=(0,)),
                              n_starts=4, seed=1)
    assert len(found) == 4
    for c in found:
        assert c.objective < 1e-8
        assert np.linalg.norm(c.theta_1 - c.theta_2) >= 0.5


def test_probe_collapsed_box_returns_empty():
    fam = stieltjes_family()
    collapsed = type(fam)(fam.name, fam.param_names, fam.make, ((0.3, 0.3),))
    assert injectivity_probe(collapsed, KernelSpec(1.0, 0.0), PROBE_SPEC,
                             n_starts=4, separation=0.5, tol=1e-4, seed=0) == []


def test_geometry_entry_points_refuse_bad_arguments(monkeypatch):
    # a wrong size is refused by the stacked path before any pass
    pairing_pass = wml.geometry._pairing_pass
    calls = []
    monkeypatch.setattr(wml.geometry, "_pairing_pass", lambda *a: calls.append(1) or pairing_pass(*a))
    # wrong sizes, ragged points and wrong widths, of theta and of lambda
    for theta, lam in (([0.0, 1.0, 2.0], [1.0]), ([0.0, 1.0], [1.0, 0.0]), ([0.0, [1.0, 2.0]], [1.0]),
                       ([0.0, 1.0], [[1.0], 2.0]), ([[0.0, 1.0]], [1.0]), ([0.0, 1.0], [[1.0]])):
        with pytest.raises(DimensionMismatch, match="expects"):
            jacobian(gaussian_family(), scale_kernel_family(), theta, lam, FeatureMapSpec(orders=(0,)))
    for lambdas, thetas in (([[1.0], [2.0, 0.5]], [[0.0, 1.0]]), ([[1.0]], [[0.0, 1.0], [0.0]]), ([1.0], [0.0, 1.0])):
        with pytest.raises(DimensionMismatch):
            sweep_kernel(gaussian_family(), scale_kernel_family(), FeatureMapSpec(orders=(0,)), lambdas, thetas)
    assert not calls
    with pytest.raises(ValueError, match="finite"):
        numerical_rank(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="separation"):
        injectivity_probe(gaussian_family(), KernelSpec(1.0), PROBE_SPEC, separation=0.0)


@pytest.mark.parametrize("fam, kfam, thetas, lams, path", [
    (gaussian_family(), scale_center_kernel_family(), [(0.0, 1.0), (0.7, 0.4)], [(0.5, 0.0), (3.0, -1.0)], "auto"),
    (cauchy_family(), scale_kernel_family(), [(0.0,), (1.2,)], [(0.5,), (3.0,)], "auto"),
    (lognormal_family(), scale_kernel_family(), [(0.2, 0.8)], [(1.0,), (2.0,)], "density"),
    (stable_family(1.5), scale_center_kernel_family(), [(0.0, 1.0)], [(1.0, 0.5)], "charfn"),
], ids=["gaussian", "cauchy", "lognormal", "stable1.5-charfn"])
def test_jacobian_is_the_one_point_slice_of_a_stack(fam, kfam, thetas, lams, path):
    # a grid's report holds its points on a leading axis; jacobian at one
    # point returns that point's slice, with the single-point shapes and
    # the same bits
    spec = FeatureMapSpec(orders=(0, 1, 3), path=path)
    grid = [(th, lam) for lam in lams for th in thetas]
    stack = _jacobians(fam, kfam, *(np.array(z) for z in zip(*grid)), spec)
    n, k, p, q = len(grid), len(spec.orders), fam.p, kfam.p
    assert (stack.d_theta.shape, stack.d_lambda.shape, stack.error_estimates.shape) == \
        ((n, k, p), (n, k, q), (n, k, p + q))
    assert stack.features.values.shape == stack.features.errors.shape == (n, k)
    assert len(stack.features.paths) == n
    for i, (th, lam) in enumerate(grid):
        rep = jacobian(fam, kfam, th, lam, spec)
        assert (rep.d_theta.shape, rep.d_lambda.shape, rep.error_estimates.shape) == ((k, p), (k, q), (k, p + q))
        assert rep.features.values.shape == rep.features.errors.shape == (k,)
        assert rep.features.paths == stack.features.paths[i] == (rep.features.paths[0],) * k
        for name in ("d_theta", "d_lambda", "error_estimates"):
            assert getattr(rep, name).tobytes() == getattr(stack, name)[i].tobytes(), (name, th, lam)
        assert rep.features.values.tobytes() == stack.features.values[i].tobytes()
        assert rep.features.errors.tobytes() == stack.features.errors[i].tobytes()


@pytest.mark.parametrize("fam, model", [(cauchy_family(), "Cauchy"), (lognormal_family(), "LogNormal")])
def test_a_grid_enters_its_pass_as_columns(monkeypatch, fam, model):
    # a 300-point grid builds no spec object per point: its columns are
    # checked, meshed and stacked as arrays, with one call of the mesh
    # builder for every point, which the passes share out; sweep_kernel
    # is that grid with its rows
    import wml.models

    made, meshes, passes = [], [], []
    for kind in (getattr(wml.models, model), wml.models.KernelSpec):
        check = kind.__post_init__
        monkeypatch.setattr(kind, "__post_init__", lambda self, check=check: made.append(self) or check(self))
    breakpoints, real_line, half_line = wml.features._breakpoints, wml.features._real_line, wml.features._half_line
    monkeypatch.setattr(wml.features, "_breakpoints", lambda m, k: meshes.append(1) or breakpoints(m, k))
    monkeypatch.setattr(wml.features, "_real_line", lambda f, mesh: passes.append(len(mesh)) or real_line(f, mesh))
    monkeypatch.setattr(wml.features, "_half_line", lambda f, mesh: passes.append(len(mesh)) or half_line(f, mesh))
    monkeypatch.setattr(wml.features, "_CALL_VALUES", 2**15)  # several passes
    theta = np.column_stack([np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 25) for lo, hi in fam.box])
    grid = np.repeat(np.geomspace(0.5, 20.0, 12), 25)[:, None]
    stack = _jacobians(fam, scale_kernel_family(), np.tile(theta, (12, 1)), grid, FeatureMapSpec((0, 1)))
    assert stack.d_theta.shape == (300, 2, fam.p) and np.all(np.isfinite(stack.joint))
    # every log-normal point is integrated, and of the Cauchy's, the 12 at
    # mu = 0, where d/dmu w_j vanishes by symmetry and its closed form
    # cannot certify a bound relative to |value|
    integrated = 300 if model == "LogNormal" else 12
    assert len(made) <= 2 and meshes == [1] and len(passes) > 1 and sum(passes) == integrated
    made.clear(), meshes.clear(), passes.clear()
    rows = sweep_kernel(fam, scale_kernel_family(), FeatureMapSpec((0, 1)), np.geomspace(0.5, 20.0, 12), theta)
    assert len(rows) == 300 and len(made) <= 2 and meshes == [1] and sum(passes) == integrated
