import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from wml.features import FeatureMapSpec, feature_map
from wml.geometry import (
    CollisionCandidate,
    DimensionMismatch,
    JacobianReport,
    MetricOverflow,
    StepUnderflow,
    StratumSpec,
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
        assert rep.joint.shape == oracle.shape == (3, fam.p + kfam.q)
        assert rep.error_estimates.shape == oracle.shape
        assert np.allclose(rep.joint, oracle, rtol=1e-6, atol=1e-9 * np.abs(oracle).max()), \
            (fam.name, kfam.mode, rep.joint, oracle)


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
    spec = FeatureMapSpec(orders=(0, 1, 2))
    with pytest.raises(NonConvergence, match="component"):
        jacobian(gaussian_family(), scale_kernel_family(), [0.3, 0.06], [1.0], spec)


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


def test_stratum_constraints_and_normals():
    sph = StratumSpec.sphere(np.zeros(2), 1.0)
    assert sph.constraint(np.array([2.0, 0.0]))[0] == pytest.approx(1.0)
    n = sph.normal_basis(np.array([0.0, 3.0]))
    assert np.allclose(n, [[0.0, 1.0]])
    aff = StratumSpec.affine(np.array([[2.0, 0.0], [0.0, 1.0]]), np.zeros(2))
    assert aff.codim == 2
    basis = aff.normal_basis(np.zeros(2))
    assert np.allclose(basis @ basis.T, np.eye(2), atol=1e-12)
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
                              n_starts=2, separation=0.5, tol=1e-5, seed=1,
                              max_sweeps=8)
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
                              n_starts=3, separation=0.5, tol=1e-4, seed=2,
                              max_sweeps=12)
    assert found == []


def test_probe_collapsed_box_returns_empty():
    fam = stieltjes_family()
    collapsed = type(fam)(fam.name, fam.param_names, fam.make, ((0.3, 0.3),))
    assert injectivity_probe(collapsed, KernelSpec(1.0, 0.0), PROBE_SPEC,
                             n_starts=4, separation=0.5, tol=1e-4, seed=0) == []
