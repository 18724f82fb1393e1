import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

import wml.quad
from wml.features import (
    FeatureMapSpec,
    feature_map,
    influence_bound,
    influence_value,
    moments_to_cumulants,
    weak_char_fn,
    weak_cumulants,
    weak_moment,
    weak_moment_jacobian,
)
from wml.models import (
    Cauchy,
    Gaussian,
    KernelSpec,
    LogNormal,
    NoDensity,
    StieltjesLogNormal,
    SymmetricStable,
    Unsupported,
    density,
    gaussian_family,
    lognormal_family,
    scale_center_kernel_family,
    stable_family,
)
from wml.quad import NonConvergence

SQRT_2PI = np.sqrt(2.0 * np.pi)
UNIT_KERNEL = KernelSpec(1.0, 0.0)


def gaussian_w0(mu, sigma, s, c=0.0):
    v = sigma * sigma + s * s
    return np.exp(-0.5 * (mu - c) ** 2 / v) / np.sqrt(2 * np.pi * v)


def test_spec_validation():
    with pytest.raises(ValueError):
        FeatureMapSpec(orders=())
    with pytest.raises(ValueError):
        FeatureMapSpec(orders=(1, 1))
    with pytest.raises(ValueError):
        FeatureMapSpec(orders=(2, 1))
    with pytest.raises(ValueError):
        FeatureMapSpec(orders=(-1, 0))
    with pytest.raises(ValueError):
        FeatureMapSpec(orders=(0,), path="both")


def test_gaussian_w0_closed_form():
    # product of two Gaussians integrates to the convolution value at 0
    for mu, sigma, s in [(0.0, 1.0, 1.0), (1.0, 0.5, 2.0), (-0.7, 2.0, 0.8)]:
        est = weak_moment(Gaussian(mu, sigma), KernelSpec(s), 0, FeatureMapSpec(orders=(0,)))
        assert est.value == pytest.approx(gaussian_w0(mu, sigma, s), rel=1e-10)
        assert est.path == "density"


def gaussian_tilted_moments(mu, sigma, s, c, orders):
    """Closed form: N(mu, sigma^2) times the N(c, s^2) window is w_0 N(m, v),
    so w_j = w_0 E[Y^j] with Y ~ N(m, v); also a magnitude scale per order."""
    v = 1.0 / (1.0 / sigma**2 + 1.0 / s**2)
    m = v * (mu / sigma**2 + c / s**2)
    w0 = gaussian_w0(mu, sigma, s, c)
    raw = [1.0, m]
    for j in range(2, max(orders) + 1):
        raw.append(m * raw[-1] + (j - 1) * v * raw[-2])
    values = np.array([w0 * raw[j] for j in orders])
    scales = np.array([w0 * (abs(m) + 3.0 * np.sqrt(v)) ** j for j in orders])
    return values, scales


def test_narrow_models_away_from_zero_match_closed_form():
    # a model narrower than the node spacing of the first panel used to be
    # missed: w_0 of Gaussian(2.5, 0.05) came out as 6.3e-64, reported
    # converged; the breakpoints at the model and the window find it
    est = weak_moment(Gaussian(2.5, 0.05), KernelSpec(1.0), 0)
    assert est.value == pytest.approx(0.017643392013970950, rel=1e-10)
    assert type(est.error) is float
    orders = (0, 1, 2, 3, 4)
    for mu in (-4.5, -2.5, 1.0, 4.0):
        for sigma in (0.05, 0.1):
            for s, c in ((0.3, 0.0), (1.0, 2.0), (10.0, 0.0), (10.0, 2.0)):
                fv = feature_map(gaussian_family(), [mu, sigma], KernelSpec(s, c),
                                 FeatureMapSpec(orders=orders))
                truth, scale = gaussian_tilted_moments(mu, sigma, s, c, orders)
                assert np.all(np.abs(fv.values - truth) <= 1e-9 * scale + 1e-13), (mu, sigma, s, c)


def test_cauchy_w0_is_damped_voigt_value():
    # the pairing of a probability density with a sub-maximal kernel stays
    # below the kernel's peak; oracle: independent quadrature
    est = weak_moment(Cauchy(0.0), UNIT_KERNEL, 0, FeatureMapSpec(orders=(0,)))
    oracle, _ = scipy_quad(lambda x: density(Cauchy(0), x) * np.exp(-0.5 * x * x) / SQRT_2PI,
                           -np.inf, np.inf, epsabs=1e-13, epsrel=1e-12)
    assert est.value == pytest.approx(oracle, rel=1e-9)
    assert 0.0 < est.value < 1.0 / SQRT_2PI


def test_stable_charfn_path_matches_gaussian_density_path():
    sigma = 1.0 / np.sqrt(2.0)
    cspec = FeatureMapSpec(orders=(0,), path="charfn")
    dspec = FeatureMapSpec(orders=(0,), path="density")
    a = weak_moment(SymmetricStable(2.0, 0.0, sigma), UNIT_KERNEL, 0, cspec)
    b = weak_moment(Gaussian(0.0, 1.0), UNIT_KERNEL, 0, dspec)
    assert a.value == pytest.approx(b.value, rel=1e-8)
    assert a.path == "charfn" and b.path == "density"


def test_path_agreement_for_both_twins():
    # every model supporting both routes gives the same weak moments,
    # including with an off-centre kernel (exercises the centre term of
    # the window-transform recursion)
    pairs = [
        (SymmetricStable(1.0, 0.5, 1.0), Cauchy(0.5)),
        (SymmetricStable(2.0, 0.5, 1.0 / np.sqrt(2.0)), Gaussian(0.5, 1.0)),
    ]
    for kernel in (UNIT_KERNEL, KernelSpec(0.8, 0.7)):
        for stable, twin in pairs:
            for j in range(5):
                cspec = FeatureMapSpec(orders=(j,), path="charfn")
                dspec = FeatureMapSpec(orders=(j,), path="density")
                via_char = weak_moment(stable, kernel, j, cspec).value
                via_dens = weak_moment(twin, kernel, j, dspec).value
                assert via_char == pytest.approx(via_dens, rel=1e-6), (stable, kernel, j)


def test_path_errors():
    with pytest.raises(NoDensity):
        weak_moment(SymmetricStable(1.5, 0, 1), UNIT_KERNEL, 0,
                    FeatureMapSpec(orders=(0,), path="density"))
    with pytest.raises(Unsupported):
        weak_moment(StieltjesLogNormal(0.5), UNIT_KERNEL, 0,
                    FeatureMapSpec(orders=(0,), path="charfn"))
    # the log-normal has no closed-form char fn: refused on the first
    # integrand call, before any panel completes
    with pytest.raises(Unsupported):
        weak_moment(LogNormal(0.0, 1.0), UNIT_KERNEL, 1,
                    FeatureMapSpec(orders=(1,), path="charfn"))
    # auto falls back to the characteristic-function route
    est = weak_moment(SymmetricStable(1.5, 0, 1), UNIT_KERNEL, 0,
                      FeatureMapSpec(orders=(0,), path="auto"))
    assert est.path == "charfn" and np.isfinite(est.value)


def test_feature_map_reports_an_unmet_budget(one_bisection):
    # a pass of several rows raises NonConvergence like a one-row pass
    # (its error array once met a scalar format and raised TypeError)
    spec = FeatureMapSpec(orders=(0, 1, 2))
    with pytest.raises(NonConvergence, match="component"):
        feature_map(gaussian_family(), [0.3, 0.01], UNIT_KERNEL, spec)


def test_feature_map_gaussian_orders_01():
    # tilted mean is 0 at mu = 0, so w_1 = 0; w_0 = 1/sqrt(4 pi)
    fv = feature_map(gaussian_family(), [0.0, 1.0], UNIT_KERNEL,
                     FeatureMapSpec(orders=(0, 1)))
    assert fv.values[0] == pytest.approx(1.0 / np.sqrt(4 * np.pi), rel=1e-10)
    assert abs(fv.values[1]) < 1e-12
    assert fv.paths == ("density", "density")
    assert np.all(fv.errors >= 0.0)


def test_feature_map_single_order_matches_weak_moment():
    spec = FeatureMapSpec(orders=(0,))
    fv = feature_map(gaussian_family(), [0.3, 1.2], UNIT_KERNEL, spec)
    est = weak_moment(Gaussian(0.3, 1.2), UNIT_KERNEL, 0, spec)
    assert fv.values[0] == est.value


def test_one_adaptive_pass_per_call(monkeypatch):
    # every order of a feature map, and every moment behind the weak
    # cumulants, shares one panel tree
    calls = []
    adaptive = wml.quad._adaptive
    monkeypatch.setattr(wml.quad, "_adaptive", lambda *a: calls.append(1) or adaptive(*a))
    spec = FeatureMapSpec(orders=(0, 1, 2, 3, 4))
    for fam, theta, path in ((gaussian_family(), [0.3, 1.2], "density"),
                             (stable_family(1.5), [0.3, 1.2], "charfn")):
        calls.clear()
        fv = feature_map(fam, theta, UNIT_KERNEL, spec)
        assert len(calls) == 1 and fv.paths == (path,) * 5
    calls.clear()
    weak_cumulants(Gaussian(0.3, 1.2), UNIT_KERNEL, 4)
    assert len(calls) == 1
    calls.clear()
    weak_moment(Gaussian(0.3, 1.2), UNIT_KERNEL, 3)
    assert len(calls) == 1


_KERNELS = scale_center_kernel_family()
_GAUSSIANS = gaussian_family()


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(mu=st.floats(*_GAUSSIANS.box[0]), sigma=st.floats(*_GAUSSIANS.box[1]),
       s=st.floats(*_KERNELS.box[0]), c=st.floats(*_KERNELS.box[1]))
def test_reported_error_bounds_the_gaussian_feature_map(mu, sigma, s, c):
    spec = FeatureMapSpec(orders=(0, 1, 2, 3, 4))
    truth, scale = gaussian_tilted_moments(mu, sigma, s, c, spec.orders)
    fv = feature_map(_GAUSSIANS, [mu, sigma], KernelSpec(s, c), spec)
    eps = np.finfo(float).eps
    assert np.all(np.abs(fv.values - truth) <= fv.errors + 4.0 * eps * scale)


def test_tiny_feature_map_is_refined_to_a_bound():
    # w_0 ~ 7.6e-157: its pass once met an absolute target on the first
    # panels and reported an error 2.4x smaller than the true one
    mu, sigma, s, c = -4.70, 0.113, 0.5, 9.04
    spec = FeatureMapSpec(orders=(0, 1, 2, 3, 4))
    truth, _ = gaussian_tilted_moments(mu, sigma, s, c, spec.orders)
    fv = feature_map(_GAUSSIANS, [mu, sigma], KernelSpec(s, c), spec)
    assert np.all(np.abs(fv.values - truth) <= fv.errors)


def test_feature_map_lognormal_finite_positive():
    fv = feature_map(lognormal_family(), [0.0, 1.0], UNIT_KERNEL,
                     FeatureMapSpec(orders=(0, 1, 2)))
    assert np.all(np.isfinite(fv.values))
    assert np.all(fv.values > 0.0)


def test_w0_positive_for_every_model_kernel_pair():
    models = [Gaussian(0.5, 1.3), Cauchy(-1.0), LogNormal(0.2, 0.8),
              StieltjesLogNormal(1.0), SymmetricStable(1.5, 0.3, 1.1)]
    for m in models:
        for k in (UNIT_KERNEL, KernelSpec(0.5, 0.7), KernelSpec(3.0, -1.0)):
            est = weak_moment(m, k, 0, FeatureMapSpec(orders=(0,)))
            assert est.value > 0.0, (m, k)


def test_kernel_separates_stieltjes_from_lognormal():
    # the classical moments coincide; the kernel pairing does not
    spec = FeatureMapSpec(orders=(0,))
    w_stieltjes = weak_moment(StieltjesLogNormal(1.0), UNIT_KERNEL, 0, spec).value
    w_lognormal = weak_moment(LogNormal(0.0, 1.0), UNIT_KERNEL, 0, spec).value
    assert abs(w_stieltjes - w_lognormal) > 1e-6


def test_weak_char_fn_at_zero_equals_w0_exactly():
    for m in (Gaussian(0.4, 1.1), Cauchy(0.2)):
        w0 = weak_moment(m, UNIT_KERNEL, 0, FeatureMapSpec(orders=(0,))).value
        z = weak_char_fn(m, UNIT_KERNEL, 0.0)
        assert z.real == w0  # same quadrature problem, bit for bit
        assert z.imag == 0.0


def test_weak_char_fn_derivative_is_first_weak_moment():
    m = Gaussian(0.3, 1.0)
    h = 1e-5
    d = (weak_char_fn(m, UNIT_KERNEL, h) - weak_char_fn(m, UNIT_KERNEL, -h)) / (2 * h)
    w1 = weak_moment(m, UNIT_KERNEL, 1, FeatureMapSpec(orders=(1,))).value
    assert d.imag == pytest.approx(w1, abs=1e-6)
    assert abs(d.real) < 1e-6


def test_weak_char_fn_gaussian_closed_form():
    # Gaussian x Gaussian window: w0 e^{i u m - var u^2 / 2} with the
    # tilted mean/variance of the product law
    mu, sigma, s, c = 0.0, 1.0, 1.0, 0.0
    var_tilt = 1.0 / (1.0 / sigma**2 + 1.0 / s**2)
    assert var_tilt == pytest.approx(0.5)
    u = 1.0
    z = weak_char_fn(Gaussian(mu, sigma), KernelSpec(s, c), u)
    w0 = gaussian_w0(mu, sigma, s, c)
    assert z.real == pytest.approx(w0 * np.exp(-0.5 * var_tilt * u * u), rel=1e-9)
    assert abs(z.imag) < 1e-12


def test_weak_char_fn_no_density():
    with pytest.raises(NoDensity):
        weak_char_fn(SymmetricStable(1.5, 0, 1), UNIT_KERNEL, 1.0)


def test_moments_to_cumulants_explicit_formulas():
    rng = np.random.default_rng(2)
    m = rng.uniform(0.5, 2.0, size=6)
    k = moments_to_cumulants(m)
    m1, m2, m3, m4, m5, m6 = m
    assert k[0] == pytest.approx(m1)
    assert k[1] == pytest.approx(m2 - m1**2)
    assert k[2] == pytest.approx(m3 - 3 * m1 * m2 + 2 * m1**3)
    assert k[3] == pytest.approx(m4 - 4 * m1 * m3 - 3 * m2**2 + 12 * m1**2 * m2 - 6 * m1**4)
    assert k[4] == pytest.approx(m5 - 5 * m1 * m4 - 10 * m2 * m3 + 20 * m1**2 * m3
                                 + 30 * m1 * m2**2 - 60 * m1**3 * m2 + 24 * m1**5)
    assert k[5] == pytest.approx(m6 - 6 * m1 * m5 - 15 * m2 * m4 + 30 * m1**2 * m4
                                 - 10 * m3**2 + 120 * m1 * m2 * m3 - 120 * m1**3 * m3
                                 + 30 * m2**3 - 270 * m1**2 * m2**2 + 360 * m1**4 * m2
                                 - 120 * m1**6)


def test_weak_cumulants_gaussian_product():
    mu, sigma = 0.7, 1.3
    k = KernelSpec(0.9, -0.4)
    wc = weak_cumulants(Gaussian(mu, sigma), k, 4)
    var_tilt = 1.0 / (1.0 / sigma**2 + 1.0 / k.s**2)
    mean_tilt = var_tilt * (mu / sigma**2 + k.c / k.s**2)
    assert wc.kappa[0] == pytest.approx(mean_tilt, rel=1e-9)
    assert wc.kappa[1] == pytest.approx(var_tilt, rel=1e-9)
    assert abs(wc.kappa[2]) < 1e-6
    assert abs(wc.kappa[3]) < 1e-6


def test_weak_cumulants_of_a_tiny_w0():
    # w_0 ~ 9.4e-280 once met an absolute target on the first panels and
    # gave kappa = (32.94, 0.0057); the tilted law is N(32, 0.2)
    wc = weak_cumulants(Gaussian(0.0, 1.0), KernelSpec(0.5, 40.0), 2)
    assert wc.kappa == pytest.approx([32.0, 0.2], rel=1e-8)


def test_subnormal_pairings_meet_a_target_floored_at_the_smallest_normal():
    # a narrow model 38 widths from a narrow window: every entry is
    # subnormal, without relative precision, and once exhausted the
    # budget against a relative target that had underflowed to 0
    spec = FeatureMapSpec(orders=(0, 1, 2, 3, 4))
    vals, errs = weak_moment_jacobian(Gaussian(-5.0, 0.25), KernelSpec(0.2, 7.275),
                                      ("mu", "sigma"), ("s", "c"), spec)
    tiny = np.finfo(float).tiny
    assert np.all(np.abs(vals) < tiny) and np.all(errs < tiny)


def test_rows_whose_first_estimate_is_zero_rank_their_panels_without_overflow():
    # a window 520 wide: on the char-fn route its transform misses every
    # first node, so five rows start with int |f| = 0 and a target at the
    # floor; their later panel errors once overflowed the heap keys to
    # -inf, with a RuntimeWarning, and tied
    spec = FeatureMapSpec(orders=(0, 12), path="charfn")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, errs = weak_moment_jacobian(Gaussian(-0.1416, 5.568), KernelSpec(520, -2.844),
                                          ("mu", "sigma"), ("s",), spec)
    assert np.all(np.isfinite(vals)) and np.all(np.isfinite(errs))


def test_weak_cumulants_order_one_is_tilted_mean():
    m = Cauchy(0.5)
    wc = weak_cumulants(m, UNIT_KERNEL, 1)
    w0 = weak_moment(m, UNIT_KERNEL, 0, FeatureMapSpec(orders=(0,))).value
    w1 = weak_moment(m, UNIT_KERNEL, 1, FeatureMapSpec(orders=(1,))).value
    assert wc.kappa[0] == pytest.approx(w1 / w0, rel=1e-9)
    assert wc.kappa.size == 1


def test_weak_cumulants_variance_nonnegative():
    for m in (Gaussian(0, 1), Cauchy(0.3), LogNormal(0.1, 0.9)):
        wc = weak_cumulants(m, KernelSpec(1.2, 0.1), 2)
        assert wc.kappa[1] >= 0.0


def test_weak_cumulants_errors():
    with pytest.raises(ValueError):
        weak_cumulants(Gaussian(0, 1), UNIT_KERNEL, 0)
    with pytest.raises(ValueError):
        weak_cumulants(Gaussian(0, 1), UNIT_KERNEL, 7)
    with pytest.raises(NoDensity):
        weak_cumulants(SymmetricStable(1.5, 0, 1), UNIT_KERNEL, 2)


def test_influence_bound_order_zero():
    assert influence_bound(UNIT_KERNEL, 0) == pytest.approx(1.0 / SQRT_2PI, rel=1e-12)
    shifted = KernelSpec(1.0, 2.0)
    assert influence_bound(shifted, 0) == pytest.approx(1.0 / SQRT_2PI, rel=1e-12)


def test_influence_bound_order_two_against_grid():
    # calculus maximiser x = +-sqrt(2); oracle: dense grid search
    bound = influence_bound(UNIT_KERNEL, 2)
    assert bound == pytest.approx(2.0 * np.exp(-1.0) / SQRT_2PI, rel=1e-12)
    grid = np.arange(-100.0, 100.0, 1e-4)
    oracle = np.max(np.abs(grid**2 * np.exp(-0.5 * grid * grid) / SQRT_2PI))
    assert bound == pytest.approx(oracle, abs=1e-8)


def test_influence_bound_is_model_independent():
    # functional of the kernel alone; identical whatever model produced w_j
    assert influence_bound(UNIT_KERNEL, 3) == influence_bound(UNIT_KERNEL, 3)
    b_offcentre = influence_bound(KernelSpec(1.3, 0.8), 2)
    grid = np.arange(-100.0, 100.0, 1e-4)
    vals = np.abs(grid**2 * np.exp(-0.5 * ((grid - 0.8) / 1.3) ** 2) / (SQRT_2PI * 1.3))
    assert b_offcentre == pytest.approx(np.max(vals), abs=1e-8)


def test_influence_value_and_bound_inequality():
    m = Cauchy(0.0)
    for j in (0, 1, 2):
        w_j = weak_moment(m, UNIT_KERNEL, j, FeatureMapSpec(orders=(j,))).value
        bound = influence_bound(UNIT_KERNEL, j)
        for x in np.linspace(-20, 20, 401):
            iv = influence_value(UNIT_KERNEL, j, x, w_j)
            assert abs(iv) <= bound + abs(w_j) + 1e-12
