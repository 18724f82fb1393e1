import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from wml.models import (
    Cauchy,
    Gaussian,
    KernelFamily,
    KernelSpec,
    LogNormal,
    NoDensity,
    OutOfSupport,
    StieltjesLogNormal,
    SymmetricStable,
    Undefined,
    Unsupported,
    canonical_family,
    cauchy_family,
    char_fn,
    classical_fisher_info,
    classical_moment,
    density,
    gaussian_family,
    kernel_eval,
    lognormal_family,
    scale_center_kernel_family,
    scale_kernel_family,
    stieltjes_family,
    support,
)
from wml.quad import NonConvergence, QuadratureConfig, integrate_half_line, integrate_real_line

SQRT_2PI = np.sqrt(2.0 * np.pi)


def test_parameter_validation():
    with pytest.raises(ValueError):
        Gaussian(0.0, 0.0)
    with pytest.raises(ValueError):
        LogNormal(0.0, -1.0)
    with pytest.raises(ValueError):
        StieltjesLogNormal(1.5)
    with pytest.raises(ValueError):
        SymmetricStable(0.0)
    with pytest.raises(ValueError):
        SymmetricStable(2.5)
    with pytest.raises(ValueError):
        KernelSpec(0.0)


@pytest.mark.parametrize("ctor, args, field", (
    (Cauchy, (np.inf,), "mu"),
    (LogNormal, (0.0, np.inf), "sigma"),
    (KernelSpec, (np.inf,), "s"),
    (Gaussian, (np.nan, 1.0), "mu"),
    (KernelSpec, (1.0, np.nan), "c"),
    (SymmetricStable, (1.5, np.nan, 1.0), "mu"),
))
def test_non_finite_parameters_are_rejected_by_name(ctor, args, field):
    # an inf or nan used to pass construction and surface later as a
    # silent 0, a numpy warning, or a NonFiniteEvaluation naming x-nodes
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        ctor(*args)


def test_density_values():
    assert density(Gaussian(0, 1), 0.0) == pytest.approx(1.0 / SQRT_2PI, abs=1e-12)
    assert density(Cauchy(0), 0.0) == pytest.approx(1.0 / np.pi, abs=1e-12)
    # stable endpoints coincide with Cauchy and a widened Gaussian
    assert density(SymmetricStable(1.0, 0.0, 1.0), 0.3) == pytest.approx(density(Cauchy(0), 0.3))
    assert density(SymmetricStable(2.0, 0.0, 1.0), 0.3) == pytest.approx(
        density(Gaussian(0.0, np.sqrt(2.0)), 0.3))


def test_stieltjes_density_form():
    x = 1.7
    base = density(LogNormal(0, 1), x)
    for a in (-1.0, -0.3, 0.5, 1.0):
        expected = (1.0 + a * np.sin(2 * np.pi * np.log(x))) * base
        assert density(StieltjesLogNormal(a), x) == pytest.approx(expected, rel=1e-14)


def test_density_errors():
    with pytest.raises(NoDensity):
        density(SymmetricStable(1.5, 0.0, 1.0), 0.0)
    with pytest.raises(OutOfSupport):
        density(LogNormal(0, 1), -1.0)
    with pytest.raises(OutOfSupport):
        density(StieltjesLogNormal(0.5), 0.0)


def test_every_density_integrates_to_one():
    models = [Gaussian(0.5, 1.3), Cauchy(-0.7), SymmetricStable(1.0, 0.2, 0.8),
              SymmetricStable(2.0, -0.1, 1.1), LogNormal(0.2, 0.9)]
    models += [StieltjesLogNormal(a) for a in (-1.0, -0.5, 0.5, 1.0)]
    for m in models:
        integrate = integrate_half_line if support(m) == "half" else integrate_real_line
        res = integrate(lambda x: density(m, x))
        assert res.value == pytest.approx(1.0, abs=1e-9), m


def test_stieltjes_densities_are_nonnegative():
    x = np.exp(np.linspace(-6, 6, 2001))
    for a in (-1.0, 1.0):
        assert np.all(density(StieltjesLogNormal(a), x) >= -1e-15)


def test_char_fn_values():
    assert char_fn(Gaussian(0, 1), 1.0) == pytest.approx(np.exp(-0.5), abs=1e-12)
    sigma = 0.7
    u = 1.4
    assert char_fn(SymmetricStable(2.0, 0.0, sigma), u) == pytest.approx(
        np.exp(-(sigma * u) ** 2), abs=1e-12)


def test_cauchy_char_fn_against_quadrature():
    # oracle: Fourier-weighted quadrature of E[e^{iux}] (QAWF) before
    # trusting e^{-|u|}; the bare oscillatory tail needs the weighted rule
    u = 2.0
    oracle, _ = scipy_quad(lambda x: 2.0 * density(Cauchy(0), x), 0, np.inf,
                           weight="cos", wvar=u)
    assert char_fn(Cauchy(0), u).real == pytest.approx(oracle, abs=1e-9)
    assert char_fn(Cauchy(0), u) == pytest.approx(np.exp(-2.0), abs=1e-9)
    # the in-package adaptive rule misses its default target on the bare
    # oscillatory tail, but its best estimate resolves the pairing to ~1e-6
    with pytest.raises(NonConvergence) as failure:
        integrate_real_line(lambda x: np.exp(1j * u * x) * density(Cauchy(0), x),
                            QuadratureConfig(max_subdivisions=8000))
    assert failure.value.result.value.real == pytest.approx(np.exp(-2.0), abs=1e-6)


def test_char_fn_at_zero_is_one():
    for m in (Gaussian(1, 2), Cauchy(0.3), SymmetricStable(1.5, 0.1, 0.9)):
        assert char_fn(m, 0.0) == 1.0


def test_char_fn_conjugate_symmetry():
    for m in (Gaussian(0, 1.4), Cauchy(0.0), SymmetricStable(1.7, 0.0, 1.2)):
        for u in (0.3, 1.1, 2.6):
            assert char_fn(m, u) == pytest.approx(np.conj(char_fn(m, -u)), abs=1e-12)


def test_char_fn_unsupported():
    # no closed form: the density route covers these
    for m in (StieltjesLogNormal(0.5), LogNormal(0.1, 0.8)):
        with pytest.raises(Unsupported):
            char_fn(m, 1.0)


def test_classical_moments():
    assert classical_moment(LogNormal(0, 1), 2) == pytest.approx(np.exp(2.0), rel=1e-14)
    assert classical_moment(Gaussian(1.5, 2.0), 1) == 1.5
    assert classical_moment(Gaussian(0.5, 1.5), 4) == pytest.approx(
        0.5**4 + 6 * 0.5**2 * 1.5**2 + 3 * 1.5**4, rel=1e-13)
    assert classical_moment(Cauchy(0), 0) == 1.0
    with pytest.raises(Undefined):
        classical_moment(Cauchy(0), 1)
    with pytest.raises(Undefined):
        classical_moment(SymmetricStable(1.5, 0, 1), 2)
    assert classical_moment(SymmetricStable(1.5, 0.7, 1), 1) == 0.7
    # moment blindness: the Stieltjes family reports the log-normal values
    for a in (-1.0, 0.5):
        for n in range(5):
            assert classical_moment(StieltjesLogNormal(a), n) == pytest.approx(
                np.exp(0.5 * n * n), rel=1e-14)


def test_stieltjes_blindness_by_quadrature():
    # quadrature of int x^n dmu_a equals exp(n^2/2) for every a: the
    # classical moment map cannot see a
    for a in (-1.0, 1.0):
        m = StieltjesLogNormal(a)
        for n in range(0, 9):
            expected = np.exp(0.5 * n * n)

            def f(x, n=n, m=m):
                base = density(m, x)
                out = np.zeros_like(base)
                nz = base != 0.0
                out[nz] = x[nz] ** n * base[nz]
                return out

            res = integrate_half_line(f)
            assert res.value == pytest.approx(expected, rel=1e-6), (a, n)


def test_fisher_information():
    assert classical_fisher_info(Cauchy(0.7), "location") == pytest.approx(0.5, abs=1e-6)
    # standard closed forms serve as the oracle for the quadrature route
    assert classical_fisher_info(Gaussian(0.4, 1.0), "location") == pytest.approx(1.0, abs=1e-8)
    for sigma in (0.8, 1.0, 2.5):
        assert classical_fisher_info(Gaussian(0.0, sigma), "scale") == pytest.approx(
            2.0 / sigma**2, rel=1e-6)
        assert classical_fisher_info(Gaussian(0.0, sigma), "location") == pytest.approx(
            1.0 / sigma**2, rel=1e-8)
    assert classical_fisher_info(LogNormal(0.3, 1.2), "location") == pytest.approx(
        1.0 / 1.2**2, rel=1e-8)
    with pytest.raises(NoDensity):
        classical_fisher_info(SymmetricStable(1.5, 0, 1), "location")
    with pytest.raises(ValueError):
        classical_fisher_info(Cauchy(0), "scale")


def test_fisher_information_of_narrow_models_away_from_zero():
    # Gaussian(2.5, 0.05) falls between the nodes of the first panel: the
    # quadrature used to return 7.1e-58, reported converged; breakpoints at
    # the model's location and scale find it
    assert classical_fisher_info(Gaussian(2.5, 0.05), "location") == pytest.approx(400.0, rel=1e-10)
    assert classical_fisher_info(Gaussian(-4.0, 0.05), "scale") == pytest.approx(800.0, rel=1e-10)
    assert classical_fisher_info(LogNormal(3.0, 0.05), "location") == pytest.approx(400.0, rel=1e-10)


def test_stable_scale_fisher_information():
    # alpha = 2 is a Gaussian with standard deviation sqrt(2) sigma, so the
    # stable scale carries information 2 / sigma^2; alpha = 1 is a Cauchy
    # with scale sigma, information 1 / (2 sigma^2)
    for sigma in (0.6, 1.0, 2.5):
        assert classical_fisher_info(SymmetricStable(2.0, 0.3, sigma), "scale") == pytest.approx(
            2.0 / sigma**2, rel=1e-8)
        assert classical_fisher_info(SymmetricStable(1.0, 0.3, sigma), "scale") == pytest.approx(
            0.5 / sigma**2, rel=1e-8)


def test_kernel_eval():
    k = KernelSpec(1.0, 0.0)
    assert kernel_eval(k, 0.0) == pytest.approx(1.0 / SQRT_2PI, abs=1e-12)
    # positivity out to x = +-50 (s = 1.5 keeps exp(-(x/s)^2/2) inside the
    # representable range; at s = 1 the value underflows below denormals)
    for x in (-50.0, 0.0, 50.0):
        assert kernel_eval(KernelSpec(1.5, 0.0), x) > 0.0
    res = integrate_real_line(lambda x: kernel_eval(KernelSpec(0.7, 1.2), x))
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_kernel_derivatives_match_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(10):
        s = rng.uniform(0.5, 3.0)
        c = rng.uniform(-2.0, 2.0)
        x = rng.uniform(-4.0, 4.0)
        _, ds, dc = kernel_eval(KernelSpec(s, c), x, derivs=True)
        fd_s = (kernel_eval(KernelSpec(s + h, c), x) - kernel_eval(KernelSpec(s - h, c), x)) / (2 * h)
        fd_c = (kernel_eval(KernelSpec(s, c + h), x) - kernel_eval(KernelSpec(s, c - h), x)) / (2 * h)
        assert ds == pytest.approx(fd_s, rel=1e-7, abs=1e-12)
        assert dc == pytest.approx(fd_c, rel=1e-7, abs=1e-12)


def test_families():
    fam = gaussian_family()
    assert fam.p == 2 and fam.make([0.3, 1.1]) == Gaussian(0.3, 1.1)
    assert cauchy_family().make([0.5]) == Cauchy(0.5)
    assert lognormal_family().make([0.1, 0.9]) == LogNormal(0.1, 0.9)
    assert stieltjes_family().make([0.7]) == StieltjesLogNormal(0.7)
    kfam = scale_kernel_family()
    assert kfam.q == 1 and kfam.make([2.0]) == KernelSpec(2.0, 0.0)
    kfam2 = scale_center_kernel_family()
    assert kfam2.q == 2 and kfam2.make([2.0, -0.5]) == KernelSpec(2.0, -0.5)
    with pytest.raises(ValueError):
        KernelFamily("scale", ((0.0, 1.0),))
    fam2, theta = canonical_family(Cauchy(0.25))
    assert fam2.name == "cauchy" and theta[0] == 0.25
