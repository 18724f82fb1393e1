import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from wml.quad import (
    _WG,
    _WGK,
    _XGK,
    NonConvergence,
    NonFiniteEvaluation,
    QuadratureConfig,
    integrate_half_line,
    integrate_real_line,
)

SQRT_PI = np.sqrt(np.pi)


def test_config_defaults_and_validation():
    cfg = QuadratureConfig()
    assert cfg.rel_tol == 1e-10 and cfg.abs_tol == 1e-12
    assert cfg.max_subdivisions == 2000
    for bad in (dict(rel_tol=0.0), dict(abs_tol=-1e-3), dict(max_subdivisions=0)):
        with pytest.raises(ValueError):
            QuadratureConfig(**bad)


def test_oscillatory_raises_budget_only():
    cfg = QuadratureConfig().oscillatory()
    assert cfg.max_subdivisions == 8000
    assert cfg.rel_tol == 1e-10


def test_gaussian_integral():
    res = integrate_real_line(lambda x: np.exp(-x * x))
    assert res.converged
    assert res.value == pytest.approx(SQRT_PI, rel=1e-10)


def test_normal_density_normalisation():
    res = integrate_real_line(lambda x: np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi))
    assert res.value == pytest.approx(1.0, rel=1e-10)


def test_odd_integrand_vanishes():
    res = integrate_real_line(lambda x: x * np.exp(-x * x))
    assert abs(res.value) <= max(1e-12, res.error_estimate)


def test_converged_result_meets_tolerance():
    cfg = QuadratureConfig()
    res = integrate_real_line(lambda x: np.exp(-x * x), cfg)
    assert res.converged
    assert res.error_estimate <= max(cfg.abs_tol, cfg.rel_tol * abs(res.value))
    assert res.evaluations > 0


def test_exponential_half_line():
    res = integrate_half_line(lambda x: np.exp(-x))
    assert res.value == pytest.approx(1.0, rel=1e-10)


def test_lognormal_density_normalisation():
    f = lambda x: np.exp(-0.5 * np.log(x) ** 2) / (x * np.sqrt(2 * np.pi))
    res = integrate_half_line(f)
    assert res.value == pytest.approx(1.0, rel=1e-10)


def test_stieltjes_order_two_cancellation():
    # int x^2 sin(2 pi log x) dLogNormal = 0; at n = 2 the integrand scale
    # e^2 leaves the raw residual below the absolute tolerance
    cfg = QuadratureConfig(max_subdivisions=8000)
    f = lambda x: x**2 * np.sin(2 * np.pi * np.log(x)) \
        * np.exp(-0.5 * np.log(x) ** 2) / (x * np.sqrt(2 * np.pi))
    res = integrate_half_line(f, cfg)
    assert abs(res.value) < cfg.abs_tol


def test_budget_exhaustion_returns_unconverged():
    cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=3)
    with pytest.raises(NonConvergence) as failure:
        integrate_real_line(lambda x: 1.0 / (1.0 + x * x) ** 2, cfg)
    res = failure.value.result
    assert not res.converged
    assert np.isfinite(res.value)
    assert np.ndim(res.value) == np.ndim(res.error_estimate) == 0


def test_nonconvergence_names_the_component_furthest_from_its_target():
    # component 0 meets abs_tol on the first panel; component 1 cannot
    # meet its target in two subdivisions
    cfg = QuadratureConfig(max_subdivisions=2)
    f = lambda x: np.array([1e-30 * np.exp(-x * x), 1.0 / (1.0 + x * x) ** 2])
    with pytest.raises(NonConvergence) as failure:
        integrate_real_line(f, cfg)
    res = failure.value.result
    target = max(cfg.abs_tol, cfg.rel_tol * abs(res.value[1]))
    assert str(failure.value) == (
        f"adaptive quadrature: component 1 error {res.error_estimate[1]:.3e} "
        f"against a target of {target:.3e} after {res.evaluations // 15} panels")


def test_one_integrand_call_for_the_initial_panels_and_one_per_bisection():
    # the four panels between the breakpoints share one call; both halves
    # of each bisection share another
    sizes = []

    def f(x):
        sizes.append(x.size)
        return 1.0 / (1.0 + x * x) ** 2

    res = integrate_real_line(f, points=[-1.0, 0.0, 2.0])
    bisections = (res.evaluations // 15 - 4) // 2
    assert bisections > 0
    assert sizes == [60] + [30] * bisections


def test_non_finite_integrand_raises():
    with pytest.raises(NonFiniteEvaluation):
        integrate_real_line(lambda x: np.where(np.abs(x) < 0.5, np.nan, 0.0))


def test_complex_integrand():
    # int e^{iux} N(0,1)(x) dx = e^{-u^2/2}
    u = 1.3
    f = lambda x: np.exp(1j * u * x) * np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)
    res = integrate_real_line(f)
    assert res.value.real == pytest.approx(np.exp(-0.5 * u * u), rel=1e-10)
    assert abs(res.value.imag) < 1e-12


def test_linearity_on_random_gaussian_polynomials():
    rng = np.random.default_rng(7)
    for _ in range(20):
        ca = rng.normal(size=4)
        cb = rng.normal(size=4)
        a, b = rng.normal(size=2)
        fa = lambda x: np.polyval(ca, x) * np.exp(-x * x)
        fb = lambda x: np.polyval(cb, x) * np.exp(-x * x)
        combined = integrate_real_line(lambda x: a * fa(x) + b * fb(x))
        ra = integrate_real_line(fa)
        rb = integrate_real_line(fb)
        lhs = combined.value
        rhs = a * ra.value + b * rb.value
        budget = combined.error_estimate + abs(a) * ra.error_estimate + abs(b) * rb.error_estimate
        assert abs(lhs - rhs) <= max(budget, 1e-12 * max(1.0, abs(rhs)))


def test_half_line_matches_log_substitution():
    # the documented reduction: int_0^inf f = int_R f(e^y) e^y dy (the
    # manual side clips the same |log x| <= 64 envelope the engine uses)
    rng = np.random.default_rng(11)
    for _ in range(20):
        mu = rng.uniform(-1.0, 1.0)
        sigma = rng.uniform(0.5, 2.0)
        n = int(rng.integers(0, 3))
        f = lambda x: x**n * np.exp(-0.5 * ((np.log(x) - mu) / sigma) ** 2) / x

        def manual(y):
            out = np.zeros_like(y)
            good = np.abs(y) < 64.0
            out[good] = f(np.exp(y[good])) * np.exp(y[good])
            return out

        direct = integrate_half_line(f)
        substituted = integrate_real_line(manual)
        assert direct.value == pytest.approx(substituted.value, rel=1e-10)


def test_adaptive_agrees_with_scipy_quad_for_weak_moments():
    # Gaussian-kernel weak-moment integrands x^j f(x) phi_{s,c}(x), j <= 8
    s, c = 1.0, 0.2
    dens = lambda x: 1.0 / (np.pi * (1.0 + (x - 0.3) ** 2))  # Cauchy(0.3)
    kernel = lambda x: np.exp(-0.5 * ((x - c) / s) ** 2) / (np.sqrt(2 * np.pi) * s)
    for j in range(0, 9):
        g = lambda x: x**j * dens(x) * kernel(x)
        oracle, _ = scipy_quad(g, -np.inf, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
        adaptive = integrate_real_line(g).value
        assert adaptive == pytest.approx(oracle, rel=1e-8)


def test_gauss_kronrod_constants_exact_to_full_degree():
    # the 15-point Kronrod rule integrates x^d exactly on [-1, 1] up to
    # d = 22, its 7-point Gauss subrule up to d = 13; summed in exact
    # arithmetic, the double-rounded constants must hold that to a few ulp
    import mpmath

    with mpmath.workdps(50):
        kronrod = [(mpmath.mpf(float(x)), mpmath.mpf(float(w))) for x, w in zip(_XGK, _WGK)]
        gauss = [(mpmath.mpf(float(_XGK[i])), mpmath.mpf(float(w)))
                 for i, w in zip((1, 3, 5, 7), _WG)]
        for pairs, degree in ((kronrod, 22), (gauss, 13)):
            for d in range(degree + 1):
                # nodes are listed once per +-x pair; the centre x = 0 once
                got = sum(w * (x**d + (-x) ** d) / (2 if x == 0 else 1) for x, w in pairs)
                exact = mpmath.mpf(2) / (d + 1) if d % 2 == 0 else 0
                assert abs(got - exact) < 4e-16, (len(pairs), d)


def test_vector_integrand_shares_one_panel_tree():
    # rows with their own scales converge together, each to its own
    # tolerance; a 1-D integrand and its one-row form share one path (the
    # same panels and numbers) and differ only in the shapes returned
    cfg = QuadratureConfig()
    rows = lambda x: np.array([np.exp(-x * x), 1e-6 * x * x * np.exp(-x * x), np.exp(-(x - 3.0) ** 2)])
    res = integrate_real_line(rows, cfg)
    assert res.converged is True
    assert res.evaluations % 15 == 0
    assert res.value.shape == res.error_estimate.shape == (3,)
    truth = np.array([SQRT_PI, 1e-6 * SQRT_PI / 2, SQRT_PI])
    assert np.all(np.abs(res.value - truth) <= np.maximum(cfg.abs_tol, cfg.rel_tol * truth))
    assert np.all(res.error_estimate <= np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(res.value)))

    f = lambda x: 1.0 / (1.0 + x * x) ** 2
    scalar = integrate_real_line(f)
    single = integrate_real_line(lambda x: f(x)[None, :])
    assert np.ndim(scalar.value) == np.ndim(scalar.error_estimate) == 0
    assert single.value.shape == single.error_estimate.shape == (1,)
    assert single.evaluations == scalar.evaluations
    assert single.value[0] == scalar.value
    assert single.error_estimate[0] == scalar.error_estimate

    half = integrate_half_line(lambda x: np.array([np.exp(-x), x * np.exp(-x)]))
    assert half.value == pytest.approx([1.0, 1.0], rel=1e-10)


def test_breakpoints_reveal_a_narrow_peak():
    # a peak of width 0.01 at x = 40 falls between the nodes of the first
    # panel; breakpoints around the peak make the first panels see it
    peak = lambda x: np.exp(-0.5 * ((x - 40.0) / 0.01) ** 2) / (0.01 * np.sqrt(2 * np.pi))
    assert integrate_real_line(peak).value < 1e-6
    points = 40.0 + 0.01 * np.array([-10.0, -6.0, -3.0, -1.0, 0.0, 1.0, 3.0, 6.0, 10.0])
    res = integrate_real_line(peak, points=points)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-10)
    # points outside the half-line are dropped
    on_half = integrate_half_line(peak, points=np.concatenate(([-1.0, 0.0, np.inf], points)))
    assert on_half.value == pytest.approx(1.0, rel=1e-10)
