import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

import wml.quad
from wml.quad import (
    _REL_TOL,
    _WG,
    _WGK,
    _XGK,
    NonConvergence,
    NonFiniteEvaluation,
    integrate_half_line,
    integrate_real_line,
)

SQRT_PI = np.sqrt(np.pi)


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
    res = integrate_real_line(lambda x: np.exp(-x * x))
    assert res.converged
    # the target is rel_tol * int |f|, which is |value| for a one-signed integrand
    assert res.error_estimate <= _REL_TOL * abs(res.value)
    assert res.evaluations > 0


def test_exponential_half_line():
    res = integrate_half_line(lambda x: np.exp(-x))
    assert res.value == pytest.approx(1.0, rel=1e-10)


def test_lognormal_density_normalisation():
    f = lambda x: np.exp(-0.5 * np.log(x) ** 2) / (x * np.sqrt(2 * np.pi))
    res = integrate_half_line(f)
    assert res.value == pytest.approx(1.0, rel=1e-10)


def test_stieltjes_order_two_cancellation():
    # int x^2 sin(2 pi log x) dLogNormal = 0; the integrand cancels, so
    # its target is rel_tol of its own int |f|, not of the value
    f = lambda x: x**2 * np.sin(2 * np.pi * np.log(x)) \
        * np.exp(-0.5 * np.log(x) ** 2) / (x * np.sqrt(2 * np.pi))
    res = integrate_half_line(f)
    l1 = integrate_half_line(lambda x: np.abs(f(x))).value
    assert abs(res.value) < _REL_TOL * l1


def test_budget_exhaustion_returns_unconverged(monkeypatch):
    monkeypatch.setattr(wml.quad, "_MAX_SUBDIVISIONS", 3)
    with pytest.raises(NonConvergence) as failure:
        integrate_real_line(lambda x: 1.0 / (1.0 + x * x) ** 2)
    res = failure.value.result
    assert not res.converged
    assert np.isfinite(res.value)
    assert np.ndim(res.value) == np.ndim(res.error_estimate) == 0


def test_nonconvergence_names_the_component_furthest_from_its_target(monkeypatch):
    # component 0 is (1 - t^2)^2 on the mapped line x = t / (1 - t^2), a
    # polynomial both rules integrate exactly: it meets its target on the
    # first panel and on every half.  Component 1 cannot meet its target,
    # rel_tol * int |f| = rel_tol * value, in two subdivisions
    monkeypatch.setattr(wml.quad, "_MAX_SUBDIVISIONS", 2)
    r = lambda x: np.sqrt(1.0 + 4.0 * x * x)
    f = lambda x: np.array([8.0 / ((1.0 + r(x)) ** 3 * r(x)), 1.0 / (1.0 + x * x) ** 2])
    with pytest.raises(NonConvergence) as failure:
        integrate_real_line(f)
    res = failure.value.result
    target = _REL_TOL * abs(res.value[1])
    assert str(failure.value) == (
        f"adaptive quadrature: component 1 error {res.error_estimate[1]:.3e} "
        f"against a target of {target:.3e} after {res.evaluations // 15} panels")


def test_one_integrand_call_for_the_initial_panels_and_one_per_round(monkeypatch):
    # the four panels between the breakpoints share one call; each later
    # call covers both halves of every panel bisected in its round
    rounds = []
    kronrod = wml.quad._kronrod_panels

    def panels(f, a, b, seg):
        rounds.append((a, b))
        return kronrod(f, a, b, seg)

    monkeypatch.setattr(wml.quad, "_kronrod_panels", panels)
    sizes = []

    def f(x):
        sizes.append(x.size)
        return 1.0 / (1.0 + x * x) ** 2

    res = integrate_real_line(f, points=[-1.0, 0.0, 2.0])
    bisections = (res.evaluations // 15 - 4) // 2
    assert sizes[0] == 60 and sum(sizes) == res.evaluations
    for (a, b), size in zip(rounds[1:], sizes[1:]):
        # the left halves of n panels, then their right halves
        n = a.size // 2
        assert size == 30 * n and np.array_equal(b[:n], a[n:])
    assert sum(a.size // 2 for a, _ in rounds[1:]) == bisections
    assert 0 < len(sizes) - 1 < bisections


def test_a_round_never_pops_past_the_budget(monkeypatch):
    # eight seeded panels, each far above the whole integral's target: a
    # round would bisect them all, but stops at the three bisections left
    monkeypatch.setattr(wml.quad, "_MAX_SUBDIVISIONS", 3)
    points = [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
    panels = len(points) + 1
    with pytest.raises(NonConvergence) as failure:
        integrate_real_line(lambda x: np.cos(40.0 * x) ** 2 * np.exp(-x * x / 16.0), points)
    assert failure.value.result.evaluations == 15 * (panels + 6)
    assert str(failure.value).endswith(f"after {panels + 6} panels")


def test_a_failing_pass_spends_its_budget_in_few_integrand_calls():
    # about ten thousand oscillations cannot converge in 2000 bisections; each
    # round bisects a batch of panels from one integrand call, so the
    # budget runs out in a few dozen calls, not one call per bisection
    calls = []

    def f(x):
        calls.append(x.size)
        return np.cos(1e4 * x) * np.exp(-x * x)

    with pytest.raises(NonConvergence) as failure:
        integrate_real_line(f)
    assert failure.value.result.evaluations == 15 * (1 + 2 * wml.quad._MAX_SUBDIVISIONS)
    assert len(calls) <= 100


def test_a_pass_raises_once_no_panel_can_be_split(monkeypatch):
    # below the 50 ulp error floor no panel meets its target, and a panel
    # one ulp wide has no midpoint to split at: the pass raises after its
    # first integrand call
    monkeypatch.setattr(wml.quad, "_REL_TOL", 1e-15)
    calls = []

    def f(x):
        calls.append(x.size)
        return np.ones_like(x)

    with pytest.raises(NonConvergence) as failure:
        wml.quad._adaptive(lambda x, _: f(x), np.array([1.0]), np.array([np.nextafter(1.0, 2.0)]),
                           np.zeros(1, dtype=int))
    assert calls == [15] and str(failure.value).endswith("after 1 panels")


def test_a_non_finite_value_names_the_first_segment_that_has_one():
    # segments 1 and 2 of a pass are NaN everywhere: the error names
    # segment 1 and its nodes, in x
    def f(x, seg):
        return np.where(seg >= 1, np.nan, np.exp(-x * x))

    with pytest.raises(NonFiniteEvaluation) as info:
        wml.quad._real_line(f, np.empty((3, 0)))
    assert info.value.segment == 1 and info.value.points.size == 15


def test_non_finite_integrand_raises():
    with pytest.raises(NonFiniteEvaluation):
        integrate_real_line(lambda x: np.where(np.abs(x) < 0.5, np.nan, 0.0))


@pytest.mark.parametrize("integrate, f", (
    (integrate_real_line, lambda x: np.where(np.abs(x) > 3.0, np.inf, np.exp(-x * x))),
    (integrate_half_line, lambda x: np.where(x > 3.0, np.inf, np.exp(-x))),
), ids=["real-line", "half-line"])
def test_non_finite_evaluation_names_the_points_f_received(integrate, f):
    # the nodes are reported in x, not in the engine's mapped coordinate
    with pytest.raises(NonFiniteEvaluation) as info:
        integrate(f)
    points = info.value.points
    assert points.size > 0 and not np.isfinite(f(points)).any()
    assert f"x={points[:3]}" in str(info.value)


def test_complex_integrand():
    # the engine integrates real rows only: a complex integrand is refused
    for integrate in (integrate_real_line, integrate_half_line):
        with pytest.raises(ValueError, match="one real value"):
            integrate(lambda x: np.exp(1j * x - x * x))


def test_cos_and_sin_rows_of_a_char_fn():
    # int e^{iux} N(0,1)(x) dx = e^{-u^2/2}, as its cos and sin rows
    u = 1.3
    f = lambda x: np.array([np.cos(u * x), np.sin(u * x)]) * np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)
    res = integrate_real_line(f)
    assert res.value[0] == pytest.approx(np.exp(-0.5 * u * u), rel=1e-10)
    assert abs(res.value[1]) < 1e-12


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
    rows = lambda x: np.array([np.exp(-x * x), 1e-6 * x * x * np.exp(-x * x), np.exp(-(x - 3.0) ** 2)])
    res = integrate_real_line(rows)
    assert res.converged is True
    assert res.evaluations % 15 == 0
    assert res.value.shape == res.error_estimate.shape == (3,)
    truth = np.array([SQRT_PI, 1e-6 * SQRT_PI / 2, SQRT_PI])
    # each row is one-signed, so its target rel_tol * int |f| is rel_tol * |value|
    assert np.all(np.abs(res.value - truth) <= _REL_TOL * truth)
    assert np.all(res.error_estimate <= _REL_TOL * np.abs(res.value))

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


@pytest.mark.filterwarnings("error")
def test_a_zero_row_has_a_zero_target_and_is_met_at_once():
    # a row that is 0 everywhere has error 0 and meets its target, the
    # smallest normal float, at once; the panels rank by the other row,
    # and its log2 0 raises no warning
    res = integrate_real_line(lambda x: np.array([np.exp(-x * x), 0.0 * x]))
    assert res.value[1] == 0.0 and res.error_estimate[1] == 0.0
    assert res.value[0] == pytest.approx(SQRT_PI, rel=1e-10)


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


def test_a_peak_bracketed_out_to_its_tails_reports_an_error_that_bounds_its_true_error():
    # the first panel beyond the outermost breakpoint reaches to infinity:
    # with points at 40 +- {0, 1, 3, 6} widths only, its nodes miss the
    # peak's tail, and the call reports 9.6e-13 against a true error of
    # 2.0e-9; points at +-10 widths close the tails
    peak = lambda x: np.exp(-0.5 * ((x - 40.0) / 0.01) ** 2) / (0.01 * np.sqrt(2 * np.pi))
    points = 40.0 + 0.01 * np.array([-10.0, -6.0, -3.0, -1.0, 0.0, 1.0, 3.0, 6.0, 10.0])
    for integrate in (integrate_real_line, integrate_half_line):
        res = integrate(peak, points=points)
        assert abs(res.value - 1.0) <= res.error_estimate < 1e-10, integrate.__name__


def test_scaling_in_place_leaves_every_result_bit_identical():
    # reference: the substitutions as first written, scaling into a fresh
    # zero-filled array, run by the same engine
    def real_line(f):
        def transformed(t, _):
            tt = t * t
            one = 1.0 - tt
            good = one > 1e-150
            one = one[good]
            fx = f(t[good] / one) * ((1.0 + tt[good]) / (one * one))
            vals = np.zeros(fx.shape[:-1] + t.shape, dtype=fx.dtype)
            vals[..., good] = fx
            return vals
        return transformed

    def half_line(f):
        def substituted(y):
            good = np.abs(y) < 64.0
            x = np.exp(y[good])
            fx = f(x) * x
            vals = np.zeros(fx.shape[:-1] + y.shape, dtype=fx.dtype)
            vals[..., good] = fx
            return vals
        return substituted

    def read_only(x):
        out = 1.0 / (1.0 + x * x)
        out.flags.writeable = False
        return out

    rows = np.array([0.5, 1.0, 3.0])[:, None]
    cases = [lambda x: np.exp(-rows * x * x) * np.cos(x), read_only,
             lambda x: np.array([np.cos(x), np.sin(x)]) * np.exp(-x * x)]
    for f in cases:
        got = integrate_real_line(f)
        want = wml.quad._lone(wml.quad._adaptive(real_line(f), np.array([-1.0]), np.array([1.0]),
                                                  np.zeros(1, dtype=int)))
        assert np.asarray(got.value).tobytes() == np.asarray(want.value).tobytes()
        assert np.asarray(got.error_estimate).tobytes() == np.asarray(want.error_estimate).tobytes()
    # the log-normal power rows reach past the |log x| <= 64 clip
    n = np.arange(4.0)[:, None]
    g = lambda x: np.exp((n - 1.0) * np.log(x) - 0.5 * np.log(x) ** 2 - 0.5 * n * n)
    got = integrate_half_line(g)
    want = wml.quad._lone(wml.quad._adaptive(real_line(half_line(g)), np.array([-1.0]), np.array([1.0]),
                                              np.zeros(1, dtype=int)))
    assert got.value.tobytes() == want.value.tobytes()
    assert got.error_estimate.tobytes() == want.error_estimate.tobytes()
