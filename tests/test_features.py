import math
import re
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

import wml.quad
from wml.experiments import sweep_kernel
from wml.features import (
    FeatureMapSpec,
    _charfn_stack,
    _density_stack,
    _pairing_pass,
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
    Undefined,
    Unsupported,
    _breakpoints,
    _charfn_points,
    _charfn_score,
    _columns,
    _frame,
    _score,
    canonical_family,
    cauchy_family,
    char_fn,
    density,
    gaussian_family,
    kernel_eval,
    lognormal_family,
    scale_center_kernel_family,
    scale_kernel_family,
    stable_family,
    stieltjes_family,
    support_has_density,
)
from wml.quad import NonConvergence, NonFiniteEvaluation

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
    so w_j = w_0 E[Y^j] with Y ~ N(m, v); also a magnitude scale per order.
    Evaluated in 40-digit arithmetic: in doubles the exponent of w_0, up to
    about 700, carries rounding of 1e-14 of w_0 and more."""
    import mpmath

    with mpmath.workdps(40):
        mu, sigma, s, c = map(mpmath.mpf, (mu, sigma, s, c))
        v = 1 / (1 / sigma**2 + 1 / s**2)
        m = v * (mu / sigma**2 + c / s**2)
        t = sigma**2 + s**2
        w0 = mpmath.exp(-(mu - c) ** 2 / (2 * t)) / mpmath.sqrt(2 * mpmath.pi * t)
        raw = [mpmath.mpf(1), m]
        for j in range(2, max(orders) + 1):
            raw.append(m * raw[-1] + (j - 1) * v * raw[-2])
        values = np.array([float(w0 * raw[j]) for j in orders])
        scales = np.array([float(w0 * (abs(m) + 3 * mpmath.sqrt(v)) ** j) for j in orders])
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
    # every model supporting both routes gives the same weak moments within
    # the sum of both reported errors, up to order 100 and with an
    # off-centre kernel (exercises the centre term of the window-transform
    # recurrence)
    eps = np.finfo(float).eps
    orders = (0, 1, 2, 3, 4, 8, 20, 40, 60, 78, 90, 100)
    pairs = [
        (SymmetricStable(1.0, 0.5, 1.0), Cauchy(0.5)),
        (SymmetricStable(2.0, 0.5, 1.0 / np.sqrt(2.0)), Gaussian(0.5, 1.0)),
    ]
    for kernel in (UNIT_KERNEL, KernelSpec(0.8, 0.7)):
        for stable, twin in pairs:
            a = feature_map(*canonical_family(stable), kernel, FeatureMapSpec(orders, path="charfn"))
            b = feature_map(*canonical_family(twin), kernel, FeatureMapSpec(orders, path="density"))
            assert np.all(np.abs(a.values - b.values) <= a.errors + b.errors + 4 * eps * np.abs(b.values)), \
                (stable, kernel)


def test_char_fn_twin_jacobians_agree_at_narrow_windows():
    # stable(2, sigma / sqrt 2) is Gaussian(mu, sigma) and stable(1) is
    # Cauchy: the columns both twins share must agree across the routes
    # within the sum of their reported errors
    eps = np.finfo(float).eps
    rng = np.random.default_rng(3)
    cols = ("mu",), ("s", "c")
    for _ in range(40):
        mu, sigma = rng.uniform(-5.0, 5.0), np.exp(rng.uniform(np.log(0.2), np.log(5.0)))
        k = KernelSpec(np.exp(rng.uniform(np.log(0.02), np.log(0.15))), rng.uniform(-10.0, 10.0))
        for stable, twin in ((SymmetricStable(2.0, mu, sigma / np.sqrt(2.0)), Gaussian(mu, sigma)),
                             (SymmetricStable(1.0, mu, 1.0), Cauchy(mu))):
            a, ea = weak_moment_jacobian(stable, k, *cols, FeatureMapSpec(range(5), path="charfn"))
            b, eb = weak_moment_jacobian(twin, k, *cols, FeatureMapSpec(range(5), path="density"))
            assert np.all(np.abs(a - b) <= ea + eb + 4 * eps * np.abs(b)), (twin, k)


def test_stable_char_fn_jacobian_converges_at_narrow_windows():
    # windows down to 25x narrower than the model, far from its centre:
    # the divided window identities d/dc Psi_j = (Psi_{j+1} - c Psi_j) / s^2
    # and its d/ds twin once cancelled here, and the pass exhausted its
    # budget; the first point is the one `wml eval` failed on
    rng = np.random.default_rng(7)
    points = [(1.5, -0.476, 1.812, 0.0709, 7.028)]
    points += [(rng.uniform(1.1, 1.9), rng.uniform(-5.0, 5.0), np.exp(rng.uniform(np.log(0.05), np.log(10.0))),
                np.exp(rng.uniform(np.log(0.05), np.log(0.16))), rng.uniform(-10.0, 10.0)) for _ in range(30)]
    for alpha, mu, sigma, s, c in points:
        vals, errs = weak_moment_jacobian(SymmetricStable(alpha, mu, sigma), KernelSpec(s, c), ("mu", "sigma"),
                                          ("s", "c"), FeatureMapSpec(range(5)))
        assert np.all(np.isfinite(vals)) and np.all(errs <= np.abs(vals)), (alpha, mu, sigma, s, c)


def test_stable_char_fn_high_orders_converge():
    # the monomial form of Psi_j cancelled from about j = 78, and its
    # coefficients overflowed from about j = 100
    fv = feature_map(stable_family(1.5), [0.0, 1.0], UNIT_KERNEL, FeatureMapSpec((0, 78, 90, 120, 200)))
    assert np.all(np.isfinite(fv.values)) and np.all(fv.errors <= 1e-6 * np.abs(fv.values))


def test_char_fn_rows_are_even_in_u():
    # each row is the real part of the Fourier transform of a real function,
    # c(-u) Psi_j(-u) = conj(c(u) Psi_j(u)) and likewise for the score and
    # kernel columns, so the pairing over R is twice the one over (0, inf)
    u = np.concatenate(([0.0], np.geomspace(1e-3, 30.0, 40)))
    orders = range(9)
    models = [Gaussian(0.4, 1.3), Cauchy(0.4)] + [SymmetricStable(a, 0.4, 1.3) for a in (0.5, 1.0, 1.5, 2.0)]
    for m in models:
        for k in (UNIT_KERNEL, KernelSpec(0.7, -1.3)):
            model_params = (None, "mu") if isinstance(m, Cauchy) else (None, "mu", "sigma")
            rows = _charfn_stack(m, k, orders, model_params, ("s", "c"))
            at_u, at_minus_u = rows(u, 0), rows(-u, 0)
            assert np.all(np.isfinite(at_u))
            np.testing.assert_array_equal(at_u, at_minus_u, err_msg=f"{m} with {k}")


def test_stable_feature_maps_take_few_integrand_calls(monkeypatch):
    # the char-fn pairing is folded onto (0, inf) in log u, where the kink
    # of exp(-|sigma u|^alpha) at u = 0 is smooth; on the whole line the
    # pass bisected the panels beside 0 for 7-9 rounds (about 11 calls).
    # The left tail's breakpoints e^{-0.5, ..., -24} below the least decay
    # point leave no panel there to bisect: with e^{-2, -5, -10, -16} it
    # took up to 3 calls
    calls = []
    kronrod = wml.quad._kronrod_panels
    monkeypatch.setattr(wml.quad, "_kronrod_panels", lambda *a: calls.append(1) or kronrod(*a))
    rng = np.random.default_rng(15)
    for _ in range(40):
        alpha, theta = rng.uniform(1.1, 1.9), [rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0)]
        k = KernelSpec(np.exp(rng.uniform(np.log(0.3), np.log(5.0))), rng.uniform(-1.0, 1.0))
        calls.clear()
        fv = feature_map(stable_family(alpha), theta, k, FeatureMapSpec(range(5)))
        assert fv.paths == ("charfn",) * 5
        assert len(calls) <= 2, (alpha, theta, k)


# each family's parameter ranges on the eval benchmark
_EVAL_RANGES = {"gaussian": ((-2.0, 2.0), (0.5, 2.0)), "stieltjes": ((-0.9, 0.9),), "cauchy": ((-2.0, 2.0),),
                "stable(alpha=1)": ((-2.0, 2.0), (0.5, 2.0)), "lognormal": ((-1.0, 1.0), (0.3, 1.2))}


@pytest.mark.parametrize("fam, most", [(gaussian_family(), 0), (stieltjes_family(), 2), (cauchy_family(), 2),
                                       (stable_family(1.0), 2), (lognormal_family(), 2)])
def test_density_feature_maps_converge_on_their_first_mesh(monkeypatch, fam, most):
    # the pass starts from a mesh on the pairing's own product: the quarter
    # periods of sin(2 pi log x) for the Stieltjes family, a fixed mesh in
    # the window's z = (x - c) / s plus a narrow Lorentzian's own points for
    # the Cauchy and stable(1), and N(mu, sigma^2)'s mesh in log x plus the
    # window's points for the log-normal.  From the model's and the
    # window's points they took 3.5, 2.3, 2.6 and 2.3 calls on average, and
    # up to 3, 4 and 3 for the last three.  A Gaussian pairing takes its closed
    # form and no call (it took 2.75 calls from those points, then 1 from a
    # mesh in its tilted coordinate)
    calls = []
    kronrod = wml.quad._kronrod_panels
    monkeypatch.setattr(wml.quad, "_kronrod_panels", lambda *a: calls.append(1) or kronrod(*a))
    rng = np.random.default_rng(16)
    for _ in range(40):
        theta = [rng.uniform(lo, hi) for lo, hi in _EVAL_RANGES[fam.name]]
        k = KernelSpec(np.exp(rng.uniform(np.log(0.3), np.log(5.0))), rng.uniform(-1.0, 1.0))
        calls.clear()
        fv = feature_map(fam, theta, k, FeatureMapSpec(range(5)))
        assert fv.paths == ("density",) * 5
        assert len(calls) <= most, (theta, k)


@pytest.mark.parametrize("s", (30.0, 100.0, 300.0, 1000.0))
def test_wide_window_cauchy_feature_maps_converge_on_their_first_mesh(monkeypatch, integrated, s):
    # a Lorentzian much narrower than the window gets points at (1 / s) 2^k
    # out to the window mesh's 0.5 in z: its 1 / z^2 tails ran there in one
    # panel, and these feature maps took 2 (s = 30) to 8 (s = 1000) calls.
    # The pass is the closed form's fallback, so the closed form is kept out
    calls = []
    kronrod = wml.quad._kronrod_panels
    monkeypatch.setattr(wml.quad, "_kronrod_panels", lambda *a: calls.append(1) or kronrod(*a))
    for mu in np.linspace(-2.0, 2.0, 9):
        calls.clear()
        fv = feature_map(cauchy_family(), [mu], KernelSpec(s), FeatureMapSpec(range(5)))
        assert fv.paths == ("density",) * 5
        assert len(calls) == 1, mu


@pytest.mark.parametrize("alpha, theta", [(0.7, [-2.0, 1.0]), (0.1, [-2.0, 9.99])])
def test_wide_window_char_fn_feature_map_converges(alpha, theta):
    # a window 999 wide: on the whole line the pass ran out of budget
    # (4,001 panels) on w_6 and w_8
    k = KernelSpec(999.0)
    fv = feature_map(stable_family(alpha), theta, k, FeatureMapSpec(range(9), path="charfn"))
    assert np.all(np.isfinite(fv.values))
    assert 0.0 < fv.values[0] <= 1.0 / (k.s * SQRT_2PI)


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
    # (its error array once met a scalar format and raised TypeError); a
    # unit window converges on its first mesh, a window 0.06 wide over a
    # log-normal 0.15 wide in log x does not
    spec = FeatureMapSpec(orders=(0, 1, 2))
    with pytest.raises(NonConvergence, match="component"):
        feature_map(lognormal_family(), [0.3, 0.15], KernelSpec(0.06), spec)


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
    # cumulants, shares one panel tree; a Gaussian pairing takes none
    calls = []
    adaptive = wml.quad._adaptive
    monkeypatch.setattr(wml.quad, "_adaptive", lambda *a: calls.append(1) or adaptive(*a))
    spec = FeatureMapSpec(orders=(0, 1, 2, 3, 4))
    for fam, theta, path, passes in ((lognormal_family(), [0.3, 1.2], "density", 1),
                                     (stable_family(1.5), [0.3, 1.2], "charfn", 1),
                                     (gaussian_family(), [0.3, 1.2], "density", 0)):
        calls.clear()
        fv = feature_map(fam, theta, UNIT_KERNEL, spec)
        assert len(calls) == passes and fv.paths == (path,) * 5
    for m, passes in ((LogNormal(0.3, 1.2), 1), (Gaussian(0.3, 1.2), 0)):
        calls.clear()
        weak_cumulants(m, UNIT_KERNEL, 4)
        assert len(calls) == passes
        calls.clear()
        weak_moment(m, UNIT_KERNEL, 3)
        assert len(calls) == passes


def unstacked_one_point_pass(m, k, spec, model_params, kernel_params):
    """The one-point pass as written before points were stacked: every
    row from arrays of its own, stacked into a fresh array, over the
    point's own breakpoints, in its own variable (the window's
    z = (x - c) / s for a model on the line).  Returns (values, errors)."""
    route = "density" if spec.path == "density" or (spec.path == "auto" and support_has_density(m)) \
        else "charfn"
    score_of = _score if route == "density" else _charfn_score
    scores = [None if n is None else score_of(m, {"mu": "location", "sigma": "scale", "a": "a"}[n])
              for n in model_params]
    powers = np.array(spec.orders)[:, None]

    def running_powers(x):
        # x^j by a running product, x^{j+1} = x^j x
        products = np.cumprod(np.broadcast_to(x, (max(spec.orders), x.size)), axis=0)
        return np.vstack((np.ones_like(x), products))[powers[:, 0]]

    def density_rows(x, phi, dphi_ds, dphi_dc):
        dens = density(m, x)
        nz = (phi != 0.0) & (dens != 0.0)
        xs, fs = x[nz], dens[nz]
        xj = running_powers(xs)
        base = xj * phi[nz] * fs
        cols = [base if score is None else base * score(xs) for score in scores]
        cols += [xj * {"s": dphi_ds, "c": dphi_dc}[name][nz] * fs for name in kernel_params]
        out = np.zeros((powers.size, len(cols), x.size))
        out[:, :, nz] = np.stack(cols, axis=1)
        return out.reshape(-1, x.size)

    def x_rows(x):
        return density_rows(x, *kernel_eval(k, x, derivs=True))

    def window_rows(z):
        # z = (x - c) / s; s phi and its d/dlambda come from z itself
        s_phi = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
        return density_rows(k.c + k.s * z, s_phi, s_phi * (z * z - 1.0) / k.s, s_phi * z / k.s)

    def charfn_rows(u):
        s2, cf = k.s * k.s, char_fn(m, u)
        dcf = [cf if score is None else cf * score(u) for score in scores]
        iu = 1j * u
        psi = np.exp(-iu * k.c - 0.5 * s2 * u * u) / np.pi
        older = old = np.zeros_like(psi)
        j, rows = 0, []
        for order in spec.orders:
            while j < order:
                older, old, psi = old, psi, (k.c - s2 * iu) * psi + j * s2 * old
                j += 1
            rows += [d * psi for d in dcf]
            rows += [cf * k.s * (j * (j - 1) * older - 2 * j * iu * old + iu * iu * psi) if name == "s"
                     else cf * (j * old - iu * psi) for name in kernel_params]
        return np.real(rows)

    if route == "density":
        frame = _frame(m)
        rows = window_rows if frame == "window" else x_rows
        integrate = wml.quad.integrate_half_line if frame == "half" else wml.quad.integrate_real_line
        res = integrate(rows, _breakpoints(m, k))
    else:
        res = wml.quad.integrate_half_line(charfn_rows, _charfn_points(m, k))
    return res.value, res.error_estimate


def columns(points):
    """(model, kernel) points of one model type and one alpha as the
    columns a pass takes (``models._columns``): each other field a
    column."""
    ms, ks = zip(*points)
    assert len({getattr(m, "alpha", None) for m in ms}) == 1
    names = [name for name in vars(ms[0]) if name != "alpha"]
    return (_columns(ms[0], names, [[getattr(m, name) for name in names] for m in ms]),
            _columns(ks[0], ("s", "c"), [[k.s, k.c] for k in ks]))


def seeded_points(rng, n):
    """n (model, kernel, model_params) triples per family, over both
    routes and both supports."""
    out = []
    for _ in range(n):
        k = KernelSpec(float(np.exp(rng.uniform(-1.5, 1.5))), float(rng.uniform(-2.0, 2.0)))
        mu, sigma = float(rng.uniform(-2.0, 2.0)), float(np.exp(rng.uniform(-1.0, 1.0)))
        out += [(Gaussian(mu, sigma), k, ("mu", "sigma")), (Cauchy(mu), k, ("mu",)),
                (LogNormal(0.5 * mu, 0.5 * sigma), k, ("mu", "sigma")),
                (StieltjesLogNormal(0.4 * mu), k, ("a",)),
                (SymmetricStable(float(rng.uniform(1.1, 1.9)), mu, sigma), k, ("mu", "sigma"))]
    return out


def one_alpha(group):
    """The (model, kernel) points with the first one's alpha, if any: a
    pass holds one alpha."""
    alpha = getattr(group[0][0], "alpha", None)
    return [(replace(m, alpha=alpha) if alpha is not None else m, k) for m, k in group]


def test_one_point_pass_is_the_unstacked_pass_bit_for_bit(integrated):
    # every quadrature pass, the Lorentzians' fallback pass too; a Gaussian
    # density pairing takes its closed form, checked against quadrature by
    # the oracle tests below
    rng = np.random.default_rng(11)
    for m, k, model_params in seeded_points(rng, 4):
        for path in ("density", "charfn", "auto"):
            spec = FeatureMapSpec((0, 1, 3), path=path)
            if (path == "density" and not support_has_density(m)) or \
                    (path == "charfn" and isinstance(m, (LogNormal, StieltjesLogNormal))) or \
                    (path != "charfn" and isinstance(m, Gaussian)):
                continue
            for cols in ((None,), (None, *model_params), model_params):
                route, values, errors = _pairing_pass(m, k, spec, cols, ("s", "c"))
                ref_values, ref_errors = unstacked_one_point_pass(m, k, spec, cols, ("s", "c"))
                assert route in ("density", "charfn") and values.shape == errors.shape == (1, 3, len(cols) + 2)
                assert values.tobytes() == ref_values.tobytes(), (m, k, path, cols)
                assert errors.tobytes() == ref_errors.tobytes(), (m, k, path, cols)


def stack_fill_cases(rng, n):
    """(frame, row function, n models, n kernels, model columns) for every
    integrated frame and the catalog families in it: the density route's
    window (Cauchy, stable(1)) and half (log-normal, Stieltjes), and the
    char-fn route's u (Gaussian, Cauchy, stable(1.5))."""
    kernels = [KernelSpec(float(np.exp(rng.uniform(-1.0, 1.5))), float(rng.uniform(-1.0, 1.0))) for _ in range(n)]
    mu, sigma = rng.uniform(-2.0, 2.0, n), np.exp(rng.uniform(-1.0, 1.0, n))
    density_models = [
        [Cauchy(a) for a in mu], [SymmetricStable(1.0, a, b) for a, b in zip(mu, sigma)],
        [LogNormal(0.5 * a, 0.5 * b) for a, b in zip(mu, sigma)], [StieltjesLogNormal(0.4 * a) for a in mu]]
    charfn_models = [[Gaussian(a, b) for a, b in zip(mu, sigma)], [Cauchy(a) for a in mu],
                     [SymmetricStable(1.5, a, b) for a, b in zip(mu, sigma)]]
    for ms in density_models:
        yield _frame(ms[0]), _density_stack, ms, kernels, canonical_family(ms[0])[0].param_names
    for ms in charfn_models:
        yield "u", _charfn_stack, ms, kernels, canonical_family(ms[0])[0].param_names


def test_stack_fill_equals_each_point_fill_bit_for_bit():
    # one vectorised call over the nodes of N points, each node's rows
    # from its own point's fields, fills, bit for bit, the rows that N
    # one-point calls fill, nodes where a row is 0 included
    rng = np.random.default_rng(19)
    nodes = {"window": np.linspace(-45.0, 45.0, 181),
             "half": np.geomspace(1e-6, 1e6, 181), "u": np.geomspace(1e-6, 60.0, 181)}
    orders = (0, 1, 2, 4)
    for frame, build, ms, ks, names in stack_fill_cases(rng, 6):
        v = nodes[frame]
        assert frame == "u" or all(_frame(m) == frame for m in ms)
        for model_params, kernel_params in (((None,), ()), ((None, *names), ()), ((None, *names), ("s", "c"))):
            # the points' nodes interleaved, as a pass's rounds give them
            seg = np.tile(np.arange(len(ms)), v.size)
            stacked = build(*columns(zip(ms, ks)), orders, model_params, kernel_params)(np.repeat(v, len(ms)), seg)
            alone = np.stack([build(m, k, orders, model_params, kernel_params)(v, 0) for m, k in zip(ms, ks)])
            rows = stacked.reshape(stacked.shape[0], v.size, len(ms)).transpose(2, 0, 1)
            assert rows.tobytes() == alone.tobytes(), (frame, ms[0], model_params, kernel_params)
            assert np.any(alone == 0.0) or frame == "u"


def test_a_stack_makes_one_model_call_per_integrand_call(monkeypatch):
    # ten points share every density or char fn call of their pass; one
    # call per point filled a stack's rows before
    counts = {"density": 0, "char_fn": 0, "panels": 0}
    for name in ("density", "char_fn"):
        original = getattr(wml.features, name)
        monkeypatch.setattr(wml.features, name, lambda *a, name=name, original=original:
                            counts.__setitem__(name, counts[name] + 1) or original(*a))
    kronrod = wml.quad._kronrod_panels
    monkeypatch.setattr(wml.quad, "_kronrod_panels",
                        lambda *a: counts.__setitem__("panels", counts["panels"] + 1) or kronrod(*a))
    spec, kernels = FeatureMapSpec((0, 1)), [KernelSpec(1.0 + 0.2 * i, 0.1 * i) for i in range(10)]
    for models, route in (([Cauchy(0.1 * i) for i in range(10)], "density"),
                          ([LogNormal(0.1 * i, 0.8) for i in range(10)], "density"),
                          ([SymmetricStable(1.5, 0.1 * i, 1.0) for i in range(10)], "char_fn")):
        counts.update(density=0, char_fn=0, panels=0)
        _pairing_pass(*columns(zip(models, kernels)), spec, (None,), ())
        assert counts["panels"] >= 1 and counts[route] == counts["panels"], (models[0], counts)


def test_stacked_points_agree_with_each_point_alone():
    # every stacked point has its own panel tree from its own first mesh,
    # and rounds as it would alone: its values and errors are, bit for
    # bit, those of its one-point pass
    rng = np.random.default_rng(12)
    points = seeded_points(rng, 12)
    for path in ("auto", "charfn"):
        spec = FeatureMapSpec((0, 1, 2), path=path)
        for kind in (Gaussian, Cauchy, LogNormal, StieltjesLogNormal, SymmetricStable):
            group = one_alpha([(m, k) for m, k, _ in points if isinstance(m, kind)])
            cols = next(c for m, _, c in points if isinstance(m, kind))
            if path == "charfn" and kind in (LogNormal, StieltjesLogNormal):
                continue
            route, stacked, stacked_errors = _pairing_pass(*columns(group), spec, (None, *cols), ("s",))
            assert stacked.shape == stacked_errors.shape == (len(group), 3, len(cols) + 2)
            for (m, k), values, errors in zip(group, stacked, stacked_errors):
                alone_route, alone, alone_errors = _pairing_pass(m, k, spec, (None, *cols), ("s",))
                assert route == alone_route
                assert values.tobytes() == alone.tobytes(), (m, k, path)
                assert errors.tobytes() == alone_errors.tobytes(), (m, k, path)


@pytest.mark.parametrize("path", ["auto", "density"])
def test_an_alpha_column_is_refused_off_the_charfn_path(path):
    # density branches on alpha, and 'auto' picks a route by it: a pass of
    # several alphas runs on the char-fn path only, where nothing does
    stables = _columns(SymmetricStable(1.0, 0.5, 1.0), ("alpha", "sigma"), [[1.0, 1.0], [2.0, 0.7]])
    with pytest.raises(Unsupported, match="alpha is a column on the char-fn route only"):
        _pairing_pass(stables, UNIT_KERNEL, FeatureMapSpec((0, 1), path=path), (None,), ())
    route, values, _ = _pairing_pass(stables, UNIT_KERNEL, FeatureMapSpec((0, 1), path="charfn"), (None,), ())
    assert route == "charfn" and values.shape == (2, 2, 1)


def test_a_pass_over_several_passes_returns_each_point_in_its_place(monkeypatch):
    # each family's points, on both routes, cut into passes of two or
    # three points by a small first-mesh budget (a Gaussian's closed form,
    # about one value a row, takes them in one call): each comes back in
    # its input place, bit for bit as it is alone
    monkeypatch.setattr(wml.features, "_CALL_VALUES", 6000)
    rng = np.random.default_rng(13)
    points = seeded_points(rng, 6)
    spec, routes, kernel_params = FeatureMapSpec((0, 1, 2)), set(), ("s",)
    for kind in (Gaussian, Cauchy, LogNormal, StieltjesLogNormal, SymmetricStable):
        group = one_alpha([(m, k) for m, k, _ in points if isinstance(m, kind)])
        route, values, errors = _pairing_pass(*columns(group), spec, (None,), kernel_params)
        assert values.shape == errors.shape == (len(group), 3, 1 + len(kernel_params))
        routes.add(route)
        for point, v, e in zip(group, values, errors):
            alone_route, alone, alone_errors = _pairing_pass(*point, spec, (None,), kernel_params)
            assert route == alone_route, point
            assert v.tobytes() == alone.tobytes() and e.tobytes() == alone_errors.tobytes(), point
    assert routes == {"density", "charfn"}


def test_a_stack_of_points_that_converge_alone_converges(monkeypatch):
    # shifted copies of a narrow window far out in a wide model (once out
    # of budget) and of a unit window 54 model widths out (once near
    # underflow): all sixteen take their closed form, with no pass, and
    # each returns what it returns alone
    calls = []
    adaptive = wml.quad._adaptive
    monkeypatch.setattr(wml.quad, "_adaptive", lambda *a: calls.append(1) or adaptive(*a))
    points = []
    for d in (0.0, 1.5, -2.25, 3.0, -4.0, 0.75, 2.0, -1.0):
        points += [(Gaussian(-1.388 + d, 5.56), KernelSpec(0.051, -6.754 + d)),
                   (Gaussian(d, 1.0), KernelSpec(1.0, 54.0 + d))]
    spec = FeatureMapSpec((0, 1))
    _, stacked, stacked_errors = _pairing_pass(*columns(points), spec, ("mu", "sigma"), ("s", "c"))
    assert len(calls) == 0
    for point, values, errors in zip(points, stacked, stacked_errors):
        _, alone, alone_errors = _pairing_pass(*point, spec, ("mu", "sigma"), ("s", "c"))
        assert values.tobytes() == alone.tobytes() and errors.tobytes() == alone_errors.tobytes(), point


def test_a_hostile_point_in_a_stack_raises_its_own_error():
    # d/ds Psi_300 overflows for a window 2 wide, not for one 0.3 wide: the
    # stack splits until the wide window is alone, and its error names it
    spec = FeatureMapSpec((0, 300))
    benign = (SymmetricStable(1.5, 0.0, 1.0), KernelSpec(0.3))
    hostile = (SymmetricStable(1.5, 0.5, 1.0), KernelSpec(2.0))
    with pytest.raises(NonFiniteEvaluation, match=r"u=\[.*; SymmetricStable\(alpha=1.5, mu=0.5, sigma=1.0\) "
                                                  r"with KernelSpec\(s=2.0, c=0.0\)$"):
        _pairing_pass(*columns([benign, benign, hostile, benign]), spec, (None,), ("s",))


def test_every_point_of_a_pass_has_its_own_budget(monkeypatch):
    # narrow windows on a narrow log-normal bisect 4 or 5 panels each, over
    # four rounds: a budget of 5 bisections a point lets every point of
    # the pass converge, as alone, where the pass bisects 19 in all
    points = [(LogNormal(0.3 + 0.01 * i, 0.15), KernelSpec(0.06 + 0.002 * i)) for i in range(4)]
    spec, calls = FeatureMapSpec((0, 1)), []
    kronrod = wml.quad._kronrod_panels
    monkeypatch.setattr(wml.quad, "_kronrod_panels", lambda *a: calls.append(a[3]) or kronrod(*a))
    monkeypatch.setattr(wml.quad, "_MAX_SUBDIVISIONS", 5)
    _, stacked, stacked_errors = _pairing_pass(*columns(points), spec, (None,), ())
    bisections = sum(np.bincount(seg, minlength=len(points)) // 2 for seg in calls[1:])
    assert list(bisections) == [4, 5, 5, 5]
    for point, values, errors in zip(points, stacked, stacked_errors):
        _, alone, alone_errors = _pairing_pass(*point, spec, (None,), ())
        assert values.tobytes() == alone.tobytes() and errors.tobytes() == alone_errors.tobytes()


def test_a_stacked_point_out_of_budget_raises_its_own_error(one_bisection):
    # each point of a pass has its own budget: the point that needs more
    # than one bisection raises, named, while the others converge on their
    # first mesh
    spec = FeatureMapSpec((0, 1, 2))
    benign = (LogNormal(0.0, 1.0), KernelSpec(1.0))
    hostile = (LogNormal(0.3, 0.1), KernelSpec(0.05))
    with pytest.raises(NonConvergence) as info:
        _pairing_pass(*columns([benign, hostile, benign]), spec, ("mu", "sigma"), ("s",))
    order, col = divmod(info.value.component, 3)
    assert str(info.value).endswith(f"; order {spec.orders[order]}, column {('mu', 'sigma', 's')[col]}, "
                                    f"at LogNormal(mu=0.3, sigma=0.1) with KernelSpec(s=0.05, c=0.0)")


def test_a_pass_that_meets_its_targets_at_once_ranks_no_panel(monkeypatch):
    # ranking the panels (log2 of the errors, nextafter of their ends) is
    # left until a first round leaves a target unmet
    calls = []
    kronrod = wml.quad._kronrod_panels
    monkeypatch.setattr(wml.quad, "_kronrod_panels", lambda *a: calls.append(1) or kronrod(*a))
    monkeypatch.setattr(np, "nextafter", lambda *a: pytest.fail("a panel was ranked"))
    points = [(LogNormal(0.1 * i, 0.8), KernelSpec(1.0 + 0.1 * i)) for i in range(4)]
    _, values, _ = _pairing_pass(*columns(points), FeatureMapSpec(range(5)), (None,), ())
    assert len(calls) == 1 and values.shape == (4, 5, 1) and np.all(np.isfinite(values))


def test_nonconvergence_names_the_point_order_and_column(one_bisection):
    with pytest.raises(NonConvergence) as info:
        weak_moment_jacobian(LogNormal(0.3, 0.1), KernelSpec(0.05), ("mu", "sigma"), ("s",),
                             FeatureMapSpec((0, 1, 2)))
    order, col = divmod(info.value.component, 3)
    assert str(info.value).endswith(f"; order {order}, column {('mu', 'sigma', 's')[col]}, "
                                    f"at LogNormal(mu=0.3, sigma=0.1) with KernelSpec(s=0.05, c=0.0)")


def test_no_integrand_call_carries_more_rows_than_the_cap(monkeypatch):
    # a 300-point grid is cut into passes by first-mesh values: no call,
    # first or later, holds more values than the budget, and calls hold
    # many points
    calls = []
    kronrod = wml.quad._kronrod_panels

    def panels(f, a, b, seg):
        out = kronrod(f, a, b, seg)
        calls.append((15 * a.size * out[0].shape[1], np.unique(seg).size))
        return out

    monkeypatch.setattr(wml.quad, "_kronrod_panels", panels)
    mus = np.linspace(-2.0, 2.0, 25)
    rows = sweep_kernel(cauchy_family(), scale_kernel_family(), FeatureMapSpec((0, 1)),
                        [(s,) for s in np.geomspace(1.0, 100.0, 12)], [(mu,) for mu in mus])
    assert len(rows) == 300
    values, points = zip(*calls)
    assert max(values) <= wml.features._CALL_VALUES and max(points) > 1


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


_LEGENDRE = np.polynomial.legendre.leggauss(30)


def composite_moments(integrand, lo, hi, orders, panels=48):
    """(int v, int |v|) for v = x^j b of each order j over [lo, hi], with
    (x, b) = integrand(t): 30-point Gauss-Legendre on equal panels, summed
    exactly (math.fsum).  Doubling the panels, or widening the range by
    half, moves no value by more than 4e-16 of its L1 mass at the points
    below."""
    nodes, weights = _LEGENDRE
    edges = np.linspace(lo, hi, panels + 1)
    a, b = edges[:-1, None], edges[1:, None]
    x, base = integrand(0.5 * (a + b) + 0.5 * (b - a) * nodes)
    out = []
    for j in orders:
        terms = (x**j * base * (0.5 * (b - a) * weights)).ravel().tolist()
        out.append((math.fsum(terms), math.fsum(map(abs, terms))))
    return np.array(out).T


def test_reported_error_bounds_the_cauchy_and_lognormal_feature_maps():
    # the window-coordinate mesh of the Cauchy and the log-x mesh of the
    # log-normal converge on their first call at most of these points; a
    # converged entry must still lie within its reported error.  The
    # oracle integrates the product in the window's z = (x - c) / s over
    # |z| <= 12 (Cauchy) and in y = log x over mu +- 12 sigma (log-normal)
    rng = np.random.default_rng(17)
    eps = np.finfo(float).eps
    spec = FeatureMapSpec(orders=(0, 1, 2, 3, 4))
    for _ in range(40):
        k = KernelSpec(float(np.exp(rng.uniform(np.log(0.3), np.log(5.0)))), float(rng.uniform(-1.0, 1.0)))
        mu, sigma, nu = rng.uniform(-2.0, 2.0), rng.uniform(0.3, 1.2), rng.uniform(-1.0, 1.0)

        def cauchy(z):
            x = k.c + k.s * z
            return x, np.exp(-0.5 * z * z) / SQRT_2PI / (np.pi * (1.0 + (x - mu) ** 2))

        def lognormal(y):
            x = np.exp(y)
            return x, np.exp(-0.5 * ((x - k.c) / k.s) ** 2 - 0.5 * ((y - nu) / sigma) ** 2) / (2 * np.pi * k.s * sigma)

        for fam, theta, integrand, lo, hi in ((cauchy_family(), [mu], cauchy, -12.0, 12.0),
                                              (lognormal_family(), [nu, sigma], lognormal,
                                               nu - 12.0 * sigma, nu + 12.0 * sigma)):
            truth, scale = composite_moments(integrand, lo, hi, spec.orders)
            fv = feature_map(fam, theta, k, spec)
            assert np.all(np.abs(fv.values - truth) <= fv.errors + 4.0 * eps * scale), (fam.name, theta, k)


def raw_gaussian_pairings(mu, sigma, ratio, s, c, orders):
    """(values, L1 masses), each (len(orders), 5), of x^j phi f times 1 and
    each of d/dmu log f, d/dsigma log f, d/ds log phi and d/dc log phi for
    f = N(mu, ratio sigma^2) and the window N(c, s^2), by
    ``composite_moments`` over +-12 widths of the product about its peak.
    The raw integrand is formed in extended precision, so that its
    exponents, up to several hundred, and x^j cost no rounding beyond one
    of each term."""
    one = np.longdouble(1.0)
    sd, chain, pi = np.sqrt(ratio * one) * sigma, np.sqrt(ratio * one), 4.0 * np.arctan(one)
    v = 1.0 / (1.0 / sd**2 + 1.0 / s**2)
    peak, width = v * (mu / sd**2 + c / s**2), np.sqrt(v)
    factors = (lambda d, e: 1.0, lambda d, e: d / sd, lambda d, e: chain * (d * d - 1.0) / sd,
               lambda d, e: (e * e - 1.0) / s, lambda d, e: e / s)

    def integrand(factor):
        def at(t):
            x = peak + width * t.astype(np.longdouble)
            d, e = (x - mu) / sd, (x - c) / s
            return x, width * np.exp(-0.5 * (d * d + e * e)) / (2.0 * pi * sd * s) * factor(d, e)
        return at

    out = np.array([composite_moments(integrand(f), -12.0, 12.0, orders) for f in factors], dtype=float)
    return out[:, 0].T, out[:, 1].T


def test_gaussian_closed_form_matches_quadrature_of_the_raw_integrand(monkeypatch):
    # an oracle independent of the recurrence: w_j and its four Jacobian
    # columns, Gaussian and stable(2), from Gauss-Legendre quadrature of
    # x^j phi f (times each score or d/dlambda log phi), at points from the
    # boxes and far pairings with w_0 down to 1e-190; the closed form takes
    # no integrand call
    calls = []
    kronrod = wml.quad._kronrod_panels
    monkeypatch.setattr(wml.quad, "_kronrod_panels", lambda *a: calls.append(1) or kronrod(*a))
    rng = np.random.default_rng(23)
    points = [(4.0, 0.8125, 0.05, 0.05), (4.1564, 0.5142, 0.06749, -9.5957),
              (-4.9938983304312625, 0.48779894334698226, 0.12284145503674918, 9.843147646192548),
              (-2.9783190602451537, 0.99302794969361152, 0.052485886284647357, 8.7581021727197879)]
    points += [(rng.uniform(-5.0, 5.0), float(np.exp(rng.uniform(np.log(0.05), np.log(10.0)))),
                float(np.exp(rng.uniform(np.log(0.05), np.log(100.0)))), rng.uniform(-10.0, 10.0)) for _ in range(16)]
    eps, orders = np.finfo(float).eps, (0, 1, 2, 3, 4, 7)
    spec = FeatureMapSpec(orders, path="density")
    for i, (mu, sigma, s, c) in enumerate(points):
        ratio = 2.0 if i % 4 == 3 else 1.0
        m = SymmetricStable(2.0, mu, sigma) if ratio == 2.0 else Gaussian(mu, sigma)
        vals, errs = weak_moment_jacobian(m, KernelSpec(s, c), (None, "mu", "sigma"), ("s", "c"), spec)
        truth, l1 = raw_gaussian_pairings(mu, sigma, ratio, s, c, orders)
        assert np.all(np.abs(vals - truth) <= errs + 4.0 * eps * l1), (m, s, c)
    assert not calls


def test_stacked_gaussian_pairings_are_each_point_alone_bit_for_bit():
    # the closed form runs on columns, a lone point on its scalar fields:
    # a 300-point grid, shared fields included, gives each point's values
    # and Jacobian as that point alone does, bit for bit
    rng = np.random.default_rng(29)
    mus, sigmas = rng.uniform(-5.0, 5.0, 150), np.exp(rng.uniform(np.log(0.05), np.log(10.0), 150))
    kernels = [KernelSpec(float(s), float(c)) for s, c in
               zip(np.exp(rng.uniform(np.log(0.05), np.log(1000.0), 150)), rng.uniform(-10.0, 10.0, 150))]
    grid = [(Gaussian(float(mu), float(sigma)), k) for mu, sigma, k in zip(mus, sigmas, kernels)]
    grid += [(Gaussian(float(mu), 1.0), KernelSpec(1.0)) for mu in mus]
    spec = FeatureMapSpec((0, 1, 2, 5))
    for model_params, kernel_params in (((None,), ()), ((None, "mu", "sigma"), ("s", "c"))):
        route, stacked, stacked_errors = _pairing_pass(*columns(grid), spec, model_params, kernel_params)
        assert route == "density" and len(stacked) == len(grid)
        for point, values, errors in zip(grid, stacked, stacked_errors):
            _, alone, alone_errors = _pairing_pass(*point, spec, model_params, kernel_params)
            assert values.tobytes() == alone.tobytes() and errors.tobytes() == alone_errors.tobytes(), point


def gaussian_box_columns(rng, n):
    """n seeded Gaussian points over the family and scale-centre boxes,
    as parameter columns, and the points themselves."""
    points = np.column_stack([rng.uniform(-5.0, 5.0, n), np.exp(rng.uniform(np.log(0.05), np.log(10.0), n)),
                              np.exp(rng.uniform(np.log(0.05), np.log(1000.0), n)), rng.uniform(-10.0, 10.0, n)])
    return (_columns(Gaussian(0.0, 1.0), ("mu", "sigma"), points[:, :2]),
            _columns(KernelSpec(1.0), ("s", "c"), points[:, 2:]), points)


def test_a_gaussian_grid_runs_in_bounded_calls(monkeypatch):
    # 20,000 points at orders 0-8 with every column: the closed form runs in
    # calls of at most _CALL_VALUES values, so the pass peaks below twice
    # its 13.7 MB result (in one call it peaked at 63.9 MB)
    models, kernels, _ = gaussian_box_columns(np.random.default_rng(61), 20000)
    spec, names = FeatureMapSpec(tuple(range(9))), ((None, "mu", "sigma"), ("s", "c"))
    tracemalloc.start()
    try:
        _, values, errors = _pairing_pass(models, kernels, spec, *names)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (20000, 9, 5) and peak < 2 * (values.nbytes + errors.nbytes), peak
    # three points a call: a 10-point grid takes four calls, and each of
    # its points comes back in its place, bit for bit as it is alone
    monkeypatch.setattr(wml.features, "_CALL_VALUES", 3 * 9 * 5)
    calls, closed = [], wml.features._gaussian_pairings
    monkeypatch.setattr(wml.features, "_gaussian_pairings", lambda *a: calls.append(1) or closed(*a))
    models, kernels, points = gaussian_box_columns(np.random.default_rng(67), 10)
    _, grid, grid_errors = _pairing_pass(models, kernels, spec, *names)
    assert len(calls) == 4
    for (mu, sigma, s, c), values, errors in zip(points, grid, grid_errors):
        _, alone, alone_errors = _pairing_pass(Gaussian(mu, sigma), KernelSpec(s, c), spec, *names)
        assert values.tobytes() == alone.tobytes() and errors.tobytes() == alone_errors.tobytes(), (mu, sigma, s, c)


def test_reported_error_covers_a_tilted_mean_that_cancels():
    # mean = mu + mu_gap near 1e-9 with |mu| near 4: the rounding of mu_gap
    # is then about 1e-6 of the mean, and of every odd order; the bound
    # carries it (without it, w_1, w_3 and w_5 of both points lay 5e6 to
    # 9e7 times their errors from the truth)
    for mu, sigma, s, c in ((3.7, 1.3, 1.31, -3.7 * 1.31**2 / 1.3**2 + 3e-9),
                            (1.9, 0.7, 0.9, -1.9 * 0.81 / 0.49 + 1e-9)):
        orders = tuple(range(6))
        truth, _ = gaussian_tilted_moments(mu, sigma, s, c, orders)
        fv = feature_map(_GAUSSIANS, [mu, sigma], KernelSpec(s, c), FeatureMapSpec(orders))
        assert np.all(np.abs(fv.values - truth) <= fv.errors), (mu, sigma, s, c)


def test_high_gaussian_orders_are_representable():
    # w_j = (j - 1)!! 2^(-j/2) / sqrt(4 pi) for the standard Gaussian under
    # a unit window stays below 1.8e308 up to j = 342; x^j at the nodes of a
    # quadrature pass overflowed from j = 223.  The first order that
    # overflows raises at once
    import mpmath

    def exact(j):
        with mpmath.workdps(40):
            return mpmath.fac2(j - 1) * mpmath.mpf(2) ** (-mpmath.mpf(j) / 2) / mpmath.sqrt(4 * mpmath.pi)

    for j in (230, 300, 340):
        est = weak_moment(Gaussian(0.0, 1.0), UNIT_KERNEL, j)
        assert abs(est.value - float(exact(j))) <= est.error, j
    assert exact(342) < np.finfo(float).max < exact(344)
    assert weak_moment(Gaussian(0.0, 1.0), UNIT_KERNEL, 343).value == 0.0
    with pytest.raises(NonFiniteEvaluation, match=r"Gaussian\(mu=0.0, sigma=1.0\)"):
        weak_moment(Gaussian(0.0, 1.0), UNIT_KERNEL, 344)


@pytest.mark.parametrize("m, k", [(Cauchy(0.0), KernelSpec(1e-3)), (Gaussian(0.0, 1e-150), UNIT_KERNEL)],
                         ids=["cauchy-powers", "gaussian-recurrence"])
def test_huge_order_whose_terms_all_vanish_ends_at_once(m, k):
    # under a window of width 1e-3, x^j is 0 at every node where phi f is
    # not from a few hundred orders on; for a Gaussian of width 1e-150 every
    # M_j is 0 from order 5.  The running product and the moment recurrence
    # stop there rather than rolling on over zeros to j = 10^8 (10-20 s)
    start = time.perf_counter()
    est = weak_moment(m, k, 10**8)
    assert time.perf_counter() - start < 1.0
    assert est.value == 0.0
    assert 0.0 <= est.error < 1e-300


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


def test_weak_char_fn_at_zero_equals_w0_exactly(monkeypatch, integrated):
    # the cos part of the weak char fn is a one-row segment, which rounds
    # as the w_0 pass does; as a row of one panel tree with the sin part it
    # would round otherwise.  A Gaussian pairing's is w_0 exp(iu mean -
    # width2 u^2 / 2), with w_0 from the same closed form, and no call.  A
    # Lorentzian's is integrated, so its w_0 is taken from the pass here
    calls = []
    kronrod = wml.quad._kronrod_panels
    monkeypatch.setattr(wml.quad, "_kronrod_panels", lambda *a: calls.append(1) or kronrod(*a))
    cases = [(Gaussian(0.4, 1.1), UNIT_KERNEL), (Cauchy(0.2), UNIT_KERNEL)]
    rng = np.random.default_rng(3)
    families = (gaussian_family(), cauchy_family(), lognormal_family(), stieltjes_family(),
                stable_family(1.0))
    for n in range(40):
        fam = families[n % 5]
        theta = [rng.uniform(lo, hi) for lo, hi in fam.box]
        s = float(np.exp(rng.uniform(np.log(0.05), np.log(100.0))))
        cases.append((fam.make(theta), KernelSpec(s, float(rng.uniform(-10.0, 10.0)))))
    for m, k in cases:
        calls.clear()
        w0 = weak_moment(m, k, 0, FeatureMapSpec(orders=(0,))).value
        z = weak_char_fn(m, k, 0.0)
        assert z.real == w0, (m, k)  # same quadrature problem, bit for bit
        assert z.imag == 0.0
        assert (len(calls) == 0) == isinstance(m, Gaussian), (m, k)


def reference_phi_f(m, k):
    """phi f at a scalar x, written apart from wml.models."""
    def phi(x):
        return math.exp(-0.5 * ((x - k.c) / k.s) ** 2) / (SQRT_2PI * k.s)

    def lognormal(x, mu, sigma):
        return math.exp(-0.5 * ((math.log(x) - mu) / sigma) ** 2) / (x * sigma * SQRT_2PI) if x > 0.0 else 0.0

    if isinstance(m, Cauchy):
        return lambda x: phi(x) / (math.pi * (1.0 + (x - m.mu) ** 2))
    if isinstance(m, SymmetricStable):  # alpha = 1: a Cauchy of scale sigma
        return lambda x: phi(x) * m.sigma / (math.pi * (m.sigma ** 2 + (x - m.mu) ** 2))
    if isinstance(m, LogNormal):
        return lambda x: phi(x) * lognormal(x, m.mu, m.sigma)
    return lambda x: phi(x) * lognormal(x, 0.0, 1.0) * (1.0 + m.a * math.sin(2.0 * math.pi * math.log(x))) \
        if x > 0.0 else 0.0


@pytest.mark.parametrize("m", [Cauchy(0.4), SymmetricStable(1.0, -0.3, 0.7), LogNormal(0.2, 0.6),
                               StieltjesLogNormal(0.5)], ids=["cauchy", "stable1", "lognormal", "stieltjes"])
@pytest.mark.parametrize("u", [0.5, 3.0])
def test_weak_char_fn_against_weighted_quadrature(monkeypatch, m, u):
    # QUADPACK's cos- and sin-weighted rule on phi f over the window's
    # reach; phi f >= 0, so each part's L1 mass is at most w_0
    k = KernelSpec(1.3, 0.4)
    calls = []
    adaptive = wml.quad._adaptive
    monkeypatch.setattr(wml.quad, "_adaptive", lambda *a: calls.append(1) or adaptive(*a))
    z = weak_char_fn(m, k, u)
    assert len(calls) == 1  # the cos and sin parts share one pass
    w0 = weak_moment(m, k, 0).value
    lo = 0.0 if isinstance(m, (LogNormal, StieltjesLogNormal)) else k.c - 40.0 * k.s
    want = [scipy_quad(reference_phi_f(m, k), lo, k.c + 40.0 * k.s, weight=weight, wvar=u,
                       epsabs=1e-14, epsrel=1e-11, limit=500)[0] for weight in ("cos", "sin")]
    assert abs(z.real - want[0]) <= 1e-9 * w0
    assert abs(z.imag - want[1]) <= 1e-9 * w0


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


def test_a_weak_char_fn_failure_names_its_part_u_and_point(monkeypatch):
    # the cos part, cos(1000 x) across a Cauchy pairing under a window of
    # scale 3, runs out of budget; a non-finite node is named in x, not in
    # the window's z = (x - c) / s
    with pytest.raises(NonConvergence, match=re.escape(
            " panels; cos part at u=1000, at Cauchy(mu=0.0) with KernelSpec(s=3.0, c=0.0)")):
        weak_char_fn(Cauchy(0), KernelSpec(3), 1000)
    monkeypatch.setattr(wml.features, "density", lambda m, x: np.where(x > 2.0, np.nan, density(m, x)))
    with pytest.raises(NonFiniteEvaluation, match=re.escape("; cos part at u=0.5, at Cauchy(mu=0.0) with ")) as info:
        weak_char_fn(Cauchy(0), KernelSpec(3.0, 1.0), 0.5)
    assert info.value.points.size and np.all(info.value.points > 2.0)


_TINY_PAIR = "Gaussian(mu=0.0, sigma=1e-160) with KernelSpec(s=1e-160, c=0.0)"


@pytest.mark.parametrize("call, point", [
    (lambda: weak_moment(Gaussian(0.0, 1e-160), KernelSpec(1e-160), 2), _TINY_PAIR),
    (lambda: weak_moment(Gaussian(1.0, 1e-170), KernelSpec(3e-170, 1.0), 0),
     "Gaussian(mu=1.0, sigma=1e-170) with KernelSpec(s=3e-170, c=1.0)"),
    (lambda: weak_char_fn(Gaussian(0.0, 1e-160), KernelSpec(1e-160), 1.0), _TINY_PAIR),
    (lambda: weak_cumulants(SymmetricStable(2.0, 0.0, 1e-160), KernelSpec(1e-160), 2),
     "SymmetricStable(alpha=2.0, mu=0.0, sigma=1e-160) with KernelSpec(s=1e-160, c=0.0)"),
    (lambda: feature_map(gaussian_family(), [0.0, 1e200], KernelSpec(1.0, 0.3), FeatureMapSpec((0, 1, 2, 3))),
     "Gaussian(mu=0.0, sigma=1e+200) with KernelSpec(s=1.0, c=0.3)"),
    (lambda: _pairing_pass(*columns([(Gaussian(0.2, 1.0), KernelSpec(2.0)), (Gaussian(0.0, 1e-160), KernelSpec(1e-160)),
                                     (Gaussian(0.4, 2e-160), KernelSpec(1e-160))]), FeatureMapSpec((0,)), (None,), ()),
     _TINY_PAIR),
])
def test_a_gaussian_pairing_outside_the_normal_range_is_refused_at_once(call, point):
    # a Gaussian's pairing is its closed form, which needs var + s^2 to be
    # a normal double: outside that it has no second route, and every
    # entry point refuses it at once, naming the point (in a grid, the
    # first such point)
    start = time.perf_counter()
    with pytest.raises(Unsupported, match=re.escape(f"var + s^2 is not a normal double, at {point}")):
        call()
    assert time.perf_counter() - start < 0.01


def test_the_cauchy_and_stable_one_of_unit_width_agree_bit_for_bit():
    # one Lorentzian view: Cauchy(mu) is SymmetricStable(1, mu, 1), and the
    # two give the same bits in every quantity, on both routes
    rng = np.random.default_rng(29)
    x, u = np.linspace(-60.0, 60.0, 241), np.linspace(-30.0, 30.0, 121)
    mus, scales, centres = rng.uniform(-5.0, 5.0, 50), np.exp(rng.uniform(-3.0, 6.9, 50)), rng.uniform(-10.0, 10.0, 50)
    for mu, s, c in zip(mus.tolist(), scales.tolist(), centres.tolist()):
        cauchy, stable, k = Cauchy(mu), SymmetricStable(1.0, mu, 1.0), KernelSpec(s, c)
        assert density(cauchy, x).tobytes() == density(stable, x).tobytes()
        assert _score(cauchy, "location")(x).tobytes() == _score(stable, "location")(x).tobytes()
        assert char_fn(cauchy, u).tobytes() == char_fn(stable, u).tobytes()
        for path in ("density", "charfn"):
            spec = FeatureMapSpec((0, 1, 2, 3, 4), path=path)
            one = feature_map(cauchy_family(), [mu], k, spec)
            other = feature_map(stable_family(1.0), [mu, 1.0], k, spec)
            assert one.values.tobytes() == other.values.tobytes(), (mu, s, c, path)
            assert one.errors.tobytes() == other.errors.tobytes(), (mu, s, c, path)
            one = weak_moment_jacobian(cauchy, k, ("mu",), ("s", "c"), spec)
            other = weak_moment_jacobian(stable, k, ("mu",), ("s", "c"), spec)
            assert np.array(one).tobytes() == np.array(other).tobytes(), (mu, s, c, path)


# (case, first point, route): the laws with a location, and those with a
# scale too, in closed form (a Gaussian density pairing) and integrated
_SYMMETRY_CASES = [("gaussian", Gaussian(0.0, 1.0), "density"), ("stable(2)", SymmetricStable(2.0), "density"),
                   ("cauchy", Cauchy(0.0), "density"), ("cauchy", Cauchy(0.0), "charfn"),
                   ("stable(1)", SymmetricStable(1.0), "density"), ("stable(1)", SymmetricStable(1.0), "charfn"),
                   ("gaussian", Gaussian(0.0, 1.0), "charfn"), ("stable(1.5)", SymmetricStable(1.5), "charfn")]


@pytest.mark.parametrize("name, first, path", _SYMMETRY_CASES, ids=[f"{n}-{p}" for n, _, p in _SYMMETRY_CASES])
def test_symmetry_identities_hold_within_the_error_estimates(name, first, path):
    # w_j = int x^j phi_{s,c}(x) f(x) dx under x -> x + h and x -> l x:
    # (d/dmu + d/dc) w_j = j w_{j-1} for a law with a location, and
    # (mu d/dmu + sigma d/dsigma + s d/ds + c d/dc) w_j = (j - 1) w_j for
    # one with a scale too; the residual at 200 seeded box points, one
    # stacked pass, is within the sum of its terms' error estimates
    rng = np.random.default_rng([17, _SYMMETRY_CASES.index((name, first, path))])
    n, orders = 200, (0, 1, 2, 3, 4)
    mu, sigma = rng.uniform(-5.0, 5.0, n), np.exp(rng.uniform(np.log(0.05), np.log(10.0), n))
    s, c = np.exp(rng.uniform(np.log(0.05), np.log(1000.0), n)), rng.uniform(-10.0, 10.0, n)
    names = ("mu", "sigma") if hasattr(first, "sigma") else ("mu",)
    models = _columns(first, names, np.stack([mu, sigma], axis=1)[:, :len(names)])
    kernels = _columns(UNIT_KERNEL, ("s", "c"), np.stack([s, c], axis=1))
    _, v, e = _pairing_pass(models, kernels, FeatureMapSpec(orders, path=path), (None, *names), ("s", "c"))
    j = np.array(orders, dtype=float)
    (w, dmu, ds, dc), (ew, emu, es, ec) = (np.moveaxis(a[..., [0, 1, -2, -1]], -1, 0) for a in (v, e))
    lower, elower = np.pad(w[:, :-1], ((0, 0), (1, 0))), np.pad(ew[:, :-1], ((0, 0), (1, 0)))
    assert np.all(np.abs(dmu + dc - j * lower) <= emu + ec + j * elower), (name, path)
    if len(names) == 2:
        (mu, sigma, s, c), dsigma, esigma = (a[:, None] for a in (mu, sigma, s, c)), v[..., 2], e[..., 2]
        residual = mu * dmu + sigma * dsigma + s * ds + c * dc - (j - 1.0) * w
        assert np.all(np.abs(residual) <= abs(mu) * emu + sigma * esigma + s * es + abs(c) * ec + abs(j - 1.0) * ew)


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


def test_gaussian_tilted_law_has_no_cumulants_beyond_the_second():
    # f phi / w_0 is N(m, v) for a Gaussian model, so kappa_3 .. kappa_6 are
    # 0.  Each w_j / w_0 comes within about 1e-15 of its scale
    # (|m| + sqrt v)^j; raw moments 5 and 6 off by 1 part in 1e9 put
    # kappa_5 and kappa_6 100x or more past the bound
    for mu, sigma, s, c in ((0.7, 1.3, 0.9, -0.4), (-1.2, 0.6, 1.5, 0.8), (2.0, 1.0, 0.5, -1.0)):
        v = 1.0 / (1.0 / sigma**2 + 1.0 / s**2)
        m = v * (mu / sigma**2 + c / s**2)
        kappa = weak_cumulants(Gaussian(mu, sigma), KernelSpec(s, c), 6).kappa
        scale = (abs(m) + np.sqrt(v)) ** np.arange(3, 7)
        assert np.all(np.abs(kappa[2:]) <= 1e-12 * scale), (mu, sigma, s, c)


def test_weak_cumulants_of_a_tiny_w0():
    # w_0 ~ 9.4e-280 once met an absolute target on the first panels and
    # gave kappa = (32.94, 0.0057); the tilted law is N(32, 0.2)
    wc = weak_cumulants(Gaussian(0.0, 1.0), KernelSpec(0.5, 40.0), 2)
    assert wc.kappa == pytest.approx([32.0, 0.2], rel=1e-8)


@pytest.mark.parametrize("m, k, w0", [(Gaussian(0.0, 0.05), KernelSpec(0.05, 10.0), "0.000e+00"),
                                      (Gaussian(0.0, 1.0), KernelSpec(0.5, 42.5), "5.952e-315")],
                         ids=["zero", "subnormal"])
def test_weak_cumulants_refuse_a_w0_below_the_normal_range(m, k, w0):
    # the moments divided by a w_0 of 0 gave NaN kappas; by a subnormal
    # one, kappas of no relative precision
    with pytest.raises(Undefined, match=re.escape(f"{m} with {k}: w_0 = {w0} is not a positive normal double")):
        weak_cumulants(m, k, 2)


def test_subnormal_pairings_meet_a_target_floored_at_the_smallest_normal():
    # a narrow model 38 widths from a narrow window: every entry is
    # subnormal, without relative precision, and once exhausted the
    # budget against a relative target that had underflowed to 0
    spec = FeatureMapSpec(orders=(0, 1, 2, 3, 4))
    vals, errs = weak_moment_jacobian(Gaussian(-5.0, 0.25), KernelSpec(0.2, 7.275),
                                      ("mu", "sigma"), ("s", "c"), spec)
    tiny = np.finfo(float).tiny
    assert np.all(np.abs(vals) < tiny) and np.all(errs < tiny)


def tilted_gaussian_jacobian(point, orders):
    """Truth for the Jacobian of Gaussian(mu, sigma) under the window
    KernelSpec(s, c) at ``point`` = (mu, sigma, s, c): mpmath derivatives
    of the tilted-Gaussian form w_j = w_0 E[Y^j], Y ~ N(m, v), one row per
    order and columns mu, sigma, s, c."""
    import mpmath

    def w(j, mu, sigma, s, c):
        v = 1 / (1 / sigma**2 + 1 / s**2)
        m = v * (mu / sigma**2 + c / s**2)
        raw = [mpmath.mpf(1), m]
        for i in range(2, j + 1):
            raw.append(m * raw[-1] + (i - 1) * v * raw[-2])
        t = sigma**2 + s**2
        return mpmath.exp(-(mu - c) ** 2 / (2 * t)) / mpmath.sqrt(2 * mpmath.pi * t) * raw[j]

    with mpmath.workdps(40):
        return np.array([[float(mpmath.diff(lambda *p: w(j, *p), point, [int(i == col) for i in range(4)]))
                          for col in range(4)] for j in orders])


def jacobian_misses(point, orders=tuple(range(5))):
    """Entries of the Gaussian Jacobian at ``point`` whose truth is normal
    and lies further from the entry than its reported error + 4 eps|truth|."""
    vals, errs = weak_moment_jacobian(Gaussian(*point[:2]), KernelSpec(*point[2:]),
                                      ("mu", "sigma"), ("s", "c"), FeatureMapSpec(orders))
    truth = tilted_gaussian_jacobian(point, orders)
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    return (np.abs(truth) >= tiny) & (np.abs(vals - truth) > errs + 4 * eps * np.abs(truth))


def test_near_underflow_jacobian_entries_are_bounded_by_their_errors():
    # a unit window 54 model widths out: phi * f alone is subnormal near
    # the pairing's peak, and x^12 times the score once magnified its
    # rounding until the pass exhausted its budget; x^j now goes into
    # phi first
    point = (0.0, 1.0, 1.0, 54.0)
    orders = tuple(range(13))
    assert not jacobian_misses(point, orders).any()
    assert (np.abs(tilted_gaussian_jacobian(point, orders)) >= np.finfo(float).tiny).any()


def in_x_map_rounding_region(mu, sigma, s, c):
    """Whether a Gaussian pairing lies where integrating in x broke the
    error bound (ROADMAP I.4's x-map rounding, and the missed tail next to
    it): model and window 12 or more combined widths apart, or the
    pairing's peak 60 or more of its own widths from 0."""
    v = 1.0 / (1.0 / sigma**2 + 1.0 / s**2)
    peak = v * (mu / sigma**2 + c / s**2)
    return abs(mu - c) >= 12.0 * np.hypot(sigma, s) or abs(peak) >= 60.0 * np.sqrt(v)


def test_reported_errors_bound_the_gaussian_jacobian():
    # every entry, d/d(mu, sigma, s, c) w_j for j <= 4, lies within its
    # reported error of the closed form: 160 points from the family boxes
    # with log-uniform scales, and 80 narrow windows a few widths from a
    # wide model.  63 of them lie in the region where the pass in x missed
    # (ROADMAP I.4); the pass in the tilted coordinate z bounded them all,
    # and so does the closed form
    rng = np.random.default_rng(13)
    loguniform = lambda lo, hi: float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    (mu_box, sigma_box), (s_box, c_box) = _GAUSSIANS.box, _KERNELS.box
    points = [(rng.uniform(*mu_box), loguniform(*sigma_box), loguniform(*s_box), rng.uniform(*c_box))
              for _ in range(160)]
    for _ in range(80):
        mu, sigma = rng.uniform(-4.0, 4.0), loguniform(0.5, 5.0)
        c = np.clip(mu + rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 6.0) * sigma, *c_box)
        points.append((mu, sigma, loguniform(0.05, 0.15), float(c)))
    assert sum(in_x_map_rounding_region(*p) for p in points) >= 60
    missed = [p for p in points if jacobian_misses(p).any()]
    assert not missed


# ROADMAP I.4, the x-map rounding far from 0, and the missed tail of a far
# pairing (CHANGES.md FOUND lines): once strict xfails of the pass in x,
# where entries were 1.3x to 2e8x their reported errors
@pytest.mark.parametrize("point", [
    pytest.param((4.1564, 0.5142, 0.06749, -9.5957), id="I.4-jacobian-all-entries"),
    pytest.param((-2.9783190602451537, 0.99302794969361152, 0.052485886284647357, 8.7581021727197879),
                 id="I.4-jacobian-d-dc"),
    pytest.param((1.6857045230899947, 3.7930180362778634, 0.08929790003246636, -9.57685203356277),
                 id="I.4-narrow-window-beside-a-wide-model"),
    pytest.param((-4.9938983304312625, 0.48779894334698226, 0.12284145503674918, 9.843147646192548),
                 id="far-pairing-missed-tail"),
])
def test_x_map_points_are_bounded_by_their_errors(point):
    assert in_x_map_rounding_region(*point)
    assert not jacobian_misses(point).any()


def test_x_map_feature_map_point_is_bounded_by_its_errors():
    mu, sigma, s, c = -3.6552, 0.1158, 0.5901, 8.8887
    spec = FeatureMapSpec(orders=(0, 1, 2, 3, 4))
    truth, _ = gaussian_tilted_moments(mu, sigma, s, c, spec.orders)
    fv = feature_map(_GAUSSIANS, [mu, sigma], KernelSpec(s, c), spec)
    assert np.all(np.abs(fv.values - truth) <= fv.errors + 4.0 * np.finfo(float).eps * np.abs(truth))


def test_rows_whose_first_estimate_is_zero_rank_their_panels_without_overflow():
    # a window 520 wide: on the char-fn route its transform misses every
    # first node, so five rows start with int |f| = 0 and a target at the
    # floor; their later panel errors once overflowed the ranking keys to
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


def test_influence_functions_hold_a_product_in_range_when_a_factor_is_not():
    # x^j overflows or phi underflows where x^j phi(x) is a normal double:
    # against mpmath, 1e-12 relative there; inf above the range, and
    # within the smallest normal of the truth below it
    import mpmath

    tiny, big = np.finfo(float).tiny, np.finfo(float).max
    assert influence_bound(UNIT_KERNEL, 260) == pytest.approx(1.2278990252440e257, rel=1e-12)
    assert influence_value(UNIT_KERNEL, 3, 1e200, 0.0) == 0.0
    rng = np.random.default_rng(3)
    xs = np.concatenate((rng.choice([-1.0, 1.0], 40) * 10.0 ** rng.uniform(-3.0, 200.0 ** 0.5, 40) ** 2,
                         [0.0, 1e-3, 16.1, -38.7, 40.0, -60.0, 1e200, -1e200]))
    with mpmath.workdps(40):
        def truth(k, j, x):
            x, s = mpmath.mpf(x), mpmath.mpf(k.s)
            return x**j * mpmath.exp(-(x - k.c) ** 2 / (2 * s * s)) / (mpmath.sqrt(2 * mpmath.pi) * s)

        for k in (UNIT_KERNEL, KernelSpec(0.5, 2.0), KernelSpec(30.0, -1.0)):
            for j in (0, 1, 3, 50, 101, 200, 260, 300):
                half = mpmath.sqrt(mpmath.mpf(k.c) ** 2 + 4 * j * mpmath.mpf(k.s) ** 2) / 2
                sup = max(abs(truth(k, j, k.c / 2 + half)), abs(truth(k, j, k.c / 2 - half)))
                pairs = [(influence_value(k, j, x, 0.0), truth(k, j, x)) for x in xs]
                for got, true in pairs + [(influence_bound(k, j), sup)]:
                    if abs(true) > big:
                        assert abs(got) == np.inf, (k, j)
                    elif abs(true) < tiny:
                        assert abs(got - true) <= tiny, (k, j)
                    else:
                        assert abs(got - true) <= 1e-12 * abs(true), (k, j, got, true)


def test_library_entry_points_refuse_bad_arguments():
    with pytest.raises(ValueError, match="expects 2 parameters, got 3"):
        feature_map(gaussian_family(), [0.0, 1.0, 2.0], UNIT_KERNEL, FeatureMapSpec((0,)))
    with pytest.raises(Unsupported, match="nu"):
        weak_moment_jacobian(Gaussian(0.0, 1.0), UNIT_KERNEL, ("nu",), (), FeatureMapSpec((0,)))
    with pytest.raises(ValueError, match="nonnegative"):
        influence_bound(UNIT_KERNEL, -1)


def test_closed_form_gaussian_overflow_names_its_order():
    # no integrand runs for a closed-form pairing: the error names the
    # first requested order that is not finite, not a node
    for orders, first in (((0, 344), 344), ((0, 343, 344, 400), 344)):
        with pytest.raises(NonFiniteEvaluation) as info:
            feature_map(_GAUSSIANS, [0.0, 1.0], UNIT_KERNEL, FeatureMapSpec(orders))
        assert str(info.value) == (f"the closed-form Gaussian pairing is not finite at order {first}; "
                                   f"Gaussian(mu=0.0, sigma=1.0) with KernelSpec(s=1.0, c=0.0)")
