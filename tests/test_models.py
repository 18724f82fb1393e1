import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

import wml.models
from wml.models import (
    _W_MESH,
    _Z_MESH,
    _breakpoints,
    _charfn_points,
    _columns,
    Cauchy,
    Gaussian,
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
from wml.quad import NonConvergence, integrate_half_line, integrate_real_line

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
        integrate_real_line(lambda x: np.cos(u * x) * density(Cauchy(0), x))
    assert failure.value.result.value == pytest.approx(np.exp(-2.0), abs=1e-6)


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
    assert kfam.p == 1 and kfam.make([2.0]) == KernelSpec(2.0, 0.0)
    kfam2 = scale_center_kernel_family()
    assert kfam2.p == 2 and kfam2.make([2.0, -0.5]) == KernelSpec(2.0, -0.5)
    fam2, theta = canonical_family(Cauchy(0.25))
    assert fam2.name == "cauchy" and theta[0] == 0.25


def test_stieltjes_fisher_information_and_stable_two_moments_in_closed_form():
    # the a-score of the Stieltjes family at a = 0 is sin(2 pi log x), so its
    # information is E[sin^2(2 pi Z)] = (1 - e^{-8 pi^2}) / 2, Z ~ N(0, 1)
    truth = 0.5 * (1.0 - np.exp(-8.0 * np.pi**2))
    info = classical_fisher_info(StieltjesLogNormal(0.0), "a")
    assert abs(info - truth) <= 4 * np.spacing(truth)
    # stable(2, mu, sigma) is the Gaussian(mu, sqrt(2) sigma)
    for mu, sigma in ((0.0, 1.0), (0.5, 0.3), (-1.2, 2.0)):
        for n in range(1, 7):
            assert classical_moment(SymmetricStable(2.0, mu, sigma), n) == \
                classical_moment(Gaussian(mu, np.sqrt(2.0) * sigma), n), (mu, sigma, n)


def reference_breakpoints(m, k):
    """The per-point first mesh as it was written before grids entered
    their pass as columns, the reference for the column form."""
    peak_offsets = np.array([-4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0])
    log_tail = np.array([-10.0, -8.0, -6.0, -5.0, 5.0, 6.0, 8.0, 10.0])
    if support(m) == "real":
        width = getattr(m, "sigma", 1.0) / k.s
        if not width < 0.7:
            return _W_MESH
        tail = width * 2.0 ** np.arange(3.0, np.log2(0.5 / width) + 1.0)  # up to 0.5
        peak = (m.mu - k.c) / k.s + np.concatenate((width * peak_offsets, tail, -tail))
        return np.concatenate((_W_MESH, peak[np.abs(peak) <= 10.0]))
    window = k.c + k.s * _Z_MESH
    if isinstance(m, StieltjesLogNormal) and window[-1] > 0.0:
        lo = np.log(window[0]) if window[0] > 0.0 else -np.inf
        hi = np.log(window[-1])
        if max(lo, -4.0) < min(hi, 4.0):
            tail = log_tail[(lo <= log_tail) & (log_tail <= hi)]
            a, b = max(lo, -4.0), min(hi, 4.0)
            grid = np.exp(np.arange(np.floor(a / 0.25), np.ceil(b / 0.25) + 1.0) * 0.25)
            points = np.concatenate((grid, np.exp(tail)))
            return points if lo == -np.inf else np.concatenate((points, window))
    y = getattr(m, "mu", 0.0) + getattr(m, "sigma", 1.0) * _Z_MESH
    if window[-1] > 0.0:
        y = y[y <= np.log(window[-1])]
    return np.concatenate((np.exp(y), window[window > 0.0]))


def reference_charfn_points(m, k):
    w_half = _W_MESH[_W_MESH > 0.0]
    decay = np.concatenate((w_half / k.s, w_half / getattr(m, "sigma", 1.0)))
    return np.concatenate((decay, decay.min() * np.exp(-np.array([0.5, 1.0, 2.0, 3.0, 5.0, 7.5, 10.0, 16.0, 24.0]))))


def mesh_cases():
    """(name, models, kernels, cases to cover) over seeded box points of
    every integrated frame, each family's points one grid: the window
    frame's wide windows and narrow Lorentzians (peak points clipped at
    |z| <= 10, tails down to 0.5), log-normal windows that do and do not
    reach x <= 0, and Stieltjes windows with and without quarter periods
    in range."""
    rng = np.random.default_rng(31)
    n = 60
    mu, s = rng.uniform(-5.0, 5.0, n), np.exp(rng.uniform(np.log(0.05), np.log(1000.0), n))
    c, sigma = rng.uniform(-10.0, 10.0, n), np.exp(rng.uniform(np.log(0.05), np.log(10.0), n))
    kernels = [KernelSpec(float(a), float(b)) for a, b in zip(s, c)]
    # a narrow Lorentzian whose peak points pass |z| = 10, and one whose
    # tail points run down to the window mesh's 0.5
    yield "cauchy", [Cauchy(float(a)) for a in mu] + [Cauchy(5.0), Cauchy(0.3)], \
        kernels + [KernelSpec(1.6, -10.0), KernelSpec(900.0)]
    yield "stable(1)", [SymmetricStable(1.0, float(a), float(b)) for a, b in zip(mu, sigma)], kernels
    yield "lognormal", [LogNormal(float(a) * 0.6, float(b) * 0.5) for a, b in zip(mu, sigma)], kernels
    yield "stieltjes", [StieltjesLogNormal(float(a) / 5.0) for a in mu], kernels


def test_column_meshes_are_the_per_point_meshes_bit_for_bit():
    # one masked array expression per frame gives each point of a grid,
    # bit for bit, the breakpoints it had alone, and has as one point; nan
    # pads a row, and the pass sorts each row
    seen = set()
    for name, ms, ks in mesh_cases():
        names = [field for field in vars(ms[0]) if field != "alpha"]
        models = _columns(ms[0], names, [[getattr(m, field) for field in names] for m in ms])
        kernels = _columns(ks[0], ("s", "c"), [[k.s, k.c] for k in ks])
        for build, reference in ((_breakpoints, reference_breakpoints), (_charfn_points, reference_charfn_points)):
            if build is _charfn_points and isinstance(ms[0], (LogNormal, StieltjesLogNormal)):
                continue
            rows = build(models, kernels)
            assert rows.shape[0] == len(ms)
            # the pass drops nan, and in the frame 'half' every point at x <= 0
            kept = (lambda r: np.sort(r[r > 0.0])) if support(ms[0]) == "half" else (lambda r: np.sort(r[r == r]))
            for m, k, row in zip(ms, ks, rows):
                assert kept(row).tobytes() == kept(reference(m, k)).tobytes(), (name, m, k)
                assert kept(build(m, k)[0]).tobytes() == kept(row).tobytes(), (name, m, k)
                window = k.c + k.s * _Z_MESH
                if name == "cauchy":
                    seen.add("narrow" if k.s > 1.0 / 0.7 else "wide")
                    if k.s > 1.0 / 0.7 and abs(m.mu - k.c) / k.s + 4.0 / k.s > 10.0:
                        seen.add("peak clipped")
                if isinstance(m, LogNormal):
                    seen.add("reaches x <= 0" if window[0] <= 0.0 else "in x > 0")
                if isinstance(m, StieltjesLogNormal):
                    quarter = window[-1] > 0.0 and max(np.log(window[0]) if window[0] > 0.0 else -np.inf, -4.0) \
                        < min(np.log(window[-1]), 4.0)
                    seen.add("quarter periods" if quarter else "no quarter period")
    assert seen == {"narrow", "wide", "peak clipped", "reaches x <= 0", "in x > 0", "quarter periods",
                    "no quarter period"}


@pytest.mark.parametrize("kind, names, bad, field", [
    (Gaussian(0.0, 1.0), ("mu", "sigma"), [0.0, -1.0], "sigma must be positive"),
    (Gaussian(0.0, 1.0), ("mu", "sigma"), [np.nan, 1.0], "mu must be finite"),
    (LogNormal(0.0, 1.0), ("mu", "sigma"), [np.inf, 1.0], "mu must be finite"),
    (Cauchy(0.0), ("mu",), [-np.inf], "mu must be finite"),
    (StieltjesLogNormal(0.0), ("a",), [1.5], r"\|a\| must be <= 1"),
    (SymmetricStable(1.5, 0.0, 1.0), ("mu", "sigma"), [0.0, 0.0], "sigma must be positive"),
    (KernelSpec(1.0), ("s",), [0.0], "kernel scale must be positive"),
    (KernelSpec(1.0), ("s", "c"), [1.0, np.nan], "c must be finite"),
])
def test_the_column_entry_rejects_a_bad_field_by_name(kind, names, bad, field):
    # the checks of __post_init__ as one array comparison per field: the
    # first bad point of a grid raises the ValueError its spec would
    good = [getattr(kind, name) for name in names]
    with pytest.raises(ValueError, match=f"^{field}, got "):
        _columns(kind, names, [good, good, bad, good])
    columns = _columns(kind, names, [good, good])
    assert all(np.array_equal(getattr(columns, name), [value, value]) for name, value in zip(names, good))
    with pytest.raises(ValueError, match=f"^{field}, got "):  # one point is a spec of its own
        _columns(kind, names, [bad])
    assert _columns(kind, names, [good]) == kind
