"""The Lorentzian closed form (``features._lorentz_pairings``) against a
40-digit reference built on mpmath's complex erfc, and the adaptive pass
it falls back on for the points it cannot certify."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

import wml.features
import wml.quad
from wml.features import FeatureMapSpec, _lorentz_pairings, _pairing_pass, weak_moment
from wml.models import Cauchy, KernelSpec, SymmetricStable, Unsupported, _columns

ORDERS = tuple(range(9))


def voigt_rows(mu, gamma, s, c, orders=ORDERS, digits=40):
    """(K+1, 5) rows w_j, d/dmu, d/dgamma, d/ds, d/dc of the pairing of
    gamma / (pi (gamma^2 + (x - mu)^2)) with the window N(c, s^2), to
    ``digits`` digits.  With x = c + s Z, t0 = (mu - c + i gamma) / s and
    a = mu + i gamma, x - a = s (Z - t0), so xm_i = E[x^i / (Z - t0)] runs
    xm_0 = i sqrt(pi / 2) w(t0 / sqrt 2), w(z) = exp(-z^2) erfc(-iz), and
    xm_{i+1} = a xm_i + s E[x^i]; w_j = Im xm_j / (pi s), and the columns
    follow from E[Z x^j / (Z - t0)] = (xm_{j+1} - c xm_j) / s, its Z^2
    twin and Stein's E[x^j / (Z - t0)^2] = j s xm_{j-1} - E[Z x^j / (Z - t0)],
    whose Im and Re over pi s^2 are d/dmu and d/dgamma.  The recurrence
    amplifies by |a| / (|c| + s) a step at worst: those digits are added."""
    top = max(orders) + 2
    lost = top * math.log10(max(abs(complex(mu, gamma)) / (abs(c) + s), 1.0))
    lost += math.log10(max(abs(mu - c) / gamma, 1.0))
    with mp.workdps(digits + int(lost) + 5):
        mu, gamma, s, c = (mp.mpf(v) for v in (mu, gamma, s, c))
        a, t0 = mp.mpc(mu, gamma), mp.mpc(mu - c, gamma) / s
        z = t0 / mp.sqrt(2)
        xm, g = [1j * mp.sqrt(mp.pi / 2) * mp.exp(-z * z) * mp.erfc(-1j * z)], [mp.mpf(1), c]
        for i in range(top):
            xm.append(a * xm[i] + s * g[i])
            g.append(c * g[-1] + (i + 1) * s * s * g[-2])
        inv_s, one, two = 1 / s, 1 / (mp.pi * s), 1 / (mp.pi * s * s)
        rows = []
        for j in orders:
            zx = (xm[j + 1] - c * xm[j]) * inv_s
            z2 = (xm[j + 2] - 2 * c * xm[j + 1] + (c * c - s * s) * xm[j]) * inv_s * inv_s
            d = (j * s * xm[j - 1] if j else 0) - zx
            rows.append([xm[j].imag * one, d.imag * two, d.real * two, z2.imag * two, zx.imag * two])
        return np.array(rows, dtype=float)


def box_points(rng, n):
    """n (mu, sigma, s, c) points of the family boxes: s log-uniform."""
    return np.stack([rng.uniform(-5.0, 5.0, n), np.exp(rng.uniform(np.log(0.05), np.log(10.0), n)),
                     np.exp(rng.uniform(np.log(0.05), np.log(1000.0), n)), rng.uniform(-10.0, 10.0, n)], axis=1)


def lorentzians(first, points):
    """The points (mu, sigma, s, c) as the columns of ``first``'s law (the
    Cauchy takes mu only, of width 1) and of the window, and its model
    columns."""
    names = ("mu", "sigma") if isinstance(first, SymmetricStable) else ("mu",)
    return (_columns(first, names, points[:, :len(names)]), _columns(KernelSpec(1.0), ("s", "c"), points[:, 2:]),
            (None, *names))


@pytest.mark.parametrize("first", [Cauchy(0.0), SymmetricStable(1.0)], ids=["cauchy", "stable1"])
def test_certified_entries_are_within_their_bounds_of_a_40_digit_reference(first):
    # 1,400 seeded box points, orders 0-8, every column: each certified
    # value and Jacobian entry lies within its bound of the reference, and
    # most points are certified (1,034 and 1,060 of them here)
    points = box_points(np.random.default_rng([41, isinstance(first, Cauchy)]), 1400)
    if isinstance(first, Cauchy):
        points[:, 1] = 1.0
    models, kernels, names = lorentzians(first, points)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values, errors, certified = _lorentz_pairings(models, kernels, ORDERS, names, ("s", "c"))
    assert certified.mean() > 0.65
    cols = [0, 1, 3, 4] if isinstance(first, Cauchy) else [0, 1, 2, 3, 4]
    for i in np.flatnonzero(certified):
        truth = voigt_rows(*points[i])[:, cols]
        assert np.all(np.abs(values[i] - truth) <= errors[i]), points[i]


def test_the_reference_matches_direct_quadrature():
    # 20 seeded points, one row each (order and column in turn), against
    # mp.quad of x^j times the window, the density and its score or the
    # window's derivative, split at mu, c and their widths
    rng = np.random.default_rng(43)
    for i, (mu, sigma, s, c) in enumerate(box_points(rng, 20)):
        s = min(s, 20.0)  # the integrand needs no more than the model's and the window's breakpoints
        j, col = i % 9, i % 5
        with mp.workdps(15):
            m, g, w, cc = (mp.mpf(float(v)) for v in (mu, sigma, s, c))

            def f(x):
                d2 = g * g + (x - m) ** 2
                phi = mp.exp(-((x - cc) / w) ** 2 / 2) / (w * mp.sqrt(2 * mp.pi))
                factor = (1, 2 * (x - m) / d2, ((x - m) ** 2 - g * g) / (g * d2),
                          (((x - cc) / w) ** 2 - 1) / w, (x - cc) / (w * w))[col]
                return x ** j * phi * g / (mp.pi * d2) * factor

            cuts = sorted({m - 30 * g, m, m + 30 * g, cc - 12 * w, cc, cc + 12 * w})
            truth = mp.quad(f, [-mp.inf, *cuts, mp.inf])
        cuts = [float(x) for x in cuts]  # int |f|, to a few digits, in doubles
        scale = sum(quad(lambda x: abs(float(f(mp.mpf(x)))), a, b, limit=200)[0]
                    for a, b in zip([-np.inf, *cuts], [*cuts, np.inf]))
        assert abs(voigt_rows(mu, sigma, s, c, orders=(j,))[0, col] - float(truth)) <= 1e-12 * scale, (i, j, col)


def test_a_window_below_the_spacing_of_doubles_at_c_takes_the_voigt_value():
    # the nodes x = c + s z of the pass round to a few doubles here, and it
    # returned 3.081e16 +- 2.4e6; in the window's coordinate t0 = i / 3
    est = weak_moment(SymmetricStable(1.0, 1.0, 1e-17), KernelSpec(3e-17, 1.0), 0)
    truth = voigt_rows(1.0, 1e-17, 3e-17, 1.0, orders=(0,))[0, 0]
    assert truth == pytest.approx(1.0387e16, rel=1e-4)
    assert abs(est.value - truth) <= est.error <= 1e-10 * truth


def test_a_grid_integrates_only_the_points_its_closed_form_cannot_certify(monkeypatch):
    # points with mu = c, where d/dmu w_j and the odd w_j vanish by symmetry,
    # cannot certify a bound relative to |value|: each comes back from the
    # adaptive pass, in its place and bit for bit as alone, and every other
    # point from its closed form, within its bound of the reference
    rng = np.random.default_rng(47)
    points = box_points(rng, 12)
    points[::3, 3] = points[::3, 0]  # mu = c
    models, kernels, names = lorentzians(SymmetricStable(1.0), points)
    spec = FeatureMapSpec(tuple(range(5)))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        closed, closed_errors, certified = _lorentz_pairings(models, kernels, spec.orders, names, ("s", "c"))
    assert not certified[::3].any() and certified.any()
    segments = []
    kronrod = wml.quad._kronrod_panels
    monkeypatch.setattr(wml.quad, "_kronrod_panels", lambda *a: segments.append(np.unique(a[3]).size) or kronrod(*a))
    route, values, errors = _pairing_pass(models, kernels, spec, names, ("s", "c"))
    assert route == "density" and max(segments) == (~certified).sum()
    monkeypatch.setattr(wml.features, "_lorentz_pairings",
                        lambda *a: (0.0, 0.0, np.zeros(wml.models._count(*a[:2]), bool)))
    for i, (mu, sigma, s, c) in enumerate(points):
        if certified[i]:
            assert values[i].tobytes() == closed[i].tobytes() and errors[i].tobytes() == closed_errors[i].tobytes()
            assert np.all(np.abs(values[i] - voigt_rows(mu, sigma, s, c, spec.orders)) <= errors[i])
        else:
            _, alone, alone_errors = _pairing_pass(SymmetricStable(1.0, mu, sigma), KernelSpec(s, c), spec, names,
                                                   ("s", "c"))
            assert values[i].tobytes() == alone[0].tobytes() and errors[i].tobytes() == alone_errors[0].tobytes()



def test_a_point_in_a_grid_takes_the_bits_it_takes_alone():
    # each node's powers run in full, so a window whose powers overflow
    # (s = 1000 at order 100) leaves its neighbours' alone: the points at
    # s = 1 took x^72 for x^100 in a grid with it and were certified at
    # 3.2e76 against 4.8e109.  Seeded box points at orders 0-8 likewise
    rng = np.random.default_rng(53)
    far = _columns(KernelSpec(1.0), ("s", "c"), [[1.0, 9.9], [1000.0, 9.9], [1.0, 9.9]])
    cases = [(Cauchy(5.0), far, (0, 100), (None,))]
    for first in (Cauchy(0.0), SymmetricStable(1.0)):
        models, kernels, names = lorentzians(first, box_points(rng, 30))
        cases.append((models, kernels, ORDERS, names))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for models, kernels, orders, names in cases:
            grid = _lorentz_pairings(models, kernels, orders, names, ("s", "c"))
            for i in range(len(grid[2])):
                alone = _lorentz_pairings(wml.models._take(models, i), wml.models._take(kernels, i), orders, names,
                                          ("s", "c"))
                assert [x.tobytes() for x in alone] == [x[i:i + 1].tobytes() for x in grid], (orders, i)
            if orders == (0, 100):
                values, errors, certified = grid
                assert list(certified) == [True, False, True]
                truth = voigt_rows(5.0, 1.0, 1.0, 9.9, orders)[:, [0, 3, 4]]
                assert np.all(np.abs(values[0] - truth) <= errors[0])


@pytest.mark.parametrize("name", ["sigma", "a", "nu"])
def test_a_column_the_law_lacks_is_refused_before_any_pairing(name):
    # the Cauchy has no sigma: named at once, never taken for another score
    with pytest.raises(Unsupported, match=f"no analytic derivative for parameters \\['{name}'\\]"):
        _pairing_pass(Cauchy(0.3), KernelSpec(1.0), FeatureMapSpec((0, 1)), (None, name), ("s",))
