"""Seeded inputs, reference values and output checks for the three workloads.

This module never imports ``wml``: it runs in the harness process, which
makes the inputs, computes the references (closed forms, or scipy's
QUADPACK on an independently written integrand) and judges the outputs
the measured process sends back.

Continuous inputs are drawn by stratified (Latin-hypercube) sampling per
family, so two seeds give different points that cover each range
equally; that keeps the work per pass, and so the throughput, close
across seeds.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("catalog", "eval", "sweep")

# The twelve catalog experiments, in `wml list` order.
EXPERIMENTS = (
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

EVAL_ORDERS = (0, 1, 2, 3, 4)
EVAL_POINTS_PER_FAMILY = 32
SWEEP_ORDERS = (0, 1, 2)
SWEEP_OPS_PER_FAMILY = 4
SWEEP_SCALES_PER_OP = 2

# Model parameter count of each sweep family; the check needs model_rank == p.
FAMILY_P = {"gaussian": 2, "cauchy": 1, "lognormal": 2}

# The op run once before timing starts; fixed so that set-up time does not
# depend on the seed.
WARMUP = {
    "catalog": "cauchy-fisher",
    "eval": {"family": "gaussian", "theta": [0.3, 1.1], "s": 1.0, "c": 0.2},
    "sweep": {"family": "gaussian", "theta": [0.0, 1.0], "scales": [2.0, 10.0]},
}

# Eval outputs must match the reference to this share of the integral of
# |x^j phi(x) f(x)| (or its Fourier-side analogue), plus an absolute floor
# ten times the package's default absolute tolerance.
EVAL_REL_TOL = 1e-8
EVAL_ABS_TOL = 1e-11


def _strata(rng, n, lo, hi, log=False):
    """n draws from [lo, hi], one from each of n equal strata, shuffled."""
    u = (rng.permutation(n) + rng.random(n)) / n
    if log:
        return np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
    return lo + u * (hi - lo)


def make_inputs(workload: str, seed: int) -> list:
    """The fixed input set of one pass; the same seed gives the same list."""
    if workload == "catalog":
        return list(EXPERIMENTS)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "eval":
        return _eval_inputs(rng)
    if workload == "sweep":
        return _sweep_inputs(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _eval_inputs(rng) -> list:
    n = EVAL_POINTS_PER_FAMILY
    u = lambda lo, hi: _strata(rng, n, lo, hi)
    thetas = {
        "gaussian": list(zip(u(-2.0, 2.0), u(0.5, 2.0))),
        "cauchy": list(zip(u(-2.0, 2.0))),
        "lognormal": list(zip(u(-1.0, 1.0), u(0.3, 1.2))),
        "stieltjes": list(zip(u(-0.9, 0.9))),
        "stable": list(zip(u(-2.0, 2.0), u(0.5, 2.0))),
    }
    alphas = u(1.1, 1.9)
    points = []
    for fam in thetas:
        scales = _strata(rng, n, 0.3, 5.0, log=True)
        centres = u(-1.0, 1.0)
        for i in range(n):
            point = {"family": fam, "theta": [float(v) for v in thetas[fam][i]],
                     "s": float(scales[i]), "c": float(centres[i])}
            if fam == "stable":
                point["alpha"] = float(alphas[i])
            points.append(point)
    # rotate through the families, so every stretch of a pass mixes them
    return [points[f * n + i] for i in range(n) for f in range(len(thetas))]


def _sweep_inputs(rng) -> list:
    n = SWEEP_OPS_PER_FAMILY
    u = lambda lo, hi: _strata(rng, n, lo, hi)
    thetas = {
        "gaussian": list(zip(u(-1.0, 1.0), u(0.7, 1.5))),
        "cauchy": list(zip(u(-1.0, 1.0))),
        "lognormal": list(zip(u(-0.5, 0.5), u(0.6, 1.2))),
    }
    ops = []
    for fam in thetas:
        scales = _strata(rng, n * SWEEP_SCALES_PER_OP, 1.0, 30.0, log=True)
        for i in range(n):
            pair = scales[i * SWEEP_SCALES_PER_OP:(i + 1) * SWEEP_SCALES_PER_OP]
            ops.append({"family": fam, "theta": [float(v) for v in thetas[fam][i]],
                        "scales": sorted(float(s) for s in pair)})
    return [ops[f * n + i] for i in range(n) for f in range(len(thetas))]


# ---------------------------------------------------------------- references


def _gauss_moment(n, mean, var):
    prev, cur = 1.0, mean
    if n == 0:
        return 1.0
    for k in range(2, n + 1):
        prev, cur = cur, mean * cur + (k - 1) * var * prev
    return cur


def _gaussian_tilted(point, j):
    """Closed form: N(mu, sigma^2) times the N(c, s^2) window is
    Z * N(m, v), so w_j = Z * E[Y^j] with Y ~ N(m, v).  The scale is
    Z * E[(|m| + sqrt(v) |N|)^j], an upper bound on Z * E|Y|^j."""
    mu, sigma = point["theta"]
    s, c = point["s"], point["c"]
    tot = sigma * sigma + s * s
    z = math.exp(-0.5 * (mu - c) ** 2 / tot) / math.sqrt(2.0 * math.pi * tot)
    v = 1.0 / (1.0 / sigma**2 + 1.0 / s**2)
    m = v * (mu / sigma**2 + c / s**2)
    abs_normal = lambda k: 2.0 ** (k / 2) * math.gamma((k + 1) / 2) / math.sqrt(math.pi)
    scale = sum(math.comb(j, k) * abs(m) ** (j - k) * v ** (k / 2) * abs_normal(k)
                for k in range(j + 1))
    return z * _gauss_moment(j, m, v), z * scale


def _density(point):
    """Model density written out independently of wml.models."""
    fam, th = point["family"], point["theta"]
    if fam == "cauchy":
        return lambda x: 1.0 / (math.pi * (1.0 + (x - th[0]) ** 2))

    def lognorm(x, mu, sigma):
        z = (math.log(x) - mu) / sigma
        return math.exp(-0.5 * z * z) / (x * sigma * math.sqrt(2.0 * math.pi))

    if fam == "lognormal":
        return lambda x: lognorm(x, th[0], th[1])
    if fam == "stieltjes":
        return lambda x: (1.0 + th[0] * math.sin(2.0 * math.pi * math.log(x))) * lognorm(x, 0.0, 1.0)
    raise ValueError(fam)


def _density_reference(point, j):
    """(value, L1 scale) of int x^j phi(x) f(x) dx by scipy quad; half-line
    models are integrated in y = log x."""
    s, c = point["s"], point["c"]
    f = _density(point)

    def phi(x):
        return math.exp(-0.5 * ((x - c) / s) ** 2) / (s * math.sqrt(2.0 * math.pi))

    if point["family"] == "cauchy":
        lo, hi = c - 40.0 * s, c + 40.0 * s
        g = lambda x: x**j * phi(x) * f(x)
        pts = sorted({c, min(max(point["theta"][0], lo), hi)})
    else:
        lo, hi = -45.0, math.log(c + 40.0 * s)
        g = lambda y: math.exp(y * (j + 1)) * phi(math.exp(y)) * f(math.exp(y))
        pts = [p for p in (0.0, point["theta"][0]) if lo < p < hi]
    return _quad_with_scale(g, lo, hi, pts)


def _quad_with_scale(g, lo, hi, points=None):
    """(int g, int |g|) over [lo, hi]; the value's absolute target is set
    from the L1 scale, so it is reachable in double precision."""
    from scipy.integrate import quad

    l1 = quad(lambda x: abs(g(x)), lo, hi, points=points, epsrel=1e-10, epsabs=0.0, limit=1000)[0]
    val = quad(g, lo, hi, points=points, epsrel=1e-12, epsabs=1e-13 * l1, limit=1000)[0]
    return val, l1


def _stable_reference(point, j):
    """Parseval on the Fourier side with the window transform built from
    probabilists' Hermite polynomials:
    Psi_j(u) = e^{-iuc} sum_k C(j,k) c^{j-k} s^k (-i)^k He_k(su) e^{-(su)^2/2}."""
    from numpy.polynomial import hermite_e

    alpha = point["alpha"]
    mu, sigma = point["theta"]
    s, c = point["s"], point["c"]
    coef = [math.comb(j, k) * c ** (j - k) * s**k for k in range(j + 1)]

    def integrand(u):
        t = s * u
        he = [hermite_e.hermeval(t, [0.0] * k + [1.0]) for k in range(j + 1)]
        poly = sum(coef[k] * (-1j) ** k * he[k] for k in range(j + 1))
        psi = np.exp(-1j * u * c - 0.5 * t * t) * poly
        cf = np.exp(1j * u * mu - abs(sigma * u) ** alpha)
        return cf * psi / (2.0 * math.pi)

    # fold u and -u: the real part of the integrand is even in u, and
    # |integrand| >= its real part bounds the scale
    val, _ = _quad_with_scale(lambda u: 2.0 * integrand(u).real, 0.0, 40.0 / s)
    l1, _ = _quad_with_scale(lambda u: 2.0 * abs(integrand(u)), 0.0, 40.0 / s)
    return val, l1


def eval_reference(point) -> list:
    """[(value, scale), ...] for every order in EVAL_ORDERS."""
    if point["family"] == "gaussian":
        return [_gaussian_tilted(point, j) for j in EVAL_ORDERS]
    if point["family"] == "stable":
        return [_stable_reference(point, j) for j in EVAL_ORDERS]
    return [_density_reference(point, j) for j in EVAL_ORDERS]


def references(workload: str, inputs: list) -> list:
    if workload == "eval":
        return [eval_reference(p) for p in inputs]
    return [None] * len(inputs)


# -------------------------------------------------------------------- checks


def check(workload: str, inp, out, ref) -> str | None:
    """None if the op's output is correct, else why it is not."""
    if "error" in out:
        return out["error"]
    if workload == "eval":
        return _check_eval(inp, out, ref)
    if workload == "sweep":
        return _check_sweep(inp, out)
    return _check_catalog(out)


def _check_eval(point, out, ref):
    route = "charfn" if point["family"] == "stable" else "density"
    if list(out["paths"]) != [route] * len(EVAL_ORDERS):
        return f"route {out['paths']}, expected {route}"
    if len(out["values"]) != len(EVAL_ORDERS):
        return f"{len(out['values'])} values for {len(EVAL_ORDERS)} orders"
    for j, got, (want, scale) in zip(EVAL_ORDERS, out["values"], ref):
        if not abs(got - want) <= EVAL_REL_TOL * scale + EVAL_ABS_TOL:
            return f"w_{j} = {got!r}, reference {want!r} (scale {scale:.3g})"
    return None


def _check_sweep(op, out):
    rows = out["rows"]
    if len(rows) != len(op["scales"]):
        return f"{len(rows)} rows for {len(op['scales'])} scales"
    p = FAMILY_P[op["family"]]
    for s, row in zip(op["scales"], rows):
        if row["s"] != s:
            return f"row for s={row['s']!r}, expected s={s!r}"
        if row["model_rank"] != p:
            return f"model_rank {row['model_rank']} != p={p} at s={s:g}"
        det = row["det_g"]
        if not (math.isfinite(det) and det > 0.0):
            return f"det_g = {det!r} at s={s:g}"
    return None


def _check_catalog(out):
    if out["exit"] != 0:
        return f"exit code {out['exit']}"
    if out["pass"] is not True:
        return f"written JSON has pass = {out['pass']!r}"
    return None
