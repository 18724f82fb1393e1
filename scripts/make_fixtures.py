#!/usr/bin/env python3
"""Regenerate the frozen oracle fixtures under tests/fixtures/.

This script is the independent route: it deliberately does not import
the package.  Integrals are computed with scipy's QUADPACK wrapper at
tolerances four times tighter than the package uses, and derivatives
with plain central differences (no Richardson step), so agreement
between package output and these fixtures checks two genuinely
different code paths.

Run from the repository root:

    python scripts/make_fixtures.py
"""

import json
import pathlib

import numpy as np
from scipy.integrate import quad

SQ2PI = np.sqrt(2.0 * np.pi)
OUT_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "fixtures"

# the package holds every integral to rel 1e-10; the oracle runs 400x
# (kernel break) and 40x (jacobian quadratures) tighter
EPSREL_BREAK = 2.5e-13
EPSREL_W = 2.5e-12


def lognorm_pdf(x):
    return np.exp(-0.5 * np.log(x) ** 2) / (x * SQ2PI)


def kernel_break_values():
    values = {}
    for n in range(7):
        def f(x, n=n):
            y = np.log(x)
            return np.sin(2.0 * np.pi * y) * np.exp((n - 1.0) * y - 0.5 * y * y - 0.5 * x * x) / (2.0 * np.pi)
        v, err = quad(f, 0.0, np.inf, epsabs=1e-16, epsrel=EPSREL_BREAK, limit=2000)
        values[str(n)] = {"value": v, "oracle_error": err}
    return values


def gaussian_weak_moment(j, mu, sigma, s):
    def f(x):
        return (x**j
                * np.exp(-0.5 * (x / s) ** 2) / (SQ2PI * s)
                * np.exp(-0.5 * ((x - mu) / sigma) ** 2) / (SQ2PI * sigma))
    v, _ = quad(f, -np.inf, np.inf, epsabs=1e-15, epsrel=EPSREL_W, limit=800)
    return v


def singular_limit_values():
    orders = (0, 1, 2)
    theta = (0.0, 1.0)
    h = 1e-6
    rows = []
    for s in (1.0, 2.0, 5.0, 10.0, 30.0, 100.0):
        jac = np.zeros((len(orders), 2))
        for row, j in enumerate(orders):
            jac[row, 0] = (gaussian_weak_moment(j, theta[0] + h, theta[1], s)
                           - gaussian_weak_moment(j, theta[0] - h, theta[1], s)) / (2.0 * h)
            jac[row, 1] = (gaussian_weak_moment(j, theta[0], theta[1] + h, s)
                           - gaussian_weak_moment(j, theta[0], theta[1] - h, s)) / (2.0 * h)
        gram = jac.T @ jac
        sv = np.linalg.svd(jac, compute_uv=False)
        rows.append({
            "s": s,
            "det_g": float(np.linalg.det(gram)),
            "condition_number": float((sv[0] / sv[-1]) ** 2),
        })
    return rows


def main():
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    break_fixture = {
        "provenance": "scipy.integrate.quad (QUADPACK), epsrel=2.5e-13, epsabs=1e-16, "
                      "integrand written in exponent space; generated by scripts/make_fixtures.py",
        "description": "pairings J_n = int x^n phi_1(x) sin(2 pi log x) dLogNormal(0,1), "
                       "normalised Gaussian kernel s=1, c=0, n = 0..6",
        "kernel": {"s": 1.0, "c": 0.0},
        "values": kernel_break_values(),
    }
    (OUT_DIR / "stieltjes_kernel_break.json").write_text(
        json.dumps(break_fixture, indent=2) + "\n")

    singular_fixture = {
        "provenance": "scipy.integrate.quad (QUADPACK) weak moments, epsrel=2.5e-12; "
                      "plain central differences h=1e-6 (no Richardson); "
                      "generated by scripts/make_fixtures.py",
        "description": "metric tensor of the Gaussian family at theta=(0,1), orders (0,1,2), "
                       "normalised Gaussian kernel with centre 0, over the scale grid",
        "theta": [0.0, 1.0],
        "orders": [0, 1, 2],
        "rows": singular_limit_values(),
    }
    (OUT_DIR / "singular_limit.json").write_text(
        json.dumps(singular_fixture, indent=2) + "\n")

    print(f"wrote fixtures to {OUT_DIR}")


if __name__ == "__main__":
    main()
