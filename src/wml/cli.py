"""Command-line frontend.

    wml list
    wml run <experiment> [--format json|csv] [--out FILE] [--tol K=V ...]
    wml eval --model gaussian:mu=0,sigma=1 --kernel 1[,c] --orders 0,1,2
    wml sweep --model cauchy:mu=0 --orders 0 --s log1:100:12 [--c -1:1:3] [--grid mu=-2:2:5]

Model grammar is ``name:key=value,key=value``; grids are ``lo:hi:n``
(linear) or ``loglo:hi:n`` (geometric), and may start with '-'.  Exit
codes: 0 success / pass, 1 experiment failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import re
import sys

import numpy as np

from .experiments import (
    EmptyGrid,
    UnknownExperiment,
    list_experiments,
    run_experiment,
    sweep_kernel,
)
from .features import FeatureMapSpec
from .geometry import DimensionMismatch, StepUnderflow, jacobian, metric_tensor, \
    numerical_rank, transversality_check
from .models import (
    Cauchy,
    Gaussian,
    KernelSpec,
    LogNormal,
    NoDensity,
    StieltjesLogNormal,
    SymmetricStable,
    Unsupported,
    canonical_family,
    scale_center_kernel_family,
    scale_kernel_family,
)
from .quad import QuadratureError
from .serialize import (
    dumps_csv,
    dumps_json,
    eval_doc,
    experiment_csv,
    experiment_doc,
    flatten_doc,
    sweep_doc,
)


class ConfigError(Exception):
    """Bad flag value; maps to exit code 2."""


_MAX_GRID_POINTS = 10**5  # the most (lambda, theta) points of a sweep: --s x --c x every --grid axis


_MODEL_GRAMMAR = {
    "gaussian": (Gaussian, {"mu": 0.0, "sigma": 1.0}),
    "cauchy": (Cauchy, {"mu": 0.0}),
    "lognormal": (LogNormal, {"mu": 0.0, "sigma": 1.0}),
    "stieltjes": (StieltjesLogNormal, {"a": 0.0}),
    "stable": (SymmetricStable, {"alpha": 2.0, "mu": 0.0, "sigma": 1.0}),
}


def parse_model(text: str):
    head, _, rest = text.partition(":")
    head = head.strip().lower()
    if head not in _MODEL_GRAMMAR:
        raise ConfigError(f"--model: unknown model {head!r} "
                          f"(expected one of {', '.join(_MODEL_GRAMMAR)})")
    ctor, defaults = _MODEL_GRAMMAR[head]
    kwargs = dict(defaults)
    if rest.strip():
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            key = key.strip()
            if not eq or key not in defaults:
                raise ConfigError(f"--model: bad parameter {item!r} for {head}")
            try:
                kwargs[key] = float(val)
            except ValueError as exc:
                raise ConfigError(f"--model: non-numeric value in {item!r}") from exc
    try:
        return ctor(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"--model: {exc}") from exc


def parse_grid(text: str) -> np.ndarray:
    return _grid_axis(text)[1]()


def _grid_axis(text: str):
    """The grid ``text``, checked, as its number of points and a function
    that builds it, so that its size is known before it is built."""
    spec = text.strip()
    geometric = spec.startswith("log")
    if geometric:
        spec = spec[3:]
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid {text!r} must look like lo:hi:n or loglo:hi:n")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"grid {text!r}: non-numeric field") from exc
    if n < 1:
        raise ConfigError(f"grid {text!r}: need at least one point")
    if geometric:
        if lo <= 0 or hi <= 0:
            raise ConfigError(f"grid {text!r}: geometric spacing needs positive endpoints")
    return n, functools.partial(np.geomspace if geometric else np.linspace, lo, hi, n)


def parse_kernel(text: str) -> KernelSpec:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not 1 <= len(parts) <= 2:
        raise ConfigError("--kernel must be 's' or 's,c'")
    try:
        s = float(parts[0])
        c = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError as exc:
        raise ConfigError(f"--kernel: non-numeric value in {text!r}") from exc
    try:
        return KernelSpec(s=s, c=c)
    except ValueError as exc:
        raise ConfigError(f"--kernel: {exc}") from exc


def parse_orders(text: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"--orders: expected integers, got {text!r}") from exc


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one
    (parse_args leaves it unchanged, and copies list defaults)."""
    parser = argparse.ArgumentParser(prog="wml",
                                     description="weak-moment feature maps and "
                                                 "transversality diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print the experiment catalog")

    p_run = sub.add_parser("run", help="run one named experiment")
    p_run.add_argument("experiment")
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--tol", action="append", default=[],
                       metavar="METRIC=VALUE", help="override one tolerance")

    p_eval = sub.add_parser("eval", help="feature map and diagnostics at one point")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--kernel", default="1")
    p_eval.add_argument("--orders", default="0,1")
    p_eval.add_argument("--path", choices=("auto", "density", "charfn"), default="auto")
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")
    p_eval.add_argument("--out", default=None)

    p_sweep = sub.add_parser("sweep", help="diagnostics over a kernel/parameter grid")
    p_sweep.add_argument("--model", required=True)
    p_sweep.add_argument("--orders", default="0,1")
    p_sweep.add_argument("--s", required=True, metavar="GRID",
                         help="kernel-scale grid lo:hi:n (log prefix for geometric)")
    p_sweep.add_argument("--c", default=None, metavar="GRID", help="kernel-centre grid")
    p_sweep.add_argument("--grid", action="append", default=[],
                         metavar="PARAM=GRID", help="model-parameter grid")
    p_sweep.add_argument("--path", choices=("auto", "density", "charfn"), default="auto")
    p_sweep.add_argument("--format", choices=("json", "csv"), default="json")
    p_sweep.add_argument("--out", default=None)
    return parser


def _cmd_run(args) -> int:
    tolerances = {}
    for item in args.tol:
        key, eq, val = item.partition("=")
        if not eq:
            raise ConfigError(f"--tol expects METRIC=VALUE, got {item!r}")
        try:
            tolerances[key.strip()] = float(val)
        except ValueError as exc:
            raise ConfigError(f"--tol: non-numeric value in {item!r}") from exc
    res = run_experiment(args.experiment, tolerances)
    text = experiment_csv(res) if args.format == "csv" else dumps_json(experiment_doc(res))
    _emit(text, args.out)
    if not res.passed:
        sys.stderr.write(f"wml: experiment {res.name} failed: {res.diagnostic}\n")
        return 1
    return 0


def _cmd_eval(args) -> int:
    model = parse_model(args.model)
    kernel = parse_kernel(args.kernel)
    spec = FeatureMapSpec(orders=parse_orders(args.orders), path=args.path)
    fam, theta = canonical_family(model)
    kfam, lam = (scale_center_kernel_family(), [kernel.s, kernel.c]) if "," in args.kernel \
        else (scale_kernel_family(), [kernel.s])

    rep = jacobian(fam, kfam, theta, lam, spec)
    tensor = metric_tensor(rep)
    rank = numerical_rank(rep.joint, rep.error_estimates)
    trans = transversality_check(rep, (), rep.features)
    doc = eval_doc(args.model, kernel, spec, rep.features, tensor, rank, trans)
    if args.format == "csv":
        rows = [{"key": key, "value": val} for key, val in flatten_doc(doc)]
        text = dumps_csv(rows, ["key", "value"])
    else:
        text = dumps_json(doc)
    _emit(text, args.out)
    return 0


def _cmd_sweep(args) -> int:
    model = parse_model(args.model)
    spec = FeatureMapSpec(orders=parse_orders(args.orders), path=args.path)
    fam, theta0 = canonical_family(model)

    kfam = scale_kernel_family() if args.c is None else scale_center_kernel_family()
    lam_axes = [_grid_axis(args.s)] + ([] if args.c is None else [_grid_axis(args.c)])
    theta_axes = {}
    for item in args.grid:
        key, eq, val = item.partition("=")
        key = key.strip()
        if not eq or key not in fam.param_names:
            raise ConfigError(f"--grid: unknown parameter in {item!r} "
                              f"(family has {', '.join(fam.param_names)})")
        theta_axes[key] = _grid_axis(val)
    count = math.prod(n for n, _ in lam_axes + list(theta_axes.values()))
    if count > _MAX_GRID_POINTS:
        raise ConfigError(f"sweep grid of {count} points (--s x --c x --grid); at most {_MAX_GRID_POINTS}")
    lam_grid = list(itertools.product(*(build() for _, build in lam_axes)))
    theta_grid = list(itertools.product(*(theta_axes[name][1]() if name in theta_axes else [theta0[i]]
                                          for i, name in enumerate(fam.param_names))))

    rows = sweep_kernel(fam, kfam, spec, lam_grid, theta_grid)
    text = dumps_csv(rows) if args.format == "csv" else dumps_json(sweep_doc(rows))
    _emit(text, args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads '-1:1:2' as a flag, so a negative value is joined to its flag: '--c=-1:1:2'
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in ("--s", "--c", "--kernel") and re.match(r"-[\d.]", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "list":
            for name in list_experiments():
                print(name)
            return 0
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return 2
    except (ConfigError, UnknownExperiment, EmptyGrid, ValueError, Unsupported,
            NoDensity, StepUnderflow, DimensionMismatch, QuadratureError) as exc:
        sys.stderr.write(f"wml: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
