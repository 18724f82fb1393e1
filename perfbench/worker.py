"""The measured process: imports wml from the checkout, runs one workload
as a closed loop (one caller that waits for each result) and reports.

    python3 perfbench/worker.py --root DIR --workload NAME [--setup-only]

Protocol on stdout: after the warm-up op it prints one line
``ready <warm-up output as JSON>``, which the harness timestamps for
set-up time.  With ``--setup-only`` it then exits.  Otherwise it reads
the job (inputs, seconds, trace flag, spans file) as JSON from
stdin, runs passes over the inputs and prints the report as one JSON
line.  Anything wml prints goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from workloads import EVAL_ORDERS, SWEEP_ORDERS, WARMUP

REF_ITERS = 200   # one reference job: about 1.5-3 ms on a 2-core Xeon VM


def reference_job() -> float:
    """A fixed loop of pure Python plus numpy on 15-element arrays, shaped
    like one quadrature panel; it contains no wml code.  Timing it next to
    the ops gives the machine's current speed."""
    x = np.linspace(-1.0, 1.0, 15)
    w = np.linspace(0.5, 1.5, 15)
    acc = 0.0
    for i in range(REF_ITERS):
        y = np.exp(-0.5 * (x * (1.0 + 1e-4 * i)) ** 2) * (1.0 + x * x)
        acc += float(np.dot(w, y)) - float(np.abs(y).max())
    return acc


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_job()
    return time.perf_counter() - t0


def import_wml(root: Path):
    sys.path.insert(0, str(root / "src"))
    import wml
    import wml.cli

    where = Path(wml.__file__).resolve()
    if (root / "src" / "wml").resolve() not in where.parents:
        raise ImportError(f"imported wml from {where}, not from {root / 'src'}")
    return wml


class Ops:
    """Builds each workload's op from its inputs.  Ops call module
    attributes at call time, so an installed tracer sees them."""

    def __init__(self, wml, workload: str, tmp: Path):
        self.wml = wml
        self.workload = workload
        self.tmp = tmp

    def family(self, spec):
        m = self.wml.models
        if spec["family"] == "stable":
            return m.stable_family(spec["alpha"])
        return getattr(m, f"{spec['family']}_family")()

    def build(self, inp):
        """A zero-argument callable running the op, and a function turning
        its return value into a JSON-able output."""
        w = self.wml
        if self.workload == "eval":
            fam = self.family(inp)
            theta = np.array(inp["theta"])
            kernel = w.models.KernelSpec(inp["s"], inp["c"])
            spec = w.features.FeatureMapSpec(orders=EVAL_ORDERS)
            run = lambda: w.features.feature_map(fam, theta, kernel, spec)
            return run, lambda fv: {"values": [float(v) for v in fv.values], "paths": list(fv.paths)}
        if self.workload == "sweep":
            fam = self.family(inp)
            kfam = w.models.scale_kernel_family()
            spec = w.features.FeatureMapSpec(orders=SWEEP_ORDERS)
            lams = [(s,) for s in inp["scales"]]
            thetas = [tuple(inp["theta"])]
            run = lambda: w.experiments.sweep_kernel(fam, kfam, spec, lams, thetas)
            keep = ("s", "model_rank", "det_g")
            return run, lambda rows: {"rows": [{k: r[k] for k in keep} for r in rows]}
        out = self.tmp / f"{inp}.json"
        run = lambda: w.cli.main(["run", inp, "--out", str(out)])
        return run, lambda code: self._catalog_output(code, out)

    @staticmethod
    def _catalog_output(code, path: Path):
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
        except (OSError, ValueError) as exc:
            return {"exit": code, "pass": f"unreadable output: {exc}"}
        return {"exit": code, "pass": doc.get("pass")}


def run_op(run, convert):
    """Time one op; the output is converted after the clock stops."""
    t0 = time.perf_counter()
    try:
        value = run()
    except Exception as exc:  # a failing op is counted, not fatal
        return (time.perf_counter() - t0) * 1e3, {"error": f"{type(exc).__name__}: {exc}"}
    lat = (time.perf_counter() - t0) * 1e3
    return lat, convert(value)


def run_pass(ops, tracer=None, op_base=0) -> dict:
    """One pass over the inputs.  The reference job is timed just before
    the pass and again after every op: the host's speed switches within a
    second, so samples spread through the pass track its mean speed far
    better than samples at its ends."""
    ref = [time_reference()]
    lat, out = [], []
    for i, (run, convert) in enumerate(ops):
        if tracer is not None:
            ms, o = tracer.run_op(op_base + i, lambda: run_op(run, convert))
        else:
            ms, o = run_op(run, convert)
        lat.append(ms)
        out.append(o)
        ref.append(time_reference())
    return {"ref_s": ref, "lat_ms": lat, "out": out, "traced": tracer is not None}


def run_passes(ops, seconds, min_passes, tracer=None) -> list:
    """Whole passes until the next one would overrun ``seconds``.  Under a
    tracer, op ids run on across passes, so a span's pass is op // len(ops)."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(ops, tracer, len(passes) * len(ops)))
        elapsed = time.perf_counter() - t0
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    protocol = sys.stdout
    sys.stdout = sys.stderr
    wml = import_wml(args.root)
    tmp = Path(tempfile.mkdtemp(prefix="catalog-", dir=args.root / "perfbench" / "out"))
    try:
        ops = Ops(wml, args.workload, tmp)
        _, warm = run_op(*ops.build(WARMUP[args.workload]))
        protocol.write("ready " + json.dumps(warm) + "\n")
        protocol.flush()
        if args.setup_only:
            return 0

        job = json.loads(sys.stdin.read())
        built = [ops.build(inp) for inp in job["inputs"]]
        report = {"context": context(wml)}
        seconds = job["seconds"]
        if job["trace"]:
            from tracer import Tracer, layer_metrics

            # untraced passes first, as the baseline for the tracing overhead
            t0 = time.perf_counter()
            passes = run_passes(built, 0.4 * seconds, 1)
            tracer = Tracer()
            tracer.install(wml)
            try:
                left = seconds - (time.perf_counter() - t0)
                passes += run_passes(built, left, 2, tracer)
            finally:
                tracer.uninstall()
            report["layers"] = per_pass_layers(tracer.spans, len(built), layer_metrics)
            tracer.write(Path(job["spans_path"]))
            report["spans"] = len(tracer.spans)
        else:
            passes = run_passes(built, seconds, 3)
        report["passes"] = passes
        report["rss_kb"] = peak_rss_kb()
        protocol.write(json.dumps(report) + "\n")
        protocol.flush()
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def peak_rss_kb() -> int:
    """This process's peak resident set.  ru_maxrss is not used: Linux
    carries the parent's high-water mark across fork and exec."""
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def per_pass_layers(spans, n_ops, layer_metrics) -> list:
    by_pass = {}
    for span in spans:
        by_pass.setdefault(span[2] // n_ops, []).append(span)
    return [layer_metrics(by_pass[k], n_ops) for k in sorted(by_pass)]


def context(wml) -> dict:
    """Machine and program facts recorded with every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = Path(wml.__file__).parent
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.glob("*.py"))
    pool = getattr(wml.experiments, "_worker_count", lambda: 1)()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "sweep_pool_size": pool,
        "src_wml_lines": lines,
    }


if __name__ == "__main__":
    sys.exit(main())
