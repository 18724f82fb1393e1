"""wml benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {catalog,eval,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; wml is imported from ./src.  The
harness makes the seeded inputs and their reference values, measures
set-up time in fresh processes, then hands the inputs to one measured
process (perfbench/worker.py), which runs them as a closed loop.  Every
output that comes back is checked here.  The last line of stdout is one
JSON object: correct, attempted, failed and the metrics named in
BENCHMARK.json (end-to-end with --trace 0, per-layer with --trace 1).
Metric definitions are in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import EXPERIMENTS, WARMUP, WORKLOADS, check, make_inputs, references

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKER = ROOT / "perfbench" / "worker.py"

SETUP_PROCESSES = 9      # set-up-only processes; the measured one adds a tenth sample
SETUP_TIMEOUT_S = 20     # a set-up takes well under a second
RUN_GRACE_S = 100        # beyond --seconds before the measured process is killed
REF_NOMINAL_S = 0.002    # set-up time is scaled to a host where one reference job takes this

# Per-layer counts that must repeat exactly from one traced pass to the next.
EXACT_COUNTS = ("quad.integrals", "quad.panels", "quad.nonconverged",
                "geometry.feature_maps_per_jacobian", "models.charfn_calls",
                "models.density_calls", "models.kernel_calls",
                "features.feature_map_calls", "features.weak_moment_calls",
                "geometry.jacobian_calls")


class BenchError(Exception):
    """The run cannot produce a result."""


def worker_cmd(workload, *extra):
    return [sys.executable, str(WORKER), "--root", str(ROOT), "--workload", workload, *extra]


def worker_env():
    env = dict(os.environ)
    env.pop("WML_THREADS", None)   # the sweep runs with the default pool
    return env


def start_worker(workload, setup_only):
    """Start a worker and wait for its warm-up; returns the process, the
    set-up time (process start to end of the warm-up op) and the warm-up
    output."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(worker_cmd(workload, *(["--setup-only"] if setup_only else [])),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            env=worker_env(), cwd=ROOT)
    ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    if not line.startswith("ready "):
        stop(proc)
        raise BenchError(f"worker for {workload} did not start (exit {proc.returncode})")
    return proc, setup, json.loads(line[len("ready "):])


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    for fh in (proc.stdin, proc.stdout):
        if fh:
            fh.close()


def measure_setup(workload):
    samples, warmups = [], []
    for _ in range(SETUP_PROCESSES):
        proc, setup, warm = start_worker(workload, setup_only=True)
        try:
            proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            stop(proc)
        if proc.returncode != 0:
            raise BenchError(f"set-up process exited with {proc.returncode}")
        samples.append(setup)
        warmups.append(warm)
    return samples, warmups


def run_worker(workload, job, seconds):
    proc, setup, warm = start_worker(workload, setup_only=False)
    try:
        out, _ = proc.communicate(json.dumps(job), timeout=seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        raise BenchError("measured process timed out") from None
    finally:
        stop(proc)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"measured process exited with {proc.returncode}")
    return setup, warm, json.loads(out.strip().splitlines()[-1])


def op_units(p) -> list:
    """Each op's latency in reference-job units: its time divided by the
    mean of the pass's reference jobs.  The pass mean, not the jobs next to
    the op, because a long op (1.4 s in catalog) spans several switches of
    host speed that two neighbouring samples miss."""
    unit = statistics.fmean(p["ref_s"])
    return [ms / 1e3 / unit for ms in p["lat_ms"]]


def latency_summary(per_pass):
    """(p50, tail, note) of per-input latencies, given one list of op
    latencies per pass.

    Each input's latency is its mean over passes, so an input repeated in
    every pass counts once; a mean, not a median, because the host
    switches between a fast and a slow state and a median over a few
    samples jumps between the two.  p50 is the median of those.  The tail
    is the highest percentile with at least ten inputs beyond it, i.e.
    the 11th largest; with 20 inputs or fewer (catalog, sweep) that would
    sit at or below the median, so the slowest input is used instead."""
    n = len(per_pass[0])
    per_input = sorted(statistics.fmean(lat[i] for lat in per_pass) for i in range(n))
    if n > 20:
        tail, note = per_input[n - 11], f"p{100.0 * (n - 10) / n:.2f} of {n} per-input means"
    else:
        tail, note = per_input[-1], f"max of {n} per-input means"
    return statistics.median(per_input), tail, f"{note} over {len(per_pass)} passes"


def end_to_end(report, setup_samples):
    """The gated metrics, and the same figures in raw time for the record.

    Raw times follow the host.  On a shared 2-vCPU VM, whose speed changed
    by up to 1.8x within a second and whose share of slow time drifted
    between runs, they spread by 10-26% across runs; in reference-job
    units the spread fell to 1-13%."""
    passes = report["passes"]
    units = [op_units(p) for p in passes]
    p50_ref, tail_ref, tail_note = latency_summary(units)
    p50_ms, tail_ms, _ = latency_summary([p["lat_ms"] for p in passes])
    # Set-up is a second or less of process start and imports and cannot
    # be timed in reference units op by op; the run's mean reference-job
    # time scales it instead, which cut the drift of its median between
    # batches of runs on a shared VM from up to 37% to up to 24%.
    setup_raw = statistics.median(setup_samples)
    ref_mean = statistics.fmean(x for p in passes for x in p["ref_s"])
    gated = {
        "setup_s": setup_raw * REF_NOMINAL_S / ref_mean,
        "ops_per_ref": sum(map(len, units)) / sum(map(sum, units)),
        "op_p50_ref": p50_ref,
        "op_tail_ref": tail_ref,
        "peak_rss_mb": report["rss_kb"] / 1024.0,
    }
    raw = {
        "setup_s": (setup_raw, "s"),
        "ops_per_s": (statistics.median(len(p["lat_ms"]) * 1e3 / sum(p["lat_ms"]) for p in passes), "op/s"),
        "op_p50_ms": (p50_ms, "ms"),
        "op_tail_ms": (tail_ms, "ms"),
    }
    return gated, raw, tail_note


def per_layer(report):
    traced = [p for p in report["passes"] if p["traced"]]
    plain = [p for p in report["passes"] if not p["traced"]]
    layers = report["layers"]
    mismatched = [k for k in EXACT_COUNTS if len({round(d[k], 9) for d in layers}) != 1]
    metrics = {k: statistics.median(d.get(k, 0.0) for d in layers)
               for k in sorted({k for d in layers for k in d})}
    for name in EXPERIMENTS:
        metrics.setdefault(f"experiments.run_ms.{name}", 0.0)
    # pass time in reference-job units, so a change of host speed between
    # the untraced and traced phases does not read as overhead
    cost = lambda p: sum(op_units(p))
    untraced = statistics.median(cost(p) for p in plain)
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(cost(p) for p in traced) / untraced - 1.0)
    return metrics, mismatched


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not (ROOT / "src" / "wml" / "__init__.py").is_file():
        raise BenchError(f"no wml sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)

    inputs = make_inputs(args.workload, args.seed)
    refs = references(args.workload, inputs)
    setup_samples, warmups = measure_setup(args.workload)
    job = {"inputs": inputs, "seconds": args.seconds, "trace": args.trace,
           "spans_path": str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")}
    setup, warm, report = run_worker(args.workload, job, args.seconds)
    setup_samples.append(setup)
    warmups.append(warm)

    problems, attempted, failed = check_outputs(args.workload, inputs, refs, warmups, report)
    if args.trace:
        metrics, mismatched = per_layer(report)
        if mismatched:
            problems.append(f"counts differ between traced passes: {', '.join(mismatched)}")
        note = {"traced_passes": sum(p["traced"] for p in report["passes"]),
                "spans": report["spans"], "spans_file": job["spans_path"],
                "traced_process_peak_rss_mb": report["rss_kb"] / 1024.0}
        raw = {}
    else:
        metrics, raw, tail_note = end_to_end(report, setup_samples)
        note = {"op_tail": tail_note, "passes": len(report["passes"]),
                "setup_samples_s": setup_samples}

    names = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(names):
        raise BenchError(f"metric set differs from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(names))}")
    if not all(math.isfinite(v) for v in metrics.values()):
        raise BenchError(f"non-finite metric in {metrics}")
    fail_ratio = failed / attempted
    context = report["context"]

    for key, val in context.items():
        print(f"context {key} = {val}")
    for key, val in note.items():
        print(f"note {key} = {val}")
    print(f"fail_ratio = {fail_ratio:.6g} ({failed} of {attempted} ops)")
    for name, (val, unit) in raw.items():
        print(f"raw {name} = {val:.6g} {unit} (not gated)")
    for line in problems:
        print(f"FAIL {line}")
    for name, unit in names.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, fail_ratio=fail_ratio,
                  raw={k: v[0] for k, v in raw.items()}, context=context, note=note,
                  problems=problems,
                  passes=[{k: p[k] for k in ("lat_ms", "ref_s", "traced")} for p in report["passes"]])
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def check_outputs(workload, inputs, refs, warmups, report):
    """Check the warm-up outputs and every op's output; returns the first
    few problems, ops attempted and ops failed."""
    warm_ref = references(workload, [WARMUP[workload]])[0]
    warm_fails = [why for w in warmups if (why := check(workload, WARMUP[workload], w, warm_ref))]
    problems = [f"warm-up op, {len(warm_fails)} of {len(warmups)} processes: {warm_fails[0]}"] if warm_fails else []
    attempted = failed = 0
    for p in report["passes"]:
        for i, out in enumerate(p["out"]):
            attempted += 1
            why = check(workload, inputs[i], out, refs[i])
            if why:
                failed += 1
                if len(problems) < 10:
                    problems.append(f"op {i} ({json.dumps(inputs[i])}): {why}")
    return problems, attempted, failed


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
