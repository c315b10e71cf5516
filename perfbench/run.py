"""Benchmark of the se3sym engine: four workloads, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from any directory; it measures the checkout it lives in (the code in
``src/``).  See perfbench/README.md for the workloads and metrics.  Every
line but the last is a JSON record of how the run went (metadata, sample
counts, failures, the probe's failures); the last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 150.0
TAIL_PERCENTILE = 90


@dataclass
class Child:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_child(cmd) -> Child:
    """Run cmd in the checkout to completion; wall, CPU and peak RSS are its own."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read(), err.read(), wall,
                     usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def worker_cmd(mode: str, workload: str, seed: int, *extra: str):
    return [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload, "--seed", str(seed), *extra]


class RunError(RuntimeError):
    """The run itself broke (a worker crashed or printed no summary)."""


def worker_summary(child: Child) -> dict:
    if child.returncode != 0:
        raise RunError(f"worker exited {child.returncode}: {child.stderr.decode(errors='replace')[-800:]}")
    return json.loads(child.stdout.splitlines()[-1])


def measure_setup(workload: str, seed: int, repeats: int) -> list:
    """Wall times of fresh interpreters that import se3sym (and run one
    warm-up op on the in-process workloads)."""
    if workload in workloads.IN_PROCESS:
        cmd = worker_cmd("setup", workload, seed)
    else:
        cmd = [sys.executable, "-c", "import se3sym"]
    times = []
    for _ in range(repeats):
        child = run_child(cmd)
        if child.returncode != 0:
            raise RunError(f"set-up process exited {child.returncode}: {child.stderr.decode(errors='replace')[-800:]}")
        times.append(child.wall_s)
    return times


def claims_loop(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """check-claims processes back to back, all with the run's seed."""
    samples = workloads.CLAIMS_SAMPLES[workload]
    schema = json.loads((ROOT / "schemas" / "claims_report.json").read_text())
    op_ms, cpu_ms, rss, failures, span_files = [], [], [], {}, []
    began = time.perf_counter()
    while time.perf_counter() - began < seconds:
        if traced:
            path = OUT / f"spans-{workload}-{seed}-op{len(op_ms)}.json"
            child = run_child(worker_cmd("claims-trace", workload, seed, "--spans", str(path)))
            summary = worker_summary(child)
            reason = next(iter(summary["failures"]), None)
            span_files.append(path)
        else:
            child = run_child([sys.executable, "-m", "se3sym", "check-claims",
                               "--samples", str(samples), "--seed", str(seed)])
            reason = workloads.check_claims_report(child.returncode, child.stdout, samples, seed, schema)
        op_ms.append(child.wall_s * 1e3)
        cpu_ms.append(child.cpu_s * 1e3)
        rss.append(child.peak_rss_mb)
        if reason is not None:
            failures[reason] = failures.get(reason, 0) + 1
    return {"op_ms": op_ms, "cpu_ms": cpu_ms, "attempted": len(op_ms), "failed": sum(failures.values()),
            "failures": failures, "peak_rss_mb": max(rss), "span_files": span_files}


def measure(workload: str, seed: int, seconds: float, traced: bool = False) -> dict:
    if workload in workloads.CLAIMS_SAMPLES:
        return claims_loop(workload, seed, seconds, traced)
    if not traced:
        return worker_summary(run_child(worker_cmd("run", workload, seed, "--seconds", str(seconds))))
    path = OUT / f"spans-{workload}-{seed}-ops.json"
    summary = worker_summary(run_child(worker_cmd("trace", workload, seed, "--seconds", str(seconds),
                                                  "--spans", str(path))))
    summary["span_files"] = [path]
    return summary


def tail(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[TAIL_PERCENTILE - 1]


def end_to_end(result: dict, setup_s: float) -> dict:
    op_ms = result["op_ms"]
    return {
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_tail_ms": (tail(op_ms), "ms"),
        "ops_per_s": (len(op_ms) / (sum(op_ms) / 1e3), "1/s"),
        "op_cpu_ms": (statistics.median(result["cpu_ms"]), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(workload: str, seed: int, seconds: float) -> tuple:
    """Untraced and traced halves of the run, then the kernel pass."""
    plain = measure(workload, seed, seconds / 2)
    traced = measure(workload, seed, seconds / 2, traced=True)
    kernel_path = OUT / f"spans-{workload}-{seed}-kernel.json"
    worker_summary(run_child(worker_cmd("kernel", workload, seed, "--spans", str(kernel_path))))
    payloads = [json.loads(p.read_text()) for p in traced["span_files"] + [kernel_path]]
    values = spans.per_layer_metrics(spans.SpanSet(payloads), workload in workloads.CASE_PATTERN_OPS)
    values["trace.overhead_ratio"] = statistics.median(traced["op_ms"]) / statistics.median(plain["op_ms"])
    return {name: (value, spans.unit_of(name)) for name, value in values.items()}, plain, traced


def is_correct(phases: dict) -> bool:
    """Every phase checked at least one op, and no op failed."""
    return all(p["attempted"] >= 1 and p["failed"] == 0 for p in phases.values())


def metadata(args) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                             platform.processor() or "unknown")
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": sha, "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds at least 1")
    missing = [p for p in ("src/se3sym/__init__.py", "schemas/claims_report.json") if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"error: {ROOT} is not an se3sym checkout (missing {', '.join(missing)})\n")
        return 2
    OUT.mkdir(exist_ok=True)

    meta = metadata(args)
    try:
        if args.trace:
            metrics, plain, traced = per_layer(args.workload, args.seed, args.seconds)
            phases = {"untraced": plain, "traced": traced}
        else:
            # set-up is timed before and after the ops, so that its median
            # spans the run rather than one moment of it
            setup = measure_setup(args.workload, args.seed, SETUP_REPEATS // 2 + 1)
            result = measure(args.workload, args.seed, args.seconds)
            setup += measure_setup(args.workload, args.seed, SETUP_REPEATS // 2)
            metrics = end_to_end(result, statistics.median(setup))
            phases = {"untraced": result}
        # after everything timed: the known failures, kept out of the ops
        probe = worker_summary(run_child(worker_cmd("probe", args.workload, args.seed)))
    except (RunError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    attempted = sum(p["attempted"] for p in phases.values())
    failed = sum(p["failed"] for p in phases.values())
    summary = {}
    for name, p in phases.items():
        cut = tail(p["op_ms"])
        summary[name] = {"ops": p["attempted"], "failed": p["failed"], "fail_ratio": p["failed"] / p["attempted"],
                         "failures": p["failures"], "op_tail_ms": cut,
                         "ops_beyond_tail": sum(t > cut for t in p["op_ms"])}
    print(json.dumps({"meta": meta, "summary": summary, "tail_percentile": TAIL_PERCENTILE,
                      "fail_ratio": {"value": failed / attempted, "unit": "ratio"}, "probe": probe}))
    print(json.dumps({
        "correct": is_correct(phases),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
