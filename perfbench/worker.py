"""One fresh-interpreter process of the benchmark; run.py starts it.

Modes:
  setup         import se3sym and, for an in-process workload, run one
                warm-up op; run.py times the whole process
  run           run the in-process workload's ops back to back for --seconds
                (closed loop, one client), check each answer after its op
                is timed, and print a JSON summary
  trace         as run, with every call into se3sym traced; spans go to
                --spans when the loop ends
  claims-trace  one traced check-claims op in process; spans go to --spans
  probe         put the 1e-200..1e200 pairs of workloads.probe_inputs
                through the classify-mix op and check, untimed, and print
                the failures by reason
  kernel        the traced kernel pass: one call into every layer, for the
                per-layer metrics a workload's own ops do not reach; then
                the recipe pass, for the recipe success ratio
"""

from __future__ import annotations

import time

# se3sym goes first, so that its import time includes numpy's, as a user's does
_IMPORT_START = time.perf_counter()
import se3sym.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _IMPORT_START

import argparse  # noqa: E402
import contextlib
import io
import json
import resource
import sys
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
MAX_SPANS = 300_000
KERNEL_SAMPLES = 1000


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_batch(op, batch) -> list:
    """Run op on each input of the batch; pairs each answer with None, or a
    raising input with its reason (a raising input fails; the batch goes on)."""
    answers = []
    for item in batch:
        try:
            answers.append((op(item), None))
        except Exception as exc:
            answers.append((None, f"raised {type(exc).__name__}"))
    return answers


def loop(workload: str, seed: int, seconds: float, tracer=None) -> dict:
    """Closed loop over the workload's ops; returns the summary.

    An op is workloads.OP_INPUTS[workload] consecutive inputs, timed as one;
    their answers are checked after the op, outside its time.
    """
    op, check = workloads.OPS[workload]
    op(workloads.warmup_input(workload, seed))
    items = workloads.stream(workload, seed)
    size = workloads.OP_INPUTS[workload]
    op_ms, cpu_ms, failures, failed = [], [], {}, 0
    began = time.perf_counter()
    while time.perf_counter() - began < seconds:
        if tracer is not None and tracer.span_count() > MAX_SPANS:
            break
        batch = [next(items) for _ in range(size)]
        cpu0, wall0 = time.process_time(), time.perf_counter()
        answers = tracer.root(spans.ROOT_OP, run_batch, op, batch) if tracer else run_batch(op, batch)
        wall1, cpu1 = time.perf_counter(), time.process_time()
        op_ms.append((wall1 - wall0) * 1e3)
        cpu_ms.append((cpu1 - cpu0) * 1e3)
        op_failed = False
        for item, (result, reason) in zip(batch, answers):
            if reason is None:
                reason = check(item, result)
            if reason is not None:
                key = f"{workloads.input_kind(workload, item)}: {reason.split(':')[0]}"
                failures[key] = failures.get(key, 0) + 1
                op_failed = True
        failed += op_failed
    return {
        "op_ms": op_ms,
        "cpu_ms": cpu_ms,
        "attempted": len(op_ms),
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": _peak_rss_mb(),
    }


def probe(seed: int) -> dict:
    """The untimed probe: the 1e-200..1e200 pairs through the classify-mix op
    and check, with the failures counted by reason."""
    op, check = workloads.OPS["classify-mix"]
    failures = {}
    for item in workloads.probe_inputs(seed):
        try:
            reason = check(item, op(item))
        except Exception as exc:  # a raise in the op, or in checking its odd answer
            reason = f"raised {type(exc).__name__}"
        if reason is not None:
            key = reason.split(":")[0]
            failures[key] = failures.get(key, 0) + 1
    return {"attempted": workloads.PROBE_PAIRS, "failed": sum(failures.values()), "failures": failures}


def claims_trace(tracer, samples: int, seed: int) -> dict:
    argv = ["check-claims", "--samples", str(samples), "--seed", str(seed)]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = tracer.root(spans.ROOT_OP, se3sym.cli.main, argv)
    except Exception as exc:  # as a CLI process would, the op ends in a traceback
        reason = f"raised {type(exc).__name__}"
    else:
        schema = json.loads((ROOT / "schemas" / "claims_report.json").read_text())
        reason = workloads.check_claims_report(code, out.getvalue().encode(), samples, seed, schema)
    return {"attempted": 1, "failed": int(reason is not None), "failures": {reason: 1} if reason else {}}


def kernel_pass(seed: int) -> None:
    """One claims report on a small scan, the solver at every cap and the six
    symbolic adjoint matrices."""
    from se3sym import adjoint, cli, jets

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["check-claims", "--samples", str(KERNEL_SAMPLES), "--seed", str(seed)])
    field = jets.PointVectorField.parse(workloads.warmup_input("symmetry-solve", seed).spec)
    for cap in (2, 3, 4, 5):
        jets.solve_phi_for_xi(field.xi(), "zero", cap)
    for generator in range(1, 7):
        adjoint.adjoint_closed_form(generator)


def recipe_pass(seed: int) -> None:
    """classify_1d_paper of the fixed case-pattern and Gaussian elements."""
    from se3sym import algebra, optimal

    for coords in workloads.recipe_inputs(seed):
        optimal.classify_1d_paper(algebra.AlgebraElement.numeric(coords))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=("setup", "run", "trace", "claims-trace", "probe", "kernel"))
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", type=str, default=None)
    args = parser.parse_args(argv)

    if not Path(se3sym.__file__).resolve().is_relative_to(ROOT / "src"):
        parser.error(f"se3sym was imported from {se3sym.__file__}, not from {ROOT / 'src'}")
    if args.mode == "setup":
        if args.workload in workloads.IN_PROCESS:
            op, _ = workloads.OPS[args.workload]
            op(workloads.warmup_input(args.workload, args.seed))
        return 0
    if args.mode == "run":
        print(json.dumps(loop(args.workload, args.seed, args.seconds)))
        return 0
    if args.mode == "probe":
        print(json.dumps(probe(args.seed)))
        return 0

    tracer = spans.Tracer()
    tracer.install()
    if args.mode == "trace":
        summary = loop(args.workload, args.seed, args.seconds, tracer)
    elif args.mode == "claims-trace":
        summary = claims_trace(tracer, workloads.CLAIMS_SAMPLES[args.workload], args.seed)
    else:
        tracer.root(spans.ROOT_KERNEL, kernel_pass, args.seed)
        tracer.root(spans.ROOT_RECIPES, recipe_pass, args.seed)
        summary = {}
    tracer.dump(args.spans, import_s=IMPORT_S)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
