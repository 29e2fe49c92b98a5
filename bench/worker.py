"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` starts this script and times it from process start to the
``ready`` line, which it prints once nonce_lab (scipy included) is
imported and the curve registry is built: that span is the set-up time
every CLI invocation pays.  With ``--probe`` it exits there.

Otherwise it runs a closed loop with one caller: the next op starts when
the previous one returns, until the next op would end after ``--seconds``.
Op ``i`` gets its own root seed derived from ``--seed``.  The untraced run
records each op's latency and outcome.  The traced run executes every op
twice, untraced then traced (the pair gives the tracing overhead), and
finally re-runs op 0 traced to check that its deterministic counters
repeat exactly.  The last stdout line is the run's JSON record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import nonce_lab.cli  # noqa: E402,F401  (the whole package, as the CLI loads it)
from nonce_lab import ff_curve  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def op_seed(seed: int, workload: str, index: int) -> int:
    digest = hashlib.sha256(f"{seed}:{workload}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def run_op(op, seed: int, workdir: Path, smoke: bool, tracer=None, op_id=""):
    """Run one op; any exception marks it failed, a failed check also wrong."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    outcome = None
    wrong = False
    start = time.perf_counter()
    try:
        if tracer is None:
            outcome = op(seed, workdir, smoke)
        else:
            with tracer.op(op_id):
                outcome = op(seed, workdir, smoke)
    except Exception as exc:
        wrong = isinstance(exc, workloads.CheckFailed)
        print(f"op seed {seed} failed:\n{traceback.format_exc()}", file=sys.stderr)
    seconds = time.perf_counter() - start
    return {
        "seconds": seconds,
        "failed": outcome is None,
        "wrong": wrong,
        "success": None if outcome is None else outcome.success,
        "counters": {} if outcome is None else outcome.counters,
    }


def traced_op(tracer, op, seed, workdir, smoke, op_id):
    first = len(tracer.spans)
    record = run_op(op, seed, workdir, smoke, tracer, op_id)
    op_spans = tracer.spans[first:]
    counters = {**tracer.counters, **record["counters"]}
    record["layers"] = spans.op_layer_metrics(op_spans, counters, tracer.emitting_seconds)
    record["deterministic"] = {k: record["layers"][k] for k in spans.DETERMINISTIC}
    return record


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    op = workloads.WORKLOADS[workload]
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / "work" / workload
    tracer = spans.Tracer() if trace else None
    untraced, traced, errors = [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        s = op_seed(seed, workload, index)
        untraced.append(run_op(op, s, workdir, smoke))
        if tracer is not None:
            with tracer.installed():
                record = traced_op(tracer, op, s, workdir, smoke, str(index))
            traced.append(record)
            for key, value in untraced[-1]["counters"].items():
                if record["counters"].get(key) != value:
                    errors.append(f"op {index}: {key} untraced {value} != traced {record['counters'].get(key)}")
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / index > seconds:
            break
    loop_seconds = time.perf_counter() - start
    result = {
        "ops": [{k: r[k] for k in ("seconds", "failed", "wrong", "success")} for r in untraced],
        "loop_seconds": loop_seconds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "errors": errors,
    }
    if tracer is not None:
        with tracer.installed():
            rerun = traced_op(tracer, op, op_seed(seed, workload, 0), workdir, smoke, "0-rerun")
        if rerun["deterministic"] != traced[0]["deterministic"]:
            errors.append(
                "op 0 counters differ between two traced runs at one seed: "
                f"{traced[0]['deterministic']} != {rerun['deterministic']}"
            )
        result["traced_ops"] = [{k: r[k] for k in ("seconds", "failed", "wrong", "success")} for r in traced + [rerun]]
        result["layers"] = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        result["layers"]["trace.overhead_frac"] = (
            statistics.median(r["seconds"] for r in traced)
            / statistics.median(r["seconds"] for r in untraced)
            - 1.0
        )
        result["counters_per_op"] = [r["deterministic"] for r in traced]
        result["breakdown"] = {
            name: {k: t[k] / len(traced) for k in ("busy_s", "self_s")}
            for name, t in spans.span_totals(
                [s for s in tracer.spans if s.op != "0-rerun"]
            ).items()
        }
        out_dir.mkdir(parents=True, exist_ok=True)
        spans.write_spans(tracer.spans, out_dir / f"spans-{workload}-seed{seed}.jsonl")
    shutil.rmtree(workdir, ignore_errors=True)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    ff_curve.builtin_curves()
    print("ready", flush=True)
    if args.probe:
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
