"""nonce_lab benchmark: run one workload (or all) and print its metrics.

    python3 bench/run.py --workload attack_p521 --seed 1 --seconds 20 --trace 0

Every op runs in a worker process (``bench/worker.py``) that imports the
package from ``src/`` of this checkout.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the span recorder and reports the
per-layer metrics.  The report lines name each metric with its unit and
sample count; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results
(environment, per-op records) go to ``.bench_out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKLOADS = ("attack_p521", "leakage_assess", "lattice_hnp", "curve_roundtrip")
# Fresh interpreters timed per untraced run besides the worker itself; the
# reported set-up time is the median over all of them.
SETUP_PROBES = 2
# A workload run, probes included, must end within this many seconds.
RUN_DEADLINE_S = 170.0

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# A run is incorrect when more than this share of its ops failed.  It is
# not 0 because ``attack`` exits 1 ("each class needs at least 2 traces")
# on about one op seed in 450, a defect of the program.
MAX_FAILED_FRAC = 0.2
# Lowest share of completed ops that must recover the private key.  The
# acceptance test asks a rate of at least 0.95 of the lattice_hnp cell; the
# default attack recovered the key in every one of 455 measured ops, and
# its bar lets one op in a run of about ten miss.
MIN_SUCCESS_FRAC = {"attack_p521": 0.8, "lattice_hnp": 0.95}


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def _spawn(cmd: list[str], timeout: float) -> tuple[float, dict | None]:
    """Run a worker; return its set-up time and its JSON record."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out = proc.stdout.read()
    finally:
        timer.cancel()
        if proc.poll() is None:  # interrupted: stop the worker too
            proc.kill()
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchError(f"worker {cmd[3:]} exited {proc.returncode}")
    lines = out.strip().splitlines()
    return setup, json.loads(lines[-1]) if lines else None


def tail(latencies: list[float]) -> tuple[str, float]:
    """Highest whole percentile with at least 10 samples beyond it.

    With 20 samples or fewer no percentile above the median qualifies, so
    the maximum is reported instead.
    """
    n = len(latencies)
    pct = math.floor(100 * (1 - 10 / n))
    if pct <= 50:
        return "max", max(latencies)
    return f"p{pct}", sorted(latencies)[math.ceil(pct / 100 * n) - 1]


def problems(workload: str, ops: list[dict], errors: list[str]) -> list[str]:
    """Why the run is incorrect; empty when it is correct."""
    out = list(errors)
    wrong = sum(o["wrong"] for o in ops)
    if wrong:
        out.append(f"{wrong} ops failed their output check")
    failed = sum(o["failed"] for o in ops)
    if failed > MAX_FAILED_FRAC * len(ops):
        out.append(f"{failed} of {len(ops)} ops failed, more than {MAX_FAILED_FRAC:.0%}")
    outcomes = [o["success"] for o in ops if o["success"] is not None]
    floor = MIN_SUCCESS_FRAC.get(workload)
    if floor is not None and sum(outcomes) < floor * len(outcomes):
        out.append(f"{sum(outcomes)} of {len(outcomes)} ops recovered the key, fewer than {floor:.0%}")
    return out


def end_to_end(setups: list[float], record: dict) -> tuple[dict, list[str]]:
    ops = record["ops"]
    done = [o for o in ops if not o["failed"]]
    latencies = [o["seconds"] for o in (done or ops)]
    label, tail_s = tail(latencies)
    rss_mb = record["peak_rss_kb"] / 1024
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(done) / record["loop_seconds"],
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "peak_rss_mb": rss_mb,
    }
    outcomes = [o["success"] for o in done if o["success"] is not None]
    n = len(latencies)
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "ops_per_s": f"{len(done)} ops in {record['loop_seconds']:.2f} s",
        "op_p50_s": f"n={n}",
        "op_tail_s": f"{label}, n={n}",
        "peak_rss_mb": "worker process",
    }
    lines = [f"  {k:<14}{v:<12.6g}{UNITS[k]:<6}{notes[k]}" for k, v in values.items()]
    lines.append(f"  {'failed_frac':<14}{(len(ops) - len(done)) / len(ops):<12.6g}{'ratio':<6}{len(ops) - len(done)}/{len(ops)} ops")
    if outcomes:
        lines.append(f"  {'success_frac':<14}{sum(outcomes) / len(outcomes):<12.6g}{'ratio':<6}{sum(outcomes)}/{len(outcomes)} keys recovered")
    return values, lines


def per_layer(record: dict) -> tuple[dict, list[str]]:
    values = record["layers"]
    n = len(record["traced_ops"]) - 1
    lines = [
        f"  {k:<48}{v:<14.6g}{UNITS[k]:<7}median of {n} traced ops"
        for k, v in values.items()
    ]
    breakdown = record["breakdown"]
    op_s = breakdown[spans.OP_SPAN]["busy_s"]
    lines.append(f"  per traced op ({op_s:.4f} s): {'busy s':>10}{'share':>8}{'self s':>10}")
    for name, t in sorted(breakdown.items(), key=lambda kv: -kv[1]["busy_s"]):
        lines.append(f"    {name:<44}{t['busy_s']:>10.4f}{t['busy_s'] / op_s:>8.1%}{t['self_s']:>10.4f}")
    return values, lines


def environment() -> dict:
    env: dict = {"git_sha": None, "git_dirty": None}
    # Stop git at the checkout root: a checkout without .git has no sha.
    git_env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
            capture_output=True, text=True, timeout=10,
        )
        if sha.returncode == 0:
            env["git_sha"] = sha.stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, env=git_env, capture_output=True, text=True, timeout=10,
            )
            env["git_dirty"] = bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    env["nproc"] = len(os.sched_getaffinity(0))
    env["python"] = platform.python_version()
    for package in ("numpy", "scipy"):
        env[package] = importlib.metadata.version(package)
    return env


def run_workload(workload: str, args) -> tuple[dict, dict, list[str]]:
    deadline = time.monotonic() + RUN_DEADLINE_S
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    setups = []
    if not (args.trace or args.smoke):
        for _ in range(SETUP_PROBES):
            setups.append(_spawn(cmd + ["--probe"], deadline - time.monotonic())[0])
    setup, record = _spawn(cmd, deadline - time.monotonic())
    setups.append(setup)
    if args.trace:
        values, lines = per_layer(record)
        ops = record["ops"] + record["traced_ops"]
    else:
        values, lines = end_to_end(setups, record)
        ops = record["ops"]
    why = problems(workload, ops, record["errors"])
    summary = {
        "correct": not why,
        "attempted": len(ops),
        "failed": sum(o["failed"] for o in ops),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
    }
    mode = "traced" if args.trace else "untraced"
    lines.insert(0, f"{workload} seed={args.seed} {mode}: closed loop, 1 caller, {len(ops)} ops")
    lines += [f"  incorrect: {w}" for w in why]
    return summary, record, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest inputs, for the harness test")
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so that _spawn's cleanup stops the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "nonce_lab" / "__init__.py").is_file():
        print(f"error: no nonce_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    env["loadavg_1m_start"] = os.getloadavg()[0]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    try:
        for name in names:
            summary, record, lines = run_workload(name, args)
            print("\n".join(lines), flush=True)
            summaries[name] = (summary, record)
    except (BenchError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: benchmark: {exc!r}", file=sys.stderr)
        return 2
    env["loadavg_1m_end"] = os.getloadavg()[0]
    print("env " + json.dumps(env))

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    for name, (summary, record) in summaries.items():
        path = out_dir / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({"env": env, "summary": summary, "record": record}, indent=1))

    if len(names) == 1:
        final = summaries[names[0]][0]
    else:
        parts = [s for s, _ in summaries.values()]
        final = {
            "correct": all(s["correct"] for s in parts),
            "attempted": sum(s["attempted"] for s in parts),
            "failed": sum(s["failed"] for s in parts),
            "metrics": {
                f"{name}.{k}": v
                for name, (s, _) in summaries.items()
                for k, v in s["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
