"""Command-line front end wiring the laboratory into reproducible runs.

Every subcommand resolves one effective configuration from, in rising
precedence: built-in defaults, a ``--config`` JSON file, the
``NONCE_LAB_SEED`` environment variable (seed only), and command-line
flags.  The effective configuration is echoed into the output directory
as ``config.json`` so any run can be reproduced bit-exactly from its
artifacts alone.

All randomness descends from the single root seed through labeled hash
derivation, so outputs do not depend on ``--jobs`` or evaluation order.
``jobs`` is the number of worker processes of ``experiment``, one grid
cell per task; it defaults to ``None`` (``config.json`` echoes
``null``), every CPU this process may run on.  At one job every cell
runs in this process.  Every other command runs in this process:
``simulate``'s traces take about as long to move between processes as
to make, and ``attack`` classifies the one victim trace by clustering
its own swap windows (or with a ``--model``), with no profiling to hand
out.  Wall-clock measurements never enter CSV or trace files; timing
goes to a separate ``timing.txt``.

Only the commands that handle traces import numpy and the signal
chain, inside the command: ``keygen``, ``sign``, ``verify``, ``recover``
and ``experiment`` run on integer arithmetic and start without them.
``multiprocessing`` is imported only when a pool of workers starts.

Exit codes: 0 on success, 1 for configuration or input problems, 2 when
the analysis itself fails (alignment, recovery, failed verification).
Errors print one line to standard error: ``error: <kind>: <message>``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import json
import os
import random
import sys
from concurrent.futures import Executor, Future
from pathlib import Path
from typing import Sequence

from . import __version__
from .ecdsa import (
    keygen,
    parse_hex,
    read_private_key,
    read_signatures,
    read_text,
    recover_private_key,
    sign,
    verify,
    write_private_key,
    write_signatures,
)
from .errors import (
    AlignmentError,
    ConfigError,
    DomainError,
    RecoveryFailed,
    StatError,
)
from .events import EventRecorder
from .ff_curve import MULTIPLIERS, fast_multiply, get_curve
from .recover import (
    ExperimentConfig,
    build_hnp,
    recover_key,
    run_experiment,
    write_results_csv,
)
from .simconfig import SimConfig
from .swap_impls import SwapKind, SwapVariant

_VARIANTS = tuple(kind.value for kind in SwapKind)

# Generation units of simulate, each under its own derived seed.
_WINDOW_CHUNK = 64
_SCALAR_CHUNK = 4


def _seq_of(cast):
    def convert(value):
        if not isinstance(value, (list, tuple)):
            raise ValueError("expected a list")
        return tuple(cast(v) for v in value)

    return convert


def _interference(value):
    if not isinstance(value, (list, tuple)):
        raise ValueError("expected a list of [start, length, amplitude]")
    return tuple(tuple(float(x) for x in burst) for burst in value)


def _choice(*allowed):
    def convert(value):
        if value not in allowed:
            raise ValueError(f"expected one of {allowed}")
        return value

    return convert


def _optional(cast):
    return lambda value: None if value is None else cast(value)


_SIM_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SimConfig)}

# Config-file key registry: caster plus default.  Unknown keys are
# rejected rather than ignored so typos cannot silently change a run.
_CONFIG_KEYS = {
    "curve": (str, "secp521r1"),
    "variant": (_choice(*_VARIANTS), "plain"),
    "multiplier": (_choice(*MULTIPLIERS), "ladder"),
    "seed": (_optional(int), None),
    "out": (_optional(str), None),
    "jobs": (_optional(int), None),
    "f_cpu": (float, _SIM_DEFAULTS["f_cpu"]),
    "sample_rate": (float, _SIM_DEFAULTS["sample_rate"]),
    "samples_per_event": (int, _SIM_DEFAULTS["samples_per_event"]),
    "noise_sigma": (float, _SIM_DEFAULTS["noise_sigma"]),
    "snr_scale": (float, _SIM_DEFAULTS["snr_scale"]),
    "baseline": (float, _SIM_DEFAULTS["baseline"]),
    "activity_floor": (float, _SIM_DEFAULTS["activity_floor"]),
    "interruption_prob": (float, _SIM_DEFAULTS["interruption_prob"]),
    "interference": (_interference, ()),
    "shape": (_choice("windows", "scalars"), "windows"),
    "count": (int, 200),
    "word_count": (_optional(int), None),
    "poi_count": (int, 64),
    "template_mode": (_choice("diag", "full"), "diag"),
    "digest": (_optional(int), None),
    "leak_bits": (_optional(int), None),
    "strategy": (_choice("direct", "subset_retry"), "direct"),
    "max_tries": (int, 20),
    "trials": (int, 100),
    "grid_leak_bits": (_seq_of(int), (300,)),
    "grid_signatures": (_seq_of(int), (2,)),
    "grid_error_rates": (_seq_of(float), (0.0,)),
}

RunConfig = dataclasses.make_dataclass(
    "RunConfig",
    [
        (name, object, dataclasses.field(default=default))
        for name, (_, default) in _CONFIG_KEYS.items()
    ],
    frozen=True,
)
RunConfig.__doc__ = "Effective key=value configuration of one run."


def _load_config_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except ValueError as exc:  # malformed JSON or bytes that are not UTF-8
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    unknown = sorted(set(raw) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {unknown}")
    out = {}
    for key, value in raw.items():
        cast, _ = _CONFIG_KEYS[key]
        try:
            out[key] = cast(value)
        except (TypeError, ValueError, OverflowError) as exc:  # int(1e400), float(10**400)
            raise ConfigError(f"{path}: bad value for {key!r}: {exc}") from exc
    return out


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, environment, and flags."""
    values = {name: default for name, (_, default) in _CONFIG_KEYS.items()}
    if args.config:
        values.update(_load_config_file(args.config))
    if values["seed"] is None and "NONCE_LAB_SEED" in os.environ:
        raw = os.environ["NONCE_LAB_SEED"]
        try:
            values["seed"] = int(raw)
        except ValueError:
            raise ConfigError(f"NONCE_LAB_SEED={raw!r} is not an integer") from None
    for name in _CONFIG_KEYS:
        flag = getattr(args, name, None)
        if flag is not None:
            cast, _ = _CONFIG_KEYS[name]
            values[name] = cast(flag)
    if values["seed"] is None:
        values["seed"] = 0
    for name in ("jobs", "count"):
        if values[name] is not None and values[name] < 1:
            raise ConfigError(f"{name} must be at least 1")
    if values["out"] is None:
        values["out"] = f"out-{args.command}"
    if values["word_count"] is None:
        values["word_count"] = get_curve(values["curve"]).word_count
    return RunConfig(**values)


def derive_seed(root: int, *tags) -> int:
    """Stable 64-bit child seed for one labeled purpose."""
    text = ":".join(str(part) for part in (root, *tags))
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


# The SimConfig fields a run configures; the seed is derived per task.
_SIM_KEYS = tuple(name for name in _SIM_DEFAULTS if name in _CONFIG_KEYS and name != "seed")


def _sim_config(rc: RunConfig, seed: int) -> SimConfig:
    return SimConfig(**{name: getattr(rc, name) for name in _SIM_KEYS}, seed=seed)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _echo_config(rc: RunConfig, command: str, out_dir: Path) -> None:
    payload = dataclasses.asdict(rc)
    payload["command"] = command
    payload["version"] = __version__
    _write_json(out_dir / "config.json", payload)


def _out_dir(rc: RunConfig, command: str) -> Path:
    out = Path(rc.out)
    out.mkdir(parents=True, exist_ok=True)
    _echo_config(rc, command, out)
    return out


def _merge_sets(parts):
    import numpy as np

    from .tracesim import TraceSet

    traces = [trace for part in parts for trace in part.traces]
    labels = np.vstack([part.labels for part in parts])
    return TraceSet(traces, labels, np.vstack([part.interfered for part in parts]))


class _InlineExecutor(Executor):
    """Runs each task in this process as it is submitted."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


@contextlib.contextmanager
def _executor(jobs: int | None, tasks: int):
    """A pool of ``min(jobs, tasks)`` worker processes, or this process
    alone when that is one; ``jobs=None`` means every usable CPU.  On
    exit, even by an error, the workers are joined."""
    if jobs is None:
        # The CPUs this process may run on; only some systems can say.
        if hasattr(os, "sched_getaffinity"):
            jobs = len(os.sched_getaffinity(0))
        else:
            jobs = os.cpu_count() or 1
    workers = min(jobs, tasks)
    if workers <= 1:
        yield _InlineExecutor()
        return
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

    pool = ProcessPoolExecutor(workers)
    try:
        yield pool
    finally:
        pool.shutdown(wait=True)


def _windows_tasks(rc: RunConfig, seed: int) -> list:
    import numpy as np

    # Exactly balanced classes in seed-derived order, cut into chunks of
    # fixed size, each rendered under its own derived seed.
    conds = np.repeat([0, 1], [(rc.count + 1) // 2, rc.count // 2])
    conds = np.random.default_rng(derive_seed(seed, "conds")).permutation(conds)
    tasks = []
    for index, start in enumerate(range(0, rc.count, _WINDOW_CHUNK)):
        chunk = conds[start : start + _WINDOW_CHUNK]
        cfg = _sim_config(rc, derive_seed(seed, "windows", index))
        tasks.append((rc.variant, rc.word_count, [int(c) for c in chunk], cfg))
    return tasks


def _scalars_tasks(rc: RunConfig, seed: int, count: int) -> list:
    tasks = []
    for index, start in enumerate(range(0, count, _SCALAR_CHUNK)):
        size = min(_SCALAR_CHUNK, count - start)
        cfg = _sim_config(rc, derive_seed(seed, "scalars", index))
        tasks.append((rc.curve, rc.variant, rc.multiplier, size, cfg))
    return tasks


def _window_level(source: str):
    from .tracesim import labels_path, read_trace_set

    trace_set = read_trace_set(source)
    if trace_set.labels.shape[1] == 1:
        return trace_set
    if trace_set.labels.shape[1] == 0:
        raise DomainError(f"{source}: no labels; {labels_path(source)} is missing or empty")
    raise ConfigError(
        f"{source}: full-scalar trace files carry no window boundaries; "
        "use a trace set simulated with shape=windows"
    )


def _known_bits(path: str) -> list[int]:
    out = []
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not line.startswith("a="):
            raise DomainError(f"{path}:{lineno}: expected 'a=<hex>', got {raw!r}")
        out.append(parse_hex(line[2:], f"{path}:{lineno}"))
    return out


def cmd_keygen(rc: RunConfig, args: argparse.Namespace) -> int:
    out = _out_dir(rc, "keygen")
    curve = get_curve(rc.curve)
    key = keygen(curve, random.Random(derive_seed(rc.seed, "keygen")))
    write_private_key(out / "key.txt", key)
    qx, qy = key.Q.to_affine()
    print(f"curve={curve.name} qx={qx:x} qy={qy:x}")
    print(f"wrote {out / 'key.txt'}")
    return 0


def cmd_sign(rc: RunConfig, args: argparse.Namespace) -> int:
    out = _out_dir(rc, "sign")
    curve = get_curve(rc.curve)
    key = read_private_key(args.key, curve)
    rng = random.Random(derive_seed(rc.seed, "sign"))
    sigs = []
    for _ in range(args.sign_count):
        if rc.digest is not None and args.sign_count == 1:
            digest = rc.digest
        else:
            digest = rng.randrange(1, curve.n)
        sig, _ = sign(digest, key, rng, rc.multiplier)
        sigs.append(sig)
    write_signatures(out / "signatures.txt", sigs)
    print(f"wrote {len(sigs)} signature(s) to {out / 'signatures.txt'}")
    return 0


def cmd_verify(rc: RunConfig, args: argparse.Namespace) -> int:
    curve = get_curve(rc.curve)
    key = read_private_key(args.key, curve)
    sigs = read_signatures(args.signatures)
    if not sigs:
        raise ConfigError(f"{args.signatures}: no signatures to verify")
    bad = 0
    for index, sig in enumerate(sigs):
        ok = verify(sig, key.Q, curve)
        bad += not ok
        print(f"signature {index}: {'valid' if ok else 'INVALID'}")
    return 0 if bad == 0 else 2


def cmd_simulate(rc: RunConfig, args: argparse.Namespace) -> int:
    from .tracesim import generate_swap_windows, generate_training_set, write_trace_set

    out = _out_dir(rc, "simulate")
    seed = derive_seed(rc.seed, "simulate")
    if rc.shape == "windows":
        parts = [generate_swap_windows(*task) for task in _windows_tasks(rc, seed)]
    else:
        parts = [
            generate_training_set(get_curve(name), variant, count, cfg, multiplier=multiplier)
            for name, variant, multiplier, count, cfg in _scalars_tasks(rc, seed, rc.count)
        ]
    trace_set = _merge_sets(parts)
    write_trace_set(trace_set, out / "traces.trc")
    print(
        f"wrote {len(trace_set.traces)} {rc.shape} trace(s) "
        f"({trace_set.labels.shape[1]} swap(s) each) to {out / 'traces.trc'}"
    )
    return 0


def cmd_assess(rc: RunConfig, args: argparse.Namespace) -> int:
    from .analysis import LEAK_THRESHOLD, export_t_csv, welch_t

    out = _out_dir(rc, "assess")
    trace_set = _window_level(args.traces)
    result = welch_t(trace_set, trace_set.labels[:, 0])
    export_t_csv(result, out / "tvla.csv")
    verdict = "LEAKING" if result.max_abs_t > LEAK_THRESHOLD else "PASS"
    print(
        f"max_abs_t={result.max_abs_t:.4f} threshold={LEAK_THRESHOLD} "
        f"classes={result.n0}/{result.n1} verdict={verdict}"
    )
    return 0


def cmd_train(rc: RunConfig, args: argparse.Namespace) -> int:
    from .analysis import fit_swap_classifier, write_model

    out = _out_dir(rc, "train")
    trace_set = _window_level(args.traces)
    cfg = _sim_config(rc, 0)
    model = fit_swap_classifier(
        trace_set, cfg, poi_count=rc.poi_count, mode=rc.template_mode
    )
    write_model(model, out / "model.tmpl")
    print(
        f"fitted {model.mode} templates on {trace_set.labels.shape[0]} windows "
        f"({model.poi.size} poi); wrote {out / 'model.tmpl'}"
    )
    return 0


def cmd_classify(rc: RunConfig, args: argparse.Namespace) -> int:
    import numpy as np

    from .analysis import classify_batch, feature_matrix, read_model

    out = _out_dir(rc, "classify")
    trace_set = _window_level(args.traces)
    model = read_model(args.model)
    median = int(model.trained_on.get("median_samples", "0"))
    if median < 3:
        raise DomainError("model metadata lacks a usable median_samples entry")
    features = feature_matrix(trace_set, median)
    guesses, probabilities = classify_batch(model, features)
    labels = trace_set.labels[:, 0]
    with open(out / "predictions.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("window_index", "cond_guess", "probability", "label"))
        for i, (guess, prob) in enumerate(zip(guesses, probabilities)):
            writer.writerow((i, int(guess), f"{prob:.6f}", int(labels[i])))
    accuracy = float(np.mean(guesses == labels))
    print(f"classified {guesses.size} windows; accuracy={accuracy:.4f}")
    return 0


def cmd_attack(rc: RunConfig, args: argparse.Namespace) -> int:
    from .analysis import cluster_nonce_bits, read_model, recover_nonce_bits
    from .dsp import align_swaps, write_windows_csv
    from .tracesim import TraceSet, swap_burst_width, swap_windows, synthesize, write_trace_set

    out = _out_dir(rc, "attack")
    curve = get_curve(rc.curve)
    seed = rc.seed
    model = read_model(args.model) if args.model else None
    # A model from ``train`` names no curve.  The multiplier is not checked:
    # a ladder model reads double-and-add swaps too.
    if model is not None and model.trained_on.get("curve", curve.name) != curve.name:
        raise ConfigError(
            f"{args.model}: model was trained on {model.trained_on['curve']}, not {curve.name}"
        )
    key = keygen(curve, random.Random(derive_seed(seed, "keygen")))
    rng = random.Random(derive_seed(seed, "sign"))
    digest = rc.digest if rc.digest is not None else rng.randrange(1, curve.n)

    recorder = EventRecorder()
    swap_impl = SwapVariant(SwapKind(rc.variant), rng_seed=derive_seed(seed, "swap") % 2**63)
    sig, nonce = sign(digest, key, rng, rc.multiplier, swap_impl, recorder)
    trace = synthesize(
        recorder,
        _sim_config(rc, derive_seed(seed, "capture")),
        meta={
            "curve": curve.name,
            "variant": rc.variant,
            "multiplier": rc.multiplier,
        },
    )
    del recorder
    truth = [w.cond for w in swap_windows(trace)]
    flags = [[w.interfered for w in swap_windows(trace)]]
    write_trace_set(TraceSet([trace], [truth], flags), out / "trace.trc")
    cfg = _sim_config(rc, 0)
    windows = align_swaps(trace, curve, cfg, multiplier=rc.multiplier)
    write_windows_csv(windows, out / "windows.csv")
    if model is None:
        width = swap_burst_width(curve, rc.variant, rc.multiplier, cfg)
        candidates = cluster_nonce_bits(trace, windows, rc.multiplier, width, cfg)
    else:
        candidates = (recover_nonce_bits(trace, model, windows, rc.multiplier),)

    # Decided from the public key alone: only the counters below read the
    # simulation's ground truth.  The first candidate that yields the key
    # is reported, else the first.
    estimate, recovered = candidates[0], False
    for candidate in candidates:
        try:
            guess_d = recover_private_key(sig, candidate.value, curve)
        except DomainError:
            continue
        if fast_multiply(guess_d, curve.generator, curve) == key.Q:
            estimate, recovered = candidate, True
            break

    width = curve.n.bit_length()
    true_bits = [(nonce.k.value >> (width - 1 - i)) & 1 for i in range(width)]
    bits_correct = sum(g == t for g, t in zip(estimate.bits, true_bits))
    conds_correct = sum(g == t for g, t in zip(estimate.conds, truth))
    with open(out / "attack.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            (
                "window_index",
                "cond_guess",
                "cond_true",
                "bit_guess",
                "bit_true",
                "probability",
            )
        )
        for i in range(min(width, len(estimate.conds))):
            writer.writerow(
                (
                    i,
                    estimate.conds[i],
                    truth[i],
                    estimate.bits[i],
                    true_bits[i],
                    f"{estimate.probabilities[i]:.6f}",
                )
            )
    _write_json(
        out / "summary.json",
        {
            "bits_total": width,
            "bits_correct": bits_correct,
            "classifier": "cluster" if model is None else "templates",
            "conds_correct": conds_correct,
            "key_recovered": recovered,
        },
    )
    print(f"nonce bits correct: {bits_correct}/{width} (conds {conds_correct}/{width})")
    print(f"private key recovered: {'yes' if recovered else 'no'}")
    if recovered:
        return 0
    print("error: recovery: classified nonce does not yield the private key", file=sys.stderr)
    return 2


def cmd_recover(rc: RunConfig, args: argparse.Namespace) -> int:
    out = _out_dir(rc, "recover")
    curve = get_curve(rc.curve)
    if rc.leak_bits is None:
        raise ConfigError("recover requires leak_bits (config key or --leak-bits)")
    key = read_private_key(args.key, curve)
    sigs = read_signatures(args.signatures)
    known = _known_bits(args.known)
    if len(sigs) != len(known):
        raise ConfigError(
            f"{len(sigs)} signatures but {len(known)} known-bit lines"
        )
    inst = build_hnp(list(zip(sigs, known)), curve, rc.leak_bits)
    d = recover_key(
        inst,
        curve,
        key.Q,
        rc.strategy,
        max_tries=rc.max_tries,
        rng=random.Random(derive_seed(rc.seed, "recover")),
    )
    (out / "recovered.txt").write_text(f"d={d:x}\n")
    print(f"recovered d={d:x}")
    return 0


def cmd_experiment(rc: RunConfig, args: argparse.Namespace) -> int:
    out = _out_dir(rc, "experiment")
    curve = get_curve(rc.curve)
    cells = []
    for leak_bits in rc.grid_leak_bits:
        for signature_count in rc.grid_signatures:
            for error_rate in rc.grid_error_rates:
                cells.append(
                    ExperimentConfig(
                        curve=curve,
                        leak_bits=leak_bits,
                        signature_count=signature_count,
                        error_rate=error_rate,
                        trials=rc.trials,
                        seed=derive_seed(rc.seed, "cell", len(cells)),
                        strategy=rc.strategy,
                        max_tries=rc.max_tries,
                    )
                )
    with _executor(rc.jobs, len(cells)) as pool:
        results = list(pool.map(run_experiment, cells))
    write_results_csv(results, out / "results.csv")
    with open(out / "timing.txt", "w") as fh:
        for res in results:
            cfg = res.config
            line = (
                f"l={cfg.leak_bits} m={cfg.signature_count} "
                f"e={cfg.error_rate:g}: mean {res.mean_seconds:.3f} s/trial"
            )
            fh.write(line + "\n")
            print(
                f"l={cfg.leak_bits} m={cfg.signature_count} e={cfg.error_rate:g}: "
                f"success {res.successes}/{cfg.trials}"
            )
    print(f"wrote {out / 'results.csv'}")
    return 0


_COMMANDS = {
    "keygen": cmd_keygen,
    "sign": cmd_sign,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "assess": cmd_assess,
    "train": cmd_train,
    "classify": cmd_classify,
    "attack": cmd_attack,
    "recover": cmd_recover,
    "experiment": cmd_experiment,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON key=value config file")
    common.add_argument("--seed", type=int, help="root seed (overrides config/env)")
    common.add_argument("--curve", help="curve name, e.g. secp521r1")
    common.add_argument("--variant", choices=_VARIANTS, help="conditional-swap variant")
    common.add_argument("--multiplier", choices=MULTIPLIERS, help="scalar multiplier")
    common.add_argument(
        "--jobs", type=int,
        help="worker processes of experiment (default: every usable CPU)",
    )
    common.add_argument("--out", metavar="DIR", help="output directory")

    parser = argparse.ArgumentParser(
        prog="nonce-lab",
        description="Simulated EM side-channel laboratory for ECDSA nonce recovery.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("keygen", parents=[common], help="generate a key pair")
    p = sub.add_parser("sign", parents=[common], help="sign derived digests")
    p.add_argument("--key", required=True, metavar="PATH")
    p.add_argument("--count", dest="sign_count", type=int, default=1, metavar="N")
    p.add_argument("--digest", type=int, help="explicit digest (count=1 only)")
    p = sub.add_parser("verify", parents=[common], help="verify a signature file")
    p.add_argument("--key", required=True, metavar="PATH")
    p.add_argument("--signatures", required=True, metavar="PATH")
    p = sub.add_parser("simulate", parents=[common], help="synthesize a trace set")
    p.add_argument("--shape", choices=("windows", "scalars"))
    p.add_argument("--count", type=int, help="traces to synthesize")
    p = sub.add_parser("assess", parents=[common], help="leakage t-test on a trace set")
    p.add_argument("--traces", required=True, metavar="PATH")
    p = sub.add_parser("train", parents=[common], help="fit a swap classifier")
    p.add_argument("--traces", required=True, metavar="PATH")
    p = sub.add_parser("classify", parents=[common], help="classify swap windows")
    p.add_argument("--traces", required=True, metavar="PATH")
    p.add_argument("--model", required=True, metavar="PATH")
    p = sub.add_parser("attack", parents=[common], help="full nonce-recovery attack")
    p.add_argument("--model", metavar="PATH", help="reuse a trained model file")
    p.add_argument("--digest", type=int, help="digest to sign during the attack")
    p = sub.add_parser("recover", parents=[common], help="lattice key recovery")
    p.add_argument("--signatures", required=True, metavar="PATH")
    p.add_argument("--known", required=True, metavar="PATH", help="a=<hex> nonce LSBs")
    p.add_argument("--key", required=True, metavar="PATH", help="key file for the public point")
    p.add_argument("--leak-bits", dest="leak_bits", type=int)
    p = sub.add_parser("experiment", parents=[common], help="success-rate grid")
    p.add_argument("--trials", type=int)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = resolve_config(args)
        return _COMMANDS[args.command](rc, args)
    except (AlignmentError, RecoveryFailed) as exc:
        kind = "alignment" if isinstance(exc, AlignmentError) else "recovery"
        print(f"error: {kind}: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 1
    except (DomainError, StatError) as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
