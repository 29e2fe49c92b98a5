"""Span recorder for the traced benchmark run.

The traced run measures each nonce_lab module from outside: it replaces a
list of public functions with wrappers that record one span per call
(name, start, end, parent span, op id) and a few deterministic counters
taken from the call's arguments and result.  Because the package imports
functions by name (``montgomery_ladder`` is looked up in ``ecdsa``,
``tracesim`` and ``dsp``; ``generate_training_set`` in ``cli``), a
wrapper is installed under every ``nonce_lab`` module attribute that is
bound to the original function, and every binding is restored on exit.

Spans stay in memory; ``op_layer_metrics`` turns one op's spans into the
per-layer metrics and ``write_spans`` writes them out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, NamedTuple


class Span(NamedTuple):
    op: str
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    ok: bool


# Counter hooks: (tracer, args, kwargs, result) -> None, run after a call
# returns.  Each reads only the call's own arguments and result.


def _samples(tracer, args, kwargs, result):
    tracer.add("tracesim.samples", result.samples.size)


def _trace_file_bytes(path) -> int:
    from nonce_lab.tracesim import labels_path

    sidecar = labels_path(path)
    return os.path.getsize(path) + (
        os.path.getsize(sidecar) if os.path.exists(sidecar) else 0
    )


def _written(tracer, args, kwargs, result):
    tracer.add("tracesim.io.bytes", _trace_file_bytes(args[1] if len(args) > 1 else kwargs["path"]))


def _read(tracer, args, kwargs, result):
    tracer.add("tracesim.io.bytes", _trace_file_bytes(args[0] if args else kwargs["path"]))


def _aligned(tracer, args, kwargs, result):
    tracer.add("dsp.windows_aligned", len(result))
    if result.confidence:
        tracer.lowest("dsp.confidence_min", min(result.confidence))


def _lattice(tracer, args, kwargs, result):
    tracer.highest("recover.lattice_dim", result.dimension)
    tracer.highest(
        "recover.max_entry_bits",
        max(abs(v).bit_length() for row in result.rows for v in row),
    )


class Target(NamedTuple):
    module: str  # nonce_lab submodule that defines the function
    function: str
    span: str
    recorder_at: int | None = None  # position of an EventRecorder argument
    traced_span: str | None = None  # span name when a recorder is passed
    hook: Callable | None = None


TARGETS = (
    Target("ff_curve", "montgomery_ladder", "ff_curve.ladder", 4, "ff_curve.ladder_traced"),
    Target("ff_curve", "double_and_always_add", "ff_curve.daa", 4, "ff_curve.daa_traced"),
    Target("ff_curve", "reference_multiply", "ff_curve.reference_multiply"),
    Target("swap_impls", "ct_swap", "swap_impls.ct_swap", 3),
    Target("ecdsa", "keygen", "ecdsa.keygen"),
    Target("ecdsa", "sign", "ecdsa.sign"),
    Target("ecdsa", "verify", "ecdsa.verify"),
    Target("tracesim", "synthesize", "tracesim.synthesize", hook=_samples),
    Target("tracesim", "generate_training_set", "tracesim.generate_training_set"),
    Target("tracesim", "generate_swap_windows", "tracesim.generate_swap_windows"),
    Target("tracesim", "write_trace_set", "tracesim.io", hook=_written),
    Target("tracesim", "read_trace_set", "tracesim.io", hook=_read),
    Target("dsp", "align_swaps", "dsp.align_swaps", hook=_aligned),
    Target("dsp", "bandpass", "dsp.bandpass"),
    Target("dsp", "rectified_envelope", "dsp.rectified_envelope"),
    Target("analysis", "harvest_swap_windows", "analysis.harvest_swap_windows"),
    Target("analysis", "fit_swap_classifier", "analysis.fit_swap_classifier"),
    Target("analysis", "recover_nonce_bits", "analysis.recover_nonce_bits"),
    Target("analysis", "welch_t", "analysis.welch_t"),
    Target("recover", "build_lattice", "recover.build_lattice", hook=_lattice),
    Target("recover", "lll_reduce", "recover.lll_reduce"),
    Target("recover", "recover_key", "recover.recover_key"),
    Target("recover", "run_experiment", "recover.run_experiment"),
    Target("cli", "main", "cli.main"),
)

OP_SPAN = "op"


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        # Busy time of the outermost calls that fill an EventRecorder, the
        # denominator of events.per_s.
        self.emitting_seconds = 0.0
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._emitting = 0
        self._op = ""

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def lowest(self, key: str, value: float) -> None:
        self.counters[key] = min(self.counters.get(key, value), value)

    def highest(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the original bindings on exit."""
        patches = []
        for target in TARGETS:
            home = importlib.import_module(f"nonce_lab.{target.module}")
            original = getattr(home, target.function)
            wrapper = self._wrap(original, target)
            for module in _package_modules():
                for name, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, name, original))
                        setattr(module, name, wrapper)
        try:
            yield
        finally:
            for module, name, original in reversed(patches):
                setattr(module, name, original)

    @contextmanager
    def op(self, op_id: str):
        """Root span of one op; counters restart with every op."""
        self._op = op_id
        self.counters = {}
        self.emitting_seconds = 0.0
        sid = next(self._ids)
        self._stack.append(sid)
        ok = False
        start = time.perf_counter()
        try:
            yield
            ok = True
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(op_id, sid, None, OP_SPAN, start, end, ok))

    def _wrap(self, fn, target: Target):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recorder = None
            if target.recorder_at is not None:
                if len(args) > target.recorder_at:
                    recorder = args[target.recorder_at]
                else:
                    recorder = kwargs.get("recorder")
            name = target.span
            if recorder is not None and target.traced_span:
                name = target.traced_span
            outermost = recorder is not None and tracer._emitting == 0
            before = len(recorder) if outermost else 0
            tracer._emitting += recorder is not None
            sid = next(tracer._ids)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._emitting -= recorder is not None
                tracer.spans.append(Span(tracer._op, sid, parent, name, start, end, ok))
            if outermost:
                tracer.add("events.emitted", len(recorder) - before)
                tracer.emitting_seconds += end - start
            if target.hook is not None:
                target.hook(tracer, args, kwargs, result)
            return result

        return wrapper


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "nonce_lab" or name.startswith("nonce_lab."))
    ]


# Per-layer metrics.  self_s is inclusive span time minus the time covered
# by child spans; busy_s is inclusive.
SELF_SPANS = (
    "ff_curve.ladder_traced",
    "ff_curve.ladder",
    "ff_curve.daa",
    "ff_curve.reference_multiply",
    "swap_impls.ct_swap",
    "tracesim.synthesize",
    "tracesim.generate_training_set",
    "tracesim.generate_swap_windows",
    "tracesim.io",
    "dsp.align_swaps",
    "analysis.harvest_swap_windows",
    "analysis.fit_swap_classifier",
    "analysis.recover_nonce_bits",
    "cli.main",
)
BUSY_SPANS = (
    "dsp.bandpass",
    "dsp.rectified_envelope",
    "analysis.welch_t",
    "recover.lll_reduce",
    "recover.build_lattice",
    "ecdsa.keygen",
    "ecdsa.sign",
    "ecdsa.verify",
)
UNTRACED_MULTIPLIES = ("ff_curve.ladder", "ff_curve.daa", "ff_curve.reference_multiply")

# Counters that depend only on the op's inputs: two runs at one seed must
# give exactly the same values.
DETERMINISTIC = (
    "events.emitted",
    "tracesim.samples",
    "tracesim.io.bytes",
    "dsp.windows_aligned",
    "dsp.confidence_min",
    "analysis.conds_correct",
    "analysis.combined_max_abs_t",
    "recover.lattice_dim",
    "recover.max_entry_bits",
    "recover.candidates_verified",
    "ff_curve.multiply_calls",
    "swap_impls.ct_swap.calls",
    "recover.lll_reduce.calls",
)


def span_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: summed busy and self seconds and the call count."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"busy_s": 0.0, "self_s": 0.0, "calls": 0}
    )
    for s in spans:
        busy = s.end - s.start
        entry = totals[s.name]
        entry["busy_s"] += busy
        entry["self_s"] += busy - covered[s.id]
        entry["calls"] += 1
    return totals


def op_counters(spans: list[Span], counters: dict[str, float]) -> dict[str, float]:
    """The op's deterministic counters: hook counters plus span counts."""
    totals = span_totals(spans)
    names = {s.id: s.name for s in spans}
    out = {key: 0 for key in DETERMINISTIC}
    out.update(counters)
    out["ff_curve.multiply_calls"] = sum(
        totals[n]["calls"] for n in UNTRACED_MULTIPLIES if n in totals
    )
    out["swap_impls.ct_swap.calls"] = totals.get("swap_impls.ct_swap", {}).get("calls", 0)
    out["recover.lll_reduce.calls"] = totals.get("recover.lll_reduce", {}).get("calls", 0)
    out["recover.candidates_verified"] = sum(
        1
        for s in spans
        if s.name == "ff_curve.reference_multiply"
        and names.get(s.parent) == "recover.recover_key"
    )
    return out


def op_layer_metrics(
    spans: list[Span], counters: dict[str, float], emitting_seconds: float
) -> dict[str, float]:
    """Every per-layer metric of one traced op (0 for layers it skips)."""
    totals = span_totals(spans)
    metrics: dict[str, float] = {}
    for name in SELF_SPANS:
        metrics[f"{name}.self_s"] = totals[name]["self_s"] if name in totals else 0.0
    for name in BUSY_SPANS:
        metrics[f"{name}.busy_s"] = totals[name]["busy_s"] if name in totals else 0.0
    metrics.update(op_counters(spans, counters))
    emitted = metrics["events.emitted"]
    metrics["events.per_s"] = emitted / emitting_seconds if emitting_seconds else 0.0
    synth = metrics["tracesim.synthesize.self_s"]
    metrics["tracesim.samples_per_s"] = metrics["tracesim.samples"] / synth if synth else 0.0
    # Attempts per useful outcome; with no key recovered, the attempts.
    keys = sum(1 for s in spans if s.name == "recover.recover_key" and s.ok)
    candidates = metrics["recover.candidates_verified"]
    metrics["recover.candidates_per_key"] = candidates / keys if keys else float(candidates)
    root = totals[OP_SPAN]
    metrics["trace.uncovered_frac"] = root["self_s"] / root["busy_s"] if root["busy_s"] else 0.0
    return metrics


def write_spans(spans: list[Span], path) -> None:
    """Write every recorded span as one JSON object per line."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s._asdict()) + "\n")
