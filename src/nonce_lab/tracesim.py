"""Event streams rendered as EM-style amplitude-modulated waveforms.

The model is deliberately coarse: every recorded operation occupies a
fixed number of samples, its amplitude tracks the operand-dependent
leak value, and the whole activity envelope rides on a carrier at a
fixed fraction of the simulated clock.  Gaussian sensor noise, bursty
interference, and scheduler interruptions are layered on top.  Nothing
here models physics; the point is a waveform with the same structure
the analysis pipeline has to cope with on real captures.
"""

from __future__ import annotations

import array
import csv
import functools
import io
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, NamedTuple, Sequence
import struct

import numpy as np

from .ecdsa import read_text
from .errors import ConfigError, DomainError
from .events import (
    KIND_BY_CODE,
    WORD_BITS,
    WORD_OP_KINDS,
    EventRecorder,
    OpKind,
)
from .ff_curve import (
    CurveParams,
    ProjectivePoint,
    Scalar,
    fast_multiply,
    reference_multiply,
    traced_multiply,
)
from .simconfig import SimConfig
from .swap_impls import SwapKind, SwapVariant, WordArrayPair, ct_swap

TRACE_MAGIC = b"SCTR"
TRACE_VERSION = 1

# Fraction of samples_per_event each operation occupies.  Multiplies and
# squarings form the visible blocks; add/sub/shift are the short gaps
# between them; word-level swap steps are shorter still.
_DURATION_DIVISOR: dict[OpKind, int] = {
    OpKind.FIELD_MUL: 1,
    OpKind.FIELD_SQUARE: 1,
    OpKind.RERANDOMIZE: 1,
    OpKind.FIELD_ADD_SUB: 4,
    OpKind.MASK_COMPUTE: 8,
    OpKind.INV_MASK_COMPUTE: 8,
    OpKind.DELTA_COMPUTE: 8,
    OpKind.STORE_A: 8,
    OpKind.STORE_B: 8,
}

# Kinds that stay visible regardless of operand values, so alignment can
# find the arithmetic blocks even when every leak value happens to be 0.
_FLOOR_KINDS = frozenset(
    (OpKind.FIELD_MUL, OpKind.FIELD_SQUARE, OpKind.RERANDOMIZE)
)

# A word-level event exposes one word's weight at full gain.  A
# multi-word arithmetic block amortizes its result weight over many
# internal cycles, so its data dependence enters only as a weak wobble;
# without the damping, 521-bit operands (weight ~260) would make the
# add/sub gaps as bright as the multiply blocks and erase the structure
# alignment keys on.
_ARITH_LEAK_DAMPING = 1.0 / 32.0

# The same facts as lookup arrays indexed by OpKind.code.
_IS_WORD = np.array([kind in WORD_OP_KINDS for kind in KIND_BY_CODE])
_HAS_FLOOR = np.array([kind in _FLOOR_KINDS for kind in KIND_BY_CODE])
_DIVISORS = np.array([_DURATION_DIVISOR[kind] for kind in KIND_BY_CODE])
_LEAK_GAIN = np.where(_IS_WORD, 1.0, _ARITH_LEAK_DAMPING)


class MarkerTable:
    """Ground-truth annotations of a synthesized trace, one column each.

    Event i spans samples ``starts[i]:ends[i]``; ``kinds`` holds its
    ``OpKind.code``, ``conds`` its swap condition (-1 for none) and
    ``interfered`` whether a burst overlaps it.  A full scalar
    multiplication produces tens of thousands of events, so the columns
    are flat arrays and no per-marker object exists.
    """

    __slots__ = ("starts", "ends", "kinds", "conds", "interfered", "_windows")

    def __init__(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        kinds: np.ndarray,
        conds: np.ndarray,
        interfered: np.ndarray | None = None,
    ) -> None:
        self.starts = np.asarray(starts, dtype=np.int64)
        self.ends = np.asarray(ends, dtype=np.int64)
        self.kinds = np.asarray(kinds, dtype=np.uint8)
        # -1 encodes "no condition attached".
        self.conds = np.asarray(conds, dtype=np.int8)
        if interfered is None:
            interfered = np.zeros(self.starts.size, dtype=bool)
        self.interfered = np.asarray(interfered, dtype=bool)
        # swap_windows caches its result here; tables are never modified.
        self._windows: tuple[SwapWindow, ...] | None = None
        n = self.starts.size
        if not (self.ends.size == self.kinds.size == self.conds.size == n
                and self.interfered.size == n):
            raise DomainError("marker columns must have equal length")
        if n:
            if (self.ends < self.starts).any():
                raise DomainError("marker span ends before it starts")
            if (self.starts[1:] < self.ends[:-1]).any():
                raise DomainError("markers must be sorted and non-overlapping")

    @classmethod
    def empty(cls) -> "MarkerTable":
        z = np.zeros(0, dtype=np.int64)
        return cls(z, z, z, z)

    def __len__(self) -> int:
        return self.starts.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MarkerTable):
            return NotImplemented
        return (
            np.array_equal(self.starts, other.starts)
            and np.array_equal(self.ends, other.ends)
            and np.array_equal(self.kinds, other.kinds)
            and np.array_equal(self.conds, other.conds)
            and np.array_equal(self.interfered, other.interfered)
        )

    __hash__ = None


@dataclass(frozen=True, eq=False, slots=True)
class LeakageTrace:
    """One synthesized waveform with its ground-truth annotations."""

    samples: np.ndarray
    sample_rate: float
    markers: MarkerTable
    meta: dict[str, str]

    def __post_init__(self) -> None:
        if self.samples.ndim != 1:
            raise DomainError("trace samples must form a one-dimensional array")
        if not 0.0 < self.sample_rate < math.inf:
            raise DomainError("sample_rate must be positive and finite")
        if len(self.markers) and int(self.markers.ends[-1]) > self.samples.size:
            raise DomainError("marker spans run past the end of the trace")

    def __len__(self) -> int:
        return self.samples.size


class SwapWindow(NamedTuple):
    """Span of one conditional-swap execution inside a trace."""

    start: int
    end: int
    cond: int
    interfered: bool


def _swap_bursts(kinds: np.ndarray, conds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and stop event index of every maximal run of condition-bearing
    word events.

    Each conditional swap emits a contiguous burst of word-level events
    carrying the same ground-truth condition, always separated from the
    next burst by field arithmetic, so these runs are exactly the swap
    executions.
    """
    in_swap = _IS_WORD[kinds] & (conds >= 0)
    if (in_swap[1:] & in_swap[:-1] & (conds[1:] != conds[:-1])).any():
        raise DomainError("swap window mixes ground-truth conditions")
    edges = np.flatnonzero(np.diff(np.concatenate(([0], in_swap.astype(np.int8), [0]))))
    return edges[::2], edges[1::2]


def swap_windows(trace: LeakageTrace) -> list[SwapWindow]:
    """The spans of the trace's swap executions (see ``_swap_bursts``)."""
    mt = trace.markers
    if mt._windows is None:
        first, stop = _swap_bursts(mt.kinds, mt.conds)
        flagged = np.concatenate(([0], np.cumsum(mt.interfered)))
        rows = zip(
            mt.starts[first].tolist(),
            mt.ends[stop - 1].tolist(),
            mt.conds[first].tolist(),
            (flagged[stop] > flagged[first]).tolist(),
        )
        mt._windows = tuple(SwapWindow(*row) for row in rows)
    return list(mt._windows)


# Samples per block that the renderer fills (noise draws included) and the
# trace writer converts: 512 KiB of float64.
_NOISE_BLOCK = 1 << 16


@functools.lru_cache(maxsize=8)
def _carrier(
    width: int, sample_rate: float, f_mod: float, starts: bytes = bytes(8)
) -> np.ndarray:
    """cos(2*pi*f_mod*i/sample_rate) for i in s:s+width, one row per start
    s (int64 bytes; 0 alone by default), read-only.  Each entry is one
    block of whole rows: the traces of a campaign share their start, so
    an entry serves them all."""
    lo = np.frombuffer(starts, np.int64)
    carrier = np.empty((lo.size, width))
    np.add(lo[:, None], np.arange(width), out=carrier)
    carrier /= sample_rate
    carrier *= 2.0 * np.pi * f_mod
    np.cos(carrier, out=carrier)
    carrier.flags.writeable = False
    return carrier


def _event_columns(events: EventRecorder) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The recorder's kinds, leaks and conds, validated.

    Each column is read into an array in one pass: kinds as bytes, leaks
    as int64 and conds as int8 with -1 for "no condition", the encoding
    ``MarkerTable`` keeps.
    """
    if not len(events):
        raise DomainError("cannot synthesize an empty event stream")
    kinds = np.frombuffer(bytes(events.kinds), np.uint8)
    # array refuses None, floats and ints beyond its type's range.
    try:
        leaks = np.frombuffer(array.array("q", events.leaks), np.int64)
    except (TypeError, OverflowError):
        raise DomainError("leak values must be integers") from None
    try:
        conds = np.frombuffer(array.array("b", events.conds), np.int8)
    except (TypeError, OverflowError):
        raise DomainError("swap condition must be -1, 0 or 1") from None
    word = _IS_WORD[kinds]
    if (leaks < 0).any():
        raise DomainError("negative leak value")
    if (leaks[word] > WORD_BITS).any():
        raise DomainError("word-level leak value exceeds the word width")
    if ((conds < -1) | (conds > 1)).any():
        raise DomainError("swap condition must be -1, 0 or 1")
    if (conds[word] < 0).any():
        raise DomainError("word-level swap event without a condition")
    return kinds, leaks, conds


class _Layout(NamedTuple):
    """An event stream laid out in samples.

    The envelope holds ``levels[..., j]`` on samples
    ``edges[j]:edges[j+1]``: one segment per event, plus a silent one
    where an interruption falls.  Event i spans ``starts[i]:ends[i]``.
    A campaign of traces that share one event sequence holds one row of
    levels per trace.
    """

    levels: np.ndarray
    edges: np.ndarray
    starts: np.ndarray
    ends: np.ndarray


def _layout(kinds: np.ndarray, leaks: np.ndarray, cfg: SimConfig, rng: np.random.Generator) -> _Layout:
    """Envelope levels and sample spans of the events, after the
    interruption draws.

    The activity envelope is piecewise constant per event: baseline,
    plus a fixed floor for arithmetic blocks, plus the recorded leak
    value scaled by ``snr_scale``.  With probability
    ``interruption_prob`` a silent gap of random length is spliced in at
    a random event boundary.  ``leaks`` may hold one row per trace of a
    campaign, which takes no interruption.
    """
    spe = cfg.samples_per_event
    durations = (spe // _DIVISORS)[kinds]
    floors = np.where(_HAS_FLOOR[kinds], cfg.activity_floor, 0.0)
    levels = cfg.baseline + floors + leaks * _LEAK_GAIN[kinds] * cfg.snr_scale
    starts = np.concatenate(([0], np.cumsum(durations)[:-1]))
    lengths = durations
    if cfg.interruption_prob > 0.0 and rng.random() < cfg.interruption_prob:
        gap_index = int(rng.integers(1, kinds.size))
        gap_len = int(rng.integers(spe, 8 * spe + 1))
        levels = np.insert(levels, gap_index, 0.0)
        lengths = np.insert(durations, gap_index, gap_len)
        starts[gap_index:] += gap_len
    edges = np.concatenate(([0], np.cumsum(lengths)))
    return _Layout(levels, edges, starts, starts + durations)


def _burst_spans(cfg: SimConfig, n: int):
    """Start, stop and amplitude of each non-empty interference burst
    over a trace of n samples."""
    for start_frac, len_frac, amplitude in cfg.interference:
        start = int(round(start_frac * n))
        stop = min(n, start + int(round(len_frac * n)))
        if stop > start:
            yield start, stop, amplitude


def _render(
    layout: _Layout, spans: np.ndarray, cfg: SimConfig, rng: np.random.Generator,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """Samples ``lo:hi`` of the laid-out waveform for each span (lo, hi),
    one row per span; the spans share one width.  With one row of levels
    per trace, the rows are each trace's spans, trace after trace.

    The envelope multiplies a carrier at ``cfg.f_mod``, and Gaussian
    noise is added on top, drawn for the rendered samples only, row
    after row (or taken from ``noise``: standard normal draws that the
    caller made between its own).  Last, each trace gets every
    interference burst its spans overlap: white noise smoothed to the
    signal band, of RMS about ``amplitude``, on the same carrier, so the
    bandpass cannot remove it.  The burst noise comes from a child of
    ``rng``, so every other draw is the same with bursts or without.
    The span (0, n) renders the whole trace.

    The output is filled one block at a time: whole rows, or a piece of
    one row longer than ``_NOISE_BLOCK``, so no temporary of the output's
    size exists.  Every sample gets the arithmetic of a whole-array
    render, and the draws come in the same order.
    """
    lo, hi = spans[:, 0], spans[:, 1]
    width = int(hi[0] - lo[0])
    if (hi - lo != width).any():
        raise DomainError("traces must share one length to form a matrix")
    edges, levels = layout.edges, layout.levels.reshape(-1, layout.levels.shape[-1])
    out = np.empty((len(levels) * len(spans), width))
    bursts = _burst_spans(cfg, int(edges[-1]))
    bursts = [(a, b, amplitude) for a, b, amplitude in bursts if ((lo < b) & (hi > a)).any()]
    if bursts:
        burst_rng = rng.spawn(1)[0]
        smoothing = max(1, cfg.samples_per_event // 2)
        drawn = -1  # the trace whose burst envelopes are in hand
    step, piece = max(1, _NOISE_BLOCK // width), min(width, _NOISE_BLOCK)
    for r0 in range(0, len(out), step):
        trace, span = np.divmod(np.arange(r0, min(len(out), r0 + step)), len(spans))
        for c0 in range(0, width, piece):
            block = out[r0 : r0 + trace.size, c0 : c0 + piece]
            a = lo[span] + c0
            b = a + block.shape[1]
            # The envelope segments inside each block row, cut to the row.
            first = np.searchsorted(edges, a, "right") - 1
            counts = np.searchsorted(edges, b) - first
            row = np.repeat(np.arange(trace.size), counts)
            seg = np.arange(row.size) + np.repeat(first - np.cumsum(counts) + counts, counts)
            runs = np.minimum(edges[seg + 1], b[row]) - np.maximum(edges[seg], a[row])
            block[...] = np.repeat(levels[trace[row], seg], runs).reshape(block.shape)
            # Blocks of whole rows recur in runs that share their spans; the
            # pieces of one long row do not, so they stay out of the cache.
            carrier = (_carrier if piece == width else _carrier.__wrapped__)(
                block.shape[1], cfg.sample_rate, cfg.f_mod, a.tobytes()
            )
            block *= carrier
            draws = None if noise is None else noise.reshape(-1)[r0 * width + c0 :][: block.size]
            if draws is None and cfg.noise_sigma > 0.0:
                # Bit for bit rng.normal(0.0, sigma, out.size), a block at a time.
                draws = rng.standard_normal(block.size)
            if draws is not None:
                draws *= cfg.noise_sigma
                block += draws.reshape(block.shape)
            for i, (t, s_lo) in enumerate(zip(trace.tolist(), a.tolist()) if bursts else ()):
                if t != drawn:  # a trace's burst draws, at its first row
                    drawn, envelopes = t, [_burst_envelope(burst_rng, *bu, smoothing) for bu in bursts]
                for (start, stop, _), envelope in zip(bursts, envelopes):
                    x, y = max(s_lo, start), min(s_lo + block.shape[1], stop)
                    if x < y:
                        burst = envelope[x - start : y - start] * carrier[i, x - s_lo : y - s_lo]
                        block[i, x - s_lo : y - s_lo] += burst
    return out


def _burst_envelope(
    rng: np.random.Generator, start: int, stop: int, amplitude: float, smoothing: int
) -> np.ndarray:
    """White noise over ``start:stop`` smoothed by a ``smoothing``-point
    moving average and scaled to RMS about ``amplitude``."""
    # The centred slice of the full convolution: "same" mode returns the
    # kernel's length when the burst is shorter.
    full = np.convolve(rng.standard_normal(stop - start), np.ones(smoothing) / smoothing)
    skip = (smoothing - 1) // 2
    return amplitude * np.sqrt(smoothing) * full[skip : skip + stop - start]


def _trace_meta(cfg: SimConfig, meta: dict[str, str] | None) -> dict[str, str]:
    return {"f_cpu": str(cfg.f_cpu), "mod_ratio": str(cfg.mod_ratio), **(meta or {})}


def synthesize(
    events: EventRecorder,
    cfg: SimConfig,
    rng: np.random.Generator | None = None,
    *,
    meta: dict[str, str] | None = None,
) -> LeakageTrace:
    """Render an event stream into a noisy amplitude-modulated waveform.

    The events are laid out by ``_layout`` (envelope levels, an
    interruption gap) and rendered whole by ``_render`` (carrier, noise,
    interference bursts); the markers a burst overlaps are flagged.
    The recorder's columns are validated here, once.
    """
    kinds, leaks, conds = _event_columns(events)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    layout = _layout(kinds, leaks, cfg, rng)
    n = int(layout.edges[-1])
    samples = _render(layout, np.array([[0, n]]), cfg, rng)[0]
    flagged = np.zeros(layout.starts.shape, dtype=bool)
    for start, stop, _ in _burst_spans(cfg, n):
        flagged |= (layout.starts < stop) & (layout.ends > start)
    markers = MarkerTable(layout.starts, layout.ends, kinds, conds, flagged)
    return LeakageTrace(
        samples=samples, sample_rate=cfg.sample_rate, markers=markers,
        meta=_trace_meta(cfg, meta),
    )


@dataclass(eq=False)
class TraceSet:
    """Traces plus the per-swap condition matrix describing them."""

    traces: list[LeakageTrace]
    labels: np.ndarray
    interfered: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=np.int8)
        if self.labels.ndim != 2 or self.labels.shape[0] != len(self.traces):
            raise DomainError("label matrix must have one row per trace")
        if self.interfered is not None:
            self.interfered = np.asarray(self.interfered, dtype=bool)
            if self.interfered.shape != self.labels.shape:
                raise DomainError("interference matrix must match label shape")
        for trace in self.traces:
            if len(trace.markers) == 0:
                continue
            if len(swap_windows(trace)) != self.labels.shape[1]:
                raise DomainError(
                    "trace swap-window count disagrees with label matrix"
                )


def _variant_kind(variant: SwapVariant | SwapKind | str) -> SwapKind:
    if isinstance(variant, SwapVariant):
        return variant.kind
    if isinstance(variant, SwapKind):
        return variant
    try:
        return SwapKind(variant)
    except ValueError as exc:
        raise ConfigError(f"unknown swap variant {variant!r}") from exc


def _random_below(rng: np.random.Generator, bound: int) -> int:
    """Uniform integer in [0, bound) for bounds wider than 64 bits."""
    nbytes = (bound.bit_length() + 7) // 8 + 8
    return int.from_bytes(rng.bytes(nbytes), "big") % bound


def training_nonces(
    curve: CurveParams, multiplier: str = "ladder"
) -> tuple[Scalar, Scalar]:
    """Scalars whose swap schedule is (almost) all-swap / all-hold.

    The ladder swaps on consecutive-bit differences, so alternating bits
    swap on every iteration and a run of ones never swaps after the
    first.  Double-and-add swaps directly on the bits.  When the natural
    full-width pattern meets or exceeds the group order, the same
    pattern one bit narrower is used; only the leading window's label
    changes, and labels are taken from ground truth anyway.
    """
    bits = curve.n.bit_length()
    ones_wide = (1 << bits) - 1
    ones_narrow = (1 << (bits - 1)) - 1
    if multiplier == "ladder":
        alternating = sum(1 << i for i in range((bits - 1) % 2, bits, 2))
        if alternating >= curve.n:
            alternating = sum(1 << i for i in range(bits % 2, bits - 1, 2))
        mostly_swap = alternating
        mostly_hold = ones_wide if ones_wide < curve.n else ones_narrow
    elif multiplier == "daa":
        mostly_swap = ones_wide if ones_wide < curve.n else ones_narrow
        mostly_hold = 1
    else:
        raise ConfigError(f"unknown multiplier {multiplier!r}")
    return (
        Scalar.for_curve(mostly_swap, curve),
        Scalar.for_curve(mostly_hold, curve),
    )


def _training_runs(
    curve: CurveParams,
    variant: SwapVariant | SwapKind | str,
    count: int,
    rng: np.random.Generator,
    multiplier: str,
):
    """The event streams of ``count`` profiling runs, each drawn when it
    is due: its class (the mostly-swap or mostly-hold nonce), a random
    base point and the seed of a fresh swap variant."""
    kind = _variant_kind(variant)
    swap_nonce, hold_nonce = training_nonces(curve, multiplier)
    for _ in range(count):
        chosen_class = int(rng.integers(0, 2))
        nonce = swap_nonce if chosen_class else hold_nonce
        base_exp = 1 + _random_below(rng, curve.n - 1)
        variant_inst = SwapVariant(kind, rng_seed=int(rng.integers(0, 2**63)))
        recorder = EventRecorder()
        if multiplier == "ladder":
            # The ladder reads only the affine base: the untraced core serves.
            base = fast_multiply(base_exp, curve.generator, curve)
        else:
            # Double-and-add's events depend on this projective representative.
            generator = ProjectivePoint.from_affine(*curve.generator, curve.field)
            base = reference_multiply(base_exp, generator, curve)
        traced_multiply(multiplier, nonce, base, curve, variant_inst, recorder)
        yield recorder


def generate_training_set(
    curve: CurveParams,
    variant: SwapVariant | SwapKind | str,
    count: int,
    cfg: SimConfig,
    rng: np.random.Generator | None = None,
    *,
    multiplier: str = "ladder",
) -> TraceSet:
    """Full scalar multiplications with known per-swap conditions.

    Each trace randomly picks the mostly-swap or mostly-hold nonce and a
    random base point, runs the multiplier with a freshly seeded swap
    variant, and labels every swap window from ground truth, flagging
    those an interference burst covers.
    """
    if count < 1:
        raise DomainError("count must be at least 1")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    meta = {"curve": curve.name, "variant": _variant_kind(variant).value, "multiplier": multiplier}
    width = curve.n.bit_length()
    traces: list[LeakageTrace] = []
    labels = np.empty((count, width), dtype=np.int8)
    interfered = np.empty((count, width), dtype=bool)
    for i, recorder in enumerate(_training_runs(curve, variant, count, rng, multiplier)):
        trace = synthesize(recorder, cfg, rng, meta=meta)
        windows = swap_windows(trace)
        if len(windows) != width:
            raise DomainError("scalar multiplication recorded a short schedule")
        labels[i] = [w.cond for w in windows]
        interfered[i] = [w.interfered for w in windows]
        traces.append(trace)
    return TraceSet(traces, labels, interfered)


def swap_burst_width(
    curve: CurveParams, variant: SwapVariant | SwapKind | str, multiplier: str, cfg: SimConfig
) -> int:
    """Samples of one conditional swap of ``variant`` inside ``multiplier``
    on ``curve``, the width of every swap window no interruption splits,
    read off a one-bit scalar multiplication: a swap's events do not
    depend on its operands."""
    recorder = EventRecorder()
    base = ProjectivePoint.from_affine(*curve.generator, curve.field)
    swap = SwapVariant(_variant_kind(variant), rng_seed=0)
    traced_multiply(multiplier, Scalar(1, 1), base, curve, swap, recorder)
    kinds, _, conds = _event_columns(recorder)
    first, stop = _swap_bursts(kinds, conds)
    return int((cfg.samples_per_event // _DIVISORS)[kinds[first[0] : stop[0]]].sum())


def generate_swap_windows(
    variant: SwapVariant | SwapKind | str,
    word_count: int,
    conds: Sequence[int],
    cfg: SimConfig,
    rng: np.random.Generator | None = None,
) -> TraceSet:
    """Isolated conditional-swap executions over random operands.

    This is the capture campaign shape used for leakage assessment and
    profiling: many short traces, each covering a single swap with a
    known condition and fresh random register contents.  Each window
    draws its operands, variant seed and noise in that order, as if
    synthesized alone, but the windows share their event kinds, so they
    are laid out and rendered as one, a row of levels per window.
    Interruptions model a preempted scalar multiplication: none here.
    """
    if word_count < 1:
        raise DomainError("word_count must be at least 1")
    if len(conds) == 0:
        raise DomainError("conds must not be empty")
    if cfg.interruption_prob > 0.0:
        raise ConfigError("a swap-window campaign takes no interruptions")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    kind = _variant_kind(variant)
    recorder = EventRecorder()
    noise = None
    for i, cond in enumerate(conds):
        words = rng.integers(0, 2**64, 2 * word_count, dtype=np.uint64).tolist()
        pair = WordArrayPair(tuple(words[:word_count]), tuple(words[word_count:]))
        variant_inst = SwapVariant(kind, rng_seed=int(rng.integers(0, 2**63)))
        ct_swap(variant_inst, pair, int(cond), recorder)
        if cfg.noise_sigma > 0.0:
            if noise is None:  # every window lasts as long as the first
                width = int((cfg.samples_per_event // _DIVISORS)[recorder.kinds].sum())
                noise = np.empty((len(conds), width))
            rng.standard_normal(out=noise[i])
    kinds, leaks, _ = _event_columns(recorder)
    events = kinds.size // len(conds)
    layout = _layout(kinds[:events], leaks.reshape(len(conds), events), cfg, rng)
    width = int(layout.edges[-1])
    rows = _render(layout, np.array([[0, width]]), cfg, rng, noise)
    markers = MarkerTable.empty()
    meta = _trace_meta(cfg, {"variant": kind.value, "word_count": str(word_count)})
    traces = [LeakageTrace(row, cfg.sample_rate, markers, meta) for row in rows]
    labels = np.asarray(conds, dtype=np.int8).reshape(-1, 1)
    # A window spans its whole trace, so every burst covers it.
    interfered = np.full(labels.shape, any(_burst_spans(cfg, width)))
    return TraceSet(traces, labels, interfered)


def labels_path(path: Path | str) -> Path:
    """Sidecar CSV path paired with a trace file."""
    return Path(path).with_suffix(".labels.csv")


def write_trace_set(trace_set: TraceSet, path: Path | str) -> None:
    """Serialize traces and the label sidecar.

    Traces are padded with zeros to a common width; true lengths go into
    the shared meta block when they differ.  Meta keys whose values vary
    across traces are dropped (the sidecar carries per-trace truth).
    """
    path = Path(path)
    traces = trace_set.traces
    if not traces:
        raise DomainError("refusing to write an empty trace set")
    rate = traces[0].sample_rate
    if any(t.sample_rate != rate for t in traces):
        raise DomainError("traces in one file must share a sample rate")

    meta = dict(traces[0].meta)
    for trace in traces[1:]:
        for key in list(meta):
            if trace.meta.get(key) != meta[key]:
                del meta[key]
    lengths = [t.samples.size for t in traces]
    width = max(lengths)
    if any(n != width for n in lengths):
        meta["trace_lengths"] = ",".join(str(n) for n in lengths)
    meta_blob = "".join(f"{k}={v}\n" for k, v in sorted(meta.items())).encode()

    with open(path, "wb") as fh:
        fh.write(
            struct.pack(
                "<4sIdIII",
                TRACE_MAGIC,
                TRACE_VERSION,
                rate,
                len(traces),
                width,
                len(meta_blob),
            )
        )
        fh.write(meta_blob)
        # Each row, zero-padded, converted and written one block at a time.
        for trace in traces:
            for lo in range(0, width, _NOISE_BLOCK):
                block = np.zeros(min(width - lo, _NOISE_BLOCK), dtype="<f4")
                part = trace.samples[lo : lo + block.size]
                block[: part.size] = part
                fh.write(block)

    with open(labels_path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("trace_index", "swap_index", "cond", "interfered"))
        interfered = trace_set.interfered
        for i in range(trace_set.labels.shape[0]):
            for j in range(trace_set.labels.shape[1]):
                flag = int(interfered[i, j]) if interfered is not None else 0
                writer.writerow((i, j, int(trace_set.labels[i, j]), flag))


def check_file_size(fh: BinaryIO, declared: int, path: Path | str) -> None:
    """Reject a binary file whose size is not the one its header declares.

    Called before anything sized by the header is read or allocated, so
    a corrupt count fails here instead of requesting a huge buffer.
    """
    actual = os.fstat(fh.fileno()).st_size
    if actual != declared:
        raise DomainError(
            f"{path} holds {actual} bytes but its header declares {declared}"
        )


def parse_meta(blob: bytes, path: Path | str) -> dict[str, str]:
    """Decode a file's ``key=value`` meta block, one pair per line."""
    try:
        text = blob.decode()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: meta block is not UTF-8 ({exc})") from None
    meta: dict[str, str] = {}
    for line in text.splitlines():
        if line:
            key, _, value = line.partition("=")
            meta[key] = value
    return meta


def read_trace_set(path: Path | str) -> TraceSet:
    """Load a trace file and its label sidecar.

    Markers do not survive serialization; loaded traces carry an empty
    marker table and ground truth comes from the label matrix.
    """
    path = Path(path)
    header_size = struct.calcsize("<4sIdIII")
    with open(path, "rb") as fh:
        header = fh.read(header_size)
        if len(header) != header_size:
            raise DomainError(f"{path} is truncated")
        magic, version, rate, count, width, meta_len = struct.unpack(
            "<4sIdIII", header
        )
        if magic != TRACE_MAGIC:
            raise DomainError(f"{path} is not a trace file (bad magic)")
        if version != TRACE_VERSION:
            raise DomainError(f"unsupported trace file version {version}")
        check_file_size(fh, header_size + meta_len + 4 * count * width, path)
        meta = parse_meta(fh.read(meta_len), path)
        lengths = [width] * count
        if "trace_lengths" in meta:
            try:
                lengths = [int(v) for v in meta["trace_lengths"].split(",")]
            except ValueError:
                raise DomainError(f"{path}: trace_lengths meta is not integers") from None
            if len(lengths) != count or any(not 0 < n <= width for n in lengths):
                raise DomainError("trace_lengths meta disagrees with the payload")
        # Each row goes a block at a time through one float32 buffer into
        # its trace's own float64 array; the padding is checked and dropped.
        buffer = np.empty(max(1, min(width, _NOISE_BLOCK)), dtype="<f4")
        traces = []
        for length in lengths:
            samples = np.empty(length)
            for lo in range(0, width, buffer.size):
                block = buffer[: width - lo]
                fh.readinto(block)
                if not np.isfinite(block).all():
                    raise DomainError(f"{path} holds NaN or infinite samples")
                kept = block[: max(0, length - lo)]
                samples[lo : lo + kept.size] = kept
            traces.append(LeakageTrace(samples, rate, MarkerTable.empty(), dict(meta)))

    sidecar = labels_path(path)
    if not sidecar.exists():
        return TraceSet(traces, np.zeros((count, 0), dtype=np.int8))
    cells: dict[tuple[int, int], tuple[int, int]] = {}
    try:  # csv.Error: a field beyond the size limit, for one
        rows = list(csv.reader(io.StringIO(read_text(sidecar), newline="")))
    except csv.Error as exc:
        raise DomainError(f"{sidecar} is not readable CSV ({exc})") from None
    if rows[:1] != [["trace_index", "swap_index", "cond", "interfered"]]:
        raise DomainError(f"{sidecar} has an unexpected header")
    for row in rows[1:]:
        try:
            i, j, cond, flag = (int(v) for v in row)
        except ValueError:
            raise DomainError(f"{sidecar} has a malformed row: {row!r}") from None
        if not (0 <= i < count and j >= 0 and cond in (0, 1) and flag in (0, 1)):
            raise DomainError(f"{sidecar} has an out-of-range row: {row!r}")
        cells[(i, j)] = (cond, flag)
    if not cells:
        return TraceSet(traces, np.zeros((count, 0), dtype=np.int8))
    # Every key lies in [0, count) x [0, swaps), so the table is complete
    # exactly when it holds count * swaps keys; checked before allocating.
    swaps = max(j for _, j in cells) + 1
    if len(cells) != count * swaps:
        raise DomainError(f"{sidecar} does not cover {count} traces by {swaps} swaps")
    labels = np.empty((count, swaps), dtype=np.int8)
    interfered = np.empty((count, swaps), dtype=bool)
    for (i, j), (cond, flag) in cells.items():
        labels[i, j], interfered[i, j] = cond, flag
    return TraceSet(traces, labels, interfered)
