"""Waveform synthesis checks: envelopes, markers, files, determinism."""

import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from nonce_lab.analysis import harvest_swap_windows
from nonce_lab.errors import ConfigError, DomainError
from nonce_lab.dsp import _iteration_events
from nonce_lab.events import KIND_BY_CODE, EventRecorder, OpKind
from nonce_lab.ff_curve import (
    ProjectivePoint,
    Scalar,
    double_and_always_add,
    montgomery_ladder,
)
from nonce_lab.swap_impls import SwapKind, SwapVariant, WordArrayPair, ct_swap
from nonce_lab import tracesim
from nonce_lab.tracesim import (
    _DURATION_DIVISOR,
    LeakageTrace,
    MarkerTable,
    SimConfig,
    SwapWindow,
    TraceSet,
    generate_swap_windows,
    generate_training_set,
    labels_path,
    read_trace_set,
    swap_burst_width,
    swap_windows,
    synthesize,
    training_nonces,
    write_trace_set,
)

from oracles import (
    burst_overlay,
    generate_training_windows,
    marker_columns,
    whole_render,
    window_by_window_campaign,
)


def quiet_cfg(**overrides):
    overrides.setdefault("noise_sigma", 0.0)
    return SimConfig(**overrides)


def flat_events(count, kind=OpKind.FIELD_MUL, leak=0):
    rec = EventRecorder()
    for _ in range(count):
        rec.emit(kind, leak)
    return rec


def step_events(toy):
    """The arithmetic events of one traced ladder iteration."""
    return _iteration_events(toy, "ladder")


def test_config_rejects_nyquist_violation():
    with pytest.raises(ConfigError):
        SimConfig(f_cpu=2.0e6, mod_ratio=Fraction(1, 2), sample_rate=2.5e6)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"samples_per_event": 12},
        {"samples_per_event": 0},
        {"noise_sigma": -1.0},
        {"snr_scale": 0.0},
        {"interference": ((1.5, 0.1, 10.0),)},
        {"interference": ((0.1, 0.1, -1.0),)},
        {"interruption_prob": 2.0},
        {"seed": -1},
        {"mod_ratio": 0},
        {"interference": ((0.1, 0.1, float("nan")),)},
        {"f_cpu": float("nan")},
        {"sample_rate": float("nan")},
        {"sample_rate": float("inf")},
        {"noise_sigma": float("nan")},
        {"noise_sigma": float("inf")},
        {"snr_scale": float("inf")},
        {"baseline": float("nan")},
        {"activity_floor": float("inf")},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        SimConfig(**kwargs)


def test_synthesize_rejects_empty_stream():
    with pytest.raises(DomainError):
        synthesize(EventRecorder(), quiet_cfg())


@pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
def test_trace_rejects_bad_sample_rate(rate):
    with pytest.raises(DomainError):
        LeakageTrace(np.zeros(4), rate, MarkerTable.empty(), {})


def test_recorder_rows_follow_emission_order():
    emitted = [
        (OpKind.FIELD_MUL, 300, -1),
        (OpKind.MASK_COMPUTE, 64, 1),
        (OpKind.STORE_A, 0, 0),
        (OpKind.FIELD_ADD_SUB, 7, -1),
    ]
    rec = EventRecorder()
    for kind, leak, cond in emitted:
        rec.emit(kind, leak, cond)
    assert len(rec) == 4
    assert [KIND_BY_CODE[code] for code in rec.kinds] == [k for k, _, _ in emitted]
    assert rec.leaks == [leak for _, leak, _ in emitted]
    assert rec.conds == [cond for _, _, cond in emitted]
    markers = synthesize(rec, quiet_cfg()).markers
    assert len(markers) == len(emitted)
    assert markers.kinds.tolist() == rec.kinds
    assert markers.conds.tolist() == [-1, 1, 0, -1]


@pytest.mark.parametrize(
    "kind, leak, cond",
    [
        (OpKind.FIELD_MUL, -1, None),
        (OpKind.STORE_B, 65, 1),
        (OpKind.DELTA_COMPUTE, 3, 2),
        (OpKind.MASK_COMPUTE, 0, -1),
        (OpKind.FIELD_ADD_SUB, -1, -1),
    ],
)
def test_synthesize_rejects_invalid_events(kind, leak, cond):
    rec = EventRecorder()
    rec.emit(OpKind.FIELD_MUL, 0)
    rec.emit(kind, leak, cond)
    with pytest.raises(DomainError):
        synthesize(rec, quiet_cfg())


@pytest.mark.parametrize("cond", [-5, 2, 300, None, 0.5])
@pytest.mark.parametrize("kind", [OpKind.FIELD_MUL, OpKind.MASK_COMPUTE])
def test_synthesize_rejects_bad_cond_column(kind, cond):
    rec = EventRecorder()
    rec.emit(OpKind.FIELD_MUL, 0)
    rec.extend((kind.code,), [1], cond)
    with pytest.raises(DomainError):
        synthesize(rec, quiet_cfg())


@pytest.mark.parametrize("variant", list(SwapKind))
def test_markers_of_mixed_recorder_match_event_by_event(toy, variant):
    # Bursts, field ops and (combined) rerandomizations interleaved.
    rec = EventRecorder()
    montgomery_ladder(
        Scalar.for_curve(0b10110011101, toy), toy.generator, toy,
        SwapVariant(variant, rng_seed=3), rec,
    )
    G = ProjectivePoint.from_affine(*toy.generator, toy.field)
    double_and_always_add(
        Scalar.for_curve(0b1101, toy), G, toy, SwapVariant(variant, rng_seed=4), rec
    )
    cfg = quiet_cfg()
    markers = synthesize(rec, cfg).markers
    assert markers == MarkerTable(
        *marker_columns(rec, cfg.samples_per_event, _DURATION_DIVISOR)
    )
    assert set(markers.conds.tolist()) == {-1, 0, 1}


def test_noise_is_one_normal_draw_across_blocks():
    # Long enough for several noise blocks and a partial last one.
    events = flat_events(9000, leak=5)
    quiet = synthesize(events, quiet_cfg(seed=6))
    noisy = synthesize(events, quiet_cfg(seed=6, noise_sigma=2.5))
    assert quiet.samples.size > 3 * tracesim._NOISE_BLOCK
    expected = quiet.samples + np.random.default_rng(6).normal(0.0, 2.5, quiet.samples.size)
    assert np.array_equal(noisy.samples, expected)


def test_zero_leak_events_give_pure_carrier():
    cfg = quiet_cfg()
    trace = synthesize(flat_events(40), cfg)
    spectrum = np.abs(np.fft.rfft(trace.samples))
    peak = 1 + int(np.argmax(spectrum[1:]))
    expected = cfg.f_mod * trace.samples.size / cfg.sample_rate
    assert abs(peak - expected) <= 1.0
    # constant envelope: no energy away from the carrier line beyond
    # rectangular-window leakage
    off_band = spectrum.copy()
    off_band[max(0, peak - 8) : peak + 9] = 0.0
    assert off_band.max() < 0.05 * spectrum[peak]


def test_full_trace_spectrum_peaks_at_carrier(toy):
    cfg = quiet_cfg()
    rec = EventRecorder()
    montgomery_ladder(
        Scalar.for_curve(0x51F3, toy), toy.generator, toy,
        SwapVariant(SwapKind.PLAIN), rec,
    )
    trace = synthesize(rec, cfg)
    spectrum = np.abs(np.fft.rfft(trace.samples))
    peak = 1 + int(np.argmax(spectrum[1:]))
    expected = cfg.f_mod * trace.samples.size / cfg.sample_rate
    assert abs(peak - expected) <= 2.0


def test_fixed_seed_reproduces_trace(toy):
    events = step_events(toy)
    a = synthesize(events, SimConfig(seed=7))
    b = synthesize(events, SimConfig(seed=7))
    c = synthesize(events, SimConfig(seed=8))
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)
    assert a.markers == b.markers


def test_joint_frequency_scaling_is_invariant(toy):
    events = step_events(toy)
    a = synthesize(events, quiet_cfg())
    b = synthesize(events, quiet_cfg(f_cpu=3.6e6, mod_ratio=Fraction(1, 28)))
    assert np.array_equal(a.samples, b.samples)


def test_markers_tile_the_trace(toy):
    cfg = quiet_cfg()
    events = step_events(toy)
    trace = synthesize(events, cfg)
    mt = trace.markers
    assert len(mt) == len(events)
    assert mt.starts[0] == 0
    assert (mt.starts[1:] == mt.ends[:-1]).all()
    assert int(mt.ends[-1]) == trace.samples.size
    durations = mt.ends - mt.starts
    kinds = [KIND_BY_CODE[code] for code in mt.kinds]
    for kind, dur in zip(kinds, durations):
        if kind in (OpKind.FIELD_MUL, OpKind.FIELD_SQUARE):
            assert dur == cfg.samples_per_event
        elif kind is OpKind.FIELD_ADD_SUB:
            assert dur == cfg.samples_per_event // 4


def test_step_envelope_shows_eight_peak_groups(toy):
    trace = synthesize(step_events(toy), quiet_cfg())
    smooth = np.convolve(np.abs(trace.samples), np.ones(20) / 20.0, "same")
    threshold = (smooth.max() + smooth.min()) / 2.0
    above = np.concatenate(([0], (smooth > threshold).astype(np.int8), [0]))
    edges = np.flatnonzero(np.diff(above))
    runs = edges[1::2] - edges[::2]
    spe = 64
    assert [round(r / spe + 0.25) for r in runs] == [5, 2, 1, 2, 3, 1, 3, 3]


def test_interruption_splices_a_silent_gap(toy):
    events = step_events(toy)
    plain = synthesize(events, quiet_cfg())
    gapped = synthesize(events, quiet_cfg(interruption_prob=1.0, seed=3))
    extra = gapped.samples.size - plain.samples.size
    assert 64 <= extra <= 8 * 64
    zero_run = 0
    best = 0
    for v in gapped.samples:
        zero_run = zero_run + 1 if v == 0.0 else 0
        best = max(best, zero_run)
    assert best >= extra
    assert int(gapped.markers.ends[-1]) == gapped.samples.size


def test_interference_noop_without_bursts(toy):
    """Bursts of zero length render the burst-free trace and leave the
    generator's children unspawned."""
    rng = np.random.default_rng(4)
    trace = synthesize(step_events(toy), SimConfig(interference=((0.5, 0.0, 9.0),)), rng)
    assert rng.bit_generator.seed_seq.n_children_spawned == 0
    plain = synthesize(step_events(toy), SimConfig(), np.random.default_rng(4))
    assert trace.samples.tobytes() == plain.samples.tobytes()
    assert trace.markers == plain.markers and not trace.markers.interfered.any()


def test_interference_flags_covered_markers(toy):
    trace = synthesize(step_events(toy), quiet_cfg())
    noisy = synthesize(step_events(toy), quiet_cfg(interference=((0.25, 0.2, 100.0),)))
    n = trace.samples.size
    start, stop = round(0.25 * n), round(0.25 * n) + round(0.2 * n)

    outside = np.ones(n, dtype=bool)
    outside[start:stop] = False
    assert np.array_equal(noisy.samples[outside], trace.samples[outside])
    burst_power = np.mean((noisy.samples[start:stop] - trace.samples[start:stop]) ** 2)
    assert burst_power > 20.0 * np.mean(trace.samples**2)

    before, after = trace.markers, noisy.markers
    for i in range(len(before)):
        overlaps = before.starts[i] < stop and before.ends[i] > start
        assert after.interfered[i] == overlaps
        assert not before.interfered[i]


@pytest.mark.parametrize("multiplier", ["ladder", "daa"])
def test_bursts_match_the_reference_overlay(toy, multiplier):
    """Rendered with the trace, bursts leave every sample outside them,
    and the operand, noise and interruption draws, as the reference
    overlay on the burst-free trace does, and flag the same markers;
    overlaid from the trace generator's first child, the reference
    matches inside them too, bit for bit."""
    rec = EventRecorder()
    scalar = Scalar.for_curve(0x9C31, toy)
    if multiplier == "ladder":
        montgomery_ladder(scalar, toy.generator, toy, SwapVariant(SwapKind.PLAIN), rec)
    else:
        G = ProjectivePoint.from_affine(*toy.generator, toy.field)
        double_and_always_add(scalar, G, toy, SwapVariant(SwapKind.PLAIN), rec)
    bursts = ((0.1, 0.2, 5.0), (0.7, 0.05, 3.0))
    for interruption_prob in (0.0, 1.0):
        cfg = SimConfig(interference=bursts, interruption_prob=interruption_prob, seed=5)
        got = synthesize(rec, cfg)
        clean = synthesize(rec, SimConfig(interruption_prob=interruption_prob, seed=5))
        want = burst_overlay(clean, cfg, np.random.default_rng(5).spawn(1)[0])
        n = got.samples.size
        assert n == clean.samples.size
        outside = np.ones(n, dtype=bool)
        for start, length, _ in bursts:
            outside[round(start * n) : round(start * n) + round(length * n)] = False
        assert got.samples[outside].tobytes() == want.samples[outside].tobytes()
        assert not np.array_equal(got.samples[~outside], clean.samples[~outside])
        assert got.samples.tobytes() == want.samples.tobytes()
        assert got.markers == want.markers
        assert 0 < got.markers.interfered.sum() < len(got.markers)


def test_burst_shorter_than_the_smoothing_kernel_keeps_its_length():
    # 6 samples of burst against a 32-sample kernel.
    cfg = quiet_cfg(interference=((0.5, 0.05, 5.0),))
    trace = synthesize(flat_events(2), cfg)
    plain = synthesize(flat_events(2), quiet_cfg())
    changed = np.flatnonzero(trace.samples != plain.samples)
    assert 0 < changed.size and 64 <= changed.min() and changed.max() < 64 + 7
    assert trace.markers.interfered.tolist() == [False, True]


@pytest.mark.parametrize("multiplier", ["ladder", "daa"])
def test_training_nonces_schedule_extremes(toy, multiplier):
    mostly_swap, mostly_hold = training_nonces(toy, multiplier)
    width = toy.n.bit_length()
    for scalar in (mostly_swap, mostly_hold):
        assert 1 <= scalar.value < toy.n
        assert scalar.bit_length == width
    bits = [[s.bit(i) for i in range(width - 1, -1, -1)] for s in (mostly_swap, mostly_hold)]
    if multiplier == "ladder":
        conds = [
            [b[0]] + [b[i] ^ b[i - 1] for i in range(1, width)] for b in bits
        ]
    else:
        conds = bits
    assert sum(conds[0]) >= width - 1
    assert sum(conds[1]) <= 1


def test_training_set_labels_match_schedule(toy):
    cfg = quiet_cfg(samples_per_event=8)
    ts = generate_training_set(toy, SwapKind.PLAIN, 6, cfg)
    width = toy.n.bit_length()
    assert ts.labels.shape == (6, width)
    mostly_swap, mostly_hold = training_nonces(toy, "ladder")

    def ladder_conds(scalar):
        bits = [scalar.bit(i) for i in range(width - 1, -1, -1)]
        return [bits[0]] + [bits[i] ^ bits[i - 1] for i in range(1, width)]

    expected = {tuple(ladder_conds(mostly_swap)), tuple(ladder_conds(mostly_hold))}
    seen = {tuple(int(v) for v in row) for row in ts.labels}
    assert seen <= expected
    assert len(seen) == 2


def test_training_set_all_swap_rows_on_wide_curve(p128):
    # On this curve the full-width alternating nonce stays below n, so
    # the mostly-swap class swaps on every single iteration.
    cfg = quiet_cfg(samples_per_event=8)
    ts = generate_training_set(p128, "plain", 4, cfg, np.random.default_rng(2))
    swap_rows = [row for row in ts.labels if row.sum() > ts.labels.shape[1] // 2]
    assert swap_rows
    for row in swap_rows:
        assert row.sum() == ts.labels.shape[1]


def test_training_set_class_balance(toy):
    # Class choice is a fair coin per trace; at 400 draws a 2.6-sigma
    # band around 1/2 is +/-0.065.
    cfg = quiet_cfg(samples_per_event=8, seed=5)
    ts = generate_training_set(toy, SwapKind.PLAIN, 400, cfg)
    swap_fraction = np.mean(ts.labels.sum(axis=1) > ts.labels.shape[1] // 2)
    assert abs(swap_fraction - 0.5) < 0.065


def test_swap_windows_carry_ladder_conditions(toy):
    k = 0x9C31
    rec = EventRecorder()
    montgomery_ladder(
        Scalar.for_curve(k, toy), toy.generator, toy,
        SwapVariant(SwapKind.PLAIN), rec,
    )
    cfg = quiet_cfg()
    windows = swap_windows(synthesize(rec, cfg))
    width = toy.n.bit_length()
    assert len(windows) == width
    bits = [(k >> i) & 1 for i in range(width - 1, -1, -1)]
    expected = [bits[0]] + [bits[i] ^ bits[i - 1] for i in range(1, width)]
    assert [w.cond for w in windows] == expected
    # Plain swap over the 3-word register pair: mask event plus three
    # word triples, an eighth of an event each.
    span = 10 * (cfg.samples_per_event // 8)
    assert all(w.end - w.start == span for w in windows)
    assert not any(w.interfered for w in windows)


def test_swap_windows_runs_flags_and_mixed_conditions():
    word, arith = OpKind.STORE_A.code, OpKind.FIELD_MUL.code
    kinds = [arith, word, word, arith, word, word, word]
    conds = [-1, 1, 1, -1, 0, 0, 0]
    # Interference right before, between and at the start of the runs.
    interfered = [True, False, False, True, True, False, False]
    starts = 4 * np.arange(len(kinds))

    def trace(conds):
        markers = MarkerTable(starts, starts + 4, kinds, conds, interfered)
        return LeakageTrace(np.zeros(28), 1.0, markers, {})

    assert swap_windows(trace(conds)) == [
        SwapWindow(4, 12, 1, False),
        SwapWindow(16, 28, 0, True),
    ]
    conds[5] = 1
    with pytest.raises(DomainError):
        swap_windows(trace(conds))


def test_generate_swap_windows_layout_and_labels():
    cfg = quiet_cfg()
    conds = [0, 1, 0, 1, 1, 0]
    ts = generate_swap_windows(SwapKind.PLAIN, 9, conds, cfg)
    assert ts.labels[:, 0].tolist() == conds
    sizes = {t.samples.size for t in ts.traces}
    assert sizes == {(1 + 3 * 9) * (cfg.samples_per_event // 8)}
    again = generate_swap_windows(SwapKind.PLAIN, 9, conds, cfg)
    for a, b in zip(ts.traces, again.traces):
        assert np.array_equal(a.samples, b.samples)


@pytest.mark.parametrize("sigma", [0.0, 2.0])
@pytest.mark.parametrize("word_count", [1, 9])
@pytest.mark.parametrize("variant", list(SwapKind))
def test_campaign_equals_the_window_by_window_reference(variant, word_count, sigma):
    cfg = SimConfig(noise_sigma=sigma, seed=31)
    conds = [0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0]
    ts = generate_swap_windows(variant, word_count, conds, cfg, np.random.default_rng(8))
    ref = window_by_window_campaign(variant, word_count, conds, cfg, np.random.default_rng(8))
    got = np.stack([t.samples for t in ts.traces])
    assert got.tobytes() == np.stack([t.samples for t in ref.traces]).tobytes()
    assert np.array_equal(ts.labels, ref.labels)
    assert not ts.interfered.any()
    assert all(t.meta == ref.traces[0].meta for t in ts.traces)
    assert len({id(t.markers) for t in ts.traces}) == 1 and len(ts.traces[0].markers) == 0


def test_campaign_bursts_cover_every_window():
    conds = [0, 1, 1, 0]
    cfg = SimConfig(seed=2, interference=((0.3, 0.1, 5.0),))
    ts = generate_swap_windows("plain", 9, conds, cfg)
    ref = window_by_window_campaign("plain", 9, conds, SimConfig(seed=2), np.random.default_rng(2))
    got, want = (np.stack([t.samples for t in s.traces]) for s in (ts, ref))
    width = got.shape[1]
    start, stop = round(0.3 * width), round(0.3 * width) + round(0.1 * width)
    inside = np.zeros(width, dtype=bool)
    inside[start:stop] = True
    assert got[:, ~inside].tobytes() == want[:, ~inside].tobytes()
    assert (got[:, inside] != want[:, inside]).all(axis=1).any()
    # Each window draws its own burst.
    assert not np.array_equal(got[0, inside] - want[0, inside], got[1, inside] - want[1, inside])
    assert ts.interfered.all()


def test_campaign_takes_no_interruptions():
    with pytest.raises(ConfigError, match="interruptions"):
        generate_swap_windows("plain", 1, [0, 1], quiet_cfg(interruption_prob=0.01))


def test_trace_set_rejects_mismatched_labels(toy):
    trace = synthesize(step_events(toy), quiet_cfg())
    with pytest.raises(DomainError):
        TraceSet([trace, trace], np.zeros((1, 4), dtype=np.int8))


def test_trace_file_roundtrip(tmp_path, toy):
    cfg = SimConfig(samples_per_event=8, seed=9)
    ts = generate_training_set(toy, SwapKind.LIBGCRYPT, 3, cfg)
    path = tmp_path / "train.sctr"
    write_trace_set(ts, path)
    assert labels_path(path) == tmp_path / "train.labels.csv"
    assert labels_path(path).exists()

    loaded = read_trace_set(path)
    assert np.array_equal(loaded.labels, ts.labels)
    assert loaded.interfered is not None and not loaded.interfered.any()
    for orig, back in zip(ts.traces, loaded.traces):
        assert back.sample_rate == orig.sample_rate
        assert np.array_equal(
            back.samples, orig.samples.astype(np.float32).astype(np.float64)
        )
        assert back.meta["curve"] == toy.name
        assert len(back.markers) == 0


def test_trace_file_preserves_ragged_lengths(tmp_path, toy):
    cfg = quiet_cfg()
    uneven = [
        synthesize(flat_events(10), cfg),
        synthesize(flat_events(17), cfg),
    ]
    ts = TraceSet(uneven, np.zeros((2, 0), dtype=np.int8))
    path = tmp_path / "ragged.sctr"
    write_trace_set(ts, path)
    loaded = read_trace_set(path)
    assert [t.samples.size for t in loaded.traces] == [
        t.samples.size for t in uneven
    ]


@pytest.mark.parametrize("lengths", [[1_133_696], [70_000, 131_072, 5]], ids=["victim", "ragged"])
def test_reading_a_trace_file_peaks_near_what_it_keeps(tmp_path, lengths):
    """Each trace's float64 array is filled straight from the file's
    float32 rows, a block at a time: no payload-wide copy exists."""
    rng = np.random.default_rng(0)
    traces = [LeakageTrace(rng.standard_normal(n), 2.5e6, MarkerTable.empty(), {}) for n in lengths]
    path = tmp_path / "t.trc"
    write_trace_set(TraceSet(traces, np.zeros((len(traces), 0), dtype=np.int8)), path)
    tracemalloc.start()
    try:
        loaded = read_trace_set(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(t.samples.nbytes for t in loaded.traces)
    assert peak <= 1.6 * kept
    for orig, back in zip(traces, loaded.traces):
        assert back.samples.tobytes() == orig.samples.astype(np.float32).astype(np.float64).tobytes()


def test_trace_file_writes_are_byte_identical(tmp_path, toy):
    cfg = SimConfig(samples_per_event=8, seed=4)
    ts = generate_training_set(toy, SwapKind.PLAIN, 2, cfg)
    first, second = tmp_path / "a.sctr", tmp_path / "b.sctr"
    write_trace_set(ts, first)
    write_trace_set(ts, second)
    assert first.read_bytes() == second.read_bytes()
    assert labels_path(first).read_bytes() == labels_path(second).read_bytes()


def test_trace_file_rejects_garbage(tmp_path):
    bogus = tmp_path / "bogus.sctr"
    bogus.write_bytes(b"NOPE" + bytes(60))
    with pytest.raises(DomainError):
        read_trace_set(bogus)
    short = tmp_path / "short.sctr"
    short.write_bytes(b"SCTR\x01")
    with pytest.raises(DomainError):
        read_trace_set(short)


def test_trace_file_rejects_bad_meta_and_oversized_header(tmp_path, toy):
    path = tmp_path / "t.sctr"
    write_trace_set(generate_training_set(toy, SwapKind.PLAIN, 1, quiet_cfg()), path)
    blob = bytearray(path.read_bytes())
    header_size = struct.calcsize("<4sIdIII")
    blob[header_size] = 0xFF
    path.write_bytes(blob)
    with pytest.raises(DomainError, match="UTF-8"):
        read_trace_set(path)
    # count = width = 2**32 - 1 declares about 2**66 payload bytes; the
    # size check against the 32-byte file must reject it unread.
    path.write_bytes(
        struct.pack("<4sIdIII", b"SCTR", 1, 2.5e6, 2**32 - 1, 2**32 - 1, 0) + bytes(4)
    )
    with pytest.raises(DomainError, match="header declares"):
        read_trace_set(path)


def test_cached_carrier_is_read_only(p521):
    """Profiling renders cache their carrier one block of whole swap
    windows at a time, as many rows as fit in ``_NOISE_BLOCK`` samples;
    the second run's blocks are all hits, and every block is read-only."""
    cfg = quiet_cfg()
    windows = swap_windows(generate_training_set(p521, "plain", 1, cfg).traces[0])
    width = windows[0].end - windows[0].start
    rows = tracesim._NOISE_BLOCK // width
    tracesim._carrier.cache_clear()
    generate_training_windows(p521, "plain", 2, cfg, np.random.default_rng(1))
    info = tracesim._carrier.cache_info()
    assert info.hits == info.misses == info.currsize == -(-len(windows) // rows)
    starts = np.array([w.start for w in windows[:rows]], dtype=np.int64)
    carrier = tracesim._carrier(width, cfg.sample_rate, cfg.f_mod, starts.tobytes())
    assert tracesim._carrier.cache_info().hits == info.hits + 1
    assert carrier.shape == (rows, width) and not carrier.flags.writeable
    with pytest.raises(ValueError):
        carrier[0, 0] = 0.0


def test_carrier_rows_follow_their_sample_index():
    starts = np.array([0, 7, 1000, 3 * tracesim._NOISE_BLOCK + 5], dtype=np.int64)
    carrier = tracesim._carrier(5, 2.5e6, 1.0e5, starts.tobytes())
    # Each row is the expression at its absolute sample index, bit for bit.
    index = starts[:, None] + np.arange(5)
    assert carrier.tobytes() == np.cos(index / 2.5e6 * (2.0 * np.pi * 1.0e5)).tobytes()


@pytest.mark.parametrize("interruption_prob", [0.0, 1.0])
def test_synthesize_with_cached_carrier_matches_a_fresh_one(toy, p128, interruption_prob):
    """Lengths alternate (and gaps splice in), so the block cache both
    hits and misses; every trace, and every profiling run's windows, equals
    one rendered on fresh blocks.  A trace longer than a block leaves the
    cache as it was: the pieces of one long row never recur."""
    cfg = SimConfig(samples_per_event=8, interruption_prob=interruption_prob, seed=3)
    short, long = flat_events(40), step_events(toy)
    streams = [short, short, long, long, short, long]
    tracesim._carrier.cache_clear()
    warm = [synthesize(ev, cfg, np.random.default_rng(i)) for i, ev in enumerate(streams)]
    windows = generate_training_windows(p128, "plain", 3, cfg, np.random.default_rng(7))[0]
    info = tracesim._carrier.cache_info()
    assert len({t.samples.size for t in warm}) > 1 and info.misses
    assert info.hits or interruption_prob  # gaps make every render differ
    synthesize(flat_events(9000), cfg)
    assert tracesim._carrier.cache_info()[1:] == info[1:]  # no new miss or entry
    for i, ev in enumerate(streams):
        tracesim._carrier.cache_clear()
        fresh = synthesize(ev, cfg, np.random.default_rng(i))
        assert np.array_equal(warm[i].samples, fresh.samples)
    tracesim._carrier.cache_clear()
    fresh = generate_training_windows(p128, "plain", 3, cfg, np.random.default_rng(7))[0]
    assert windows.tobytes() == fresh.tobytes()


def _ladder_columns(curve, seed):
    rec = EventRecorder()
    scalar = Scalar.for_curve(int(np.random.default_rng(seed).integers(1, 2**62)), curve)
    montgomery_ladder(scalar, curve.generator, curve, SwapVariant(SwapKind.PLAIN, rng_seed=seed), rec)
    return tracesim._event_columns(rec)


def _render_both(layout_of, spans_of, cfg, seed, noise=None):
    """``_render`` and the whole-array oracle on one layout, each from its
    own generator of ``seed``; both generators must end in one state."""
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    layout, want_layout = layout_of(got_rng), layout_of(want_rng)
    assert layout.edges.tobytes() == want_layout.edges.tobytes()
    spans = spans_of(layout)
    # _render scales the caller's draws in place.
    got = tracesim._render(layout, spans, cfg, got_rng, None if noise is None else noise.copy())
    want = whole_render(want_layout, spans, cfg, want_rng, noise)
    assert got.tobytes() == want.tobytes()
    assert got_rng.random() == want_rng.random()
    return layout, got


@pytest.mark.parametrize(
    "interruption_prob, interference",
    [(0.0, ()), (1.0, ()), (1.0, ((0.2, 0.2, 5.0), (0.7, 0.25, 3.0)))],
)
def test_blocked_render_matches_the_whole_array_oracle(p128, interruption_prob, interference):
    """A whole trace of several blocks, with block edges inside segments,
    an interruption gap and bursts across block edges, bit for bit."""
    kinds, leaks, _ = _ladder_columns(p128, 1)
    cfg = SimConfig(noise_sigma=2.0, interruption_prob=interruption_prob, interference=interference)
    layout, got = _render_both(
        lambda rng: tracesim._layout(kinds, leaks, cfg, rng), lambda lay: np.array([[0, lay.edges[-1]]]), cfg, 9
    )
    n, block = got.size, tracesim._NOISE_BLOCK
    cuts = np.arange(block, n, block)
    assert n > 3 * block and not np.isin(cuts, layout.edges).all()
    assert (layout.levels == 0.0).any() == (interruption_prob == 1.0)
    for start, stop, _ in tracesim._burst_spans(cfg, n):
        assert ((start < cuts) & (cuts < stop)).any()


def test_blocked_multi_row_renders_match_the_whole_array_oracle(p128, p521):
    """Swap windows of a profiling run over several blocks of rows; a
    campaign's rows, with given noise and bursts; and two traces longer
    than a block, whose bursts are drawn trace after trace."""
    kinds, leaks, conds = _ladder_columns(p521, 2)
    first, stop = tracesim._swap_bursts(kinds, conds)
    cfg = SimConfig(noise_sigma=2.0)
    _, rows = _render_both(
        lambda rng: tracesim._layout(kinds, leaks, cfg, rng),
        lambda lay: np.stack((lay.starts[first], lay.ends[stop - 1]), axis=1), cfg, 4,
    )
    assert len(rows) == 521 and rows.size > 3 * tracesim._NOISE_BLOCK

    rec = EventRecorder()
    words = WordArrayPair(tuple(range(9)), tuple(range(9, 18)))
    for cond in range(2):
        ct_swap(SwapVariant(SwapKind.MASKED, rng_seed=cond), words, cond, rec)
    campaign_kinds, campaign_leaks, _ = tracesim._event_columns(rec)
    events = campaign_kinds.size // 2
    width = int((cfg.samples_per_event // tracesim._DIVISORS)[campaign_kinds[:events]].sum())
    count = 3 * tracesim._NOISE_BLOCK // width + 7
    campaign_leaks = np.resize(campaign_leaks, (count, events))
    campaign_cfg = SimConfig(noise_sigma=1.5, interference=((0.1, 0.5, 3.0),))
    noise = np.random.default_rng(3).standard_normal((count, width))
    _render_both(
        lambda rng: tracesim._layout(campaign_kinds[:events], campaign_leaks, campaign_cfg, rng),
        lambda lay: np.array([[0, width]]), campaign_cfg, 5, noise,
    )

    kinds, leaks, _ = _ladder_columns(p128, 3)
    burst_cfg = SimConfig(noise_sigma=2.0, interference=((0.1, 0.3, 5.0),))
    _, rows = _render_both(
        lambda rng: tracesim._layout(kinds, np.stack((leaks, leaks[::-1])), burst_cfg, rng),
        lambda lay: np.array([[0, lay.edges[-1]]]), burst_cfg, 6,
    )
    assert rows.shape[0] == 2 and rows.shape[1] > tracesim._NOISE_BLOCK


def test_non_utf8_label_sidecar_is_domain_error(tmp_path):
    cfg = quiet_cfg(samples_per_event=8, seed=2)
    path = tmp_path / "w.trc"
    write_trace_set(generate_swap_windows(SwapKind.PLAIN, 1, [0, 1], cfg), path)
    labels_path(path).write_bytes(b"\xfftrace_index,swap_index,cond,interfered\n")
    with pytest.raises(DomainError, match="UTF-8"):
        read_trace_set(path)


def _harvest(curve, variant, count, cfg, seed, multiplier):
    """Profiling through full traces: render them whole, bursts and their
    flags included, and cut out the windows no burst covers."""
    full = generate_training_set(
        curve, variant, count, cfg, np.random.default_rng(seed), multiplier=multiplier
    )
    return full, harvest_swap_windows(full)


def _rendered(curve, variant, count, cfg, seed, multiplier):
    return generate_training_windows(
        curve, variant, count, cfg, np.random.default_rng(seed), multiplier=multiplier
    )


@pytest.mark.parametrize("multiplier", ["ladder", "daa"])
@pytest.mark.parametrize("variant", list(SwapKind))
def test_rendered_windows_equal_the_harvested_ones(toy, variant, multiplier):
    cfg = quiet_cfg(seed=3)
    rows, labels, meta = _rendered(toy, variant, 3, cfg, 8, multiplier)
    full, harvested = _harvest(toy, variant, 3, cfg, 8, multiplier)
    expected = np.stack([t.samples for t in harvested.traces])
    assert rows.tobytes() == expected.tobytes()
    assert labels.tolist() == harvested.labels[:, 0].tolist()
    assert meta == {key: full.traces[0].meta[key] for key in ("curve", "variant", "multiplier")}


@pytest.mark.parametrize("multiplier", ["ladder", "daa"])
def test_rendered_windows_leave_out_the_interfered_ones(toy, multiplier):
    cfg = quiet_cfg(seed=3, interference=((0.1, 0.2, 5.0), (0.6, 0.05, 5.0)))
    rows, labels, _ = _rendered(toy, "plain", 4, cfg, 12, multiplier)
    _, harvested = _harvest(toy, "plain", 4, cfg, 12, multiplier)
    assert 0 < len(rows) < 4 * toy.n.bit_length()
    assert rows.tobytes() == np.stack([t.samples for t in harvested.traces]).tobytes()
    assert labels.tolist() == harvested.labels[:, 0].tolist()


def test_burst_flush_with_window_edges_spares_its_neighbours(toy):
    """A burst that starts where one window ends and stops where a later
    one starts covers neither of them."""
    trace = generate_training_set(toy, "plain", 1, quiet_cfg()).traces[0]
    windows, n = swap_windows(trace), len(trace)
    start, stop = windows[3].end, windows[6].start
    cfg = quiet_cfg(interference=((start / n, (stop - start) / n, 5.0),))
    rows, _, _ = _rendered(toy, "plain", 1, cfg, 0, "ladder")
    _, harvested = _harvest(toy, "plain", 1, cfg, 0, "ladder")
    assert len(rows) == len(windows) - 2
    assert rows.tobytes() == np.stack([t.samples for t in harvested.traces]).tobytes()


@pytest.mark.parametrize("multiplier", ["ladder", "daa"])
def test_rendered_windows_leave_out_the_ones_a_gap_splits(toy, multiplier):
    # Every run splices a gap; where it falls inside a swap burst, the cut
    # window is longer than the rest and cannot join the matrix.
    cfg = quiet_cfg(seed=3, interruption_prob=1.0)
    rows, labels, _ = _rendered(toy, "plain", 12, cfg, 4, multiplier)
    _, harvested = _harvest(toy, "plain", 12, cfg, 4, multiplier)
    whole = [i for i, t in enumerate(harvested.traces) if t.samples.size == rows.shape[1]]
    assert len(rows) == len(whole) < len(harvested.traces)
    assert rows.tobytes() == np.stack([harvested.traces[i].samples for i in whole]).tobytes()
    assert labels.tolist() == harvested.labels[whole, 0].tolist()


@pytest.mark.parametrize("generate", [generate_training_set])
@pytest.mark.parametrize("count", [0, -1])
def test_training_needs_a_run(toy, generate, count):
    with pytest.raises(DomainError, match="count"):
        generate(toy, "plain", count, quiet_cfg())


def test_window_noise_is_one_draw_over_the_rendered_samples(toy):
    """Noise covers the window samples only, in one draw, row after row,
    taken where the run's own draws end."""
    noisy, _, _ = _rendered(toy, "plain", 1, quiet_cfg(seed=3, noise_sigma=2.0), 5, "ladder")
    rng = np.random.default_rng(5)
    quiet, _, _ = generate_training_windows(toy, "plain", 1, quiet_cfg(seed=3), rng)
    expected = quiet + 2.0 * rng.standard_normal(quiet.shape)
    assert noisy.tobytes() == expected.tobytes()


def test_training_renders_the_swap_windows_only(p521, monkeypatch):
    """Profiling a secp521r1 run renders its 521 swap windows in one
    call, 30% of the trace's samples, and nothing else."""
    calls = []

    def spy(layout, spans, cfg, rng):
        calls.append((int(layout.edges[-1]), spans.copy()))
        return render(layout, spans, cfg, rng)

    render = tracesim._render
    monkeypatch.setattr(tracesim, "_render", spy)
    rows, _, _ = generate_training_windows(p521, "plain", 1, quiet_cfg(), np.random.default_rng(1))
    ((n, spans),) = calls
    assert len(spans) == 521 and rows.shape == (521, spans[0, 1] - spans[0, 0])
    assert rows.size < 0.31 * n


@pytest.mark.parametrize("multiplier", ["ladder", "daa"])
@pytest.mark.parametrize("variant", list(SwapKind))
def test_swap_burst_width_is_every_window_width(p128, variant, multiplier):
    cfg = quiet_cfg(samples_per_event=16, seed=2)
    trace = generate_training_set(p128, variant, 1, cfg, multiplier=multiplier).traces[0]
    widths = {w.end - w.start for w in swap_windows(trace)}
    assert widths == {swap_burst_width(p128, variant, multiplier, cfg)}
