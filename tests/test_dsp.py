"""Filter, envelope and alignment checks."""

import dataclasses
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from nonce_lab import dsp
from nonce_lab.analysis import (
    classify_batch,
    feature_matrix,
    fit_swap_classifier,
    harvest_swap_windows,
    recover_nonce_bits,
)
from nonce_lab.cli import _sim_config, build_parser, derive_seed, resolve_config
from nonce_lab.dsp import (
    _FFT_BLOCK,
    _fft_convolve,
    _iteration_events,
    _kaiser_bandpass,
    _kaiserord,
    _median_split_steps,
    _normalized_xcorr,
    _peak_positions,
    align_swaps,
    bandpass,
    rectified_envelope,
    write_windows_csv,
)
from nonce_lab.ecdsa import keygen, sign
from nonce_lab.errors import AlignmentError, ConfigError
from nonce_lab.events import EventRecorder
from nonce_lab.ff_curve import (
    ProjectivePoint,
    Scalar,
    montgomery_ladder,
    double_and_always_add,
)
from nonce_lab.swap_impls import SwapKind, SwapVariant
from nonce_lab.tracesim import (
    LeakageTrace,
    MarkerTable,
    SimConfig,
    TraceSet,
    read_trace_set,
    swap_windows,
    synthesize,
    write_trace_set,
)
from oracles import (
    full_fft_convolve,
    greedy_peak_positions,
    median_split_steps,
    plain_normalized_xcorr,
    scipy_bandpass,
    scipy_normalized_xcorr,
    step_peak_groups,
)

CENTER = SimConfig().f_mod


def tone(freq, n=16384, fs=2.5e6):
    return np.cos(2.0 * np.pi * freq * np.arange(n) / fs)


def array_trace(samples, fs=2.5e6):
    return LeakageTrace(
        samples=np.asarray(samples, dtype=np.float64),
        sample_rate=fs,
        markers=MarkerTable.empty(),
        meta={},
    )


def scalar_mult_trace(curve, k, cfg, multiplier="ladder", variant=SwapKind.PLAIN):
    recorder = EventRecorder()
    scalar = Scalar.for_curve(k, curve)
    if multiplier == "ladder":
        montgomery_ladder(
            scalar, curve.generator, curve, SwapVariant(variant), recorder
        )
    else:
        base = ProjectivePoint.from_affine(*curve.generator, curve.field)
        double_and_always_add(
            scalar, base, curve, SwapVariant(variant), recorder
        )
    return synthesize(recorder, cfg, meta={"multiplier": multiplier})


def joined(pieces):
    return np.concatenate(list(pieces))


def convolve(x, kernel, start, length):
    """``_fft_convolve`` of one whole array, joined."""
    return joined(_fft_convolve([x], x.size, kernel, start, length))


def central_rms(x, fraction=0.5):
    n = x.size
    lo = int(n * (1 - fraction) / 2)
    return float(np.sqrt(np.mean(x[lo : n - lo] ** 2)))


def test_bandpass_preserves_center_tone():
    samples = tone(CENTER)
    ratio = central_rms(bandpass(samples, SimConfig())) / central_rms(samples)
    assert 10 ** (-1 / 20) < ratio < 10 ** (1 / 20)


def test_bandpass_rejects_out_of_band_tone():
    samples = tone(2.0 * CENTER)
    assert central_rms(bandpass(samples, SimConfig())) < 0.01 * central_rms(samples)


def test_bandpass_of_silence_is_silence():
    out = bandpass(np.zeros(4096), SimConfig())
    assert np.all(out == 0.0)


def test_bandpass_rejects_a_trace_shorter_than_its_taps():
    with pytest.raises(ConfigError, match="too short"):
        bandpass(np.zeros(64), SimConfig())


@pytest.mark.parametrize("relative_bandwidth", [0.25, 0.5, 1.0])
def test_ported_filter_matches_scipy_signal(relative_bandwidth):
    from scipy import signal

    bandwidth = relative_bandwidth * CENTER
    fs = 2.5e6
    transition = (bandwidth / 2.0) / (fs / 2.0)
    # Ripples on both sides of each Kaiser beta breakpoint (21 and 50 dB).
    for ripple in (15.0, 30.0, 48.0, 60.0):
        assert _kaiserord(ripple, transition) == signal.kaiserord(ripple, transition)
    numtaps, beta = _kaiserord(48.0, transition)
    numtaps |= 1
    band = (CENTER - bandwidth / 2.0, CENTER + bandwidth / 2.0)
    taps = signal.firwin(numtaps, band, window=("kaiser", beta), pass_zero=False, fs=fs)
    assert _kaiser_bandpass(numtaps, band, beta, fs).tobytes() == taps.tobytes()

    noise = np.random.default_rng(numtaps).normal(size=8192)
    filtered = convolve(
        noise, _kaiser_bandpass(numtaps, band, beta, fs), (numtaps - 1) // 2, noise.size
    )
    assert filtered.tobytes() == scipy_bandpass(noise, fs, CENTER, bandwidth).tobytes()
    if relative_bandwidth == 0.5:  # the pipeline's band
        assert bandpass(noise, SimConfig(sample_rate=fs)).tobytes() == filtered.tobytes()
    envelope = rectified_envelope(filtered, 16)
    template = envelope[1000 : 1000 + numtaps]
    assert (
        _normalized_xcorr([envelope], envelope.size, template).tobytes()
        == scipy_normalized_xcorr(envelope, template).tobytes()
    )


def test_ported_i0_matches_scipy_special():
    from scipy import special

    # A dense grid over both Chebyshev ranges, the joint at 8 and the
    # Kaiser betas of every ripple the filter tests use.
    betas = [_kaiserord(ripple, 0.01)[1] for ripple in (15.0, 30.0, 48.0, 60.0)]
    edges = [0.0, 8.0, np.nextafter(8.0, 0.0), np.nextafter(8.0, 9.0)]
    x = np.concatenate((np.linspace(0.0, 50.0, 50_001), edges, betas))
    assert np.array([dsp._i0(v) for v in x.tolist()]).tobytes() == special.i0(x).tobytes()
    assert dsp._i0(-3.5) == dsp._i0(3.5)


def test_ported_next_fast_len_matches_scipy():
    from scipy.fft import next_fast_len

    sizes = range(1, 70_000)
    assert [dsp._next_fast_len(n) for n in sizes] == [next_fast_len(n, True) for n in sizes]


# Window pairs per sort, in samples: inputs around its multiples cross
# the median's block edges.
_MEDIAN_EDGE = 2 * dsp._MEDIAN_BLOCK


@pytest.mark.parametrize(
    "size", [3, 4, 5, 17, 1000, _MEDIAN_EDGE - 1, _MEDIAN_EDGE, _MEDIAN_EDGE + 1, 3 * _MEDIAN_EDGE + 2]
)
def test_median_matches_ndimage(size):
    from scipy import ndimage

    rng = np.random.default_rng(size)
    # Windows as wide as the input only where that stays cheap.
    windows = {3, 4, 16, 17} | ({size - 1, size} if size <= 1000 else set())
    # Continuous samples, and coarse ones full of ties.
    for x in (rng.normal(size=size), rng.integers(-3, 4, size=size).astype(np.float64)):
        for window in sorted(windows):
            if 3 <= window <= size:
                want = ndimage.median_filter(np.abs(x), size=window, mode="reflect")
                assert rectified_envelope(x, window).tobytes() == want.tobytes(), window


def rounding_bound(x, kernel):
    """Absolute error allowed against ``fftconvolve``: 8 ulp of the largest
    possible output sample."""
    return 8 * np.finfo(np.float64).eps * np.abs(x).max() * np.abs(kernel).sum()


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([175, 1520]),
    st.integers(1, 6),
    st.integers(-2, 2),
    st.sampled_from(["full", "same", "valid"]),
    st.integers(0, 2**32 - 1),
)
def test_blocked_convolution_matches_fftconvolve(taps, blocks, offset, mode, seed):
    """Inputs of one to six overlap-add blocks, each length within two
    samples of a block edge, against ``scipy.signal.fftconvolve``."""
    from scipy import signal

    rng = np.random.default_rng(seed)
    size = blocks * (_FFT_BLOCK - taps + 1) + offset
    x = rng.normal(size=size) * rng.uniform(0.01, 100.0)
    kernel = rng.normal(size=taps)
    start, length = {
        "full": (0, size + taps - 1),
        "same": ((taps - 1) // 2, size),
        "valid": (taps - 1, size - taps + 1),
    }[mode]
    got = convolve(x, kernel, start, length)
    want = signal.fftconvolve(x, kernel, mode)
    if size + taps - 1 <= _FFT_BLOCK:  # one block: scipy's own bits
        assert got.tobytes() == want.tobytes()
    assert np.abs(got - want).max() <= rounding_bound(x, kernel)


def test_kernel_wider_than_a_block_is_convolved():
    # A long iteration template (many samples per event) can outgrow a block.
    from scipy import signal

    rng = np.random.default_rng(3)
    x = rng.normal(size=4 * _FFT_BLOCK)
    kernel = rng.normal(size=_FFT_BLOCK + 1000)
    got = convolve(x, kernel, (kernel.size - 1) // 2, x.size)
    want = signal.fftconvolve(x, kernel, "same")
    assert np.abs(got - want).max() <= rounding_bound(x, kernel)


def attack_events(curve, seed, noise_sigma):
    """The victim's events of ``nonce-lab attack --seed seed``, the capture
    config at the given noise, and the config its alignment runs with."""
    args = build_parser().parse_args(["attack", "--curve", curve.name, "--seed", str(seed)])
    rc = dataclasses.replace(resolve_config(args), noise_sigma=noise_sigma)
    key = keygen(curve, random.Random(derive_seed(seed, "keygen")))
    rng = random.Random(derive_seed(seed, "sign"))
    recorder = EventRecorder()
    swap = SwapVariant(SwapKind(rc.variant), rng_seed=derive_seed(seed, "swap") % 2**63)
    sign(rng.randrange(1, curve.n), key, rng, rc.multiplier, swap, recorder)
    return recorder, _sim_config(rc, derive_seed(seed, "capture")), _sim_config(rc, 0)


def attack_capture(curve, seed, noise_sigma):
    """The victim trace of ``nonce-lab attack --seed seed`` at the given
    noise, and the config its alignment runs with."""
    recorder, capture, cfg = attack_events(curve, seed, noise_sigma)
    return synthesize(recorder, capture, meta={"multiplier": "ladder"}), cfg


def added_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("noise_sigma, seed", [(2.0, 1), (2.0, 2), (2.0, 3), (5.0, 1), (5.0, 2)])
def test_blocked_alignment_matches_full_length_convolution(monkeypatch, p521, noise_sigma, seed):
    trace, cfg = attack_capture(p521, seed, noise_sigma)
    assert trace.samples.size > 60 * _FFT_BLOCK
    blocked = align_swaps(trace, p521, cfg, "ladder")

    def full_length(pieces, n, kernel, start, length):
        yield full_fft_convolve(np.concatenate(list(pieces)), kernel, start, length)

    monkeypatch.setattr(dsp, "_fft_convolve", full_length)
    full = align_swaps(trace, p521, cfg, "ladder")
    assert blocked.spans == full.spans
    assert np.abs(np.subtract(blocked.confidence, full.confidence)).max() <= 1e-9


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 4000),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 0.9),
    st.data(),
)
def test_in_place_xcorr_matches_plain_formulas(n, seed, flat, data):
    width = data.draw(st.integers(2, n), label="width")
    rng = np.random.default_rng(seed)
    envelope = np.abs(rng.normal(size=n)) * rng.uniform(0.01, 100.0)
    # A flat stretch drives the window variance to zero and onto the floor.
    envelope[: int(flat * n)] = 1.5
    template = np.abs(rng.normal(size=width))
    assert (
        _normalized_xcorr([envelope], envelope.size, template).tobytes()
        == plain_normalized_xcorr(envelope, template).tobytes()
    )


def cut(x, w):
    """``x`` in pieces, with cuts inside its first and its last ``w``
    samples, mid-way, and one-sample pieces at both ends."""
    points = {1, 2, w // 2, w - 1, x.size // 3, x.size - w + 1, x.size - 2, x.size - 1}
    return np.split(x, sorted(p for p in points if 0 < p < x.size))


# Input sizes against a block step: below one block, an exact multiple of
# the step, and one sample past it.
def block_sizes(taps):
    step = _FFT_BLOCK - taps + 1
    return [step // 3, 2 * step, 2 * step + 1]


# The pipeline's band-pass: f_mod +- f_mod / 4 at the default sample rate.
_BAND_TAPS, _BAND_BETA = _kaiserord(48.0, (CENTER / 4.0) / (SimConfig().sample_rate / 2.0))
_BAND_TAPS |= 1


@pytest.mark.parametrize("n", block_sizes(_BAND_TAPS))
@pytest.mark.parametrize("w", [3, 4, 16, 17])
def test_streamed_bandpass_and_envelope_match_scipy(n, w):
    from scipy import ndimage

    cfg = SimConfig()
    x = np.random.default_rng(n + w).normal(size=n)
    whole = bandpass(x, cfg)
    band = joined(dsp._bandpass_pieces(x, cfg))
    taps = _kaiser_bandpass(_BAND_TAPS, (0.75 * CENTER, 1.25 * CENTER), _BAND_BETA, cfg.sample_rate)
    streamed = joined(_fft_convolve(cut(x, w), n, taps, (_BAND_TAPS - 1) // 2, n))
    assert streamed.tobytes() == band.tobytes() == whole.tobytes()
    want = scipy_bandpass(x, cfg.sample_rate, CENTER, 0.5 * CENTER)
    if n + _BAND_TAPS - 1 <= _FFT_BLOCK:  # one block: scipy's own bits
        assert band.tobytes() == want.tobytes()
    assert np.abs(band - want).max() <= rounding_bound(x, taps)

    envelope = joined(dsp._envelope_pieces(cut(band, w), n, w))
    want = ndimage.median_filter(np.abs(band), size=w, mode="reflect")
    assert envelope.tobytes() == want.tobytes()


@pytest.mark.parametrize("w", [3, 4, 16, 17])
def test_envelope_of_one_sample_pieces_matches_ndimage(w):
    from scipy import ndimage

    x = np.random.default_rng(w).normal(size=3 * w + 1)
    for size in (w, w + 1, x.size):
        got = joined(dsp._envelope_pieces(np.split(x[:size], size), size, w))
        want = ndimage.median_filter(np.abs(x[:size]), size=w, mode="reflect")
        assert got.tobytes() == want.tobytes(), size


@pytest.mark.parametrize("width", [3, 4, 16, 17, 300])
@pytest.mark.parametrize("block", [0, 1, 2])
def test_streamed_xcorr_matches_plain_formulas(monkeypatch, width, block):
    n = block_sizes(width)[block]
    rng = np.random.default_rng(n + width)
    envelope = np.abs(rng.normal(size=n))
    envelope[: n // 4] = 1.5  # windows on the variance floor
    template = np.abs(rng.normal(size=width))
    got = _normalized_xcorr(cut(envelope, width), n, template)
    if n + width - 1 <= _FFT_BLOCK:  # one block: the full-length bits
        assert got.tobytes() == scipy_normalized_xcorr(envelope, template).tobytes()
    else:  # the window statistics of the plain formulas, over the same blocks
        monkeypatch.setattr(oracles, "full_fft_convolve", convolve)
    assert got.tobytes() == plain_normalized_xcorr(envelope, template).tobytes()


def test_alignment_allocates_one_trace_length_array(p521):
    # The noiseless secp521r1 victim trace of the acceptance attack.
    trace, cfg = attack_capture(p521, 1, 0.0)
    aligned, added = added_peak(align_swaps, trace, p521, cfg, "ladder")
    # The correlation track alone is 8 bytes a sample, 9.1 MB here.
    assert added <= 15e6
    truth = swap_windows(trace)
    assert len(aligned) == len(truth) == p521.n.bit_length()
    for (start, end), window in zip(aligned.spans, truth):
        assert abs(start - window.start) <= 16
        assert abs(end - window.end) <= 16


def test_synthesis_allocates_one_trace_length_array(p521):
    # The victim trace is 8 bytes a sample, 9.1 MB; rendered as whole
    # arrays, it took 3.3 times that.
    recorder, cfg, _ = attack_events(p521, 1, 0.0)
    trace, added = added_peak(synthesize, recorder, cfg)
    assert trace.samples.size > 1_000_000
    assert added <= 1.6 * trace.samples.nbytes


def test_trace_file_is_written_in_blocks(p521, tmp_path):
    trace, _ = attack_capture(p521, 1, 0.0)
    truth = [[w.cond for w in swap_windows(trace)]]
    _, added = added_peak(write_trace_set, TraceSet([trace], truth), tmp_path / "v.trc")
    assert added <= 2e6
    (read,) = read_trace_set(tmp_path / "v.trc").traces
    assert read.samples.tobytes() == trace.samples.astype(np.float32).astype(np.float64).tobytes()


def test_classification_scores_the_windows_in_slabs(p521):
    """The aligned windows are cut, reduced and scored a slab at a time,
    with the bits of one matrix of them all."""
    trace, cfg = attack_capture(p521, 1, 0.0)
    truth = swap_windows(trace)
    model = fit_swap_classifier(harvest_swap_windows(TraceSet([trace], [[w.cond for w in truth]])), cfg)
    aligned = align_swaps(trace, p521, cfg, "ladder")
    estimate, added = added_peak(recover_nonce_bits, trace, model, aligned, "ladder")
    assert added <= 4e6
    width = int(model.trained_on["feature_length"])
    starts = [max(min(end, trace.samples.size) - width, 0) for _, end in aligned.spans]
    cut = np.lib.stride_tricks.sliding_window_view(trace.samples, width)[starts]
    conds, probabilities = classify_batch(model, feature_matrix(cut, int(model.trained_on["median_samples"])))
    assert estimate.conds == tuple(conds.tolist()) == tuple(w.cond for w in truth)
    assert estimate.probabilities.tobytes() == probabilities.tobytes()


def test_rectify_median_keeps_constants():
    x = np.full(500, 2.5)
    assert np.array_equal(rectified_envelope(x, 15), x)


def test_rectify_median_removes_spikes_and_is_idempotent():
    x = np.ones(200)
    x[50] = 25.0
    assert np.array_equal(rectified_envelope(x, 15), np.ones(200))
    step = np.concatenate((np.ones(100), np.full(100, 5.0)))
    once = rectified_envelope(step, 15)
    assert np.array_equal(once, step)
    assert np.array_equal(rectified_envelope(once, 15), once)


def test_rectify_median_window_bounds():
    x = np.ones(100)
    with pytest.raises(ConfigError):
        rectified_envelope(x, 2)
    with pytest.raises(ConfigError):
        rectified_envelope(x, 101)


def test_align_clean_ladder_matches_ground_truth(toy):
    cfg = SimConfig(noise_sigma=0.0)
    trace = scalar_mult_trace(toy, 0x51F3, cfg)
    aligned = align_swaps(trace, toy, cfg, "ladder")
    truth = swap_windows(trace)
    assert len(aligned) == toy.n.bit_length() == len(truth)
    for (start, end), window in zip(aligned.spans, truth):
        assert abs(start - window.start) <= 16
        assert abs(end - window.end) <= 16
    assert min(aligned.confidence) > 0.8


def test_align_clean_daa_matches_ground_truth(toy):
    cfg = SimConfig(noise_sigma=0.0)
    trace = scalar_mult_trace(toy, 0x9C31, cfg, multiplier="daa")
    aligned = align_swaps(trace, toy, cfg, "daa")
    truth = swap_windows(trace)
    assert len(aligned) == toy.n.bit_length() == len(truth)
    for (start, end), window in zip(aligned.spans, truth):
        assert abs(start - window.start) <= 16
        assert abs(end - window.end) <= 16


def test_align_wide_curve_ladder(p128):
    cfg = SimConfig(noise_sigma=0.0)
    trace = scalar_mult_trace(p128, 0xDEADBEEF12345678ABCDEF99, cfg)
    aligned = align_swaps(trace, p128, cfg, "ladder")
    truth = swap_windows(trace)
    assert len(aligned) == p128.n.bit_length()
    for (start, end), window in zip(aligned.spans, truth):
        assert abs(start - window.start) <= 16
        assert abs(end - window.end) <= 16


def test_align_survives_default_noise(toy):
    cfg = SimConfig(seed=21)
    trace = scalar_mult_trace(toy, 0x51F3, cfg)
    aligned = align_swaps(trace, toy, cfg, "ladder")
    truth = swap_windows(trace)
    assert len(aligned) == len(truth)
    for (start, end), window in zip(aligned.spans, truth):
        assert abs(start - window.start) <= 24
        assert abs(end - window.end) <= 24


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_align_tolerates_interruption(toy, seed):
    cfg = SimConfig(noise_sigma=0.0, interruption_prob=1.0, seed=seed)
    trace = scalar_mult_trace(toy, 0x51F3, cfg)
    aligned = align_swaps(trace, toy, cfg, "ladder")
    assert len(aligned) == toy.n.bit_length()


@pytest.mark.parametrize("seed", range(6))
def test_peak_positions_match_quadratic_greedy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(100, 1200))
    # One-decimal values tie often; repeating each value makes plateaus.
    values = np.round(rng.normal(0.0, 1.0, n), 1)
    tracks = (
        np.repeat(values, rng.integers(1, 8, n))[:n],
        np.convolve(values, np.hanning(31), "same"),
    )
    for corr in tracks:
        for threshold in (-np.inf, 0.0, 1.5, 100.0):
            for min_distance in (1, 7, 64):
                expected = greedy_peak_positions(corr, threshold, min_distance)
                assert _peak_positions(corr, threshold, min_distance) == expected
    assert _peak_positions(tracks[0], 100.0, 7) == []


def test_median_split_steps_match_np_median_loop():
    rng = np.random.default_rng(17)
    for trial in range(300):
        n = int(rng.integers(0, 120))
        if trial % 3 == 0:  # ties: a handful of distinct values
            values = rng.integers(-3, 4, n).astype(np.float64) / 2.0
        elif trial % 3 == 1:  # sub-sample residuals, one-decimal ties
            values = np.round(rng.normal(0.0, 4.0, n), 1)
        else:
            values = rng.normal(0.0, 1e3, n)
        assert _median_split_steps(values.tolist()) == median_split_steps(values)
    # The size of one secp521r1 trace's slot grid.
    values = rng.normal(0.0, 2.0, 521)
    assert _median_split_steps(values.tolist()) == median_split_steps(values)


def test_align_rejects_pure_noise(toy):
    rng = np.random.default_rng(8)
    trace = array_trace(rng.normal(0.0, 2.0, 40000))
    with pytest.raises(AlignmentError):
        align_swaps(trace, toy, SimConfig(), "ladder")


def test_align_single_step_and_peak_groups(toy):
    cfg = SimConfig(noise_sigma=0.0)
    trace = synthesize(_iteration_events(toy, "ladder"), cfg)
    aligned = align_swaps(trace, toy, cfg, "ladder")
    assert len(aligned) == 1
    envelope = rectified_envelope(trace.samples, 16)
    assert step_peak_groups(envelope, cfg.samples_per_event) == [5, 2, 1, 2, 3, 1, 3, 3]


def test_windows_csv_is_deterministic(tmp_path, toy):
    cfg = SimConfig(noise_sigma=0.0)
    trace = scalar_mult_trace(toy, 0x51F3, cfg)
    aligned = align_swaps(trace, toy, cfg, "ladder")
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_windows_csv(aligned, first)
    write_windows_csv(aligned, second)
    assert first.read_bytes() == second.read_bytes()
    header = first.read_text().splitlines()[0]
    assert header == "window_index,start,end,confidence"
