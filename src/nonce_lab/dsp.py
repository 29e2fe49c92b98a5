"""Signal chain for turning raw waveforms into per-swap sample spans.

The stages mirror a capture workflow: bandpass around the activity
carrier, rectify and median-smooth into an envelope, then matched-filter
the envelope against the ladder-step fingerprint.  One dynamic program
over the correlation track places every scalar-multiplication iteration
at once: the path of one match per iteration, a period apart but for one
interruption, that gathers the most correlation.  The gaps between
consecutive iterations are exactly the conditional swaps.

Everything here runs on numpy alone.  The Kaiser band-pass design ports
``scipy.signal``'s ``kaiserord`` and ``firwin``, with the Cephes Bessel
function ``i0`` that ``scipy.special`` also uses, and reproduces their
taps bit for bit.  Both filters run through one FFT convolution,
overlap-add over blocks of ``_FFT_BLOCK`` points; inputs that fit in one
block get ``scipy.signal.fftconvolve``'s bits.  The envelope's sliding
median is a selection, so it equals ``scipy.ndimage.median_filter``
exactly.  ``align_swaps`` streams the capture through every stage
block by block, each carrying its overlap into the next with the
whole-array bits, so the correlation track is the only capture-length
array it allocates.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AlignmentError, ConfigError, DomainError
from .events import KIND_BY_CODE, WORD_OP_KINDS, EventRecorder
from .ff_curve import CurveParams, ProjectivePoint, Scalar, traced_multiply
from .swap_impls import SwapKind, SwapVariant
from .tracesim import LeakageTrace, SimConfig, synthesize

_STOPBAND_DB = 48.0
# Least mean correlation of an aligned path; on pure noise it stays below.
_CORR_FLOOR = 0.35
# The longest interruption tracesim._layout splices in, in events.
_LONGEST_GAP_EVENTS = 8
# FFT length of one overlap-add block in _fft_convolve.
_FFT_BLOCK = 1 << 14
# Window pairs per sort in rectified_envelope.
_MEDIAN_BLOCK = 1 << 12

# Chebyshev coefficients of exp(-x) i0(x) on [0, 8] and of
# exp(-x) sqrt(x) i0(x) on (8, inf), in x/2 - 2 and 32/x - 2 (Cephes i0.c).
_I0_A = (
    -4.41534164647933937950e-18, 3.33079451882223809783e-17, -2.43127984654795469359e-16,
    1.71539128555513303061e-15, -1.16853328779934516808e-14, 7.67618549860493561688e-14,
    -4.85644678311192946090e-13, 2.95505266312963983461e-12, -1.72682629144155570723e-11,
    9.67580903537323691224e-11, -5.18979560163526290666e-10, 2.65982372468238665035e-9,
    -1.30002500998624804212e-8, 6.04699502254191894932e-8, -2.67079385394061173391e-7,
    1.11738753912010371815e-6, -4.41673835845875056359e-6, 1.64484480707288970893e-5,
    -5.75419501008210370398e-5, 1.88502885095841655729e-4, -5.76375574538582365885e-4,
    1.63947561694133579842e-3, -4.32430999505057594430e-3, 1.05464603945949983183e-2,
    -2.37374148058994688156e-2, 4.93052842396707084878e-2, -9.49010970480476444210e-2,
    1.71620901522208775349e-1, -3.04682672343198398683e-1, 6.76795274409476084995e-1,
)
_I0_B = (
    -7.23318048787475395456e-18, -4.83050448594418207126e-18, 4.46562142029675999901e-17,
    3.46122286769746109310e-17, -2.82762398051658348494e-16, -3.42548561967721913462e-16,
    1.77256013305652638360e-15, 3.81168066935262242075e-15, -9.55484669882830764870e-15,
    -4.15056934728722208663e-14, 1.54008621752140982691e-14, 3.85277838274214270114e-13,
    7.18012445138366623367e-13, -1.79417853150680611778e-12, -1.32158118404477131188e-11,
    -3.14991652796324136454e-11, 1.18891471078464383424e-11, 4.94060238822496958910e-10,
    3.39623202570838634515e-9, 2.26666899049817806459e-8, 2.04891858946906374183e-7,
    2.89137052083475648297e-6, 6.88975834691682398426e-5, 3.36911647825569408990e-3,
    8.04490411014108831608e-1,
)


@dataclass(frozen=True, slots=True)
class AlignedSwapWindows:
    """Per-swap spans recovered from a trace, with match confidence."""

    spans: tuple[tuple[int, int], ...]
    confidence: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.spans) != len(self.confidence):
            raise DomainError("one confidence value per span required")
        previous_end = 0
        for start, end in self.spans:
            if start < previous_end or end < start:
                raise DomainError("spans must be ordered and non-overlapping")
            previous_end = end

    def __len__(self) -> int:
        return len(self.spans)


def _chbevl(x: float, coefficients: tuple[float, ...]) -> float:
    """Clenshaw sum of a Chebyshev series, Cephes' ``chbevl``."""
    b0, b1, b2 = coefficients[0], 0.0, 0.0
    for c in coefficients[1:]:
        b2, b1 = b1, b0
        b0 = x * b1 - b2 + c
    return 0.5 * (b0 - b2)


def _i0(x: float) -> float:
    """Modified Bessel function of order 0, Cephes' ``i0`` step for step,
    so it carries ``scipy.special.i0``'s bits (``np.i0`` may differ by an
    ulp)."""
    x = abs(x)
    if x <= 8.0:
        return math.exp(x) * _chbevl(x / 2.0 - 2.0, _I0_A)
    return math.exp(x) * _chbevl(32.0 / x - 2.0, _I0_B) / math.sqrt(x)


def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer not below ``n``, as
    ``scipy.fft.next_fast_len(n, real=True)`` gives it."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # The smallest power-of-two multiple of p35 not below n.
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _kaiserord(ripple: float, width: float) -> tuple[int, float]:
    """Tap count and Kaiser beta for ``ripple`` dB of attenuation.

    Kaiser's empirical formulas (Oppenheim and Schafer, Discrete-Time
    Signal Processing, pp. 475-476) for a transition ``width`` given as a
    fraction of the Nyquist frequency, evaluated in the same order as
    ``scipy.signal.kaiserord`` so both give the same bits.
    """
    a = abs(ripple)
    if a > 50:
        beta = 0.1102 * (a - 8.7)
    elif a > 21:
        beta = 0.5842 * (a - 21) ** 0.4 + 0.07886 * (a - 21)
    else:
        beta = 0.0
    # The formula gives the filter order; the tap count is one more.
    numtaps = (a - 7.95) / 2.285 / (np.pi * width) + 1
    return int(math.ceil(numtaps)), beta


def _kaiser_bandpass(
    numtaps: int, band: tuple[float, float], beta: float, fs: float
) -> np.ndarray:
    """Kaiser-windowed sinc taps passing ``band`` (Hz) at unit centre gain.

    The window method of ``scipy.signal.firwin(numtaps, band,
    window=("kaiser", beta), pass_zero=False, fs=fs)``, step for step:
    the ideal band-pass impulse response, times a symmetric Kaiser
    window, scaled so the response at the band centre is exactly 1.
    """
    left, right = np.asarray(band, dtype=np.float64) / (0.5 * fs)
    half = 0.5 * (numtaps - 1)
    m = np.arange(0, numtaps, dtype=np.float64) - half
    h = right * np.sinc(right * m)
    h -= left * np.sinc(left * m)
    window = [_i0(v) for v in (beta * np.sqrt(1 - (m / half) ** 2.0)).tolist()]
    h *= np.array(window) / _i0(beta)
    h /= np.sum(h * np.cos(np.pi * m * (0.5 * (left + right))))
    return h


def _fft_convolve(
    pieces: Iterable[np.ndarray], n: int, kernel: np.ndarray, start: int, length: int
) -> Iterator[np.ndarray]:
    """``length`` samples from index ``start`` of the full linear
    convolution of a real kernel with a real signal of ``n`` samples,
    given as consecutive ``pieces``, by overlap-add over FFT blocks.

    Each real FFT has ``size`` points, ``_FFT_BLOCK`` or twice the kernel
    if that is longer, and takes ``size - kernel.size + 1`` input
    samples, so the bits depend on ``n`` alone.  The kernel's spectrum is
    taken once; each block's head is added to the previous block's tail,
    and all but its own tail is yielded (Oppenheim and Schafer,
    Discrete-Time Signal Processing, overlap-add method).  A convolution
    that fits in one block is computed at the length
    ``scipy.signal.fftconvolve`` uses, the smallest 5-smooth one, and
    carries its bits; a longer one differs from it by rounding only.
    ``start`` must lie below ``kernel.size``, as it does for the "same"
    and "valid" slices.
    """
    taps = kernel.size
    size = _next_fast_len(min(n + taps - 1, max(_FFT_BLOCK, 2 * taps)))
    step = size - taps + 1
    kernel_spectrum = np.fft.rfft(kernel, size)
    end = start + length
    i, rest = 0, np.empty(0)
    for piece in pieces:
        rest = np.concatenate((rest, piece)) if rest.size else piece
        # A block takes step input samples, or the last ones.
        while rest.size >= step or 0 < rest.size == n - i:
            block = np.fft.irfft(np.fft.rfft(rest[:step], size) * kernel_spectrum, size)
            rest = rest[step:]
            if i:
                np.add(tail, block[: taps - 1], out=block[: taps - 1])
            tail = block[step:]
            # Later blocks add to this one's last taps - 1 samples only.
            hi = min(i + (step if i + step < n else size), end)
            yield block[max(i, start) - i : hi - i]
            i += step


def _bandpass_pieces(samples: np.ndarray, cfg: SimConfig) -> Iterator[np.ndarray]:
    """``bandpass`` of ``samples``, yielded in consecutive pieces."""
    bandwidth = 0.5 * cfg.f_mod
    transition = (bandwidth / 2.0) / (cfg.sample_rate / 2.0)
    numtaps, beta = _kaiserord(_STOPBAND_DB, transition)
    numtaps |= 1
    if numtaps > samples.size:
        raise ConfigError(
            f"trace of {samples.size} samples is too short for a "
            f"{numtaps}-tap filter at this bandwidth"
        )
    band = (cfg.f_mod - bandwidth / 2.0, cfg.f_mod + bandwidth / 2.0)
    taps = _kaiser_bandpass(numtaps, band, beta, cfg.sample_rate)
    # The centred slice of the full convolution undoes the group delay.
    return _fft_convolve([samples], samples.size, taps, (numtaps - 1) // 2, samples.size)


def bandpass(samples: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """Linear-phase FIR band-pass of ``samples`` around the leak carrier,
    ``f_mod`` +- ``f_mod / 4``, with the group delay compensated.

    The stopband begins one full bandwidth away from the center and is
    attenuated by at least 40 dB there; ``SimConfig`` keeps the band below
    the Nyquist limit.  Because the kernel is symmetric and applied
    centered, the output is not delayed: marker spans remain valid
    without any shift.
    """
    return np.concatenate(list(_bandpass_pieces(samples, cfg)))


def check_median_window(window_samples: int, size: int) -> None:
    """Reject a median window under 3 samples or wider than its input."""
    if not 3 <= window_samples <= size:
        raise ConfigError(f"median window of {window_samples} samples is outside [3, {size}]")


def _pair_medians(padded: np.ndarray, w: int, count: int) -> np.ndarray:
    """Medians of the ``count`` windows of ``w`` samples from ``padded[0]``
    on.  Windows i and i + 1 (i even) sort their ``w - 1`` shared samples
    once, and each median is its extra sample clamped between two ranks."""
    r = w // 2
    shared = sliding_window_view(padded[1:], w - 1)[::2]
    out = np.empty(count)
    pairs = (count + 1) // 2
    for j in range(0, pairs, _MEDIAN_BLOCK):
        k = min(pairs, j + _MEDIAN_BLOCK)
        ranked = np.sort(shared[j:k], axis=-1)
        low, high = ranked[:, r - 1], ranked[:, r]
        out[2 * j : 2 * k : 2] = np.maximum(low, np.minimum(high, padded[2 * j : 2 * k : 2]))
        second = np.maximum(low, np.minimum(high, padded[2 * j + w : 2 * k + w : 2]))
        out[2 * j + 1 : 2 * k : 2] = second[: (min(2 * k, count) - 2 * j) // 2]
    return out


def _envelope_pieces(pieces: Iterable[np.ndarray], n: int, w: int) -> Iterator[np.ndarray]:
    """``rectified_envelope`` of a signal of ``n`` samples given as
    consecutive ``pieces``, yielded as the windows fill; the last ``w``
    or so rectified samples are carried from piece to piece."""
    check_median_window(w, n)
    r, pieces = w // 2, iter(pieces)
    held = np.abs(next(pieces))
    while held.size < r:
        held = np.concatenate((held, np.abs(next(pieces))))
    held = np.concatenate((held[r - 1 :: -1], held))
    for piece in pieces:
        held = np.concatenate((held, np.abs(piece)))
        pairs = (held.size - w + 1) // 2
        if pairs > 0:
            yield _pair_medians(held, w, 2 * pairs)
            held = held[2 * pairs :]
    # One sample more on the right gives an odd-length input's last pair
    # its second extra.
    held = np.concatenate((held, held[::-1][: w - r]))
    yield _pair_medians(held, w, held.size - w)


def rectified_envelope(samples: np.ndarray, window_samples: int) -> np.ndarray:
    """Absolute value followed by a sliding median over symmetric padding.

    Output i is the element of rank ``w // 2`` of the ``w`` rectified
    samples from ``i - w // 2``, the window and rank of
    ``scipy.ndimage.median_filter(..., mode="reflect")``.
    """
    samples = np.asarray(samples, dtype=np.float64)
    (out,) = _envelope_pieces([samples], samples.size, window_samples)
    return out


def _median_window(cfg: SimConfig) -> int:
    """The envelope's median window: a quarter event, 3 samples at least."""
    return max(3, cfg.samples_per_event // 4)


def _moving_average(pieces: Iterable[np.ndarray], length: int) -> Iterator[np.ndarray]:
    """Mean of each sample and the ``length - 1`` before it (zeros before
    the first), piece by piece.  The running sum goes on from its last
    total with the bits of one np.cumsum, and keeps ``length`` totals."""
    sums = np.zeros(length)
    for piece in pieces:
        last = sums.size - 1
        sums = np.concatenate((sums, piece))
        np.cumsum(sums[last:], out=sums[last:])
        yield (sums[length:] - sums[:-length]) / length
        sums = sums[-length:]


def _aligner_envelope(samples: np.ndarray, cfg: SimConfig) -> Iterator[np.ndarray]:
    """The envelope both sides of the match are read from, in pieces:
    band-passed, rectified and median-smoothed.  A median window shorter
    than a period of the rectified carrier leaves its ripple in, which
    sets near-equal correlation peaks that period apart; a moving average
    over one period follows it then."""
    window = _median_window(cfg)
    pieces = _envelope_pieces(_bandpass_pieces(samples, cfg), samples.size, window)
    ripple = cfg.sample_rate / (2.0 * cfg.f_mod)
    return _moving_average(pieces, math.ceil(ripple)) if window < ripple else pieces


def _iteration_events(curve: CurveParams, multiplier: str) -> EventRecorder:
    """Field-arithmetic events of one scalar-multiplication iteration.

    Runs a one-bit scalar through the requested multiplier and keeps the
    events that are not word-level swap steps: the machine-readable
    fingerprint of a single iteration (the swap burst is excluded: its
    length varies with the countermeasure in use).
    """
    recorder = EventRecorder()
    base = ProjectivePoint.from_affine(*curve.generator, curve.field)
    # The fingerprint is a fixed reference, so the variant rng is pinned;
    # register randomization must not vary the template across runs.
    traced_multiply(
        multiplier, Scalar(1, 1), base, curve, SwapVariant(SwapKind.PLAIN, rng_seed=0), recorder
    )
    step = EventRecorder()
    for code, leak, cond in zip(recorder.kinds, recorder.leaks, recorder.conds):
        if KIND_BY_CODE[code] not in WORD_OP_KINDS:
            step.emit(KIND_BY_CODE[code], leak, cond)
    return step


def _pattern_template(curve: CurveParams, cfg: SimConfig, multiplier: str) -> np.ndarray:
    """Noiseless envelope of one scalar-multiplication iteration.

    Synthesizes the iteration's arithmetic events without noise and passes
    them through the same filter the trace will, so both sides of the
    correlation carry identical smoothing.
    """
    step = _iteration_events(curve, multiplier)
    quiet = dataclasses.replace(
        cfg, noise_sigma=0.0, interruption_prob=0.0, interference=()
    )
    return np.concatenate(list(_aligner_envelope(synthesize(step, quiet).samples, quiet)))


def _window_spread(pieces: Iterable[np.ndarray], width: int, t_norm: float, out: np.ndarray):
    """Pass ``pieces`` through, first writing into ``out`` the spread
    of every window of ``width`` samples that each piece completes."""
    # Both running sums start from a leading zero, go on from their last
    # total with the bits of one np.cumsum, and keep ``width`` totals.
    sums = squares = np.zeros(1)
    done = 0
    for piece in pieces:
        last = sums.size - 1
        sums = np.concatenate((sums, piece))
        squares = np.concatenate((squares, np.square(piece)))
        for totals in (sums, squares):
            np.cumsum(totals[last:], out=totals[last:])
        window_sum = sums[width:] - sums[:-width]
        spread = squares[width:] - squares[:-width] - window_sum**2 / width
        spread = np.sqrt(np.maximum(spread, 0.0)) * t_norm
        out[done : done + spread.size] = np.maximum(spread, 1e-12)
        done += spread.size
        sums, squares = sums[-width:], squares[-width:]
        yield piece


def _normalized_xcorr(pieces: Iterable[np.ndarray], n: int, template: np.ndarray) -> np.ndarray:
    """Cross-correlation normalized per window to [-1, 1] of an envelope
    of ``n`` samples, given as consecutive ``pieces``."""
    t = template - template.mean()
    t_norm = float(np.linalg.norm(t))
    if t_norm == 0.0:
        raise AlignmentError("pattern template is constant")
    width = template.size
    # Valid lags only; each window's spread is in ``out`` before its
    # correlation is final.
    out, done = np.empty(n - width + 1), 0
    spread = _window_spread(pieces, width, t_norm, out)
    for block in _fft_convolve(spread, n, t[::-1], width - 1, out.size):
        part = out[done : done + block.size]
        np.divide(block, part, out=part)
        done += block.size
    return out


def _bin_maxima(corr: np.ndarray, step: int) -> tuple[np.ndarray, np.ndarray]:
    """The maximum of ``corr`` in each bin of ``step`` samples (the last
    bin may be shorter), and where each sits."""
    full = corr.size - corr.size % step
    where = corr[:full].reshape(-1, step).argmax(axis=1) + np.arange(0, full, step)
    if full < corr.size:
        where = np.append(where, full + int(np.argmax(corr[full:])))
    return corr[where], where


def _period(peaks: np.ndarray, shortest: int) -> int:
    """The lag in [shortest, 2 * shortest) at which ``peaks`` repeat best:
    the argmax of their autocorrelation, each lag's mean product."""
    x = peaks - peaks.mean()
    lags = np.arange(shortest, min(2 * shortest, x.size))
    if lags.size == 0:
        return shortest
    size = _next_fast_len(x.size + int(lags[-1]))
    spectrum = np.fft.rfft(x, size)
    products = np.fft.irfft(spectrum.real**2 + spectrum.imag**2, size)[lags]
    return int(lags[np.argmax(products / (x.size - lags))])


def _best_path(peaks: np.ndarray, period: int, slots: int, jump: int) -> list[int]:
    """The ``slots`` bins of greatest summed ``peaks`` whose consecutive
    gaps lie in [period - 1, period + 1], save at most one that may be up
    to ``jump`` longer: a Viterbi search (IEEE Trans. IT 1967).  Slot j's
    bin is ``j * (period - 1) + u``, so every slot has the same ``states``
    choices of u and a gap keeps or raises it.  ``table[j, used, u]`` is
    the best sum of a path with slot j at u, the long gap used or not,
    each row led by ``reach`` entries of -inf so that shifted slices are
    the predecessors; the path is read back from it by argmax."""
    step = period - 1
    states = peaks.size - (slots - 1) * step
    reach = jump + 2
    band = sliding_window_view(peaks, states)[::step]
    table = np.full((slots, 2, reach + states), -np.inf)
    table[0, 0, reach:] = band[0]
    pairs = np.empty((2, reach + states - 1))
    for j in range(1, slots):
        prev, cur = table[j - 1], table[j, :, reach:]
        # Both rows: the best of the predecessors 0, 1 or 2 bins behind.
        np.maximum(prev[:, :-1], prev[:, 1:], out=pairs)
        np.maximum(pairs[:, reach - 2 : -1], prev[:, reach:], out=cur)
        # Row 1 may also take the long gap from any of the reach + 1 bins
        # behind in row 0: a running maximum over doubling windows.
        run, width = pairs[0], 2
        while 2 * width <= reach + 1:
            run = np.maximum(run[:-width], run[width:])
            width *= 2
        np.maximum(cur[1], run[:states], out=cur[1])
        np.maximum(cur[1], run[reach + 1 - width :], out=cur[1])
        cur += band[j]
    used, u = divmod(int(np.argmax(table[-1, :, reach:])), states)
    path = [u]
    for j in range(slots - 1, 0, -1):
        before = table[j - 1, :, u : u + reach + 1]
        if used and before[0].max() > before[1, -3:].max():
            used, u = 0, u - reach + int(np.argmax(before[0]))
        else:
            u -= 2 - int(np.argmax(before[used, -3:]))
        path.append(u)
    return [j * step + u for j, u in enumerate(reversed(path))]


def align_swaps(
    trace: LeakageTrace,
    curve: CurveParams,
    cfg: SimConfig,
    multiplier: str,
) -> AlignedSwapWindows:
    """Locate every conditional swap by finding the iterations around it.

    The trace's envelope is matched against the single-iteration
    arithmetic fingerprint passed through the same chain; on the ladder
    each swap precedes its iteration, with double-and-add it follows, so
    the gaps between matches are the swap spans.  The matches are the one
    path through the track's bin maxima that ``_best_path`` finds: a match
    per iteration the trace has room for, ``bits`` at most, a period apart
    but for one interruption of up to ``_LONGEST_GAP_EVENTS``.  The period
    is the lag, between one and two template widths, at which the maxima
    repeat best, and a match's confidence is its bin's maximum.  A path
    always exists, so a structureless trace shows in the path itself: one
    that leaves out iterations the trace has room for, averages below
    ``_CORR_FLOOR`` or overlaps itself raises ``AlignmentError``.
    """
    template = _pattern_template(curve, cfg, multiplier)
    n, width = trace.samples.size, template.size
    if width > n:
        raise AlignmentError("trace is shorter than one iteration")
    # Streamed block by block: corr is the only trace-length array made,
    # and it is dropped once its bin maxima are taken.
    corr = _normalized_xcorr(_aligner_envelope(trace.samples, cfg), n, template)
    step = _median_window(cfg)
    peaks, where = _bin_maxima(corr, step)
    del corr
    period = _period(peaks, max(2, width // step))
    bits = curve.n.bit_length()
    slots = min(bits, (peaks.size - 1) // (period - 1) + 1)
    if slots < min(bits, n // width):
        raise AlignmentError(f"a {period * step}-sample period fits only {slots} iterations")
    bins = _best_path(peaks, period, slots, _LONGEST_GAP_EVENTS * cfg.samples_per_event // step)
    positions = where[bins].tolist()
    confidence = peaks[bins]
    if float(confidence.mean()) < _CORR_FLOOR:
        raise AlignmentError("no iteration pattern found in the trace")
    if any(b - a < width for a, b in zip(positions, positions[1:])):
        raise AlignmentError("matched iterations overlap; segmentation failed")

    gaps = [b - (a + width) for a, b in zip(positions, positions[1:])]
    typical_gap = int(np.median(gaps)) if gaps else positions[0]
    if multiplier == "ladder":
        starts = [max(0, positions[0] - typical_gap)] + [p + width for p in positions[:-1]]
        spans = list(zip(starts, positions))
    else:
        ends = positions[1:] + [min(n, positions[-1] + width + typical_gap)]
        spans = [(p + width, end) for p, end in zip(positions, ends)]
    return AlignedSwapWindows(spans=tuple(spans), confidence=tuple(confidence.tolist()))


def write_windows_csv(aligned: AlignedSwapWindows, path: Path | str) -> None:
    """Dump aligned windows, one row per swap, for manual review."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("window_index", "start", "end", "confidence"))
        for i, ((start, end), conf) in enumerate(
            zip(aligned.spans, aligned.confidence)
        ):
            writer.writerow((i, start, end, f"{conf:.6f}"))
