"""Signal chain for turning raw waveforms into per-swap sample spans.

The stages mirror a capture workflow: bandpass around the activity
carrier, rectify and median-smooth into an envelope, then matched-filter
the envelope against the ladder-step fingerprint to locate every
scalar-multiplication iteration.  The gaps
between consecutive iterations are exactly the conditional swaps.

Everything here runs on numpy alone.  The Kaiser band-pass design ports
``scipy.signal``'s ``kaiserord`` and ``firwin``, with the Cephes Bessel
function ``i0`` that ``scipy.special`` also uses, and reproduces their
taps bit for bit.  Both filters run through one FFT convolution,
overlap-add over blocks of ``_FFT_BLOCK`` points; inputs that fit in one
block get ``scipy.signal.fftconvolve``'s bits.  The envelope's sliding
median is a selection, so it equals ``scipy.ndimage.median_filter``
exactly.  ``align_swaps`` streams the capture through all three stages
block by block, each carrying its overlap into the next with the
whole-array bits, so the correlation track is the only capture-length
array it allocates.
"""

from __future__ import annotations

import bisect
import csv
import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AlignmentError, ConfigError, DomainError
from .events import KIND_BY_CODE, WORD_OP_KINDS, EventRecorder
from .ff_curve import CurveParams, ProjectivePoint, Scalar, traced_multiply
from .swap_impls import SwapKind, SwapVariant
from .tracesim import LeakageTrace, SimConfig, synthesize

_STOPBAND_DB = 48.0
_HOLE_CONFIDENCE_FLOOR = 0.25
_SEED_CORR_FLOOR = 0.35
# Ceiling of the seed correlation threshold: noise lowers every peak
# roughly uniformly, so the threshold follows the strongest match down
# from here to _SEED_CORR_FLOOR.
_SEED_CORR_CEILING = 0.6
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
    samples = bandpass(synthesize(step, quiet).samples, quiet)
    return rectified_envelope(samples, max(3, cfg.samples_per_event // 4))


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


def _peak_positions(
    corr: np.ndarray, threshold: float, min_distance: int
) -> list[int]:
    """Greedy non-maximum suppression over the correlation track."""
    candidates = np.flatnonzero(corr >= threshold)
    if candidates.size == 0:
        return []
    order = candidates[np.argsort(corr[candidates])[::-1]]
    taken: list[int] = []
    for position in order.tolist():
        # taken stays sorted, so only the two kept neighbours can be close.
        i = bisect.bisect(taken, position)
        if (i == 0 or position - taken[i - 1] >= min_distance) and (
            i == len(taken) or taken[i] - position >= min_distance
        ):
            taken.insert(i, position)
    return taken


def _coherent_spacing(positions: Sequence[int]) -> bool:
    """Whether matches repeat at a stable spacing.

    Genuine iterations sit one period apart, with dropouts showing up as
    small integer multiples; the sparse maxima of a structureless track
    land at incoherent offsets instead.  Too few matches to judge pass
    by default, the match-count requirement governs there.
    """
    if len(positions) < 5:
        return True
    gaps = np.diff(positions)
    period = float(np.median(gaps))
    if period <= 0.0:
        return False
    multiples = np.round(gaps / period)
    regular = (multiples >= 1) & (np.abs(gaps - multiples * period) <= 0.2 * period)
    return float(np.mean(regular)) >= 0.6


def _sorted_median(values: list[float]) -> float:
    """``np.median`` of an already sorted list, to the last bit."""
    half = len(values) // 2
    if len(values) % 2:
        return values[half]
    return (values[half - 1] + values[half]) / 2


def _median_split_steps(values: list[float]) -> list[float]:
    """|median(values[i:]) - median(values[:i])| for every split leaving at
    least five values on each side, from two running sorted lists."""
    prefix = sorted(values[:5])
    suffix = sorted(values[5:])
    steps = []
    for value in values[5 : len(values) - 4]:
        steps.append(abs(_sorted_median(suffix) - _sorted_median(prefix)))
        bisect.insort(prefix, value)
        del suffix[bisect.bisect_left(suffix, value)]
    return steps


def _grid_positions(
    seeds: list[int], corr: np.ndarray, width: int, bits: int, spe: int
) -> list[int] | None:
    """Rebuild the full iteration grid from the threshold matches.

    The multiplier is constant time, so the matches of one trace lie on
    an exact arithmetic progression; a pairwise-median fit of its period
    and phase shrugs off jittered or spurious matches, and every slot
    with room in the trace is snapped to the strongest correlation
    nearby.  Returns None when the matches do not sit on one coherent
    grid (a scheduler interruption splits the progression, for
    example); gap-based filling handles those traces instead.
    """
    if len(seeds) < 3:
        return None
    kept = sorted(seeds)
    rough = float(np.median(np.diff(kept)))
    if rough <= 0.0:
        return None
    # A spurious match squeezed between two genuine ones would shift
    # every later slot number by one, so short spacings are resolved
    # first by dropping the weaker match of the pair.
    changed = True
    while changed and len(kept) > 2:
        changed = False
        for i in range(len(kept) - 1):
            if kept[i + 1] - kept[i] < 0.8 * rough:
                weaker = i if corr[kept[i]] <= corr[kept[i + 1]] else i + 1
                del kept[weaker]
                changed = True
                break
    if len(kept) < 3:
        return None
    pos = np.asarray(kept, dtype=np.float64)
    diffs = np.diff(pos)
    steps = np.maximum(1, np.rint(diffs / rough).astype(np.int64))
    slots = np.concatenate(([0], np.cumsum(steps)))

    # Quantized single spacings bias a plain median period by whole
    # samples, which drifts to hundreds across the trace, and a least
    # squares fit has no outlier resistance; median slopes over long
    # baselines give a sub-sample period either way.
    baseline = max(1, len(pos) // 2)
    slopes = (pos[baseline:] - pos[:-baseline]) / (
        slots[baseline:] - slots[:-baseline]
    )
    period = float(np.median(slopes))
    if period <= 0.0:
        return None
    anchor = float(np.median(pos - slots * period))
    tolerance = max(2.0 * spe, 0.15 * period)
    for _ in range(2):
        coherent = np.abs(pos - (anchor + slots * period)) <= tolerance
        if float(np.mean(coherent)) < 0.8:
            return None
        period, anchor = np.polyfit(slots[coherent], pos[coherent], 1)
        period, anchor = float(period), float(anchor)
    if period <= width:
        return None
    centered = (pos - (anchor + slots * period)).tolist()
    if any(step > 0.75 * spe for step in _median_split_steps(centered)):
        return None

    snap = int(min(spe, max(0.0, (period - width) / 2.0 - 1.0)))
    first = math.ceil((-anchor - snap) / period)
    last = math.floor((corr.size - 1 - anchor + snap) / period)
    if last < first:
        return None
    grid = [
        min(max(int(round(anchor + j * period)), 0), corr.size - 1)
        for j in range(first, last + 1)
    ]
    while len(grid) > bits:
        if corr[grid[0]] <= corr[grid[-1]]:
            grid.pop(0)
        else:
            grid.pop()
    snapped: list[int] = []
    for g in grid:
        lo = max(0, g - snap)
        hi = min(corr.size, g + snap + 1)
        snapped.append(lo + int(np.argmax(corr[lo:hi])))
    return snapped


def _fill_holes(
    positions: list[int], corr: np.ndarray, width: int, target: int
) -> list[int]:
    """Insert plausible matches into oversized gaps.

    An interruption splicing silence into one iteration can push that
    iteration's correlation below the threshold; its neighbours then sit
    two spacings apart.  The best remaining correlation inside each such
    hole is accepted (down to a documented floor) until the expected
    count is reached or nothing credible remains.  Insertions keep a
    full template width away from both neighbours so the recovered
    matches always segment into disjoint windows.
    """
    positions = sorted(positions)
    while len(positions) < target and len(positions) >= 2:
        spacing = float(np.median(np.diff(positions)))
        margin = max(int(0.6 * spacing), width)
        holes: list[tuple[int, int]] = []
        if positions[0] >= 1.5 * spacing:
            holes.append((0, positions[0] - width))
        for a, b in zip(positions, positions[1:]):
            if b - a >= 1.6 * spacing:
                holes.append((a + margin, b - margin))
        tail_room = corr.size - 1 - positions[-1]
        if tail_room >= 0.8 * spacing:
            holes.append((positions[-1] + margin, corr.size))
        best_position = None
        best_value = _HOLE_CONFIDENCE_FLOOR
        for lo, hi in holes:
            lo, hi = max(0, lo), min(corr.size, hi)
            if hi <= lo:
                continue
            j = lo + int(np.argmax(corr[lo:hi]))
            if corr[j] > best_value:
                best_position, best_value = j, float(corr[j])
        if best_position is None:
            break
        positions = sorted(positions + [best_position])
    return positions


def align_swaps(
    trace: LeakageTrace,
    curve: CurveParams,
    cfg: SimConfig,
    multiplier: str,
) -> AlignedSwapWindows:
    """Locate every conditional swap by finding the iterations around it.

    The trace is bandpassed around the leak carrier and its
    rectified-median envelope matched against the single-iteration
    arithmetic fingerprint passed through the same filter; on the ladder
    each swap precedes its iteration, with double-and-add it follows, so
    the inter-match gaps are the swap spans.  Confidence is the
    normalized correlation of the adjacent match.

    The match threshold follows the strongest correlation peak between a
    fixed ceiling and an absolute floor.  Matches must also be numerous
    enough for the room the trace has and repeat at a stable spacing;
    sparse or incoherent maxima are rejected as structureless.
    """
    template = _pattern_template(curve, cfg, multiplier)
    if template.size > trace.samples.size:
        raise AlignmentError("trace is shorter than one iteration")
    # Streamed block by block: corr is the only trace-length array made.
    n = trace.samples.size
    envelope = _envelope_pieces(
        _bandpass_pieces(trace.samples, cfg), n, max(3, cfg.samples_per_event // 4)
    )
    corr = _normalized_xcorr(envelope, n, template)
    width = template.size
    best = float(corr.max(initial=0.0))
    threshold = max(_SEED_CORR_FLOOR, min(_SEED_CORR_CEILING, 0.6 * best))
    positions = _peak_positions(corr, threshold, width)
    bits = curve.n.bit_length()
    capacity = min(bits, trace.samples.size // width)
    if len(positions) < max(1, capacity // 4):
        raise AlignmentError("no iteration pattern found in the trace")
    if not _coherent_spacing(positions):
        raise AlignmentError("correlation maxima lack a stable spacing")
    grid = _grid_positions(positions, corr, width, bits, cfg.samples_per_event)
    if grid is not None:
        positions = grid
    else:
        positions = _fill_holes(positions, corr, width, bits)
    if len(positions) > bits:
        raise AlignmentError(
            f"found {len(positions)} iteration patterns, expected at most {bits}"
        )
    if any(b - a < width for a, b in zip(positions, positions[1:])):
        raise AlignmentError("matched iterations overlap; segmentation failed")

    gaps = [b - (a + width) for a, b in zip(positions, positions[1:])]
    typical_gap = int(np.median(gaps)) if gaps else positions[0]
    spans: list[tuple[int, int]] = []
    if multiplier == "ladder":
        for i, position in enumerate(positions):
            start = positions[i - 1] + width if i else position - typical_gap
            spans.append((max(0, start), position))
    else:
        total = trace.samples.size
        for i, position in enumerate(positions):
            end = positions[i + 1] if i + 1 < len(positions) else min(
                total, position + width + typical_gap
            )
            spans.append((position + width, end))
    return AlignedSwapWindows(
        spans=tuple(spans), confidence=tuple(float(corr[p]) for p in positions)
    )


def write_windows_csv(aligned: AlignedSwapWindows, path: Path | str) -> None:
    """Dump aligned windows, one row per swap, for manual review."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("window_index", "start", "end", "confidence"))
        for i, ((start, end), conf) in enumerate(
            zip(aligned.spans, aligned.confidence)
        ):
            writer.writerow((i, start, end, f"{conf:.6f}"))
