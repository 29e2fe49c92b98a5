"""Independent reference implementations used only to check the package.

Everything here is deliberately written the straightforward way (affine
chord-and-tangent arithmetic, linear search, Monte-Carlo estimation) with no
code shared with the implementations under test.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
from scipy.ndimage import median_filter

from nonce_lab.errors import DomainError
from nonce_lab.events import WORD_BITS, EventRecorder, OpKind
from nonce_lab.swap_impls import SwapKind, SwapVariant, WordArrayPair

WORD_MASK = (1 << WORD_BITS) - 1


def affine_add(P, Q, p, a):
    """Chord-and-tangent addition on affine tuples; None is the identity."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if P == Q:
        lam = (3 * x1 * x1 + a) * pow(2 * y1, p - 2, p) % p
    else:
        lam = (y2 - y1) * pow((x2 - x1) % p, p - 2, p) % p
    x3 = (lam * lam - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return (x3, y3)


def affine_multiply(k, P, p, a):
    """Left-to-right double-and-add on affine tuples."""
    if k == 0 or P is None:
        return None
    R = None
    for i in range(k.bit_length() - 1, -1, -1):
        R = affine_add(R, R, p, a)
        if (k >> i) & 1:
            R = affine_add(R, P, p, a)
    return R


def enumerate_private_key(q_affine, curve):
    """Brute-force d with d*G == Q by walking all multiples of G."""
    acc = None
    for d in range(1, curve.n):
        acc = affine_add(acc, curve.generator, curve.p, curve.a)
        if acc == q_affine:
            return d
    raise AssertionError("public point is not a multiple of G")


def enumerate_hnp_keys(inst, curve):
    """Every private key consistent with all leaked nonce bits, by brute force.

    For each candidate d the implied nonce is k = s^-1 * (z + r*d) mod n;
    d survives when every sample's k has the declared low bits.
    """
    n = curve.n
    out = []
    for d in range(1, n):
        ok = True
        for sample in inst.samples:
            s_inv = pow(sample.s, n - 2, n)
            k = s_inv * (sample.z + sample.r * d) % n
            if k % (1 << sample.leak_bits) != sample.known_lsb:
                ok = False
                break
        if ok:
            out.append(d)
    return out


def shortest_vector_2d(rows):
    """Exhaustive shortest nonzero vector of a rank-2 integer lattice.

    Scans small coefficient combinations of the input rows; enough for the
    hand-sized bases used in tests.
    """
    bound = 60
    best = None
    best_norm = None
    for c0 in range(-bound, bound + 1):
        for c1 in range(-bound, bound + 1):
            if c0 == 0 and c1 == 0:
                continue
            v = tuple(c0 * a + c1 * b for a, b in zip(rows[0], rows[1]))
            norm = sum(x * x for x in v)
            if best_norm is None or norm < best_norm:
                best, best_norm = v, norm
    return best, best_norm


def hermite_normal_form(rows):
    """Row-style HNF of a square nonsingular integer matrix.

    Column echelon with positive pivots and reduced entries above each
    pivot; two bases span the same lattice iff their HNFs agree.
    """
    a = [list(r) for r in rows]
    m = len(a)
    width = len(a[0])
    pivot_row = 0
    for col in range(width):
        nonzero = [i for i in range(pivot_row, m) if a[i][col] != 0]
        if not nonzero:
            continue
        while len(nonzero) > 1:
            nonzero.sort(key=lambda i: abs(a[i][col]))
            base = nonzero[0]
            for i in nonzero[1:]:
                q = a[i][col] // a[base][col]
                a[i] = [x - q * y for x, y in zip(a[i], a[base])]
            nonzero = [i for i in nonzero if a[i][col] != 0]
        src = nonzero[0]
        a[pivot_row], a[src] = a[src], a[pivot_row]
        if a[pivot_row][col] < 0:
            a[pivot_row] = [-x for x in a[pivot_row]]
        for i in range(pivot_row):
            q = a[i][col] // a[pivot_row][col]
            a[i] = [x - q * y for x, y in zip(a[i], a[pivot_row])]
        pivot_row += 1
    return tuple(tuple(r) for r in a)


def measured_leak_delta(run, word_count, samples, seed):
    """Monte-Carlo estimate of E[leak sum | cond=1] - E[leak sum | cond=0].

    ``run(a_words, b_words, cond)`` must return the total leak of one swap;
    input randomness comes from ``seed``.
    """
    rng = random.Random(seed)
    totals = [0.0, 0.0]
    for _ in range(samples):
        a = [rng.getrandbits(64) for _ in range(word_count)]
        b = [rng.getrandbits(64) for _ in range(word_count)]
        for cond in (0, 1):
            totals[cond] += run(a, b, cond)
    return (totals[1] - totals[0]) / samples


def expected_leak_delta(variant, word_count):
    """Closed form of ``measured_leak_delta`` for ``ct_swap`` on ``variant``.

    Over uniformly random word arrays a Hamming weight averages 32 whatever
    the condition, and a write leaks its Hamming distance: 0 when nothing
    changes, 32 on average between independent words.
    """
    w = Fraction(word_count)
    if variant is SwapKind.PLAIN:
        # cond=1: mask 64 + per word (delta 32 + two stores 32 each); cond=0: all zero.
        return 64 + w * 3 * 32
    if variant is SwapKind.LIBGCRYPT:
        # Mask pair totals 64 either way; selects average 32 either way;
        # only the stores differ (0 vs 32 each).
        return w * 2 * 32
    if variant is SwapKind.MASKED:
        # Deltas are blinded to expected 32 both ways; mask (0 vs 64) and
        # stores (0 vs 32 each) still differ.
        return 64 + w * 2 * 32
    return Fraction(0)


def mul_run_lengths(kinds):
    """Lengths of the maximal multiply/square runs in a recorder's kinds
    column; any other event ends a run."""
    mul_codes = {OpKind.FIELD_MUL.code, OpKind.FIELD_SQUARE.code}
    runs = []
    run = 0
    for code in kinds:
        if code in mul_codes:
            run += 1
        elif run:
            runs.append(run)
            run = 0
    if run:
        runs.append(run)
    return runs


def step_peak_groups(envelope, samples_per_event):
    """Multiplicities of the arithmetic peak groups in a step envelope.

    Thresholds the envelope halfway between its extremes and sizes each
    above-threshold run in units of one full event, so a clean ladder step
    decodes to its characteristic group pattern.
    """
    envelope = np.asarray(envelope, dtype=np.float64)
    threshold = (envelope.max() + envelope.min()) / 2.0
    above = np.concatenate(([0], (envelope > threshold).astype(np.int8), [0]))
    edges = np.flatnonzero(np.diff(above))
    return [
        round((b - a) / samples_per_event + 0.25)
        for a, b in zip(edges[::2], edges[1::2])
    ]


def greedy_peak_positions(corr, threshold, min_distance):
    """Quadratic greedy non-maximum suppression over a correlation track.

    Candidates at or above ``threshold`` are visited strongest first and
    kept when every position kept so far lies at least ``min_distance``
    away; the result is sorted.
    """
    candidates = np.flatnonzero(corr >= threshold)
    if candidates.size == 0:
        return []
    order = candidates[np.argsort(corr[candidates])[::-1]]
    taken = []
    for position in order:
        if all(abs(position - p) >= min_distance for p in taken):
            taken.append(int(position))
    return sorted(taken)


def scipy_bandpass(samples, sample_rate, center, bandwidth):
    """48 dB Kaiser band-pass designed and applied by ``scipy.signal`` itself."""
    from scipy import signal

    transition = (bandwidth / 2.0) / (sample_rate / 2.0)
    numtaps, beta = signal.kaiserord(48.0, transition)
    numtaps |= 1
    taps = signal.firwin(
        numtaps,
        (center - bandwidth / 2.0, center + bandwidth / 2.0),
        window=("kaiser", beta),
        pass_zero=False,
        fs=sample_rate,
    )
    return signal.fftconvolve(samples, taps, mode="same")


def scipy_normalized_xcorr(envelope, template):
    """Per-window normalized cross-correlation over ``fftconvolve``'s valid part."""
    from scipy import signal

    t = template - template.mean()
    width = template.size
    numerator = signal.fftconvolve(envelope, t[::-1], mode="valid")
    cumulative = np.concatenate(([0.0], np.cumsum(envelope)))
    cumulative_sq = np.concatenate(([0.0], np.cumsum(envelope**2)))
    window_sum = cumulative[width:] - cumulative[:-width]
    window_sq = cumulative_sq[width:] - cumulative_sq[:-width]
    variance = np.maximum(window_sq - window_sum**2 / width, 0.0)
    denominator = np.sqrt(variance) * float(np.linalg.norm(t))
    return numerator / np.maximum(denominator, 1e-12)


def per_window_estimate(trace, model, windows, multiplier):
    """Condition guesses and class-1 probabilities, one window at a time.

    Cuts each aligned window as ``recover_nonce_bits`` does (ladder windows
    anchored at their end, double-and-add windows at their start, both
    clamped into the trace), takes its rectified median envelope, and
    scores it with a likelihood ratio written out in plain numpy.
    """
    width = int(model.trained_on["feature_length"])
    median = int(model.trained_on["median_samples"])
    samples = trace.samples
    conds, probabilities = [], []
    for start, end in windows.spans:
        if multiplier == "ladder":
            hi = min(end, samples.size)
            lo = hi - width
            if lo < 0:
                lo, hi = 0, width
        else:
            lo = max(start, 0)
            hi = lo + width
            if hi > samples.size:
                lo, hi = samples.size - width, samples.size
        envelope = median_filter(np.abs(samples[lo:hi]), size=median, mode="reflect")
        x = envelope[model.poi]
        distances = []
        for mean in (model.mean0, model.mean1):
            d = x - mean
            if model.mode == "diag":
                distances.append(np.sum(d * d / model.cov))
            else:
                distances.append(d @ np.linalg.solve(model.cov, d))
        llr = 0.5 * (distances[0] - distances[1])
        conds.append(int(llr > 0.0))
        probabilities.append(1.0 / (1.0 + math.exp(-min(max(llr, -700.0), 700.0))))
    return conds, probabilities


def word_ct_swap(
    variant: SwapVariant,
    pair: WordArrayPair,
    cond: int,
    recorder: EventRecorder | None = None,
) -> WordArrayPair:
    """The word-by-word ``ct_swap``, one ``emit`` per event: ``pair`` holds
    one 64-bit word per coordinate. The package's version works on whole
    multi-word coordinates and must match this one event for event and
    draw for draw."""
    if cond not in (0, 1):
        raise DomainError(f"swap condition must be 0 or 1, got {cond!r}")
    if not isinstance(pair, WordArrayPair):
        raise DomainError(f"expected WordArrayPair, got {type(pair).__name__}")

    emit = recorder.emit if recorder is not None else None
    a = list(pair.a)
    b = list(pair.b)
    kind = variant.kind
    rng = variant.rng

    if kind is SwapKind.PLAIN:
        mask = (-cond) & WORD_MASK
        if emit:
            emit(OpKind.MASK_COMPUTE, mask.bit_count(), cond)
        for i in range(len(a)):
            delta = (a[i] ^ b[i]) & mask
            na = a[i] ^ delta
            nb = b[i] ^ delta
            if emit:
                emit(OpKind.DELTA_COMPUTE, delta.bit_count(), cond)
                emit(OpKind.STORE_A, (a[i] ^ na).bit_count(), cond)
                emit(OpKind.STORE_B, (b[i] ^ nb).bit_count(), cond)
            a[i], b[i] = na, nb

    elif kind is SwapKind.LIBGCRYPT:
        mask = (-cond) & WORD_MASK
        inv = mask ^ WORD_MASK
        if emit:
            emit(OpKind.MASK_COMPUTE, mask.bit_count(), cond)
            emit(OpKind.INV_MASK_COMPUTE, inv.bit_count(), cond)
        for i in range(len(a)):
            sel_a = (a[i] & inv) | (b[i] & mask)
            sel_b = (a[i] & mask) | (b[i] & inv)
            if emit:
                emit(OpKind.DELTA_COMPUTE, sel_a.bit_count(), cond)
                emit(OpKind.DELTA_COMPUTE, sel_b.bit_count(), cond)
                emit(OpKind.STORE_A, (a[i] ^ sel_a).bit_count(), cond)
                emit(OpKind.STORE_B, (b[i] ^ sel_b).bit_count(), cond)
            a[i], b[i] = sel_a, sel_b

    elif kind is SwapKind.MASKED:
        mask = (-cond) & WORD_MASK
        if emit:
            emit(OpKind.MASK_COMPUTE, mask.bit_count(), cond)
        for i in range(len(a)):
            r = rng.getrandbits(WORD_BITS)
            delta = ((a[i] ^ b[i]) & mask) ^ r
            na = (a[i] ^ delta) ^ r
            nb = (b[i] ^ delta) ^ r
            if emit:
                emit(OpKind.DELTA_COMPUTE, delta.bit_count(), cond)
                emit(OpKind.STORE_A, (a[i] ^ na).bit_count(), cond)
                emit(OpKind.STORE_B, (b[i] ^ nb).bit_count(), cond)
            a[i], b[i] = na, nb

    else:  # SwapKind.COMBINED
        share1 = rng.getrandbits(1)
        share2 = cond ^ share1
        if emit:
            # The second share's selector resolves in a later stage, after
            # the word passes, so no short integration window ever sees
            # both shares at once.
            emit(OpKind.MASK_COMPUTE, ((-share1) & WORD_MASK).bit_count(), cond)
        order = list(range(len(a)))
        rng.shuffle(order)
        new_a = list(a)
        new_b = list(b)
        for i in order:
            r = rng.getrandbits(WORD_BITS)
            # Share-wise processing never materializes the bare delta; its
            # observable image is the blinded value.
            blinded = ((a[i] ^ b[i]) if cond else 0) ^ r
            na, nb = (b[i], a[i]) if cond else (a[i], b[i])
            if emit:
                emit(OpKind.DELTA_COMPUTE, blinded.bit_count(), cond)
                # Write-back passes through a randomized representative, so
                # the bus sees old vs fresh-random, not old vs new.
                emit(OpKind.STORE_A, (a[i] ^ rng.getrandbits(WORD_BITS)).bit_count(), cond)
                emit(OpKind.STORE_B, (b[i] ^ rng.getrandbits(WORD_BITS)).bit_count(), cond)
            new_a[i], new_b[i] = na, nb
        a, b = new_a, new_b
        if emit:
            emit(OpKind.MASK_COMPUTE, ((-share2) & WORD_MASK).bit_count(), cond)

    return WordArrayPair(a, b)
