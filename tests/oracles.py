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

from nonce_lab import swap_impls, tracesim
from nonce_lab.errors import DomainError
from nonce_lab.events import KIND_BY_CODE, WORD_BITS, EventRecorder, OpKind
from nonce_lab.ff_curve import Field, ProjectivePoint, _affine_point, _recover_y
from nonce_lab.swap_impls import SwapKind, SwapVariant, WordArrayPair, ct_swap
from nonce_lab.tracesim import LeakageTrace, MarkerTable, TraceSet, synthesize

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


def full_fft_convolve(x, kernel, start, length):
    """``dsp._fft_convolve`` before overlap-add: one real FFT of the whole
    convolution at ``next_fast_len``, sliced."""
    from scipy.fft import irfftn, next_fast_len, rfftn

    n = x.size + kernel.size - 1
    size = next_fast_len(n, True)
    full = irfftn(rfftn(x, [size]) * rfftn(kernel, [size]), [size])[:n]
    return full[start : start + length]


def plain_normalized_xcorr(envelope, template):
    """Per-window normalized cross-correlation written as plain formulas,
    one fresh array per step, over the full-length FFT convolution."""
    t = template - template.mean()
    t_norm = float(np.linalg.norm(t))
    width = template.size
    numerator = full_fft_convolve(envelope, t[::-1], width - 1, envelope.size - width + 1)
    cumulative = np.concatenate(([0.0], np.cumsum(envelope)))
    cumulative_sq = np.concatenate(([0.0], np.cumsum(envelope**2)))
    window_sum = cumulative[width:] - cumulative[:-width]
    window_sq = cumulative_sq[width:] - cumulative_sq[:-width]
    variance = np.maximum(window_sq - window_sum**2 / width, 0.0)
    denominator = np.sqrt(variance) * t_norm
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


# ---------------------------------------------------------------------------
# The traced multipliers as field-op closures, one ``emit`` per event. The
# package's fused bodies must match these event for event and draw for draw.


def no_emit(kind: OpKind, leak: int) -> None:
    pass


def make_ops(field: Field, recorder: EventRecorder | None):
    """Field-op closures over ints, emitting one event per op to the
    recorder if there is one."""
    red = field.reducer()
    p = field.p
    emit = no_emit if recorder is None else recorder.emit

    def mul(u: int, v: int) -> int:
        r = red(u * v)
        emit(OpKind.FIELD_MUL, r.bit_count())
        return r

    def sq(u: int) -> int:
        r = red(u * u)
        emit(OpKind.FIELD_SQUARE, r.bit_count())
        return r

    def add(u: int, v: int) -> int:
        s = u + v
        if s >= p:
            s -= p
        emit(OpKind.FIELD_ADD_SUB, s.bit_count())
        return s

    def sub(u: int, v: int) -> int:
        d = u - v
        if d < 0:
            d += p
        emit(OpKind.FIELD_ADD_SUB, d.bit_count())
        return d

    def shl(u: int, bits: int) -> int:
        r = red(u << bits)
        emit(OpKind.FIELD_ADD_SUB, r.bit_count())
        return r

    return mul, sq, add, sub, shl


def add_body(P, Q, a, b3, mul, sq, add, sub):
    X1, Y1, Z1 = P
    X2, Y2, Z2 = Q
    t0 = mul(X1, X2)
    t1 = mul(Y1, Y2)
    t2 = mul(Z1, Z2)
    t3 = add(X1, Y1)
    t4 = add(X2, Y2)
    t3 = mul(t3, t4)
    t4 = add(t0, t1)
    t3 = sub(t3, t4)
    t4 = add(X1, Z1)
    t5 = add(X2, Z2)
    t4 = mul(t4, t5)
    t5 = add(t0, t2)
    t4 = sub(t4, t5)
    t5 = add(Y1, Z1)
    X3 = add(Y2, Z2)
    t5 = mul(t5, X3)
    X3 = add(t1, t2)
    t5 = sub(t5, X3)
    Z3 = mul(a, t4)
    X3 = mul(b3, t2)
    Z3 = add(X3, Z3)
    X3 = sub(t1, Z3)
    Z3 = add(t1, Z3)
    Y3 = mul(X3, Z3)
    t1 = add(t0, t0)
    t1 = add(t1, t0)
    t2 = mul(a, t2)
    t4 = mul(b3, t4)
    t1 = add(t1, t2)
    t2 = sub(t0, t2)
    t2 = mul(a, t2)
    t4 = add(t4, t2)
    t0 = mul(t1, t4)
    Y3 = add(Y3, t0)
    t0 = mul(t5, t4)
    X3 = mul(t3, X3)
    X3 = sub(X3, t0)
    t0 = mul(t3, t1)
    Z3 = mul(t5, Z3)
    Z3 = add(Z3, t0)
    return (X3, Y3, Z3)


def dbl_body(P, a, b3, mul, sq, add, sub):
    X, Y, Z = P
    t0 = sq(X)
    t1 = sq(Y)
    t2 = sq(Z)
    t3 = mul(X, Y)
    t3 = add(t3, t3)
    Z3 = mul(X, Z)
    Z3 = add(Z3, Z3)
    X3 = mul(a, Z3)
    Y3 = mul(b3, t2)
    Y3 = add(X3, Y3)
    X3 = sub(t1, Y3)
    Y3 = add(t1, Y3)
    Y3 = mul(X3, Y3)
    X3 = mul(t3, X3)
    Z3 = mul(b3, Z3)
    t2 = mul(a, t2)
    t3 = sub(t0, t2)
    t3 = mul(a, t3)
    t3 = add(t3, Z3)
    Z3 = add(t0, t0)
    t0 = add(Z3, t0)
    t0 = add(t0, t2)
    t0 = mul(t0, t3)
    Y3 = add(Y3, t0)
    t2 = mul(Y, Z)
    t2 = add(t2, t2)
    t0 = mul(t2, t3)
    X3 = sub(X3, t0)
    Z3 = mul(t2, t1)
    Z3 = add(Z3, Z3)
    Z3 = add(Z3, Z3)
    return (X3, Y3, Z3)


def step_body(s, r, x_base, a, b, mul, sq, add, sub, shl):
    """One ladder step on x-only pairs: returns (r + s, 2r).

    Requires the affine x of r - s. The multiply/square runs follow
    LADDER_STEP_MUL_GROUPS, separated by add/sub/shift ops.
    """
    X1, Z1 = s
    X2, Z2 = r
    t6 = mul(X2, X1)
    t0 = mul(Z2, Z1)
    t4 = mul(X2, Z1)
    t3 = mul(Z2, X1)
    t5 = mul(a, t0)
    t5 = add(t6, t5)
    t6 = add(t3, t4)
    t3 = sub(t3, t4)
    t5 = mul(t6, t5)
    t0 = sq(t0)
    t2 = shl(b, 2)
    t0 = mul(t2, t0)
    t5 = shl(t5, 1)
    Z1n = sq(t3)
    t4 = mul(Z1n, x_base)
    t0 = add(t0, t5)
    X1n = sub(t0, t4)
    t4 = sq(X2)
    t5 = sq(Z2)
    t6 = mul(a, t5)
    t1 = add(X2, Z2)
    t1 = sq(t1)
    t1 = sub(t1, t4)
    t1 = sub(t1, t5)
    t3 = sub(t4, t6)
    t3 = sq(t3)
    t0 = mul(t5, t1)
    t0 = mul(t2, t0)
    X2n = sub(t3, t0)
    t3 = add(t4, t6)
    t4 = sq(t5)
    t4 = mul(t4, t2)
    t1 = mul(t1, t3)
    t1 = shl(t1, 1)
    Z2n = add(t4, t1)
    return (X1n, Z1n), (X2n, Z2n)


def rerandomize_triple(triple, scale, red, emit):
    """Scale a projective representative by a nonzero factor, emitting one
    event per refreshed coordinate."""
    out = tuple(red(c * scale) for c in triple)
    for c in out:
        emit(OpKind.RERANDOMIZE, c.bit_count())
    return out


def closure_ladder(k, base, curve, swap_impl=None, recorder=None):
    """The traced branch of ``montgomery_ladder`` on the closures above;
    ``base`` must lie on the curve and ``recorder`` must be given."""
    xb, yb = base[0] % curve.p, base[1] % curve.p
    if swap_impl is None:
        swap_impl = swap_impls.SwapVariant(swap_impls.SwapKind.PLAIN)
    combined = swap_impl.kind is swap_impls.SwapKind.COMBINED
    red = curve.field.reducer()
    p = curve.p
    wc = curve.word_count
    mul, sq, add, sub, shl = make_ops(curve.field, recorder)
    rng = swap_impl.rng

    # Register layout: A tracks the 2r half, B the r+s half, each dragging a
    # stale Y coordinate that only the swaps touch.  Registers hold random
    # projective representatives from the start, so no swap ever moves a
    # fixed constant: on the x-line any (c : 0) with c != 0 is neutral.
    def fresh_neutral() -> tuple[int, int, int]:
        return (rng.randrange(1, p), rng.randrange(1, p), 0)

    def fresh_base() -> tuple[int, int, int]:
        lam = rng.randrange(1, p)
        return (red(xb * lam), red(yb * lam), lam)

    A = fresh_neutral()
    B = fresh_base()
    pbit = 0
    seen = False
    for i in range(k.bit_length - 1, -1, -1):
        bit = k.bit(i)
        cond = bit ^ pbit
        pbit = bit
        if combined:
            A = rerandomize_triple(A, rng.randrange(1, p), red, recorder.emit)
            B = rerandomize_triple(B, rng.randrange(1, p), red, recorder.emit)
        swapped = swap_impls.ct_swap(
            swap_impl, swap_impls.WordArrayPair(A, B, wc), cond, recorder
        )
        A, B = swapped.a, swapped.b
        (bx, bz), (ax, az) = step_body(
            (B[0], B[2]), (A[0], A[2]), xb, curve.a, curve.b, mul, sq, add, sub, shl
        )
        A = (ax, A[1], az)
        B = (bx, B[1], bz)
        if not seen:
            seen = bit == 1
            B = fresh_base()
            if not seen:
                A = fresh_neutral()
    if pbit:
        R0, R1 = (B[0], B[2]), (A[0], A[2])
    else:
        R0, R1 = (A[0], A[2]), (B[0], B[2])
    return _affine_point(_recover_y((xb, yb), R0, R1, curve), curve)


def closure_daa(k, point, curve, swap_impl=None, recorder=None):
    """The traced branch of ``double_and_always_add`` on the closures above;
    ``point`` must lie on the curve and ``recorder`` must be given."""
    P = point.triple()
    if swap_impl is None:
        swap_impl = swap_impls.SwapVariant(swap_impls.SwapKind.PLAIN)
    combined = swap_impl.kind is swap_impls.SwapKind.COMBINED
    red = curve.field.reducer()
    p, a = curve.p, curve.a
    b3 = 3 * curve.b % p
    wc = curve.word_count
    mul, sq, add, sub, _ = make_ops(curve.field, recorder)
    rng = swap_impl.rng
    # A random neutral representative keeps the first iterations' register
    # images in the same distribution as the rest.
    R = (0, rng.randrange(1, p), 0)
    for i in range(k.bit_length - 1, -1, -1):
        R = dbl_body(R, a, b3, mul, sq, add, sub)
        T = add_body(R, P, a, b3, mul, sq, add, sub)
        if combined:
            R = rerandomize_triple(R, rng.randrange(1, p), red, recorder.emit)
            T = rerandomize_triple(T, rng.randrange(1, p), red, recorder.emit)
        swapped = swap_impls.ct_swap(
            swap_impl, swap_impls.WordArrayPair(R, T, wc), k.bit(i), recorder
        )
        R, T = swapped.a, swapped.b
    return ProjectivePoint(*R, curve.field)


def exhaustive_best_path(peaks, period, slots, jump):
    """Greatest summed ``peaks`` over every path of ``slots`` bins whose
    consecutive gaps lie in [period - 1, period + 1], save at most one of
    up to ``period + 1 + jump``, by trying them all; None when no path
    fits."""
    peaks = [float(v) for v in peaks]
    best = None

    def extend(path, total, long_gap_left):
        nonlocal best
        if len(path) == slots:
            if best is None or total > best:
                best = total
            return
        last = path[-1]
        for gap in range(period - 1, period + 2 + (jump if long_gap_left else 0)):
            nxt = last + gap
            if nxt >= len(peaks):
                break
            extend(path + [nxt], total + peaks[nxt], long_gap_left and gap <= period + 1)

    for first in range(len(peaks)):
        extend([first], peaks[first], True)
    return best


def marker_columns(recorder, samples_per_event, divisors):
    """Starts, ends, kinds and conds of an unbroken synthesized trace, event
    by event: each event lasts ``samples_per_event // divisors[kind]``."""
    starts, ends = [], []
    t = 0
    for code in recorder.kinds:
        starts.append(t)
        t += samples_per_event // divisors[KIND_BY_CODE[code]]
        ends.append(t)
    return starts, ends, list(recorder.kinds), list(recorder.conds)


def burst_overlay(trace, cfg, rng):
    """The trace with band-limited noise bursts added on the configured
    spans, from ``rng``, and the markers a burst overlaps flagged: each
    burst is white noise smoothed by ``np.convolve`` in "same" mode,
    scaled to unit RMS, times ``amplitude`` and the carrier at each
    sample's time.  Needs bursts at least as long as the smoothing
    kernel."""
    if not cfg.interference:
        return trace
    n = trace.samples.size
    smoothing = max(1, cfg.samples_per_event // 2)
    kernel = np.ones(smoothing) / smoothing
    out = trace.samples.astype(np.float64, copy=True)
    mt = trace.markers
    flagged = mt.interfered.copy()
    for start_frac, len_frac, amplitude in cfg.interference:
        start = int(round(start_frac * n))
        stop = min(n, start + int(round(len_frac * n)))
        if stop <= start:
            continue
        envelope = np.convolve(rng.normal(0.0, 1.0, stop - start), kernel, "same")
        t = np.arange(start, stop, dtype=np.float64) / trace.sample_rate
        wave = np.cos(2.0 * np.pi * cfg.f_mod * t)
        out[start:stop] += amplitude * np.sqrt(smoothing) * envelope * wave
        flagged |= (mt.starts < stop) & (mt.ends > start)
    markers = MarkerTable(mt.starts, mt.ends, mt.kinds, mt.conds, flagged)
    return LeakageTrace(out, trace.sample_rate, markers, dict(trace.meta))


def whole_render(layout, spans, cfg, rng, noise=None):
    """``tracesim._render`` as whole arrays: each sample's envelope level
    looked up by binary search over the segment edges, times
    cos(2*pi*f_mod*i/sample_rate) at its sample index i, plus one normal
    draw over all rows (or ``sigma`` times the given standard normal
    draws), plus ``burst_overlay`` on each trace from one child of
    ``rng``.  Bursts need spans that cover whole traces."""
    levels = np.atleast_2d(layout.levels)
    rows = []
    for level_row in levels:
        for lo, hi in spans:
            index = np.arange(lo, hi)
            level = level_row[np.searchsorted(layout.edges, index, "right") - 1]
            t = index.astype(np.float64) / cfg.sample_rate
            rows.append(level * np.cos(t * (2.0 * np.pi * cfg.f_mod)))
    rows = np.array(rows)
    if noise is not None:
        rows = rows + noise * cfg.noise_sigma
    elif cfg.noise_sigma > 0.0:
        rows = rows + rng.normal(0.0, cfg.noise_sigma, rows.shape)
    if cfg.interference:
        burst_rng = rng.spawn(1)[0]
        markers = MarkerTable.empty()
        rows = np.array([
            burst_overlay(LeakageTrace(row, cfg.sample_rate, markers, {}), cfg, burst_rng).samples
            for row in rows
        ])
    return rows


def window_by_window_campaign(variant, word_count, conds, cfg, rng):
    """A swap-window campaign synthesized one window at a time: per
    window its operands, its variant seed, then a whole ``synthesize``
    call with its own markers.  It shares ``synthesize`` and ``ct_swap``
    with the package; what it checks is the batched campaign's layout
    and draw order."""
    kind = SwapKind(variant)
    traces = []
    for cond in conds:
        words = rng.integers(0, 2**64, 2 * word_count, dtype=np.uint64)
        pair = WordArrayPair(
            tuple(int(w) for w in words[:word_count]),
            tuple(int(w) for w in words[word_count:]),
        )
        recorder = EventRecorder()
        ct_swap(SwapVariant(kind, rng_seed=int(rng.integers(0, 2**63))), pair, int(cond), recorder)
        meta = {"variant": kind.value, "word_count": str(word_count)}
        traces.append(synthesize(recorder, cfg, rng, meta=meta))
    return TraceSet(traces, np.asarray(conds, dtype=np.int8).reshape(-1, 1))


def generate_training_windows(curve, variant, count, cfg, rng=None, *, multiplier="ladder"):
    """The swap windows of ``generate_training_set``'s runs, rendered
    without the rest of each trace: one row per window, its labels, and
    the meta its traces would carry.

    The runs are drawn as there, and each is rendered from the same
    layout by ``tracesim._render``, but only at its swap bursts, so its
    noise covers just those samples; at ``noise_sigma`` 0 the rows equal
    the windows cut from the full traces.  A window that an interference
    burst overlaps, or that an interruption gap splits, is left out.  It
    shares the layout and renderer with the package; what it checks is
    the renderer on spans that start inside a trace.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    parts, labels = [], []
    for recorder in tracesim._training_runs(curve, variant, count, rng, multiplier):
        kinds, leaks, conds = tracesim._event_columns(recorder)
        layout = tracesim._layout(kinds, leaks, cfg, rng)
        first, stop = tracesim._swap_bursts(kinds, conds)
        spans = np.stack((layout.starts[first], layout.ends[stop - 1]), axis=1)
        # An interruption leaves a gap between two events; a burst it
        # splits is longer than the others.
        gaps = np.flatnonzero(layout.starts[1:] > layout.ends[:-1]) + 1
        keep = ~((first[:, None] < gaps) & (gaps < stop[:, None])).any(axis=1)
        for start, stop, _ in tracesim._burst_spans(cfg, int(layout.edges[-1])):
            keep &= (spans[:, 0] >= stop) | (spans[:, 1] <= start)
        if keep.any():
            parts.append(tracesim._render(layout, spans[keep], cfg, rng))
            labels.append(conds[first[keep]])
    meta = {"curve": curve.name, "variant": SwapKind(variant).value, "multiplier": multiplier}
    return np.concatenate(parts), np.concatenate(labels), meta


def svd_first_component(matrix):
    """First right singular vector of ``matrix``, by ``np.linalg.svd``."""
    return np.linalg.svd(matrix, full_matrices=False)[2][0]


def textbook_two_gaussian_em(values, steps, floor_fraction=1e-6):
    """Upper-cluster posteriors of a two-Gaussian mixture, by textbook EM
    over plain floats, one value at a time: per-cluster weight, mean and
    variance (floored at ``floor_fraction`` of the values' variance),
    started from the upper half of the ranks as the upper cluster.  Needs
    every value within reach of one cluster's density."""
    values = [float(v) for v in values]
    n = len(values)
    upper = set(sorted(range(n), key=lambda i: values[i])[n // 2 :])
    resp = [1.0 if i in upper else 0.0 for i in range(n)]
    mean = sum(values) / n
    floor = floor_fraction * sum((v - mean) ** 2 for v in values) / n
    for _ in range(steps):
        clusters = []
        for r in ([1.0 - x for x in resp], resp):
            weight = sum(r)
            mu = sum(ri * v for ri, v in zip(r, values)) / weight
            var = max(sum(ri * (v - mu) ** 2 for ri, v in zip(r, values)) / weight, floor)
            clusters.append((weight / n, mu, var))
        resp = []
        for v in values:
            lower, higher = (
                w / math.sqrt(2.0 * math.pi * var) * math.exp(-((v - mu) ** 2) / (2.0 * var))
                for w, mu, var in clusters
            )
            resp.append(higher / (lower + higher))
    return np.array(resp)
