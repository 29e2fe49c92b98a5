"""Constant-time conditional swap variants and their leakage models.

All four variants compute the same function: swap two equal-length word
arrays when the condition bit is set, leave them alone otherwise, in a fixed
number of word operations either way. They differ in which intermediate
values exist on the (simulated) device, and therefore in what each recorded
event leaks:

* plain: an all-ones/all-zeros mask, XOR deltas, and the write-backs all
  correlate directly with the condition.
* libgcrypt: builds both the mask and its complement and selects words by
  AND/OR; half the leakage is condition-independent but the mask pair and
  the stores still betray the condition.
* masked: a fresh random word blinds each delta, so only the mask
  computation and the store Hamming distances remain condition-dependent.
* combined: the condition is split into two random shares, deltas are
  blinded, write-backs go through randomized representatives, and the
  per-word processing order is shuffled. Every event's first-order
  distribution is the same for both conditions.

Leak values are Hamming weights of computed words or Hamming distances of
overwritten ones, which is the usual first-order model for EM amplitude.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum, unique

from .errors import DomainError
from .events import EventRecorder, OpKind, WORD_BITS

WORD_MASK = (1 << WORD_BITS) - 1


@unique
class SwapKind(Enum):
    PLAIN = "plain"
    LIBGCRYPT = "libgcrypt"
    MASKED = "masked"
    COMBINED = "combined"


@dataclass
class SwapVariant:
    """A swap algorithm choice plus the RNG feeding its masks.

    The seed only matters for the masked and combined variants; passing one
    makes every blinding word, condition share, and word-order shuffle
    reproducible. The RNG state advances across calls, so build a fresh
    instance per experiment when determinism matters.
    """

    kind: SwapKind
    rng_seed: int | None = None
    rng: random.Random = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.kind, SwapKind):
            raise DomainError(f"kind must be a SwapKind, got {self.kind!r}")
        self.rng = random.Random(self.rng_seed)


@dataclass(frozen=True, slots=True)
class WordArrayPair:
    """Two equal-length arrays of 64-bit words, the operands of one swap."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __init__(self, a, b) -> None:
        a = tuple(a)
        b = tuple(b)
        if len(a) != len(b):
            raise DomainError(f"array lengths differ: {len(a)} vs {len(b)}")
        if not a:
            raise DomainError("arrays must be non-empty")
        for w in a + b:
            if not 0 <= w <= WORD_MASK:
                raise DomainError(f"word {w:#x} outside 64-bit range")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __len__(self) -> int:
        return len(self.a)


def ct_swap(
    variant: SwapVariant,
    pair: WordArrayPair,
    cond: int,
    recorder: EventRecorder | None = None,
) -> WordArrayPair:
    """Swap ``pair`` when ``cond`` is 1, in constant operation count.

    Returns a new pair; the input is never mutated. With a recorder, emits
    the variant's event sequence with ``ground_truth_cond`` set on every
    event. All variants produce identical outputs for identical inputs;
    only the event streams differ.
    """
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
