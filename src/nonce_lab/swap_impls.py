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

import functools
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
    """Two equal-length registers, the operands of one swap: tuples of
    coordinates ``word_count`` 64-bit words wide, whose words the swap walks
    least significant first, coordinate after coordinate."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    word_count: int

    def __init__(self, a, b, word_count: int = 1) -> None:
        a = tuple(a)
        b = tuple(b)
        if len(a) != len(b):
            raise DomainError(f"array lengths differ: {len(a)} vs {len(b)}")
        if not a:
            raise DomainError("arrays must be non-empty")
        if not isinstance(word_count, int) or word_count < 1:
            raise DomainError(f"word_count must be a positive int, got {word_count!r}")
        limit = 1 << (WORD_BITS * word_count)
        for w in a + b:
            if not 0 <= w < limit:
                raise DomainError(f"word {w:#x} outside {WORD_BITS * word_count}-bit range")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "word_count", word_count)


@functools.cache
def _burst_kinds(kind: SwapKind, words: int) -> tuple[int, ...]:
    """OpKind codes of one swap burst: the mask(s), one group per word, and
    the combined variant's second share."""
    kinds = (OpKind.MASK_COMPUTE, OpKind.DELTA_COMPUTE, OpKind.STORE_A, OpKind.STORE_B)
    m, d, sa, sb = (k.code for k in kinds)
    if kind is SwapKind.LIBGCRYPT:
        return (m, OpKind.INV_MASK_COMPUTE.code) + (d, d, sa, sb) * words
    return (m,) + (d, sa, sb) * words + ((m,) if kind is SwapKind.COMBINED else ())


def _words(coords, shifts) -> list[int]:
    return [(c >> s) & WORD_MASK for c in coords for s in shifts]


def _weights(coords, shifts) -> list[int]:
    return [((c >> s) & WORD_MASK).bit_count() for c in coords for s in shifts]


def _burst(head: tuple[int, ...], columns: tuple[list[int], ...]) -> list[int]:
    """``head``, then one group per word holding its value from each column."""
    leaks = [0] * (len(head) + len(columns) * len(columns[0]))
    leaks[: len(head)] = head
    for j, column in enumerate(columns):
        leaks[len(head) + j :: len(columns)] = column
    return leaks


def ct_swap(
    variant: SwapVariant,
    pair: WordArrayPair,
    cond: int,
    recorder: EventRecorder | None = None,
) -> WordArrayPair:
    """Swap ``pair`` when ``cond`` is 1, in constant operation count.

    Returns the swapped pair, or the (immutable) input itself when ``cond``
    is 0, so only a swap builds and checks a new pair. With a recorder, appends
    the variant's per-word event burst, ``cond`` on every event, in one go.
    All variants produce identical outputs for identical inputs; only the
    event streams differ.
    """
    if cond not in (0, 1):
        raise DomainError(f"swap condition must be 0 or 1, got {cond!r}")
    if not isinstance(pair, WordArrayPair):
        raise DomainError(f"expected WordArrayPair, got {type(pair).__name__}")

    a, b, wc = pair.a, pair.b, pair.word_count
    # Each coordinate moves by its masked XOR delta: a ^ b on a swap, else 0.
    deltas = [u ^ v for u, v in zip(a, b)] if cond else [0] * len(a)
    out = WordArrayPair(b, a, wc) if cond else pair
    kind = variant.kind
    rng = variant.rng
    if kind is SwapKind.MASKED:
        # A fresh blinding word per word: a coordinate-wide draw yields the
        # 64-bit draws least significant first.
        blinded = [d ^ rng.getrandbits(WORD_BITS * wc) for d in deltas]
    elif kind is SwapKind.COMBINED:
        share1 = rng.getrandbits(1)
        order = list(range(len(a) * wc))
        rng.shuffle(order)
        if recorder is None:  # only the blinding words are drawn
            rng.getrandbits(WORD_BITS * len(order))
    if recorder is None:
        return out

    shifts = range(0, WORD_BITS * wc, WORD_BITS)
    mask_weight = WORD_BITS * cond
    d = _weights(deltas, shifts) if cond else [0] * (len(a) * wc)
    if kind is SwapKind.PLAIN:
        leaks = _burst((mask_weight,), (d, d, d))
    elif kind is SwapKind.LIBGCRYPT:
        # The AND/OR selects resolve to the output words; the stores then
        # overwrite each old word with its selected one.
        selected = (_weights(out.a, shifts), _weights(out.b, shifts))
        leaks = _burst((mask_weight, WORD_BITS - mask_weight), (*selected, d, d))
    elif kind is SwapKind.MASKED:
        leaks = _burst((mask_weight,), (_weights(blinded, shifts), d, d))
    else:  # SwapKind.COMBINED
        # The second share's selector resolves in a later stage, after the
        # word passes, so no short integration window ever sees both shares
        # at once.
        leaks = [WORD_BITS * share1]
        delta_words, a_words, b_words = (_words(x, shifts) for x in (deltas, a, b))
        for i in order:
            # Per word, three 64-bit draws in one: the blinding word, then the
            # two randomized representatives the write-backs pass through, so
            # the bus sees old vs fresh-random, not old vs new. Share-wise
            # processing never materializes the bare delta.
            r = rng.getrandbits(3 * WORD_BITS)
            leaks += (
                ((delta_words[i] ^ r) & WORD_MASK).bit_count(),
                ((a_words[i] ^ (r >> WORD_BITS)) & WORD_MASK).bit_count(),
                (b_words[i] ^ (r >> 2 * WORD_BITS)).bit_count(),
            )
        leaks.append(WORD_BITS * (cond ^ share1))
    recorder.extend(_burst_kinds(kind, len(a) * wc), leaks, cond)
    return out
