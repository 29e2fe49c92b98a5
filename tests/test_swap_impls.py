import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nonce_lab.errors import DomainError
from nonce_lab.events import KIND_BY_CODE, WORD_OP_KINDS, EventRecorder, OpKind
from nonce_lab.ff_curve import ProjectivePoint, _rerandomize_triple, point_on_curve
from nonce_lab.swap_impls import SwapKind, SwapVariant, WordArrayPair, ct_swap

from oracles import expected_leak_delta, measured_leak_delta, word_ct_swap

WORDS = st.integers(0, (1 << 64) - 1)


def pairs(min_len=1, max_len=6):
    return st.integers(min_len, max_len).flatmap(
        lambda n: st.tuples(
            st.lists(WORDS, min_size=n, max_size=n),
            st.lists(WORDS, min_size=n, max_size=n),
        )
    )


@settings(max_examples=120)
@given(pairs(), st.sampled_from(list(SwapKind)), st.integers(0, 1))
def test_all_variants_compute_the_same_swap(ab, kind, cond):
    a, b = ab
    out = ct_swap(SwapVariant(kind, rng_seed=99), WordArrayPair(a, b), cond)
    if cond:
        assert out.a == tuple(b) and out.b == tuple(a)
    else:
        assert out.a == tuple(a) and out.b == tuple(b)


@settings(max_examples=60)
@given(pairs(), st.sampled_from(list(SwapKind)), st.integers(0, 1))
def test_double_swap_is_identity(ab, kind, cond):
    a, b = ab
    variant = SwapVariant(kind, rng_seed=5)
    pair = WordArrayPair(a, b)
    once = ct_swap(variant, pair, cond)
    twice = ct_swap(variant, once, cond)
    assert twice.a == pair.a and twice.b == pair.b


def _split(coords, word_count):
    return [(c >> (64 * i)) & ((1 << 64) - 1) for c in coords for i in range(word_count)]


@pytest.mark.parametrize("word_count", [1, 2, 9])
@pytest.mark.parametrize("cond", [0, 1])
@pytest.mark.parametrize("kind", list(SwapKind))
@settings(max_examples=12, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32), traced=st.booleans())
def test_whole_register_swap_matches_word_oracle(kind, cond, word_count, data, seed, traced):
    """Outputs, all three event columns and the RNG state after the call
    equal the word-by-word oracle's on the same registers split into words."""
    coords = st.integers(0, (1 << (64 * word_count)) - 1)
    n = data.draw(st.integers(1, 3))
    a = data.draw(st.lists(coords, min_size=n, max_size=n))
    b = data.draw(st.lists(coords, min_size=n, max_size=n))
    variant, oracle_variant = SwapVariant(kind, rng_seed=seed), SwapVariant(kind, rng_seed=seed)
    rec, oracle_rec = (EventRecorder(), EventRecorder()) if traced else (None, None)

    out = ct_swap(variant, WordArrayPair(a, b, word_count), cond, rec)
    words = WordArrayPair(_split(a, word_count), _split(b, word_count))
    expected = word_ct_swap(oracle_variant, words, cond, oracle_rec)
    assert _split(out.a, word_count) == list(expected.a)
    assert _split(out.b, word_count) == list(expected.b)
    assert out.word_count == word_count
    if traced:
        assert (rec.kinds, rec.leaks, rec.conds) == (
            oracle_rec.kinds, oracle_rec.leaks, oracle_rec.conds
        )
    assert variant.rng.getstate() == oracle_variant.rng.getstate()


def test_input_pair_is_not_mutated():
    pair = WordArrayPair([1, 2], [3, 4])
    ct_swap(SwapVariant(SwapKind.PLAIN), pair, 1)
    assert pair.a == (1, 2) and pair.b == (3, 4)


def test_word_array_pair_validation():
    with pytest.raises(DomainError):
        WordArrayPair([1], [2, 3])
    with pytest.raises(DomainError):
        WordArrayPair([], [])
    with pytest.raises(DomainError):
        WordArrayPair([1 << 64], [0])
    with pytest.raises(DomainError):
        WordArrayPair([-1], [0])
    with pytest.raises(DomainError):
        WordArrayPair([1 << 128], [0], 2)
    for bad in (0, -1, 1.0):
        with pytest.raises(DomainError):
            WordArrayPair([1], [2], bad)


def test_cond_validation():
    pair = WordArrayPair([1], [2])
    for bad in (2, -1, "1", None):
        with pytest.raises(DomainError):
            ct_swap(SwapVariant(SwapKind.PLAIN), pair, bad)


def test_variant_validation():
    with pytest.raises(DomainError):
        SwapVariant("plain")


# ---------------------------------------------------------------------------
# Event models


def _events(kind, a, b, cond, seed=7):
    """One swap's recorded columns: op kinds, leak values, conditions."""
    rec = EventRecorder()
    ct_swap(SwapVariant(kind, rng_seed=seed), WordArrayPair(a, b), cond, rec)
    return [KIND_BY_CODE[code] for code in rec.kinds], rec.leaks, rec.conds


def test_plain_leaks_exact_values():
    a = [0b1011, 0xFF00FF00FF00FF00]
    b = [0b0001, 0x0F0F0F0F0F0F0F0F]
    kinds, leaks, _ = _events(SwapKind.PLAIN, a, b, 1)
    assert kinds == [
        OpKind.MASK_COMPUTE,
        OpKind.DELTA_COMPUTE, OpKind.STORE_A, OpKind.STORE_B,
        OpKind.DELTA_COMPUTE, OpKind.STORE_A, OpKind.STORE_B,
    ]
    hw = lambda x: bin(x).count("1")
    assert leaks[0] == 64
    for i in (0, 1):
        d = hw(a[i] ^ b[i])
        assert leaks[1 + 3 * i : 4 + 3 * i] == [d, d, d]

    _, leaks0, _ = _events(SwapKind.PLAIN, a, b, 0)
    assert all(v == 0 for v in leaks0)


def test_libgcrypt_leaks_selected_words():
    a = [0x1234_5678_9ABC_DEF0]
    b = [0xFED0_BA98_7654_3210]
    hw = lambda x: bin(x).count("1")
    kinds0, leaks0, _ = _events(SwapKind.LIBGCRYPT, a, b, 0)
    assert kinds0[:2] == [OpKind.MASK_COMPUTE, OpKind.INV_MASK_COMPUTE]
    assert leaks0[:2] == [0, 64]
    # selects resolve to (a, b): stores overwrite with identical values
    assert leaks0[2:] == [hw(a[0]), hw(b[0]), 0, 0]
    _, leaks1, _ = _events(SwapKind.LIBGCRYPT, a, b, 1)
    assert leaks1[:2] == [64, 0]
    d = hw(a[0] ^ b[0])
    assert leaks1[2:] == [hw(b[0]), hw(a[0]), d, d]


def test_masked_delta_is_blinded_but_stores_leak():
    a = [0xAAAA_AAAA_AAAA_AAAA]
    b = [0x5555_5555_5555_5555]
    seed = 1234
    # replay the variant's rng to predict the blinding word
    r = random.Random(seed).getrandbits(64)
    hw = lambda x: bin(x).count("1")
    kinds0, leaks0, _ = _events(SwapKind.MASKED, a, b, 0, seed=seed)
    assert kinds0 == [OpKind.MASK_COMPUTE, OpKind.DELTA_COMPUTE, OpKind.STORE_A, OpKind.STORE_B]
    assert leaks0 == [0, hw(r), 0, 0]
    _, leaks1, _ = _events(SwapKind.MASKED, a, b, 1, seed=seed)
    d = hw(a[0] ^ b[0])
    assert leaks1 == [64, hw((a[0] ^ b[0]) ^ r), d, d]


def test_combined_emits_two_mask_shares_and_bounded_leaks():
    a = [3, 5, 9]
    b = [12, 10, 6]
    for cond in (0, 1):
        kinds, leaks, conds = _events(SwapKind.COMBINED, a, b, cond, seed=42)
        masks = [v for k, v in zip(kinds, leaks) if k is OpKind.MASK_COMPUTE]
        assert len(masks) == 2
        assert all(v in (0, 64) for v in masks)
        # share XOR must reconstruct the condition
        assert (masks[0] == 64) ^ (masks[1] == 64) == bool(cond)
        per_word = [v for k, v in zip(kinds, leaks) if k is not OpKind.MASK_COMPUTE]
        assert len(per_word) == 9
        assert all(0 <= v <= 64 for v in per_word)
        assert all(c == cond for c in conds)


def test_combined_first_order_moments_match():
    """Mean leak per op kind must not separate the two conditions."""
    rng = random.Random(8)
    sums = {0: {}, 1: {}}
    counts = {0: {}, 1: {}}
    variant = SwapVariant(SwapKind.COMBINED, rng_seed=31337)
    for _ in range(4000):
        a = [rng.getrandbits(64) for _ in range(4)]
        b = [rng.getrandbits(64) for _ in range(4)]
        for cond in (0, 1):
            rec = EventRecorder()
            ct_swap(variant, WordArrayPair(a, b), cond, rec)
            for code, leak in zip(rec.kinds, rec.leaks):
                kind = KIND_BY_CODE[code]
                sums[cond][kind] = sums[cond].get(kind, 0) + leak
                counts[cond][kind] = counts[cond].get(kind, 0) + 1
    for kind in sums[0]:
        m0 = sums[0][kind] / counts[0][kind]
        m1 = sums[1][kind] / counts[1][kind]
        assert abs(m0 - m1) < 1.5, (kind, m0, m1)


def test_event_streams_are_deterministic_per_seed():
    a = [11, 22]
    b = [33, 44]
    for kind in SwapKind:
        ev1 = _events(kind, a, b, 1, seed=77)
        ev2 = _events(kind, a, b, 1, seed=77)
        assert ev1 == ev2


def test_word_leaks_never_exceed_word_bits():
    rng = random.Random(2)
    for kind in SwapKind:
        for _ in range(50):
            a = [rng.getrandbits(64) for _ in range(3)]
            b = [rng.getrandbits(64) for _ in range(3)]
            for cond in (0, 1):
                kinds, leaks, _ = _events(kind, a, b, cond, seed=rng.randrange(1 << 20))
                for k, v in zip(kinds, leaks):
                    if k in WORD_OP_KINDS:
                        assert 0 <= v <= 64


# ---------------------------------------------------------------------------
# expected_leak_delta vs Monte-Carlo oracle


@pytest.mark.parametrize("kind", list(SwapKind))
@pytest.mark.parametrize("wc", [1, 4, 9, 27])
def test_expected_leak_delta_closed_form(kind, wc):
    variant = SwapVariant(kind, rng_seed=5150)

    def run(a, b, cond):
        rec = EventRecorder()
        ct_swap(variant, WordArrayPair(a, b), cond, rec)
        return sum(rec.leaks)

    measured = measured_leak_delta(run, wc, 6000, seed=wc * 1000 + 17)
    exact = expected_leak_delta(kind, wc)
    assert isinstance(exact, Fraction)
    # Monte-Carlo noise: the mask-share events dominate the variance.
    assert abs(float(exact) - measured) <= 4.0, (kind, wc, measured, float(exact))


# ---------------------------------------------------------------------------
# Register rerandomization of the combined variant


def test_rerandomize_preserves_point(toy):
    G = ProjectivePoint.from_affine(*toy.generator, toy.field)
    rec = EventRecorder()
    scale = random.Random(1).randrange(2, toy.p)
    triple = _rerandomize_triple(G.triple(), scale, toy.field.reducer(), rec)
    fresh = ProjectivePoint(*triple, toy.field)
    assert fresh == G
    assert point_on_curve(fresh, toy)
    assert fresh.Z == scale
    assert rec.kinds == [OpKind.RERANDOMIZE.code] * 3
