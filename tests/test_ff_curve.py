import pickle
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from nonce_lab.errors import ConfigError, DomainError, NonInvertible
from nonce_lab.events import EventRecorder, OpKind
from nonce_lab import ff_curve
from nonce_lab.ff_curve import (
    LADDER_STEP_MUL_GROUPS,
    CurveParams,
    Field,
    ProjectivePoint,
    Scalar,
    _add_body,
    _dbl_body,
    _is_prime,
    _step_body,
    builtin_curves,
    double_and_always_add,
    fast_double_multiply,
    fast_multiply,
    get_curve,
    inverse_mod,
    montgomery_ladder,
    point_on_curve,
    reference_multiply,
    traced_multiply,
)
from nonce_lab.swap_impls import SwapKind, SwapVariant

from oracles import (
    affine_add,
    affine_multiply,
    closure_daa,
    closure_ladder,
    make_ops,
    mul_run_lengths,
)

P521 = (1 << 521) - 1
P255 = (1 << 255) - 19
MODULI = [65521, 0xFFFFFFFDFFFFFFFFFFFFFFFFFFFFFFFF, P255, P521]


# ---------------------------------------------------------------------------
# Field


@given(st.sampled_from(MODULI), st.integers(min_value=0))
def test_reducer_matches_mod(p, z):
    assume(z < p * p)
    assert Field(p).reducer()(z) == z % p


@given(st.sampled_from(MODULI), st.data())
def test_traced_field_ops_match_int_arithmetic(p, data):
    # The closure ops the fused bodies are checked against, op by op.
    mul, sq, add, sub, shl = make_ops(Field(p), EventRecorder())
    a = data.draw(st.integers(0, p - 1))
    b = data.draw(st.integers(0, p - 1))
    assert add(a, b) == (a + b) % p
    assert sub(a, b) == (a - b) % p
    assert mul(a, b) == a * b % p
    assert sq(a) == a * a % p
    assert shl(a, 3) == (a << 3) % p
    if a:
        assert inverse_mod(a, p) * a % p == 1


@pytest.mark.parametrize("p", MODULI)
def test_field_and_curve_pickle(p):
    # Worker processes receive curves by pickle; a wide pseudo-Mersenne
    # modulus reduces through a closure, which is rebuilt, not pickled.
    field = pickle.loads(pickle.dumps(Field(p)))
    assert field == Field(p)
    z = (p - 2) * (p - 3)
    assert field.reducer()(z) == z % p
    curve = get_curve("secp521r1")
    copy = pickle.loads(pickle.dumps(curve))
    assert copy.field == curve.field
    assert (copy.name, copy.a, copy.b, copy.generator, copy.n) == (
        curve.name, curve.a, curve.b, curve.generator, curve.n
    )


def test_inverse_of_zero_raises():
    with pytest.raises(NonInvertible):
        inverse_mod(0, 65521)


def test_mixed_fields_raise():
    """Points over different fields never compare equal."""
    a = ProjectivePoint(5, 1, 1, Field(65521))
    b = ProjectivePoint(5, 1, 1, Field(P521))
    assert a != b
    assert a == ProjectivePoint(5, 1, 1, Field(65521))


def test_field_element_must_be_reduced():
    f = Field(65521)
    for bad in ((65521, 1, 1), (0, -1, 1), (0, 1, 65521)):
        with pytest.raises(DomainError):
            ProjectivePoint(*bad, f)


def test_field_rejects_even_or_tiny_modulus():
    with pytest.raises(DomainError):
        Field(10)
    with pytest.raises(DomainError):
        Field(1)


# ---------------------------------------------------------------------------
# Scalar


def test_scalar_validation():
    Scalar(0, 1)
    Scalar(1, 1)
    with pytest.raises(DomainError):
        Scalar(2, 1)
    with pytest.raises(DomainError):
        Scalar(-1, 4)
    with pytest.raises(DomainError):
        Scalar(0, 0)


def test_scalar_bits(toy):
    k = Scalar.for_curve(0b1011, toy)
    assert k.bit_length == toy.n.bit_length() == 17
    assert [k.bit(i) for i in range(5)] == [1, 1, 0, 1, 0]
    assert k.bit(100) == 0
    with pytest.raises(DomainError):
        k.bit(-1)


# ---------------------------------------------------------------------------
# CurveParams


def test_curve_rejects_wrong_word_count(toy):
    with pytest.raises(DomainError):
        CurveParams("bad", toy.p, toy.a, toy.b, toy.gx, toy.gy, toy.n, word_count=2)


def test_curve_rejects_singular():
    with pytest.raises(DomainError):
        CurveParams("bad", 65521, 0, 0, 0, 1, 65563, word_count=1)


def test_curve_rejects_off_curve_generator(toy):
    with pytest.raises(DomainError):
        CurveParams("bad", toy.p, toy.a, toy.b, toy.gx, toy.gy + 1, toy.n, word_count=1)


def test_curve_rejects_wrong_order(toy):
    # 65579 is the next prime above toy16's order, so the order check,
    # not the primality check, has to catch it.
    with pytest.raises(DomainError, match="does not divide"):
        CurveParams("bad", toy.p, toy.a, toy.b, toy.gx, toy.gy, 65579, word_count=1)


def test_curve_rejects_composite_order_and_modulus():
    # y^2 = x^3 + x + 1 over F_23 has 28 points and G = (0, 1) has order 28.
    with pytest.raises(DomainError, match="order 28 is not prime"):
        CurveParams("tiny23", 23, 1, 1, 0, 1, 28, word_count=1)
    # 561 = 3 * 11 * 17 is a Carmichael number: odd, and it passes the
    # Fermat test to every base prime to it.
    with pytest.raises(DomainError, match="modulus 561 is not prime"):
        CurveParams("bad", 561, 1, 1, 0, 1, 7, word_count=1)


def test_primality_matches_trial_division():
    def by_trial(n):
        return n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))

    assert [n for n in range(5000) if _is_prime(n)] == [n for n in range(5000) if by_trial(n)]
    # Strong pseudoprimes to the first 1, 4, 9 and 12 prime bases.
    for n in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
    for curve in builtin_curves().values():
        assert _is_prime(curve.p) and _is_prime(curve.n)


def test_builtin_curve_geometry(p521, p128, w255, toy):
    for curve in (p521, p128, w255, toy):
        assert curve.word_count == -(-curve.p.bit_length() // 64)
        g = ProjectivePoint.from_affine(*curve.generator, curve.field)
        assert point_on_curve(g, curve)


def test_get_curve_unknown_name():
    with pytest.raises(ConfigError):
        get_curve("secp256k1")


# ---------------------------------------------------------------------------
# ProjectivePoint


def test_projective_equality_across_representatives(toy):
    f = toy.field
    g = ProjectivePoint.from_affine(*toy.generator, f)
    scaled = ProjectivePoint(toy.gx * 7 % toy.p, toy.gy * 7 % toy.p, 7, f)
    assert g == scaled
    assert g != reference_multiply(2, g, toy)
    assert ProjectivePoint.neutral(f) == ProjectivePoint(0, 5, 0, f)


def test_projective_rejects_origin(toy):
    f = toy.field
    with pytest.raises(DomainError):
        ProjectivePoint(0, 0, 0, f)


def test_to_affine(toy):
    assert ProjectivePoint.neutral(toy.field).to_affine() is None
    g = ProjectivePoint.from_affine(*toy.generator, toy.field)
    assert g.to_affine() == toy.generator


# ---------------------------------------------------------------------------
# Point arithmetic vs the affine oracle


def _as_affine(P):
    return P.to_affine()


def point_add(P, Q, curve, recorder=None):
    """P + Q on the complete formulas the traced double-and-add runs."""
    R = _add_body(
        P.triple(), Q.triple(), curve.a, 3 * curve.b % curve.p,
        curve.field.reducer(), curve.p, EventRecorder() if recorder is None else recorder,
    )
    return ProjectivePoint(*R, curve.field)


def point_double(P, curve, recorder=None):
    """2P on the complete formulas the traced double-and-add runs."""
    R = _dbl_body(
        P.triple(), curve.a, 3 * curve.b % curve.p,
        curve.field.reducer(), curve.p, EventRecorder() if recorder is None else recorder,
    )
    return ProjectivePoint(*R, curve.field)


def test_add_double_specials(toy):
    f = toy.field
    G = ProjectivePoint.from_affine(*toy.generator, f)
    O = ProjectivePoint.neutral(f)
    negG = ProjectivePoint.from_affine(toy.gx, -toy.gy % toy.p, f)
    assert point_add(G, O, toy) == G
    assert point_add(O, G, toy) == G
    assert point_add(G, negG, toy).is_neutral
    assert point_double(O, toy).is_neutral
    expected = affine_add(toy.generator, toy.generator, toy.p, toy.a)
    assert _as_affine(point_double(G, toy)) == expected
    assert _as_affine(point_add(G, G, toy)) == expected


@settings(max_examples=150)
@given(st.integers(1, 65562), st.integers(1, 65562))
def test_add_matches_oracle_on_toy(i, j):
    toy = get_curve("toy16")
    f = toy.field
    Pi = affine_multiply(i, toy.generator, toy.p, toy.a)
    Pj = affine_multiply(j, toy.generator, toy.p, toy.a)
    want = affine_add(Pi, Pj, toy.p, toy.a)
    got = point_add(
        ProjectivePoint.from_affine(*Pi, f), ProjectivePoint.from_affine(*Pj, f), toy
    )
    assert _as_affine(got) == want
    want2 = affine_add(Pi, Pi, toy.p, toy.a)
    got2 = point_double(ProjectivePoint.from_affine(*Pi, f), toy)
    assert (_as_affine(got2) is None) == (want2 is None)
    if want2 is not None:
        assert _as_affine(got2) == want2


def test_point_ops_reject_off_curve(toy):
    """The traced multipliers check the base point before recording."""
    k = Scalar.for_curve(2, toy)
    rec = EventRecorder()
    with pytest.raises(DomainError):
        montgomery_ladder(k, (toy.gx, toy.gy + 1), toy, recorder=rec)
    bogus = ProjectivePoint.from_affine(toy.gx, (toy.gy + 1) % toy.p, toy.field)
    with pytest.raises(DomainError):
        double_and_always_add(k, bogus, toy, recorder=rec)
    assert len(rec) == 0


def test_traced_ops_emit_per_field_op(toy):
    rec = EventRecorder()
    G = ProjectivePoint.from_affine(*toy.generator, toy.field)
    point_double(G, toy, recorder=rec)
    arithmetic = {OpKind.FIELD_MUL, OpKind.FIELD_SQUARE, OpKind.FIELD_ADD_SUB}
    assert set(rec.kinds) <= {kind.code for kind in arithmetic}
    assert len(rec.leaks) == len(rec.conds) == len(rec)
    assert set(rec.conds) == {-1}
    n_dbl = len(rec)
    point_add(G, point_double(G, toy), toy, recorder=rec)
    assert len(rec) > n_dbl


# ---------------------------------------------------------------------------
# One ladder step: the fused _step_body on its own


def ladder_step(s, r, curve, recorder=None):
    """(r + s, 2r) on x-only (X, Z) pairs whose difference is the generator."""
    return _step_body(
        s, r, curve.gx, curve.a, 4 * curve.b % curve.p,
        curve.field.reducer(), curve.p, EventRecorder() if recorder is None else recorder,
    )


def _x(P, curve):
    """Affine x of an x-only ladder register (X, Z); None when neutral."""
    X, Z = P
    return None if Z % curve.p == 0 else X * inverse_mod(Z, curve.p) % curve.p


def test_ladder_step_from_initial_state(p521, p128, w255, toy):
    for curve in (p521, p128, w255, toy):
        G = ProjectivePoint.from_affine(*curve.generator, curve.field)
        G2 = reference_multiply(2, G, curve)
        s2, r2 = ladder_step((G.X, G.Z), (G2.X, G2.Z), curve)
        for got, mult in ((s2, 3), (r2, 4)):
            want = reference_multiply(mult, G, curve).to_affine()
            assert _x(got, curve) == want[0], curve.name


def test_ladder_step_group_fingerprint(toy):
    rec = EventRecorder()
    montgomery_ladder(
        Scalar(1, 1), toy.generator, toy, SwapVariant(SwapKind.PLAIN), rec
    )
    assert tuple(mul_run_lengths(rec.kinds)) == LADDER_STEP_MUL_GROUPS


@settings(max_examples=60)
@given(st.integers(1, 65562))
def test_ladder_step_advances_any_state(m):
    toy = get_curve("toy16")
    Pm = affine_multiply(m, toy.generator, toy.p, toy.a)
    Pm1 = affine_multiply(m + 1, toy.generator, toy.p, toy.a)
    assume(Pm is not None and Pm1 is not None)
    s2, r2 = ladder_step((Pm[0], 1), (Pm1[0], 1), toy)
    want_s = affine_multiply(2 * m + 1, toy.generator, toy.p, toy.a)
    want_r = affine_multiply(2 * m + 2, toy.generator, toy.p, toy.a)
    assert _x(s2, toy) == (None if want_s is None else want_s[0])
    assert _x(r2, toy) == (None if want_r is None else want_r[0])


def test_ladder_step_accepts_neutral_halves(toy):
    # On the x-line any (c : 0) with c != 0 is the neutral element.
    s2, r2 = ladder_step((1, 0), (toy.gx, 1), toy)
    assert _x(s2, toy) == toy.gx
    G = ProjectivePoint.from_affine(*toy.generator, toy.field)
    assert _x(r2, toy) == reference_multiply(2, G, toy).to_affine()[0]


# ---------------------------------------------------------------------------
# Scalar multipliers


def _ladder_affine(curve, k):
    res = montgomery_ladder(Scalar.for_curve(k, curve), curve.generator, curve)
    return res.to_affine()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 65562))
def test_ladder_matches_oracle_on_toy(k):
    toy = get_curve("toy16")
    assert _ladder_affine(toy, k) == affine_multiply(k, toy.generator, toy.p, toy.a)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_multipliers_match_oracle_on_secp128r1(data):
    curve = get_curve("secp128r1")
    k = data.draw(st.integers(1, curve.n - 1))
    want = affine_multiply(k, curve.generator, curve.p, curve.a)
    assert _ladder_affine(curve, k) == want
    G = ProjectivePoint.from_affine(*curve.generator, curve.field)
    got = double_and_always_add(Scalar.for_curve(k, curve), G, curve)
    assert got.to_affine() == want


def test_multiplier_edge_scalars(p128):
    curve = p128
    for k in (1, 2, 3, curve.n - 2, curve.n - 1):
        want = affine_multiply(k, curve.generator, curve.p, curve.a)
        assert _ladder_affine(curve, k) == want


def test_multiplier_rejects_out_of_range(toy):
    G = ProjectivePoint.from_affine(*toy.generator, toy.field)
    for bad in (0, toy.n, toy.n + 5):
        width = max(1, bad.bit_length())
        with pytest.raises(DomainError):
            montgomery_ladder(Scalar(bad, width), toy.generator, toy)
        with pytest.raises(DomainError):
            double_and_always_add(Scalar(bad, width), G, toy)


def test_multiplier_rejects_off_curve_base(toy):
    k = Scalar.for_curve(5, toy)
    with pytest.raises(DomainError):
        montgomery_ladder(k, (toy.gx, toy.gy + 1), toy)
    bogus = ProjectivePoint.from_affine(toy.gx, (toy.gy + 1) % toy.p, toy.field)
    with pytest.raises(DomainError):
        double_and_always_add(k, bogus, toy)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 65562), st.sampled_from(["plain", "libgcrypt", "masked", "combined"]))
def test_traced_paths_match_fast_paths(k, variant_name):
    toy = get_curve("toy16")
    sc = Scalar.for_curve(k, toy)
    fast = montgomery_ladder(sc, toy.generator, toy)
    rec = EventRecorder()
    traced = montgomery_ladder(
        sc, toy.generator, toy, SwapVariant(SwapKind(variant_name), rng_seed=5), rec
    )
    assert traced == fast
    assert len(rec) > 0
    G = ProjectivePoint.from_affine(*toy.generator, toy.field)
    fast2 = double_and_always_add(sc, G, toy)
    rec2 = EventRecorder()
    traced2 = double_and_always_add(
        sc, G, toy, SwapVariant(SwapKind(variant_name), rng_seed=5), rec2
    )
    assert traced2 == fast2 == fast


@settings(max_examples=48, deadline=None)
@given(
    st.sampled_from(["secp521r1", "secp128r1", "wei25519", "toy16"]),
    st.sampled_from(list(SwapKind)),
    st.sampled_from(["ladder", "daa"]),
    st.data(),
)
def test_fused_bodies_match_closure_oracles(curve_name, kind, multiplier, data):
    """The fused traced bodies record exactly what the closure-based bodies
    did: same kinds, leaks and conds, same result, same swap-RNG state."""
    curve = get_curve(curve_name)
    k = Scalar.for_curve(data.draw(st.integers(1, curve.n - 1)), curve)
    seed = data.draw(st.integers(0, 2**32 - 1))
    if multiplier == "ladder":
        base, fused, oracle = curve.generator, montgomery_ladder, closure_ladder
    else:
        base = ProjectivePoint.from_affine(*curve.generator, curve.field)
        fused, oracle = double_and_always_add, closure_daa
    runs = []
    for multiply in (fused, oracle):
        variant = SwapVariant(kind, rng_seed=seed)
        rec = EventRecorder()
        point = multiply(k, base, curve, variant, rec)
        runs.append((rec.kinds, rec.leaks, rec.conds, point.triple(), variant.rng.getstate()))
    assert runs[0] == runs[1]


def test_schedule_is_scalar_independent(toy):
    """Two scalars of equal width must produce identical op-kind streams."""
    streams = []
    for k in (0b1011010011101000, 0b1111111111111110):
        rec = EventRecorder()
        montgomery_ladder(
            Scalar(k, 16), toy.generator, toy, SwapVariant(SwapKind.PLAIN), rec
        )
        streams.append(rec.kinds)
    assert streams[0] == streams[1]


def mask_conds(rec):
    """Swap condition of every MASK_COMPUTE event, one per swap."""
    mask = OpKind.MASK_COMPUTE.code
    return [cond for code, cond in zip(rec.kinds, rec.conds) if code == mask]


def test_ladder_swap_conditions_are_bit_transitions(toy):
    k = 0b1011010011101000
    rec = EventRecorder()
    montgomery_ladder(Scalar(k, 16), toy.generator, toy, SwapVariant(SwapKind.PLAIN), rec)
    conds = mask_conds(rec)
    bits = [(k >> i) & 1 for i in range(15, -1, -1)]
    want = [bits[0]] + [bits[i] ^ bits[i - 1] for i in range(1, 16)]
    assert conds == want


def test_daa_swap_conditions_are_bits(toy):
    k = 0b1011010011101000
    rec = EventRecorder()
    G = ProjectivePoint.from_affine(*toy.generator, toy.field)
    double_and_always_add(Scalar(k, 16), G, toy, SwapVariant(SwapKind.PLAIN), rec)
    conds = mask_conds(rec)
    assert conds == [(k >> i) & 1 for i in range(15, -1, -1)]


@pytest.mark.parametrize("curve_name", ["toy16", "secp128r1"])
@pytest.mark.parametrize("kind", list(SwapKind))
def test_traced_multiply_matches_direct_calls(curve_name, kind):
    """The named entry point records the events of calling each
    multiplier itself: the ladder on the affine base, double-and-add on
    the projective representative given (here not Z = 1)."""
    curve = get_curve(curve_name)
    rng = random.Random(f"{curve_name}:{kind.value}")
    k = Scalar.for_curve(rng.randrange(1, curve.n), curve)
    x, y = fast_multiply(rng.randrange(2, curve.n), curve.generator, curve).to_affine()
    lam = rng.randrange(2, curve.p)
    base = ProjectivePoint(x * lam % curve.p, y * lam % curve.p, lam, curve.field)
    seed = rng.getrandbits(32)
    direct = {
        "ladder": lambda variant, rec: montgomery_ladder(k, (x, y), curve, variant, rec),
        "daa": lambda variant, rec: double_and_always_add(k, base, curve, variant, rec),
    }
    for multiplier, run in direct.items():
        via, alone = EventRecorder(), EventRecorder()
        got = traced_multiply(multiplier, k, base, curve, SwapVariant(kind, rng_seed=seed), via)
        want = run(SwapVariant(kind, rng_seed=seed), alone)
        assert got.triple() == want.triple(), multiplier
        assert (via.kinds, via.leaks, via.conds) == (alone.kinds, alone.leaks, alone.conds)
        assert len(via) > 0
    with pytest.raises(DomainError):
        traced_multiply("ladder", k, ProjectivePoint.neutral(curve.field), curve)


def test_reference_multiply_accepts_zero(toy):
    G = ProjectivePoint.from_affine(*toy.generator, toy.field)
    assert reference_multiply(0, G, toy).is_neutral
    with pytest.raises(DomainError):
        reference_multiply(-1, G, toy)


def test_big_curve_spot_checks(p521, w255):
    for curve in (p521, w255):
        k = 0xDEADBEEFCAFEBABE1234
        got = _ladder_affine(curve, k)
        G = ProjectivePoint.from_affine(*curve.generator, curve.field)
        assert got == double_and_always_add(Scalar.for_curve(k, curve), G, curve).to_affine()
        assert got == reference_multiply(k, G, curve).to_affine()
        # additive sanity: (k+1)G == kG + G
        plus = point_add(ProjectivePoint.from_affine(*got, curve.field), G, curve)
        assert plus.to_affine() == _ladder_affine(curve, k + 1)


# ---------------------------------------------------------------------------
# Untraced core (fast_multiply, fast_double_multiply)


def _core_scalars(curve):
    """Edge scalars, long zero runs, and runs of ones that force NAF carries."""
    n = curve.n
    top = n.bit_length() - 2
    ones = int("0111" * (top // 4), 2)
    rng = random.Random(0xC0DE)
    return [
        1, 2, 3, n - 2, n - 1,
        1 << top,
        (1 << top) + 1,
        (1 << top) - 1,
        ones,
        ones ^ ((1 << (top // 2)) - 1),
        *(rng.randrange(1, n) for _ in range(4)),
    ]


def test_core_matches_reference_on_every_curve(p521, p128, w255, toy):
    for curve in (p521, p128, w255, toy):
        G = ProjectivePoint.from_affine(*curve.generator, curve.field)
        other = reference_multiply(7, G, curve)  # a base other than G: wNAF path
        for base in (G, other):
            for k in _core_scalars(curve):
                got = fast_multiply(k, base.to_affine(), curve)
                assert got == reference_multiply(k, base, curve), (curve.name, hex(k))


def test_core_matches_affine_oracle(p128, w255, toy):
    for curve in (p128, w255, toy):
        other = affine_multiply(7, curve.generator, curve.p, curve.a)
        for base in (curve.generator, other):
            for k in _core_scalars(curve)[:10]:
                want = affine_multiply(k, base, curve.p, curve.a)
                assert fast_multiply(k, base, curve).to_affine() == want, (curve.name, hex(k))


def test_core_edge_scalars_on_secp521r1(p521):
    G = p521.generator
    minus_G = (G[0], -G[1] % p521.p)
    double = affine_add(G, G, p521.p, p521.a)
    minus_double = (double[0], -double[1] % p521.p)
    H = fast_multiply(5, G, p521).to_affine()
    for base in (G, H):
        assert fast_multiply(1, base, p521).to_affine() == base
    assert fast_multiply(2, G, p521).to_affine() == double
    assert fast_multiply(p521.n - 1, G, p521).to_affine() == minus_G
    assert fast_multiply(p521.n - 2, G, p521).to_affine() == minus_double
    assert fast_multiply(p521.n - 1, H, p521).to_affine() == (H[0], -H[1] % p521.p)


def test_core_neutral_results(p128, toy):
    for curve in (p128, toy):
        H = fast_multiply(3, curve.generator, curve).to_affine()
        for base in (curve.generator, H):
            assert fast_multiply(0, base, curve).is_neutral
            assert fast_multiply(curve.n, base, curve).is_neutral


def test_double_multiply_matches_separate_products(p128, toy):
    for curve in (p128, toy):
        G = ProjectivePoint.from_affine(*curve.generator, curve.field)
        q = 0x1234567 % curve.n
        Q = reference_multiply(q, G, curve)
        rng = random.Random(0xD0B1)
        cases = [(0, 5), (5, 0), (0, 0)]
        cases += [(rng.randrange(1, curve.n), rng.randrange(1, curve.n)) for _ in range(10)]
        u2 = 0xBEEF
        cases.append((-u2 * q % curve.n, u2))  # u1*G = -u2*Q: the sum is neutral
        cases.append((u2 * q % curve.n, u2))  # u1*G = u2*Q: the sum is a doubling
        for u1, u2 in cases:
            want = point_add(
                reference_multiply(u1, G, curve), reference_multiply(u2, Q, curve), curve
            )
            assert fast_double_multiply(u1, u2, Q.to_affine(), curve) == want, (u1, u2)


def test_core_on_small_order_points(monkeypatch):
    """y^2 = x^3 + x + 1 over F_23 has 28 points: bases of order 2, 4, 7,
    14 and 28, and a composite n, so table entries and partial sums hit the
    neutral element and every exceptional addition case."""
    p, a, b = 23, 1, 1
    points = [(x, y) for x in range(p) for y in range(p) if (y * y - x**3 - a * x - b) % p == 0]
    # The constructor refuses a composite n; this curve needs one.
    monkeypatch.setattr(ff_curve, "_is_prime", lambda n: True)
    curve = CurveParams("tiny23", p, a, b, 0, 1, 28, word_count=1)
    for P in points:
        for k in range(32):
            want = affine_multiply(k, P, p, a)
            assert fast_multiply(k, P, curve).to_affine() == want, (P, k)
        for u1 in range(28):
            for u2 in (0, 1, 2, 3, 7):
                want = affine_add(
                    affine_multiply(u1, curve.generator, p, a), affine_multiply(u2, P, p, a), p, a
                )
                assert fast_double_multiply(u1, u2, P, curve).to_affine() == want, (P, u1, u2)


def test_generator_table_is_built_on_first_use(toy):
    curve = CurveParams("demo16", toy.p, toy.a, toy.b, toy.gx, toy.gy, toy.n, word_count=1)
    assert curve._g_table is None
    fast_multiply(5, curve.generator, curve)
    assert curve._g_table is not None

