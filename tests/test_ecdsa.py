import random

import pytest
from hypothesis import given, settings, strategies as st

from nonce_lab.ecdsa import (
    KeyPair,
    Signature,
    keygen,
    read_private_key,
    read_signatures,
    recover_private_key,
    sign,
    verify,
    write_private_key,
    write_signatures,
)
from nonce_lab.errors import DomainError
from nonce_lab.events import EventRecorder
from nonce_lab.ff_curve import ProjectivePoint, Scalar, get_curve, point_on_curve

from oracles import affine_multiply, enumerate_private_key


def test_keygen_produces_valid_pair(toy, rng):
    kp = keygen(toy, rng)
    assert 1 <= kp.d < toy.n
    assert point_on_curve(kp.Q, toy)
    assert kp.Q.to_affine() == affine_multiply(kp.d, toy.generator, toy.p, toy.a)


def test_keypair_rejects_out_of_range_d(toy):
    Q = ProjectivePoint.from_affine(*toy.generator, toy.field)
    with pytest.raises(DomainError):
        KeyPair(toy, 0, Q)
    with pytest.raises(DomainError):
        KeyPair(toy, toy.n, Q)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1 << 64), st.randoms(use_true_random=False))
def test_sign_verify_roundtrip_toy(z, pyrng):
    toy = get_curve("toy16")
    kp = keygen(toy, pyrng)
    sig, rec = sign(z, kp, pyrng)
    assert verify(sig, kp.Q, toy)
    assert rec.signature == sig
    # nonce record really is the nonce of this signature
    assert recover_private_key(sig, rec.k.value, toy) == kp.d


def test_sign_verify_both_multipliers(p128, rng):
    kp = keygen(p128, rng)
    for mult in ("ladder", "daa"):
        sig, rec = sign(0xABCDEF, kp, rng, multiplier=mult)
        assert verify(sig, kp.Q, p128)
        R = affine_multiply(rec.k.value, p128.generator, p128.p, p128.a)
        assert R[0] % p128.n == sig.r


def test_sign_unknown_multiplier(toy, rng):
    kp = keygen(toy, rng)
    with pytest.raises(DomainError):
        sign(1, kp, rng, multiplier="window")


def test_sign_is_deterministic_per_rng_state(toy):
    kp = keygen(toy, random.Random(3))
    s1, r1 = sign(42, kp, random.Random(9))
    s2, r2 = sign(42, kp, random.Random(9))
    assert s1 == s2 and r1.k == r2.k
    # traced signing consumes the same nonce stream
    rec = EventRecorder()
    s3, _ = sign(42, kp, random.Random(9), recorder=rec)
    assert s3 == s1
    assert len(rec) > 0


def test_verify_rejects_tampering(toy, rng):
    kp = keygen(toy, rng)
    sig, _ = sign(555, kp, rng)
    assert verify(sig, kp.Q, toy)
    assert not verify(Signature(sig.r, sig.s, sig.z + 1), kp.Q, toy)
    assert not verify(Signature(sig.r, (sig.s + 1) % toy.n or 1, sig.z), kp.Q, toy)
    assert not verify(Signature((sig.r + 1) % toy.n or 1, sig.s, sig.z), kp.Q, toy)
    other = keygen(toy, rng)
    assert not verify(sig, other.Q, toy)


def test_verify_rejects_out_of_range_components(toy, rng):
    kp = keygen(toy, rng)
    sig, _ = sign(7, kp, rng)
    assert not verify(Signature(0, sig.s, sig.z), kp.Q, toy)
    assert not verify(Signature(sig.r, 0, sig.z), kp.Q, toy)
    assert not verify(Signature(toy.n, sig.s, sig.z), kp.Q, toy)
    assert not verify(Signature(sig.r, toy.n, sig.z), kp.Q, toy)


def test_verify_rejects_neutral_public_key(toy, rng):
    kp = keygen(toy, rng)
    sig, _ = sign(7, kp, rng)
    assert not verify(sig, ProjectivePoint.neutral(toy.field), toy)


def test_verify_rejects_off_curve_public_key(toy, rng):
    kp = keygen(toy, rng)
    sig, _ = sign(7, kp, rng)
    qx, qy = kp.Q.to_affine()
    bogus = ProjectivePoint.from_affine(qx, (qy + 1) % toy.p, toy.field)
    with pytest.raises(DomainError):
        verify(sig, bogus, toy)


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_recover_private_key_matches_enumeration(pyrng):
    toy = get_curve("toy16")
    kp = keygen(toy, pyrng)
    sig, rec = sign(pyrng.randrange(1 << 32), kp, pyrng)
    d = recover_private_key(sig, rec.k.value, toy)
    assert d == kp.d


def test_recover_with_wrong_nonce_gives_wrong_key(toy, rng):
    kp = keygen(toy, rng)
    sig, rec = sign(999, kp, rng)
    wrong = rec.k.value % (toy.n - 1) + 1
    if wrong == rec.k.value:
        wrong = wrong % (toy.n - 1) + 1
    assert recover_private_key(sig, wrong, toy) != kp.d


def test_recover_validates_inputs(toy, rng):
    kp = keygen(toy, rng)
    sig, rec = sign(1, kp, rng)
    with pytest.raises(DomainError):
        recover_private_key(Signature(0, sig.s, sig.z), rec.k.value, toy)
    with pytest.raises(DomainError):
        recover_private_key(sig, 0, toy)


def test_enumeration_oracle_agrees_once(toy, rng):
    kp = KeyPair(toy, 4321, ProjectivePoint.from_affine(
        *affine_multiply(4321, toy.generator, toy.p, toy.a), toy.field
    ))
    assert enumerate_private_key(kp.Q.to_affine(), toy) == 4321


def test_sign_on_secp521r1_with_trace(p521):
    rng = random.Random(77)
    kp = keygen(p521, rng)
    rec = EventRecorder()
    sig, nrec = sign(0x1122334455, kp, rng, recorder=rec)
    assert verify(sig, kp.Q, p521)
    assert nrec.k.bit_length == 521
    # one full ladder of events: 521 iterations, schedule fixed
    assert len(rec) > 521 * 30


# ---------------------------------------------------------------------------
# serialization


def test_key_file_roundtrip(tmp_path, toy, rng):
    kp = keygen(toy, rng)
    path = tmp_path / "key.txt"
    write_private_key(path, kp)
    assert path.read_text() == f"d={kp.d:x}\n"
    back = read_private_key(path, toy)
    assert back.d == kp.d and back.Q == kp.Q


def test_signature_file_roundtrip(tmp_path, toy, rng):
    kp = keygen(toy, rng)
    sigs = [sign(z, kp, rng)[0] for z in (1, 2, 3)]
    path = tmp_path / "sigs.txt"
    write_signatures(path, sigs)
    assert read_signatures(path) == sigs
    first = path.read_text().splitlines()[0]
    assert first == f"r={sigs[0].r:x} s={sigs[0].s:x} z={sigs[0].z:x}"


def test_malformed_files_raise(tmp_path, toy):
    bad = tmp_path / "bad.txt"
    bad.write_text("r=1 s=2\n")
    with pytest.raises(DomainError):
        read_signatures(bad)
    bad.write_text("q=5\n")
    with pytest.raises(DomainError):
        read_private_key(bad, toy)
    for text, reader in (
        ("d=zz\n", lambda: read_private_key(bad, toy)),
        ("r=1 s=zz z=3\n", lambda: read_signatures(bad)),
    ):
        bad.write_text(text)
        with pytest.raises(DomainError, match="not a hex integer"):
            reader()
