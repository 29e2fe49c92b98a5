"""ECDSA over the lab curves, with the scalar multiplier pluggable.

Signing exposes everything a side-channel study needs and a production
signer must never reveal: the nonce comes back alongside the signature, the
multiplier can be chosen and traced, and all randomness flows through a
caller-supplied ``random.Random`` so whole experiments replay from a seed.
None of this is hardened against a real adversary; that is the point of the
laboratory.

File formats are line-oriented hex: keys serialize as ``d=<hex>``,
signatures as ``r=<hex> s=<hex> z=<hex>``, nonces as ``k=<hex>``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import DomainError
from .events import EventRecorder
from .ff_curve import (
    CurveParams,
    ProjectivePoint,
    Scalar,
    fast_double_multiply,
    inverse_mod,
    montgomery_ladder,
    point_on_curve,
    traced_multiply,
)


@dataclass(frozen=True)
class KeyPair:
    """Private scalar and its public point."""

    curve: CurveParams
    d: int
    Q: ProjectivePoint

    def __post_init__(self) -> None:
        if not 1 <= self.d < self.curve.n:
            raise DomainError("private key outside [1, n-1]")


@dataclass(frozen=True, slots=True)
class Signature:
    """An ECDSA signature together with the message digest it signs."""

    r: int
    s: int
    z: int


@dataclass(frozen=True, slots=True)
class NonceRecord:
    """Ground-truth nonce for one signature; exists only for lab scoring."""

    k: Scalar
    signature: Signature


def keygen(curve: CurveParams, rng: random.Random) -> KeyPair:
    """Generate a key pair with the supplied RNG (reproducible, not secure)."""
    d = rng.randrange(1, curve.n)
    Q = montgomery_ladder(Scalar.for_curve(d, curve), curve.generator, curve)
    return KeyPair(curve, d, Q)


def sign(
    z: int,
    key: KeyPair,
    rng: random.Random,
    multiplier: str = "ladder",
    swap_impl=None,
    recorder: EventRecorder | None = None,
) -> tuple[Signature, NonceRecord]:
    """Sign digest ``z``, returning the signature and its nonce record.

    Draws nonces until both signature halves are nonzero (with a recorder
    attached, a retried attempt leaves its events in the stream; on the
    large curves retries are astronomically unlikely). ``z`` may exceed n
    and is reduced where the math needs it.
    """
    curve = key.curve
    n = curve.n
    if z < 0:
        raise DomainError("digest must be non-negative")
    G = ProjectivePoint.from_affine(*curve.generator, curve.field)
    while True:
        k = rng.randrange(1, n)
        R = traced_multiply(multiplier, Scalar.for_curve(k, curve), G, curve, swap_impl, recorder)
        affine = R.to_affine()
        assert affine is not None  # k in [1, n-1] cannot hit the neutral element
        r = affine[0] % n
        if r == 0:
            continue
        s = inverse_mod(k, n) * ((z + r * key.d) % n) % n
        if s == 0:
            continue
        sig = Signature(r, s, z)
        return sig, NonceRecord(Scalar.for_curve(k, curve), sig)


def verify(sig: Signature, Q: ProjectivePoint, curve: CurveParams) -> bool:
    """Standard ECDSA verification of ``sig`` against public point ``Q``."""
    n = curve.n
    if not (1 <= sig.r < n and 1 <= sig.s < n):
        return False
    if Q.is_neutral:
        return False
    if not point_on_curve(Q, curve):
        raise DomainError("base point is not on the curve")
    w = inverse_mod(sig.s, n)
    u1 = sig.z * w % n
    u2 = sig.r * w % n
    # u1*G from the fixed-base table, u2*Q by wNAF.
    affine = fast_double_multiply(u1, u2, Q.to_affine(), curve).to_affine()
    if affine is None:
        return False
    return affine[0] % n == sig.r


def recover_private_key(sig: Signature, k: int, curve: CurveParams) -> int:
    """Solve the signing equation for d given the signature's nonce."""
    n = curve.n
    if not (1 <= sig.r < n and 1 <= sig.s < n):
        raise DomainError("signature components outside [1, n-1]")
    if not 1 <= k < n:
        raise DomainError("nonce outside [1, n-1]")
    d = (sig.s * k - sig.z) * inverse_mod(sig.r, n) % n
    if d == 0:
        raise DomainError("recovered d = 0; nonce does not match this signature")
    return d


# ---------------------------------------------------------------------------
# Line-oriented hex serialization.


_HEX_DIGITS = re.compile(r"[0-9a-fA-F]+")


def parse_hex(text: str, where: str) -> int:
    """One hex field of an input file: ASCII hex digits only, as the writers
    emit them. A sign, a ``0x`` prefix, an underscore or a space (all of
    which ``int(text, 16)`` takes) is a ``DomainError``."""
    if not _HEX_DIGITS.fullmatch(text):
        raise DomainError(f"{where}: {text!r} is not a hex integer")
    return int(text, 16)


def read_text(path: str | Path) -> str:
    """A text input file's contents; non-UTF-8 bytes are a DomainError."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path} is not UTF-8 text ({exc})") from None


def write_private_key(path: str | Path, key: KeyPair) -> None:
    Path(path).write_text(f"d={key.d:x}\n")


def read_private_key(path: str | Path, curve: CurveParams) -> KeyPair:
    for raw in read_text(path).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not line.startswith("d="):
            raise DomainError(f"{path}: expected 'd=<hex>', got {raw!r}")
        d = parse_hex(line[2:], str(path))
        Q = montgomery_ladder(Scalar.for_curve(d, curve), curve.generator, curve)
        return KeyPair(curve, d, Q)
    raise DomainError(f"{path}: no key line found")


def write_signatures(path: str | Path, sigs: list[Signature]) -> None:
    lines = [f"r={s.r:x} s={s.s:x} z={s.z:x}" for s in sigs]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_signatures(path: str | Path) -> list[Signature]:
    sigs: list[Signature] = []
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = dict(p.split("=", 1) for p in line.split() if "=" in p)
        if set(parts) != {"r", "s", "z"}:
            raise DomainError(f"{path}:{lineno}: expected 'r= s= z=', got {raw!r}")
        sigs.append(Signature(*(parse_hex(parts[f], f"{path}:{lineno}") for f in "rsz")))
    return sigs
