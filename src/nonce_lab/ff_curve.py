"""Prime-field and short-Weierstrass curve arithmetic with recordable
micro-op schedules.

Two scalar multipliers live here. Both run a fixed, secret-independent
operation schedule and route every secret-dependent register move through a
conditional swap supplied by the caller:

* ``montgomery_ladder``: an x-only ladder whose two working registers are
  swapped once per bit with condition ``k_i XOR k_{i+1}``. The y-coordinate
  is recovered once at the end, so the registers drag stale y words through
  every swap (three coordinates wide).
* ``double_and_always_add``: doubles and adds every iteration, then swaps
  the result register with the throwaway register under condition ``k_i``.

``traced_multiply`` runs either one by its name in ``MULTIPLIERS``.
When given an EventRecorder, the multipliers record one event per field
operation (with the Hamming weight of the result) plus whatever the swap
implementation emits; the simulator turns that stream into sampled traces.
The traced bodies (``_step_body``, ``_dbl_body``, ``_add_body``) compute
their field ops inline and record in bulk: per call, one constant tuple of
kinds, one of conds and the results' weights in source order.
Without a recorder both multipliers hand the work to one untraced core
(``fast_multiply``): Jacobian coordinates, width-w NAF for an arbitrary base
and a fixed-base table for the generator, built on first use.
The core branches on the scalar and records nothing; it also serves key
generation, verification and the key checks of recovery.
``reference_multiply`` is a separate, naive double-and-add on the complete
formulas that shares no point arithmetic with the core and exists as its
cross-check.

Field elements stay in ``[0, p)``. Moduli shaped like ``2**k - c`` with small
``c`` reduce by folding the high bits, which is what makes exhaustive and
521-bit work affordable in pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import ConfigError, DomainError, NonInvertible
from .events import WORD_BITS, EventRecorder, OpKind

# Sizes of the consecutive multiply/square runs inside one ladder step
# (``_step_body``); the aligner matches the envelope these runs make.
LADDER_STEP_MUL_GROUPS = (5, 2, 1, 2, 3, 1, 3, 3)


# Miller-Rabin bases: the first 13 primes, which together decide every
# n < 3.3 * 10**24 (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases ``_MR_BASES``: exact below 3.3 * 10**24;
    above, only a strong pseudoprime to all thirteen bases, which must be
    constructed on purpose, passes as prime."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def inverse_mod(value: int, modulus: int) -> int:
    """``value**-1 mod modulus``; NonInvertible where none exists."""
    try:
        return pow(value, -1, modulus)
    except ValueError:
        raise NonInvertible(f"{value} is not invertible mod {modulus}") from None


class Field:
    """Prime field F_p.

    The modulus is assumed prime (``CurveParams`` checks it). Reduction
    folds ``z = (z & mask) + (z >> k) * c`` when ``p = 2**k - c`` is wider
    than 64 bits with ``c`` below 32 bits, else falls back to ``%``, which
    is faster for narrow moduli.
    """

    __slots__ = ("p", "_red")

    def __init__(self, p: int) -> None:
        if p < 3 or p % 2 == 0:
            raise DomainError(f"modulus must be an odd prime, got {p}")
        self.p = p
        k = p.bit_length()
        c = (1 << k) - p
        if k <= 64 or c.bit_length() > 32:
            self._red = p.__rmod__
            return
        mask = (1 << k) - 1

        def red(z: int) -> int:
            high = z >> k
            while high:
                z = (z & mask) + high * c
                high = z >> k
            return z - p if z >= p else z

        self._red = red

    def reducer(self) -> Callable[[int], int]:
        """Return the function reducing any integer into ``[0, p)``."""
        return self._red

    def __reduce__(self):
        # The reducer may be a closure, which cannot be pickled; a worker
        # process rebuilds it from ``p``.
        return Field, (self.p,)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Field", self.p))

    def __repr__(self) -> str:
        return f"Field(p={self.p:#x})"


@dataclass(frozen=True, slots=True)
class Scalar:
    """A scalar with an explicit bit width.

    ``bit_length`` fixes how many ladder/add iterations a multiplier runs,
    independent of where the top set bit of ``value`` happens to sit. That
    is what makes the operation schedule secret-independent.
    """

    value: int
    bit_length: int

    def __post_init__(self) -> None:
        if self.bit_length < 1:
            raise DomainError(f"bit_length must be positive, got {self.bit_length}")
        if not 0 <= self.value < (1 << self.bit_length):
            raise DomainError(
                f"scalar {self.value:#x} does not fit in {self.bit_length} bits"
            )

    @classmethod
    def for_curve(cls, value: int, curve: "CurveParams") -> "Scalar":
        return cls(value, curve.n.bit_length())

    def bit(self, i: int) -> int:
        """Bit ``i`` of the value, LSB first; indices at or above bit_length are 0."""
        if i < 0:
            raise DomainError(f"negative bit index {i}")
        return (self.value >> i) & 1


class CurveParams:
    """Short-Weierstrass curve ``y**2 = x**3 + a*x + b`` over F_p.

    Construction checks that ``p`` and ``n`` are prime (Miller-Rabin), the
    curve is non-singular, the base point lies on it, and ``n`` really
    kills the base point. ``word_count`` is how many 64-bit machine words
    one coordinate occupies, and so how many words per coordinate a
    conditional swap moves; bignum layouts that also swap a bookkeeping
    flag word along with the limbs are not modelled.
    """

    __slots__ = ("name", "p", "a", "b", "gx", "gy", "n", "word_count", "field", "_g_table")

    def __init__(
        self,
        name: str,
        p: int,
        a: int,
        b: int,
        gx: int,
        gy: int,
        n: int,
        word_count: int,
    ) -> None:
        self.name = name
        if not _is_prime(p):
            raise DomainError(f"modulus {p} is not prime")
        self.field = Field(p)
        self.p = p
        self.a = a % p
        self.b = b % p
        self.gx = gx % p
        self.gy = gy % p
        self.n = n
        expected_words = -(-p.bit_length() // WORD_BITS)
        if word_count != expected_words:
            raise DomainError(
                f"word_count {word_count} does not match {p.bit_length()}-bit modulus"
            )
        self.word_count = word_count
        self._g_table = None  # fixed-base table for G, built on first use
        if (4 * self.a**3 + 27 * self.b**2) % p == 0:
            raise DomainError("curve is singular")
        if (self.gy * self.gy - (self.gx**3 + self.a * self.gx + self.b)) % p != 0:
            raise DomainError("base point is not on the curve")
        if not _is_prime(n):
            raise DomainError(f"order {n} is not prime")
        # n*G == O iff (n-1)*G == -G, which avoids multiplying by n itself.
        if _to_affine(_wnaf_multiply(n - 1, self.generator, self), self) != (self.gx, -self.gy % p):
            raise DomainError("base point order does not divide n")

    @property
    def generator(self) -> tuple[int, int]:
        return (self.gx, self.gy)

    def __repr__(self) -> str:
        return f"CurveParams({self.name!r}, {self.p.bit_length()} bits)"


def _triple_eq(P: tuple[int, int, int], Q: tuple[int, int, int], p: int) -> bool:
    x1, y1, z1 = P
    x2, y2, z2 = Q
    if z1 % p == 0 or z2 % p == 0:
        return z1 % p == 0 and z2 % p == 0
    return (x1 * z2 - x2 * z1) % p == 0 and (y1 * z2 - y2 * z1) % p == 0


@dataclass(frozen=True, eq=False, slots=True)
class ProjectivePoint:
    """Homogeneous projective point (X : Y : Z) over ``field``, each
    coordinate an int in ``[0, p)``; Z == 0 is the neutral element.

    Equality is projective: two points compare equal when their cross
    products agree, regardless of representative.
    """

    X: int
    Y: int
    Z: int
    field: Field

    def __post_init__(self) -> None:
        p = self.field.p
        if not (0 <= self.X < p and 0 <= self.Y < p and 0 <= self.Z < p):
            raise DomainError(f"coordinates {self.triple()} outside [0, {p})")
        if self.X == self.Y == self.Z == 0:
            raise DomainError("(0 : 0 : 0) is not a point")

    @classmethod
    def neutral(cls, field: Field) -> "ProjectivePoint":
        return cls(0, 1, 0, field)

    @classmethod
    def from_affine(cls, x: int, y: int, field: Field) -> "ProjectivePoint":
        return cls(x % field.p, y % field.p, 1, field)

    @property
    def is_neutral(self) -> bool:
        return self.Z == 0

    def triple(self) -> tuple[int, int, int]:
        return (self.X, self.Y, self.Z)

    def to_affine(self) -> tuple[int, int] | None:
        """Affine (x, y), or None for the neutral element."""
        if self.is_neutral:
            return None
        p = self.field.p
        zi = inverse_mod(self.Z, p)
        return (self.X * zi % p, self.Y * zi % p)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        if self.field.p != other.field.p:
            return False
        return _triple_eq(self.triple(), other.triple(), self.field.p)

    __hash__ = None  # type: ignore[assignment]


def point_on_curve(P: ProjectivePoint, curve: CurveParams) -> bool:
    """Whether P satisfies the homogeneous curve equation of ``curve``."""
    x, y, z = P.triple()
    p = curve.p
    if z % p == 0:
        return x % p == 0 and y % p != 0
    lhs = y * y * z % p
    rhs = (x * x * x + curve.a * x * z * z + curve.b * z * z * z) % p
    return lhs == rhs


# ---------------------------------------------------------------------------
# Traced complete projective add/double (every input pair, including the
# neutral element and P + (-P), on any short-Weierstrass curve) and the
# x-only ladder step. Each body computes its field ops inline, products
# through ``red`` and add/sub/shift by one conditional correction, so every
# result lies in [0, p). Register names follow the formulas, suffixed per
# reassignment so each op's result survives to the body's one leak append:
# the results' Hamming weights in source order. A body's kinds and conds
# are constants, one tuple each.


def _schedule(ops: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Kinds and conds columns of a body's ops: M multiply, S square,
    A add/sub/shift; no op carries a swap condition."""
    codes = {
        "M": OpKind.FIELD_MUL.code,
        "S": OpKind.FIELD_SQUARE.code,
        "A": OpKind.FIELD_ADD_SUB.code,
    }
    return tuple(codes[op] for op in ops), (-1,) * len(ops)


_ADD_KINDS, _ADD_CONDS = _schedule("MMMAAMAAAAMAAAAMAAMMAAAMAAMMAAMAMAMMAMMA")
_DBL_KINDS, _DBL_CONDS = _schedule("SSSMAMAMMAAAMMMMAMAAAAMAMAMAMAA")
_STEP_KINDS, _STEP_CONDS = _schedule("MMMMMAAAMSAMASMAASSMASAAASMMAASMMAA")


def _add_body(P, Q, a, b3, red, p, rec):
    X1, Y1, Z1 = P
    X2, Y2, Z2 = Q
    t0 = red(X1 * X2)
    t1 = red(Y1 * Y2)
    t2 = red(Z1 * Z2)
    t3 = v - p if (v := X1 + Y1) >= p else v
    t4 = v - p if (v := X2 + Y2) >= p else v
    t3_1 = red(t3 * t4)
    t4_1 = v - p if (v := t0 + t1) >= p else v
    t3_2 = v + p if (v := t3_1 - t4_1) < 0 else v
    t4_2 = v - p if (v := X1 + Z1) >= p else v
    t5 = v - p if (v := X2 + Z2) >= p else v
    t4_3 = red(t4_2 * t5)
    t5_1 = v - p if (v := t0 + t2) >= p else v
    t4_4 = v + p if (v := t4_3 - t5_1) < 0 else v
    t5_2 = v - p if (v := Y1 + Z1) >= p else v
    X3 = v - p if (v := Y2 + Z2) >= p else v
    t5_3 = red(t5_2 * X3)
    X3_1 = v - p if (v := t1 + t2) >= p else v
    t5_4 = v + p if (v := t5_3 - X3_1) < 0 else v
    Z3 = red(a * t4_4)
    X3_2 = red(b3 * t2)
    Z3_1 = v - p if (v := X3_2 + Z3) >= p else v
    X3_3 = v + p if (v := t1 - Z3_1) < 0 else v
    Z3_2 = v - p if (v := t1 + Z3_1) >= p else v
    Y3 = red(X3_3 * Z3_2)
    t1_1 = v - p if (v := t0 + t0) >= p else v
    t1_2 = v - p if (v := t1_1 + t0) >= p else v
    t2_1 = red(a * t2)
    t4_5 = red(b3 * t4_4)
    t1_3 = v - p if (v := t1_2 + t2_1) >= p else v
    t2_2 = v + p if (v := t0 - t2_1) < 0 else v
    t2_3 = red(a * t2_2)
    t4_6 = v - p if (v := t4_5 + t2_3) >= p else v
    t0_1 = red(t1_3 * t4_6)
    Y3_1 = v - p if (v := Y3 + t0_1) >= p else v
    t0_2 = red(t5_4 * t4_6)
    X3_4 = red(t3_2 * X3_3)
    X3_5 = v + p if (v := X3_4 - t0_2) < 0 else v
    t0_3 = red(t3_2 * t1_3)
    Z3_3 = red(t5_4 * Z3_2)
    Z3_4 = v - p if (v := Z3_3 + t0_3) >= p else v
    rec.kinds += _ADD_KINDS
    rec.leaks += map(int.bit_count, (
        t0, t1, t2, t3, t4, t3_1, t4_1, t3_2, t4_2, t5, t4_3, t5_1, t4_4,
        t5_2, X3, t5_3, X3_1, t5_4, Z3, X3_2, Z3_1, X3_3, Z3_2, Y3, t1_1,
        t1_2, t2_1, t4_5, t1_3, t2_2, t2_3, t4_6, t0_1, Y3_1, t0_2, X3_4,
        X3_5, t0_3, Z3_3, Z3_4,
    ))
    rec.conds += _ADD_CONDS
    return (X3_5, Y3_1, Z3_4)


def _dbl_body(P, a, b3, red, p, rec):
    X, Y, Z = P
    t0 = red(X * X)
    t1 = red(Y * Y)
    t2 = red(Z * Z)
    t3 = red(X * Y)
    t3_1 = v - p if (v := t3 + t3) >= p else v
    Z3 = red(X * Z)
    Z3_1 = v - p if (v := Z3 + Z3) >= p else v
    X3 = red(a * Z3_1)
    Y3 = red(b3 * t2)
    Y3_1 = v - p if (v := X3 + Y3) >= p else v
    X3_1 = v + p if (v := t1 - Y3_1) < 0 else v
    Y3_2 = v - p if (v := t1 + Y3_1) >= p else v
    Y3_3 = red(X3_1 * Y3_2)
    X3_2 = red(t3_1 * X3_1)
    Z3_2 = red(b3 * Z3_1)
    t2_1 = red(a * t2)
    t3_2 = v + p if (v := t0 - t2_1) < 0 else v
    t3_3 = red(a * t3_2)
    t3_4 = v - p if (v := t3_3 + Z3_2) >= p else v
    Z3_3 = v - p if (v := t0 + t0) >= p else v
    t0_1 = v - p if (v := Z3_3 + t0) >= p else v
    t0_2 = v - p if (v := t0_1 + t2_1) >= p else v
    t0_3 = red(t0_2 * t3_4)
    Y3_4 = v - p if (v := Y3_3 + t0_3) >= p else v
    t2_2 = red(Y * Z)
    t2_3 = v - p if (v := t2_2 + t2_2) >= p else v
    t0_4 = red(t2_3 * t3_4)
    X3_3 = v + p if (v := X3_2 - t0_4) < 0 else v
    Z3_4 = red(t2_3 * t1)
    Z3_5 = v - p if (v := Z3_4 + Z3_4) >= p else v
    Z3_6 = v - p if (v := Z3_5 + Z3_5) >= p else v
    rec.kinds += _DBL_KINDS
    rec.leaks += map(int.bit_count, (
        t0, t1, t2, t3, t3_1, Z3, Z3_1, X3, Y3, Y3_1, X3_1, Y3_2, Y3_3,
        X3_2, Z3_2, t2_1, t3_2, t3_3, t3_4, Z3_3, t0_1, t0_2, t0_3, Y3_4,
        t2_2, t2_3, t0_4, X3_3, Z3_4, Z3_5, Z3_6,
    ))
    rec.conds += _DBL_CONDS
    return (X3_3, Y3_4, Z3_6)


def _step_body(s, r, x_base, a, b4, red, p, rec):
    """One ladder step on x-only pairs: returns (r + s, 2r).

    Requires the affine x of r - s. ``b4`` is the step's shift of a
    constant, 4b mod p, hoisted out of the loop and still recorded. The
    multiply/square runs follow LADDER_STEP_MUL_GROUPS, separated by
    add/sub/shift ops.
    """
    X1, Z1 = s
    X2, Z2 = r
    t6 = red(X2 * X1)
    t0 = red(Z2 * Z1)
    t4 = red(X2 * Z1)
    t3 = red(Z2 * X1)
    t5 = red(a * t0)
    t5_1 = v - p if (v := t6 + t5) >= p else v
    t6_1 = v - p if (v := t3 + t4) >= p else v
    t3_1 = v + p if (v := t3 - t4) < 0 else v
    t5_2 = red(t6_1 * t5_1)
    t0_1 = red(t0 * t0)
    t2 = b4
    t0_2 = red(t2 * t0_1)
    t5_3 = v - p if (v := t5_2 << 1) >= p else v
    Z1n = red(t3_1 * t3_1)
    t4_1 = red(Z1n * x_base)
    t0_3 = v - p if (v := t0_2 + t5_3) >= p else v
    X1n = v + p if (v := t0_3 - t4_1) < 0 else v
    t4_2 = red(X2 * X2)
    t5_4 = red(Z2 * Z2)
    t6_2 = red(a * t5_4)
    t1 = v - p if (v := X2 + Z2) >= p else v
    t1_1 = red(t1 * t1)
    t1_2 = v + p if (v := t1_1 - t4_2) < 0 else v
    t1_3 = v + p if (v := t1_2 - t5_4) < 0 else v
    t3_2 = v + p if (v := t4_2 - t6_2) < 0 else v
    t3_3 = red(t3_2 * t3_2)
    t0_4 = red(t5_4 * t1_3)
    t0_5 = red(t2 * t0_4)
    X2n = v + p if (v := t3_3 - t0_5) < 0 else v
    t3_4 = v - p if (v := t4_2 + t6_2) >= p else v
    t4_3 = red(t5_4 * t5_4)
    t4_4 = red(t4_3 * t2)
    t1_4 = red(t1_3 * t3_4)
    t1_5 = v - p if (v := t1_4 << 1) >= p else v
    Z2n = v - p if (v := t4_4 + t1_5) >= p else v
    rec.kinds += _STEP_KINDS
    rec.leaks += map(int.bit_count, (
        t6, t0, t4, t3, t5, t5_1, t6_1, t3_1, t5_2, t0_1, t2, t0_2, t5_3,
        Z1n, t4_1, t0_3, X1n, t4_2, t5_4, t6_2, t1, t1_1, t1_2, t1_3, t3_2,
        t3_3, t0_4, t0_5, X2n, t3_4, t4_3, t4_4, t1_4, t1_5, Z2n,
    ))
    rec.conds += _STEP_CONDS
    return (X1n, Z1n), (X2n, Z2n)


def _recover_y(base: tuple[int, int], R0: tuple[int, int], R1: tuple[int, int], curve: CurveParams) -> tuple[int, int] | None:
    """Affine k*base from the final ladder pair (R0 = k*base, R1 = (k+1)*base).

    R1 at infinity means k*base = -base; R0 at infinity means k*base is the
    neutral element, returned as None.
    """
    p, a, b = curve.p, curve.a, curve.b
    x, y = base
    X0, Z0 = R0
    X1, Z1 = R1
    if Z1 % p == 0:
        return (x, -y % p)
    if Z0 % p == 0:
        return None
    zi = inverse_mod(Z0 * Z1 % p, p)
    x0 = X0 * Z1 % p * zi % p
    x1 = X1 * Z0 % p * zi % p
    num = ((x * x0 + a) % p * ((x0 + x) % p) + 2 * b - x1 * pow(x0 - x, 2, p)) % p
    y0 = num * inverse_mod(2 * y, p) % p
    return (x0, y0)


# ---------------------------------------------------------------------------
# Untraced core. Points are Jacobian int triples (x = X/Z^2, y = Y/Z^3) with
# None for the neutral element; products are reduced once each, sums stay
# lazy. It branches on the scalar and records nothing, so it serves only the
# untraced paths: both multipliers without a recorder, key generation,
# verification and the key checks of recovery.

# Digit width of both the NAF and the fixed-base table; on secp521r1, 4 is
# slower per multiply and 6 builds a table two thirds larger for a 14%
# faster fixed-base multiply.
_WINDOW = 5


def _double(P, curve: CurveParams):
    if P is None or P[1] == 0:
        return None
    X, Y, Z = P
    red = curve.field.reducer()
    if curve.a == curve.p - 3:
        d = red(Z * Z)
        M = 3 * red((X - d) * (X + d))
    else:
        zz = red(Z * Z)
        M = 3 * red(X * X) + red(curve.a * red(zz * zz))
    yy = red(Y * Y)
    S = red(4 * X * yy)
    X3 = red(M * M - 2 * S)
    return (X3, red(M * (S - X3) - 8 * red(yy * yy)), red(2 * Y * Z))


def _add_affine(P, A, curve: CurveParams):
    """P + A for Jacobian P and affine A (either may be None)."""
    if A is None:
        return P
    if P is None:
        return (A[0], A[1], 1)
    X1, Y1, Z1 = P
    red = curve.field.reducer()
    zz = red(Z1 * Z1)
    H = red(A[0] * zz) - X1
    R = red(A[1] * red(Z1 * zz)) - Y1
    if H == 0:
        return _double(P, curve) if R == 0 else None
    hh = red(H * H)
    hhh = red(H * hh)
    V = red(X1 * hh)
    X3 = red(R * R - hhh - 2 * V)
    return (X3, red(R * (V - X3) - Y1 * hhh), red(Z1 * H))


def _normalize(points, curve: CurveParams):
    """Affine forms of Jacobian points (None stays None), one shared inversion."""
    red = curve.field.reducer()
    live = [P for P in points if P is not None]
    prefix = []
    acc = 1
    for P in live:
        prefix.append(acc)
        acc = red(acc * P[2])
    inv = inverse_mod(acc, curve.p)
    affine = [None] * len(live)
    for i in range(len(live) - 1, -1, -1):
        X, Y, Z = live[i]
        zi = red(inv * prefix[i])
        inv = red(inv * Z)
        zi2 = red(zi * zi)
        affine[i] = (red(X * zi2), red(Y * red(zi2 * zi)))
    it = iter(affine)
    return [None if P is None else next(it) for P in points]


def _to_affine(P, curve: CurveParams) -> tuple[int, int] | None:
    return _normalize([P], curve)[0]


def _negate(A, p: int):
    return None if A is None else (A[0], -A[1] % p)


def _wnaf_multiply(k: int, base: tuple[int, int], curve: CurveParams):
    """k*base for any k >= 0 by width-w NAF over the odd multiples of base."""
    p = curve.p
    half = 1 << (_WINDOW - 1)
    P = (base[0] % p, base[1] % p, 1)
    twice = _to_affine(_double(P, curve), curve)
    odd = [P]
    for _ in range(half // 2 - 1):
        odd.append(_add_affine(odd[-1], twice, curve))
    table = _normalize(odd, curve)
    negated = [_negate(A, p) for A in table]
    digits = []
    while k:
        d = 0
        if k & 1:
            d = k & (2 * half - 1)
            if d >= half:
                d -= 2 * half
            k -= d
        digits.append(d)
        k >>= 1
    acc = None
    for d in reversed(digits):
        acc = _double(acc, curve)
        if d > 0:
            acc = _add_affine(acc, table[d >> 1], curve)
        elif d < 0:
            acc = _add_affine(acc, negated[-d >> 1], curve)
    return acc


def _generator_table(curve: CurveParams):
    """Rows i = 0, 1, ...: affine j * 2**(w*i) * G for j = 1 .. 2**(w-1).

    Built once per curve on first use, one batched inversion per row.
    """
    if curve._g_table is None:
        w = _WINDOW
        rows = []
        base = curve.generator
        # A scalar below n has at most bitlen(n)//w + 2 signed digits.
        for _ in range(curve.n.bit_length() // w + 2):
            row = [(base[0], base[1], 1)]
            for _ in range((1 << (w - 1)) - 1):
                row.append(_add_affine(row[-1], base, curve))
            row.append(_double(row[-1], curve))  # 2**w * base
            *row, base = _normalize(row, curve)
            rows.append(row)
        curve._g_table = rows
    return curve._g_table


def _generator_multiply(k: int, curve: CurveParams, acc=None):
    """acc + k*G from the fixed-base table: signed base-2**w digits, one
    addition per nonzero digit and no doublings."""
    p = curve.p
    w = _WINDOW
    half = 1 << (w - 1)
    k %= curve.n
    for row in _generator_table(curve):
        if not k:
            break
        d = k & (2 * half - 1)
        k >>= w
        if d > half:
            d -= 2 * half
            k += 1
        if d > 0:
            acc = _add_affine(acc, row[d - 1], curve)
        elif d < 0:
            acc = _add_affine(acc, _negate(row[-d - 1], p), curve)
    return acc


def _affine_point(A: tuple[int, int] | None, curve: CurveParams) -> ProjectivePoint:
    if A is None:
        return ProjectivePoint.neutral(curve.field)
    return ProjectivePoint.from_affine(A[0], A[1], curve.field)


def fast_multiply(k: int, base: tuple[int, int], curve: CurveParams) -> ProjectivePoint:
    """k*base (k >= 0) on the untraced core, affine-normalized.

    Uses the fixed-base table when base is the curve's generator, width-w
    NAF otherwise. Callers check the scalar and the base point.
    """
    if base == curve.generator:
        P = _generator_multiply(k, curve)
    else:
        P = _wnaf_multiply(k, base, curve)
    return _affine_point(_to_affine(P, curve), curve)


def fast_double_multiply(
    u1: int, u2: int, base: tuple[int, int], curve: CurveParams
) -> ProjectivePoint:
    """u1*G + u2*base (both scalars >= 0) on the untraced core."""
    P = _generator_multiply(u1, curve, _wnaf_multiply(u2, base, curve))
    return _affine_point(_to_affine(P, curve), curve)


_RERANDOMIZE_KINDS = (OpKind.RERANDOMIZE.code,) * 3


def _rerandomize_triple(triple, scale, red, rec):
    """Scale a projective representative by a nonzero factor, recording one
    event per refreshed coordinate."""
    out = tuple(red(c * scale) for c in triple)
    rec.extend(_RERANDOMIZE_KINDS, [c.bit_count() for c in out], -1)
    return out


def _check_scalar(k: Scalar, curve: CurveParams) -> None:
    if not isinstance(k, Scalar):
        raise DomainError(f"expected Scalar, got {type(k).__name__}")
    if not 1 <= k.value <= curve.n - 1:
        raise DomainError(f"scalar must lie in [1, n-1], got {k.value:#x}")


def montgomery_ladder(
    k: Scalar,
    base: tuple[int, int],
    curve: CurveParams,
    swap_impl=None,
    recorder: EventRecorder | None = None,
) -> ProjectivePoint:
    """Compute k * base with a constant-schedule x-only ladder.

    The two registers are conditionally swapped once per iteration with
    condition ``k_i XOR k_{i+1}`` (the bit above the MSB reads as 0), so the
    recorded swap sequence has exactly ``k.bit_length`` entries. Registers
    are three coordinates wide: the stale y words ride along through every
    swap. The y-coordinate of the result is recovered arithmetically at the
    end and the returned point is affine-normalized.
    """
    _check_scalar(k, curve)
    xb, yb = base[0] % curve.p, base[1] % curve.p
    if (yb * yb - (xb**3 + curve.a * xb + curve.b)) % curve.p != 0:
        raise DomainError("base point is not on the curve")
    if recorder is None:
        return fast_multiply(k.value, (xb, yb), curve)

    from . import swap_impls

    if swap_impl is None:
        swap_impl = swap_impls.SwapVariant(swap_impls.SwapKind.PLAIN)
    combined = swap_impl.kind is swap_impls.SwapKind.COMBINED
    red = curve.field.reducer()
    p, a = curve.p, curve.a
    b4 = 4 * curve.b % p
    wc = curve.word_count
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
            A = _rerandomize_triple(A, rng.randrange(1, p), red, recorder)
            B = _rerandomize_triple(B, rng.randrange(1, p), red, recorder)
        swapped = swap_impls.ct_swap(
            swap_impl, swap_impls.WordArrayPair(A, B, wc), cond, recorder
        )
        A, B = swapped.a, swapped.b
        (bx, bz), (ax, az) = _step_body(
            (B[0], B[2]), (A[0], A[2]), xb, a, b4, red, p, recorder
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


def double_and_always_add(
    k: Scalar,
    point: ProjectivePoint,
    curve: CurveParams,
    swap_impl=None,
    recorder: EventRecorder | None = None,
) -> ProjectivePoint:
    """Compute k * point, doubling and adding every iteration.

    Each iteration doubles the accumulator, adds the base into a scratch
    register, and conditionally swaps the two under ``k_i``. Complete
    formulas keep the leading-zero iterations (accumulator still neutral)
    on the same code path as the rest.
    """
    _check_scalar(k, curve)
    if not point_on_curve(point, curve):
        raise DomainError("base point is not on the curve")
    if recorder is None:
        if point.is_neutral:
            return point
        return fast_multiply(k.value, point.to_affine(), curve)
    P = point.triple()

    from . import swap_impls

    if swap_impl is None:
        swap_impl = swap_impls.SwapVariant(swap_impls.SwapKind.PLAIN)
    combined = swap_impl.kind is swap_impls.SwapKind.COMBINED
    red = curve.field.reducer()
    p, a = curve.p, curve.a
    b3 = 3 * curve.b % p
    wc = curve.word_count
    rng = swap_impl.rng
    # A random neutral representative keeps the first iterations' register
    # images in the same distribution as the rest.
    R = (0, rng.randrange(1, p), 0)
    for i in range(k.bit_length - 1, -1, -1):
        R = _dbl_body(R, a, b3, red, p, recorder)
        T = _add_body(R, P, a, b3, red, p, recorder)
        if combined:
            R = _rerandomize_triple(R, rng.randrange(1, p), red, recorder)
            T = _rerandomize_triple(T, rng.randrange(1, p), red, recorder)
        swapped = swap_impls.ct_swap(
            swap_impl, swap_impls.WordArrayPair(R, T, wc), k.bit(i), recorder
        )
        R, T = swapped.a, swapped.b
    return ProjectivePoint(*R, curve.field)


MULTIPLIERS = ("ladder", "daa")


def traced_multiply(
    multiplier: str,
    k: Scalar,
    base: ProjectivePoint,
    curve: CurveParams,
    swap_impl=None,
    recorder: EventRecorder | None = None,
) -> ProjectivePoint:
    """k * base by the multiplier named in ``MULTIPLIERS``.

    The ladder reads only the affine base; double-and-add runs on the
    projective representative given, on which its events depend.
    """
    if multiplier == "ladder":
        if base.is_neutral:
            raise DomainError("the ladder needs an affine base point, not the neutral element")
        return montgomery_ladder(k, base.to_affine(), curve, swap_impl, recorder)
    if multiplier == "daa":
        return double_and_always_add(k, base, curve, swap_impl, recorder)
    raise DomainError(f"unknown multiplier {multiplier!r}; choose from {MULTIPLIERS}")


def reference_multiply(k: int, point: ProjectivePoint, curve: CurveParams) -> ProjectivePoint:
    """Naive branching double-and-add on the complete projective formulas,
    used as a cross-check of the multipliers and the untraced core, with
    which it shares no code. Accepts k = 0."""
    if not isinstance(k, int) or k < 0:
        raise DomainError(f"reference scalar must be a non-negative int, got {k!r}")
    if not point_on_curve(point, curve):
        raise DomainError("base point is not on the curve")
    p = curve.p
    red = curve.field.reducer()
    a = curve.a if curve.a <= p // 2 else curve.a - p  # -3 stays a small int
    b3 = 3 * curve.b % p
    X2, Y2, Z2 = point.triple()
    X1, Y1, Z1 = 0, 1, 0
    for i in range(k.bit_length() - 1, -1, -1):
        # Same field operations as _dbl_body / _add_body, sums left lazy.
        t0 = red(X1 * X1)
        t1 = red(Y1 * Y1)
        t2 = red(Z1 * Z1)
        t3 = red(2 * X1 * Y1)
        Z3 = red(2 * X1 * Z1)
        Y3 = a * Z3 + red(b3 * t2)
        X3 = t1 - Y3
        Y3 = red((t1 + Y3) * X3)
        X3 = red(t3 * X3)
        Z3 = red(b3 * Z3)
        t2 = a * t2
        t3 = red(a * (t0 - t2)) + Z3
        t0 = red((3 * t0 + t2) * t3)
        t2 = red(2 * Y1 * Z1)
        X1 = red(X3 - t2 * t3)
        Y1 = red(Y3 + t0)
        Z1 = red(4 * t2 * t1)
        if (k >> i) & 1:
            t0 = red(X1 * X2)
            t1 = red(Y1 * Y2)
            t2 = red(Z1 * Z2)
            t3 = red((X1 + Y1) * (X2 + Y2)) - t0 - t1
            t4 = red((X1 + Z1) * (X2 + Z2)) - t0 - t2
            t5 = red((Y1 + Z1) * (Y2 + Z2)) - t1 - t2
            Z3 = a * t4 + red(b3 * t2)
            X3 = t1 - Z3
            Z3 = t1 + Z3
            t1 = 3 * t0 + a * t2
            t4 = red(b3 * t4) + red(a * (t0 - a * t2))
            X1 = red(t3 * X3 - t5 * t4)
            Y1 = red(X3 * Z3 + t1 * t4)
            Z1 = red(t5 * Z3 + t3 * t1)
    return ProjectivePoint(X1, Y1, Z1, curve.field)


# ---------------------------------------------------------------------------
# Curve registry.

def _build_curves() -> dict[str, CurveParams]:
    p521 = (1 << 521) - 1
    secp521r1 = CurveParams(
        name="secp521r1",
        p=p521,
        a=p521 - 3,
        b=0x0051953EB9618E1C9A1F929A21A0B68540EEA2DA725B99B315F3B8B489918EF109E156193951EC7E937B1652C0BD3BB1BF073573DF883D2C34F1EF451FD46B503F00,
        gx=0x00C6858E06B70404E9CD9E3ECB662395B4429C648139053FB521F828AF606B4D3DBAA14B5E77EFE75928FE1DC127A2FFA8DE3348B3C1856A429BF97E7E31C2E5BD66,
        gy=0x011839296A789A3BC0045C8A5FB42C7D1BD998F54449579B446817AFBD17273E662C97EE72995EF42640C550B9013FAD0761353C7086A272C24088BE94769FD16650,
        n=0x01fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffa51868783bf2f966b7fcc0148f709a5d03bb5c9b8899c47aebb6fb71e91386409,
        word_count=9,
    )
    p128 = 0xFFFFFFFDFFFFFFFFFFFFFFFFFFFFFFFF
    secp128r1 = CurveParams(
        name="secp128r1",
        p=p128,
        a=p128 - 3,
        b=0xE87579C11079F43DD824993C2CEE5ED3,
        gx=0x161FF7528B899B2D0C28607CA52C5B86,
        gy=0xCF5AC8395BAFEB13C02DA292DDED7A83,
        n=0xFFFFFFFE0000000075A30D1B9038A115,
        word_count=2,
    )
    # Weierstrass form of the curve underlying Ed25519/X25519; n is the
    # prime subgroup order (cofactor 8 curve, but G generates the odd
    # subgroup and every scalar multiple stays inside it). Its four-word
    # coordinates exercise the narrow-register swap geometry.
    p255 = (1 << 255) - 19
    wei25519 = CurveParams(
        name="wei25519",
        p=p255,
        a=0x2AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA984914A144,
        b=0x7B425ED097B425ED097B425ED097B425ED097B425ED097B4260B5E9C7710C864,
        gx=0x2AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAD245A,
        gy=0x20AE19A1B8A086B4E01EDD2C7748D14C923D4D7E6D7C61B229E9C5A27ECED3D9,
        n=(1 << 252) + 27742317777372353535851937790883648493,
        word_count=4,
    )
    # Small enough for exhaustive scalar sweeps; n is prime and slightly
    # above p (17 bits), so full-width nonces exercise a 17-iteration loop.
    toy16 = CurveParams(
        name="toy16",
        p=65521,
        a=65518,
        b=3,
        gx=2,
        gy=12017,
        n=65563,
        word_count=1,
    )
    return {c.name: c for c in (secp521r1, secp128r1, wei25519, toy16)}


_BUILTIN_CACHE: dict[str, CurveParams] = {}

def builtin_curves() -> dict[str, CurveParams]:
    """The built-in curve registry (constructed and validated on first use)."""
    if not _BUILTIN_CACHE:
        _BUILTIN_CACHE.update(_build_curves())
    return _BUILTIN_CACHE


def get_curve(name: str) -> CurveParams:
    """Look up a built-in curve by name."""
    try:
        return builtin_curves()[name]
    except KeyError:
        raise ConfigError(
            f"unknown curve {name!r}; built-ins: {sorted(builtin_curves())}"
        ) from None
