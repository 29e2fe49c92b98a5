"""Micro-op event stream shared by the arithmetic and swap layers.

The leakage simulator does not model voltages directly; it consumes an
EventRecorder, whose columns say what the device did and how many bits
toggled while doing it; no per-event object is ever built. Field
operations and swap word operations both record into the same recorder,
mostly a whole step body or swap burst per append, so that a full scalar
multiplication serializes to one ordered event stream.
"""

from __future__ import annotations

from enum import Enum, unique

WORD_BITS = 64


@unique
class OpKind(Enum):
    """What a single recorded micro-operation was."""

    MASK_COMPUTE = "mask_compute"
    INV_MASK_COMPUTE = "inv_mask_compute"
    DELTA_COMPUTE = "delta_compute"
    STORE_A = "store_a"
    STORE_B = "store_b"
    FIELD_MUL = "field_mul"
    FIELD_SQUARE = "field_square"
    FIELD_ADD_SUB = "field_add_sub"
    RERANDOMIZE = "rerandomize"

    def __init__(self, value: str) -> None:
        # Column id in an EventRecorder (the definition order), read on every
        # emit: a plain attribute, because Enum.__hash__ runs in Python.
        self.code = len(type(self).__members__)


KIND_BY_CODE: tuple[OpKind, ...] = tuple(OpKind)


# Word-level ops handle one 64-bit machine word, so their leak value (a
# Hamming weight or distance) can never exceed WORD_BITS.
WORD_OP_KINDS = frozenset(
    {
        OpKind.MASK_COMPUTE,
        OpKind.INV_MASK_COMPUTE,
        OpKind.DELTA_COMPUTE,
        OpKind.STORE_A,
        OpKind.STORE_B,
    }
)


class EventRecorder:
    """Append-only event stream kept as three parallel columns.

    ``kinds`` holds each event's ``OpKind.code``, ``leaks`` its leak value
    (a Hamming weight or distance of whatever the operation touched) and
    ``conds`` its swap condition, -1 for plain arithmetic (the encoding
    ``MarkerTable`` uses too); an event's time index is its position. The
    conditions exist so simulated traces can be labeled; a classifier must
    never read them. ``emit`` and ``extend`` build no object and check
    nothing, since ``synthesize`` validates the columns once. The traced
    arithmetic bodies append to the three lists directly, a constant kinds
    and conds tuple per call.
    """

    __slots__ = ("kinds", "leaks", "conds")

    def __init__(self) -> None:
        self.kinds: list[int] = []
        self.leaks: list[int] = []
        self.conds: list[int] = []

    def emit(self, kind: OpKind, leak_value: int, cond: int = -1) -> None:
        self.kinds.append(kind.code)
        self.leaks.append(leak_value)
        self.conds.append(cond)

    def extend(self, kinds: tuple[int, ...], leaks: list[int], cond: int) -> None:
        """Append events sharing one condition; ``kinds`` holds codes."""
        self.kinds += kinds
        self.leaks += leaks
        self.conds += [cond] * len(leaks)

    def __len__(self) -> int:
        return len(self.kinds)
