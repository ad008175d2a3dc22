"""Exact arithmetic in a prime field, vectors over it, and Lagrange interpolation.

Everything here is plain integer math reduced mod p: no floats, no silent
wraparound, no probabilistic shortcuts.  The rest of the package builds its
sharing and recovery steps on these primitives, so all of them are exact by
construction.

A vector keeps its entries packed as 64-bit lanes of one int together with a
lane bound.  The invariant is: every lane is congruent to its entry mod p,
and every lane is at most ``bound``, which is below 2**64.  Lanes need not be
reduced; kernels add and scale them as they are and reduce only when a lane
could reach 2**64 or when a caller reads the canonical form.  A reduction is
lane-wise for every prime and every bound: it never unpacks the vector.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import (
    ConsistencyError,
    DuplicateAbscissaError,
    InsufficientPointsError,
    LengthMismatchError,
    MixedFieldError,
    ZeroEvaluationPointError,
)

# Moduli stay below 2**32 so that a product of two field elements plus one
# more element fits a 64-bit lane of the vector engine below.
MAX_MODULUS = 1 << 32

# Miller-Rabin with these bases is exact for every n < 4,759,123,141, which
# covers every modulus below MAX_MODULUS.
_MR_BASES = (2, 7, 61)


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 4,759,123,141."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(p: int) -> None:
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    if p >= MAX_MODULUS:
        raise ValueError(f"modulus must be below 2**32, got {p}")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


class FieldSpec:
    """The prime field F_p.  Two specs are interchangeable iff p matches."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        _check_prime(p)
        self.p = p

    def vector(self, values: Iterable[int]) -> "ModelVector":
        return ModelVector(self, values)

    def zeros(self, length: int) -> "ModelVector":
        if length < 1:
            raise ValueError("vector must have length >= 1")
        return ModelVector._packed(self, 0, length, 0)

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.p == other.p

    def __hash__(self):
        return hash(("FieldSpec", self.p))

    def __repr__(self):
        return f"FieldSpec({self.p})"


def _require_same_field(a: FieldSpec, b: FieldSpec) -> None:
    if a.p != b.p:
        raise MixedFieldError(f"operands live in F_{a.p} and F_{b.p}")


class ModelVector:
    """A fixed-length vector over one prime field, kept in packed lanes.

    ``lanes`` holds entry k in bits [64k, 64k + 64); each lane is congruent
    to its entry mod p and at most ``bound`` (< 2**64), but need not be
    reduced.  ``values`` is the tuple of entries in [0, p).  Equality, hash
    and repr depend only on the entries mod p.  A canonical read may replace
    the lanes by their reduction in place, which leaves every entry as it is.
    """

    __slots__ = ("field", "lanes", "length", "bound")

    def __init__(self, field: FieldSpec, values: Iterable[int]):
        vals = tuple(int(v) % field.p for v in values)
        if not vals:
            raise ValueError("vector must have length >= 1")
        self.field = field
        self.lanes = _pack(vals)
        self.length = len(vals)
        self.bound = field.p - 1

    @classmethod
    def _raw(cls, field: FieldSpec, values: Sequence[int]) -> "ModelVector":
        # Fast path for internally produced, already-reduced entries.
        return cls._packed(field, _pack(values), len(values), field.p - 1)

    @classmethod
    def _packed(cls, field: FieldSpec, lanes: int, length: int, bound: int) -> "ModelVector":
        # Kernel output: lanes congruent to the entries, all at most ``bound``.
        vec = object.__new__(cls)
        vec.field = field
        vec.lanes = lanes
        vec.length = length
        vec.bound = bound
        return vec

    def _canonical(self) -> int:
        """The lanes reduced to [0, p), stored back in place."""
        p = self.field.p
        if self.bound >= p:
            self.lanes = _reduce(self.lanes, self.length, p, self.bound)
            self.bound = p - 1
        return self.lanes

    @property
    def values(self) -> tuple:
        return _unpack(self._canonical(), self.length)

    def __len__(self):
        return self.length

    def __add__(self, other: "ModelVector") -> "ModelVector":
        return vec_add(self, other)

    def __eq__(self, other):
        return (
            isinstance(other, ModelVector)
            and self.field.p == other.field.p
            and self.length == other.length
            and self._canonical() == other._canonical()
        )

    def __hash__(self):
        return hash((self.field.p, self.length, self._canonical()))

    def __repr__(self):
        return f"ModelVector({list(self.values)} mod {self.field.p})"


# ---------------------------------------------------------------------------
# Packed-lane vector engine
# ---------------------------------------------------------------------------
#
# A vector of length L is packed into one Python int of L unsigned 64-bit
# lanes, entry k in bits [64k, 64k + 64).  Adding packed ints, or multiplying
# one by a nonnegative scalar, acts lane by lane as long as no lane reaches
# 2**64, so each linear step of a whole vector is one C-level bigint
# operation.  Kernels take packed operands as they are, carry the exact lane
# bound of their result on the vector, and reduce only before a step could
# reach 2**64; because p < 2**32, a reduced operand times a field scalar plus
# another reduced operand always fits, so one reduction is always enough.

_LANE = 1 << 64


@lru_cache(maxsize=64)
def _codec(length: int) -> struct.Struct:
    return struct.Struct(f"<{length}Q")


def _pack(values) -> int:
    """Pack ints in [0, 2**64) into lanes of one int."""
    return int.from_bytes(_codec(len(values)).pack(*values), "little")


def _unpack(packed: int, length: int) -> tuple:
    return _codec(length).unpack(packed.to_bytes(8 * length, "little"))


@lru_cache(maxsize=64)
def _barrett(length: int, p: int) -> tuple:
    """Masks and multipliers that reduce all lanes mod ``p``.

    With ``m = 2**b // p`` and ``v < 2**b``, ``q = v * m >> b`` is
    ``v // p`` or one less, and ``v * m < 2**64`` keeps the product inside
    its lane; ``b`` is the largest width for which that holds (32 to 48).
    The last entry, ``even``, selects the low lane of every 128-bit slot;
    ``_reduce`` uses it to give each lane of a wider bound a slot of its own.
    """
    b = 64
    while ((1 << b) - 1) * ((1 << b) // p) >= _LANE:
        b -= 1
    ones = int.from_bytes(b"\x01\x00\x00\x00\x00\x00\x00\x00" * length, "little")
    low_mask = ones * ((1 << (64 - b)) - 1)
    even = int.from_bytes((b"\xff" * 8 + b"\x00" * 8) * ((length + 1) // 2), "little")
    return b, (1 << b) // p, low_mask, ones * ((1 << 63) - p), ones, even


def _reduce(packed: int, length: int, p: int, bound: int) -> int:
    """Lanes mod ``p`` of packed lanes that are all at most ``bound`` (< 2**64).

    Lanes below ``2**b`` take the lane-wise Barrett step of ``_barrett``.
    Wider lanes are split into their even and odd halves, one lane per
    128-bit slot, and take the same step at width 64: with
    ``m = 2**64 // p`` and ``v < 2**64``, ``v * m < 2**128`` fits its slot
    and ``q = v * m >> 64`` is ``v // p`` or one less, so ``v - q * p`` lies
    in ``[0, 2p)``.  Either step leaves every lane below ``2p``, and one
    conditional subtraction finishes.
    """
    if bound < p:
        return packed
    b, m, low_mask, offset, ones, even = _barrett(length, p)
    if bound >> b:
        m64 = _LANE // p
        lo = packed & even
        hi = packed >> 64 & even
        lo -= ((lo * m64 >> 64) & even) * p
        hi -= ((hi * m64 >> 64) & even) * p
        packed = lo | hi << 64
    elif bound >= 2 * p:
        packed -= ((packed * m >> b) & low_mask) * p
    # Lanes >= p (bit 63 set after adding 2**63 - p) lose p.
    return packed - ((packed + offset) >> 63 & ones) * p


def vec_sum(vectors: Sequence[ModelVector]) -> ModelVector:
    """Field sum of one or more vectors of one field and length.

    The lanes are added as they are; only if the summed bound would reach
    2**64 are the operands reduced first.
    """
    if not vectors:
        raise ValueError("need at least one vector to sum")
    field = vectors[0].field
    length = vectors[0].length
    for v in vectors[1:]:
        _require_same_field(v.field, field)
        if v.length != length:
            raise LengthMismatchError(f"lengths {length} and {v.length}")
    bound = sum([v.bound for v in vectors])
    if bound < _LANE:
        packed = sum([v.lanes for v in vectors])
    else:
        # Fewer than 2**32 operands (all that memory can hold) fit once reduced.
        packed = sum([v._canonical() for v in vectors])
        bound = len(vectors) * (field.p - 1)
    return ModelVector._packed(field, packed, length, bound)


def vec_add(a: ModelVector, b: ModelVector) -> ModelVector:
    _require_same_field(a.field, b.field)
    length = a.length
    if b.length != length:
        raise LengthMismatchError(f"lengths {length} and {b.length}")
    bound = a.bound + b.bound
    if bound < _LANE:
        return ModelVector._packed(a.field, a.lanes + b.lanes, length, bound)
    packed = a._canonical() + b._canonical()
    return ModelVector._packed(a.field, packed, length, 2 * (a.field.p - 1))


def _horner(coeffs: Sequence[ModelVector], x) -> ModelVector:
    """Horner's rule at ``x`` on coherent coefficients, lowest degree first.

    Reads the canonical lanes of each coefficient and returns the
    accumulator unreduced, as a vector carrying its lane bound.
    """
    field = coeffs[0].field
    length = coeffs[0].length
    p = field.p
    top = p - 1
    x %= p
    acc = coeffs[-1]._canonical()
    bound = top
    for c in reversed(coeffs[:-1]):
        if bound * x + top >= _LANE:
            acc = _reduce(acc, length, p, bound)
            bound = top
        acc = acc * x + c._canonical()
        bound = bound * x + top
    return ModelVector._packed(field, acc, length, bound)


def _interpolant_at(points: Sequence[tuple], x: int, field: FieldSpec) -> tuple:
    """Packed lanes and lane bound of the Lagrange interpolant through ``points`` at ``x``."""
    p = field.p
    top = p - 1
    length = points[0][1].length
    acc = bound = 0
    for i, (alpha_i, y_i) in enumerate(points):
        num = 1
        den = 1
        for j, (alpha_j, _) in enumerate(points):
            if i == j:
                continue
            num = num * (x - alpha_j) % p
            den = den * (alpha_i - alpha_j) % p
        w = num * pow(den, -1, p) % p
        lanes, y_bound = y_i.lanes, y_i.bound
        if w * y_bound + top >= _LANE:
            lanes, y_bound = y_i._canonical(), top
        if bound + w * y_bound >= _LANE:
            acc = _reduce(acc, length, p, bound)
            bound = top
        acc += w * lanes
        bound += w * y_bound
    return acc, bound


def lagrange_interpolate_at_zero(points, degree_bound: int) -> ModelVector:
    """Recover P(0) for the degree-<=``degree_bound`` polynomial through ``points``.

    ``points`` is a sequence of (abscissa, ModelVector) pairs; abscissas are
    ints, taken mod p, and must be nonzero and pairwise distinct.
    The interpolant is fitted to the first ``degree_bound + 1`` points; any
    surplus points are checked against it so that disagreeing inputs surface
    as a ConsistencyError instead of being silently ignored.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be >= 0")
    pts = list(points)
    if not pts:
        raise InsufficientPointsError("no points supplied")
    field = pts[0][1].field
    p = field.p
    length = pts[0][1].length
    norm = []
    seen = set()
    for x, y in pts:
        _require_same_field(y.field, field)
        if y.length != length:
            raise LengthMismatchError("point values differ in length")
        alpha = x % p
        if alpha == 0:
            raise ZeroEvaluationPointError("interpolation abscissa must be nonzero")
        if alpha in seen:
            raise DuplicateAbscissaError(f"abscissa {alpha} appears twice")
        seen.add(alpha)
        norm.append((alpha, y))

    need = degree_bound + 1
    if len(norm) < need:
        raise InsufficientPointsError(
            f"need {need} points for degree {degree_bound}, got {len(norm)}"
        )
    base = norm[:need]
    for alpha, y in norm[need:]:
        acc, bound = _interpolant_at(base, alpha, field)
        if _reduce(acc, length, p, bound) != y._canonical():
            raise ConsistencyError(
                f"point at x={alpha} disagrees with the degree-{degree_bound} interpolant"
            )
    acc, bound = _interpolant_at(base, 0, field)
    return ModelVector._packed(field, _reduce(acc, length, p, bound), length, p - 1)
