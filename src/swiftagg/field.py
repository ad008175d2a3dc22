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
This module is the only one that reads or writes that format; uniform
masking noise is drawn straight into it here too.
"""

from __future__ import annotations

import random
import struct
from functools import lru_cache
from numbers import Integral
from operator import index
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


def is_integer(value) -> bool:
    """The package's one integer rule: an ``Integral`` other than ``bool``."""
    return isinstance(value, Integral) and not isinstance(value, bool)


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


class FieldSpec:
    """The prime field F_p.  Two specs are interchangeable iff p matches."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_integer(p):
            raise ValueError(f"modulus must be an integer, got {p!r}")
        self.p = p = index(p)
        if p < 2:
            raise ValueError(f"modulus must be >= 2, got {p}")
        if p >= MAX_MODULUS:
            raise ValueError(f"modulus must be below 2**32, got {p}")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")

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
        p = field.p
        vals = tuple([index(v) % p for v in values])
        if not vals:
            raise ValueError("vector must have length >= 1")
        self.field = field
        self.lanes = _pack(vals)
        self.length = len(vals)
        self.bound = field.p - 1

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


def _spread_words(words: int, length: int) -> int:
    """Lanes holding the ``length`` 32-bit words of ``words``, least significant first.

    One strided copy moves each 4-byte word, byte for byte, into the low
    half of its 8-byte lane; the high halves stay zero.
    """
    source = memoryview(words.to_bytes(4 * length, "little")).cast("I")
    lanes = bytearray(8 * length)
    memoryview(lanes).cast("I")[0::2] = source
    return int.from_bytes(lanes, "little")


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


def uniform_element(field: FieldSpec, rng: random.Random) -> int:
    """Uniform draw from [0, p) by rejection; exact, not modulo-biased."""
    p = field.p
    bits = p.bit_length()
    while True:
        v = rng.getrandbits(bits)
        if v < p:
            return v


def sample_noise(field: FieldSpec, count: int, length: int, rng: random.Random):
    """Draw ``count`` uniform masking vectors of ``length`` entries.

    The draws are exactly those of calling ``uniform_element`` once per
    entry: each vector takes ``length`` draws at once, and if any is
    rejected, the accepted ones keep their stream order and the vector is
    topped up from the stream.

    CPython's ``getrandbits(k)`` for ``k <= 32`` is the next 32-bit
    Mersenne Twister word shifted right by ``32 - k``, and
    ``getrandbits(32 * length)`` is the next ``length`` words, least
    significant first.  So one call draws a vector's words, which are
    spread into 64-bit lanes, shifted and masked there, and tested for
    rejection lane-wise; only a vector with a rejected entry is unpacked.
    """
    if length < 1:
        raise ValueError("vector must have length >= 1")
    p = field.p
    bits = p.bit_length()
    offset, ones = _barrett(length, p)[3:5]
    shift = 32 - bits
    mask = ones * ((1 << bits) - 1)
    out = []
    for _ in range(count):
        lanes = _spread_words(rng.getrandbits(32 * length), length) >> shift & mask
        # A lane >= p sets bit 63 once 2**63 - p is added.
        if not (lanes + offset) >> 63 & ones:
            out.append(ModelVector._packed(field, lanes, length, p - 1))
            continue
        kept = [v for v in _unpack(lanes, length) if v < p]
        kept += [uniform_element(field, rng) for _ in range(length - len(kept))]
        out.append(ModelVector._packed(field, _pack(kept), length, p - 1))
    return tuple(out)


def _join(vectors: Sequence[ModelVector], copies: int = 1) -> ModelVector:
    """The vectors' entries end to end, the whole run repeated ``copies`` times.

    All vectors share one field; the result carries their largest lane bound.
    """
    raw = b"".join([v.lanes.to_bytes(8 * v.length, "little") for v in vectors]) * copies
    field, bound = vectors[0].field, max([v.bound for v in vectors])
    return ModelVector._packed(field, int.from_bytes(raw, "little"), len(raw) // 8, bound)


def _stretch(field: FieldSpec, values: Sequence[int], copies: int) -> ModelVector:
    """Each of ``values``, all in [0, p), repeated ``copies`` times in a row."""
    runs = {v: v.to_bytes(8, "little") * copies for v in set(values)}
    raw = b"".join([runs[v] for v in values])
    return ModelVector._packed(field, int.from_bytes(raw, "little"), len(raw) // 8, field.p - 1)


def _columns(field: FieldSpec, vectors: Sequence[ModelVector], length: int) -> tuple:
    """One int key per coordinate of ``length``-entry vectors over ``field``.

    With ``bits = (p - 1).bit_length()`` and ``per = 64 // bits``, entry
    ``k`` of vector ``m`` fills ``bits`` bits from bit ``bits * (m % per)``
    of word ``m // per`` of key ``k``, and the words combine as
    ``w0 | w1 << 64 | ...``.  Each word is its vectors' canonical lanes
    shifted and added (entries below ``2**bits`` never carry into the next
    lane), unpacked once.  ``_column_entries`` reads a key back.
    """
    bits = (field.p - 1).bit_length()
    per = 64 // bits
    keys = (0,) * length
    for word, start in enumerate(range(0, len(vectors), per)):
        block = enumerate(vectors[start : start + per])
        lanes = _unpack(sum(v._canonical() << bits * i for i, v in block), length)
        keys = tuple(k | x << 64 * word for k, x in zip(keys, lanes)) if word else lanes
    return keys


def _column_entries(key: int, p: int, slots: int) -> tuple:
    """The ``slots`` entries that ``_columns`` packed into ``key``, in vector order."""
    bits = (p - 1).bit_length()
    per = 64 // bits
    mask = (1 << bits) - 1
    return tuple(key >> 64 * (m // per) + bits * (m % per) & mask for m in range(slots))


def _coherent(vectors: Sequence[ModelVector]) -> None:
    """Raise unless every vector has the first one's field and length."""
    p = vectors[0].field.p
    length = vectors[0].length
    for v in vectors[1:]:
        if v.field.p != p:
            raise MixedFieldError(f"operands live in F_{p} and F_{v.field.p}")
        if v.length != length:
            raise LengthMismatchError(f"lengths {length} and {v.length}")


def vec_sum(vectors: Sequence[ModelVector]) -> ModelVector:
    """Field sum of one or more vectors of one field and length.

    The lanes are added as they are; only if the summed bound would reach
    2**64 are the operands reduced first.
    """
    if not vectors:
        raise ValueError("need at least one vector to sum")
    _coherent(vectors)
    field = vectors[0].field
    bound = sum([v.bound for v in vectors])
    if bound < _LANE:
        packed = sum([v.lanes for v in vectors])
    else:
        # Fewer than 2**32 operands (all that memory can hold) fit once reduced.
        packed = sum([v._canonical() for v in vectors])
        bound = len(vectors) * (field.p - 1)
    return ModelVector._packed(field, packed, vectors[0].length, bound)


def vec_add(a: ModelVector, b: ModelVector) -> ModelVector:
    return vec_sum((a, b))


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
    _coherent([y for _, y in pts])
    field = pts[0][1].field
    p = field.p
    length = pts[0][1].length
    norm = []
    seen = set()
    for x, y in pts:
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
