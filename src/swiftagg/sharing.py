"""Masking polynomials and Shamir-style vector shares.

Each user hides its model as the constant term of a polynomial whose higher
coefficients are uniform noise vectors; peers only ever see evaluations at
nonzero points.  Noise is drawn by rejection sampling from a seeded PRNG so
that shares are exactly uniform (the privacy oracle counts on this) and runs
are reproducible.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence

from .errors import ArityMismatchError, ZeroEvaluationPointError
from .field import FieldSpec, ModelVector, _barrett, _coherent, _horner, _spread_words, _unpack


def derive_subseed(seed: int, label) -> int:
    """Stable 64-bit subseed for (run seed, label) pairs."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def user_rng(seed: int, user_id: int) -> random.Random:
    """Per-user generator so one user's noise never depends on another's."""
    return random.Random(derive_subseed(seed, f"user-{user_id}"))


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
        out.append(ModelVector._raw(field, kept))
    return tuple(out)


class SharePolynomial:
    """Coefficients [model, noise_1, ..., noise_T]; evaluates exactly.

    Coefficient coherence (one field, one length) is checked once here, so
    evaluation runs the field module's Horner kernel directly on the packed
    coefficients; shares are the hot path of every simulated run and of the
    exhaustive privacy enumeration.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[ModelVector]):
        coeffs = tuple(coeffs)
        if len(coeffs) < 1:
            raise ValueError("polynomial needs at least the constant term")
        _coherent(coeffs)
        self.coeffs = coeffs

    def eval(self, x) -> ModelVector:
        return _horner(self.coeffs, x)


def build_polynomial(model: ModelVector, noise, collusion_bound: int) -> SharePolynomial:
    """Mask ``model`` with exactly ``collusion_bound`` noise vectors.

    The constant term is the model itself, so evaluating at 0 returns it;
    shares are therefore only ever taken at nonzero points.
    """
    noise = tuple(noise)
    if len(noise) != collusion_bound:
        raise ArityMismatchError(
            f"expected {collusion_bound} noise vectors, got {len(noise)}"
        )
    return SharePolynomial((model,) + noise)


def share_for(poly: SharePolynomial, point) -> ModelVector:
    """Evaluate ``poly`` at a nonzero point; the share sent to that point's owner."""
    alpha = point % poly.coeffs[0].field.p
    if alpha == 0:
        raise ZeroEvaluationPointError("share point must be nonzero")
    return poly.eval(alpha)
