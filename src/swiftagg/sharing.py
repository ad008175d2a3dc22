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
from itertools import repeat
from typing import Sequence

from .errors import (
    ArityMismatchError,
    LengthMismatchError,
    MixedFieldError,
    ZeroEvaluationPointError,
)
from .field import FieldSpec, ModelVector, _horner


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
    """
    p = field.p
    bits = p.bit_length()
    draw = rng.getrandbits
    out = []
    for _ in range(count):
        values = tuple(map(draw, repeat(bits, length)))
        if max(values) >= p:
            kept = [v for v in values if v < p]
            while len(kept) < length:
                v = draw(bits)
                if v < p:
                    kept.append(v)
            values = tuple(kept)
        out.append(ModelVector._raw(field, values))
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
        field = coeffs[0].field
        length = len(coeffs[0])
        for c in coeffs[1:]:
            if c.field.p != field.p:
                raise MixedFieldError("coefficient vectors lie in different fields")
            if len(c) != length:
                raise LengthMismatchError("coefficient vectors differ in length")
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
    for z in noise:
        if z.field.p != model.field.p or len(z) != len(model):
            raise ArityMismatchError("noise vectors must match the model's field and length")
    return SharePolynomial((model,) + noise)


def share_for(poly: SharePolynomial, point) -> ModelVector:
    """Evaluate ``poly`` at a nonzero point; the share sent to that point's owner."""
    alpha = point % poly.coeffs[0].field.p
    if alpha == 0:
        raise ZeroEvaluationPointError("share point must be nonzero")
    return poly.eval(alpha)
