"""Per-user seeding, masking polynomials and Shamir-style vector shares.

Each user hides its model as the constant term of a polynomial whose higher
coefficients are uniform noise vectors; peers only ever see evaluations at
nonzero points.  Every user draws its noise (``field.sample_noise``, exact
rejection sampling) from a generator of its own, seeded from the run seed,
so shares are exactly uniform (the privacy oracle counts on this) and runs
are reproducible.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence

from .errors import ArityMismatchError, ZeroEvaluationPointError
from .field import ModelVector, _coherent, _horner


def derive_subseed(seed: int, label) -> int:
    """Stable 64-bit subseed for (run seed, label) pairs."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def user_rng(seed: int, user_id: int) -> random.Random:
    """Per-user generator so one user's noise never depends on another's."""
    return random.Random(derive_subseed(seed, f"user-{user_id}"))


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
