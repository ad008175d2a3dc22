"""Helpers shared by the test modules: parameters, random models, field sums.

``pyproject.toml`` ignores the t = 1 ``CollusionBoundWarning`` for the whole
suite, so ``make_params`` builds any parameters quietly.
"""

import random

from swiftagg.field import FieldSpec, vec_add
from swiftagg.protocol import ProtocolParams


def make_params(n, t, d, length=1, p=101):
    return ProtocolParams(n, t, d, length, FieldSpec(p))


def random_models(params, rng):
    """``params.n`` uniform models drawn from ``rng``, a ``random.Random`` or its seed."""
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    return [
        params.field.vector([rng.randrange(params.field.p) for _ in range(params.model_len)])
        for _ in range(params.n)
    ]


def field_sum(field, vectors, length=None):
    """Sum of ``vectors`` by repeated ``vec_add``; ``length`` sizes an empty sum."""
    total = field.zeros(len(vectors[0].values) if length is None else length)
    for v in vectors:
        total = vec_add(total, v)
    return total
