"""Dropout-resilient secure aggregation over prime fields.

A library and CLI simulator for the SwiftAgg scheme: users secret-share
masked models inside small groups, partial sums travel along sequences of
groups, and the server recovers the exact field sum of the surviving users'
models from a handful of uploads.  Includes deterministic load accounting
and an exhaustive, exact-counting privacy oracle for tiny instances.
"""

from .errors import (
    ArityMismatchError,
    ConfigError,
    ConsistencyError,
    DuplicateAbscissaError,
    IndivisibleNError,
    InsufficientPointsError,
    LengthMismatchError,
    MixedFieldError,
    SwiftAggError,
    TooLargeError,
    TooManyDropoutsError,
    ZeroEvaluationPointError,
)
from .field import (
    FieldSpec,
    ModelVector,
    lagrange_interpolate_at_zero,
    sample_noise,
    vec_add,
    vec_sum,
)
from .privacy_oracle import (
    TinyInstance,
    check_conditional_independence,
    check_noise_chain_independence,
    check_share_hiding,
    enumerate_views,
    run_privacy_suite,
)
from .protocol import (
    AFTER_SHARING,
    BEFORE_SHARING,
    DROPOUT_TIMINGS,
    MID_SEQUENCE,
    AdversaryConfig,
    DropoutPlan,
    GroupPosition,
    MessageLog,
    ProtocolParams,
    assign_groups,
    execute_protocol,
    run_protocol,
)
from .sharing import SharePolynomial, build_polynomial, share_for, user_rng
from .simnet import (
    AdversaryView,
    RunMetrics,
    SimulationResult,
    count_loads,
    simulate,
    table1_analytic,
)

__version__ = "0.1.0"
