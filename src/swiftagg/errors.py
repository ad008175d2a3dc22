"""Exception types shared across the package."""


class SwiftAggError(Exception):
    """Base class for all errors raised by this package."""


class MixedFieldError(SwiftAggError):
    """Operands belong to prime fields with different moduli."""


class LengthMismatchError(SwiftAggError):
    """Vector operands have different lengths."""


class InsufficientPointsError(SwiftAggError):
    """Fewer interpolation points than the degree bound requires."""


class DuplicateAbscissaError(SwiftAggError):
    """Two interpolation points share the same x coordinate."""


class ConsistencyError(SwiftAggError):
    """Surplus interpolation points disagree with the fitted polynomial."""


class ArityMismatchError(SwiftAggError):
    """Noise set size does not match the collusion bound."""


class ZeroEvaluationPointError(SwiftAggError):
    """Evaluating a share at x = 0 would hand out the secret itself."""


class IndivisibleNError(SwiftAggError):
    """User count is not a multiple of the group size."""


class TooManyDropoutsError(SwiftAggError):
    """Recovery impossible: the server holds fewer uploads than needed."""


class TooLargeError(SwiftAggError):
    """Exhaustive enumeration would exceed the size guard."""


class ConfigError(SwiftAggError):
    """Invalid run configuration; the message names the offending field."""
