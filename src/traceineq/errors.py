"""Exception taxonomy for the verification library.

Every failure mode that callers are expected to branch on gets its own
class; plain ValueError is reserved for programming errors.
"""


class TraceIneqError(Exception):
    """Base class for all library errors."""


class NotHermitian(TraceIneqError):
    """Input asymmetry exceeds the hermitization tolerance."""


class NonPositiveEigenvalue(TraceIneqError):
    """Spectrum touches or crosses the positivity floor."""


class InvalidRange(TraceIneqError):
    """Malformed eigenvalue range (non-positive or inverted)."""


class DimensionMismatch(TraceIneqError):
    """Operands have incompatible or non-square shapes."""


class StepTooLarge(TraceIneqError):
    """Finite-difference step would leave the positive-definite cone."""


class DimensionCap(TraceIneqError):
    """Tensor-product dimension exceeds the configured ceiling."""


class NonFinite(TraceIneqError):
    """A matrix entry or a trace is NaN or inf."""


class ImaginaryResidue(TraceIneqError):
    """A nominally real trace came back with too much imaginary part."""


class ConfigError(TraceIneqError):
    """Bad key or value in a campaign configuration."""


class UnknownCheck(TraceIneqError):
    """Check id not present in the registry."""
