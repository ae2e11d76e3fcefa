"""Exception and warning types shared across the package."""


class SrpflError(Exception):
    """Base class for every error raised by this package."""


class RankDeficient(SrpflError):
    """Matrix handed to the thin QR factorization has (numerically) collapsed columns."""


class NonFinite(SrpflError):
    """Thin QR factor has an inf or nan entry; an overflowed step produces one."""


class NotSymmetric(SrpflError):
    """Eigendecomposition input is not symmetric within tolerance."""


class DimensionMismatch(SrpflError):
    """Operands have incompatible shapes."""


class ClientOutOfRange(SrpflError):
    """Client index is not a valid id for the ground-truth model."""


class SingularGram(SrpflError):
    """Projected Gram matrix of a batch is singular; the batch is too small or degenerate."""


class AllZeroMoments(SrpflError):
    """Every label in the warm-start batches was zero; no signal to initialize from."""


class NTooLarge(SrpflError):
    """Requested more participants than there are timed clients."""


class EmptyParticipants(SrpflError):
    """An operation over participants received an empty set."""


class IndexOutOfRange(SrpflError):
    """Order-statistic index j outside 1..n."""


class ZeroGap(SrpflError):
    """Order-statistic gap in a schedule formula is not positive and finite:
    it underflowed to zero, or the times overflowed."""


class TimeOverflow(SrpflError):
    """Simulated wall-clock overflowed to a non-finite value."""


class ConfigError(SrpflError):
    """Invalid or unreadable run configuration."""


class CHatOutOfRange(ConfigError):
    """Accuracy knob must lie strictly between 1 and sqrt(2)."""


class NonConvergence(SrpflError):
    """Round budget exhausted before the target accuracy was reached."""


class TargetNotReached(NonConvergence):
    """A trace never crosses the requested accuracy level."""


class EigenGapDegenerateWarning(UserWarning):
    """Top-k eigengap below tolerance: the returned span is not unique."""
