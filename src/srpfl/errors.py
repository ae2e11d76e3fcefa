"""Exception and warning types shared across the package: one error type
per exit code and stderr prefix of the ``srpfl`` command."""


class SrpflError(Exception):
    """Base class for every error raised by this package.  Raised as itself,
    a failure inside a run or a kernel, named by its message; exit code 1."""


class ConfigError(SrpflError):
    """Invalid or unreadable run configuration; exit code 1."""


class NonConvergence(SrpflError):
    """Target accuracy not reached: the round cap was hit, or a trace never
    crosses the requested level; exit code 2."""


class EigenGapDegenerateWarning(UserWarning):
    """Top-k eigengap below tolerance: the returned span is not unique."""
