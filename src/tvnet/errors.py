"""Exception types shared across the package."""


class TvnetError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(TvnetError, ValueError):
    """Malformed, non-finite, or inconsistently shaped inputs."""


class DegenerateProblemError(TvnetError):
    """An optimization problem with no usable curvature on an active coordinate."""


class DegenerateWindowError(TvnetError):
    """A kernel window whose weights are all zero after truncation."""


class DegenerateInitializationError(TvnetError):
    """Initialization from structures that carry no signal (all zero)."""


class DegenerateNormalizationError(TvnetError):
    """A matrix whose off-diagonal pattern is constant and cannot be normalized."""


class SingularSystemError(TvnetError):
    """A linear system (active-set Gram) that cannot be solved."""
