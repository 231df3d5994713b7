"""Exception classes shared by every simulator module. Each concrete class
derives from ConfigError (CLI exit 2) or ComputationError (CLI exit 3)."""


class CpiSimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(CpiSimError):
    """A rule on the config failed: its text, a value, or the geometry."""


class ComputationError(CpiSimError):
    """A computation on a valid config failed."""


class InvalidGeometry(ConfigError):
    """Geometry parameters are unphysical (non-positive lengths, no real image...)."""


class UnderResolved(ComputationError):
    """A quadrature or kernel grid is too coarse to sample its phase safely.

    Raised whenever the phase of an oscillatory integrand would advance by
    more than pi/2 between adjacent samples, instead of silently aliasing.
    """


class EmptyOverlap(ComputationError):
    """The refocusing remap leaves too little of the requested grid inside
    the acquired coordinate range."""


class OutOfRange(ComputationError):
    """A requested coordinate lies outside the sampled axis."""


class MissingFeatureScale(ComputationError):
    """A resolution formula needs a feature scale (object detail size or
    source diameter) that was never declared."""


class DegenerateStatistics(ComputationError):
    """A Monte Carlo estimate collapsed (e.g. a mean detected intensity of
    exactly zero), so the covariance estimator is meaningless."""


class ResourceLimit(ComputationError):
    """A resolved run would hold more array memory than the working-set
    limit; raised before any of it is allocated."""


class ParseError(ConfigError):
    """Config text is syntactically malformed; carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(ConfigError):
    """Config parsed but is semantically invalid; aggregates field-addressed
    diagnostics."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
