"""Exception types shared across the package.

Three broad families, matching how the command line maps failures to exit
codes: malformed or invalid input, estimates that cannot be produced from
the data at hand, and numeric breakdowns inside an otherwise valid request.
"""


class EstimationError(Exception):
    """Base class for every package-specific error."""


class SchemaError(EstimationError):
    """A table could not be parsed: missing column, bad value, wrong type."""

    def __init__(self, message, *, line=None, field=None):
        detail = message
        if field is not None:
            detail += f" [field '{field}']"
        if line is not None:
            detail += f" [line {line}]"
        super().__init__(detail)
        self.line = line
        self.field = field


class ValidationError(EstimationError):
    """Input parsed fine but violates a domain invariant."""


class AlignmentError(ValidationError):
    """Two series that must share an index set do not."""


class NotEstimableError(EstimationError):
    """The requested estimate cannot be produced from the data provided."""


class InsufficientDataError(NotEstimableError):
    """Too few observations, bins or points for the operation."""


class RankDeficiencyError(InsufficientDataError):
    """Regression design matrix does not have full column rank."""


class UncoverableHierarchyError(NotEstimableError):
    """A hierarchy with unequipped links has no equipped observation at all."""

    def __init__(self, hierarchy):
        super().__init__(
            f"hierarchy {hierarchy} has non-equipped links but no equipped observation"
        )
        self.hierarchy = hierarchy


class InsufficientNeighborsError(NotEstimableError):
    """Fewer known sites within the interpolation range than required."""

    def __init__(self, found, required):
        super().__init__(f"only {found} known site(s) within range, {required} required")
        self.found = found
        self.required = required


class EmptyVariogramError(NotEstimableError):
    """No usable site pair: every pair unreachable or outside the lag bins."""


class IncompleteFieldError(NotEstimableError):
    """Imputed field covers too little network length for a network mean."""

    def __init__(self, coverage, threshold):
        super().__init__(
            f"field covers {coverage:.1%} of network length, "
            f"below the required {threshold:.1%}"
        )
        self.coverage = coverage
        self.threshold = threshold


class DegenerateTestError(NotEstimableError):
    """Test statistic undefined, for example zero variance of differences."""


class NumericError(EstimationError):
    """A computation failed numerically on otherwise valid input."""


class SingularSystemError(NumericError):
    """Linear system could not be solved."""

    def __init__(self, condition=None):
        detail = "kriging system is singular"
        if condition is not None:
            detail += f" (condition number {condition:.3e})"
        super().__init__(detail)
        self.condition = condition


class FitConvergenceError(NumericError):
    """Model fitting failed to converge from any starting point."""


class GenerationError(NumericError):
    """Synthetic field generation failed, typically a non-PD covariance."""
