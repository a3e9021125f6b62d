"""Exception types shared across the package."""


class RegimeError(Exception):
    """Base class for every error raised by this package."""


# generator matrices
class NegativeOffDiagonal(RegimeError):
    """An off-diagonal rate is negative."""


class RowSumNonzero(RegimeError):
    """A generator row does not sum to zero (non-conservative)."""


class Reducible(RegimeError):
    """The positivity pattern of the generator is not strongly connected."""


class SingularSolve(RegimeError):
    """A linear solve against the generator failed or did not validate."""


# rate bounding / coarsening
class UnboundedRate(RegimeError):
    """A scanned rate exceeded the configured cap or returned non-finite values."""


class EmptyGrid(RegimeError):
    """A scan grid is empty, degenerate, or missing where one is required."""


class ScanNotStabilized(RegimeError):
    """Grid refinement moved a scanned bound by more than the stabilization tolerance."""


class EmptyClass(RegimeError):
    """A partition class contains no state; delete the offending cutpoint."""


class UnboundedBeta(RegimeError):
    """A drift-bound sequence is not bounded (no finite supremum)."""


# M-matrix / spectral machinery
class SolverFailure(RegimeError):
    """The feasibility solver failed for a reason other than infeasibility."""


class InconsistentChecks(RegimeError):
    """Equivalent certificate tests disagreed away from the singularity boundary."""


class NoConvergence(RegimeError):
    """Power iteration hit the iteration cap before reaching tolerance."""


# criteria
class NotSolvable(RegimeError):
    """The averaged drift is not negative, so the resolvent system has no use here."""


class ChainNotRecurrent(RegimeError):
    """The switching chain itself is transient; the partition criterion needs recurrence."""


class NonConvergent(RegimeError):
    """A radius schedule failed its stabilization check."""


# simulation
class StepTooLarge(RegimeError):
    """dt times the total switching rate exceeds the per-step thinning bound."""


# model files / CLI
class ParseError(RegimeError):
    """The model file is not valid JSON (or uses non-finite literals)."""


class SchemaError(RegimeError):
    """The model document does not match the schema."""


class CriterionNotApplicable(RegimeError):
    """The requested criterion cannot be evaluated on this model."""
