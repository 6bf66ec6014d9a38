"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or non-finite input data."""


class DimensionMismatchError(InputError):
    """Operands whose shapes cannot be combined."""


class DegenerateExperimentError(InputError):
    """An experiment without the structure an operation requires
    (e.g. an uninformative kernel where likelihood ratios are needed)."""


class BoundaryMarginalCostError(ValueError):
    """A marginal-cost vector was requested at a boundary belief for a
    cost whose slope blows up there; such beliefs are never optimal for
    the agent, so no finite marginal-cost vector exists."""


class NotImplementableError(ValueError):
    """Contract synthesis was requested for a target that the
    contractible experiment cannot implement.  Carries the failed
    feasibility report in ``.report``."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class SolverFailureError(RuntimeError):
    """A solver (HiGHS or the nonnegative least-squares iteration) stopped
    without a trustworthy answer."""
