"""Exception types shared across the package."""


class FlatcheckError(Exception):
    """Base class for all errors raised by this package."""


class ModelSyntaxError(FlatcheckError):
    """Raised by the model-file parser; carries position information."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = "line %d, column %d: %s" % (line, column, message)
        super().__init__(message)


class ModelSemanticsError(FlatcheckError):
    """A syntactically valid model file that violates a structural rule."""


class ValidationError(FlatcheckError):
    """The system fails submersivity, equilibrium, or input-rank checks."""


class RedundantInputsError(ValidationError):
    """rank df/du < m: the inputs must be reduced before the analysis."""


class InconsistentSystemError(FlatcheckError):
    """An equation system contains a provable contradiction."""


class UnsupportedEquationError(FlatcheckError):
    """An expression is not a rational function with rational coefficients."""


class IrrationalSolutionError(UnsupportedEquationError):
    """The solver found solution branches, but none of them is rational.
    unknown is the first unknown whose value in the first branch is not."""

    def __init__(self, unknown):
        self.unknown = unknown
        super().__init__("no solution branch is rational in %s" % unknown)


class ChartError(FlatcheckError):
    """Adapted-chart construction or inversion failed."""


class NotProjectableError(FlatcheckError):
    """A vector field cannot be pushed forward through the system map."""


class ConstantDimensionError(FlatcheckError):
    """A distribution's dimension at the equilibrium differs from the
    generic one, so the local analysis assumptions are violated."""


class StraighteningError(FlatcheckError):
    """No straightening transformation was found within the ansatz degree."""


class ImplicitSolveError(FlatcheckError):
    """A triangular block could not be solved symbolically despite full rank."""


class SimulationError(FlatcheckError):
    """Simulation hit a pole of the dynamics; carries the step index."""

    def __init__(self, message, step=None):
        self.step = step
        super().__init__(message)
