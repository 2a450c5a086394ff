"""Exception types shared across the package."""


class FlatcheckError(Exception):
    """Base class for all errors raised by this package.

    k is the step of the distribution sequence in which the error was
    raised (analysis.run_algorithm1), None outside the sequence."""

    k = None


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
    """A value is not one that exact rational arithmetic takes (a point
    value that is not a rational number, or a symbol that the float replay
    has no argument for), or no solved branch can be picked at a point:
    none is rational (IrrationalSolutionError), the solver gave up
    (UnsolvedEquationsError), or none passes through the point."""


class IrrationalSolutionError(UnsupportedEquationError):
    """The solver found solution branches, but none of them is rational.
    unknown is the first unknown whose value in the first branch is not."""

    def __init__(self, unknown):
        self.unknown = unknown
        super().__init__("no solution branch is rational in %s" % unknown)


class UnsolvedEquationsError(UnsupportedEquationError):
    """The solver gave up: no equation left has a factor linear in one of
    the unknowns left, and none is univariate in them, so no branch was
    found.  unknowns are the unknowns left, in the caller's order."""

    def __init__(self, unknowns):
        self.unknowns = tuple(unknowns)
        super().__init__(
            "the elimination gave up on %s: no equation left has a factor linear "
            "in one of them, and none is univariate" % ", ".join(map(str, self.unknowns)))


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


class CoercionFailed(Exception):
    """The rational kernel (flatcheck.symbolic) cannot convert a value into
    a field: not a rational function of the field's generators, or a
    division by zero.  The kernel's callers turn it into an error of their
    own."""


class GeneratorsError(Exception):
    """The rational kernel cannot move an element into a field that lacks
    a generator the element uses."""


class HeuristicGCDFailed(Exception):
    """The kernel's heuristic gcd gave up after its evaluation points; the
    kernel then takes the dense gcd instead."""
