"""Difference flatness analysis for discrete-time nonlinear systems.

The package decides whether a system x+ = f(x, u) is difference flat
around a declared equilibrium by computing a unique sequence of
projectable involutive distributions, and on a FLAT verdict constructs
a flat output, an implicit triangular normal form, and a difference
parametrization of all trajectories, verified symbolically and
numerically.  Models are plain text files; the ``flatcheck`` command
line exposes the same pipeline.
"""

import gc

# Importing sympy builds a large, long-lived heap of cyclic objects.  The
# collector stays off while the import builds it, and gc.freeze() moves it
# to the permanent generation, so no later collection, including those at
# interpreter exit, scans it again.  The caller's on/off state comes back
# even when an import fails.
_collecting = gc.isenabled()
gc.disable()
try:
    from .analysis import FlatnessReport, SequenceStep, classify, run_algorithm1
    from .construction import (
        DecompositionTrace,
        FlatOutput,
        ImplicitTriangularForm,
        StateTransformation,
        TriangularBlock,
        extract_flat_output,
        parametrize_from_triangular,
        polynomial_invariants,
        straighten_distribution_chain,
        to_implicit_triangular,
    )
    from .document import VERSION, AnalysisDocument, new_document, render_json
    from .errors import (
        ChartError,
        ConstantDimensionError,
        FlatcheckError,
        ImplicitSolveError,
        InconsistentSystemError,
        IrrationalSolutionError,
        ModelSemanticsError,
        ModelSyntaxError,
        NotProjectableError,
        RedundantInputsError,
        SimulationError,
        StraighteningError,
        UnsupportedEquationError,
        ValidationError,
    )
    from .geometry import (
        Chart,
        Distribution,
        VectorField,
        build_adapted_chart,
        largest_projectable_subdistribution,
        lift_distribution,
        make_distribution,
        pushforward_distribution,
    )
    from .model import (
        DiscreteTimeSystem,
        InputReduction,
        ValidationReport,
        eliminate_redundant_inputs,
        validate_system,
    )
    from .modelfile import load_model, parse_expression, parse_model
    from .verification import (
        FlatParametrization,
        NumericVerification,
        SymbolicVerification,
        Trajectory,
        check_parametrization,
        shift_function,
        simulate,
        verify_flat_output_numeric,
        verify_flat_output_symbolic,
    )
    gc.freeze()
finally:
    if _collecting:
        gc.enable()
    del _collecting

__version__ = VERSION

__all__ = [
    "AnalysisDocument",
    "Chart",
    "ChartError",
    "ConstantDimensionError",
    "DecompositionTrace",
    "DiscreteTimeSystem",
    "Distribution",
    "FlatOutput",
    "FlatParametrization",
    "FlatcheckError",
    "FlatnessReport",
    "ImplicitSolveError",
    "ImplicitTriangularForm",
    "InconsistentSystemError",
    "InputReduction",
    "IrrationalSolutionError",
    "ModelSemanticsError",
    "ModelSyntaxError",
    "NotProjectableError",
    "NumericVerification",
    "RedundantInputsError",
    "SequenceStep",
    "SimulationError",
    "StateTransformation",
    "StraighteningError",
    "SymbolicVerification",
    "Trajectory",
    "TriangularBlock",
    "UnsupportedEquationError",
    "ValidationError",
    "ValidationReport",
    "VectorField",
    "VERSION",
    "check_parametrization",
    "classify",
    "build_adapted_chart",
    "eliminate_redundant_inputs",
    "extract_flat_output",
    "largest_projectable_subdistribution",
    "lift_distribution",
    "load_model",
    "make_distribution",
    "new_document",
    "parametrize_from_triangular",
    "parse_expression",
    "parse_model",
    "polynomial_invariants",
    "pushforward_distribution",
    "render_json",
    "run_algorithm1",
    "shift_function",
    "simulate",
    "straighten_distribution_chain",
    "to_implicit_triangular",
    "validate_system",
    "verify_flat_output_numeric",
    "verify_flat_output_symbolic",
    "__version__",
]
