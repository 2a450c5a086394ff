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
    from . import (
        analysis,
        construction,
        document,
        errors,
        geometry,
        model,
        modelfile,
        symbolic,
        verification,
    )
    gc.freeze()
finally:
    if _collecting:
        gc.enable()
    del _collecting

__version__ = document.VERSION
