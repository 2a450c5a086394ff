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

# The modules' objects live as long as the process: gc.freeze() moves them
# to the permanent generation, so no collection that a command triggers
# scans them again.
gc.freeze()

__version__ = document.VERSION
