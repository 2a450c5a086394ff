"""Deterministic JSON rendering of a run's records.

render_json writes one run as a stable JSON string: the model identity,
the distribution-sequence record, and whichever construction and
verification artifacts the run produced.  Dictionaries are built in
schema order and field elements are printed in the canonical infix of
the model grammar, so the bytes depend only on the model, the flags,
and the seed.
"""

from __future__ import annotations

import json

from . import symbolic

VERSION = "0.1.0"


def _infix_row(components) -> list:
    return [symbolic.to_infix(c) for c in components]


def _step_dict(step) -> dict:
    return {
        "k": step.k, "dim_delta": step.delta.dim, "dim_E": step.E.dim,
        "dim_D": step.D.dim, "rho": step.rho, "mu": step.mu,
        "delta_basis": [_infix_row(row) for row in step.delta.rows],
        "D_basis": [_infix_row(row) for row in step.D.rows],
    }


def render_json(system, report, *, flat_output=None, form=None, p=None,
                symbolic_status=None, numeric=None) -> str:
    """The document of a run on the loaded system with analysis report.

    flat_output holds the output components in the variables of system,
    form is the implicit triangular form, p the parametrization over the
    analyzed (possibly reduced) system report.system, symbolic_status
    the status of the symbolic check and numeric the numeric report.
    Each stays None when its stage did not run."""
    work = report.system
    out = {
        "version": VERSION,
        "model": {"name": system.name, "digest": system.source_digest or "",
                  "n": system.n, "m": system.m},
        "algorithm1": {"steps": [_step_dict(step) for step in report.steps],
                       "kbar": report.kbar, "verdict": report.verdict, "sfl": report.sfl},
        # the constructed components lie in QQ(x, u): no input shift enters
        "flat_output": None if flat_output is None else {
            "components": _infix_row(flat_output), "q": 0},
        "triangular": None if form is None else {"blocks": [
            {"k": block.k, "solved_for": [str(s) for s in block.solved_for],
             "equations": _infix_row(block.residuals)} for block in form.blocks]},
        "parametrization": None if p is None else {
            "Fx": dict(zip(map(str, work.states), _infix_row(p.F_x))),
            "Fu": dict(zip(map(str, work.inputs), _infix_row(p.F_u))),
            "R": list(p.R)},
        "verification": {"symbolic": symbolic_status, "numeric": None if numeric is None else {
            "trials": numeric.trials, "max_residual": numeric.max_residual}},
    }
    return json.dumps(out, indent=2) + "\n"
