"""Analysis document assembly and deterministic JSON rendering.

An AnalysisDocument bundles everything one run produces: the model
identity, the distribution-sequence record, and whichever construction
and verification artifacts exist.  render_json turns it into a stable
JSON string: dictionaries are built in schema order, field elements are
printed in the canonical infix of the model grammar, so the bytes
depend only on the model, the flags, and the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import symbolic

VERSION = "0.1.0"


@dataclass
class AnalysisDocument:
    """Everything a single run of the tool produced.

    The optional slots stay None when the corresponding stage did not
    run (analysis only) or could not run (NOT_FLAT verdict, construction
    failure).
    """

    version: str
    model_name: str
    model_digest: str
    n: int
    m: int
    report: object
    flat_output: object = None
    triangular: object = None
    parametrization: object = None
    symbolic_verification: object = None
    numeric_verification: object = None

    def to_json_dict(self) -> dict:
        return _document_dict(self)


def _infix_row(components) -> list:
    return [symbolic.to_infix(c) for c in components]


def _steps_list(report) -> list:
    steps = []
    for step in report.steps:
        steps.append(
            {
                "k": step.k,
                "dim_delta": step.dim_delta,
                "dim_E": step.dim_E,
                "dim_D": step.dim_D,
                "rho": step.rho,
                "mu": step.mu,
                "delta_basis": [_infix_row(f.components) for f in step.delta.fields],
                "D_basis": [_infix_row(f.components) for f in step.D.fields],
            }
        )
    return steps


def _flat_output_dict(flat_output) -> dict:
    return {
        "components": _infix_row(flat_output.components),
        "q": flat_output.q,
    }


def _triangular_dict(form) -> dict:
    blocks = []
    for block in form.blocks:
        blocks.append(
            {
                "k": block.k,
                "solved_for": [str(s) for s in block.solved_for],
                "equations": _infix_row(block.residuals),
            }
        )
    return {"blocks": blocks}


def _parametrization_dict(p, system) -> dict:
    return {
        "Fx": {str(s): symbolic.to_infix(e) for s, e in zip(system.states, p.F_x)},
        "Fu": {str(u): symbolic.to_infix(e) for u, e in zip(system.inputs, p.F_u)},
        "R": list(p.R),
    }


def _verification_dict(doc) -> dict:
    symbolic_status = None
    if doc.symbolic_verification is not None:
        symbolic_status = doc.symbolic_verification.status
    numeric = None
    if doc.numeric_verification is not None:
        numeric = {
            "trials": doc.numeric_verification.trials,
            "max_residual": doc.numeric_verification.max_residual,
        }
    return {"symbolic": symbolic_status, "numeric": numeric}


def _document_dict(doc: AnalysisDocument) -> dict:
    report = doc.report
    out = {
        "version": doc.version,
        "model": {
            "name": doc.model_name,
            "digest": doc.model_digest,
            "n": doc.n,
            "m": doc.m,
        },
        "algorithm1": {
            "steps": _steps_list(report),
            "kbar": report.kbar,
            "verdict": report.verdict,
            "sfl": report.sfl,
        },
        "flat_output": (
            _flat_output_dict(doc.flat_output) if doc.flat_output is not None else None
        ),
        "triangular": (
            _triangular_dict(doc.triangular) if doc.triangular is not None else None
        ),
        "parametrization": (
            _parametrization_dict(doc.parametrization, report.system)
            if doc.parametrization is not None
            else None
        ),
        "verification": _verification_dict(doc),
    }
    return out


def render_json(doc: AnalysisDocument) -> str:
    """Serialize the document to the stable JSON layout."""
    return json.dumps(doc.to_json_dict(), indent=2) + "\n"


def new_document(system, report) -> AnalysisDocument:
    """Start a document for a run on the given loaded model."""
    return AnalysisDocument(
        version=VERSION,
        model_name=system.name,
        model_digest=system.source_digest or "",
        n=system.n,
        m=system.m,
        report=report,
    )
