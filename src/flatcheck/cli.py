"""Command line front end.

Four subcommands cover the workflow: ``analyze`` runs the distribution
sequence and prints the verdict table, ``extract`` additionally builds
the flat output, the implicit triangular form, and the parametrization
and verifies them, ``verify`` checks a user-supplied output candidate
symbolically and numerically, and ``simulate`` iterates the dynamics
over an input file.  Exit codes are a total function of the outcome:
0 for FLAT or PASS, 1 for NOT_FLAT or a failed or inconclusive
verification, 2 for any loading, validation, or usage error, and 3 when
a construction stage fails honestly on a FLAT system.

Systems whose input Jacobian drops rank generically are reduced first;
the removed input coordinates extend any flat output of the reduced
system, and the note in the report spells that out.  All timing output
goes to stderr so stdout and the JSON document stay byte-stable for a
given model, flag set, and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import sys
import time

import sympy as sp

from . import analysis, construction, document, model, modelfile, symbolic, verification
from .errors import (
    FlatcheckError,
    ImplicitSolveError,
    RedundantInputsError,
    StraighteningError,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2
EXIT_CONSTRUCTION = 3


@contextlib.contextmanager
def _stage(timings, name):
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = time.perf_counter() - start


def _emit_timings(timings):
    for name, seconds in timings.items():
        print("timing: %s %.2fs" % (name, seconds), file=sys.stderr)


def _prepare(system):
    """Run the analysis, which validates the system first; on redundant
    inputs, reduce them and analyze the reduced system instead."""
    try:
        return system, None, analysis.run_algorithm1(system)
    except RedundantInputsError:
        reduction = model.eliminate_redundant_inputs(system)
    return reduction.reduced, reduction, analysis.run_algorithm1(reduction.reduced)


def _print_reduction_note(reduction):
    if reduction is None:
        return
    kept = ", ".join(str(u) for u in reduction.reduced.inputs)
    removed = ", ".join(str(u) for u in reduction.removed_coordinates)
    print(
        "note: redundant inputs; analysis runs on the reduced system with "
        "effective inputs (%s)" % kept
    )
    print(
        "note: the removed coordinates (%s) extend any flat output of the "
        "reduced system" % removed
    )


def _write_json(path, doc):
    text = document.render_json(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print("wrote %s" % path, file=sys.stderr)


def cmd_analyze(args, timings) -> int:
    system = modelfile.load_model(args.model)
    with _stage(timings, "analyze"):
        work, reduction, report = _prepare(system)
    _print_reduction_note(reduction)
    print(analysis.classify(report))
    if args.json:
        doc = document.new_document(system, report)
        _write_json(args.json, doc)
    return EXIT_OK if report.flat else EXIT_NEGATIVE


def _present_flat_output(flat_output, reduction):
    """Name/element pairs of the output in the original variables."""
    if reduction is None:
        return list(zip(flat_output.names, flat_output.components))
    # each variable of the reduced system, then each extending component,
    # in QQ(x, u) of the kept update elements
    kept, states = reduction.kept_functions, reduction.reduced.states
    K = symbolic.function_field(kept[0].field.symbols)
    images = {**dict(zip(states, symbolic.generators(K, states))),
              **dict(zip(reduction.reduced.inputs, kept))}
    comps = [symbolic.compose(c, images, K) for c in flat_output.components]
    comps += symbolic.generators(K, reduction.removed_coordinates)
    names = ["y%d" % (i + 1) for i in range(len(comps))]
    return list(zip(names, comps))


def cmd_extract(args, timings) -> int:
    system = modelfile.load_model(args.model)
    with _stage(timings, "analyze"):
        work, reduction, report = _prepare(system)
    _print_reduction_note(reduction)
    print("verdict: %s (kbar = %d)" % (report.verdict, report.kbar))
    if not report.flat:
        print("no construction for a NOT_FLAT system")
        if args.json:
            doc = document.new_document(system, report)
            _write_json(args.json, doc)
        return EXIT_NEGATIVE

    with _stage(timings, "construct"):
        flat_output, trace = construction.extract_flat_output(
            work, report, max_degree=args.max_ansatz_degree
        )
        form = construction.to_implicit_triangular(trace)
        p = construction.parametrize_from_triangular(form)

    display = _present_flat_output(flat_output, reduction)
    print("flat output:")
    for name, expr in display:
        print("  %s = %s" % (name, symbolic.to_infix(expr)))
    print("implicit triangular form:")
    for block in form.blocks:
        solved = ", ".join(str(s) for s in block.solved_for)
        print("  block %d (solved for %s):" % (block.k, solved))
        for residual in block.residuals:
            print("    0 = %s" % symbolic.to_infix(residual))
    print("parametrization:")
    for s, e in zip(work.states, p.F_x):
        print("  %s = %s" % (s, symbolic.to_infix(e)))
    for u, e in zip(work.inputs, p.F_u):
        print("  %s = %s" % (u, symbolic.to_infix(e)))
    print("  R = (%s)" % ", ".join(str(r) for r in p.R))

    with _stage(timings, "verify"):
        ok, detail = verification.check_parametrization(work, p)
        sym_rep = verification.SymbolicVerification(
            status="PASS" if ok else "FAIL",
            bound=max(p.R),
            capped=False,
            detail=detail,
        )
        num_rep = verification.verify_flat_output_numeric(
            work, p, candidate=flat_output.components, **_numeric_options(args)
        )
    print("verification: symbolic %s (%s)" % (sym_rep.status, sym_rep.detail))
    print(
        "verification: numeric %s (trials=%d, max residual %.3e)"
        % (num_rep.status, num_rep.trials, num_rep.max_residual)
    )

    if args.json:
        doc = document.new_document(system, report)
        doc.flat_output = construction.FlatOutput(
            components=tuple(e for _, e in display),
            q=flat_output.q,
            names=tuple(n for n, _ in display),
        )
        doc.triangular = form
        doc.parametrization = p
        doc.symbolic_verification = sym_rep
        doc.numeric_verification = num_rep
        _write_json(args.json, doc)
    if sym_rep.status != "PASS" or num_rep.status != "PASS":
        print("construction verification failed", file=sys.stderr)
        return EXIT_CONSTRUCTION
    return EXIT_OK


def cmd_verify(args, timings) -> int:
    system = modelfile.load_model(args.model)
    model.validate_system(system)
    parts = [piece.strip() for piece in args.output.split(";")]
    parts = [piece for piece in parts if piece]
    if len(parts) != system.m:
        print(
            "error: expected %d output components, got %d"
            % (system.m, len(parts)),
            file=sys.stderr,
        )
        return EXIT_ERROR
    _, candidate = symbolic.to_elements(
        [modelfile.parse_expression(piece, system) for piece in parts], system.variables)

    with _stage(timings, "symbolic"):
        p, sym_rep = verification.verify_flat_output_symbolic(system, candidate)
    capped = " (bound cap reached)" if sym_rep.capped else ""
    print(
        "symbolic: %s at shift bound %d%s; %s"
        % (sym_rep.status, sym_rep.bound, capped, sym_rep.detail)
    )
    if p is None:
        return EXIT_NEGATIVE
    for u, e in zip(system.inputs, p.F_u):
        print("  %s = %s" % (u, symbolic.to_infix(e)))
    with _stage(timings, "numeric"):
        num_rep = verification.verify_flat_output_numeric(
            system, p, candidate=candidate, **_numeric_options(args)
        )
    print(
        "numeric: %s (trials=%d, horizon=%d, max residual %.3e)"
        % (num_rep.status, num_rep.trials, num_rep.horizon, num_rep.max_residual)
    )
    return EXIT_OK if num_rep.status == "PASS" else EXIT_NEGATIVE


def _scalar(text, exact):
    if exact:
        return sp.Rational(text)
    return float(text)


def _numeric_row(row, exact):
    return [_scalar(cell.strip(), exact) for cell in row]


def _read_input_rows(path, exact):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        raw = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    if not raw:
        return []
    rows = []
    for i, row in enumerate(raw):
        try:
            rows.append(_numeric_row(row, exact))
        except (ValueError, TypeError):
            if i == 0:
                continue
            raise FlatcheckError(
                "inputs file %s: non-numeric entry in row %d" % (path, i + 1)
            )
    return rows


def _format_value(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_simulate(args, timings) -> int:
    system = modelfile.load_model(args.model)
    try:
        x0 = [_scalar(t.strip(), args.exact) for t in args.x0.split(",")]
    except (ValueError, TypeError):
        print("error: --x0 expects a comma-separated numeric list", file=sys.stderr)
        return EXIT_ERROR
    rows = _read_input_rows(args.inputs_file, args.exact)
    trajectory = verification.simulate(system, x0, rows)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    header = ["k"]
    header.extend(str(s) for s in system.states)
    header.extend(str(u) for u in system.inputs)
    writer.writerow(header)
    for k in range(trajectory.horizon):
        row = [k]
        row.extend(_format_value(v) for v in trajectory.states[k])
        row.extend(_format_value(v) for v in trajectory.inputs[k])
        writer.writerow(row)
    final = [trajectory.horizon]
    final.extend(_format_value(v) for v in trajectory.states[-1])
    final.extend("" for _ in system.inputs)
    writer.writerow(final)
    return EXIT_OK


def _positive(kind):
    """argparse type: a finite number of the given kind above 0, so an
    integer is at least 1."""
    def parse(text):
        value = kind(text)
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError("expected a finite %s > 0, got %s"
                                             % (kind.__name__, text))
        return value

    parse.__name__ = kind.__name__
    return parse


def _add_verification_flags(parser):
    parser.add_argument("--trials", type=_positive(int), default=20)
    parser.add_argument("--horizon", type=_positive(int), default=20)
    parser.add_argument("--tol", type=_positive(float), default=1e-9)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--box", type=_positive(float), default=0.1)


def _numeric_options(args) -> dict:
    return dict(trials=args.trials, horizon=args.horizon, tol=args.tol,
                seed=args.seed, box=args.box)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatcheck",
        description="difference flatness analysis of discrete-time systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze", help="run the flatness test and print the verdict table"
    )
    p_analyze.add_argument("model", help="model file (.sys)")
    p_analyze.add_argument("--json", metavar="PATH", help="write the analysis document")
    p_analyze.set_defaults(func=cmd_analyze)

    p_extract = sub.add_parser(
        "extract",
        help="construct and verify a flat output, the triangular form, "
        "and the parametrization",
    )
    p_extract.add_argument("model", help="model file (.sys)")
    p_extract.add_argument("--json", metavar="PATH", help="write the analysis document")
    p_extract.add_argument(
        "--max-ansatz-degree",
        type=_positive(int),
        default=3,
        help="polynomial degree cap of the invariant search (default 3)",
    )
    _add_verification_flags(p_extract)
    p_extract.set_defaults(func=cmd_extract)

    p_verify = sub.add_parser(
        "verify", help="verify a candidate flat output symbolically and numerically"
    )
    p_verify.add_argument("model", help="model file (.sys)")
    p_verify.add_argument(
        "--output",
        required=True,
        help="semicolon-separated output components in the model grammar",
    )
    _add_verification_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_simulate = sub.add_parser(
        "simulate", help="iterate the dynamics and print the trajectory CSV"
    )
    p_simulate.add_argument("model", help="model file (.sys)")
    p_simulate.add_argument(
        "--x0", required=True, help="comma-separated initial state"
    )
    p_simulate.add_argument(
        "--inputs-file",
        required=True,
        dest="inputs_file",
        help="CSV of input rows, one row per step, optional header",
    )
    p_simulate.add_argument(
        "--exact",
        action="store_true",
        help="evaluate over the rationals instead of floating point",
    )
    p_simulate.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the timings of the stages that ran go to stderr
    on every exit path."""
    parser = build_parser()
    args = parser.parse_args(argv)
    timings = {}
    try:
        return args.func(args, timings)
    except (StraighteningError, ImplicitSolveError) as exc:
        print("construction failed: %s" % exc, file=sys.stderr)
        return EXIT_CONSTRUCTION
    except FlatcheckError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    finally:
        _emit_timings(timings)


if __name__ == "__main__":
    sys.exit(main())
