"""Walk through the full pipeline on the four-state benchmark model.

Runs the distribution sequence, extracts a flat output, builds the
implicit triangular form and the trajectory parametrization, verifies
both symbolically and numerically, and replays one exact trajectory.

Usage: python3 demos/flat4_walkthrough.py
"""

import pathlib

from flatcheck import analysis, construction, modelfile, symbolic, verification

MODEL = pathlib.Path(__file__).resolve().parent.parent / "models" / "flat4.sys"


def main():
    system = modelfile.load_model(MODEL)
    print("model %s: n=%d states, m=%d inputs" % (system.name, system.n, system.m))

    report = analysis.run_algorithm1(system)
    print()
    print(analysis.classify(report))

    flat_output, trace = construction.extract_flat_output(system, report)
    print()
    print("flat output:")
    for i, component in enumerate(flat_output, start=1):
        print("  y%d = %s" % (i, symbolic.to_infix(component)))

    form = construction.to_implicit_triangular(trace)
    print()
    print("implicit triangular form:")
    for block in form.blocks:
        solved = ", ".join(str(s) for s in block.solved_for)
        print("  %s (solved for %s):" % (block.label, solved))
        for residual in block.residuals:
            print("    0 = %s" % symbolic.to_infix(residual))

    p = construction.parametrize_from_triangular(form)
    print()
    print("parametrization with R = %s:" % (p.R,))
    for s, e in zip(system.states, p.F_x):
        print("  %s = %s" % (s, symbolic.to_infix(e)))
    for u, e in zip(system.inputs, p.F_u):
        print("  %s = %s" % (u, symbolic.to_infix(e)))

    ok, detail = verification.check_parametrization(system, p)
    print()
    print("symbolic check: %s" % ("PASS" if ok else "FAIL (%s)" % detail))

    numeric = verification.verify_flat_output_numeric(
        system, p, trials=20, horizon=20, seed=0, candidate=flat_output
    )
    print(
        "numeric check: %s (max residual %.3e over %d trials)"
        % (numeric.status, numeric.max_residual, numeric.trials)
    )

    trajectory = verification.simulate(
        system,
        [symbolic.rational("1/3"), 0, 0, 0],
        [[0, 0]],
    )
    print()
    print("one exact step from x(0) = (1/3, 0, 0, 0) with u = (0, 0):")
    print("  x(1) = (%s)" % ", ".join(map(str, trajectory.states[-1])))


if __name__ == "__main__":
    main()
