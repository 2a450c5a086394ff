"""Analyze models defined inline, without a model file on disk.

Shows the verdict side of the library: a delay chain with a quadratic
feedforward term is flat, while a bilinear coupling stalls at the first
step because no input direction can be pushed forward.

Usage: python3 demos/inline_model.py
"""

from flatcheck import analysis, modelfile

FLAT_CHAIN = """
# delay chain with a quadratic feedforward term, flat with y = x1
system chainDemo
states: x1, x2
inputs: u
equilibrium: all zero
next x1 = x2 + x1^2
next x2 = u
"""

BILINEAR = """
# bilinear coupling, not flat: the sequence stalls immediately
system bilinearDemo
states: x1, x2
inputs: u
equilibrium: all zero
next x1 = u
next x2 = x2 + x1*u
"""


def main():
    for text in (FLAT_CHAIN, BILINEAR):
        system = modelfile.parse_model(text)
        report = analysis.run_algorithm1(system)
        print("model %s:" % system.name)
        for step in report.steps:
            print(
                "  k=%d dim Delta=%d dim E=%d dim D=%d"
                % (step.k, step.delta.dim, step.E.dim, step.D.dim)
            )
        print("  verdict: %s (kbar = %d)" % (report.verdict, report.kbar))
        print()


if __name__ == "__main__":
    main()
