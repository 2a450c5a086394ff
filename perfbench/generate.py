"""Seeded corpus of models whose verdict is known by construction.

FLAT members are single-input Brunovsky chains z1+ = z2, ..., zn+ = u
seen through a random invertible triangular polynomial change of state
z = psi(x); they are static feedback linearizable and their sequence has
one step per state, so kbar = n.  NOT_FLAT members are the stalled
bilinear family z1+ = b1*u, z2+ = z2 + b2*z1*u (the shape of
models/nonflat_bilinear.sys) under the same kind of change.  Verdicts
do not depend on the coordinates, so the expected outcome is that of the
chain or of the bilinear model.

The shapes are fixed and the seed only draws coefficients, so every seed
asks for the same kind of work.  `self_check` proves each
construction exactly, without flatcheck: psi(phi(z)) = z, the
equilibrium is a fixed point, and psi(f(phi(z), u)) is the normal form.
"""

import random
import re
from fractions import Fraction

from oracle import Expr, Model

# (n, degree of the nonlinear term of psi) per FLAT member.
CHAIN_SHAPES = ((2, 3), (3, 2))
BILINEAR_MEMBERS = 1

FLAT_EXPECTED = {"analyze": 0, "extract": 0, "verdict": "FLAT", "sfl": True}
NOT_FLAT_EXPECTED = {"analyze": 1, "extract": 1, "verdict": "NOT_FLAT", "kbar": 0, "sfl": False}

_Z = re.compile(r"\bz(\d+)\b")


def _coef(rng):
    return rng.choice((-3, -2, -1, 1, 2, 3))


def _term(c, factor):
    return " %s %d*%s" % ("-" if c < 0 else "+", abs(c), factor)


def triangular_change(rng, n, degree):
    """psi (in x) and its inverse phi (in z): z_i = x_i + a_i*x_(i-1) + c_i*x1^degree."""
    psi, phi = ["x1"], ["z1"]
    for i in range(2, n + 1):
        a, c = _coef(rng), _coef(rng)
        psi.append("x%d%s%s" % (i, _term(a, "x%d" % (i - 1)), _term(c, "x1^%d" % degree)))
        phi.append("z%d%s%s" % (i, _term(-a, "(%s)" % phi[i - 2]), _term(-c, "z1^%d" % degree)))
    return psi, phi


def _substitute(text, values):
    """Replace z<k> in text by the parenthesised values[k-1]."""
    return _Z.sub(lambda m: "(%s)" % values[int(m.group(1)) - 1], text)


def _model_text(name, n, update, comment):
    lines = ["# %s" % comment, "system %s" % name]
    lines.append("states: %s" % ", ".join("x%d" % i for i in range(1, n + 1)))
    lines.append("inputs: u")
    lines.append("equilibrium: all zero")
    lines.extend("next x%d = %s" % (i, e) for i, e in enumerate(update, start=1))
    return "\n".join(lines) + "\n"


def _member(name, psi, phi, normal, expected, comment):
    """Model x+ = phi(normal(psi(x), u)) with its construction kept for self_check."""
    z_next = [_substitute(e, psi) for e in normal]
    update = [_substitute(p, z_next) for p in phi]
    return {
        "name": name,
        "n": len(psi),
        "text": _model_text(name, len(psi), update, comment),
        "psi": psi,
        "phi": phi,
        "normal": normal,
        "expected": expected,
    }


def chain_member(rng, n, degree, index):
    psi, phi = triangular_change(rng, n, degree)
    normal = ["z%d" % i for i in range(2, n + 1)] + ["u"]
    comment = "Brunovsky chain, n=%d, psi degree %d" % (n, degree)
    return _member("genchain%d" % index, psi, phi, normal, dict(FLAT_EXPECTED, kbar=n), comment)


def bilinear_member(rng, index):
    psi, phi = triangular_change(rng, 2, 2)
    b1, b2 = _coef(rng), _coef(rng)
    normal = ["%d*u" % b1, "z2%s" % _term(b2, "z1*u")]
    comment = "stalled bilinear, b1=%d, b2=%d" % (b1, b2)
    return _member("genbilinear%d" % index, psi, phi, normal, dict(NOT_FLAT_EXPECTED), comment)


def corpus(seed):
    """The generated workload for one seed: a list of members, each self-checked."""
    rng = random.Random(seed)
    members = [chain_member(rng, n, d, i) for i, (n, d) in enumerate(CHAIN_SHAPES, start=1)]
    members += [bilinear_member(rng, i) for i in range(1, BILINEAR_MEMBERS + 1)]
    for member in members:
        self_check(member, random.Random("%d:%s" % (seed, member["name"])))
    return members


def _rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def self_check(member, rng, points=3):
    """Exact proof of the construction at random rational points; raises on failure."""
    n = member["n"]
    psi = [Expr(e) for e in member["psi"]]
    phi = [Expr(e) for e in member["phi"]]
    normal = [Expr(e) for e in member["normal"]]
    model = Model(member["text"])
    zero = {v: Fraction(0) for v in model.states + model.inputs}
    if any(v != 0 for v in model.step(zero)):
        raise ValueError("%s: equilibrium is not a fixed point" % member["name"])
    for _ in range(points):
        z = {"z%d" % i: _rational(rng) for i in range(1, n + 1)}
        u = _rational(rng)
        x = {"x%d" % i: phi[i - 1](z) for i in range(1, n + 1)}
        if [p(x) for p in psi] != [z["z%d" % i] for i in range(1, n + 1)]:
            raise ValueError("%s: psi(phi(z)) != z" % member["name"])
        x_next = dict(zip(model.states, model.step({**x, "u": u})))
        if [p(x_next) for p in psi] != [e({**z, "u": u}) for e in normal]:
            raise ValueError("%s: psi(f(phi(z), u)) is not the normal form" % member["name"])
