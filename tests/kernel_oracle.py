"""Sympy's own rational functions as the reference of flatcheck's kernel.

flatcheck.symbolic stores an element of QQ(gens) as a pair of integer
polynomials of its own, in lowest terms, and sympy's ``ZZ.frac_field``
stores the same canonical pair.  So an element converts both ways term
for term, and sympy's arithmetic, ``.diff``, ``cofactors`` and reduction
serve as the oracle of the kernel's.  The program itself builds no sympy
ring or field.
"""

import sympy as sp
from sympy.polys.fields import FracElement

from flatcheck import symbolic


def sympy_field(K):
    """sympy's field of fractions (a ``FracField``) with the generators of
    the kernel field or ring K, in K's order."""
    return sp.ZZ.frac_field(*K.symbols).field


def poly_to_sympy(p):
    """The kernel polynomial p as a polynomial of sympy's integer ring with
    the same generators, in the same order."""
    return sympy_field(p.ring).ring.from_dict(dict(p))


def poly_from_sympy(P):
    """The sympy integer polynomial P as a polynomial of the kernel ring
    with P's generators."""
    ring = symbolic.function_field(tuple(P.ring.symbols)).ring
    return ring.from_dict({m: int(c) for m, c in P.items()})


def to_sympy(a):
    """The kernel element a as a sympy ``FracElement``, its pair copied."""
    F = sympy_field(a.field)
    return F.raw_new(poly_to_sympy(a.numer), poly_to_sympy(a.denom))


def from_sympy(K, f):
    """The element of the kernel field K whose pair is that of f: a sympy
    ``FracElement`` over K's generators, or an expression, which sympy
    converts and reduces."""
    if not isinstance(f, FracElement):
        f = sympy_field(K).from_expr(sp.sympify(f))
    return symbolic.RationalFunction(K, poly_from_sympy(f.numer), poly_from_sympy(f.denom))


def diff(a, s):
    """The derivative of the kernel element a in the generator s of its
    field, taken by sympy's ``FracElement.diff``."""
    F = sympy_field(a.field)
    return from_sympy(a.field, to_sympy(a).diff(F.gens[a.field.symbols.index(s)]))
