"""Sympy's own rational functions as the reference of flatcheck's kernel.

flatcheck.symbolic stores an element of QQ(gens) as a pair of integer
polynomials of its own, in lowest terms, and sympy's ``ZZ.frac_field``
stores the same canonical pair.  So an element converts both ways term
for term, and sympy's arithmetic, ``.diff``, ``cofactors`` and reduction
serve as the oracle of the kernel's.  The program itself builds no sympy
ring or field.  An expression of flatcheck converts to the sympy
expression of the same structure (``expression_to_sympy``), which the
tests compare with sympy's own evaluation.
"""

import sympy as sp
from sympy.polys.fields import FracElement

from flatcheck import symbolic


def sympy_field(K):
    """sympy's field of fractions (a ``FracField``) with the generators of
    the kernel field or ring K, in K's order, as sympy Symbols of the
    same names."""
    return sp.ZZ.frac_field(*[sp.Symbol(s.name) for s in K.symbols]).field


def poly_to_sympy(p):
    """The kernel polynomial p as a polynomial of sympy's integer ring with
    the same generators, in the same order."""
    return sympy_field(p.ring).ring.from_dict(dict(p))


def poly_from_sympy(P):
    """The sympy integer polynomial P as a polynomial of the kernel ring
    with P's generators."""
    ring = symbolic.function_field(tuple(symbolic.symbol(s.name) for s in P.ring.symbols)).ring
    return ring.from_dict({m: int(c) for m, c in P.items()})


def to_sympy(a):
    """The kernel element a as a sympy ``FracElement``, its pair copied."""
    F = sympy_field(a.field)
    return F.raw_new(poly_to_sympy(a.numer), poly_to_sympy(a.denom))


def as_expr(a):
    """sympy's expression of the kernel element a, the ``as_expr()`` of
    its pair in sympy's field, its generators sympy Symbols of the same
    names."""
    return to_sympy(a).as_expr()


def sympy_symbol(s):
    """sympy's Symbol of the name of the flatcheck symbol s."""
    return sp.Symbol(s.name)


def symbols(seq) -> list:
    """flatcheck's symbols of the names of the symbols in seq, sympy's or
    flatcheck's."""
    return [symbolic.as_symbol(s) for s in seq]


def keyed(values) -> dict:
    """The values keyed by flatcheck's symbols of the names of its
    keys, sympy's or flatcheck's."""
    return {symbolic.as_symbol(s): v for s, v in values.items()}


def from_sympy(K, f):
    """The element of the kernel field K whose pair is that of f: a sympy
    ``FracElement`` over K's generators, or an expression, which sympy
    converts and reduces."""
    if not isinstance(f, FracElement):
        f = sympy_field(K).from_expr(sp.sympify(f))
    return symbolic.RationalFunction(K, poly_from_sympy(f.numer), poly_from_sympy(f.denom))


def diff(a, s):
    """The derivative of the kernel element a in the generator s of its
    field (flatcheck's symbol or sympy's of the same name), taken by
    sympy's ``FracElement.diff``."""
    F = sympy_field(a.field)
    return from_sympy(a.field,
                      to_sympy(a).diff(F.gens[a.field.symbols.index(symbolic.as_symbol(s))]))


OWN_EXPRESSIONS = (symbolic.Rational, symbolic.Symbol, symbolic.Add, symbolic.Mul, symbolic.Pow)


def sympy_expression(e):
    """sympy's expression of e: flatcheck's own expression rebuilt with
    sympy's constructors, which evaluate it, and a sympy expression or a
    number as sympy reads it."""
    if not isinstance(e, OWN_EXPRESSIONS):
        return sp.sympify(e)
    if isinstance(e, (symbolic.Rational, symbolic.Symbol)):
        return expression_to_sympy(e)
    if isinstance(e, symbolic.Pow):
        return sp.Pow(sympy_expression(e.base), e.exp)
    return (sp.Add if isinstance(e, symbolic.Add) else sp.Mul)(*map(sympy_expression, e.args))


def sympy_update(system) -> list:
    """system.update as sympy expressions (:func:`sympy_expression`): a
    parsed model's, flatcheck's own, and those of a system built in code
    with sympy."""
    return [sympy_expression(e) for e in system.update]


def expression_to_sympy(e):
    """The sympy expression with the structure of e, an expression of
    symbolic: each sum, product and power built from e's own arguments
    without evaluation, a sum's constant and a product's coefficient
    first and the other arguments sorted as sympy sorts them.  So it is
    sympy's evaluated expression, argument for argument, exactly when e
    has the structure that sympy's evaluation gives."""
    if isinstance(e, symbolic.Rational):
        return sp.Rational(e.numerator, e.denominator)
    if isinstance(e, symbolic.Symbol):
        return sp.Symbol(e.name)
    if isinstance(e, symbolic.Pow):
        return sp.Pow(expression_to_sympy(e.base), e.exp, evaluate=False)
    args = [expression_to_sympy(a) for a in e.args]
    numbers, rest = [a for a in args if a.is_Number], [a for a in args if not a.is_Number]
    rest.sort(key=sp.core.basic._args_sortkey)
    return (sp.Add if isinstance(e, symbolic.Add) else sp.Mul)._from_args(numbers + rest)
