"""Sympy's own rational functions as the reference of flatcheck's kernel.

flatcheck.symbolic stores an element of QQ(gens) as a pair of integer
polynomials of its own, in lowest terms, and sympy's ``ZZ.frac_field``
stores the same canonical pair.  So an element converts both ways term
for term, and sympy's arithmetic, ``.diff``, ``cofactors`` and reduction
serve as the oracle of the kernel's.  The program itself builds no sympy
ring or field.  An expression of flatcheck converts to the sympy
expression of the same structure (``expression_to_sympy``), which the
tests compare with sympy's own evaluation.

The library reads systems and expressions only as model text.  The tests
build them with sympy as well, and convert them here: ``elements`` to
field elements, ``expression`` to flatcheck's expression, and ``system``
to a ``DiscreteTimeSystem``.
"""

import functools

import sympy as sp
from sympy.polys.fields import FracElement

from flatcheck import symbolic
from flatcheck.model import DiscreteTimeSystem


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
    return [symbolic.symbol(s.name) for s in seq]


def function_field(gens):
    """The kernel field of flatcheck's symbols of the names of gens,
    sympy's or flatcheck's symbols, in their order."""
    return symbolic.function_field(tuple(symbols(gens)))


def keyed(values) -> dict:
    """The values keyed by flatcheck's symbols of the names of its
    keys, sympy's or flatcheck's."""
    return {symbolic.symbol(s.name): v for s, v in values.items()}


def _build(e, actions):
    """The sympy expression e built with the actions of
    ``symbolic.Fractions`` or ``symbolic.Expressions``, symbols by name.
    A product takes its number last, so that Expressions, which
    distributes a number over a sum, builds the product that sympy's
    ``Mul.flatten`` builds.  TypeError for a node that is not a rational
    number, a symbol, a sum, a product or an integer power."""
    if e.is_Symbol:
        return actions.symbol(symbolic.symbol(e.name))
    if e.is_Rational:
        return actions.number(symbolic.rational(e))
    if e.is_Add:
        return functools.reduce(actions.add, [_build(a, actions) for a in e.args])
    if e.is_Mul:
        return functools.reduce(actions.mul, [_build(a, actions) for a in reversed(e.args)])
    if e.is_Pow and e.exp.is_Integer:
        return actions.power(_build(e.base, actions), int(e.exp))
    raise TypeError("%s is not a rational function" % e)


def elements(exprs, gens=None):
    """(K, elements) of the expressions (sympy's, flatcheck's, texts that
    sympy reads, or numbers) in K = QQ(gens), gens sympy's or flatcheck's
    symbols and by default the expressions' symbols sorted by name.  Each
    is built with ``symbolic.Fractions`` and reduced once, as the model
    parser builds an update."""
    exprs = [sympy_expression(e) for e in exprs]
    if gens is None:
        K = symbolic.field(symbols(set().union(*(e.free_symbols for e in exprs))))
    else:
        K = function_field(gens)
    fractions = symbolic.Fractions(K)
    return K, [fractions.element(_build(e, fractions)) for e in exprs]


def expression(e):
    """flatcheck's expression of e, as :func:`elements` reads it, built with
    ``symbolic.Expressions``."""
    return _build(sympy_expression(e), symbolic.Expressions)


def system(name, states, inputs, update, equilibrium) -> DiscreteTimeSystem:
    """The system x+ = update of the states and inputs, sympy's or
    flatcheck's symbols and expressions, at the equilibrium, a dict keyed
    by either's symbols: its elements in QQ(states, inputs), and its
    update expressions built on their first read (:func:`expression`)."""
    states, inputs = tuple(symbols(states)), tuple(symbols(inputs))
    update = [sympy_expression(e) for e in update]
    K, update_elements = elements(update, states + inputs)
    return DiscreteTimeSystem(name=name, states=states, inputs=inputs,
                              update=lambda: tuple(map(expression, update)),
                              equilibrium=keyed(equilibrium),
                              elements=(K, tuple(update_elements)))


def from_sympy(K, f):
    """The element of the kernel field K whose pair is that of f: a sympy
    ``FracElement`` over K's generators, or an expression, which sympy
    converts and reduces.  sympy inverts an element for a negative power
    without fixing the sign of its pair, so the expression's pair takes
    the kernel's sign: the denominator's leading coefficient positive."""
    if not isinstance(f, FracElement):
        f = sympy_field(K).from_expr(sp.sympify(f))
        if f.denom.LC < 0:
            f = f.field.raw_new(-f.numer, -f.denom)
    return symbolic.RationalFunction(K, poly_from_sympy(f.numer), poly_from_sympy(f.denom))


def diff(a, s):
    """The derivative of the kernel element a in the generator s of its
    field (flatcheck's symbol or sympy's of the same name), taken by
    sympy's ``FracElement.diff``."""
    F = sympy_field(a.field)
    return from_sympy(a.field,
                      to_sympy(a).diff(F.gens[a.field.symbols.index(symbolic.symbol(s.name))]))


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
    """system.update, flatcheck's expressions, as sympy's
    (:func:`sympy_expression`)."""
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
