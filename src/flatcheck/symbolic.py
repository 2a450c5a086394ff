"""Exact symbolic arithmetic over rational function fields.

Invariant: every expression this module takes or returns is a rational
function with rational coefficients.  Inside this module such an
expression is an element of sympy's fraction field ``QQ(gens)`` (a
``FracElement``, always stored in lowest terms), and matrices of them
are ``DomainMatrix`` objects.  Anything else (floats, radicals,
functions) raises UnsupportedEquationError where it is converted.

There is one matrix API, on field elements: ``element_rref``,
``element_nullspace``, ``element_rank``, ``element_values``,
``jacobian_rank`` and ``clear_element_row``.  ``field`` builds QQ(symbols)
with its generators sorted by name and ``generators`` looks them up;
``rename`` and ``compose`` move elements between fields and coordinates,
``compose`` taking its images as a dict from symbol to element;
``solve_elements`` solves, and ``branch_through`` picks the solved branch
through a point.  ``to_elements`` is the only way into it,
for the model's update map and a candidate output; every stage, from
validation to verification, then calls only these, and the records
between stages hold elements.  ``canonicalize_element`` and
``.as_expr()`` are the ways out, and ``to_infix`` prints an element.

``solve_elements`` solves by exact elimination in the fraction field:
it eliminates the unknowns in the caller's order, one equation linear
in the unknown at a time, and factors an equation when none is linear.
Equations free of the unknowns are ignored, and every branch is
checked exactly against every equation that contains an unknown.  Only
rational branches are returned, so ``[]`` means no branch could be
solved.

Generic ranks are certified exactly, never guessed.  The rank at a
rational point where every entry is defined is at most the generic
rank, which is at most min(rows, cols); so ``element_rank`` and
``jacobian_rank`` first evaluate at one fixed rational point, and a full
rank there is the generic rank.  On a pole or a rank that falls short
they row reduce over the function field instead.  ``jacobian_rank``
evaluates the Jacobian from the partial derivatives of numerator and
denominator, without building it symbolically.  All functions are pure.
"""

from __future__ import annotations

import functools
import math

import sympy as sp
from sympy import QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.polyerrors import CoercionFailed, GeneratorsError

from .errors import (
    InconsistentSystemError,
    IrrationalSolutionError,
    UnsupportedEquationError,
)


@functools.lru_cache(maxsize=256)
def function_field(gens: tuple):
    """The field QQ(gens) as a sympy domain; QQ itself when gens is empty."""
    return QQ.frac_field(*gens) if gens else QQ


def field(symbols):
    """The field QQ(symbols) with its generators sorted by name."""
    return function_field(tuple(sorted(symbols, key=lambda s: s.name)))


def generators(K, symbols) -> list:
    """The generators of the field K named by symbols, as elements of K."""
    index = {s: i for i, s in enumerate(K.symbols)}
    return [K.field.gens[index[s]] for s in symbols]


def _fraction(e, ring, index):
    """(numerator, denominator) polynomials in ring of a rational
    expression, built without any gcd.  Raises CoercionFailed for
    anything else: floats, radicals, functions, symbols outside ring."""
    if e.is_Rational:
        return ring.ground_new(QQ(e.p, e.q)), ring.one
    if e.is_Symbol:
        if e not in index:
            raise CoercionFailed(e)
        return ring.gens[index[e]], ring.one
    if e.is_Add:
        num, den = ring.zero, ring.one
        for arg in e.args:
            n, d = _fraction(arg, ring, index)
            if d == den:
                num = num + n
            else:
                num, den = num * d + n * den, den * d
        return num, den
    if e.is_Mul:
        num, den = ring.one, ring.one
        for arg in e.args:
            n, d = _fraction(arg, ring, index)
            num, den = num * n, den * d
        return num, den
    if e.is_Pow and e.exp.is_Integer:
        num, den = _fraction(e.base, ring, index)
        k = int(e.exp)
        if k < 0:
            if not num:
                raise CoercionFailed(e)
            num, den, k = den, num, -k
        return num**k, den**k
    raise CoercionFailed(e)


def _fractions(exprs, gens=None):
    """(K, [(numerator, denominator)]) for rational expressions over
    K = QQ(gens), gens defaulting to all free symbols sorted by name.
    Over K = QQ the pairs are (value, 1).  Raises UnsupportedEquationError
    when some expression is not a rational function of gens with rational
    coefficients (floats count as inexact, hence not rational)."""
    exprs = [sp.sympify(e) for e in exprs]
    if gens is None:
        gens = sorted(set().union(*(e.free_symbols for e in exprs)),
                      key=lambda s: s.name)
    K = function_field(tuple(gens))
    ring = None if K is QQ else K.field.ring
    index = {s: i for i, s in enumerate(K.symbols)} if ring else {}
    pairs = []
    for e in exprs:
        try:
            if ring is None:
                if not e.is_Rational:
                    raise CoercionFailed(e)
                pairs.append((QQ(e.p, e.q), QQ.one))
            else:
                pairs.append(_fraction(e, ring, index))
        except CoercionFailed:
            raise UnsupportedEquationError(
                "%s is not a rational function of (%s) with rational coefficients"
                % (e, ", ".join(map(str, gens)))
            ) from None
    return K, pairs


def to_elements(exprs, gens=None):
    """Field elements of a sequence of rational expressions.

    The field is QQ(gens), with gens defaulting to the free symbols of
    all expressions sorted by name.  Returns (field, elements); raises
    UnsupportedEquationError as :func:`_fractions` does.
    """
    K, pairs = _fractions(exprs, gens)
    if K is QQ:
        return K, [num for num, _ in pairs]
    return K, [K.field.new(num, den) for num, den in pairs]


@functools.lru_cache(maxsize=256)
def _name_order(symbols) -> tuple:
    return tuple(sorted(range(len(symbols)), key=lambda i: symbols[i].name))


def _lead_is_negative(poly) -> bool:
    """Sign of the leading coefficient under graded-lexicographic order,
    generators sorted by name."""
    order = _name_order(poly.ring.symbols)
    lead = max(poly.itermonoms(), key=lambda m: (sum(m), [m[i] for i in order]))
    return poly[lead] < 0


def canonical_pair(K, a):
    """Normalized (numerator, denominator) expressions of the element a of
    the field K.

    The fraction is in lowest terms, both parts expanded, and the sign
    fixed so the numerator's leading coefficient is positive under
    graded-lexicographic monomial order over the generators sorted by
    name; generators that a does not use do not change it.  sympy
    distributes a numeric factor over a sum, so a sum over a constant
    denominator d comes out as (sum / d, 1).
    """
    if not a:
        return sp.Integer(0), sp.Integer(1)
    if K is QQ:
        num, den = sp.Integer(K.numer(a)), sp.Integer(K.denom(a))
        negative = num < 0
    else:
        P, Q = a.numer, a.denom
        negative = _lead_is_negative(P)
        if Q.is_ground and len(P) > 1:
            num, den = P.quo_ground(Q.LC).as_expr(), sp.Integer(1)
        else:
            num, den = P.as_expr(), Q.as_expr()
    if negative:
        num, den = -num, -den
    return num, den


def canonicalize_element(K, a):
    """Canonical form of the element a of the field K, as an expression
    (see :func:`canonical_pair`); equal elements of any two fields give
    the same expression."""
    num, den = canonical_pair(K, a)
    return num if den == 1 else num / den


def _substitute(poly, substitution, ring=None):
    """poly with generator i replaced by the fraction substitution[i], a
    (numerator, denominator) pair of polynomials of ring, as such a pair.

    ring defaults to poly's own, where a generator whose entry is None is
    kept.  In another ring every generator that poly uses needs an entry,
    else GeneratorsError is raised.  Every term is brought over the common
    denominator prod d_i^deg_i, so the sum is taken in the polynomial ring
    without any gcd.
    """
    own = ring is None or ring is poly.ring
    ring = poly.ring if own else ring
    if not poly:
        return (poly if own else ring.zero), ring.one
    degrees = poly.degrees()
    moved = [i for i, image in enumerate(substitution) if image is not None and degrees[i]]
    if own and not moved:
        return poly, ring.one
    if not own and any(d and substitution[i] is None for i, d in enumerate(degrees)):
        raise GeneratorsError("%s needs a generator outside %s" % (poly, ring))
    powers = {}

    def power(i, part, k):
        if (i, part, k) not in powers:
            powers[i, part, k] = substitution[i][part] ** k
        return powers[i, part, k]

    zero = (0,) * ring.ngens
    total = {}
    for monom, coeff in poly.iterterms():
        kept = list(monom)
        factor = ring.one
        for i in moved:
            e, kept[i] = monom[i], 0
            if e:
                factor = factor * power(i, 0, e)
            if degrees[i] - e:
                factor = factor * power(i, 1, degrees[i] - e)
        for m, c in factor.mul_term((tuple(kept) if own else zero, coeff)).iterterms():
            total[m] = total.get(m, 0) + c
    numerator = ring.from_dict({m: c for m, c in total.items() if c})
    denominator = ring.one
    for i in moved:
        denominator = denominator * power(i, 1, degrees[i])
    return numerator, denominator


def compose(a, images, K=None):
    """Field element a with each generator s replaced by images[s], an
    element of the field K, a's own by default, as an element of K.

    A generator without an image is kept when K is a's own field; in
    another field every generator that a uses needs one, else
    GeneratorsError is raised.  Images of generators that a does not use
    are ignored.  Raises ZeroDivisionError when the substituted
    denominator vanishes, whatever the numerator."""
    target = a.field if K is None else K.field
    if a.numer.is_ground and a.denom.is_ground:
        # a constant: nothing to substitute, and no gcd to take
        ring = target.ring
        return a if target is a.field else target.raw_new(
            ring.ground_new(a.numer.LC), ring.ground_new(a.denom.LC))
    substitution = [(images[s].numer, images[s].denom) if s in images else None
                    for s in a.field.symbols]
    return _compose_by_index(a, substitution, target)


def _compose_by_index(a, substitution, target):
    """compose on the positional substitution of :func:`_substitute`, into
    the fraction field target."""
    num, num_den = _substitute(a.numer, substitution, target.ring)
    den, den_den = _substitute(a.denom, substitution, target.ring)
    if num is a.numer and den is a.denom:
        return a
    if not den:
        raise ZeroDivisionError("denominator of %s vanishes" % a.as_expr())
    return target.new(num * den_den, den * num_den)


@functools.lru_cache(maxsize=1024)
def _positions(symbols, target) -> tuple:
    """The index in symbols of each symbol of target (None when absent),
    and the indices of symbols that target lacks."""
    index = {s: i for i, s in enumerate(symbols)}
    positions = tuple(index.get(s) for s in target)
    return positions, tuple(i for i in range(len(symbols)) if i not in positions)


def rename(a, K, mapping):
    """The field element a as an element of the field K, each generator
    renamed by the dict mapping or kept.  A renamed fraction stays in
    lowest terms, so no gcd is taken; only the denominator's sign is fixed.
    Raises GeneratorsError when a needs a generator that K lacks."""
    symbols = tuple(mapping.get(s, s) for s in a.field.symbols)
    positions, dropped = _positions(symbols, K.symbols)
    ring = K.field.ring

    def move(p):
        terms = {}
        for monom, coeff in p.iterterms():
            if any(monom[i] for i in dropped):
                raise GeneratorsError("%s needs a generator outside %s" % (a, K))
            terms[tuple(monom[i] if i is not None else 0 for i in positions)] = coeff
        return ring.from_dict(terms)

    num, den = move(a.numer), move(a.denom)
    if den.LC < 0:
        num, den = -num, -den
    return K.field.raw_new(num, den)


def solve_elements(K, elements, unknowns) -> list:
    """Solve the equations a = 0, for elements a of the field K, exactly
    for the unknowns, generators of K.

    Returns the branches as dicts of elements of K, in the order the
    elimination finds them, and ``[{}]`` when every equation is zero.
    Equations free of the unknowns are ignored; when no other equation
    is left the result is ``[]``.  The unknowns are eliminated in the
    caller's order, so an underdetermined system is solved for its first
    unknowns in terms of the rest.  An empty result means no rational
    branch was found, which is weaker than "no solution exists".  Raises
    InconsistentSystemError when an equation is a nonzero constant, and
    IrrationalSolutionError when the only branches found need an
    irrational value (a univariate factor without a rational root).
    """
    nonzero = [a for a in elements if a]
    if not nonzero:
        # every equation was an identity: no constraints on the unknowns
        return [{}]
    for a in nonzero:
        if K is QQ or (a.numer.is_ground and a.denom.is_ground):
            raise InconsistentSystemError(
                "equation %s = 0 is a contradiction" % K.to_sympy(a))
    position = {s: i for i, s in enumerate(K.symbols)}
    order = list(dict.fromkeys(position[u] for u in unknowns))
    # an equation free of the unknowns cannot change a solution, and any
    # branch would fail it for generic parameters
    elements = [a for a in nonzero
                if _mentions(a.numer, order) or _mentions(a.denom, order)]
    if not elements:
        return []
    irrational = []
    found = []
    for steps in _eliminate([a.numer for a in elements], order, [], irrational):
        values = _back_substitute(K.field, steps)
        if values is None or values in found:
            continue
        if all(_satisfies(a, steps) for a in elements):
            found.append(values)
    if not found and irrational:
        raise IrrationalSolutionError(K.symbols[irrational[0]])
    return [{K.symbols[i]: K.field.new(*values[i]) for i in order if values[i] is not None}
            for values in found]


def _mentions(poly, indices) -> bool:
    degrees = poly.degrees()
    return any(degrees[i] for i in indices)


def _eliminate(polys, open_, steps, irrational):
    """Yield the elimination steps (generator index, numerator,
    denominator) of every branch of the polynomial equations polys = 0 in
    the open generators.  Records in irrational the generators whose
    univariate equation had no rational root."""
    while polys:
        pivot = next(
            ((i, p) for i in open_ for p in polys if p.degree(i) == 1), None
        )
        if pivot is None:
            yield from _split(polys, open_, steps, irrational)
            return
        i, p = pivot
        a, b = p.coeff_wrt(i, 1), -p.coeff_wrt(i, 0)
        g = a.gcd(b)
        if _mentions(g, open_):
            # p = g * (a/g * u - b/g) also vanishes where g does, for any u
            others = [q for q in polys if q is not p]
            yield from _eliminate([g] + others, open_, steps, irrational)
        a, b = a.exquo(g), b.exquo(g)
        substitution = [None] * p.ring.ngens
        substitution[i] = (b, a)
        open_ = [j for j in open_ if j != i]
        steps = steps + [(i, b, a)]
        remaining = []
        for q in polys:
            if q is p:
                continue
            q, _ = _substitute(q, substitution)
            if not q:
                continue
            # u = b/a assumes a != 0: divide out every factor q shares with a
            g = q.gcd(a)
            while not g.is_ground:
                q = q.exquo(g)
                g = q.gcd(a)
            if not _mentions(q, open_):
                return
            remaining.append(q)
        polys = remaining
    yield steps


def _split(polys, open_, steps, irrational):
    """Branch on every factor containing an open generator of the first
    equation that has a factor linear in one.  A univariate equation
    without such a factor has no root in the field of the other generators
    (Gauss's lemma), so it ends the branch and its generator is recorded
    as irrational."""
    for p in polys:
        factors = [f for f, _ in p.factor_list()[1] if _mentions(f, open_)]
        if any(f.degree(i) == 1 for f in factors for i in open_):
            others = [q for q in polys if q is not p]
            for f in factors:
                yield from _eliminate([f] + others, open_, steps, irrational)
            return
        present = [i for i in open_ if p.degree(i)]
        if len(present) == 1:
            irrational.append(present[0])
            return


def _back_substitute(field, steps):
    """Values (numerator, denominator), by generator index of field, of the
    eliminated generators in terms of the open ones; None when a
    denominator vanishes."""
    values = [None] * field.ngens
    for i, num, den in reversed(steps):
        try:
            value = _compose_by_index(field.new(num, den), values, field)
        except ZeroDivisionError:
            return None
        values[i] = (value.numer, value.denom)
    return values


def _satisfies(a, steps) -> bool:
    """Whether the equation a = 0 holds exactly on the branch of steps: its
    numerator vanishes there and its denominator does not.

    The steps are substituted one at a time, in elimination order.  Each
    multiplies both parts by a power of the step's denominator, which
    :func:`_back_substitute` has shown to be nonzero on the branch, so
    neither test changes.
    """
    num, den = a.numer, a.denom
    substitution = [None] * a.field.ngens
    for i, b, c in steps:
        substitution[i] = (b, c)
        num, den = _substitute(num, substitution)[0], _substitute(den, substitution)[0]
        substitution[i] = None
    return not num and bool(den)


def branch_through(K, solutions, unknowns, point, values):
    """The first of the solved branches, dicts of elements of the field K
    by unknown, that gives every unknown and takes the given values (one
    rational number per unknown) at the rational point; None when none
    does.  A branch with a pole at the point does not pass."""
    expected = [QQ.convert(v) for v in values]
    for sol in solutions:
        if not all(u in sol for u in unknowns):
            continue
        try:
            at_point = element_values(K, [[sol[u] for u in unknowns]], point)[0]
        except ZeroDivisionError:
            continue
        if at_point == expected:
            return sol
    return None


def element_rref(K, rows, ncols):
    """Reduced row echelon form of rows of elements of the field K, and its
    pivot columns.  Over a field both are unique."""
    if not rows:
        return [], ()
    R, pivots = DomainMatrix(rows, (len(rows), ncols), K).rref()
    return R.to_list(), tuple(pivots)


def element_nullspace(K, rref_rows, pivots, ncols) -> list:
    """Right nullspace basis read off a reduced row echelon form, one
    vector per free column."""
    vectors = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [K.zero] * ncols
        v[fc] = K.one
        for row, pc in zip(rref_rows, pivots):
            v[pc] = -row[fc]
        vectors.append(v)
    return vectors


@functools.lru_cache(maxsize=64)
def _certificate_point(ngens) -> tuple:
    """The fixed point at which generic ranks are certified: one nonzero
    integer per generator, drawn from a fixed linear congruential
    sequence, so every run and every process uses the same point."""
    values, state = [], 0x5DEECE66D
    for _ in range(ngens):
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        magnitude = 2 + (state >> 33) % 1000
        values.append(-magnitude if state >> 63 else magnitude)
    return tuple(values)


def _power_product(values, monom, lowered=None):
    """prod values[i] ** monom[i], the exponent at index lowered one less."""
    result = 1
    for i, (v, e) in enumerate(zip(values, monom)):
        if i == lowered:
            e -= 1
        if e:
            result *= v**e
    return result


def _evaluate_poly(poly, values):
    """poly at the point values (one rational number per generator)."""
    total = QQ.zero
    for monom, coeff in poly.iterterms():
        total += coeff * _power_product(values, monom)
    return total


def _value_at(num, den, values):
    """num / den at values; None when den vanishes there."""
    den_val = _evaluate_poly(den, values)
    return _evaluate_poly(num, values) / den_val if den_val else None


def _gradient(poly, values, columns, ncols):
    """Value of poly at values, and of its partial derivatives in the
    generators that columns maps to column indices (others are zero)."""
    value, grad = QQ.zero, [QQ.zero] * ncols
    for monom, coeff in poly.iterterms():
        value += coeff * _power_product(values, monom)
        for j, e in enumerate(monom):
            if e and j in columns:
                grad[columns[j]] += coeff * e * _power_product(values, monom, j)
    return value, grad


def _jacobian_row(num, den, values, columns, ncols):
    """Gradient of num / den at values by the quotient rule; None when
    den vanishes there."""
    n_val, n_grad = _gradient(num, values, columns, ncols)
    d_val, d_grad = _gradient(den, values, columns, ncols)
    if not d_val:
        return None
    square = d_val * d_val
    return [(dn * d_val - n_val * dd) / square for dn, dd in zip(n_grad, d_grad)]


def _used(elements) -> set:
    """Indices of the generators that some of the field elements use."""
    used = set()
    for a in elements:
        for poly in (a.numer, a.denom):
            used.update(i for i, d in enumerate(poly.degrees()) if d > 0)
    return used


def used_symbols(a) -> set:
    """The generators of its field, as symbols, that the element a uses."""
    return {a.field.symbols[i] for i in _used([a])}


def _point_values(K, elements, point) -> list:
    """Values at point of the generators of K that some of the elements
    use, as rational numbers, and 0 for the others.  Raises ValueError
    when point leaves such a generator open and UnsupportedEquationError
    when it assigns one a value that is not a rational number."""
    values = [QQ.zero] * len(K.symbols)
    for i in _used(elements):
        sym = K.symbols[i]
        if sym not in point:
            raise ValueError("point %s leaves %s open" % (point, sym))
        value = sp.sympify(point[sym])
        if not value.is_Rational:
            raise UnsupportedEquationError(
                "point value %s = %s is not a rational number" % (sym, value)
            )
        values[i] = QQ(value.p, value.q)
    return values


def _defined(result, a, point):
    """result, computed for the element a at point, unless it is None
    because a's denominator vanishes there.  An element is in lowest
    terms, so that is a pole, and ZeroDivisionError is raised."""
    if result is None:
        raise ZeroDivisionError("pole at %s in %s" % (point, a.as_expr()))
    return result


def element_rank(K, rows, ncols) -> int:
    """Rank of rows of elements of the field K (the generic rank).

    The rank is first certified at a fixed rational point: the rank at
    any point where every entry is defined is at most the generic rank,
    which is at most min(rows, cols), so a full rank there is the generic
    rank exactly.  On a pole or a rank that falls short, the rows are
    row reduced over K.  No rank is guessed.
    """
    if K is not QQ:
        values = _certificate_point(len(K.symbols))
        at_point = [[_value_at(a.numer, a.denom, values) for a in row] for row in rows]
        if all(v is not None for row in at_point for v in row):
            rank = len(element_rref(QQ, at_point, ncols)[1])
            if rank == min(len(rows), ncols):
                return rank
    return len(element_rref(K, rows, ncols)[1])


def jacobian_rank(K, elements, variables, point=None) -> int:
    """Rank of the Jacobian of elements of the field K with respect to
    variables, generators of K: generically, or at point when one is
    given.

    The Jacobian's value at a point comes from the partial derivatives of
    each numerator n and denominator d, as (n' d - n d') / d**2, without
    a gcd and without building the symbolic Jacobian.  A given point must
    fix every generator the elements use; a pole there raises
    ZeroDivisionError.  The generic rank is certified at the fixed point
    of :func:`element_rank`, given to the generators the elements use in
    name order, so generators of K that they do not use do not move it.
    The fallback is the same: row reduction of the Jacobian over K.
    """
    nrows, ncols = len(elements), len(variables)
    if K is QQ or not nrows or not ncols:
        return 0
    index = {s: i for i, s in enumerate(K.symbols)}
    columns = {index[v]: k for k, v in enumerate(variables) if v in index}
    if point is not None:
        values = _point_values(K, elements, point)
        rows = [_defined(_jacobian_row(a.numer, a.denom, values, columns, ncols), a, point)
                for a in elements]
        return len(element_rref(QQ, rows, ncols)[1])
    used = _used(elements)
    values = [0] * len(K.symbols)
    order = [i for i in _name_order(K.symbols) if i in used]
    for i, value in zip(order, _certificate_point(len(order))):
        values[i] = value
    rows = [_jacobian_row(a.numer, a.denom, values, columns, ncols) for a in elements]
    if all(row is not None for row in rows):
        rank = len(element_rref(QQ, rows, ncols)[1])
        if rank == min(nrows, ncols):
            return rank
    gens = [K.field.gens[index[v]] if v in index else None for v in variables]
    rows = [[a.diff(g) if g is not None else K.zero for g in gens] for a in elements]
    return len(element_rref(K, rows, ncols)[1])


def element_values(K, rows, point: dict) -> list:
    """Rows of elements of the field K at a rational point that fixes every
    generator the rows use, as rows of elements of QQ; a pole raises
    ZeroDivisionError."""
    values = _point_values(K, [a for row in rows for a in row], point)
    return [[_defined(_value_at(a.numer, a.denom, values), a, point) for a in row]
            for row in rows]


def clear_element_row(K, row):
    """Clear the denominators of a row of elements of K.

    Returns the cleared row and the factor the row was multiplied by:
    the row times the lcm of its denominators, scaled to integer
    coefficients without common factor, with the leading coefficient
    of the first nonzero entry positive under graded-lexicographic
    order (generators sorted by name).  A zero row is returned as is.
    """
    nonzero = [a for a in row if a]
    if not nonzero:
        return list(row), K.one
    if K is QQ:
        common = math.lcm(*(K.denom(a) for a in nonzero))
        numerators = [K.numer(a * common) for a in nonzero]
        factor = QQ(common, math.gcd(*numerators))
        if numerators[0] < 0:
            factor = -factor
        return [a * factor for a in row], factor
    field = K.field
    common = functools.reduce(lambda p, q: p.lcm(q), (a.denom for a in nonzero))
    polys = [a.numer * common.exquo(a.denom) for a in row]
    coeffs = [c for p in polys for c in p.itercoeffs()]
    content = QQ(
        math.gcd(*(QQ.numer(c) for c in coeffs)),
        math.lcm(*(QQ.denom(c) for c in coeffs)),
    )
    factor = QQ.one / content
    if _lead_is_negative(next(p for p in polys if p)):
        factor = -factor
    one = field.ring.one
    cleared = [field.raw_new(p.mul_ground(factor), one) for p in polys]
    return cleared, field.raw_new(common.mul_ground(factor), one)


def to_infix(a) -> str:
    """Canonical infix string of the field element a in the model grammar
    (powers written with ^)."""
    K = function_field(a.field.symbols)
    return sp.sstr(canonicalize_element(K, a)).replace("**", "^")
