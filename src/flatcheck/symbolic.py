"""Exact symbolic arithmetic over rational function fields.

Everything downstream manipulates rational expressions in the system
variables with exact rational coefficients.  Inside this module such an
expression is an element of sympy's fraction field ``QQ(gens)`` (a
``FracElement``, always stored in lowest terms), and matrices of them
are ``DomainMatrix`` objects.  Functions taking sympy expressions
convert at their boundary; ``element_rref``, ``element_nullspace`` and
``clear_element_row`` work on field elements for callers that keep
them, such as the geometry layer.  This module pins down the canonical
form, the three-valued zero test, equation solving, and row reduction
over the function field.  All functions are pure.

Expressions that are not rational functions with rational coefficients
(radicals returned by the solver, opaque analytic functions such as sin,
exp or undefined functions) stay sympy expressions: zero tests on them
may return None ("unknown"), and rank decisions refuse to guess.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, NamedTuple, Optional, Sequence

import sympy as sp
from sympy import QQ
from sympy.polys.fields import FracElement
from sympy.polys.matrices import DomainMatrix
from sympy.polys.polyerrors import CoercionFailed

from .errors import (
    InconsistentSystemError,
    IndeterminateRankError,
    UnsupportedEquationError,
)

# Contract aliases: the substrate is sympy behind these names.
SymbolicExpression = sp.Expr
SymbolicMatrix = sp.Matrix


def sympify_rational(value):
    """Convert strings/numbers to exact sympy values (floats become Rationals)."""
    e = sp.sympify(value, rational=True)
    return e


def free_variables(e) -> tuple:
    """Free symbols of ``e`` sorted by name, for deterministic iteration."""
    return tuple(sorted(sp.sympify(e).free_symbols, key=lambda s: s.name))


def is_rational_expression(e, variables: Optional[Sequence[sp.Symbol]] = None) -> bool:
    """True when ``e`` is a rational function of ``variables`` (default: all
    of its free symbols) with exact rational coefficients."""
    e = sp.sympify(e)
    if variables is None:
        variables = free_variables(e)
    if not variables:
        return bool(e.is_Number and e.is_rational)
    if not e.is_rational_function(*variables):
        return False
    # everything must stay exact, so float coefficients are rejected
    return not e.has(sp.Float)


@functools.lru_cache(maxsize=256)
def function_field(gens: tuple):
    """The field QQ(gens) as a sympy domain; QQ itself when gens is empty."""
    return QQ.frac_field(*gens) if gens else QQ


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
    K = QQ(gens), gens defaulting to all free symbols sorted by name;
    None when some expression is not rational in gens.  Over K = QQ the
    pairs are (value, 1)."""
    exprs = [sp.sympify(e) for e in exprs]
    if gens is None:
        gens = sorted(set().union(*(e.free_symbols for e in exprs)),
                      key=lambda s: s.name)
    K = function_field(tuple(gens))
    if K is QQ:
        if not all(e.is_Rational for e in exprs):
            return None
        return K, [(QQ(e.p, e.q), QQ.one) for e in exprs]
    ring = K.field.ring
    index = {s: i for i, s in enumerate(K.symbols)}
    try:
        return K, [_fraction(e, ring, index) for e in exprs]
    except CoercionFailed:
        return None


def to_elements(exprs, gens=None):
    """Field elements of a sequence of expressions.

    The field is QQ(gens), with gens defaulting to the free symbols of
    all expressions sorted by name.  Returns (field, elements), or None
    when some expression is not a rational function of gens with
    rational coefficients (floats count as inexact, hence not rational).
    """
    converted = _fractions(exprs, gens)
    if converted is None:
        return None
    K, pairs = converted
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


def canonical_pair(e):
    """Normalized (numerator, denominator) pair of a rational expression.

    The fraction is in lowest terms, both parts expanded, and the sign
    fixed so the numerator's leading coefficient is positive under
    graded-lexicographic monomial order over its free symbols sorted by
    name.  sympy distributes a numeric factor over a sum, so a sum over
    a constant denominator d comes out as (sum / d, 1).
    """
    e = sp.sympify(e)
    converted = to_elements([e])
    if converted is None:
        return _expression_pair(e)
    K, (a,) = converted
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


def _expression_pair(e):
    """canonical_pair of an expression outside the rational function field."""
    num, den = sp.fraction(sp.cancel(sp.together(e)))
    num = sp.expand(num)
    den = sp.expand(den)
    if num == 0:
        return sp.Integer(0), sp.Integer(1)
    gens = list(free_variables(num))
    if gens:
        try:
            poly = sp.Poly(num, *gens)
            lead = poly.coeff_monomial(poly.monoms(order="grlex")[0])
        except sp.PolynomialError:
            lead = None
    else:
        lead = num
    if lead is not None and lead.is_number and lead.is_negative:
        num, den = sp.expand(-num), sp.expand(-den)
    return num, den


def canonicalize(e):
    """Canonical form of a rational expression (see :func:`canonical_pair`).

    Non-rational expressions are returned after best-effort simplification.
    """
    e = sp.sympify(e)
    variables = free_variables(e)
    if variables and not e.is_rational_function(*variables):
        return sp.simplify(e)
    num, den = canonical_pair(e)
    if den == 1:
        return num
    return num / den


def is_zero(e) -> Optional[bool]:
    """Three-valued zero test: True / False / None (undecided).

    Decisive for rational expressions and field elements (exact
    cancellation); best-effort simplification otherwise, never guessing.
    """
    if isinstance(e, FracElement):
        return not e
    e = sp.sympify(e)
    if e.is_Number:
        return bool(e == 0)
    converted = _fractions([e])
    if converted is not None:
        return not converted[1][0][0]
    variables = free_variables(e)
    if e.is_rational_function(*variables) and not e.has(sp.Float):
        return sp.cancel(sp.together(e)) == 0
    s = sp.simplify(e)
    if s == 0:
        return True
    if s.is_Number:
        return bool(s == 0)
    z = s.is_zero
    if z is True:
        return True
    if z is False:
        return False
    return None


def differentiate(e, var: sp.Symbol):
    """Partial derivative, returned in canonical form when rational.

    Opaque functions differentiate to formal ``Derivative`` objects via the
    chain rule, exactly as sympy defines them.
    """
    d = sp.diff(sp.sympify(e), var)
    if d.has(sp.Derivative):
        return d
    return canonicalize(d)


def solve_algebraic(equations: Iterable, unknowns: Sequence[sp.Symbol]):
    """Solve rational equations exactly for ``unknowns``.

    Returns a list of solution dicts (empty when no symbolic solution was
    found, which is weaker than "no solution exists").  Raises
    InconsistentSystemError for a provable contradiction and
    UnsupportedEquationError when an equation depends non-rationally on one
    of the unknowns.
    """
    unknowns = list(unknowns)
    exprs = []
    for eq in equations:
        e = eq.lhs - eq.rhs if isinstance(eq, sp.Equality) else sp.sympify(eq)
        for u in unknowns:
            if e.has(u) and not e.is_rational_function(u):
                raise UnsupportedEquationError(
                    "equation %s depends non-rationally on %s" % (e, u)
                )
        residual = sp.cancel(sp.together(e))
        if not residual.free_symbols and residual != 0:
            raise InconsistentSystemError(
                "equation %s = 0 is a contradiction" % residual
            )
        if residual != 0:
            exprs.append(residual)
    if not exprs:
        # every equation was an identity: no constraints on the unknowns
        return [{}]
    try:
        sols = sp.solve(exprs, unknowns, dict=True)
    except NotImplementedError:
        return []
    return sols


class RrefResult(NamedTuple):
    rref: sp.Matrix
    pivots: tuple
    nullspace: list


def _as_matrix(M) -> sp.Matrix:
    return M if isinstance(M, sp.MatrixBase) else sp.Matrix(M)


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


def _expression_rref(rows, ncols):
    """Gauss-Jordan elimination of expressions outside the rational
    function field.  Every pivot decision is a three-valued zero test;
    an undecided one raises IndeterminateRankError."""
    work = [[sp.cancel(e) for e in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        candidates = []
        for i in range(r, len(work)):
            z = is_zero(work[i][c])
            if z is None:
                raise IndeterminateRankError(
                    "cannot decide whether entry (%d, %d) = %s is zero"
                    % (i, c, work[i][c])
                )
            if z is False:
                candidates.append(i)
        if not candidates:
            continue
        i = candidates[0]
        work[r], work[i] = work[i], work[r]
        pivot = work[r][c]
        work[r] = [sp.cancel(e / pivot) for e in work[r]]
        for j in range(len(work)):
            factor = work[j][c]
            if j != r and is_zero(factor) is False:
                work[j] = [
                    sp.cancel(work[j][k] - factor * work[r][k]) for k in range(ncols)
                ]
        pivots.append(c)
    return work, tuple(pivots)


class _Expressions:
    """Stand-in for a field whose elements are sympy expressions."""

    zero = sp.Integer(0)
    one = sp.Integer(1)

    @staticmethod
    def to_sympy(e):
        return e


def _row_reduce(M):
    """(K, rref rows, pivots) of a matrix over the rational function field
    of its entries, or over expressions when they are not rational."""
    A = _as_matrix(M)
    nrows, ncols = A.shape
    converted = to_elements(list(A))
    if converted is None:
        rows, pivots = _expression_rref(A.tolist(), ncols)
        return _Expressions, rows, pivots
    K, elements = converted
    rows = [elements[i * ncols:(i + 1) * ncols] for i in range(nrows)]
    rows, pivots = element_rref(K, rows, ncols)
    return K, rows, pivots


def function_field_rref(M) -> RrefResult:
    """Reduced row echelon form over the rational function field.

    A rational matrix is reduced by ``DomainMatrix.rref`` over QQ(free
    symbols sorted by name), or over QQ when it has none.  The reduced
    form over a field is unique, so no pivoting rule is needed.  The
    result additionally carries the pivot columns and a nullspace basis
    (one column vector per free column).  Entries that are not rational
    functions are eliminated as expressions; IndeterminateRankError is
    raised when a pivot candidate's zero test is undecided.
    """
    A = _as_matrix(M)
    nrows, ncols = A.shape
    K, rows, pivots = _row_reduce(A)
    rref = sp.Matrix(nrows, ncols, [K.to_sympy(a) for row in rows for a in row])
    null_vectors = [
        sp.Matrix(ncols, 1, [K.to_sympy(a) for a in v])
        for v in element_nullspace(K, rows, pivots, ncols)
    ]
    return RrefResult(rref, pivots, null_vectors)


def generic_rank(M) -> int:
    """Rank over the function field (rank at a generic point)."""
    return len(_row_reduce(M)[2])


def nullspace(M) -> list:
    """Right nullspace basis over the function field."""
    return function_field_rref(M).nullspace


def evaluate_exact(e, point: dict):
    """Evaluate a rational expression at an exact rational point.

    The expression is reduced to lowest terms first, so a removable
    singularity is not a pole.  Symbols the point leaves open stay
    symbolic.  Raises ZeroDivisionError when the point is a pole.
    """
    converted = _fractions([e])
    if converted is not None:
        K, ((num, den),) = converted
        value = _evaluate_fraction(K, num, den, point, e)
        if value is not None:
            L, a = value
            return L.to_sympy(a) if L is QQ else sp.cancel(L.to_sympy(a))
    num, den = canonical_pair(e)
    den_val = den.subs(point)
    if den_val == 0:
        raise ZeroDivisionError("pole at %s in %s" % (point, e))
    num_val = num.subs(point)
    return sp.cancel(num_val / den_val)


def _evaluate_fraction(K, num, den, point, e):
    """num / den over K at point, as (L, value in L): L is QQ when point
    fixes every generator of K, else the field of the generators it
    leaves open.  None when a value point assigns is not a rational
    number.  The fraction is reduced only when its denominator vanishes;
    ZeroDivisionError is raised for a pole of e."""
    if K is QQ:
        return QQ, num
    fixed = []
    for gen, sym in zip(K.field.ring.gens, K.symbols):
        if sym in point:
            value = sp.sympify(point[sym])
            if not value.is_Rational:
                return None
            fixed.append((gen, QQ(value.p, value.q)))
    if not fixed:
        return K, K.field.new(num, den)
    num_val, den_val = num.evaluate(fixed), den.evaluate(fixed)
    if not den_val:
        reduced = K.field.new(num, den)
        num_val = reduced.numer.evaluate(fixed)
        den_val = reduced.denom.evaluate(fixed)
        if not den_val:
            raise ZeroDivisionError("pole at %s in %s" % (point, e))
    if len(fixed) == len(K.symbols):
        return QQ, num_val / den_val
    L = function_field(tuple(s for s in K.symbols if s not in point))
    ring = L.field.ring
    return L, L.field.new(num_val.set_ring(ring), den_val.set_ring(ring))


def rank_at_point(M, point: dict) -> int:
    """Exact rank of a matrix of rational expressions at a rational point.

    Symbols the point leaves open stay symbolic, and the rank is then
    the generic one in them.
    """
    A = _as_matrix(M)
    converted = _fractions(list(A))
    if converted is not None:
        K, pairs = converted
        values = [
            _evaluate_fraction(K, num, den, point, e)
            for (num, den), e in zip(pairs, A)
        ]
        if all(v is not None for v in values):
            L = values[0][0] if values else QQ
            rows = [
                [a for _, a in values[i * A.cols:(i + 1) * A.cols]]
                for i in range(A.rows)
            ]
            return len(element_rref(L, rows, A.cols)[1])
    return generic_rank(A.applyfunc(lambda e: evaluate_exact(e, point)))


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


def clear_denominators(row: Sequence) -> list:
    """Scale a row of rational expressions to an integer-primitive polynomial
    row with the first nonzero entry's leading coefficient positive (see
    :func:`clear_element_row`).  The span is unchanged away from the
    cleared denominator's zero set."""
    converted = to_elements(row)
    if converted is None:
        raise UnsupportedEquationError(
            "cannot clear the denominators of a non-rational row %s" % (list(row),)
        )
    K, elements = converted
    cleared, _ = clear_element_row(K, elements)
    return [K.to_sympy(a) for a in cleared]


def to_infix(e) -> str:
    """Canonical infix string of the model grammar (powers written with ^)."""
    return sp.sstr(canonicalize(e)).replace("**", "^")
