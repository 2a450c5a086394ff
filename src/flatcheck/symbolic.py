"""Exact symbolic arithmetic over rational function fields.

This is the one module that knows how a rational function is stored.
Every other module reaches the kernel only through the functions here
and through an element's truth value and equality: none imports from
``sympy.polys``, names ``QQ`` or ``ZZ``, reads an element's numerator,
denominator or ring, or calls its ``.as_expr()``.  A field is what
``function_field``, ``field`` (generators sorted by name) and
``field_of`` return, and elsewhere only its ``.symbols``, ``.zero`` and
``.one`` are read.  ``symbol`` makes the symbols of
generators and ``generators`` looks them up in a field, ``rational``
converts a number to the kernel's rationals, and ``GeneratorsError`` and
``CoercionFailed`` (defined in ``flatcheck.errors``) are the kernel's
errors.

sympy is not imported when this module is loaded, and no other module
imports it at all: the numbers, the symbols, the expressions and the
polynomials of the pipeline are this module's own.  Only ``_factors``
and ``_cofactors`` import sympy, its dense routines on the rare paths
described below.  Systems and expressions come in as text of the model
grammar only, read by ``flatcheck.modelfile``.

Invariant: every expression this module takes or returns is a rational
function with rational coefficients.  Inside this module such an
expression is an element of the field QQ(gens), a ``RationalFunction``
of the ``FunctionField`` that ``function_field`` makes once for each
tuple of generators: a numerator and a denominator, ``Polynomial``s of
the field's ring Z[gens], in lowest terms, without a common integer
factor and with the denominator's leading coefficient (in
lexicographic order) positive.  That is the one canonical pair of the
fraction, the pair that sympy's ``ZZ.frac_field`` keeps, so equal
functions have equal pairs, and the tests compare the two term for
term.  A polynomial is a dict from exponent tuples to nonzero Python
ints that is never changed once built, with only the operations that
this module calls: sums, products, integer powers, the derivative, the
exact quotient, degrees and the leading coefficient.  Its products add
monomials with one unrolled function for each number of generators,
compiled on the first product of that size.  No sympy ring, field or
polynomial is built.  A field without generators is a ``FunctionField``
too, whose elements are the constants.  A generator is a ``Symbol``,
one per name, which hashes as its name.  Every value at a point is the
kernel's rational number, a ``Rational`` (``QQ`` is their field), which
compares equal to sympy's Rational and to ``fractions.Fraction`` and
prints as they do: the parser's number tokens and equilibria,
``simulate``'s exact states and the entries of every rank test.
``rational`` is the one conversion to it, from text, ints, sympy
Rationals, Fractions and its own type; it refuses floats.  A point value
that is not a rational number raises UnsupportedEquationError.

How a pair is reduced.  Every fraction that needs a gcd goes through
one routine, ``_cofactors``: it returns the gcd of numerator and
denominator and both cofactors, the triple of sympy's
``PolyElement.cofactors``, and the sign is then fixed as sympy's
``cancel`` fixes it (``_coprime``), so the pair is the canonical one
above.  Zero and monomial operands take the shortcuts of sympy's
``cofactors``.  Otherwise each generator x that both polynomials use
is tested on univariate images: every other generator is set to a
fixed integer, the i-th prime for generator i.  If the image of either
polynomial keeps its degree in x and ``_heugcd`` (below) finds that the
two images have a constant gcd, x is not in the gcd (Brown's degree
bound); where it gives up, there is no proof.  When that holds for
every shared generator, the gcd is the gcd of the two integer
contents.  Anything else goes to ``_heugcd`` itself, the heuristic gcd
of Char, Geddes and Gonnet (1989), on plain dicts of integer
coefficients by exponent tuple over only the generators that the pair
uses; it takes sympy's ``heuristicgcd.heugcd``
step for step (the same evaluation points, balanced xi-adic
interpolation and exact-division checks), so it returns sympy's
triple, and the result is converted back once.  Where it gives up
after its six points, sympy's dense subresultant gcd
(``euclidtools.dmp_rr_prs_gcd``) reduces the same dicts, as dense lists
over the same generators, to their gcd with a positive leading
coefficient.  The solver factors an equation (``_factors``): one linear
in a generator whose coefficient of it and rest have a constant gcd is
irreducible and is its own factor, and any other is factored by sympy's
``factortools.dmp_factor_list`` on its dense list over all generators
of its ring.  These two dense routines are all that the kernel calls of
``sympy.polys``, and only they import it.  The kernel's polynomials reduce
nothing on their own: ``derivative`` and ``compose_derivative`` take
the derivative of p / q as the unreduced pair (p' q - p q', q**2), or
(p', q) where q is free of the generator, and reduce it once,
``difference`` subtracts over one denominator, and
``defining_equations`` builds the s - v of a coordinate change, which
is in lowest terms already, without a gcd.

Elements come in without an expression: the model parser builds them
with the gcd-free arithmetic of ``Fractions``.  ``rename`` and
``compose`` move elements between fields and coordinates; ``compose``
renames, without a gcd, when its images only rename generators.  Every
sum of products that is kept is built over one denominator and takes
one gcd: ``dot``, the entries of ``element_rref`` and those of
``derivative_mod_rows``, which folds the derivative into the same sum.
``depends_on`` decides from the canonical pair, without a derivative or
a gcd.  The matrix API works on elements: ``element_rref``,
``element_nullspace``, ``derivative_mod_rows``, ``element_rank``,
``element_values``, ``jacobian_at``,
``certificate_jacobian``, ``jacobian_rank``, ``jacobian_ranks``,
``clear_element_row``, and ``clear_fraction_row`` for a row of
numerators over one denominator, which ``combine_rows`` sums and
``fraction_row`` reads back.  ``element_rref`` is the one row
reduction, a Gauss-Jordan loop over QQ and over function fields alike;
no sympy matrix type is used.  ``rational_rank`` and
``unit_completion`` work on rows of rational numbers, and
``annihilating_polynomials`` solves the rational conditions of a
polynomial ansatz over QQ.  ``to_infix`` prints an element straight
from its canonical numerator and denominator, in plain Python, the
string that sympy's ``str`` prints for its canonical form (the rules
are in its docstring); it builds no expression and calls no sympy
printer, and every error message prints its elements with it.
Expressions are built only where they are read, for the numeric replay
and ``simulate``: ``expression`` builds the one that sympy's
``.as_expr()`` builds for the element's pair, ``canonicalize_element``
that of its canonical form, and the model parser builds
``system.update`` with ``Expressions``, the counterpart of
``Fractions``.  An expression is this module's own tree of the model
grammar: ``Rational`` numbers, ``Symbol``s, sums (``Add``), products
(``Mul``) and integer powers (``Pow``), which evaluate as sympy's
constructors evaluate them, so each has the structure of sympy's own
expression, argument for argument; the rules are in the docstring of
``Expressions``.
``float_function`` compiles expressions to one float function for the
replay and ``simulate``: it prints them, without sympy, into the source
that ``lambdify`` with the math module writes for sympy's, the terms and
factors in the order of sympy's ``sort_key`` (``_sort_key``), and
executes it, so the floats are lambdify's; the printing rules are in
the docstrings of ``_float_text`` and its helpers.

``solve_elements`` solves by exact elimination in the fraction field,
one unknown at a time in the caller's order, each from an equation
linear in it, the one whose coefficient of it has the fewest terms;
it factors an equation when none is linear, and checks every branch
exactly; only rational branches are returned.  When no equation left
has a linear factor or is univariate, it gives up and says so
(``UnsolvedEquationsError``) rather than return no branch.
``branch_through`` picks the solved branch that takes at a point the
values the point gives its unknowns, and ``invert`` keeps that branch
of a solved coordinate change, its local inverse where its Jacobian is
regular at the point.  Neither returns "no branch": where none passes
through the point, each raises UnsupportedEquationError, so a caller
handles every failure to pick a branch (none rational, the solver gave
up, none through the point) as one error with its reason.

Generic ranks are certified exactly, never guessed.  The rank at a
rational point where every entry is defined is at most the generic
rank, which is at most min(rows, cols), so a full rank at one fixed
rational point is the generic rank; on a pole or a rank that falls
short, ``element_rank`` and ``jacobian_rank`` row reduce over the
function field instead.  Both use one point, which
``certificate_jacobian`` evaluates at too: fixed nonzero integers for
the generators the entries use, in name order, so generators they do
not use do not move it.  ``jacobian_ranks`` and ``unit_completion``
apply the same rule at a caller's point, and ``jacobian_at`` evaluates
the Jacobian from the partial derivatives of numerator and denominator,
without building it symbolically.  All functions are pure.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import keyword
import math
import operator
import re
import sys

from .errors import (
    CoercionFailed,
    GeneratorsError,
    HeuristicGCDFailed,
    InconsistentSystemError,
    IrrationalSolutionError,
    UnsolvedEquationsError,
    UnsupportedEquationError,
)


class Symbol:
    """A generator of a function field, identified by its name: there is
    one symbol per name (:func:`symbol`), so two symbols are equal when
    they are the same object.  It prints and hashes as its name."""

    __slots__ = ("name", "_hash")

    def __new__(cls, name):
        s = _SYMBOLS.get(name)
        if s is None:
            s = _SYMBOLS[name] = object.__new__(cls)
            s.name, s._hash = name, hash(name)
        return s

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self.name

    __str__ = __repr__

    def __reduce__(self):
        return Symbol, (self.name,)


_SYMBOLS = {}


def symbol(name):
    """The symbol of a generator called name."""
    return Symbol(name)


_HASH_MODULUS, _HASH_INF = sys.hash_info.modulus, sys.hash_info.inf


class Rational:
    """A rational number numerator / denominator in lowest terms with a
    positive denominator, the kernel's one number type: the values at
    every point, the entries of every rank test and the numbers of
    expressions.  Arithmetic takes Rationals and ints and reduces each
    result with the cross gcds of its operands; comparisons also take any
    number with integer ``numerator`` and ``denominator`` (a Fraction or
    a sympy Rational).  It hashes as ``fractions.Fraction`` and int do,
    and prints as ``p/q``, or ``p`` when q is 1."""

    __slots__ = ("numerator", "denominator")

    def __new__(cls, numerator, denominator=1):
        if not denominator:
            raise ZeroDivisionError("%d/0" % numerator)
        g = math.gcd(numerator, denominator)
        if denominator < 0:
            g = -g
        return _rational(numerator // g, denominator // g)

    def __bool__(self):
        return bool(self.numerator)

    def __float__(self):
        return self.numerator / self.denominator

    def __hash__(self):
        try:
            inverse = pow(self.denominator, -1, _HASH_MODULUS)
        except ValueError:
            h = _HASH_INF
        else:
            h = hash(hash(abs(self.numerator)) * inverse)
        h = h if self.numerator >= 0 else -h
        return -2 if h == -1 else h

    def __eq__(self, other):
        if type(other) is int:
            return self.denominator == 1 and self.numerator == other
        try:
            return (self.numerator == other.numerator
                    and self.denominator == other.denominator)
        except AttributeError:
            return NotImplemented

    def _compare(self, other, op):
        if type(other) is not Rational and not isinstance(other, int):
            return NotImplemented
        return op(self.numerator * other.denominator, other.numerator * self.denominator)

    def __lt__(self, other):
        return self._compare(other, operator.lt)

    def __le__(self, other):
        return self._compare(other, operator.le)

    def __gt__(self, other):
        return self._compare(other, operator.gt)

    def __ge__(self, other):
        return self._compare(other, operator.ge)

    def __neg__(self):
        return _rational(-self.numerator, self.denominator)

    def __abs__(self):
        return _rational(abs(self.numerator), self.denominator)

    def __add__(self, other):
        p, q = self.numerator, self.denominator
        if type(other) is Rational:
            r, s = other.numerator, other.denominator
            g = math.gcd(q, s)
            if g == 1:
                return _rational(p * s + q * r, q * s)
            q, s = q // g, s // g
            num = p * s + r * q
            h = math.gcd(num, g)
            return _rational(num // h, q * s * (g // h))
        if isinstance(other, int):
            return _rational(p + q * other, q)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is Rational:
            p, q = self.numerator, self.denominator
            r, s = other.numerator, other.denominator
            g = math.gcd(q, s)
            if g == 1:
                return _rational(p * s - q * r, q * s)
            q, s = q // g, s // g
            num = p * s - r * q
            h = math.gcd(num, g)
            return _rational(num // h, q * s * (g // h))
        if isinstance(other, int):
            return _rational(self.numerator - self.denominator * other, self.denominator)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, int):
            return _rational(self.denominator * other - self.numerator, self.denominator)
        return NotImplemented

    def __mul__(self, other):
        p, q = self.numerator, self.denominator
        if type(other) is Rational:
            r, s = other.numerator, other.denominator
            g, h = math.gcd(p, s), math.gcd(r, q)
            return _rational((p // g) * (r // h), (q // h) * (s // g))
        if isinstance(other, int):
            g = math.gcd(other, q)
            return _rational(p * (other // g), q // g)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is Rational:
            r, s = other.numerator, other.denominator
        elif isinstance(other, int):
            r, s = other, 1
        else:
            return NotImplemented
        if not r:
            raise ZeroDivisionError("division by zero")
        if r < 0:
            r, s = -r, -s
        p, q = self.numerator, self.denominator
        g, h = math.gcd(p, r), math.gcd(s, q)
        return _rational((p // g) * (s // h), (q // h) * (r // g))

    def __rtruediv__(self, other):
        if isinstance(other, int):
            return _rational(other, 1) / self
        return NotImplemented

    def __pow__(self, k):
        """self to the integer k; ZeroDivisionError for 0 to a negative k."""
        p, q = self.numerator, self.denominator
        if k < 0:
            if not p:
                raise ZeroDivisionError("0 to a negative power")
            p, q, k = q, p, -k
            if q < 0:
                p, q = -p, -q
        return _rational(p**k, q**k)

    def __repr__(self):
        if self.denominator == 1:
            return "%d" % self.numerator
        return "%d/%d" % (self.numerator, self.denominator)

    __str__ = __repr__

    def __reduce__(self):
        return Rational, (self.numerator, self.denominator)


def _rational(numerator, denominator):
    """The Rational numerator / denominator, already in lowest terms with a
    positive denominator."""
    q = object.__new__(Rational)
    q.numerator, q.denominator = numerator, denominator
    return q


class _RationalField:
    """The field QQ of the kernel's rationals: ``QQ(p, q)`` is p/q, and
    ``element_rref`` and ``clear_element_row`` take it for a field."""

    zero, one = _rational(0, 1), _rational(1, 1)

    def __call__(self, numerator, denominator=1):
        return Rational(numerator, denominator)


QQ = _RationalField()
_ZERO, _ONE = QQ.zero, QQ.one

# the decimal numbers of the model grammar, optionally signed
_DECIMAL = re.compile(r"([-+]?)([0-9]*)(?:\.([0-9]*))?", re.ASCII)


def rational(value):
    """value as the kernel's rational number: a text that sympy's
    ``Rational`` reads (ValueError, TypeError or ZeroDivisionError when it
    reads none), an int, a kernel rational or another number with integer
    ``numerator`` and ``denominator`` (a sympy Rational or a Fraction).
    TypeError for a float or anything else."""
    if type(value) is Rational:
        return value
    if isinstance(value, str):
        return _parse_rational(value)
    if isinstance(value, int):
        return _rational(int(value), 1)
    numerator, denominator = (getattr(value, "numerator", None),
                              getattr(value, "denominator", None))
    if isinstance(numerator, int) and isinstance(denominator, int):
        return Rational(int(numerator), int(denominator))
    raise TypeError("%r is not a rational number" % (value,))


def _parse_rational(text):
    """The rational number that sympy's ``Rational`` reads from text: a
    decimal directly, anything else as ``fractions.Fraction`` reads it
    once every space is removed, with one ``/`` at most."""
    match = _DECIMAL.fullmatch(text)
    if match and (match[2] or match[3]):
        sign, whole, digits = match[1], match[2], match[3] or ""
        numerator = int(whole + digits or "0")
        return Rational(-numerator if sign == "-" else numerator, 10**len(digits))
    from fractions import Fraction

    if text.count("/") > 1:
        raise TypeError("invalid input: %s" % text)
    text = text.replace(" ", "")
    if "/" in text:
        p, q = text.rsplit("/", 1)
        value = Fraction(p) / Fraction(q)
    else:
        try:
            value = Fraction(text)
        except ValueError:
            raise TypeError("invalid input: %s" % text) from None
    return Rational(value.numerator, value.denominator)


@functools.cache
def _monomial_product(ngens):
    """The product of two monomials of ngens generators, exponent tuples,
    as one unrolled function, compiled on the first product of that
    size; a constant function without generators."""
    if not ngens:
        return lambda a, b: ()
    a = ", ".join("a%d" % i for i in range(ngens))
    b = ", ".join("b%d" % i for i in range(ngens))
    sums = ", ".join("a%d + b%d" % (i, i) for i in range(ngens))
    namespace = {}
    exec("def product(a, b):\n    %s, = a\n    %s, = b\n    return (%s,)\n" % (a, b, sums),
         namespace)
    return namespace["product"]


class Polynomial(dict):
    """A polynomial with integer coefficients: a dict from exponent tuples,
    one exponent per generator of its ring, to nonzero Python ints.  Each
    ring has a subclass of its own whose class attribute ``ring`` is the
    ring.  Two polynomials are equal when they are of one ring and have
    the same terms.  A polynomial is never changed after it is built, so
    it hashes by its ring and terms."""

    __slots__ = ()
    ring = None

    # the (monomial, coefficient) pairs, the monomials and the coefficients
    iterterms, itermonoms, itercoeffs = dict.items, dict.keys, dict.values

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and other.ring is self.ring
                and dict.__eq__(self, other))

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash((self.ring, frozenset(self.items())))

    def __repr__(self):
        return "Polynomial(%s)" % dict.__repr__(self)

    @property
    def LC(self):
        """The leading coefficient in lexicographic order; 0 for zero."""
        return self[max(self)] if self else 0

    @property
    def is_ground(self):
        return not self or (len(self) == 1 and self.ring.zero_monom in self)

    @property
    def is_one(self):
        return len(self) == 1 and self.get(self.ring.zero_monom) == 1

    def degrees(self) -> tuple:
        """The degree in each generator; -inf for every one of zero."""
        if not self:
            return (-math.inf,) * self.ring.ngens
        return tuple(map(max, zip(*self)))

    def degree(self, i):
        """The degree in the generator at index i; -inf for zero."""
        return max(m[i] for m in self) if self else -math.inf

    def __neg__(self):
        return type(self)({m: -c for m, c in self.items()})

    def __add__(self, other):
        if not other:
            return self
        total = type(self)(self)
        get = total.get
        for m, c in other.items():
            c += get(m, 0)
            if c:
                total[m] = c
            else:
                del total[m]
        return total

    def __sub__(self, other):
        if not other:
            return self
        total = type(self)(self)
        get = total.get
        for m, c in other.items():
            c = get(m, 0) - c
            if c:
                total[m] = c
            else:
                del total[m]
        return total

    def __mul__(self, other):
        product = type(self)()
        if not self or not other:
            return product
        add = _monomial_product(self.ring.ngens)
        get = product.get
        for m, c in self.items():
            for n, d in other.items():
                k = add(m, n)
                product[k] = get(k, 0) + c * d
        for k in [k for k, c in product.items() if not c]:
            del product[k]
        return product

    def __pow__(self, k):
        """self to the integer k >= 0, by repeated squaring; 1 for k = 0,
        also for self = 0."""
        if not k:
            return self.ring.one
        if len(self) == 1:
            (m, c), = self.items()
            return type(self)({tuple(e * k for e in m): c**k})
        result, base = None, self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def mul_term(self, term):
        """self times the term (monomial, coefficient)."""
        monom, coeff = term
        if not self or not coeff:
            return type(self)()
        add = _monomial_product(self.ring.ngens)
        return type(self)({add(m, monom): c * coeff for m, c in self.items()})

    def quo_ground(self, c):
        """self divided by the integer c, which divides every coefficient."""
        if c == 1:
            return self
        return type(self)({m: v // c for m, v in self.items()})

    def exquo(self, divisor):
        """self divided by the polynomial divisor, which divides it exactly."""
        quotient = _exact_quotient(self, divisor)
        if quotient is None:
            raise ArithmeticError("%r does not divide %r" % (divisor, self))
        return type(self)(quotient)

    def diff(self, i):
        """The derivative in the generator at index i."""
        return type(self)({m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i]
                           for m, c in self.items() if m[i]})

    def coeff_wrt(self, i, degree):
        """The coefficient of the i-th generator to the degree, as a
        polynomial of this ring without that generator."""
        return type(self)({m[:i] + (0,) + m[i + 1:]: c for m, c in self.items()
                           if m[i] == degree})


class PolynomialRing:
    """The ring Z[symbols] of :class:`Polynomial`, one for each
    :class:`FunctionField`."""

    def __init__(self, symbols):
        self.symbols, self.ngens = symbols, len(symbols)
        self.zero_monom = (0,) * self.ngens
        self.dtype = type("Polynomial", (Polynomial,), {"__slots__": (), "ring": self})
        self.zero = self.dtype()
        self.one = self.dtype({self.zero_monom: 1})
        self.gens = tuple(self.dtype({self.zero_monom[:i] + (1,) + self.zero_monom[i + 1:]: 1})
                          for i in range(self.ngens))

    def __repr__(self):
        return "PolynomialRing(%s)" % ", ".join(map(str, self.symbols))

    def from_dict(self, terms):
        """The polynomial of the dict terms, whose coefficients are nonzero."""
        return self.dtype(terms)

    def ground_new(self, c):
        """The constant polynomial c, for an integer c."""
        return self.dtype({self.zero_monom: c} if c else {})


class RationalFunction:
    """An element of a :class:`FunctionField`: the quotient numer / denom
    of two polynomials of the field's ring, in lowest terms, without a
    common integer factor and with denom's leading coefficient positive
    (see the module docstring).  Built only by this module's functions.
    Equal elements of one field have equal pairs, so two elements are
    equal when they are of one field and have equal pairs, and they hash
    by field and pair."""

    __slots__ = ("field", "numer", "denom")

    def __init__(self, field, numer, denom):
        self.field, self.numer, self.denom = field, numer, denom

    def __bool__(self):
        return bool(self.numer)

    def __eq__(self, other):
        return (isinstance(other, RationalFunction) and other.field is self.field
                and self.numer == other.numer and self.denom == other.denom)

    def __hash__(self):
        return hash((self.field, self.numer, self.denom))

    def __neg__(self):
        return RationalFunction(self.field, -self.numer, self.denom)

    def __repr__(self):
        return "RationalFunction(%s)" % to_infix(self)


class FunctionField:
    """The field QQ(symbols) of :class:`RationalFunction`, over the ring
    Z[symbols]; one per symbols tuple (:func:`function_field`)."""

    def __init__(self, symbols):
        self.symbols, self.ngens = symbols, len(symbols)
        self.ring = ring = PolynomialRing(symbols)
        self.zero = RationalFunction(self, ring.zero, ring.one)
        self.one = RationalFunction(self, ring.one, ring.one)
        self.gens = tuple(RationalFunction(self, g, ring.one) for g in ring.gens)

    def __repr__(self):
        return "FunctionField(%s)" % ", ".join(map(str, self.symbols))


@functools.cache
def function_field(gens: tuple):
    """The field QQ(gens) of a tuple of :class:`Symbol` generators, gens
    empty included, its elements stored as :class:`RationalFunction`:
    elements compare their fields by identity, so the cache keeps one
    field per tuple of generators for the life of the process."""
    return FunctionField(gens)


def field_of(elements):
    """The one function field of the nonempty elements; ValueError when
    they come from different fields."""
    first, *rest = elements
    if any(a.field is not first.field for a in rest):
        raise ValueError("components from different function fields")
    return first.field


def field(symbols):
    """The field QQ(symbols) with its generators sorted by name."""
    return function_field(tuple(sorted(symbols, key=lambda s: s.name)))


def generators(K, symbols) -> list:
    """The generators of the field K named by symbols, as elements of K."""
    index = {s: i for i, s in enumerate(K.symbols)}
    return [K.gens[index[s]] for s in symbols]


class Fractions:
    """Arithmetic on fractions over the field K = QQ(gens): (numerator,
    denominator) pairs of polynomials of its ring, built without any gcd.

    A sum over one denominator adds the numerators, any other sum and
    every product multiply out, and a negative power swaps the parts, so
    a pair need not be in lowest terms; ``element`` reduces it once.
    The model parser builds its elements and equilibrium values with
    these operations.  Raises CoercionFailed for a symbol that is not a
    generator of K and for a division by zero.
    """

    def __init__(self, K):
        self.field, self.ring = K, K.ring
        self.index = {s: i for i, s in enumerate(K.symbols)}

    def element(self, pair):
        """The pair as an element of K, in lowest terms."""
        return _element(self.field, *pair)

    def number(self, q):
        """The rational number q, a kernel rational."""
        return self.ring.ground_new(q.numerator), self.ring.ground_new(q.denominator)

    def symbol(self, s):
        if s not in self.index:
            raise CoercionFailed(s)
        return self.ring.gens[self.index[s]], self.ring.one

    @staticmethod
    def add(x, y):
        return _fused_sum([x, y])

    @staticmethod
    def neg(x):
        return -x[0], x[1]

    @staticmethod
    def mul(x, y):
        return x[0] * y[0], x[1] * y[1]

    @staticmethod
    def power(x, k):
        """x to the integer k; x**0 is 1, even for x = 0, as in sympy."""
        num, den = x
        if k < 0:
            if not num:
                raise CoercionFailed("division by zero")
            num, den, k = den, num, -k
        return num**k, den**k


class Add:
    """The sum constant + sum c*s over the dict terms, as sympy's ``Add``
    evaluates it: a Rational constant, and for each term s, a symbol, a
    power or a product without a coefficient, its nonzero Rational
    coefficient c; at least two terms, the constant counted when nonzero.
    Two sums are equal when they have the same constant and terms."""

    __slots__ = ("constant", "terms", "_hash")

    def __init__(self, constant, terms):
        self.constant, self.terms, self._hash = constant, terms, None

    def __eq__(self, other):
        if type(other) is not Add:
            return _unequal(other)
        return self.constant == other.constant and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(("Add", self.constant, frozenset(self.terms.items())))
        return self._hash

    @property
    def args(self) -> list:
        """The constant, when nonzero, and the terms c*s."""
        terms = [_term(c, s) for s, c in self.terms.items()]
        return [self.constant] + terms if self.constant else terms

    def __repr__(self):
        return _text(self)

    __str__ = __repr__


class Mul:
    """The product coeff * prod b**k over the dict factors, as sympy's
    ``Mul`` evaluates it: a nonzero Rational coefficient, and for each
    base b, a symbol or a sum, its nonzero integer exponent k; at least
    two factors, the coefficient counted when it is not 1, and never a
    coefficient times a sum alone, which is distributed.  Two products
    are equal when they have the same coefficient and factors."""

    __slots__ = ("coeff", "factors", "_hash")

    def __init__(self, coeff, factors):
        self.coeff, self.factors, self._hash = coeff, factors, None

    def __eq__(self, other):
        if type(other) is not Mul:
            return _unequal(other)
        return self.coeff == other.coeff and self.factors == other.factors

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(("Mul", self.coeff, frozenset(self.factors.items())))
        return self._hash

    @property
    def args(self) -> list:
        """The coefficient, when it is not 1, and the factors b or b**k."""
        factors = [_power(b, k) for b, k in self.factors.items()]
        return factors if self.coeff == 1 else [self.coeff] + factors

    def __repr__(self):
        return _text(self)

    __str__ = __repr__


class Pow:
    """The power base**exp of a symbol or a sum to an integer other than 0
    and 1, as sympy's ``Pow`` keeps it."""

    __slots__ = ("base", "exp", "_hash")

    def __init__(self, base, exp):
        self.base, self.exp, self._hash = base, exp, None

    def __eq__(self, other):
        if type(other) is not Pow:
            return _unequal(other)
        return self.exp == other.exp and self.base == other.base

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(("Pow", self.base, self.exp))
        return self._hash

    def __repr__(self):
        return _text(self)

    __str__ = __repr__


_EXPRESSION_TYPES = (Rational, Symbol, Add, Mul, Pow)


def _unequal(other):
    """The comparison of an expression with an expression of another type,
    False, or with anything else, left to it."""
    return False if type(other) in _EXPRESSION_TYPES else NotImplemented


_MINUS_ONE = _rational(-1, 1)


class Expressions:
    """Arithmetic on the expressions of this module, with the same actions
    as :class:`Fractions`: the model parser builds ``system.update`` with
    them, and :func:`expression` builds an element's expression.  Each
    operation evaluates as sympy's operator evaluates it on commutative
    operands with rational numbers and integer exponents, so the
    expressions, and the source that :func:`float_function` prints for
    them, are sympy's:

    - a sum flattens the sums among its operands, adds up their rational
      numbers into the constant and the coefficients of equal terms, and
      drops the zero ones (``Add.flatten``);
    - a product multiplies the rational numbers into the coefficient and
      adds up the exponents of equal bases, dropping the zero ones; a
      coefficient times one sum is distributed over its terms, also
      where the other factors cancel (``Mul.flatten``, whose two-operand
      rule distributes a rational number over a sum too);
    - a power multiplies the exponents of a power and distributes over a
      product (``Pow``), and the negation is the product with -1.

    A power of zero to a negative exponent raises CoercionFailed, where
    sympy builds ``zoo``.
    """

    number = staticmethod(lambda q: q)
    symbol = staticmethod(lambda s: s)

    @staticmethod
    def add(x, y):
        return _sum([x, y])

    @staticmethod
    def neg(x):
        return Expressions.mul(_MINUS_ONE, x)

    @staticmethod
    def mul(x, y):
        if type(y) is Rational:
            x, y = y, x
        if type(x) is Rational and x and type(y) is Add:
            return _scaled(x, y)
        return _prod([x, y])

    @staticmethod
    def power(x, k):
        """x to the integer k; x**0 is 1, even for x = 0, as in sympy."""
        if not k:
            return _ONE
        if k == 1:
            return x
        if type(x) is Rational:
            if not x and k < 0:
                raise CoercionFailed("division by zero")
            return x**k
        coeff, factors = _coeff_factors(x)
        return _from_factors(coeff**k, {b: e * k for b, e in factors.items()})


def _coeff_factors(e) -> tuple:
    """The coefficient and the factors of the expression e: a Rational and
    a dict of the exponent of each base, a symbol or a sum."""
    t = type(e)
    if t is Mul:
        return e.coeff, e.factors
    if t is Pow:
        return _ONE, {e.base: e.exp}
    if t is Rational:
        return e, {}
    return _ONE, {e: 1}


def _power(base, k):
    """base**k for a base, a symbol or a sum, and an integer k other than 0."""
    return base if k == 1 else Pow(base, k)


def _from_factors(coeff, factors):
    """The product of the Rational coeff and of the bases in the dict
    factors to their nonzero exponents, as ``Mul.flatten`` ends it: zero
    for a zero coefficient, a coefficient times a sum alone distributed
    (:func:`_scaled`), and one factor without a coefficient on its own."""
    if not coeff or not factors:
        return coeff
    if len(factors) == 1:
        (base, k), = factors.items()
        if coeff == 1:
            return _power(base, k)
        if k == 1 and type(base) is Add:
            return _scaled(coeff, base)
    return Mul(coeff, factors)


def _prod(args):
    """The product of the expressions args as ``Mul.flatten`` evaluates it
    for more than two operands, or for two without a rational number and
    a sum: the coefficients are multiplied and the exponents of equal
    bases added (:func:`_from_factors`)."""
    coeff, factors = _ONE, {}
    for a in args:
        c, f = _coeff_factors(a)
        coeff = coeff * c
        for base, k in f.items():
            factors[base] = factors.get(base, 0) + k
    return _from_factors(coeff, {b: k for b, k in factors.items() if k})


def _term(c, s):
    """The term c*s of a sum, for a nonzero Rational c and a symbol, a
    power or a product without a coefficient s."""
    return s if c == 1 else Mul(c, _coeff_factors(s)[1])


def _sum(args):
    """The sum of the expressions args as ``Add.flatten`` evaluates it: sums
    are flattened, the rational numbers added into the constant and the
    coefficients of equal terms collected, and the zero ones dropped."""
    constant, terms = _ZERO, {}
    for a in args:
        t = type(a)
        if t is Rational:
            constant += a
            continue
        if t is Add:
            constant += a.constant
            items = a.terms.items()
        elif t is Mul:
            items = [(_from_factors(_ONE, a.factors), a.coeff)]
        else:
            items = [(a, _ONE)]
        for s, c in items:
            terms[s] = terms[s] + c if s in terms else c
    terms = {s: c for s, c in terms.items() if c}
    if not terms:
        return constant
    if len(terms) == 1 and not constant:
        (s, c), = terms.items()
        return _term(c, s)
    return Add(constant, terms)


def _scaled(a, b):
    """a*b for a nonzero Rational a and a sum b: a distributed over the
    constant and the terms of b."""
    if a == 1:
        return b
    return Add(a * b.constant, {s: a * c for s, c in b.terms.items()})


def _symbols_of(e) -> set:
    """The symbols of an expression of this module."""
    t = type(e)
    if t is Symbol:
        return {e}
    if t is Add:
        return set().union(*map(_symbols_of, e.terms))
    if t is Mul:
        return set().union(*map(_symbols_of, e.factors))
    if t is Pow:
        return _symbols_of(e.base)
    return set()


def _polynomial_expression(poly):
    """The expression of a polynomial that sympy's ``PolyElement.as_expr()``
    builds for the same terms: the sum of its terms, each its coefficient
    times the powers of the generators."""
    symbols = poly.ring.symbols
    return _sum([_from_factors(_rational(c, 1), {g: e for g, e in zip(symbols, monom) if e})
                 for monom, c in poly.iterterms()])


def _quotient_expression(P, Q):
    """The expression P / Q of the polynomials P and Q, each built as
    :func:`_polynomial_expression` builds it, divided as sympy divides
    them: P * Q**-1."""
    return Expressions.mul(_polynomial_expression(P),
                           Expressions.power(_polynomial_expression(Q), -1))


def expression(a):
    """The expression of the element a of a function field, the one that
    sympy's ``FracElement.as_expr()`` builds for its pair (numerator over
    denominator), built with :class:`Expressions`."""
    return _quotient_expression(a.numer, a.denom)


# the class keys of sympy's sort_key for a number, a symbol, a product and
# a sum, and the key of the number 1
_NUMBER_CLASS, _SYMBOL_CLASS, _MUL_CLASS, _ADD_CLASS = (
    (1, 0, "Number"), (2, 0, "Symbol"), (3, 0, "Mul"), (3, 1, "Add"))
_ONE_KEY = (_NUMBER_CLASS, (0, ()), (), _ONE)


def _sort_key(e) -> tuple:
    """sympy's ``sort_key`` of the expression e, the order of the terms and
    factors that sympy prints: (class key, (count, keys of the
    arguments), key of the exponent, coefficient) of e's part without its
    coefficient, and of the base of a power, as ``Expr.sort_key`` builds
    it; a number sorts by its value, before any symbol, a symbol by its
    name, and a sum and a product by their printed arguments."""
    t = type(e)
    if t is Rational:
        return _NUMBER_CLASS, (0, ()), (), e
    coeff, rest = (e.coeff, _from_factors(_ONE, e.factors)) if t is Mul else (_ONE, e)
    exp = _ONE_KEY
    if type(rest) is Pow:
        exp, rest = (_NUMBER_CLASS, (0, ()), (), rest.exp), rest.base
    if type(rest) is Symbol:
        return _SYMBOL_CLASS, (1, (rest.name,)), exp, coeff
    if type(rest) is Add:
        cls, keys = _ADD_CLASS, tuple(map(_sort_key, _ordered_terms(rest)))
    else:
        cls, keys = _MUL_CLASS, tuple(map(_sort_key, _ordered_factors(rest)))
    return cls, (len(keys), keys), exp, coeff


def _ordered_factors(e) -> list:
    """sympy's ``as_ordered_factors`` of the product e: its arguments by
    :func:`_sort_key`, the coefficient first."""
    return sorted(e.args, key=_sort_key)


def _ordered_terms(e) -> list:
    """sympy's ``as_ordered_terms`` of the sum e.  A positive constant and
    one term c*b with c < 0 and b a symbol or a power keep that order
    (``1 - x``).  Otherwise the terms are in descending lexicographic
    order of their exponents over the bases of all terms, which are
    sorted by :func:`_sort_key`; the constant's exponents are zero."""
    if e.constant > 0 and len(e.terms) == 1:
        (s, c), = e.terms.items()
        if c < 0 and type(s) is not Mul:
            return e.args
    terms = [(a, _coeff_factors(a)[1]) for a in e.args]
    bases = sorted({b for _, factors in terms for b in factors}, key=_sort_key)
    terms.sort(key=lambda term: [-term[1].get(b, 0) for b in bases])
    return [a for a, _ in terms]


# sympy.printing.precedence's levels of a sum, a product, a power and an atom
_ADD, _MUL, _POW, _ATOM = 40, 50, 60, 1000


def _precedence(e):
    """The precedence that sympy's printers give e: a product with a
    negative coefficient and a negative number bind as a sum."""
    t = type(e)
    if t is Add:
        return _ADD
    if t is Mul:
        return _ADD if e.coeff < 0 else _MUL
    if t is Pow:
        return _POW
    if t is Rational:
        return _ADD if e.numerator < 0 else _ATOM if e.denominator == 1 else _MUL
    return _ATOM


def _parenthesize(e, level, names):
    text = _float_text(e, names)
    return "(%s)" % text if _precedence(e) <= level else text


def _float_text(e, names):
    """e as lambdify's ``LambdaPrinter`` prints it for the math module,
    each argument symbol by its name in names.  Raises
    UnsupportedEquationError for a symbol that names lacks."""
    t = type(e)
    if t is Rational:
        return str(e)
    if t is Symbol:
        if e in names:
            return names[e]
        raise UnsupportedEquationError("the float replay cannot evaluate %s (Symbol)" % e)
    if t is Add:
        return _float_sum(e, names)
    if t is Mul:
        return _float_product(e, names)
    if e.exp == -1:
        return "1/%s" % _parenthesize(e.base, _POW, names)
    return "%s**%s" % (_parenthesize(e.base, _POW, names),
                       e.exp if e.exp > 0 else "(%d)" % e.exp)


def _text(e) -> str:
    """e printed as :func:`_float_text` prints it, every symbol by its name."""
    return _float_text(e, {s: s.name for s in _symbols_of(e)})


def _float_sum(e, names):
    """``StrPrinter._print_Add``: the terms in sympy's printing order,
    each term's leading minus sign pulled out as the operator."""
    parts = []
    for term in _ordered_terms(e):
        t = _float_text(term, names)
        parts += ["-", t[1:]] if t.startswith("-") else ["+", t]
    sign = parts.pop(0)
    return ("" if sign == "+" else sign) + " ".join(parts)


def _float_product(e, names):
    """``CodePrinter._print_Mul``: a negative coefficient is printed as a
    leading minus sign, and the factors with a negative exponent go
    under one division sign, in sympy's factor order."""
    level = _precedence(e)
    factors = _ordered_factors(e)
    sign = ""
    if e.coeff < 0:
        sign = "-"
        factors = factors[1:]
        if e.coeff != -1:
            factors.insert(0, -e.coeff)
    numerator, denominator = [], []
    for f in factors:
        if type(f) is Pow and f.exp < 0:
            if f.exp == -1:
                denominator.append(_parenthesize(f.base, level, names))
            else:
                denominator.append("%s**%d" % (_parenthesize(f.base, _POW, names), -f.exp))
        else:
            numerator.append(f)
    numerator = numerator or [_ONE]
    if len(numerator) == 1 and sign:
        text = sign + _parenthesize(numerator[0], (_POW + _MUL) / 2, names)
    else:
        text = sign + "*".join(_parenthesize(f, level, names) for f in numerator)
    if len(denominator) > 1:
        return "%s/(%s)" % (text, "*".join(denominator))
    return text + "".join("/" + d for d in denominator)


def _float_source(variables, exprs):
    """The source of the function that ``sympy.lambdify(variables,
    list(exprs), modules="math")`` writes: one ``return`` of the list of
    the expressions' values, each printed by :func:`_float_text`.  An
    argument whose name is not a safe Python identifier (a keyword such as
    ``lambda``) is called ``_<position>`` instead."""
    names = {s: s.name if s.name.isidentifier() and not keyword.iskeyword(s.name) else "_%d" % i
             for i, s in enumerate(variables)}
    return "def _lambdifygenerated(%s):\n    return [%s]\n" % (
        ", ".join(names[s] for s in variables),
        ", ".join(_float_text(e, names) for e in exprs))


def float_function(variables, exprs):
    """The float function of the variables that returns the list of the
    expressions' values: the source of :func:`_float_source`, executed in
    a namespace of its own.  Printed as lambdify prints it, each
    expression takes lambdify's operations in lambdify's order, so the
    floats are lambdify's."""
    namespace = {}
    exec(_float_source(variables, exprs), namespace)
    return namespace["_lambdifygenerated"]


@functools.lru_cache(maxsize=256)
def _name_order(symbols) -> tuple:
    return tuple(sorted(range(len(symbols)), key=lambda i: symbols[i].name))


def _lead_is_negative(poly) -> bool:
    """Sign of the leading coefficient under graded-lexicographic order,
    generators sorted by name."""
    order = _name_order(poly.ring.symbols)
    lead = max(poly.itermonoms(), key=lambda m: (sum(m), [m[i] for i in order]))
    return poly[lead] < 0


def _canonical_polys(a):
    """Numerator and denominator of the canonical form of the nonzero
    element a of a function field: its pair in lowest terms, both negated
    when the numerator's leading coefficient is negative under
    graded-lexicographic monomial order over the generators sorted by
    name.  Generators that a does not use do not change it."""
    P, Q = a.numer, a.denom
    return (-P, -Q) if _lead_is_negative(P) else (P, Q)


def canonicalize_element(a):
    """Canonical form of the element a of a function field, as an
    expression: P / Q for the pair of :func:`_canonical_polys`, which
    sympy evaluates to a sum over rational coefficients when Q is a
    constant.  Equal elements of any two fields give the same
    expression."""
    if not a:
        return _ZERO
    return _quotient_expression(*_canonical_polys(a))


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
    denominator vanishes, whatever the numerator.  When the images of the
    generators a uses are distinct bare generators of K, a is renamed
    instead, which takes no gcd."""
    target = a.field if K is None else K
    if a.numer.is_ground and a.denom.is_ground:
        # a constant: nothing to substitute, and no gcd to take
        ring = target.ring
        return a if target is a.field else RationalFunction(
            target, ring.ground_new(a.numer.LC), ring.ground_new(a.denom.LC))
    names = _renaming(a, images, target)
    if names is not None:
        return _renamed(a, target, names)
    substitution = [(images[s].numer, images[s].denom) if s in images else None
                    for s in a.field.symbols]
    return _compose_by_index(a, substitution, target)


def _compose_by_index(a, substitution, target, parts=None):
    """compose on the positional substitution of :func:`_substitute`, into
    the fraction field target.  parts, when given, is a (numerator,
    denominator) pair of polynomials of a's ring, not necessarily in
    lowest terms, composed in place of a; either way the result takes one
    gcd."""
    num, den = parts or (a.numer, a.denom)
    num, num_den = _substitute(num, substitution, target.ring)
    den, den_den = _substitute(den, substitution, target.ring)
    if num is a.numer and den is a.denom:
        return a
    if not den:
        raise ZeroDivisionError("denominator of %s vanishes" % to_infix(a))
    return _element(target, num * den_den, den * num_den)


def compose_derivative(a, s, images, K=None):
    """The derivative of the field element a in the generator s of its
    field, composed with images as :func:`compose` composes, as an
    element of the field K, a's own by default.  The derivative of p / q
    is composed as the pair (p' q - p q', q**2), not reduced, so the
    composition takes the one gcd."""
    field = a.field
    target = field if K is None else K
    parts = _derivative(a.numer, a.denom, field.symbols.index(s))
    if not parts[0]:
        return target.zero
    substitution = [(images[t].numer, images[t].denom) if t in images else None
                    for t in field.symbols]
    return _compose_by_index(a, substitution, target, parts)


def derivative(a, s):
    """The derivative of the field element a in the generator s of its
    field, in lowest terms: one gcd."""
    return compose_derivative(a, s, {})


@functools.lru_cache(maxsize=1024)
def _positions(symbols, target) -> tuple:
    """The index in symbols of each symbol of target (None when absent),
    and the indices of symbols that target lacks."""
    index = {s: i for i, s in enumerate(symbols)}
    positions = tuple(index.get(s) for s in target)
    return positions, tuple(i for i in range(len(symbols)) if i not in positions)


def _renaming(a, images, target):
    """The name in the fraction field target of each generator of a's
    field when every generator a uses has an image that is a bare
    generator of target, a different one for each (None for the
    generators a does not use); None when the images are anything else."""
    symbols, gens = a.field.symbols, target.ring.gens
    names = [None] * len(symbols)
    for i in _used([a]):
        image = images.get(symbols[i])
        if (image is None or image.field is not target or not image.denom.is_one
                or image.numer not in gens):
            return None
        names[i] = target.symbols[gens.index(image.numer)]
    named = [s for s in names if s is not None]
    return tuple(names) if len(set(named)) == len(named) else None


def rename(a, K, mapping):
    """The field element a as an element of the field K, each generator
    renamed by the dict mapping or kept.  A renamed fraction stays in
    lowest terms, so no gcd is taken; only the denominator's sign is fixed.
    Raises GeneratorsError when a needs a generator that K lacks."""
    return _renamed(a, K, tuple(mapping.get(s, s) for s in a.field.symbols))


def _renamed(a, target, symbols):
    """rename into the fraction field target, the generators of a's field
    named by symbols, in order."""
    positions, dropped = _positions(symbols, target.symbols)
    ring = target.ring

    def move(p):
        terms = {}
        for monom, coeff in p.iterterms():
            if any(monom[i] for i in dropped):
                raise GeneratorsError("%s needs a generator outside %s" % (a, target))
            terms[tuple(monom[i] if i is not None else 0 for i in positions)] = coeff
        return ring.from_dict(terms)

    return _coprime(target, move(a.numer), move(a.denom))


def _coprime(field, num, den):
    """num / den as an element of field, for polynomials num and den
    without a common factor, integers included: only the sign is fixed,
    no gcd is taken."""
    if not num:
        return field.zero
    if den.LC < 0:
        num, den = -num, -den
    return RationalFunction(field, num, den)


def solve_elements(K, elements, unknowns) -> list:
    """Solve the equations a = 0, for elements a of the field K, exactly
    for the unknowns, generators of K.

    Returns the branches as dicts of elements of K, in the order the
    elimination finds them, and ``[{}]`` when every equation is zero.
    Equations free of the unknowns are ignored; when no other equation
    is left the result is ``[]``.  The unknowns are eliminated in the
    caller's order, so an underdetermined system is solved for its first
    unknowns in terms of the rest; each is solved from an equation
    linear in it whose coefficient of it has the fewest terms
    (``_pivot``).  An empty result means no rational
    branch was found, which is weaker than "no solution exists".  Raises
    InconsistentSystemError when an equation is a nonzero constant,
    IrrationalSolutionError when the only branches found need an
    irrational value (a univariate factor without a rational root), and
    else UnsolvedEquationsError, naming the unknowns left, when no branch
    was found because the elimination gave up (``_split``).
    """
    nonzero = [a for a in elements if a]
    if not nonzero:
        # every equation was an identity: no constraints on the unknowns
        return [{}]
    for a in nonzero:
        if a.numer.is_ground and a.denom.is_ground:
            raise InconsistentSystemError("equation %s = 0 is a contradiction" % to_infix(a))
    position = {s: i for i, s in enumerate(K.symbols)}
    order = list(dict.fromkeys(position[u] for u in unknowns))
    # an equation free of the unknowns cannot change a solution, and any
    # branch would fail it for generic parameters
    elements = [a for a in nonzero
                if _mentions(a.numer, order) or _mentions(a.denom, order)]
    if not elements:
        return []
    irrational, unsolved = [], []
    found = []
    for steps in _eliminate([a.numer for a in elements], order, [], irrational, unsolved):
        values = _back_substitute(K, steps)
        if values is None or values in found:
            continue
        if all(_satisfies(a, steps) for a in elements):
            found.append(values)
    if not found and irrational:
        raise IrrationalSolutionError(K.symbols[irrational[0]])
    if not found and unsolved:
        raise UnsolvedEquationsError([K.symbols[i] for i in unsolved[0]])
    return [{K.symbols[i]: RationalFunction(K, *values[i]) for i in order if values[i] is not None}
            for values in found]


def _mentions(poly, indices) -> bool:
    degrees = poly.degrees()
    return any(degrees[i] for i in indices)


def _eliminate(polys, open_, steps, irrational, unsolved):
    """Yield the elimination steps (generator index, numerator,
    denominator) of every branch of the polynomial equations polys = 0 in
    the open generators.  Records in irrational the generators whose
    univariate equation had no rational root, and in unsolved the open
    generators left where the elimination gave up."""
    while polys:
        pivot = _pivot(polys, open_)
        if pivot is None:
            yield from _split(polys, open_, steps, irrational, unsolved)
            return
        i, p, lead = pivot
        g, a, b = _cofactors(lead, -p.coeff_wrt(i, 0))
        if _mentions(g, open_):
            # p = g * (a/g * u - b/g) also vanishes where g does, for any u
            others = [q for q in polys if q is not p]
            yield from _eliminate([g] + others, open_, steps, irrational, unsolved)
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
            g, rest, _ = _cofactors(q, a)
            while not g.is_ground:
                q = rest
                g, rest, _ = _cofactors(q, a)
            if not _mentions(q, open_):
                return
            remaining.append(q)
        polys = remaining
    yield steps


def _pivot(polys, open_):
    """The first open generator, in the caller's order, in which some of
    the equations polys are linear, the equation p to solve it from and
    p's coefficient of it: among those equations the one whose
    coefficient has the fewest terms, then the one with the fewest terms,
    then the first.  None when no equation is linear in an open
    generator."""
    for i in open_:
        linear = [(p, p.coeff_wrt(i, 1)) for p in polys if p.degree(i) == 1]
        if linear:
            p, lead = min(linear, key=lambda pair: (len(pair[1]), len(pair[0])))
            return i, p, lead
    return None


def _split(polys, open_, steps, irrational, unsolved):
    """Branch on every factor containing an open generator of the first
    equation that has a factor linear in one.  A univariate equation
    without such a factor has no root in the field of the other generators
    (Gauss's lemma), so it ends the branch and its generator is recorded
    as irrational.  When neither is found the branch ends too, and unless
    an equation is free of them, the open generators that the equations
    use are recorded as unsolved."""
    for p in polys:
        factors = [f for f in _factors(p) if _mentions(f, open_)]
        if any(f.degree(i) == 1 for f in factors for i in open_):
            others = [q for q in polys if q is not p]
            for f in factors:
                yield from _eliminate([f] + others, open_, steps, irrational, unsolved)
            return
        present = [i for i in open_ if p.degree(i)]
        if len(present) == 1:
            irrational.append(present[0])
            return
    # an equation free of the open generators has no root: not a give-up
    if all(_mentions(p, open_) for p in polys):
        unsolved.append([i for i in open_ if any(_mentions(p, (i,)) for p in polys)])


def _factors(p) -> list:
    """The irreducible factors of the nonzero polynomial p over the
    integers, in the order of sympy's ``factortools.dmp_factor_list`` on
    p's dense list over all generators of its ring.

    A p = a*x + b linear in a generator x, the first such, with a constant
    gcd of a and b is irreducible: its one factor is p over its integer
    content, with the sign that makes its leading coefficient positive,
    which is sympy's factor, and sympy is not imported.  Where that gcd
    is not a constant, p is reducible, and sympy factors it."""
    i = next((i for i, d in enumerate(p.degrees()) if d == 1), None)
    if i is not None:
        a, b = p.coeff_wrt(i, 1), p.coeff_wrt(i, 0)
        if a.is_ground or b and _cofactors(a, b)[0].is_ground:
            content = math.gcd(*p.itercoeffs())
            return [p.quo_ground(content if p.LC > 0 else -content)]
    from sympy import ZZ
    from sympy.polys.factortools import dmp_factor_list

    ring = p.ring
    k = ring.ngens
    _, factors = dmp_factor_list(_to_dense(p, k), k - 1, ZZ)
    return [ring.from_dict(_from_dense(f, k)) for f, _ in factors]


def _back_substitute(field, steps):
    """Values (numerator, denominator), by generator index of field, of the
    eliminated generators in terms of the open ones, each pair in lowest
    terms; None when a denominator vanishes."""
    values = [None] * field.ngens
    for i, num, den in reversed(steps):
        try:
            # each step divided out the gcd of its parts
            value = _compose_by_index(_coprime(field, num, den), values, field)
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


def branch_through(K, solutions, unknowns, point):
    """The first of the solved branches, dicts of elements of the field K
    by unknown, that gives every unknown and takes at the rational point
    the values the point gives the unknowns.  A branch with a pole at the
    point does not pass.  Raises UnsupportedEquationError when none
    passes."""
    expected = [rational(point[u]) for u in unknowns]
    for sol in solutions:
        if not all(u in sol for u in unknowns):
            continue
        try:
            at_point = element_values(K, [[sol[u] for u in unknowns]], point)[0]
        except ZeroDivisionError:
            continue
        if at_point == expected:
            return sol
    raise UnsupportedEquationError("no solved branch passes through the point")


def invert(K, definitions, unknowns, point) -> tuple:
    """Invert a coordinate change at a rational point.

    definitions maps each new symbol s to its value v, an element over
    the old coordinates, and K is the field of the old and new
    coordinates.  The equations s - v = 0 are solved in K for the
    unknowns, old coordinates, and the first branch through the point is
    kept: at the new symbols' values there it gives the point's values
    of the unknowns (branch_through).  Where the change's Jacobian is
    regular at the point, that branch is the change's local inverse.
    Returns the branch and the new symbols' values at the point as
    rational numbers.  Raises as solve_elements and branch_through do,
    and ZeroDivisionError when a value has a pole at the point.
    """
    values = [rename(v, K, {}) for v in definitions.values()]
    image = dict(zip(definitions, element_values(K, [values], point)[0]))
    solutions = solve_elements(K, defining_equations(K, definitions), unknowns)
    return branch_through(K, solutions, unknowns, {**point, **image}), image


def defining_equations(K, definitions) -> list:
    """The elements s - v of the field K, one for each new symbol s and
    its value v in the dict definitions, v renamed into K.  Since v = p / q
    is in lowest terms, so is (s q - p) / q, and no gcd is taken."""
    equations = []
    for g, v in zip(generators(K, list(definitions)), definitions.values()):
        v = rename(v, K, {})
        equations.append(_coprime(K, g.numer * v.denom - v.numer, v.denom))
    return equations


def _element(field, num, den):
    """num / den, den nonzero, as an element of field in lowest terms: one
    gcd, none when den is 1."""
    if not num:
        return field.zero
    if den.is_one:
        return RationalFunction(field, num, den)
    _, num, den = _cofactors(num, den)
    return _coprime(field, num, den)


@functools.lru_cache(maxsize=64)
def _image_point(ngens) -> tuple:
    """The fixed integer point of the univariate images of
    :func:`_cofactors`: the i-th prime for generator i."""
    primes, k = [], 2
    while len(primes) < ngens:
        if all(k % d for d in primes):
            primes.append(k)
        k += 1
    return tuple(primes)


def _images(poly, shared, point) -> dict:
    """The univariate images of the integer polynomial poly: for each
    generator index i of shared, poly with every other generator set to
    its value in point, as a dict of its nonzero integer coefficients by
    exponent tuple (e,) of generator i."""
    images = {i: {} for i in shared}
    for monom, coeff in poly.iterterms():
        value = coeff * _power_product(point, monom)
        for i in shared:
            e = monom[i]
            terms = images[i]
            terms[e] = terms.get(e, 0) + value // point[i] ** e
    return {i: {(e,): c for e, c in terms.items() if c} for i, terms in images.items()}


def _shares_no_generator(p, q, shared) -> bool:
    """Whether a proof exists that the gcd of the integer polynomials p
    and q has none of the generators at the indices shared, which both
    use (Brown's degree bound).  For a generator x of shared, set every
    other generator to the fixed point :func:`_image_point`: a factor of
    p and q in x keeps its degree in x where the image of p or of q keeps
    its own, and then divides both images.  So when one image keeps its
    full degree and :func:`_heugcd` finds a constant gcd of the two
    images, x is not in the gcd.  False means only that no proof was
    found, also where an image vanishes or the heuristic gives up."""
    point = _image_point(p.ring.ngens)
    p_images, q_images = _images(p, shared, point), _images(q, shared, point)
    for i in shared:
        f, g = p_images[i], q_images[i]
        if not f or not g or max(f)[0] < p.degree(i) and max(g)[0] < q.degree(i):
            # an image vanishes, or both leading coefficients in x do
            return False
        try:
            if max(_heugcd(f, g)[0]) != (0,):
                return False
        except HeuristicGCDFailed:
            return False
    return True


def _cofactors(p, q) -> tuple:
    """The gcd h of the integer polynomials p and q and the cofactors p / h
    and q / h: the triple of sympy's ``PolyElement.cofactors``, whose gcd
    has the integer contents' gcd.  Its leading coefficient is positive,
    except where the heuristic gcd reads it as p or q over a cofactor,
    which keeps the sign of p or q; no caller relies on that sign.

    Zero and monomial operands take the shortcuts of sympy's
    ``PolyElement.cofactors`` (:func:`_zero_cofactors`,
    :func:`_monomial_cofactors`).  Otherwise the gcd is proved a constant
    from univariate images where that is possible
    (:func:`_shares_no_generator`), and then is the gcd of the two integer
    contents; since a factor that only one of p and q uses cannot divide
    the other, only the generators both use need a proof.  Anything else
    goes to :func:`_heugcd` on the terms of p and q in only the generators
    that they use, each exponent divided by the gcd of that generator's
    exponents as sympy's ``deflate`` divides it, and the triple is mapped
    back.  When the heuristic gives up, sympy's dense subresultant gcd
    reduces the same deflated pair instead, as dense lists over only the
    generators that p and q use.
    """
    if not p or not q:
        return _zero_cofactors(p, q)
    if len(p) == 1:
        return _monomial_cofactors(p, q)
    if len(q) == 1:
        h, cfq, cfp = _monomial_cofactors(q, p)
        return h, cfp, cfq
    ring = p.ring
    p_degrees, q_degrees = p.degrees(), q.degrees()
    shared = [i for i, (a, b) in enumerate(zip(p_degrees, q_degrees)) if a and b]
    if not shared or _shares_no_generator(p, q, shared):
        content = math.gcd(*p.itercoeffs(), *q.itercoeffs())
        if content == 1:
            return ring.one, p, q
        return ring.ground_new(content), p.quo_ground(content), q.quo_ground(content)
    used = [i for i, (a, b) in enumerate(zip(p_degrees, q_degrees)) if a or b]
    monoms = list(itertools.chain(p.itermonoms(), q.itermonoms()))
    strides = {i: math.gcd(*{m[i] for m in monoms}) for i in used}

    def down(poly):
        return {tuple(m[i] // strides[i] for i in used): c for m, c in poly.iterterms()}

    def up(terms):
        full = [0] * ring.ngens
        poly = {}
        for monom, c in terms.items():
            for i, e in zip(used, monom):
                full[i] = e * strides[i]
            poly[tuple(full)] = c
        return ring.from_dict(poly)

    f, g = down(p), down(q)
    try:
        return tuple(map(up, _heugcd(f, g)))
    except HeuristicGCDFailed:
        from sympy import ZZ
        from sympy.polys.euclidtools import dmp_rr_prs_gcd

        k = len(used)
        triple = dmp_rr_prs_gcd(_to_dense(f, k), _to_dense(g, k), k - 1, ZZ)
        return tuple(up(_from_dense(part, k)) for part in triple)


def _zero_cofactors(p, q) -> tuple:
    """The triple of :func:`_cofactors` where p or q is zero: the other,
    its sign made that of a positive leading coefficient, is the gcd."""
    ring = p.ring
    if not p and not q:
        return ring.zero, ring.zero, ring.zero
    if not p:
        return (q, ring.zero, ring.one) if q.LC > 0 else (-q, ring.zero, -ring.one)
    return (p, ring.one, ring.zero) if p.LC > 0 else (-p, -ring.one, ring.zero)


def _monomial_cofactors(p, q) -> tuple:
    """The triple of :func:`_cofactors` for the monomial p and a nonzero
    q: the gcd is the least exponent of each generator times the gcd of
    the coefficients, which is positive."""
    (monom, c), = p.items()
    content = math.gcd(c, *q.itercoeffs())
    least = tuple(map(min, monom, *q))
    dtype = type(p)
    return (dtype({least: content}),
            dtype({tuple(map(operator.sub, monom, least)): c // content}),
            dtype({tuple(map(operator.sub, m, least)): v // content for m, v in q.items()}))


def _to_dense(terms, k) -> list:
    """The polynomial dict terms over k >= 1 generators as sympy's dense
    recursive list: its coefficients in the first generator, highest
    degree first, each a dense list over the other generators (an integer
    when there are none), without leading zeros."""
    if not terms:
        return [] if k == 1 else [_to_dense({}, k - 1)]
    degree = max(m[0] for m in terms)
    if k == 1:
        dense = [0] * (degree + 1)
        for monom, c in terms.items():
            dense[degree - monom[0]] = c
        return dense
    parts = [{} for _ in range(degree + 1)]
    for monom, c in terms.items():
        parts[degree - monom[0]][monom[1:]] = c
    return [_to_dense(part, k - 1) for part in parts]


def _from_dense(dense, k) -> dict:
    """The polynomial dict of sympy's dense recursive list over k >= 1
    generators."""
    terms, degree = {}, len(dense) - 1
    for i, part in enumerate(dense):
        if k == 1:
            if part:
                terms[(degree - i,)] = part
        else:
            for monom, c in _from_dense(part, k - 1).items():
                terms[(degree - i,) + monom] = c
    return terms


# evaluation points that _heugcd tries before it gives up, as sympy's
# heuristicgcd.HEU_GCD_MAX
_HEUGCD_ATTEMPTS = 6


def _heugcd(f, g) -> tuple:
    """The gcd h of the nonzero integer polynomials f and g and the
    cofactors f / h and g / h, each a dict of integer coefficients by
    exponent tuple over the same k >= 1 generators, the first generator
    most significant.  Raises HeuristicGCDFailed when it gives up.

    The heuristic gcd of Char, Geddes and Gonnet (1989), step for step as
    sympy's ``heuristicgcd.heugcd`` takes it, so it returns sympy's triple:
    the integer content's gcd is taken out, the first generator is set to
    an integer xi and the gcd of the images is taken, recursively down to
    integers; the gcd and both cofactors are read back from their
    balanced xi-adic digits (:func:`_interpolate`), and each of the three
    is accepted only when exact division proves it.  Otherwise xi grows,
    up to ``_HEUGCD_ATTEMPTS`` points.
    """
    content = math.gcd(math.gcd(*f.values()), math.gcd(*g.values()))
    if content != 1:
        f = {m: c // content for m, c in f.items()}
        g = {m: c // content for m, c in g.items()}
    f_norm, g_norm = max(map(abs, f.values())), max(map(abs, g.values()))
    bound = 2 * min(f_norm, g_norm) + 29
    xi = max(min(bound, 99 * math.isqrt(bound)),
             2 * min(f_norm // abs(f[max(f)]), g_norm // abs(g[max(g)])) + 4)
    univariate = len(next(iter(f))) == 1
    for _ in range(_HEUGCD_ATTEMPTS):
        ff, gg = _evaluate_first(f, xi), _evaluate_first(g, xi)
        if ff and gg:
            if univariate:
                h = math.gcd(ff, gg)
                cff, cfg = ff // h, gg // h
            else:
                h, cff, cfg = _heugcd(ff, gg)
            h = _interpolate(h, xi)
            h_content = math.gcd(*h.values())
            h = {m: c // h_content for m, c in h.items()}
            cff_ = _exact_quotient(f, h)
            if cff_ is not None:
                cfg_ = _exact_quotient(g, h)
                if cfg_ is not None:
                    return _times(h, content), cff_, cfg_
            cff = _interpolate(cff, xi)
            h = _exact_quotient(f, cff)
            if h is not None:
                cfg_ = _exact_quotient(g, h)
                if cfg_ is not None:
                    return _times(h, content), cff, cfg_
            cfg = _interpolate(cfg, xi)
            h = _exact_quotient(g, cfg)
            if h is not None:
                cff_ = _exact_quotient(f, h)
                if cff_ is not None:
                    return _times(h, content), cff_, cfg
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    raise HeuristicGCDFailed("no gcd after %d evaluation points" % _HEUGCD_ATTEMPTS)


def _evaluate_first(f, xi):
    """The polynomial dict f with its first generator set to the integer
    xi: a dict over the other generators, or an integer when there are
    none."""
    powers = [1]
    for _ in range(max(m[0] for m in f)):
        powers.append(powers[-1] * xi)
    if len(next(iter(f))) == 1:
        return sum(c * powers[m[0]] for m, c in f.items())
    image = {}
    for monom, c in f.items():
        rest = monom[1:]
        image[rest] = image.get(rest, 0) + c * powers[monom[0]]
    return {m: c for m, c in image.items() if c}


def _interpolate(image, xi) -> dict:
    """The polynomial whose value at first generator xi is image (an
    integer or a polynomial dict over the other generators), each
    coefficient read as its balanced base-xi digits, the digit of xi**i
    the coefficient of the first generator's i-th power; negated when
    its leading coefficient is negative."""
    poly, half = {}, xi // 2
    for monom, c in (image.items() if isinstance(image, dict) else [((), image)]):
        i = 0
        while c:
            c, digit = divmod(c, xi)
            if digit > half:
                digit -= xi
                c += 1
            if digit:
                poly[(i,) + monom] = digit
            i += 1
    if poly[max(poly)] < 0:
        return {m: -c for m, c in poly.items()}
    return poly


def _times(poly, c) -> dict:
    """The polynomial dict poly times the integer c."""
    return poly if c == 1 else {m: c * v for m, v in poly.items()}


def _exact_quotient(f, h):
    """f / h for polynomial dicts over the integers, h nonzero; None when
    h does not divide f with an integer quotient.  Lexicographic division:
    the leading term of what is left must be a multiple of h's.  The heap
    holds the negated monomials of what is left, so it pops the leading
    one first."""
    neg, add, sub = operator.neg, operator.add, operator.sub
    lead = max(h)
    lc = h[lead]
    rest = [(m, c) for m, c in h.items() if m != lead]
    remainder = dict(f)
    heap = [(tuple(map(neg, m)), m) for m in remainder]
    heapq.heapify(heap)
    quotient = {}
    while remainder:
        top = heapq.heappop(heap)[1]
        c = remainder.get(top)
        if c is None:
            continue
        monom = tuple(map(sub, top, lead))
        if min(monom, default=0) < 0 or c % lc:
            return None
        c //= lc
        quotient[monom] = c
        del remainder[top]
        for m, v in rest:
            m = tuple(map(add, monom, m))
            old = remainder.get(m)
            if old is None:
                remainder[m] = -c * v
                heapq.heappush(heap, (tuple(map(neg, m)), m))
            elif old == c * v:
                del remainder[m]
            else:
                remainder[m] = old - c * v
    return quotient


def difference(a, b):
    """a - b for elements of one function field, over one denominator: one
    gcd."""
    return _element(a.field, *_fused_sum([(a.numer, a.denom), (-b.numer, b.denom)]))


def _fused_sum(pairs):
    """The sum of the fractions pairs, (numerator, denominator) pairs of
    polynomials, as such a pair over the product of their distinct
    denominators; the numerators over one denominator are added first.
    No gcd is taken."""
    groups = []
    for num, den in pairs:
        for group in groups:
            if group[0] == den:
                group[1] = group[1] + num
                break
        else:
            groups.append([den, num])
    den, num = groups[0]
    for d, n in groups[1:]:
        num = (num if d.is_one else num * d) + n * den
        den = den * d
    return num, den


def _product(a, b):
    """a * b for elements a and b as a (numerator, denominator) pair, not
    reduced."""
    return a.numer * b.numer, a.denom * b.denom


def dot(K, u, v):
    """sum_k u[k] * v[k] for elements of the function field K, summed over
    one denominator: one gcd for the sum, none when every denominator is
    1."""
    pairs = [_product(a, b) for a, b in zip(u, v) if a and b]
    return _element(K, *_fused_sum(pairs)) if pairs else K.zero


def depends_on(a, s) -> bool:
    """Whether the element a depends on the generator s of its field: for
    a = p / q, whether p' q - p q' is nonzero.  Since p / q is in lowest
    terms, that is whether p or q has s in it, so neither a derivative
    nor a gcd is taken."""
    i = a.field.symbols.index(s)
    return bool(a) and (_mentions(a.numer, (i,)) or _mentions(a.denom, (i,)))


def _minus_product(field, c, f, b):
    """c - f * b for elements of field: one gcd, none where b is zero."""
    if not b:
        return c
    num, den = _product(f, b)
    pairs = [(c.numer, c.denom), (-num, den)] if c else [(-num, den)]
    return _element(field, *_fused_sum(pairs))


def element_rref(K, rows, ncols):
    """Reduced row echelon form of rows of elements of the field K, and its
    pivot columns, by dense Gauss-Jordan elimination.  Over a field both
    are unique, so they depend neither on the order of the rows nor on
    the elimination method, only the cost does.  Over QQ the division
    and each entry c - f * b of an eliminated row are plain rational
    arithmetic.  Over a function field the rows are first sorted by their
    number of terms, simplest first (a stable sort), and each quotient
    and each c - f * b is built over one denominator and reduced by one
    gcd."""
    rows = [list(row) for row in rows]
    if K is QQ:
        divide, minus_product = operator.truediv, lambda c, f, b: c - f * b
    else:
        field = K
        rows.sort(key=lambda row: sum(len(a.numer) + len(a.denom) for a in row))

        def divide(a, p):
            return _element(field, a.numer * p.denom, a.denom * p.numer)

        minus_product = functools.partial(_minus_product, field)
    pivots = []
    for j in range(ncols):
        i = len(pivots)
        k = next((k for k in range(i, len(rows)) if rows[k][j]), None)
        if k is None:
            continue
        rows[i], rows[k] = rows[k], rows[i]
        p = rows[i][j]
        # left of column j the pivot row is zero, so every other row
        # keeps its entries there
        pivot_row = rows[i] = [K.zero] * j + [K.one] + [
            divide(a, p) if a else K.zero for a in rows[i][j + 1:]]
        for k, row in enumerate(rows):
            f = row[j]
            if k != i and f:
                rows[k] = row[:j] + [K.zero] + [
                    minus_product(c, f, b) for c, b in zip(row[j + 1:], pivot_row[j + 1:])]
        pivots.append(j)
        if len(pivots) == len(rows):
            break
    return rows, tuple(pivots)


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


def derivative_mod_rows(K, row, wrt, rref_rows, pivots) -> list:
    """The derivative d of a row of elements of the function field K in
    its generator wrt, modulo the rows of a reduced row echelon form with
    their pivot columns: d - sum_r d[pc] * r, zero in every pivot column.
    Each entry p / q of the row enters as (p' q - p q') / q**2, not
    reduced, so each entry of the residual is one sum over one
    denominator and takes one gcd."""
    i = K.symbols.index(wrt)
    parts = [_derivative(a.numer, a.denom, i) for a in row]
    residual = []
    for m, (num, den) in enumerate(parts):
        if m in pivots:
            residual.append(K.zero)
            continue
        pairs = [(num, den)] if num else []
        for r, pc in zip(rref_rows, pivots):
            fac, b = parts[pc], r[m]
            if fac[0] and b:
                pairs.append((-(fac[0] * b.numer), fac[1] * b.denom))
        residual.append(_element(K, *_fused_sum(pairs)) if pairs else K.zero)
    return residual


def _derivative(p, q, i) -> tuple:
    """The derivative of p / q in the generator at index i as the pair
    (p' q - p q', q**2), not reduced; as (p', q) when q is free of the
    generator, which the other pair has over q."""
    dq = q.diff(i)
    if not dq:
        return p.diff(i), q
    return p.diff(i) * q - p * dq, q * q


def annihilating_polynomials(rows, degree, L):
    """The polynomials phi = sum_i c_i * x**m_i, over the monomials m_i of
    total degree 1..degree in the generators x of the function field L in
    graded order, one per free column, that every row of polynomial
    elements of L annihilates: row . grad(phi) = 0.  The conditions are
    the rational coefficients of the monomials of row . grad(phi), and
    their kernel is taken over QQ.  Each c is scaled as clear_element_row
    scales it; phi is an element of L.
    """
    ring = L.ring
    nvars = ring.ngens
    monomials = [tuple(combo.count(i) for i in range(nvars)) for d in range(1, degree + 1)
                 for combo in itertools.combinations_with_replacement(range(nvars), d)]
    conditions = {}
    for r, row in enumerate(rows):
        for i, m in enumerate(monomials):
            derived = ring.zero
            for a in range(nvars):
                if m[a] and row[a]:
                    derived += row[a].numer.mul_term((m[:a] + (m[a] - 1,) + m[a + 1:], m[a]))
            for monom, c in derived.iterterms():
                conditions.setdefault((r, monom), {})[i] = QQ(c)
    matrix = [[row.get(i, QQ.zero) for i in range(len(monomials))]
              for _, row in sorted(conditions.items())]
    kernel = element_nullspace(QQ, *element_rref(QQ, matrix, len(monomials)), len(monomials))
    for vec in kernel:
        coeffs, _ = clear_element_row(QQ, vec)
        yield _element(L, ring.from_dict(
            {m: c.numerator for m, c in zip(monomials, coeffs) if c}), ring.one)


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


def _certificate_values(K, elements) -> list:
    """The fixed point at which generic ranks of the elements of the field
    K are certified, one value per generator of K: the values of
    :func:`_certificate_point` go to the generators that the elements
    use, in name order, and 0 to the others, so generators of K that they
    do not use do not move it."""
    used = _used(elements)
    values = [0] * len(K.symbols)
    order = [i for i in _name_order(K.symbols) if i in used]
    for i, value in zip(order, _certificate_point(len(order))):
        values[i] = value
    return values


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
        try:
            values[i] = rational(point[sym])
        except TypeError:
            raise UnsupportedEquationError(
                "point value %s = %s is not a rational number" % (sym, point[sym])
            ) from None
    return values


def _defined(result, a, point):
    """result, computed for the element a at point, unless it is None
    because a's denominator vanishes there.  An element is in lowest
    terms, so that is a pole, and ZeroDivisionError is raised."""
    if result is None:
        raise ZeroDivisionError("pole at %s in %s" % (point, to_infix(a)))
    return result


def rational_rank(rows, ncols) -> int:
    """Rank of rows of rational numbers."""
    return len(element_rref(QQ, rows, ncols)[1])


def element_rank(K, rows, ncols) -> int:
    """Rank of rows of elements of the field K (the generic rank).

    The rank is first certified at the fixed rational point of
    :func:`_certificate_values`, the one :func:`certificate_jacobian`
    uses: the rank at any point where every entry is defined is at most
    the generic rank, which is at most min(rows, cols), so a full rank
    there is the generic rank exactly.  On a pole or a rank that falls
    short, the rows are row reduced over K.  No rank is guessed.
    """
    values = _certificate_values(K, [a for row in rows for a in row])
    at_point = [[_value_at(a.numer, a.denom, values) for a in row] for row in rows]
    if all(v is not None for row in at_point for v in row):
        rank = rational_rank(at_point, ncols)
        if rank == min(len(rows), ncols):
            return rank
    return len(element_rref(K, rows, ncols)[1])


def jacobian_at(K, elements, variables, point) -> list:
    """The Jacobian of elements of the field K with respect to variables,
    generators of K, at a rational point, as rows of rational numbers.

    Each row comes from the partial derivatives of the numerator n and
    denominator d, as (n' d - n d') / d**2, without a gcd and without
    building the symbolic Jacobian.  The point must fix every generator
    the elements use; a pole of an element there raises
    ZeroDivisionError.
    """
    index = {s: i for i, s in enumerate(K.symbols)}
    columns = {index[v]: k for k, v in enumerate(variables) if v in index}
    values = _point_values(K, elements, point)
    return [_defined(_jacobian_row(a.numer, a.denom, values, columns, len(variables)), a, point)
            for a in elements]


def certificate_jacobian(K, elements, variables):
    """The Jacobian of elements of the field K with respect to variables,
    generators of K, at the fixed point of :func:`_certificate_values`, as
    rows of rational numbers; None when an element has a pole there.
    Each row is evaluated as in :func:`jacobian_at`.
    """
    index = {s: i for i, s in enumerate(K.symbols)}
    columns = {index[v]: k for k, v in enumerate(variables) if v in index}
    values = _certificate_values(K, elements)
    rows = [_jacobian_row(a.numer, a.denom, values, columns, len(variables))
            for a in elements]
    return rows if all(row is not None for row in rows) else None


def jacobian_rank(K, elements, variables, at_point=None) -> int:
    """Generic rank of the Jacobian of elements of the field K with respect
    to variables, generators of K.

    The rank is certified on :func:`certificate_jacobian`, which a caller
    that already holds it passes as at_point.  The fallback is the same as
    :func:`element_rank`'s: row reduction of the Jacobian over K.
    """
    nrows, ncols = len(elements), len(variables)
    if not nrows or not ncols:
        return 0
    if at_point is None:
        at_point = certificate_jacobian(K, elements, variables)
    if at_point is not None:
        rank = rational_rank(at_point, ncols)
        if rank == min(nrows, ncols):
            return rank
    rows = [[derivative(a, v) if v in K.symbols else K.zero for v in variables]
            for a in elements]
    return len(element_rref(K, rows, ncols)[1])


def jacobian_ranks(K, elements, variables, point) -> tuple:
    """Generic rank and rank at point of the Jacobian of elements of the
    field K with respect to variables.  The point comes first: a full rank
    there is the generic rank, and only a rank that falls short computes
    :func:`jacobian_rank`.  A pole raises as in :func:`jacobian_at`."""
    ncols = len(variables)
    at_point = rational_rank(jacobian_at(K, elements, variables, point), ncols)
    if at_point == min(len(elements), ncols):
        return at_point, at_point
    return jacobian_rank(K, elements, variables), at_point


def unit_completion(rows, ncols, candidates, count) -> list:
    """The first count of the column indices candidates, tried in order,
    whose unit row keeps the rows of rational numbers (a Jacobian at a
    point) stacked on the units kept so far of full rank; so the stack's
    generic rank is full too.  Fewer when the candidates run out."""
    stack, kept = [list(r) for r in rows], []
    for j in candidates:
        if len(kept) == count:
            break
        unit = [QQ.one if i == j else QQ.zero for i in range(ncols)]
        if rational_rank(stack + [unit], ncols) == len(stack) + 1:
            stack.append(unit)
            kept.append(j)
    return kept


def element_values(K, rows, point: dict) -> list:
    """Rows of elements of the field K at a rational point that fixes every
    generator the rows use, as rows of rational numbers; a pole raises
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
        common = math.lcm(*(a.denominator for a in nonzero))
        numerators = [(a * common).numerator for a in nonzero]
        factor = QQ(common, math.gcd(*numerators))
        if numerators[0] < 0:
            factor = -factor
        return [a * factor for a in row], factor
    common = _lcm((a.denom for a in nonzero), K.ring.one)
    return _primitive(K, common, [a.numer * common.exquo(a.denom) for a in row])


def clear_fraction_row(K, numerators, denominator):
    """clear_element_row of the row numerators[k] / denominator, whose
    parts are polynomials of the ring of the function field K, without
    building the row's elements.

    The lcm of the row's reduced denominators is denominator / g, where g
    is the gcd of the denominator and all numerators, so one gcd chain
    replaces a gcd per entry; it stops once g is a constant, which the
    content normalization absorbs.  Cleared row and factor are those of
    clear_element_row: both are fixed by cleared = factor * row.
    """
    if not any(numerators):
        return [K.zero] * len(numerators), K.one
    g = denominator
    for p in numerators:
        if g.is_ground:
            break
        if p:
            g = _cofactors(g, p)[0]
    if not g.is_ground:
        denominator, numerators = denominator.exquo(g), [p.exquo(g) for p in numerators]
    return _primitive(K, denominator, numerators)


def _lcm(polys, one):
    """The lcm of the distinct polynomials polys, one when there are none:
    p * (q / gcd(p, q)) for each next q, the lcm that sympy's
    ``PolyElement.lcm`` gives."""
    return functools.reduce(lambda p, q: p * _cofactors(p, q)[2], dict.fromkeys(polys) or [one])


def combine_rows(K, coeffs, rows):
    """sum_a coeffs[a] * rows[a], entry by entry, for elements of the
    function field K, over one common denominator: (numerators,
    denominator), polynomials of its ring, the row that clear_fraction_row
    clears and fraction_row reads back.  The denominator is the lcm of
    the coefficients' denominators times that of the rows' entries, so
    the sums are taken in the polynomial ring without any gcd."""
    ring = K.ring
    terms = [(c, row) for c, row in zip(coeffs, rows) if c]
    coeff_lcm = _lcm((c.denom for c, _ in terms), ring.one)
    entry_lcm = _lcm((a.denom for _, row in terms for a in row if a), ring.one)
    numerators = [ring.zero] * len(rows[0])
    for c, row in terms:
        scaled = c.numer * coeff_lcm.exquo(c.denom)
        for k, a in enumerate(row):
            if a:
                numerators[k] += scaled * a.numer * entry_lcm.exquo(a.denom)
    return numerators, coeff_lcm * entry_lcm


def fraction_row(K, numerators, denominator, scale=None):
    """The elements numerators[k] / denominator of the function field K,
    times the element scale when given, in lowest terms: one gcd per
    nonzero entry."""
    if scale is not None:
        numerators = [scale.numer * p for p in numerators]
        denominator = scale.denom * denominator
    return [_element(K, p, denominator) for p in numerators]


def _primitive(field, common, polys):
    """The cleared row and factor of clear_element_row, from polys =
    common * row: scaled to integer coefficients without common factor,
    the first nonzero entry's leading coefficient positive.  The factor
    is common over the content, in lowest terms by an integer gcd."""
    content = math.gcd(*(c for p in polys for c in p.itercoeffs()))
    unit = -content if _lead_is_negative(next(p for p in polys if p)) else content
    ring = field.ring
    cleared = [RationalFunction(field, p.quo_ground(unit), ring.one) for p in polys]
    shared = math.gcd(content, *common.itercoeffs())
    factor = RationalFunction(field, common.quo_ground(unit // content * shared),
                           ring.ground_new(content // shared))
    return cleared, factor


def _infix_factors(monom, names, order) -> list:
    """The factors x or x^e of the monomial monom, in name order."""
    return [names[i] if monom[i] == 1 else "%s^%d" % (names[i], monom[i])
            for i in order if monom[i]]


def _infix_product(p, q, numerator, denominator) -> str:
    """The product p/q * prod numerator / prod denominator, for integers
    p and q > 0 without a common factor and factor strings, as sympy's
    ``str`` prints it: the sign in front, a coefficient 1 left out, and
    the denominator in parentheses when it has more than one factor."""
    numerator = ([str(abs(p))] if abs(p) != 1 else []) + numerator
    denominator = ([str(q)] if q != 1 else []) + denominator
    text = ("-" if p < 0 else "") + ("*".join(numerator) or "1")
    if len(denominator) > 1:
        return "%s/(%s)" % (text, "*".join(denominator))
    return "%s/%s" % (text, denominator[0]) if denominator else text


def _infix_sum(poly, divisor, names, order) -> str:
    """The nonzero integer polynomial poly divided by the nonzero integer
    divisor, term by term, as sympy's ``str`` prints the sum: terms in
    descending lexicographic order of their exponents over the generators
    in name order, except that a positive constant goes before a single
    other term c*x^e with c < 0."""
    terms = sorted(poly.iterterms(), key=lambda term: [term[0][i] for i in order],
                   reverse=True)
    if (len(terms) == 2 and not any(terms[1][0]) and terms[1][1] * divisor > 0
            and terms[0][1] * divisor < 0 and sum(map(bool, terms[0][0])) == 1):
        terms.reverse()
    text = ""
    for monom, c in terms:
        g = math.gcd(c, divisor) if divisor > 0 else -math.gcd(c, divisor)
        term = _infix_product(c // g, divisor // g, _infix_factors(monom, names, order), [])
        if text:
            text += " - " + term[1:] if term[0] == "-" else " + " + term
        else:
            text = term
    return text


def _infix_part(poly, names, order) -> tuple:
    """The factor strings and the integer coefficient of the numerator or
    the denominator poly of a quotient: a sum is one parenthesized factor
    with coefficient 1, a monomial its factors and its coefficient."""
    if len(poly) > 1:
        return ["(%s)" % _infix_sum(poly, 1, names, order)], 1
    (monom, c), = poly.iterterms()
    return _infix_factors(monom, names, order), c


def to_infix(a) -> str:
    """Canonical infix string of the field element a in the model grammar:
    the string that sympy's ``str`` prints for :func:`canonicalize_element`,
    with powers written x^e, printed from the canonical polynomials
    P / Q without building an expression.

    - A sum lists its terms in descending lexicographic order of their
      exponents over the generators in name order, except that a
      positive constant goes before a single other term c*x^e with
      c < 0 (``1 - x``).  A product lists its factors in name order.
    - Over a constant denominator each term is p*m/q in lowest terms
      (``x/2``, ``3*x/2``, ``1/3``).
    - A sum that is a factor is parenthesized.  A monomial denominator is
      parenthesized only when it has a coefficient other than ±1 or more
      than one factor, and a negative one moves its sign to the front
      (``-(x + 1)/(2*y)``).
    - 1 over a single power x^e with e > 1 prints as ``x^(-e)``; ``1/x``,
      ``-1/x^2`` and ``2/x^2`` print as written.
    """
    if not a:
        return "0"
    P, Q = _canonical_polys(a)
    symbols = P.ring.symbols
    names, order = [s.name for s in symbols], _name_order(symbols)
    if Q.is_ground:
        return _infix_sum(P, Q.LC, names, order)
    numerator, c = _infix_part(P, names, order)
    denominator, d = _infix_part(Q, names, order)
    if c == d == 1 and not numerator and len(denominator) == 1:
        # 1/x^e with e > 1 is a power, not a product, and prints its exponent
        name, power, e = denominator[0].partition("^")
        if power and len(Q) == 1:
            return "%s^(-%s)" % (name, e)
    return _infix_product(c if d > 0 else -c, abs(d), numerator, denominator)
