"""Differential geometry on the extended space of a discrete-time system.

The update map f makes the combined state-input space a fibred manifold
over the space of next states.  This module builds the adapted chart in
which f is a projection, transforms vector fields between charts, and
provides the operations the flatness test is made of: Lie brackets,
projectability tests, pushforwards, lifts, and the largest projectable
subdistribution of a given distribution.

Conventions.  Vector fields and distributions are plain component data
over an explicit coordinate tuple.  On the base space the coordinates
are the system variables (x, u); on the image space they are shifted
state symbols x<i>_p1.  All linear algebra runs over the field of
rational functions through the symbolic module, so every basis produced
here is deterministic.  Fields in chart coordinates, as returned by
transform_vector_field, carry elements of the chart's fraction field
instead of sympy expressions; the chart stores its inverse map and the
Jacobian of its forward map in that field, so a transform is two
substitutions and a matrix-vector product.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import sympy as sp

from . import symbolic
from .errors import (
    ChartError,
    ConstantDimensionError,
    IndeterminateRankError,
    NotProjectableError,
)


def shifted_state_symbols(system) -> tuple:
    """Coordinates of the image space: one x<i>_p1 symbol per state."""
    return tuple(sp.Symbol("%s_p1" % s.name) for s in system.states)


@dataclass(frozen=True)
class VectorField:
    """Component vector over an ordered coordinate tuple."""

    coords: tuple
    components: tuple

    def __post_init__(self):
        if len(self.coords) != len(self.components):
            raise ValueError(
                "field has %d components for %d coordinates"
                % (len(self.components), len(self.coords))
            )

    def is_zero_field(self) -> bool:
        return all(symbolic.is_zero(c) is True for c in self.components)


@dataclass(frozen=True)
class Distribution:
    """Span of finitely many vector fields over a common coordinate tuple.

    The basis is kept independent over the function field, so the
    dimension is just the number of basis fields.  witness_rows, when
    present, are extra denominator-free component rows spanning the
    same distribution generically; they allow rank evaluations at
    points where the preferred basis has poles.  chart_fields, when
    present, are the basis fields transformed into the coordinates of
    chart (see transform_vector_field), in basis order.
    """

    coords: tuple
    fields: tuple
    witness_rows: tuple = ()
    chart: object = field(default=None, compare=False, repr=False)
    chart_fields: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        for f in self.fields:
            if f.coords != self.coords:
                raise ValueError("basis field over foreign coordinates")

    @property
    def dim(self) -> int:
        return len(self.fields)

    def component_matrix(self) -> sp.Matrix:
        if not self.fields:
            return sp.zeros(0, len(self.coords))
        return sp.Matrix([list(f.components) for f in self.fields])

    def witness_matrix(self) -> sp.Matrix:
        """Pole-free rows spanning the distribution, for point evaluation."""
        rows = [list(r) for r in self.witness_rows]
        for f in self.fields:
            rows.append(symbolic.clear_denominators(list(f.components)))
        rows = [r for r in rows if any(symbolic.is_zero(e) is not True for e in r)]
        if not rows:
            return sp.zeros(0, len(self.coords))
        return sp.Matrix(rows)


def make_distribution(coords, rows) -> Distribution:
    """Build a distribution from component rows, dropping dependent ones.

    Rows are reduced to echelon form and cleared to primitive polynomial
    vectors, which makes the stored basis canonical for the span.
    """
    rows = [list(r) for r in rows]
    rows = [r for r in rows if any(symbolic.is_zero(e) is not True for e in r)]
    if not rows:
        return Distribution(coords=tuple(coords), fields=())
    res = symbolic.function_field_rref(sp.Matrix(rows))
    basis = []
    for i in range(len(res.pivots)):
        row = [res.rref[i, j] for j in range(len(coords))]
        basis.append(VectorField(tuple(coords), tuple(symbolic.clear_denominators(row))))
    return Distribution(coords=tuple(coords), fields=tuple(basis))


@dataclass(frozen=True)
class Chart:
    """Adapted chart (theta, xi) with stored forward and inverse maps.

    forward maps each chart symbol to its expression in the base
    variables; inverse maps each base variable back.  xi_choice records
    which base coordinates serve as the fibre coordinates xi.

    function_field is QQ over the base variables and the chart symbols
    together, generators sorted by name.  substitution holds, per
    generator, the inverse map as a (numerator, denominator) pair of
    polynomials, or None for the chart symbols, which stay.  jacobian
    holds d forward[c] / d v composed with the inverse, one row per
    chart coordinate c and one column per base variable v.
    """

    system_vars: tuple
    theta: tuple
    xi: tuple
    forward: dict
    inverse: dict
    xi_choice: tuple
    function_field: object = field(default=None, compare=False, repr=False)
    substitution: tuple = field(default=(), compare=False, repr=False)
    jacobian: tuple = field(default=(), compare=False, repr=False)

    @property
    def coords(self) -> tuple:
        return tuple(self.theta) + tuple(self.xi)

    def equilibrium_image(self, point) -> dict:
        """Chart coordinates of a base-space point."""
        return {
            c: symbolic.evaluate_exact(self.forward[c], point) for c in self.coords
        }


def build_adapted_chart(system) -> Chart:
    """Adapted chart: theta = f(x, u) plus m fibre coordinates xi.

    The fibre coordinates are picked greedily from the declared
    variables, states before inputs, keeping the stacked Jacobian of
    (f, xi) regular both generically and at the equilibrium.  The
    inverse map is computed symbolically and the branch through the
    equilibrium is selected.
    """
    n, m = system.n, system.m
    variables = system.variables
    point = system.equilibrium_point()

    theta = tuple(sp.Symbol("theta_%d" % (i + 1)) for i in range(n))
    xi = tuple(sp.Symbol("xi_%d" % (j + 1)) for j in range(m))

    rows = [
        [symbolic.canonicalize(sp.diff(fi, v)) for v in variables]
        for fi in system.update
    ]
    chosen: list = []
    for candidate in variables:
        if len(chosen) == m:
            break
        grad = [sp.Integer(1) if v == candidate else sp.Integer(0) for v in variables]
        trial = sp.Matrix(rows + [list(c) for c in chosen] + [grad])
        want = n + len(chosen) + 1
        if symbolic.generic_rank(trial) < want:
            continue
        if symbolic.rank_at_point(trial, point) < want:
            continue
        chosen.append(tuple(grad))
    if len(chosen) < m:
        raise ChartError(
            "no %d coordinate functions complete f to a regular chart" % m
        )
    xi_choice = tuple(
        variables[next(i for i, g in enumerate(c) if g == 1)] for c in chosen
    )

    forward = {theta[i]: system.update[i] for i in range(n)}
    forward.update({xi[j]: xi_choice[j] for j in range(m)})
    equations = [sp.Eq(c, forward[c]) for c in tuple(theta) + tuple(xi)]
    solutions = symbolic.solve_algebraic(equations, list(variables))
    if not solutions:
        raise ChartError(
            "chart inversion failed for xi = %s" % (tuple(map(str, xi_choice)),)
        )

    image = {
        c: symbolic.evaluate_exact(forward[c], point)
        for c in tuple(theta) + tuple(xi)
    }
    inverse = None
    for sol in solutions:
        if set(sol) != set(variables):
            continue
        try:
            ok = all(
                symbolic.evaluate_exact(sol[v], image) == point[v] for v in variables
            )
        except ZeroDivisionError:
            ok = False
        if ok:
            inverse = {v: symbolic.canonicalize(sol[v]) for v in variables}
            break
    if inverse is None:
        raise ChartError(
            "no inverse branch passes through the equilibrium (xi = %s)"
            % (tuple(map(str, xi_choice)),)
        )

    coords = tuple(theta) + tuple(xi)
    K = symbolic.function_field(
        tuple(sorted(tuple(variables) + coords, key=lambda s: s.name))
    )
    converted = symbolic.to_elements([inverse[v] for v in variables], K.symbols)
    if converted is None:
        raise ChartError(
            "the inverse branch through the equilibrium is not rational "
            "(xi = %s)" % (tuple(map(str, xi_choice)),)
        )
    images = dict(zip(variables, converted[1]))
    substitution = tuple(
        (images[s].numer, images[s].denom) if s in images else None
        for s in K.symbols
    )
    forward_elements = {c: K.from_sympy(forward[c]) for c in coords}
    for c in coords:
        residual = _compose(forward_elements[c], substitution) - K.from_sympy(c)
        if residual:
            raise ChartError("chart maps do not invert: residual %s on %s"
                             % (K.to_sympy(residual), c))
    generators = [K.from_sympy(v) for v in variables]
    jacobian = tuple(
        tuple(_compose(forward_elements[c].diff(g), substitution) for g in generators)
        for c in coords
    )
    return Chart(
        system_vars=tuple(variables),
        theta=theta,
        xi=xi,
        forward=forward,
        inverse=inverse,
        xi_choice=xi_choice,
        function_field=K,
        substitution=substitution,
        jacobian=jacobian,
    )


def _substitute(poly, substitution):
    """poly with generator i replaced by the fraction substitution[i] (kept
    where that is None), as a (numerator, denominator) pair of polynomials.

    Every term is brought over the common denominator prod d_i^deg_i, so
    the sum is taken in the polynomial ring without any gcd.
    """
    ring = poly.ring
    if not poly:
        return poly, ring.one
    degrees = poly.degrees()
    moved = [i for i, image in enumerate(substitution) if image is not None and degrees[i]]
    if not moved:
        return poly, ring.one
    powers = {}

    def power(i, part, k):
        if (i, part, k) not in powers:
            powers[i, part, k] = substitution[i][part] ** k
        return powers[i, part, k]

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
        for m, c in factor.mul_term((tuple(kept), coeff)).iterterms():
            total[m] = total.get(m, 0) + c
    numerator = ring.from_dict({m: c for m, c in total.items() if c})
    denominator = ring.one
    for i in moved:
        denominator = denominator * power(i, 1, degrees[i])
    return numerator, denominator


def _compose(a, substitution):
    """Element a of a chart's function field with the inverse chart map
    substituted for the base variables."""
    num, num_den = _substitute(a.numer, substitution)
    den, den_den = _substitute(a.denom, substitution)
    return a.field.new(num * den_den, den * num_den)


def transform_vector_field(v: VectorField, chart: Chart) -> VectorField:
    """Rewrite a field given over the base variables in chart coordinates.

    The components of the result are elements of chart.function_field:
    the Jacobian of the forward map applied to the field, both composed
    with the inverse map.  Chart symbols occurring in the components of
    v are kept as they are.
    """
    if v.coords != chart.system_vars:
        raise ValueError("field is not over the chart's base variables")
    K = chart.function_field
    converted = symbolic.to_elements(v.components, K.symbols)
    if converted is None:
        raise ValueError("field components are not rational in the chart's variables")
    moved = [_compose(c, chart.substitution) if c else None for c in converted[1]]
    components = []
    for row in chart.jacobian:
        total = K.zero
        for d, c in zip(row, moved):
            if c is not None and d:
                total += d * c
        components.append(total)
    return VectorField(chart.coords, tuple(components))


def lie_bracket(v1: VectorField, v2: VectorField) -> VectorField:
    """Standard Lie bracket of two fields over the same coordinates."""
    if v1.coords != v2.coords:
        raise ValueError("bracket of fields over different coordinates")
    coords = v1.coords
    comps = []
    for i in range(len(coords)):
        term = sp.Integer(0)
        for j in range(len(coords)):
            term = term + v1.components[j] * sp.diff(v2.components[i], coords[j])
            term = term - v2.components[j] * sp.diff(v1.components[i], coords[j])
        comps.append(sp.cancel(sp.together(term)))
    return VectorField(coords, tuple(comps))


def _fibre_generators(chart: Chart) -> list:
    return [chart.function_field.from_sympy(x) for x in chart.xi]


def _projectability(adapted: VectorField, system, chart: Chart):
    """is_projectable on a field already in chart coordinates."""
    undecided = False
    fibre = _fibre_generators(chart)
    for i in range(system.n):
        for x in fibre:
            z = symbolic.is_zero(adapted.components[i].diff(x))
            if z is False:
                return False
            if z is None:
                undecided = True
    return None if undecided else True


def is_projectable(v: VectorField, system, chart: Chart):
    """Whether the field pushes forward to a well-defined field.

    True iff every theta component, written in the adapted chart, is
    free of all fibre coordinates xi.  Returns None when a zero test is
    undecidable.
    """
    return _projectability(transform_vector_field(v, chart), system, chart)


def _image_components(adapted: VectorField, system, chart: Chart) -> list:
    """Theta components of a projectable field in chart coordinates, as
    expressions over the image coordinates x+."""
    fibre = list(zip(chart.xi, _fibre_generators(chart)))
    for i in range(system.n):
        for x, g in fibre:
            z = symbolic.is_zero(adapted.components[i].diff(g))
            if z is None:
                raise IndeterminateRankError(
                    "cannot decide projectability of component %d" % (i + 1)
                )
            if z is False:
                raise NotProjectableError(
                    "field is not projectable: component %s depends on %s"
                    % (chart.function_field.to_sympy(adapted.components[i]), x)
                )
    rename = dict(zip(chart.theta, shifted_state_symbols(system)))
    symbols = [rename.get(s, s) for s in chart.function_field.symbols]
    return [adapted.components[i].as_expr(*symbols) for i in range(system.n)]


def pushforward_vector_field(v: VectorField, system, chart: Chart) -> VectorField:
    """Image of a projectable field: theta components renamed to x+."""
    comps = _image_components(transform_vector_field(v, chart), system, chart)
    return VectorField(shifted_state_symbols(system), tuple(comps))


def is_involutive(dist: Distribution) -> bool:
    """Whether all pairwise brackets of the basis stay in the span."""
    if dist.dim <= 1:
        return True
    M = dist.component_matrix()
    base_rank = symbolic.generic_rank(M)
    for a, b in itertools.combinations(range(dist.dim), 2):
        br = lie_bracket(dist.fields[a], dist.fields[b])
        if br.is_zero_field():
            continue
        stacked = sp.Matrix([M, sp.Matrix([list(br.components)])])
        if symbolic.generic_rank(stacked) > base_rank:
            return False
    return True


def contains_field(dist: Distribution, v: VectorField) -> bool:
    """Membership of a field in the span of a distribution."""
    if v.is_zero_field():
        return True
    if dist.dim == 0:
        return False
    M = dist.component_matrix()
    stacked = sp.Matrix([M, sp.Matrix([list(v.components)])])
    return symbolic.generic_rank(stacked) == symbolic.generic_rank(M)


def contains_distribution(outer: Distribution, inner: Distribution) -> bool:
    return all(contains_field(outer, f) for f in inner.fields)


def _reduce_mod_rows(row, reduced_rows, pivots):
    """Residual of a row modulo an echelon row set."""
    for r, pc in zip(reduced_rows, pivots):
        fac = row[pc]
        if fac:
            row = [a - fac * b for a, b in zip(row, r)]
    return row


def _combine(coeffs, rows, zero):
    """sum_a coeffs[a] * rows[a], entry by entry."""
    out = []
    for k in range(len(rows[0])):
        total = zero
        for c, row in zip(coeffs, rows):
            if c and row[k]:
                total += c * row[k]
        out.append(total)
    return out


def largest_projectable_subdistribution(
    dist: Distribution, system, chart: Chart
) -> Distribution:
    """The unique largest subdistribution that pushes forward under f.

    Descending iteration: starting from the full distribution, keep the
    fields whose brackets with every fibre direction stay inside the
    current candidate plus the vertical distribution.  Each refinement
    is one kernel computation over the function field, because the
    derivative terms of the brackets stay in the candidate by linearity.
    At the fixed point, a projectable basis is extracted through the
    echelon form of the theta block, and rechecked field by field.

    The candidate fields are carried both over the base variables and
    in chart coordinates.  Only the fields of dist are transformed: the
    kernel coefficients are functions of the chart coordinates, so the
    chart form of sum_a c_a v_a is sum_a c_a * chart(v_a), times the
    cleared denominator's factor composed with the inverse map.  The
    extracted basis is transformed afresh by the recheck, and those
    transforms are carried on the result as its chart_fields.
    """
    n = system.n
    if dist.dim == 0:
        return dist
    if not is_involutive(dist):
        warnings.warn(
            "largest projectable subdistribution of a non-involutive "
            "distribution; the result is the bracket-stable core",
            stacklevel=2,
        )

    K = chart.function_field
    fibre = _fibre_generators(chart)
    adapted = [list(transform_vector_field(f, chart).components) for f in dist.fields]
    cur = [symbolic.to_elements(f.components, K.symbols)[1] for f in dist.fields]
    while True:
        nonzero = [a[:n] for a in adapted if any(a[:n])]
        reduced, pivots = symbolic.element_rref(K, nonzero, n)
        reduced = reduced[: len(pivots)]
        # residuals[j][a]: d/d xi_j of the theta block of field a, modulo
        # the span of the theta block
        residuals = [
            [_reduce_mod_rows([c.diff(x) for c in a[:n]], reduced, pivots)
             for a in adapted]
            for x in fibre
        ]
        relations = [
            [residuals[j][a][i] for a in range(len(cur))]
            for j in range(len(fibre))
            for i in range(n)
        ]
        rref, kernel_pivots = symbolic.element_rref(K, relations, len(cur))
        kernel = symbolic.element_nullspace(K, rref, kernel_pivots, len(cur))
        if len(kernel) == len(cur):
            break
        if not kernel:
            return Distribution(coords=dist.coords, fields=())
        new_cur, new_adapted = [], []
        for vec in kernel:
            comps, factor = symbolic.clear_element_row(K, _combine(vec, cur, K.zero))
            new_cur.append(comps)
            factor = _compose(factor, chart.substitution)
            new_adapted.append([factor * c for c in _combine(vec, adapted, K.zero)])
        cur, adapted = new_cur, new_adapted

    # Extraction: echelon-reduce the theta block with an identity block
    # alongside, so the transform rows recombine the basis into fields
    # with xi-free theta components (top rows) and vertical fields
    # (zero-theta rows).
    aug = [
        a[:n] + [K.one if b == i else K.zero for b in range(len(cur))]
        for i, a in enumerate(adapted)
    ]
    rref, _ = symbolic.element_rref(K, aug, n + len(cur))
    out_fields = []
    for row in rref:
        comps = _combine(row[n:], cur, K.zero)
        # Rescaling a field by a coordinate-dependent factor changes its
        # theta components' xi-derivatives, so denominators may only be
        # cleared on vertical rows, whose theta block is zero anyway.
        if not any(row[:n]):
            comps, _ = symbolic.clear_element_row(K, comps)
        out_fields.append(
            VectorField(dist.coords, tuple(K.to_sympy(c) for c in comps))
        )

    witness = tuple(
        tuple(K.to_sympy(c) for c in symbolic.clear_element_row(K, comps)[0])
        for comps in cur
    )
    chart_fields = []
    for f in out_fields:
        adapted_f = transform_vector_field(f, chart)
        verdict = _projectability(adapted_f, system, chart)
        if verdict is None:
            raise IndeterminateRankError(
                "projectability of an extracted basis field is undecidable"
            )
        if verdict is False:
            raise NotProjectableError(
                "projectable basis extraction failed: %s" % (f.components,)
            )
        chart_fields.append(adapted_f)
    result = Distribution(
        coords=dist.coords,
        fields=tuple(out_fields),
        witness_rows=witness,
        chart=chart,
        chart_fields=tuple(chart_fields),
    )

    point = system.equilibrium_point()
    W = result.witness_matrix()
    if W.rows:
        rank_eq = symbolic.rank_at_point(W, point)
        if rank_eq != result.dim:
            raise ConstantDimensionError(
                "projectable subdistribution has dimension %d generically "
                "but %d at the equilibrium" % (result.dim, rank_eq)
            )
    return result


def pushforward_distribution(dist: Distribution, system, chart: Chart) -> Distribution:
    """Span of the basis pushforwards on the image space.

    The image dimension may drop.  The span must still have the same
    dimension at the equilibrium image as generically, otherwise the
    constant-dimension assumption underlying the whole analysis fails.
    That is checked twice: on the pushed component rows themselves, and
    pointwise through the update Jacobian at the equilibrium, which
    catches drops that a rescaled basis would hide.  Chart forms carried
    on dist for this chart are used instead of transforming again.
    """
    xplus = shifted_state_symbols(system)
    if dist.dim == 0:
        return Distribution(coords=xplus, fields=())
    if dist.chart is chart:
        adapted = dist.chart_fields
    else:
        adapted = [transform_vector_field(f, chart) for f in dist.fields]
    rows = [
        symbolic.clear_denominators(_image_components(a, system, chart))
        for a in adapted
    ]
    rows = [r for r in rows if any(symbolic.is_zero(e) is not True for e in r)]
    if not rows:
        return Distribution(coords=xplus, fields=())

    point = system.equilibrium_point()
    image_point = {
        xp: symbolic.evaluate_exact(fi, point)
        for xp, fi in zip(xplus, system.update)
    }
    image = make_distribution(xplus, rows)
    generic = image.dim
    at_eq = symbolic.rank_at_point(sp.Matrix(rows), image_point)
    if at_eq < generic:
        raise ConstantDimensionError(
            "pushforward has dimension %d generically but %d at the "
            "equilibrium image" % (generic, at_eq)
        )

    jac_eq = system.jacobian().applyfunc(
        lambda e: symbolic.evaluate_exact(e, point)
    )
    W = dist.witness_matrix().applyfunc(
        lambda e: symbolic.evaluate_exact(e, point)
    )
    pointwise = symbolic.generic_rank(W * jac_eq.T) if W.rows else 0
    if pointwise != generic:
        raise ConstantDimensionError(
            "pushforward has dimension %d generically but %d at the "
            "equilibrium image" % (generic, pointwise)
        )
    return image


def lift_distribution(delta: Distribution, system) -> Distribution:
    """Preimage of an image-space distribution under the projection.

    Renames x+ back to x, pads with zero input components, and adjoins
    the full input directions, so the dimension grows by m.
    """
    variables = system.variables
    xplus = shifted_state_symbols(system)
    rename = dict(zip(xplus, system.states))
    n, m = system.n, system.m
    fields = []
    for f in delta.fields:
        comps = [
            c.subs(rename, simultaneous=True) for c in f.components
        ] + [sp.Integer(0)] * m
        fields.append(VectorField(tuple(variables), tuple(comps)))
    for j in range(m):
        comps = [sp.Integer(0)] * (n + j) + [sp.Integer(1)] + [sp.Integer(0)] * (
            m - j - 1
        )
        fields.append(VectorField(tuple(variables), tuple(comps)))
    return Distribution(coords=tuple(variables), fields=tuple(fields))
