"""Differential geometry on the extended space of a discrete-time system.

The update map f makes the combined state-input space a fibred manifold
over the space of next states.  This module builds the adapted chart in
which f is a projection, transforms vector fields between charts, and
provides the operations the flatness test is made of: Lie brackets,
projectability tests, pushforwards, lifts, and the largest projectable
subdistribution of a given distribution.

Conventions.  Vector fields and distributions are component data over
an explicit coordinate tuple.  Every component is an element of a
rational function field (a sympy ``FracElement``; ``.as_expr()`` gives
the expression), one field per space: over the base variables (x, u)
the chart's wide field QQ(x, u, theta, xi), in chart coordinates the
narrow field QQ(theta, xi), over the shifted state symbols x<i>_p1 of
the image space QQ(x_p1, ...).  Lift and pushforward rename generators
between the spaces, and the chart renames the model's update elements,
so the sequence builds no sympy expression; only make_distribution
reads expressions.  The chart-coordinate half of the largest
projectable subdistribution, where nearly all gcds are taken, runs in
the narrow field; its coefficients are renamed into the wide field to
recombine the base rows.  All linear algebra runs over these fields, so
every basis produced here is deterministic.  The chart stores one
inverse map, from the wide field into the narrow one, and the Jacobian
of its forward map composed with it, so a transform is one composition
per component and a matrix-vector product.  composed_jacobian and
apply_jacobian are that re-reading of a basis in new coordinates, which
the peeling of the construction shares.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import sympy as sp
from sympy import QQ
from sympy.polys.fields import FracElement

from . import symbolic
from .errors import (
    ChartError,
    ConstantDimensionError,
    IrrationalSolutionError,
    NotProjectableError,
)
from .model import update_elements


def shifted_state_symbols(system) -> tuple:
    """Coordinates of the image space: one x<i>_p1 symbol per state."""
    return tuple(sp.Symbol("%s_p1" % s.name) for s in system.states)


def _chart_field(system):
    """The chart coordinates theta_1 .. theta_n, xi_1 .. xi_m, and the field
    QQ(x, u, theta, xi) of every component over the base space,
    generators sorted by name."""
    coords = tuple(sp.Symbol("theta_%d" % (i + 1)) for i in range(system.n)) + tuple(
        sp.Symbol("xi_%d" % (j + 1)) for j in range(system.m))
    return coords, symbolic.field(system.variables + coords)


def _field_of(rows):
    """The one function field of the elements of nonempty rows."""
    field = rows[0][0].field
    if any(a.field != field for row in rows for a in row):
        raise ValueError("components from different function fields")
    return symbolic.function_field(field.symbols)


@dataclass(frozen=True)
class VectorField:
    """Component vector over an ordered coordinate tuple, in one function
    field whose generators include the coordinates."""

    coords: tuple
    components: tuple

    def __post_init__(self):
        if len(self.coords) != len(self.components):
            raise ValueError(
                "field has %d components for %d coordinates"
                % (len(self.components), len(self.coords))
            )

    def is_zero_field(self) -> bool:
        return not any(self.components)


@dataclass(frozen=True)
class Distribution:
    """Span of finitely many vector fields over a common coordinate tuple.

    The basis is kept independent over the function field, so the
    dimension is just the number of basis fields.  witness_rows, when
    present, are nonzero denominator-free component rows spanning the
    same distribution generically, the cleared basis among them; they
    allow rank evaluations at points where the preferred basis has
    poles.  chart_fields, when
    present, are the basis fields transformed into the coordinates of
    chart (see transform_vector_field), in basis order, with components
    in chart.coordinate_field.
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


def _witness_rows(dist: Distribution, K) -> list:
    """Pole-free nonzero rows spanning the distribution, for point
    evaluation: its witness rows, or its cleared basis when it has none."""
    if dist.witness_rows:
        return [list(r) for r in dist.witness_rows]
    rows = [symbolic.clear_element_row(K, list(f.components))[0] for f in dist.fields]
    return [r for r in rows if any(r)]


def make_distribution(coords, rows) -> Distribution:
    """Build a distribution from component rows, dropping dependent ones.

    Rows of field elements stay in their field; rows of sympy expressions
    are read over QQ(coords).  Rows are reduced to echelon form and
    cleared to primitive polynomial vectors, which makes the stored basis
    canonical for the span.
    """
    coords = tuple(coords)
    rows = [list(r) for r in rows]
    if not rows:
        return Distribution(coords=coords, fields=())
    if isinstance(rows[0][0], FracElement):
        K = _field_of(rows)
    else:
        K, elements = symbolic.to_elements([e for r in rows for e in r], coords)
        rows = [elements[i:i + len(coords)] for i in range(0, len(elements), len(coords))]
    rref, pivots = symbolic.element_rref(K, [r for r in rows if any(r)], len(coords))
    basis = [
        VectorField(coords, tuple(symbolic.clear_element_row(K, row)[0]))
        for row in rref[:len(pivots)]
    ]
    return Distribution(coords=coords, fields=tuple(basis))


@dataclass(frozen=True)
class Chart:
    """Adapted chart (theta, xi) with stored forward and inverse maps.

    function_field is the wide field QQ(x, u, theta, xi) of components
    over the base variables, coordinate_field the narrow field
    QQ(theta, xi) of components in chart coordinates, both with their
    generators sorted by name.  forward maps each chart symbol to its
    element of the wide field over the base variables.  inverse is the
    one inverse map: per generator of the wide field, an element of the
    narrow field, the inverse image for a base variable and the symbol's
    own generator for a chart symbol, so
    symbolic.compose(a, inverse, coordinate_field) rewrites any wide
    element in chart coordinates.  xi_choice records which base
    coordinates serve as the fibre coordinates xi.  jacobian holds
    d forward[c] / d v composed with the inverse map, in the narrow
    field, one row per chart coordinate c and one column per base
    variable v (see composed_jacobian).  equilibrium holds the declared
    point and its chart image, over every generator.
    """

    system_vars: tuple
    theta: tuple
    xi: tuple
    forward: dict
    xi_choice: tuple
    function_field: object = field(default=None, compare=False, repr=False)
    inverse: dict = field(default_factory=dict, compare=False, repr=False)
    jacobian: tuple = field(default=(), compare=False, repr=False)
    equilibrium: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def coords(self) -> tuple:
        return tuple(self.theta) + tuple(self.xi)

    @property
    def coordinate_field(self):
        return symbolic.field(self.coords)


def composed_jacobian(forward, coords, variables, moved) -> list:
    """The Jacobian of a forward map composed with an inverse map: one row
    per coordinate c of coords and one column per variable v, holding
    d forward[c] / d v passed through moved, which composes an element
    with the inverse map."""
    rows = []
    for c in coords:
        f = forward[c]
        gens = symbolic.generators(symbolic.function_field(f.field.symbols), variables)
        rows.append([moved(f.diff(g)) for g in gens])
    return rows


def apply_jacobian(jacobian, row, zero) -> list:
    """A composed_jacobian times row, the components of a field over the
    variables already composed with the inverse map: the field's
    components in the new coordinates.  zero is the zero of their field."""
    return [sum((d * a for d, a in zip(jac_row, row) if d and a), zero)
            for jac_row in jacobian]


def build_adapted_chart(system) -> Chart:
    """Adapted chart: theta = f(x, u) plus m fibre coordinates xi.

    The fibre coordinates are picked greedily from the declared
    variables, states before inputs, keeping the stacked Jacobian of
    (f, xi) regular both generically and at the equilibrium.  The
    inverse map is computed symbolically and the branch through the
    equilibrium is selected.  The update map is the model's one
    conversion (model.update_elements), renamed into the wide field.
    """
    n, m = system.n, system.m
    variables = system.variables
    point = system.equilibrium_point()

    coords, K = _chart_field(system)
    N = symbolic.field(coords)
    theta, xi = coords[:n], coords[n:]
    update = [symbolic.rename(f, K, {})
              for f in update_elements(system.update, variables)[1]]

    # (f, chosen, candidate) has one row per function, so a full rank at
    # the equilibrium proves the full generic rank
    chosen: list = []
    for candidate in variables:
        if len(chosen) == m:
            break
        functions = update + symbolic.generators(K, chosen + [candidate])
        if symbolic.jacobian_rank(K, functions, variables, point) == len(functions):
            chosen.append(candidate)
    if len(chosen) < m:
        raise ChartError(
            "no %d coordinate functions complete f to a regular chart" % m
        )
    xi_choice = tuple(chosen)

    forward = dict(zip(coords, update + symbolic.generators(K, xi_choice)))
    equations = [g - forward[c] for g, c in zip(symbolic.generators(K, coords), coords)]
    try:
        solutions = symbolic.solve_elements(K, equations, variables)
    except IrrationalSolutionError:
        raise ChartError(
            "the chart inverse has no rational branch (xi = %s)"
            % (tuple(map(str, xi_choice)),)
        ) from None
    if not solutions:
        raise ChartError(
            "chart inversion failed for xi = %s" % (tuple(map(str, xi_choice)),)
        )

    image = dict(zip(coords, map(QQ.to_sympy, symbolic.element_values(
        K, [[forward[c] for c in coords]], point)[0])))
    branch = symbolic.branch_through(K, solutions, variables, image,
                                     [point[v] for v in variables])
    if branch is None:
        raise ChartError(
            "no inverse branch passes through the equilibrium (xi = %s)"
            % (tuple(map(str, xi_choice)),)
        )

    # the solved values use only the chart symbols, so they rename into N
    inverse = {**dict(zip(coords, symbolic.generators(N, coords))),
               **{v: symbolic.rename(a, N, {}) for v, a in branch.items()}}

    def moved(a):
        return symbolic.compose(a, inverse, N)

    for c in coords:
        residual = moved(forward[c]) - inverse[c]
        if residual:
            raise ChartError("chart maps do not invert: residual %s on %s"
                             % (residual.as_expr(), c))
    jacobian = tuple(map(tuple, composed_jacobian(forward, coords, variables, moved)))
    return Chart(
        system_vars=tuple(variables),
        theta=theta,
        xi=xi,
        forward=forward,
        xi_choice=xi_choice,
        function_field=K,
        inverse=inverse,
        jacobian=jacobian,
        equilibrium={**point, **image},
    )


def transform_vector_field(v: VectorField, chart: Chart) -> VectorField:
    """Rewrite a field over the base variables in chart coordinates.

    The components of v are elements of chart.function_field, those of
    the result elements of chart.coordinate_field: the Jacobian of the
    forward map applied to the field, both composed with the inverse
    map.  Chart symbols occurring in the components of v are kept as
    they are.
    """
    if v.coords != chart.system_vars:
        raise ValueError("field is not over the chart's base variables")
    N = chart.coordinate_field
    moved = [symbolic.compose(c, chart.inverse, N) for c in v.components]
    return VectorField(chart.coords, tuple(apply_jacobian(chart.jacobian, moved, N.zero)))


def lie_bracket(v1: VectorField, v2: VectorField) -> VectorField:
    """Standard Lie bracket of two fields over the same coordinates,
    computed in the field of their components."""
    if v1.coords != v2.coords:
        raise ValueError("bracket of fields over different coordinates")
    a, b = v1.components, v2.components
    K = _field_of([a, b])
    gens = symbolic.generators(K, v1.coords)
    comps = []
    for i in range(len(gens)):
        term = K.zero
        for aj, bj, x in zip(a, b, gens):
            if aj:
                term += aj * b[i].diff(x)
            if bj:
                term -= bj * a[i].diff(x)
        comps.append(term)
    return VectorField(v1.coords, tuple(comps))


def _projectability(adapted: VectorField, system, chart: Chart) -> bool:
    """is_projectable on a field already in chart coordinates."""
    fibre = symbolic.generators(chart.coordinate_field, chart.xi)
    return not any(
        adapted.components[i].diff(x) for i in range(system.n) for x in fibre
    )


def is_projectable(v: VectorField, system, chart: Chart) -> bool:
    """Whether the field pushes forward to a well-defined field.

    True iff every theta component, written in the adapted chart, is
    free of all fibre coordinates xi.
    """
    return _projectability(transform_vector_field(v, chart), system, chart)


def is_involutive(dist: Distribution) -> bool:
    """Whether all pairwise brackets of the basis stay in the span."""
    if dist.dim <= 1:
        return True
    rows, ncols = [list(f.components) for f in dist.fields], len(dist.coords)
    K = _field_of(rows)
    base_rank = symbolic.element_rank(K, rows, ncols)
    for a, b in itertools.combinations(range(dist.dim), 2):
        br = lie_bracket(dist.fields[a], dist.fields[b])
        if br.is_zero_field():
            continue
        if symbolic.element_rank(K, rows + [list(br.components)], ncols) > base_rank:
            return False
    return True


def contains_field(dist: Distribution, v: VectorField) -> bool:
    """Membership of a field in the span of a distribution."""
    if v.coords != dist.coords:
        raise ValueError("field over foreign coordinates")
    if v.is_zero_field():
        return True
    if dist.dim == 0:
        return False
    rows, ncols = [list(f.components) for f in dist.fields], len(dist.coords)
    K = _field_of(rows + [v.components])
    return (symbolic.element_rank(K, rows + [list(v.components)], ncols)
            == symbolic.element_rank(K, rows, ncols))


def contains_distribution(outer: Distribution, inner: Distribution) -> bool:
    if inner.coords != outer.coords:
        raise ValueError("distribution over foreign coordinates")
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

    The candidate fields are carried both over the base variables, in
    chart.function_field, and in chart coordinates, in the narrow
    chart.coordinate_field, where every row reduction runs.  Only the
    fields of dist are transformed: the kernel and extraction
    coefficients are functions of the chart coordinates, so the chart
    form of sum_a c_a v_a is sum_a c_a * chart(v_a), times the cleared
    denominator's factor composed with the inverse map where the base
    row is cleared.  The coefficients are renamed into the wide field to
    combine the base rows.  The chart forms of the extracted basis are
    carried on the result as its chart_fields.
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

    K, N = chart.function_field, chart.coordinate_field
    fibre = symbolic.generators(N, chart.xi)

    def widened(coeffs):
        return [symbolic.rename(c, K, {}) if c else K.zero for c in coeffs]

    def moved(factor):
        return symbolic.compose(factor, chart.inverse, N)

    adapted = [list(transform_vector_field(f, chart).components) for f in dist.fields]
    cur = [list(f.components) for f in dist.fields]
    while True:
        nonzero = [a[:n] for a in adapted if any(a[:n])]
        reduced, pivots = symbolic.element_rref(N, nonzero, n)
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
        rref, kernel_pivots = symbolic.element_rref(N, relations, len(cur))
        kernel = symbolic.element_nullspace(N, rref, kernel_pivots, len(cur))
        if len(kernel) == len(cur):
            break
        if not kernel:
            return Distribution(coords=dist.coords, fields=(), chart=chart)
        new_cur, new_adapted = [], []
        for vec in kernel:
            comps, factor = symbolic.clear_element_row(K, _combine(widened(vec), cur, K.zero))
            new_cur.append(comps)
            new_adapted.append([moved(factor) * c for c in _combine(vec, adapted, N.zero)])
        cur, adapted = new_cur, new_adapted

    # Extraction: echelon-reduce the theta block with an identity block
    # alongside, so the transform rows recombine the basis into fields
    # with xi-free theta components (top rows) and vertical fields
    # (zero-theta rows).
    aug = [
        a[:n] + [N.one if b == i else N.zero for b in range(len(cur))]
        for i, a in enumerate(adapted)
    ]
    rref, _ = symbolic.element_rref(N, aug, n + len(cur))
    witness = [symbolic.clear_element_row(K, comps)[0] for comps in cur]
    out_fields, chart_fields = [], []
    for row in rref:
        comps = _combine(widened(row[n:]), cur, K.zero)
        cleared, factor = symbolic.clear_element_row(K, comps)
        witness.append(cleared)
        adapted_f = _combine(row[n:], adapted, N.zero)
        # Rescaling a field by a coordinate-dependent factor changes its
        # theta components' xi-derivatives, so denominators may only be
        # cleared on vertical rows, whose theta block is zero anyway.
        if not any(row[:n]):
            comps = cleared
            adapted_f = [moved(factor) * c for c in adapted_f]
        out_fields.append(VectorField(dist.coords, tuple(comps)))
        chart_fields.append(VectorField(chart.coords, tuple(adapted_f)))
        if not _projectability(chart_fields[-1], system, chart):
            raise NotProjectableError(
                "projectable basis extraction failed: %s"
                % (tuple(c.as_expr() for c in comps),)
            )
    result = Distribution(
        coords=dist.coords,
        fields=tuple(out_fields),
        witness_rows=tuple(tuple(r) for r in witness if any(r)),
        chart=chart,
        chart_fields=tuple(chart_fields),
    )

    # witness rows mix base and chart symbols: evaluate at both equilibria
    W = symbolic.element_values(K, _witness_rows(result, K), chart.equilibrium)
    rank_eq = symbolic.element_rank(QQ, W, len(dist.coords))
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
    # theta components, renamed to x+ in the image field QQ(x+)
    L = symbolic.function_field(xplus)
    rename = dict(zip(chart.theta, xplus))
    rows = []
    for a in adapted:
        theta_part = a.components[:system.n]
        if not _projectability(a, system, chart):
            raise NotProjectableError("field is not projectable: theta components %s"
                                      % (tuple(c.as_expr() for c in theta_part),))
        row = [symbolic.rename(c, L, rename) for c in theta_part]
        rows.append(symbolic.clear_element_row(L, row)[0])
    rows = [r for r in rows if any(r)]
    if not rows:
        return Distribution(coords=xplus, fields=())

    image = make_distribution(xplus, rows)
    generic = image.dim
    image_point = {xp: chart.equilibrium[t] for xp, t in zip(xplus, chart.theta)}
    at_eq = symbolic.element_rank(QQ, symbolic.element_values(L, rows, image_point), system.n)
    if at_eq < generic:
        raise ConstantDimensionError(
            "pushforward has dimension %d generically but %d at the "
            "equilibrium image" % (generic, at_eq)
        )

    # the chart Jacobian's theta rows at the chart equilibrium are
    # df/d(x, u) at the equilibrium; witness rows mix base and chart
    # symbols, so they are evaluated at both equilibria too
    K = chart.function_field
    jac_eq = symbolic.element_values(
        chart.coordinate_field, chart.jacobian[:system.n], chart.equilibrium)
    W = symbolic.element_values(K, _witness_rows(dist, K), chart.equilibrium)
    pushed = [[sum(w * d for w, d in zip(w_row, d_row)) for d_row in jac_eq]
              for w_row in W]
    pointwise = symbolic.element_rank(QQ, pushed, system.n)
    if pointwise != generic:
        raise ConstantDimensionError(
            "pushforward has dimension %d generically but %d at the "
            "equilibrium image" % (generic, pointwise)
        )
    return image


def lift_distribution(delta: Distribution, system) -> Distribution:
    """Preimage of an image-space distribution under the projection.

    Renames x+ back to x in the base field, pads with zero input
    components, and adjoins the full input directions, so the dimension
    grows by m.
    """
    variables = tuple(system.variables)
    n, m = system.n, system.m
    _, K = _chart_field(system)
    rename = dict(zip(shifted_state_symbols(system), system.states))
    rows = [[symbolic.rename(c, K, rename) for c in f.components] + [K.zero] * m
            for f in delta.fields]
    rows += [[K.one if i == n + j else K.zero for i in range(n + m)] for j in range(m)]
    return Distribution(coords=variables,
                        fields=tuple(VectorField(variables, tuple(r)) for r in rows))
