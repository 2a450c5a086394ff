"""Reference oracles for the involutivity and projectability claims.

Algorithm 1 never calls these: it assumes involutivity where the paper
proves it, and it tests projectability only on fields already in chart
coordinates.  The tests use them as independent checks of those claims:
the Lie bracket, involutivity, span membership and projectability of a
field over the base variables, each from its definition.  The
controllability of the linearization is a necessary condition for a
FLAT verdict that does not use flatcheck's kernel at all, and its
controllability indices fix the dimension table of an SFL verdict.
"""

import itertools

import sympy as sp

from flatcheck import geometry, symbolic

import kernel_oracle


def is_zero_field(row) -> bool:
    return not any(row)


def lie_bracket(coords, a, b) -> tuple:
    """Standard Lie bracket of two fields, component rows over coords in
    one function field, computed with sympy's arithmetic in that field."""
    K = symbolic.field_of(tuple(a) + tuple(b))
    F = kernel_oracle.sympy_field(K)
    a, b = ([kernel_oracle.to_sympy(c) for c in row] for row in (a, b))
    gens = [F.gens[K.symbols.index(symbolic.symbol(s.name))] for s in coords]
    comps = []
    for i in range(len(gens)):
        term = F.zero
        for aj, bj, x in zip(a, b, gens):
            if aj:
                term += aj * b[i].diff(x)
            if bj:
                term -= bj * a[i].diff(x)
        comps.append(kernel_oracle.from_sympy(K, term))
    return tuple(comps)


def is_projectable(row, chart: geometry.Chart) -> bool:
    """Whether the field with these components over the chart's base
    variables pushes forward to a well-defined field.

    True iff every theta component, written in the adapted chart, is
    free of all fibre coordinates xi.  The theta components are those
    of transform_vector_field, the only ones it computes.
    """
    return geometry._projectability(geometry.transform_vector_field(row, chart), chart)


def is_involutive(dist: geometry.Distribution) -> bool:
    """Whether all pairwise brackets of the basis stay in the span."""
    if dist.dim <= 1:
        return True
    rows, ncols = [list(row) for row in dist.rows], len(dist.coords)
    K = symbolic.field_of(a for row in rows for a in row)
    base_rank = symbolic.element_rank(K, rows, ncols)
    for a, b in itertools.combinations(dist.rows, 2):
        br = lie_bracket(dist.coords, a, b)
        if is_zero_field(br):
            continue
        if symbolic.element_rank(K, rows + [list(br)], ncols) > base_rank:
            return False
    return True


def contains_field(dist: geometry.Distribution, row) -> bool:
    """Membership of a field, a component row, in the span of a
    distribution.  The row must be over the distribution's coordinates:
    one component each, in a field with them among its generators."""
    if len(row) != len(dist.coords) or not set(dist.coords) <= set(
            symbolic.field_of(row).symbols):
        raise ValueError("field over foreign coordinates")
    if is_zero_field(row):
        return True
    if dist.dim == 0:
        return False
    rows, ncols = [list(r) for r in dist.rows], len(dist.coords)
    K = symbolic.field_of([a for r in rows for a in r] + list(row))
    return (symbolic.element_rank(K, rows + [list(row)], ncols)
            == symbolic.element_rank(K, rows, ncols))


def contains_distribution(outer: geometry.Distribution, inner: geometry.Distribution) -> bool:
    if inner.coords != outer.coords:
        raise ValueError("distribution over foreign coordinates")
    return all(contains_field(outer, row) for row in inner.rows)


def controllability_ranks(system, count) -> list:
    """The ranks of [B, AB, ..., A^(k-1) B] for k = 1, ..., count, where
    (A, B) is the linearization of x+ = f(x, u) at the equilibrium,
    computed with sympy matrices from system.update."""
    sympy_of = kernel_oracle.sympy_symbol
    f = sp.Matrix(kernel_oracle.sympy_update(system))
    point = {sympy_of(s): sp.Rational(int(v.numerator), int(v.denominator))
             for s, v in system.equilibrium_point().items()}
    A = f.jacobian([sympy_of(s) for s in system.states]).subs(point)
    blocks = [f.jacobian([sympy_of(s) for s in system.inputs]).subs(point)]
    while len(blocks) < count:
        blocks.append(A * blocks[-1])
    return [sp.Matrix.hstack(*blocks[:k]).rank() for k in range(1, count + 1)]


def linearization_is_controllable(system) -> bool:
    """Whether the linearization at the equilibrium has Kalman rank n."""
    return controllability_ranks(system, system.n)[-1] == system.n


def sfl_dimensions_are_brunovsky(report) -> bool:
    """Whether, where the report calls the system static feedback
    linearizable, dim Delta_k equals the rank of [B, AB, ..., A^(k-1) B]
    at the equilibrium for every step k >= 1 of the report.  Static
    feedback and state changes keep the linearization's controllability
    indices, so an SFL system has its Brunovsky form's table.  True for a
    report that is not SFL: flat4's table differs from its ranks."""
    dims = [step.delta.dim for step in report.steps[1:]]
    return not report.sfl or dims == controllability_ranks(report.system, len(dims))
