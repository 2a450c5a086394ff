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


def is_zero_field(v: geometry.VectorField) -> bool:
    return not any(v.components)


def lie_bracket(v1: geometry.VectorField, v2: geometry.VectorField) -> geometry.VectorField:
    """Standard Lie bracket of two fields over the same coordinates,
    computed with sympy's arithmetic in the field of their components."""
    if v1.coords != v2.coords:
        raise ValueError("bracket of fields over different coordinates")
    K = symbolic.field_of(v1.components + v2.components)
    F = kernel_oracle.sympy_field(K)
    a, b = ([kernel_oracle.to_sympy(c) for c in v.components] for v in (v1, v2))
    gens = [F.gens[K.symbols.index(s)] for s in v1.coords]
    comps = []
    for i in range(len(gens)):
        term = F.zero
        for aj, bj, x in zip(a, b, gens):
            if aj:
                term += aj * b[i].diff(x)
            if bj:
                term -= bj * a[i].diff(x)
        comps.append(kernel_oracle.from_sympy(K, term))
    return geometry.VectorField(v1.coords, tuple(comps))


def is_projectable(v: geometry.VectorField, chart: geometry.Chart) -> bool:
    """Whether the field pushes forward to a well-defined field.

    True iff every theta component, written in the adapted chart, is
    free of all fibre coordinates xi.  The theta components are those
    of transform_vector_field, the only ones it computes.
    """
    theta_block = geometry.transform_vector_field(v, chart).components
    return geometry._projectability(theta_block, chart)


def is_involutive(dist: geometry.Distribution) -> bool:
    """Whether all pairwise brackets of the basis stay in the span."""
    if dist.dim <= 1:
        return True
    rows, ncols = [list(f.components) for f in dist.fields], len(dist.coords)
    K = symbolic.field_of(a for row in rows for a in row)
    base_rank = symbolic.element_rank(K, rows, ncols)
    for a, b in itertools.combinations(range(dist.dim), 2):
        br = lie_bracket(dist.fields[a], dist.fields[b])
        if is_zero_field(br):
            continue
        if symbolic.element_rank(K, rows + [list(br.components)], ncols) > base_rank:
            return False
    return True


def contains_field(dist: geometry.Distribution, v: geometry.VectorField) -> bool:
    """Membership of a field in the span of a distribution."""
    if v.coords != dist.coords:
        raise ValueError("field over foreign coordinates")
    if is_zero_field(v):
        return True
    if dist.dim == 0:
        return False
    rows, ncols = [list(f.components) for f in dist.fields], len(dist.coords)
    K = symbolic.field_of([a for row in rows for a in row] + list(v.components))
    return (symbolic.element_rank(K, rows + [list(v.components)], ncols)
            == symbolic.element_rank(K, rows, ncols))


def contains_distribution(outer: geometry.Distribution, inner: geometry.Distribution) -> bool:
    if inner.coords != outer.coords:
        raise ValueError("distribution over foreign coordinates")
    return all(contains_field(outer, f) for f in inner.fields)


def controllability_ranks(system, count) -> list:
    """The ranks of [B, AB, ..., A^(k-1) B] for k = 1, ..., count, where
    (A, B) is the linearization of x+ = f(x, u) at the equilibrium,
    computed with sympy matrices from system.update."""
    f = sp.Matrix(system.update)
    point = system.equilibrium_point()
    A = f.jacobian(system.states).subs(point)
    blocks = [f.jacobian(system.inputs).subs(point)]
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
    dims = [step.dim_delta for step in report.steps[1:]]
    return not report.sfl or dims == controllability_ranks(report.system, len(dims))
