"""Differential geometry on the extended space of a discrete-time system.

The update map f makes the combined state-input space a fibred manifold
over the space of next states.  This module builds the adapted chart in
which f is a projection, transforms vector fields into it, and provides
the three operations of each step of the flatness test: the lift of
Delta_k to E_k, the cut of E_k to its largest projectable subdistribution
D_k, and the pushforward of D_k to Delta_{k+1}, which the cut computes
and returns with D_k.

Conventions.  A distribution is its coordinate tuple and one row of
components per basis field.  Every component is an element of a
rational function field, which only the symbolic module looks inside
(``symbolic.to_infix`` prints one), one field per space:
over the base variables (x, u) the chart's wide field QQ(x, u, theta, xi), in
chart coordinates the narrow field QQ(theta, xi), over the shifted state
symbols x<i>_p1 of the image space QQ(x_p1, ...).  Lift and pushforward
rename generators between the spaces, and the chart renames the model's
update elements, so the sequence builds and reads no expression.

Only the theta row of a field is ever written in chart coordinates:
a field is projectable exactly when its theta components are free of
xi, and then they are its pushforward, so no xi component is computed.
The chart-coordinate half of the largest projectable subdistribution,
where nearly all gcds are taken, runs on these theta rows in the
narrow field; its coefficients are renamed into the wide field to
recombine the base rows.  Every entry that is kept takes one
gcd: a recombination sums its products over one common denominator, or
takes one gcd chain per row where only the cleared row is read
(clear_fraction_row); an entry of an echelon form, of a residual (the
xi-derivative folded into the same sum) or of a transformed field
(symbolic.dot) is one sum over one denominator too, and so is an entry
of the chart's composed Jacobian, whose derivative is composed before
it is reduced (symbolic.compose_derivative).  Each such gcd is the one
routine of symbolic: most pairs are proved coprime from univariate
images at a fixed integer point, and the rest run symbolic's own
heuristic gcd on integer dicts in the generators the pair uses only.
Projectability is read off the canonical fractions without any gcd
(symbolic.depends_on).  An extracted field's theta row is read off
the echelon form itself, and those echelon rows, renamed to the image
space, are the basis of the pushforward.  All linear algebra runs over
these fields, so every basis produced here is deterministic.  The chart
stores one inverse map, from the wide field into the narrow one, and
the theta rows of the Jacobian of its forward map composed with it, so
a transform is one composition per component and a matrix-vector
product.  composed_jacobian and apply_jacobian are that re-reading of a
basis in new coordinates, which the peeling of the construction shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import symbolic
from .errors import (
    ChartError,
    ConstantDimensionError,
    NotProjectableError,
    UnsupportedEquationError,
)


def shifted_state_symbols(states) -> tuple:
    """Coordinates of the image space: one x<i>_p1 symbol per state."""
    return tuple(symbolic.symbol("%s_p1" % s.name) for s in states)


@dataclass(frozen=True)
class Distribution:
    """Span of component rows over an ordered coordinate tuple.

    Each row is one basis field, with one component per coordinate, all
    in one function field whose generators include the coordinates.  The
    basis is kept independent over that field, so the dimension is just
    the number of rows.
    """

    coords: tuple
    rows: tuple

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.coords):
                raise ValueError(
                    "row has %d components for %d coordinates"
                    % (len(row), len(self.coords))
                )

    @property
    def dim(self) -> int:
        return len(self.rows)


def make_distribution(coords, rows) -> Distribution:
    """Build a distribution from component rows, dropping dependent ones.

    The rows hold elements of one function field (modelfile.parse_elements
    reads them from model text) and stay in it.  They are reduced to echelon form
    and cleared to primitive polynomial vectors, which makes the stored
    basis canonical for the span.
    """
    coords = tuple(coords)
    rows = [list(r) for r in rows]
    if not rows:
        return Distribution(coords, ())
    K = symbolic.field_of(a for row in rows for a in row)
    rref, pivots = symbolic.element_rref(K, [r for r in rows if any(r)], len(coords))
    return Distribution(coords, tuple(
        tuple(symbolic.clear_element_row(K, row)[0]) for row in rref[:len(pivots)]))


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
    d forward[t] / d v composed with the inverse map, in the narrow
    field, one row per theta coordinate t and one column per base
    variable v (see composed_jacobian).  df_at_equilibrium holds the
    same rows at the equilibrium, df / d(x, u) there, as rational
    numbers.  equilibrium holds the declared point and its chart image,
    over every generator.
    """

    system_vars: tuple
    theta: tuple
    xi: tuple
    forward: dict
    xi_choice: tuple
    function_field: object = field(compare=False, repr=False)
    inverse: dict = field(compare=False, repr=False)
    jacobian: tuple = field(compare=False, repr=False)
    df_at_equilibrium: tuple = field(compare=False, repr=False)
    equilibrium: dict = field(compare=False, repr=False)

    @property
    def coords(self) -> tuple:
        return tuple(self.theta) + tuple(self.xi)

    @property
    def coordinate_field(self):
        return symbolic.field(self.coords)


def composed_jacobian(forward, coords, variables, images, K) -> list:
    """The Jacobian of a forward map composed with an inverse map: one row
    per coordinate c of coords and one column per variable v, holding
    d forward[c] / d v composed with images, the inverse map into the
    field K.  Each entry is composed from the derivative's unreduced
    fraction and takes one gcd (symbolic.compose_derivative)."""
    return [[symbolic.compose_derivative(forward[c], v, images, K) for v in variables]
            for c in coords]


def apply_jacobian(K, jacobian, row) -> list:
    """A composed_jacobian times row, the components of a field over the
    variables already composed with the inverse map: the field's
    components in the new coordinates, elements of the field K, each one
    sum of products (symbolic.dot)."""
    return [symbolic.dot(K, jac_row, row) for jac_row in jacobian]


def build_adapted_chart(system) -> Chart:
    """Adapted chart: theta = f(x, u) plus m fibre coordinates xi.

    The fibre coordinates are picked greedily from the declared
    variables, states before inputs, keeping the stacked Jacobian of
    (f, xi) regular at the equilibrium, which proves it regular
    generically (symbolic.unit_completion).  The inverse map is the solved
    branch through the equilibrium (symbolic.invert).
    The update map is the model's one conversion
    (DiscreteTimeSystem.update_elements), renamed into the wide field.
    """
    n, m = system.n, system.m
    variables = system.variables
    point = system.equilibrium_point()

    coords = tuple(symbolic.symbol("theta_%d" % (i + 1)) for i in range(n)) + tuple(
        symbolic.symbol("xi_%d" % (j + 1)) for j in range(m))
    # components over the base variables live in QQ(x, u, theta, xi),
    # components in chart coordinates in QQ(theta, xi)
    K, N = symbolic.field(variables + coords), symbolic.field(coords)
    theta, xi = coords[:n], coords[n:]
    update = [symbolic.rename(f, K, {}) for f in system.update_elements[1]]

    rows = symbolic.jacobian_at(K, update, variables, point)
    chosen = symbolic.unit_completion(rows, n + m, range(n + m), m)
    if len(chosen) < m:
        raise ChartError(
            "no %d coordinate functions complete f to a regular chart" % m
        )
    xi_choice = tuple(variables[j] for j in chosen)

    forward = dict(zip(coords, update + symbolic.generators(K, xi_choice)))
    try:
        branch, image = symbolic.invert(K, forward, variables, point)
    except UnsupportedEquationError as exc:
        raise ChartError(
            "the chart inverse was not found: %s (xi = %s)"
            % (exc, tuple(map(str, xi_choice)))
        ) from None

    # the solved values use only the chart symbols, so they rename into N
    inverse = {**dict(zip(coords, symbolic.generators(N, coords))),
               **{v: symbolic.rename(a, N, {}) for v, a in branch.items()}}

    jacobian = tuple(map(tuple, composed_jacobian(forward, theta, variables, inverse, N)))
    return Chart(
        system_vars=tuple(variables),
        theta=theta,
        xi=xi,
        forward=forward,
        xi_choice=xi_choice,
        function_field=K,
        inverse=inverse,
        jacobian=jacobian,
        df_at_equilibrium=tuple(map(tuple, rows)),
        equilibrium={**point, **image},
    )


def transform_vector_field(row, chart: Chart) -> list:
    """The theta row of a field over the base variables in chart
    coordinates: its components along chart.theta.

    The components of row are elements of chart.function_field, those of
    the result elements of chart.coordinate_field: the theta rows of the
    Jacobian of the forward map applied to the field, both composed with
    the inverse map.  Chart symbols occurring in the components of row
    are kept as they are.
    """
    N = chart.coordinate_field
    moved = [symbolic.compose(c, chart.inverse, N) for c in row]
    return apply_jacobian(N, chart.jacobian, moved)


def _projectability(theta_row, chart: Chart) -> bool:
    """Whether a field with this theta row in chart coordinates pushes
    forward to a well-defined field: every theta component is free of
    all fibre coordinates xi."""
    return not any(symbolic.depends_on(c, x) for c in theta_row for x in chart.xi)


def largest_projectable_subdistribution(dist: Distribution, chart: Chart) -> tuple:
    """The unique largest subdistribution D that pushes forward under f,
    and its pushforward: (D, f_*D).

    dist must be over the chart's base variables (ValueError otherwise)
    and involutive, as every E_k is by construction: the lift of an
    involutive Delta_k plus the input directions.  Involutivity is not
    checked here.

    Descending iteration: starting from the full distribution, keep the
    fields whose brackets with every fibre direction stay inside the
    current candidate plus the vertical distribution.  Each refinement
    is one kernel computation over the function field, because the
    derivative terms of the brackets stay in the candidate by linearity.
    At the fixed point, a projectable basis is extracted through the
    echelon form of the theta rows, and rechecked field by field.  An
    empty candidate runs through the same steps as a trivial case.

    The candidate fields are carried both over the base variables, in
    chart.function_field, and as their theta rows in chart coordinates,
    in the narrow chart.coordinate_field, where every row reduction
    runs.  Only the rows of dist are transformed: the kernel and
    extraction coefficients are functions of the chart coordinates, so
    the theta row of sum_a c_a v_a is sum_a c_a * theta(v_a), times the
    cleared denominator's factor composed with the inverse map where the
    base row is cleared.  The coefficients are renamed into the wide
    field to combine the base rows.  Each combination is summed over one
    common denominator (symbolic.combine_rows); a row that is only read
    cleared, a kernel row or a vertical extracted row, is cleared
    straight from the combined numerators.  The extraction reduces
    [A | I], A the theta rows, to [E*A | E], so the theta row of an
    extracted field is its row of E*A, which needs no recombination.
    The nonzero ones among these theta rows, and the witness rows at the
    equilibrium, which the constant-dimension check here reads, are
    handed to pushforward_distribution.
    """
    if dist.coords != chart.system_vars:
        raise ValueError("distribution is not over the chart's base variables")
    n = len(chart.theta)
    K, N = chart.function_field, chart.coordinate_field

    def widened(coeffs):
        return [symbolic.rename(c, K, {}) if c else K.zero for c in coeffs]

    adapted = [transform_vector_field(row, chart) for row in dist.rows]
    cur = [list(row) for row in dist.rows]
    while True:
        reduced, pivots = symbolic.element_rref(N, [a for a in adapted if any(a)], n)
        reduced = reduced[: len(pivots)]
        # residuals[j][a]: d/d xi_j of the theta row of field a, modulo
        # the span of the theta rows
        residuals = [
            [symbolic.derivative_mod_rows(N, a, x, reduced, pivots) for a in adapted]
            for x in chart.xi
        ]
        relations = [
            [residuals[j][a][i] for a in range(len(cur))]
            for j in range(len(chart.xi))
            for i in range(n)
        ]
        rref, kernel_pivots = symbolic.element_rref(N, relations, len(cur))
        kernel = symbolic.element_nullspace(N, rref, kernel_pivots, len(cur))
        if len(kernel) == len(cur):
            break
        new_cur, new_adapted = [], []
        for vec in kernel:
            comps, factor = symbolic.clear_fraction_row(K, *symbolic.combine_rows(
                K, widened(vec), cur))
            new_cur.append(comps)
            new_adapted.append(symbolic.fraction_row(
                N, *symbolic.combine_rows(N, vec, adapted),
                symbolic.compose(factor, chart.inverse, N)))
        cur, adapted = new_cur, new_adapted

    # Extraction: echelon-reduce the theta rows A with an identity block
    # alongside, so the transform rows E recombine the basis into fields
    # with xi-free theta components (top rows) and vertical fields
    # (zero-theta rows).  The rref is [E*A | E], so the theta row of a
    # recombined field is the row's own theta row.
    aug = [a + [N.one if b == i else N.zero for b in range(len(cur))]
           for i, a in enumerate(adapted)]
    rref, _ = symbolic.element_rref(N, aug, n + len(cur))
    witness = [symbolic.clear_element_row(K, comps)[0] for comps in cur]
    rows, theta_rows = [], []
    for row in rref:
        theta, coeffs = row[:n], row[n:]
        numerators, denominator = symbolic.combine_rows(K, widened(coeffs), cur)
        cleared = symbolic.clear_fraction_row(K, numerators, denominator)[0]
        witness.append(cleared)
        # Rescaling a field by a coordinate-dependent factor changes its
        # theta components' xi-derivatives, so denominators may only be
        # cleared on vertical rows, whose theta row is zero anyway.
        comps = symbolic.fraction_row(K, numerators, denominator) if any(theta) else cleared
        if not _projectability(theta, chart):
            raise NotProjectableError(
                "projectable basis extraction failed: (%s)"
                % ", ".join(map(symbolic.to_infix, comps))
            )
        rows.append(tuple(comps))
        if any(theta):
            theta_rows.append(theta)

    # witness rows mix base and chart symbols: evaluate at both equilibria
    W = symbolic.element_values(K, [r for r in witness if any(r)], chart.equilibrium)
    rank_eq = symbolic.rational_rank(W, len(dist.coords))
    if rank_eq != len(rows):
        raise ConstantDimensionError(
            "projectable subdistribution has dimension %d generically "
            "but %d at the equilibrium" % (len(rows), rank_eq)
        )
    return Distribution(dist.coords, tuple(rows)), pushforward_distribution(theta_rows, W, chart)


def pushforward_distribution(theta_rows, witness_values, chart: Chart) -> Distribution:
    """Span of the pushforwards of a projectable distribution's basis on
    the image space.

    A projectable field's theta components are its pushforward, so the
    basis is theta_rows, the nonzero theta rows of the basis in chart
    coordinates (elements of chart.coordinate_field) in reduced echelon
    form, renamed to x+ and cleared.  The image dimension may drop.  The
    span must still have the same dimension at the equilibrium image as
    generically, otherwise the constant-dimension assumption underlying
    the whole analysis fails.  That is checked twice: on the pushed
    component rows themselves, and pointwise, witness_values (rows of
    rational numbers spanning the distribution at the equilibrium)
    through the update Jacobian there, which catches drops that a
    rescaled basis would hide.
    """
    n = len(chart.theta)
    xplus = shifted_state_symbols(chart.system_vars[:n])
    L = symbolic.function_field(xplus)
    rename = dict(zip(chart.theta, xplus))
    rows = [tuple(symbolic.clear_element_row(L, [symbolic.rename(c, L, rename) for c in row])[0])
            for row in theta_rows]

    generic = len(rows)
    image_point = {xp: chart.equilibrium[t] for xp, t in zip(xplus, chart.theta)}
    at_eq = symbolic.rational_rank(symbolic.element_values(L, rows, image_point), n)
    pushed = [[sum(w * d for w, d in zip(w_row, d_row)) for d_row in chart.df_at_equilibrium]
              for w_row in witness_values]
    for rank in (at_eq, symbolic.rational_rank(pushed, n)):
        if rank != generic:
            raise ConstantDimensionError(
                "pushforward has dimension %d generically but %d at the "
                "equilibrium image" % (generic, rank)
            )
    return Distribution(xplus, tuple(rows))


def lift_distribution(delta: Distribution, chart: Chart) -> Distribution:
    """Preimage of an image-space distribution under the projection.

    Renames the coordinates x+ of delta back to the states x in
    chart.function_field, pads with zero input components, and adjoins
    the full input directions, so the dimension grows by m.
    """
    K, variables = chart.function_field, chart.system_vars
    n, m = len(chart.theta), len(chart.xi)
    rename = dict(zip(delta.coords, variables))
    rows = [tuple(symbolic.rename(c, K, rename) for c in row) + (K.zero,) * m
            for row in delta.rows]
    rows += [tuple(K.one if i == n + j else K.zero for i in range(n + m)) for j in range(m)]
    return Distribution(variables, tuple(rows))
