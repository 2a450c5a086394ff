"""Construction of flat outputs, triangular forms, and parametrizations.

Once an analysis run returns a FLAT verdict, the distribution sequence it
produced is turned into explicit artifacts in four stages:

1. straighten the nested image distributions with a polynomial change of
   state coordinates whose blocks mirror the chain,
2. peel the dynamics step by step: each step splits off redundant fibre
   directions and straightens the projectable distribution of that step,
   introducing fresh coordinates and carry-over functions.  Every step,
   step 0 included, runs the same body and the same redundancy test,
   each dependence check of block dynamics runs once, and each step
   transforms its distribution D_k into the new coordinates once,
3. read the flat output, its components y1..ym in QQ(x, u), and the
   implicit triangular equations off the combined coordinate change,
4. solve the triangular blocks for a difference parametrization of the
   state and input trajectories.

Everything is local around the declared equilibrium; every regularity
condition is checked both generically and at the equilibrium itself,
where a full rank proves the generic one (symbolic.jacobian_ranks).
Each coordinate change, the straightening and every fibre change of the
peeling, has a Jacobian regular at the equilibrium, and is inverted by
its solved branch through the equilibrium (symbolic.invert), which is
then its local inverse.  Where that branch cannot be picked (none is
rational, the solver gave up, or none passes through the equilibrium),
the change raises StraighteningError naming the reason, and extract
exits 3.

All four stages run on field elements: forward maps in QQ(x, u), inverse
maps in QQ(current coordinates), a coordinate change solved in
QQ(current and new coordinates), the triangular residuals in
QQ(z, z_p1), and each parametrization block solved in QQ(its unknowns
and jets).  No stage reads an expression: the chart's maps are elements
too, and every record holds each value once, as an element.
"""

from dataclasses import dataclass, field

from . import geometry, symbolic, verification
from .errors import (
    FlatcheckError,
    ImplicitSolveError,
    IrrationalSolutionError,
    StraighteningError,
    UnsupportedEquationError,
)


def restate_distribution(dist: geometry.Distribution, system) -> geometry.Distribution:
    """Re-read the basis of a distribution over the successor-state symbols
    as one over the state symbols, in QQ(states).  The image of the
    dynamics and the state space are identified coordinate-wise, so this
    is a pure renaming of generators."""
    shifted = geometry.shifted_state_symbols(system.states)
    if tuple(dist.coords) != shifted:
        raise FlatcheckError("distribution is not over the successor-state coordinates")
    coords = tuple(system.states)
    K, rename = symbolic.function_field(coords), dict(zip(shifted, coords))
    return geometry.Distribution(coords, tuple(
        tuple(symbolic.rename(a, K, rename) for a in row) for row in dist.rows))


def polynomial_invariants(
    rows,
    variables,
    count,
    point,
    max_degree=3,
    gradient_variables=None,
    seed_gradients=(),
):
    """Greedy polynomial first integrals of a set of vector fields.

    rows are component rows over ``variables``, elements of one rational
    function field that use no generator but the variables (else
    symbolic.GeneratorsError is raised); each row is cleared of
    denominators, which leaves the span unchanged generically.  The
    ansatz runs through all monomials of total degree 1..max_degree in
    the variables, in their given order, graded; kernel directions of the
    invariance conditions are turned into integer-primitive candidates
    and accepted greedily while their gradients with respect to
    ``gradient_variables`` at ``point``, stacked on ``seed_gradients``
    (rows of rational numbers), gain rank; a full rank at the point
    proves the generic one.

    Returns (invariants, gradients): the invariants as polynomials in
    symbolic.field(variables), whose generators are sorted by name, and
    the gradient of each at the point, the rows of rational numbers the
    greedy test stacked.  Raises StraighteningError when fewer than
    ``count`` independent invariants exist within the degree cap.
    """
    if count == 0:
        return (), ()
    variables = list(variables)
    grad_vars = list(gradient_variables) if gradient_variables is not None else variables
    L = symbolic.function_field(tuple(variables))
    cleared = []
    for row in rows:
        row, _ = symbolic.clear_element_row(L, [symbolic.rename(a, L, {}) for a in row])
        if any(row):
            cleared.append(row)
    stack = [list(g) for g in seed_gradients]
    seeds = len(stack)
    accepted = []
    sorted_field = symbolic.field(variables)
    for degree in range(1, max_degree + 1):
        for candidate in symbolic.annihilating_polynomials(cleared, degree, L):
            grad = symbolic.jacobian_at(L, [candidate], grad_vars, point)[0]
            if symbolic.rational_rank(stack + [grad], len(grad_vars)) != len(stack) + 1:
                continue
            accepted.append(symbolic.rename(candidate, sorted_field, {}))
            stack.append(grad)
            if len(accepted) == count:
                return tuple(accepted), tuple(stack[seeds:])
    raise StraighteningError("straightening not found within ansatz degree %d" % max_degree)


def _complete_with_coordinates(stack, variables, count, label):
    """symbolic.unit_completion of the stacked gradients at the point,
    trying the variables last to first; the selected ones in given order."""
    kept = symbolic.unit_completion(stack, len(variables), reversed(range(len(variables))),
                                    count)
    if len(kept) < count:
        raise StraighteningError("coordinate completion failed for %s" % label)
    return [v for j, v in enumerate(variables) if j in kept]


@dataclass(frozen=True)
class StateTransformation:
    """Polynomial state change straightening the image distribution chain.

    blocks[k-1] holds the new symbols of block k; block k spans the
    directions gained at step k of the chain, and the blocks together
    replace the states.  forward maps each new
    symbol to a polynomial in QQ(states), inverse maps each original
    state back to an element of QQ(new symbols), generators sorted by
    name, and point holds the equilibrium values of the new symbols."""

    states: tuple
    blocks: tuple
    forward: dict
    inverse: dict
    point: dict

    @property
    def ordered_symbols(self) -> tuple:
        return tuple(s for block in self.blocks for s in block)


def straighten_distribution_chain(chain, point, max_degree=3) -> StateTransformation:
    """Build a state transformation adapted to a nested distribution chain.

    chain lists the distributions over the state symbols in ascending
    order, the last of them the whole state space, as for a FLAT verdict
    (FlatcheckError otherwise).  Block k of the result consists of
    invariants of the previous chain member (coordinate completions for
    block 1), so in the new coordinates each chain member is spanned by
    the first blocks.  point
    is the equilibrium in state coordinates.  The maps are computed in
    QQ(states) and QQ(new symbols)."""
    if not chain:
        raise FlatcheckError("cannot straighten an empty chain")
    states = tuple(chain[0].coords)
    dims = [d.dim for d in chain]
    if any(b <= a for a, b in zip(dims, dims[1:])):
        raise FlatcheckError("chain dimensions must increase strictly")
    if dims[-1] != len(states):
        raise FlatcheckError("the distribution chain does not fill the state space")
    kbar = len(chain)
    # invariants of member k - 1 form block k, top block first; seeds are
    # the gradients found so far.  The invariants are polynomials in
    # P = QQ(states), generators sorted by name, as polynomial_invariants
    # returns them.
    P = symbolic.field(states)
    gens = dict(zip(states, symbolic.generators(P, states)))
    seeds, found = [], []
    for k in range(kbar, 1, -1):
        invariants, gradients = polynomial_invariants(
            chain[k - 2].rows, states, dims[k - 1] - dims[k - 2], point,
            max_degree=max_degree, seed_gradients=seeds)
        found.append(list(invariants))
        seeds.extend(gradients)
    chosen = _complete_with_coordinates(seeds, states, dims[0], "block 1")
    block_values = [[gens[sym] for sym in chosen]] + found[::-1]
    blocks = []
    forward = {}
    for k in range(1, kbar + 1):
        syms = [symbolic.symbol("xbar%d_%d" % (k, i + 1)) for i in range(len(block_values[k - 1]))]
        blocks.append(tuple(syms))
        forward.update(zip(syms, block_values[k - 1]))
    new_syms = [s for block in blocks for s in block]
    try:
        inverse, values = symbolic.invert(
            symbolic.field(states + tuple(new_syms)), {s: forward[s] for s in new_syms},
            states, point)
    except UnsupportedEquationError as exc:
        raise StraighteningError(
            "state transformation could not be inverted rationally: %s" % exc) from None
    L = symbolic.field(new_syms)
    inverse = {s: symbolic.rename(inverse[s], L, {}) for s in states}
    st = StateTransformation(
        states=states,
        blocks=tuple(blocks),
        forward=forward,
        inverse=inverse,
        point=values,
    )
    # each chain member must lie along its own and earlier blocks; the
    # last spans every block
    for k, dist in enumerate(chain[:-1], start=1):
        inside = {s for block in blocks[:k] for s in block}
        for row in _transform(dist, forward, new_syms, inverse):
            for c, a in zip(new_syms, row):
                if a and c not in inside:
                    raise StraighteningError(
                        "straightened chain has a stray component of member %d along %s"
                        % (k, c)
                    )
    return st


def _transform(dist: geometry.Distribution, forward, coords, inverse, stands_for=None):
    """The basis of a distribution re-read in new coordinates.

    dist is over variables.  forward maps each coordinate of coords to an
    element over the variables, and inverse maps each variable to an
    element of L = QQ(the coordinates).  Other generators of dist's field
    are chart symbols, read as what they stand for: stands_for maps them
    to elements over the variables (theta = f(x, u), xi = xi_choice).
    The component along c of a basis field v is v(forward[c]) composed
    with the inverse map, as in geometry.transform_vector_field, whose
    composed_jacobian and apply_jacobian it shares.  Each distinct basis
    entry is composed once.  Returns one row of elements of L per basis
    field.
    """
    L = symbolic.field_of(inverse.values())
    images = dict(inverse)
    composed = {}

    def moved(a):
        if a not in composed:
            composed[a] = symbolic.compose(a, images, L)
        return composed[a]

    # the values of the chart symbols and the Jacobian entries use no
    # chart symbol, so images composes them as inverse does
    for s, a in (stands_for or {}).items():
        images[s] = moved(a)
    jacobian = geometry.composed_jacobian(forward, coords, dist.coords, images, L)
    return [geometry.apply_jacobian(L, jacobian, [moved(a) for a in row])
            for row in dist.rows]


@dataclass
class DecompositionState:
    """Mutable bookkeeping threaded through the peeling steps.

    forward_all maps every coordinate so far to an element of base =
    QQ(x, u), inverse_current maps x and u to elements of coordinates =
    QQ(current coordinates).  dynamics holds st.forward[s] composed with
    f per block symbol s, stands_for the values of the chart symbols
    (theta = f, xi = xi_choice), both in base.  gamma is the fibre of the
    next step: the inputs before step 0, block k + 1 and the eta of step
    k after step k.  y_blocks and zhat_blocks collect the symbols of the
    steps done so far, y_blocks[k] and zhat_blocks[k] those of step k."""

    report: object
    st: StateTransformation
    base: object
    coordinates: object
    dynamics: dict
    stands_for: dict
    gamma: list
    max_degree: int = 3
    verticals: list = field(default_factory=list)
    forward_all: dict = field(default_factory=dict)
    inverse_current: dict = field(default_factory=dict)
    point_cur: dict = field(default_factory=dict)
    y_blocks: list = field(default_factory=list)
    zhat_blocks: list = field(default_factory=list)

    def remaining_states(self, k) -> list:
        """State symbols of the blocks above level k."""
        return [s for block in self.st.blocks[k:] for s in block]


def _fbar_block(state: DecompositionState, j, K, message) -> list:
    """Dynamics of transformed block j in the current coordinates, as
    elements of the field K.  Raises FlatcheckError(message) when they
    depend on a coordinate that K lacks."""
    try:
        return [
            symbolic.rename(
                symbolic.compose(state.dynamics[s], state.inverse_current, state.coordinates),
                K, {})
            for s in state.st.blocks[j - 1]
        ]
    except symbolic.GeneratorsError:
        raise FlatcheckError(message) from None


def _change_fibre(state: DecompositionState, definitions, consumed, k):
    """Replace the consumed fibre coordinates by new ones everywhere.

    definitions maps each new symbol s to its value v, an element over
    the current coordinates.  The forward maps of the new symbols are v
    composed with those of the current coordinates.  The inverse of the
    change is its solved branch through the equilibrium in QQ(current,
    new coordinates) (symbolic.invert), composed into the inverse maps
    there, and renamed into QQ(the new current coordinates)."""
    new = list(definitions)
    new_forward = {s: symbolic.compose(v, state.forward_all, state.base)
                   for s, v in definitions.items()}
    H = symbolic.field(state.coordinates.symbols + tuple(new))
    try:
        solution, values = symbolic.invert(H, definitions, consumed, state.point_cur)
    except UnsupportedEquationError as exc:
        raise StraighteningError(
            "fibre transformation at step %d could not be inverted rationally: %s"
            % (k, exc)) from None
    state.forward_all.update(new_forward)
    state.coordinates = symbolic.field(
        [s for s in state.coordinates.symbols if s not in consumed] + new)
    state.inverse_current = {
        v: symbolic.rename(symbolic.compose(symbolic.rename(a, H, {}), solution, H),
                           state.coordinates, {})
        for v, a in state.inverse_current.items()
    }
    state.point_cur.update(values)


def _split_fibre(state: DecompositionState, k, rows, remaining, fibre, count, names, label):
    """Split the fibre coordinates of step k into count invariants of the
    rows and a completion by fibre coordinates.

    rows are over remaining + fibre, and the invariants are
    polynomial_invariants of them, tested on their gradients along the
    fibre.  The fibre coordinates that complete those gradients at the
    equilibrium to full rank are kept (label names a completion that
    fails).  The new symbols, names[0] for the invariants and names[1]
    for the kept coordinates, replace the fibre (_change_fibre), and the
    kept ones join the verticals.  Returns both lists of new symbols."""
    invariants, gradients = polynomial_invariants(
        rows, remaining + fibre, count, state.point_cur, max_degree=state.max_degree,
        gradient_variables=fibre)
    chosen = _complete_with_coordinates(gradients, fibre, len(fibre) - count, label)
    split = [symbolic.symbol("%s%d_%d" % (names[0], k, i + 1)) for i in range(count)]
    verticals = [symbolic.symbol("%s%d_%d" % (names[1], k, i + 1)) for i in range(len(chosen))]
    kept = symbolic.generators(state.coordinates, chosen)
    _change_fibre(state, dict(zip(split + verticals, list(invariants) + kept)), fibre, k)
    state.verticals.extend(verticals)
    return split, verticals


def decompose_step(k, state: DecompositionState, basis):
    """Run peeling step k: split off the redundant fibre directions and
    straighten the projectable distribution of the step.

    basis is the projectable distribution of step k over the base
    variables.  Every step, step 0 included, runs the same body: the
    fibre gamma (the inputs at step 0, else block k and the eta of the
    step before) carries the dynamics of the blocks above, whose rank in
    gamma gives the redundant directions mu, checked against the report.
    Each dependence of block dynamics is checked once: those of blocks
    k+1..kbar where the step opens, that of block k+1 again in its new
    coordinates.  The basis is transformed into the coordinates once,
    before its straightening.  After it the basis spans exactly the
    verticals, so it is not transformed again: the remaining coordinates
    and their maps are unchanged, every eta is an exact invariant of the
    zeta part of its echelon rows (the vertical-pivot rows have none),
    and the fibre change is inverted at the equilibrium, so it keeps the
    dimension.  Appends the symbols y split off with the redundant
    directions and the symbols zhat of the straightening to the state's
    blocks."""
    report = state.report
    kbar = report.kbar
    rho_next = report.steps[k + 1].rho
    remaining = state.remaining_states(k)
    gamma = state.gamma

    K = symbolic.field(remaining + gamma)
    fbar_rows = []
    for j in range(k + 1, kbar + 1):
        fbar_rows += _fbar_block(
            state, j, K,
            "dynamics of block %d depend on coordinates consumed before step %d" % (j, k))
    rank_generic, rank_point = symbolic.jacobian_ranks(K, fbar_rows, gamma, state.point_cur)
    if rank_point != rank_generic:
        raise FlatcheckError(
            "subsystem input rank drops at the equilibrium at step %d" % k
        )
    mu = len(gamma) - rank_generic
    if mu != report.steps[k].mu:
        raise FlatcheckError(
            "redundancy mismatch at step %d: decomposition found %d, analysis "
            "reported %d" % (k, mu, report.steps[k].mu)
        )
    zeta_syms, y_syms = gamma, []
    if mu:
        jacobian = [[symbolic.derivative(a, g) for g in gamma] for a in fbar_rows]
        rref, pivots = symbolic.element_rref(K, jacobian, len(gamma))
        kernel_rows = [
            [K.zero] * len(remaining) + vec
            for vec in symbolic.element_nullspace(K, rref, pivots, len(gamma))
        ]
        zeta_syms, y_syms = _split_fibre(
            state, k, kernel_rows, remaining, gamma, len(gamma) - mu, ("zeta", "y"),
            "redundant directions at step %d" % k)

    # straighten the projectable distribution over the new fibre
    coords = remaining + zeta_syms + state.verticals
    L = state.coordinates
    rows = _transform(basis, state.forward_all, coords, state.inverse_current,
                      state.stands_for)
    if any(a for row in rows for a in row[:len(remaining)]):
        raise FlatcheckError("projectable distribution leaves the fibre at step %d" % k)
    n_zeta = len(zeta_syms)
    rref, pivots = symbolic.element_rref(
        L, [row[len(remaining):] for row in rows], len(coords) - len(remaining))
    zeta_pivot_rows = [i for i, p in enumerate(pivots) if p < n_zeta]
    vertical_pivots = [p for p in pivots if p >= n_zeta]
    if len(zeta_pivot_rows) != rho_next:
        raise FlatcheckError(
            "distribution at step %d has %d transversal directions, expected %d"
            % (k, len(zeta_pivot_rows), rho_next)
        )
    if len(vertical_pivots) != len(state.verticals):
        raise FlatcheckError(
            "previously constructed coordinates fell out of the distribution at "
            "step %d" % k
        )
    W = symbolic.field(remaining + zeta_syms)
    try:
        w_rows = [[W.zero] * len(remaining) + [symbolic.rename(a, W, {}) for a in rref[i][:n_zeta]]
                  for i in zeta_pivot_rows]
    except symbolic.GeneratorsError:
        raise FlatcheckError(
            "distribution components at step %d depend on consumed coordinates" % k
        ) from None
    eta_syms, zhat_syms = _split_fibre(
        state, k, w_rows, remaining, zeta_syms, n_zeta - rho_next, ("eta", "zhat"),
        "straightening at step %d" % k)

    # block k + 1 must see the consumed fibre directions only through zhat;
    # the blocks above it are checked where step k + 1 opens
    K = symbolic.field(remaining + eta_syms + zhat_syms)
    next_rows = _fbar_block(
        state, k + 1, K,
        "dynamics of block %d depend on coordinates consumed at step %d" % (k + 1, k))
    generic, at_point = symbolic.jacobian_ranks(K, next_rows, zhat_syms, state.point_cur)
    if generic != rho_next:
        raise FlatcheckError(
            "block %d dynamics are singular in the new coordinates" % (k + 1)
        )
    if at_point != rho_next:
        raise FlatcheckError(
            "block %d dynamics are singular at the equilibrium" % (k + 1)
        )
    state.gamma = list(state.st.blocks[k]) + eta_syms
    state.y_blocks.append(tuple(y_syms))
    state.zhat_blocks.append(tuple(zhat_syms))


@dataclass(frozen=True)
class DecompositionTrace:
    """Complete record of the peeling run.

    z_symbols lists the final coordinates flat-output blocks first;
    z_values expresses them as elements of QQ(x, u) and z_inverse goes
    the other way, into QQ(z_symbols).  combined_rows spell out the
    combined coordinate change: every transformed state and every input
    as an element of QQ(z_symbols).  Level k of the final coordinates is
    y_blocks[k] and zhat_blocks[k], the symbols of peeling step k, and
    the top level kbar is y_blocks[kbar], the flat output's last block;
    y_blocks[0] is empty, since the inputs have full rank.  dynamics
    holds the transformed dynamics st.forward[s] composed with f per
    block symbol s, in QQ(x, u).  Every one of these fields has its
    generators sorted by name."""

    system: object
    transformation: StateTransformation
    z_symbols: tuple
    z_values: dict
    z_inverse: dict
    z_point: dict
    combined_rows: tuple
    y_blocks: tuple
    zhat_blocks: tuple
    y_level_symbols: tuple
    dynamics: dict = field(compare=False, repr=False)

    @property
    def kbar(self) -> int:
        return len(self.zhat_blocks)


def extract_flat_output(system, report, max_degree=3) -> tuple:
    """Construct a flat output from a FLAT analysis report.

    Returns the flat output's components y1..ym, elements of QQ(x, u),
    together with the decomposition trace that feeds the triangular form
    and the parametrization."""
    if not report.flat:
        raise FlatcheckError(
            "flat output construction requires verdict FLAT, got %s" % report.verdict
        )
    eq_point = system.equilibrium_point()
    state_point = {s: eq_point[s] for s in system.states}
    chain = [restate_distribution(d, system) for d in report.delta_chain()]
    st = straighten_distribution_chain(chain, state_point, max_degree=max_degree)
    kbar = report.kbar
    chart = report.chart
    new = st.ordered_symbols
    # the chart map (theta = f, xi = xi_choice) and the forward map of st
    # over QQ(x, u), the inverse of st over QQ(new symbols, u)
    base = symbolic.field(system.variables)
    stands_for = {c: symbolic.rename(chart.forward[c], base, {}) for c in chart.coords}
    forward_all = {s: symbolic.rename(st.forward[s], base, {}) for s in new}
    coordinates = symbolic.field(new + system.inputs)
    inverse_current = {s: symbolic.rename(st.inverse[s], coordinates, {})
                       for s in system.states}
    inverse_current.update(zip(system.inputs, symbolic.generators(coordinates, system.inputs)))
    update = dict(zip(system.states, (stands_for[t] for t in chart.theta)))
    forward_all.update(zip(system.inputs, symbolic.generators(base, system.inputs)))
    point_cur = {**st.point, **{u: eq_point[u] for u in system.inputs}}
    state = DecompositionState(
        report=report, st=st, base=base, coordinates=coordinates,
        dynamics={s: symbolic.compose(forward_all[s], update, base) for s in new},
        stands_for=stands_for, max_degree=max_degree, forward_all=forward_all,
        inverse_current=inverse_current, point_cur=point_cur, gamma=list(system.inputs),
    )
    for k in range(kbar):
        decompose_step(k, state, report.steps[k].D)

    top_sources = state.gamma
    top_syms = [symbolic.symbol("y%d_%d" % (kbar, i + 1)) for i in range(len(top_sources))]
    for sym, src in zip(top_syms, top_sources):
        forward_all[sym] = forward_all[src]
        point_cur[sym] = point_cur[src]

    y_blocks = state.y_blocks + [tuple(top_syms)]
    zhat_blocks = state.zhat_blocks

    z_symbols, y_level_symbols = list(top_syms), list(top_syms)
    for k in range(kbar - 1, -1, -1):
        z_symbols += y_blocks[k] + zhat_blocks[k]
        y_level_symbols += y_blocks[k]
    # every fibre change replaces its fibre by as many new symbols, so the
    # current coordinates are top_sources and the verticals, n + m in all,
    # and the y blocks hold m symbols, since gamma loses mu_k at step k
    Z = symbolic.field(z_symbols)
    renamed = dict(zip(top_sources, top_syms))
    z_inverse = {v: symbolic.rename(state.inverse_current[v], Z, renamed)
                 for v in system.variables}
    rows = {sym: symbolic.compose(forward_all[sym], z_inverse, Z) for sym in st.ordered_symbols}
    rows.update((u, z_inverse[u]) for u in system.inputs)

    z_values = {z: forward_all[z] for z in z_symbols}
    components = tuple(z_values[s] for s in y_level_symbols)
    trace = DecompositionTrace(
        system=system,
        transformation=st,
        z_symbols=tuple(z_symbols),
        z_values=z_values,
        z_inverse=z_inverse,
        z_point={z: point_cur[z] for z in z_symbols},
        combined_rows=tuple(rows.items()),
        y_blocks=tuple(y_blocks),
        zhat_blocks=tuple(zhat_blocks),
        y_level_symbols=tuple(y_level_symbols),
        dynamics=state.dynamics,
    )
    return components, trace


@dataclass(frozen=True)
class TriangularBlock:
    """One implicit block: residuals that vanish along trajectories, as
    elements of QQ(the block's coordinates and their successors), and the
    coordinates the block is solved for during parametrization."""

    k: int
    label: str
    residuals: tuple
    solved_for: tuple


@dataclass(frozen=True)
class ImplicitTriangularForm:
    """Implicit triangular equations in the final coordinates.

    blocks are ordered top level first.  shifted maps every final
    coordinate to its successor symbol."""

    blocks: tuple
    shifted: dict
    trace: DecompositionTrace


def _level_symbols(trace: DecompositionTrace, j) -> tuple:
    return trace.y_blocks[j] + (trace.zhat_blocks[j] if j < trace.kbar else ())


def to_implicit_triangular(trace: DecompositionTrace):
    """Rewrite the dynamics as implicit triangular blocks in the final
    coordinates.  Block k relates the successor values of level k to the
    straightened coordinates of level k-1 and is regular in them, both
    generically and at the equilibrium.

    The residual of a block symbol s is its combined row read at the
    successor coordinates, minus its dynamics composed with z_inverse,
    in QQ(z, z_p1)."""
    kbar = trace.kbar
    shifted = {z: symbolic.symbol(z.name + "_p1") for z in trace.z_symbols}
    Z = symbolic.field(trace.z_symbols)
    both = symbolic.field(list(shifted) + list(shifted.values()))
    rows = dict(trace.combined_rows)
    point = {**trace.z_point, **{shifted[z]: v for z, v in trace.z_point.items()}}
    blocks = []
    for k in range(kbar, 0, -1):
        solved_for = trace.zhat_blocks[k - 1]
        allowed = list(solved_for)
        for j in range(k, kbar + 1):
            for z in _level_symbols(trace, j):
                allowed += [z, shifted[z]]
        A = symbolic.field(allowed)
        residuals = []
        for sym in trace.transformation.blocks[k - 1]:
            ahead = symbolic.rename(rows[sym], both, shifted)
            through = symbolic.rename(
                symbolic.compose(trace.dynamics[sym], trace.z_inverse, Z), both, {})
            try:
                residuals.append(symbolic.rename(symbolic.difference(ahead, through), A, {}))
            except symbolic.GeneratorsError:
                raise FlatcheckError(
                    "triangular block %d violates the dependence pattern" % k
                ) from None
        generic, at_point = symbolic.jacobian_ranks(A, residuals, solved_for, point)
        if generic != len(solved_for):
            raise FlatcheckError("triangular block %d is singular" % k)
        if at_point != len(solved_for):
            raise FlatcheckError("triangular block %d is singular at the equilibrium" % k)
        blocks.append(
            TriangularBlock(
                k=k,
                label="Xi_%d" % k,
                residuals=tuple(residuals),
                solved_for=tuple(solved_for),
            )
        )
    return ImplicitTriangularForm(
        blocks=tuple(blocks),
        shifted=shifted,
        trace=trace,
    )


def _composed(elements, images, keep=()):
    """Elements of one field with each generator s replaced by images[s],
    an element of any field.  Returns K = QQ(keep and the generators the
    results use), sorted by name, and the results as elements of K."""
    symbols = symbolic.field_of(elements).symbols
    W = symbolic.field(set(keep).union(*(symbolic.used_symbols(images[s]) for s in symbols)))
    moved = {s: symbolic.rename(images[s], W, {}) for s in symbols}
    results = [symbolic.compose(a, moved, W) for a in elements]
    K = symbolic.field(set(keep).union(*map(symbolic.used_symbols, results)))
    return K, [symbolic.rename(a, K, {}) for a in results]


def _format_equations(equations) -> str:
    return "; ".join("%s = 0" % symbolic.to_infix(a) for a in equations)


def parametrize_from_triangular(form: ImplicitTriangularForm):
    """Solve the triangular blocks top-down for a difference parametrization.

    Every z coordinate is expressed in forward shifts of the flat output;
    composing the inverse coordinate change with them yields the state and
    input parametrizations.  Each block is solved in QQ(its unknowns and
    the jets its equations use).  Raises ImplicitSolveError when a block
    has no rational solution branch through the equilibrium."""
    trace = form.trace
    ys = trace.y_level_symbols
    jets = [verification.jet_symbol(j, s) for s in (0, 1) for j in range(1, len(ys) + 1)]
    param = dict(zip(list(ys) + [form.shifted[y] for y in ys],
                     symbolic.generators(symbolic.field(jets), jets)))

    def at_equilibrium(sym):
        """A jet takes the equilibrium value of its component."""
        j, _ = verification.parse_jet_symbol(sym)
        return trace.z_point[ys[j - 1] if j is not None else sym]

    for block in form.blocks:
        unknowns = list(block.solved_for)
        own = dict(zip(unknowns, symbolic.generators(symbolic.field(unknowns), unknowns)))
        S, equations = _composed(block.residuals, {**param, **own}, unknowns)
        point = {s: at_equilibrium(s) for s in S.symbols}
        try:
            chosen = symbolic.branch_through(
                S, symbolic.solve_elements(S, equations, unknowns), unknowns, point)
        except IrrationalSolutionError as exc:
            raise ImplicitSolveError(
                "implicit solve failed for block %s: solution for %s is not "
                "rational in the flat output shifts" % (block.label, exc.unknown)
            ) from None
        except FlatcheckError as exc:
            raise ImplicitSolveError(
                "implicit solve failed for block %s: %s (%s)"
                % (block.label, _format_equations(equations), exc)
            ) from None
        for z in unknowns:
            param[z] = chosen[z]
            param[form.shifted[z]] = verification.shift_function(chosen[z])

    system = trace.system
    _, values = _composed([trace.z_inverse[v] for v in system.variables], param)
    return verification.FlatParametrization(F_x=tuple(values[:system.n]),
                                            F_u=tuple(values[system.n:]))
