"""Construction of flat outputs, triangular forms, and parametrizations.

Once an analysis run returns a FLAT verdict, the distribution sequence it
produced is turned into explicit artifacts in four stages:

1. straighten the nested image distributions with a polynomial change of
   state coordinates whose blocks mirror the chain,
2. peel the dynamics step by step: each step splits off redundant fibre
   directions and straightens the projectable distribution of that step,
   introducing fresh coordinates and carry-over functions,
3. read the flat output and the implicit triangular equations off the
   combined coordinate change,
4. solve the triangular blocks for a difference parametrization of the
   state and input trajectories.

Everything is local around the declared equilibrium; every regularity
condition is checked both generically and at the equilibrium itself.

All four stages run on field elements: forward maps in QQ(x, u), inverse
maps in QQ(current coordinates), a coordinate change solved in
QQ(current and new coordinates), the triangular residuals in
QQ(z, z_p1), and each parametrization block solved in QQ(its unknowns
and jets).  No stage reads an expression: the chart's maps are elements
too, and every record holds each value once, as an element.
"""

from dataclasses import dataclass, field
import itertools

import sympy as sp
from sympy import QQ
from sympy.polys.polyerrors import GeneratorsError

from . import geometry, symbolic, verification
from .errors import (
    FlatcheckError,
    ImplicitSolveError,
    IrrationalSolutionError,
    StraighteningError,
)

__all__ = [
    "polynomial_invariants",
    "restate_distribution",
    "StateTransformation",
    "straighten_distribution_chain",
    "DecompositionState",
    "DecompositionStep",
    "decompose_step",
    "FlatOutput",
    "DecompositionTrace",
    "extract_flat_output",
    "TriangularBlock",
    "ImplicitTriangularForm",
    "to_implicit_triangular",
    "parametrize_from_triangular",
]


def _shift_symbol(s: sp.Symbol) -> sp.Symbol:
    return sp.Symbol(s.name + "_p1")


def restate_distribution(dist: geometry.Distribution, system) -> geometry.Distribution:
    """Re-read the basis of a distribution over the successor-state symbols
    as one over the state symbols, in QQ(states).  The image of the
    dynamics and the state space are identified coordinate-wise, so this
    is a pure renaming of generators."""
    shifted = geometry.shifted_state_symbols(system)
    if tuple(dist.coords) != shifted:
        raise FlatcheckError("distribution is not over the successor-state coordinates")
    coords = tuple(system.states)
    K, rename = symbolic.function_field(coords), dict(zip(shifted, coords))
    fields = tuple(
        geometry.VectorField(coords, tuple(symbolic.rename(a, K, rename) for a in f.components))
        for f in dist.fields
    )
    return geometry.Distribution(coords=coords, fields=fields)


def _gradients_at(functions, variables, point) -> list:
    """Gradients of field elements with respect to variables at point, as
    rows of rational numbers."""
    rows = []
    for h in functions:
        K = symbolic.function_field(h.field.symbols)
        gens = symbolic.generators(K, variables)
        rows.append(symbolic.element_values(K, [[h.diff(g) for g in gens]], point)[0])
    return rows


def _invariance_kernel(rows, monomials, nvars, L) -> list:
    """Coefficient vectors c, one per free column, of the polynomials
    phi = sum_i c_i * x**monomials[i] in the first nvars generators of L
    that every polynomial row annihilates: row . grad(phi) = 0.

    The conditions are the coefficients of the monomials in those
    generators.  They are rational numbers when L has no other
    generators; otherwise they are polynomials in the others, the kernel
    is taken over L, and a direction that is not rational raises
    FlatcheckError.
    """
    ring = L.field.ring
    conditions = {}
    for r, row in enumerate(rows):
        for i, m in enumerate(monomials):
            derived = ring.zero
            for a in range(nvars):
                if m[a] and row[a]:
                    derived += row[a].mul_term((m[:a] + (m[a] - 1,) + m[a + 1:], QQ(m[a])))
            for monom, c in derived.iterterms():
                rest = (0,) * nvars + monom[nvars:]
                conditions.setdefault((r, monom[:nvars]), {}).setdefault(i, {})[rest] = c
    if nvars == ring.ngens:
        K, entry = QQ, lambda terms: terms.get((0,) * nvars, QQ.zero)
    else:
        K, entry = L, lambda terms: L.field.new(ring.from_dict(terms))
    matrix = [[entry(row.get(i, {})) for i in range(len(monomials))]
              for _, row in sorted(conditions.items())]
    rref, pivots = symbolic.element_rref(K, matrix, len(monomials))
    kernel = symbolic.element_nullspace(K, rref, pivots, len(monomials))
    if K is QQ:
        return kernel
    if not all(a.numer.is_ground and a.denom.is_ground for v in kernel for a in v):
        raise FlatcheckError("invariant ansatz produced a non-rational kernel")
    return [[a.numer.LC / a.denom.LC for a in v] for v in kernel]


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
    function field; each row is cleared of denominators, which leaves the
    span unchanged generically.  The ansatz runs through all monomials of
    total degree 1..max_degree in graded order; kernel directions of the
    invariance conditions are turned into integer-primitive candidates
    and accepted greedily while their gradients with respect to
    ``gradient_variables`` at ``point``, stacked on ``seed_gradients``
    (rows of rational numbers), gain rank; a full rank at the point
    proves the generic one.  Returns the invariants as polynomials in
    QQ(variables, any further generators of the rows).

    Raises StraighteningError when fewer than ``count`` independent
    invariants exist within the degree cap.
    """
    if count == 0:
        return ()
    variables = list(variables)
    grad_vars = list(gradient_variables) if gradient_variables is not None else variables
    extra = [s for s in rows[0][0].field.symbols if s not in variables] if rows else []
    L = symbolic.function_field(tuple(variables + extra))
    cleared = []
    for row in rows:
        row, _ = symbolic.clear_element_row(L, [symbolic.rename(a, L, {}) for a in row])
        if any(row):
            cleared.append([a.numer for a in row])
    stack = [list(g) for g in seed_gradients]
    accepted = []
    monomials = []
    for degree in range(1, max_degree + 1):
        for combo in itertools.combinations_with_replacement(range(len(variables)), degree):
            monom = [0] * len(L.symbols)
            for i in combo:
                monom[i] += 1
            monomials.append(tuple(monom))
        for vec in _invariance_kernel(cleared, monomials, len(variables), L):
            coeffs, _ = symbolic.clear_element_row(QQ, vec)
            candidate = L.field.new(L.field.ring.from_dict(
                {m: c for m, c in zip(monomials, coeffs) if c}))
            grad = _gradients_at([candidate], grad_vars, point)[0]
            if symbolic.element_rank(QQ, stack + [grad], len(grad_vars)) != len(stack) + 1:
                continue
            accepted.append(candidate)
            stack.append(grad)
            if len(accepted) == count:
                return tuple(accepted)
    raise StraighteningError("straightening not found within ansatz degree %d" % max_degree)


def _complete_with_coordinates(stack, variables, count, label):
    """Greedy coordinate completion: try the variables last to first and
    keep those whose unit gradient row raises the rank of the stacked
    gradients at the point (rows of rational numbers), which proves the
    generic rank.  Returns the selected variables in their given order."""
    selected = []
    rows = [list(g) for g in stack]
    for sym in reversed(variables):
        unit = [QQ.one if v == sym else QQ.zero for v in variables]
        if symbolic.element_rank(QQ, rows + [unit], len(variables)) != len(rows) + 1:
            continue
        selected.append(sym)
        rows.append(unit)
        if len(selected) == count:
            return [v for v in variables if v in selected]
    raise StraighteningError("coordinate completion failed for %s" % label)


@dataclass(frozen=True)
class StateTransformation:
    """Polynomial state change straightening the image distribution chain.

    blocks[k-1] holds the new symbols of block k; block k spans the
    directions gained at step k of the chain.  rest completes the chart
    when the chain does not fill the state space.  forward maps each new
    symbol to a polynomial in QQ(states), inverse maps each original
    state back to an element of QQ(new symbols), generators sorted by
    name, and point holds the equilibrium values of the new symbols."""

    states: tuple
    blocks: tuple
    rest: tuple
    forward: dict
    inverse: dict
    point: dict

    @property
    def ordered_symbols(self) -> tuple:
        out = []
        for block in self.blocks:
            out.extend(block)
        out.extend(self.rest)
        return tuple(out)


def straighten_distribution_chain(chain, chart, point, max_degree=3) -> StateTransformation:
    """Build a state transformation adapted to a nested distribution chain.

    chain lists the distributions over the state symbols in ascending
    order.  Block k of the result consists of invariants of the previous
    chain member (coordinate completions for block 1), so in the new
    coordinates each chain member is spanned by the first blocks.  point
    is the equilibrium in state coordinates.  The maps are computed in
    QQ(states) and QQ(new symbols)."""
    if not chain:
        raise FlatcheckError("cannot straighten an empty chain")
    states = tuple(chain[0].coords)
    if not set(states) <= set(chart.system_vars):
        raise FlatcheckError("chain coordinates are not state variables of the chart")
    dims = [d.dim for d in chain]
    if any(b <= a for a, b in zip(dims, dims[1:])):
        raise FlatcheckError("chain dimensions must increase strictly")
    kbar = len(chain)
    n = len(states)
    # invariants of the top member complete the chart (rest), those of
    # member k - 1 form block k; seeds are the gradients found so far.
    # The invariants are polynomials in P = QQ(states), the chain's field.
    P = symbolic.function_field(states)
    gens = dict(zip(states, P.field.gens))
    seeds, found = [], []
    searches = [(chain[-1], n - dims[-1])]
    searches += [(chain[k - 2], dims[k - 1] - dims[k - 2]) for k in range(kbar, 1, -1)]
    for dist, count in searches:
        invariants = polynomial_invariants(
            _rows(dist), states, count, point, max_degree=max_degree, seed_gradients=seeds
        ) if count else ()
        found.append(list(invariants))
        seeds.extend(_gradients_at(invariants, states, point))
    rest_values = found[0]
    rest = [sp.Symbol("xrest_%d" % (i + 1)) for i in range(len(rest_values))]
    chosen = _complete_with_coordinates(seeds, states, dims[0], "block 1")
    block_values = [[gens[sym] for sym in chosen]]
    block_values += found[:0:-1]
    blocks = []
    forward = {}
    for k in range(1, kbar + 1):
        syms = [sp.Symbol("xbar%d_%d" % (k, i + 1)) for i in range(len(block_values[k - 1]))]
        blocks.append(tuple(syms))
        forward.update(zip(syms, block_values[k - 1]))
    forward.update(zip(rest, rest_values))
    new_syms = [s for block in blocks for s in block] + list(rest)
    inverse = _pick_inverse_branch(
        symbolic.field(states + tuple(new_syms)), [(sym, forward[sym]) for sym in new_syms],
        states, {**forward, **gens}, gens,
        "state transformation could not be inverted rationally")
    L = symbolic.field(new_syms)
    inverse = {s: symbolic.rename(a, L, {}) for s, a in inverse.items()}
    values = symbolic.element_values(P, [[forward[sym] for sym in new_syms]], point)[0]
    st = StateTransformation(
        states=states,
        blocks=tuple(blocks),
        rest=tuple(rest),
        forward=forward,
        inverse=inverse,
        point={sym: QQ.to_sympy(v) for sym, v in zip(new_syms, values)},
    )
    # each chain member must lie along its own and earlier blocks
    for k, dist in enumerate(chain, start=1):
        inside = {s for block in blocks[:k] for s in block}
        for row in _transform(dist, forward, new_syms, inverse):
            for c, a in zip(new_syms, row):
                if a and c not in inside:
                    raise StraighteningError(
                        "straightened chain has a stray component of member %d along %s"
                        % (k, c)
                    )
    return st


def _pick_inverse_branch(K, definitions, unknowns, forward, expected, message):
    """Solve the definitions s = v, pairs of a new coordinate s and its
    value v, in the field K for the unknowns.  Return the branch whose
    values, composed with forward (an element of the field of expected
    per generator of K), give back expected, as elements of K.  Such a
    branch is a left inverse of the coordinate change and hence unique,
    so the order of the branches does not matter.  Raises
    StraighteningError(message) when no branch is one."""
    new = symbolic.generators(K, [s for s, _ in definitions])
    equations = [g - symbolic.rename(v, K, {}) for g, (_, v) in zip(new, definitions)]
    target = symbolic.function_field(next(iter(expected.values())).field.symbols)
    for sol in symbolic.solve_elements(K, equations, unknowns):
        if set(sol) == set(unknowns) and all(
            symbolic.compose(sol[g], forward, target) == expected[g] for g in unknowns
        ):
            return {g: sol[g] for g in unknowns}
    raise StraighteningError(message)


def _rows(dist: geometry.Distribution) -> list:
    return [list(f.components) for f in dist.fields]


def _transform(dist: geometry.Distribution, forward, coords, inverse, stands_for=None):
    """The basis of a distribution re-read in new coordinates.

    dist is over variables.  forward maps each coordinate of coords to an
    element over the variables, and inverse maps each variable to an
    element of L = QQ(the coordinates).  Other generators of dist's field
    are chart symbols, read as what they stand for: stands_for maps them
    to elements over the variables (theta = f(x, u), xi = xi_choice).
    The component along c of a basis field v is v(forward[c]) composed
    with the inverse map, as in geometry.transform_vector_field, whose
    composed_jacobian and apply_jacobian it shares.  Each distinct
    element, Jacobian entry or basis entry, is composed once.  Returns
    one row of elements of L per basis field.
    """
    L = symbolic.function_field(next(iter(inverse.values())).field.symbols)
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
    jacobian = geometry.composed_jacobian(forward, coords, dist.coords, moved)
    return [geometry.apply_jacobian(jacobian, [moved(a) for a in row], L.zero)
            for row in _rows(dist)]


@dataclass(frozen=True)
class DecompositionStep:
    """Record of one peeling step: the number mu of redundant fibre
    directions, the symbols y split off with them and the symbols zhat
    of the straightening.  The trace's z_values hold what they stand
    for."""

    k: int
    mu: int
    y_symbols: tuple
    zhat_symbols: tuple


@dataclass
class DecompositionState:
    """Mutable bookkeeping threaded through the peeling steps.

    forward_all maps every coordinate so far to an element of base =
    QQ(x, u), inverse_current maps x and u to elements of coordinates =
    QQ(current coordinates).  dynamics holds st.forward[s] composed with
    f per block symbol s, stands_for the values of the chart symbols
    (theta = f, xi = xi_choice), both in base."""

    system: object
    report: object
    st: StateTransformation
    base: object
    coordinates: object
    dynamics: dict
    stands_for: dict
    max_degree: int = 3
    eta: list = field(default_factory=list)
    verticals: list = field(default_factory=list)
    forward_all: dict = field(default_factory=dict)
    inverse_current: dict = field(default_factory=dict)
    point_cur: dict = field(default_factory=dict)
    steps: list = field(default_factory=list)

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
    except GeneratorsError:
        raise FlatcheckError(message) from None


def _change_fibre(state: DecompositionState, definitions, consumed, k):
    """Replace the consumed fibre coordinates by new ones everywhere.

    definitions pairs each new symbol s with its value v, an element over
    the current coordinates.  The forward maps of the new symbols are v
    composed with those of the current coordinates.  The inverse of the
    change is solved in QQ(current, new coordinates), composed into the
    inverse maps there, and renamed into QQ(the new current
    coordinates)."""
    new = [s for s, _ in definitions]
    new_forward = {s: symbolic.compose(v, state.forward_all, state.base)
                   for s, v in definitions}
    H = symbolic.field(state.coordinates.symbols + tuple(new))
    solution = _pick_inverse_branch(
        H, definitions, consumed, {**state.forward_all, **new_forward},
        {g: state.forward_all[g] for g in consumed},
        "fibre transformation at step %d could not be inverted rationally" % k)
    state.forward_all.update(new_forward)
    state.coordinates = symbolic.field(
        [s for s in state.coordinates.symbols if s not in consumed] + new)
    state.inverse_current = {
        v: symbolic.rename(symbolic.compose(symbolic.rename(a, H, {}), solution, H),
                           state.coordinates, {})
        for v, a in state.inverse_current.items()
    }
    values = symbolic.element_values(
        state.base, [list(new_forward.values())], state.system.equilibrium_point())[0]
    state.point_cur.update(zip(new_forward, map(QQ.to_sympy, values)))


def _ranks(K, rows, ncols, point) -> tuple:
    """Generic rank and rank at point of rows of elements of K.  The point
    comes first: a full rank there proves the generic one."""
    at_point = symbolic.element_rank(QQ, symbolic.element_values(K, rows, point), ncols)
    if at_point == min(len(rows), ncols):
        return at_point, at_point
    return symbolic.element_rank(K, rows, ncols), at_point


def decompose_step(k, state: DecompositionState, basis) -> tuple:
    """Run peeling step k: split off the redundant fibre directions and
    straighten the projectable distribution of the step.

    basis is the projectable distribution of step k over the base
    variables.  Returns the updated state and the step record."""
    report = state.report
    kbar = report.kbar
    rho_next = report.steps[k + 1].rho
    remaining = state.remaining_states(k)
    mu_reported = report.steps[k].mu

    if k == 0:
        gamma = list(state.system.inputs)
    else:
        gamma = list(state.st.blocks[k - 1]) + list(state.eta)

    zeta_syms, y_syms = list(gamma), []
    if k == 0:
        mu = 0
        if mu_reported != 0:
            raise FlatcheckError(
                "analysis reported %d redundant directions at step 0 for a system "
                "with full input rank" % mu_reported
            )
    else:
        K = symbolic.field(remaining + gamma)
        fbar_rows = []
        for j in range(k + 1, kbar + 1):
            fbar_rows += _fbar_block(
                state, j, K,
                "dynamics of block %d depend on coordinates consumed at step %d" % (j, k - 1))
        gens = symbolic.generators(K, gamma)
        jacobian = [[a.diff(g) for g in gens] for a in fbar_rows]
        rank_generic, rank_point = _ranks(K, jacobian, len(gamma), state.point_cur)
        if rank_point != rank_generic:
            raise FlatcheckError(
                "subsystem input rank drops at the equilibrium at step %d" % k
            )
        mu = len(gamma) - rank_generic
        if mu != mu_reported:
            raise FlatcheckError(
                "redundancy mismatch at step %d: decomposition found %d, analysis "
                "reported %d" % (k, mu, mu_reported)
            )
        if mu:
            rref, pivots = symbolic.element_rref(K, jacobian, len(gamma))
            kernel_rows = [
                [K.zero] * len(remaining) + vec
                for vec in symbolic.element_nullspace(K, rref, pivots, len(gamma))
            ]
            invariants = polynomial_invariants(
                kernel_rows, remaining + gamma, len(gamma) - mu, state.point_cur,
                max_degree=state.max_degree, gradient_variables=gamma)
            zeta_syms = [sp.Symbol("zeta%d_%d" % (k, r + 1)) for r in range(len(invariants))]
            chosen = _complete_with_coordinates(
                _gradients_at(invariants, gamma, state.point_cur), gamma, mu,
                "redundant directions at step %d" % k)
            y_syms = [sp.Symbol("y%d_%d" % (k, i + 1)) for i in range(mu)]
            kept = symbolic.generators(state.coordinates, chosen)
            _change_fibre(state, list(zip(zeta_syms, invariants)) + list(zip(y_syms, kept)),
                          gamma, k)
            state.verticals.extend(y_syms)
            K = symbolic.field(remaining + zeta_syms)
            for j in range(k + 1, kbar + 1):
                _fbar_block(state, j, K,
                            "dynamics above step %d retain consumed directions" % k)

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
    variables = remaining + zeta_syms
    W = symbolic.function_field(tuple(variables))
    try:
        w_rows = [[W.zero] * len(remaining) + [symbolic.rename(a, W, {}) for a in rref[i][:n_zeta]]
                  for i in zeta_pivot_rows]
    except GeneratorsError:
        raise FlatcheckError(
            "distribution components at step %d depend on consumed coordinates" % k
        ) from None
    count_eta = n_zeta - rho_next
    invariants = polynomial_invariants(
        w_rows, variables, count_eta, state.point_cur,
        max_degree=state.max_degree, gradient_variables=zeta_syms) if count_eta else ()
    eta_syms = [sp.Symbol("eta%d_%d" % (k, i + 1)) for i in range(count_eta)]
    chosen = _complete_with_coordinates(
        _gradients_at(invariants, zeta_syms, state.point_cur), zeta_syms, rho_next,
        "straightening at step %d" % k)
    zhat_syms = [sp.Symbol("zhat%d_%d" % (k, i + 1)) for i in range(rho_next)]
    kept = symbolic.generators(state.coordinates, chosen)
    _change_fibre(state, list(zip(eta_syms, invariants)) + list(zip(zhat_syms, kept)),
                  zeta_syms, k)
    state.verticals.extend(zhat_syms)

    # the straightened distribution must now be exactly the vertical span
    new_coords = state.remaining_states(k) + eta_syms + state.verticals
    rows = _transform(basis, state.forward_all, new_coords, state.inverse_current,
                      state.stands_for)
    n_outside = len(new_coords) - len(state.verticals)
    if any(a for row in rows for a in row[:n_outside]):
        raise FlatcheckError("straightened distribution at step %d is not vertical" % k)
    vertical_block = [row[n_outside:] for row in rows]
    if symbolic.element_rank(state.coordinates, vertical_block,
                             len(state.verticals)) != basis.dim:
        raise FlatcheckError("straightened distribution at step %d lost dimension" % k)

    # dynamics above the step must not see the consumed fibre directions
    allowed_above = state.remaining_states(k) + eta_syms
    K = symbolic.field(allowed_above)
    for j in range(k + 2, kbar + 1):
        _fbar_block(state, j, K,
                    "dynamics of block %d depend on coordinates consumed at step %d" % (j, k))
    K = symbolic.field(allowed_above + zhat_syms)
    next_rows = _fbar_block(
        state, k + 1, K,
        "dynamics of block %d depend on coordinates consumed at step %d" % (k + 1, k))
    gens = symbolic.generators(K, zhat_syms)
    generic, at_point = _ranks(K, [[a.diff(g) for g in gens] for a in next_rows],
                               rho_next, state.point_cur)
    if generic != rho_next:
        raise FlatcheckError(
            "block %d dynamics are singular in the new coordinates" % (k + 1)
        )
    if at_point != rho_next:
        raise FlatcheckError(
            "block %d dynamics are singular at the equilibrium" % (k + 1)
        )
    record = DecompositionStep(k=k, mu=mu, y_symbols=tuple(y_syms),
                               zhat_symbols=tuple(zhat_syms))
    state.eta = list(eta_syms)
    state.steps.append(record)
    return state, record


@dataclass(frozen=True)
class FlatOutput:
    """Flat output candidate in the original variables.

    components are elements of QQ(x, u).  q is the highest forward input
    shift entering the components (zero for outputs built from states and
    inputs alone).  names hold the display names y1..ym."""

    components: tuple
    q: int
    names: tuple


@dataclass(frozen=True)
class DecompositionTrace:
    """Complete record of the peeling run.

    z_symbols lists the final coordinates flat-output blocks first;
    z_values expresses them as elements of QQ(x, u) and z_inverse goes
    the other way, into QQ(z_symbols).  combined_rows spell out the
    combined coordinate change: every transformed state and every input
    as an element of QQ(z_symbols).  dynamics holds the transformed
    dynamics st.forward[s] composed with f per block symbol s, in
    QQ(x, u).  Every one of these fields has its generators sorted by
    name."""

    system: object
    transformation: StateTransformation
    steps: tuple
    z_symbols: tuple
    z_values: dict
    z_inverse: dict
    z_point: dict
    combined_rows: tuple
    y_blocks: tuple
    zhat_blocks: tuple
    y_level_symbols: tuple
    dynamics: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def kbar(self) -> int:
        return len(self.y_blocks)


def extract_flat_output(system, report, max_degree=3) -> tuple:
    """Construct a flat output from a FLAT analysis report.

    Returns the flat output together with the decomposition trace that
    feeds the triangular form and the parametrization."""
    if not report.flat:
        raise FlatcheckError(
            "flat output construction requires verdict FLAT, got %s" % report.verdict
        )
    eq_point = system.equilibrium_point()
    state_point = {s: eq_point[s] for s in system.states}
    chain = [restate_distribution(d, system) for d in report.delta_chain()]
    st = straighten_distribution_chain(chain, report.chart, state_point, max_degree=max_degree)
    if st.rest:
        raise FlatcheckError("the distribution chain does not fill the state space")
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
        system=system, report=report, st=st, base=base, coordinates=coordinates,
        dynamics={s: symbolic.compose(forward_all[s], update, base) for s in new},
        stands_for=stands_for, max_degree=max_degree, forward_all=forward_all,
        inverse_current=inverse_current, point_cur=point_cur,
    )
    for k in range(kbar):
        state, _ = decompose_step(k, state, report.steps[k].D)

    top_sources = list(st.blocks[kbar - 1]) + list(state.eta)
    top_syms = [sp.Symbol("y%d_%d" % (kbar, i + 1)) for i in range(len(top_sources))]
    for sym, src in zip(top_syms, top_sources):
        forward_all[sym] = forward_all[src]
        point_cur[sym] = point_cur[src]

    y_blocks = [()] * kbar
    zhat_blocks = [()] * kbar
    for rec in state.steps:
        zhat_blocks[rec.k] = rec.zhat_symbols
        if rec.k >= 1:
            y_blocks[rec.k - 1] = rec.y_symbols
    y_blocks[kbar - 1] = tuple(top_syms)

    z_symbols, y_level_symbols = list(top_syms), list(top_syms)
    for k in range(kbar - 1, 0, -1):
        z_symbols += y_blocks[k - 1] + zhat_blocks[k]
        y_level_symbols += y_blocks[k - 1]
    z_symbols += zhat_blocks[0]
    if len(z_symbols) != system.n + system.m:
        raise FlatcheckError(
            "decomposition produced %d final coordinates for %d variables"
            % (len(z_symbols), system.n + system.m)
        )
    Z = symbolic.field(z_symbols)
    z_inverse = {}
    for v in system.variables:
        try:
            z_inverse[v] = symbolic.rename(
                state.inverse_current[v], Z, dict(zip(top_sources, top_syms)))
        except GeneratorsError:
            raise FlatcheckError(
                "inverse of %s retains intermediate coordinates" % v
            ) from None
    rows = {sym: symbolic.compose(forward_all[sym], z_inverse, Z) for sym in st.ordered_symbols}
    rows.update((u, z_inverse[u]) for u in system.inputs)

    z_values = {z: forward_all[z] for z in z_symbols}
    components = tuple(z_values[s] for s in y_level_symbols)
    if len(components) != system.m:
        raise FlatcheckError(
            "flat output has %d components for %d inputs" % (len(components), system.m)
        )
    names = tuple("y%d" % (j + 1) for j in range(len(components)))
    flat_output = FlatOutput(components=components, q=0, names=names)
    trace = DecompositionTrace(
        system=system,
        transformation=st,
        steps=tuple(state.steps),
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
    return flat_output, trace


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
    z_symbols: tuple
    shifted: dict
    y_symbols: tuple
    trace: DecompositionTrace


def _level_symbols(trace: DecompositionTrace, j) -> tuple:
    syms = list(trace.y_blocks[j - 1])
    if j <= trace.kbar - 1:
        syms.extend(trace.zhat_blocks[j])
    return tuple(syms)


def to_implicit_triangular(trace: DecompositionTrace):
    """Rewrite the dynamics as implicit triangular blocks in the final
    coordinates.  Block k relates the successor values of level k to the
    straightened coordinates of level k-1 and is regular in them, both
    generically and at the equilibrium.

    The residual of a block symbol s is its combined row read at the
    successor coordinates, minus its dynamics composed with z_inverse,
    in QQ(z, z_p1)."""
    kbar = trace.kbar
    shifted = {z: _shift_symbol(z) for z in trace.z_symbols}
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
                residuals.append(symbolic.rename(ahead - through, A, {}))
            except GeneratorsError:
                raise FlatcheckError(
                    "triangular block %d violates the dependence pattern" % k
                ) from None
        gens = symbolic.generators(A, solved_for)
        generic, at_point = _ranks(A, [[r.diff(g) for g in gens] for r in residuals],
                                   len(solved_for), point)
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
        z_symbols=trace.z_symbols,
        shifted=shifted,
        y_symbols=trace.y_level_symbols,
        trace=trace,
    )


def _composed(elements, images, keep=()):
    """Elements of one field with each generator s replaced by images[s],
    an element of any field.  Returns K = QQ(keep and the generators the
    results use), sorted by name, and the results as elements of K."""
    symbols = elements[0].field.symbols
    W = symbolic.field(set(keep).union(*(symbolic.used_symbols(images[s]) for s in symbols)))
    moved = {s: symbolic.rename(images[s], W, {}) for s in symbols}
    results = [symbolic.compose(a, moved, W) for a in elements]
    K = symbolic.field(set(keep).union(*map(symbolic.used_symbols, results)))
    return K, [symbolic.rename(a, K, {}) for a in results]


def _format_equations(equations) -> str:
    return "; ".join("%s = 0" % sp.sstr(a.as_expr()) for a in equations)


def parametrize_from_triangular(form: ImplicitTriangularForm):
    """Solve the triangular blocks top-down for a difference parametrization.

    Every z coordinate is expressed in forward shifts of the flat output;
    composing the inverse coordinate change with them yields the state and
    input parametrizations.  Each block is solved in QQ(its unknowns and
    the jets its equations use).  Raises ImplicitSolveError when a block
    has no rational solution branch through the equilibrium."""
    trace = form.trace
    ys = form.y_symbols
    jets = [verification.jet_symbol(j, s) for s in (0, 1) for j in range(1, len(ys) + 1)]
    param = dict(zip(list(ys) + [form.shifted[y] for y in ys],
                     symbolic.generators(symbolic.field(jets), jets)))

    def at_equilibrium(sym):
        """A jet takes the equilibrium value of its component."""
        j, _ = verification.parse_jet_symbol(sym)
        return trace.z_point[form.y_symbols[j - 1] if j is not None else sym]

    for block in form.blocks:
        unknowns = list(block.solved_for)
        own = dict(zip(unknowns, symbolic.generators(symbolic.field(unknowns), unknowns)))
        S, equations = _composed(block.residuals, {**param, **own}, unknowns)
        try:
            solutions = symbolic.solve_elements(S, equations, unknowns)
        except IrrationalSolutionError as exc:
            raise ImplicitSolveError(
                "implicit solve failed for block %s: solution for %s is not "
                "rational in the flat output shifts" % (block.label, exc.unknown)
            ) from None
        except FlatcheckError as exc:
            raise ImplicitSolveError(
                "implicit solve failed for block %s: %s (%s)"
                % (block.label, _format_equations(equations), exc)
            )
        point = {s: at_equilibrium(s) for s in S.symbols}
        chosen = symbolic.branch_through(S, solutions, unknowns, point,
                                         [trace.z_point[z] for z in unknowns])
        if chosen is None:
            raise ImplicitSolveError(
                "implicit solve failed for block %s: %s"
                % (block.label, _format_equations(equations))
            )
        for z in unknowns:
            param[z] = chosen[z]
            param[form.shifted[z]] = verification.shift_function(chosen[z])

    system = trace.system
    _, values = _composed([trace.z_inverse[v] for v in system.variables], param)
    F_x, F_u = tuple(values[:system.n]), tuple(values[system.n:])
    R = verification._shift_ranks(F_x, F_u, len(form.y_symbols))
    return verification.FlatParametrization(F_x=F_x, F_u=F_u, R=R)
