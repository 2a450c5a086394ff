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
"""

from dataclasses import dataclass, field
import itertools

import sympy as sp

from . import geometry, symbolic, verification
from .errors import FlatcheckError, ImplicitSolveError, StraighteningError

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


def _sub(e, mapping):
    if not mapping:
        return sp.cancel(sp.together(sp.sympify(e)))
    return sp.cancel(sp.together(sp.sympify(e).subs(mapping, simultaneous=True)))


def restate_distribution(dist: geometry.Distribution, system) -> geometry.Distribution:
    """Re-read a distribution over the successor-state symbols as one over
    the state symbols.  The image of the dynamics and the state space are
    identified coordinate-wise, so this is a pure renaming."""
    shifted = geometry.shifted_state_symbols(system)
    if tuple(dist.coords) != shifted:
        raise FlatcheckError("distribution is not over the successor-state coordinates")
    ren = {sh: s for sh, s in zip(shifted, system.states)}
    coords = tuple(system.states)
    fields = tuple(
        geometry.VectorField(
            coords,
            tuple(sp.cancel(sp.sympify(c).subs(ren, simultaneous=True)) for c in f.components),
        )
        for f in dist.fields
    )
    witness = tuple(
        tuple(sp.sympify(e).subs(ren, simultaneous=True) for e in row)
        for row in dist.witness_rows
    )
    return geometry.Distribution(coords=coords, fields=fields, witness_rows=witness)


def _primitive_combination(coeffs, monomials):
    """Integer-primitive linear combination of monomials.

    The first nonzero coefficient in enumeration order is made positive so
    the representative of each kernel direction is canonical."""
    pairs = [(c, m) for c, m in zip(coeffs, monomials) if c != 0]
    if not pairs:
        return None
    for c, _ in pairs:
        if not sp.sympify(c).is_Rational:
            raise FlatcheckError("invariant ansatz produced a non-rational kernel")
    den = sp.Integer(1)
    for c, _ in pairs:
        den = sp.lcm(den, sp.Rational(c).q)
    nums = [sp.Rational(c) * den for c, _ in pairs]
    g = sp.Integer(0)
    for v in nums:
        g = sp.gcd(g, v)
    if g not in (0, 1):
        nums = [v / g for v in nums]
    if nums[0] < 0:
        nums = [-v for v in nums]
    return sp.expand(sum(v * m for v, (_, m) in zip(nums, pairs)))


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

    rows are component rows over ``variables`` (rational entries are
    cleared row-wise, which leaves the span unchanged generically).  The
    ansatz runs through all monomials of total degree 1..max_degree in
    graded order; kernel directions of the invariance conditions are
    turned into integer-primitive candidates and accepted greedily while
    the stacked gradients with respect to ``gradient_variables`` (on top
    of ``seed_gradients``) gain rank both generically and at ``point``.

    Raises StraighteningError when fewer than ``count`` independent
    invariants exist within the degree cap.
    """
    variables = list(variables)
    grad_vars = list(gradient_variables) if gradient_variables is not None else variables
    cleared = [symbolic.clear_denominators(list(r)) for r in rows]
    cleared = [r for r in cleared if any(e != 0 for e in r)]
    accepted = []
    stack = [list(g) for g in seed_gradients]
    base_rank = len(stack)
    if count == 0:
        return ()
    for degree in range(1, max_degree + 1):
        monomials = []
        for d in range(1, degree + 1):
            for combo in itertools.combinations_with_replacement(variables, d):
                monomials.append(sp.Mul(*combo))
        coeff_syms = list(sp.symbols("c0:%d" % len(monomials), cls=sp.Dummy))
        phi = sum(c * m for c, m in zip(coeff_syms, monomials))
        conditions = []
        for row in cleared:
            derived = sp.expand(
                sum(row[a] * sp.diff(phi, variables[a]) for a in range(len(variables)))
            )
            if derived == 0:
                continue
            poly = sp.Poly(derived, *variables)
            conditions.extend(poly.coeffs())
        if conditions:
            A, _ = sp.linear_eq_to_matrix(conditions, coeff_syms)
            kernel = symbolic.nullspace(A)
        else:
            kernel = [sp.eye(len(monomials)).col(i) for i in range(len(monomials))]
        for vec in kernel:
            candidate = _primitive_combination(list(vec), monomials)
            if candidate is None:
                continue
            grad = [sp.diff(candidate, v) for v in grad_vars]
            target = base_rank + len(accepted) + 1
            stacked = sp.Matrix(stack + [grad])
            if symbolic.generic_rank(stacked) != target:
                continue
            if symbolic.rank_at_point(stacked, point) != target:
                continue
            accepted.append(candidate)
            stack.append(grad)
            if len(accepted) == count:
                return tuple(accepted)
    raise StraighteningError("straightening not found within ansatz degree %d" % max_degree)


def _complete_with_coordinates(candidates, stack, grad_vars, point, count, label):
    """Greedy coordinate completion: try candidate coordinates in the given
    order and keep those whose unit gradient row raises the rank of the
    stacked gradients generically and at the point.  Returns the selected
    candidate positions in tried order."""
    selected = []
    rows = [list(g) for g in stack]
    for pos, sym in candidates:
        unit = [sp.Integer(1) if v == sym else sp.Integer(0) for v in grad_vars]
        target = len(rows) + 1
        stacked = sp.Matrix(rows + [unit])
        if symbolic.generic_rank(stacked) != target:
            continue
        if symbolic.rank_at_point(stacked, point) != target:
            continue
        selected.append((pos, sym))
        rows.append(unit)
        if len(selected) == count:
            return selected
    raise StraighteningError("coordinate completion failed for %s" % label)


@dataclass(frozen=True)
class StateTransformation:
    """Polynomial state change straightening the image distribution chain.

    blocks[k-1] holds the new symbols of block k; block k spans the
    directions gained at step k of the chain.  rest completes the chart
    when the chain does not fill the state space.  forward maps each new
    symbol to a polynomial in the original states, inverse maps each
    original state back, and point holds the equilibrium values of the
    new symbols."""

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


def straighten_distribution_chain(chain, chart, point=None, max_degree=3) -> StateTransformation:
    """Build a state transformation adapted to a nested distribution chain.

    chain lists the distributions over the state symbols in ascending
    order.  Block k of the result consists of invariants of the previous
    chain member (coordinate completions for block 1), so in the new
    coordinates each chain member is spanned by the first blocks.  point
    is the equilibrium in state coordinates."""
    if not chain:
        raise FlatcheckError("cannot straighten an empty chain")
    states = tuple(chain[0].coords)
    if not set(states) <= set(chart.system_vars):
        raise FlatcheckError("chain coordinates are not state variables of the chart")
    if point is None:
        raise FlatcheckError("straightening requires the equilibrium point")
    dims = [d.dim for d in chain]
    if any(b <= a for a, b in zip(dims, dims[1:])):
        raise FlatcheckError("chain dimensions must increase strictly")
    kbar = len(chain)
    n = len(states)
    seeds = []
    rest = []
    rest_values = []
    if dims[-1] < n:
        rest_values = list(
            polynomial_invariants(
                [list(f.components) for f in chain[-1].fields],
                states,
                n - dims[-1],
                point,
                max_degree=max_degree,
                seed_gradients=seeds,
            )
        )
        rest = [sp.Symbol("xrest_%d" % (i + 1)) for i in range(len(rest_values))]
        seeds.extend([[sp.diff(v, s) for s in states] for v in rest_values])
    block_values = [None] * kbar
    for k in range(kbar, 1, -1):
        rho_k = dims[k - 1] - dims[k - 2]
        values = polynomial_invariants(
            [list(f.components) for f in chain[k - 2].fields],
            states,
            rho_k,
            point,
            max_degree=max_degree,
            seed_gradients=seeds,
        )
        block_values[k - 1] = list(values)
        seeds.extend([[sp.diff(v, s) for s in states] for v in values])
    rho_1 = dims[0]
    order = list(enumerate(states))
    chosen = _complete_with_coordinates(
        list(reversed(order)), seeds, states, point, rho_1, "block 1"
    )
    chosen.sort(key=lambda item: item[0])
    block_values[0] = [sym for _, sym in chosen]
    blocks = []
    forward = {}
    for k in range(1, kbar + 1):
        syms = [sp.Symbol("xbar%d_%d" % (k, i + 1)) for i in range(len(block_values[k - 1]))]
        blocks.append(tuple(syms))
        for sym, value in zip(syms, block_values[k - 1]):
            forward[sym] = sp.expand(value)
    for sym, value in zip(rest, rest_values):
        forward[sym] = sp.expand(value)
    new_syms = [s for block in blocks for s in block] + list(rest)
    equations = [sp.Eq(sym, forward[sym]) for sym in new_syms]
    solutions = symbolic.solve_algebraic(equations, list(states))
    inverse = None
    fwd_items = {sym: forward[sym] for sym in new_syms}
    for sol in solutions:
        if set(sol) != set(states):
            continue
        if all(
            symbolic.is_zero(sp.cancel(sol[s].subs(fwd_items, simultaneous=True) - s)) is True
            for s in states
        ):
            inverse = {s: sp.cancel(sp.together(sol[s])) for s in states}
            break
    if inverse is None:
        raise StraighteningError("state transformation could not be inverted rationally")
    point_new = {sym: symbolic.evaluate_exact(forward[sym], point) for sym in new_syms}
    st = StateTransformation(
        states=states,
        blocks=tuple(blocks),
        rest=tuple(rest),
        forward=forward,
        inverse=inverse,
        point=point_new,
    )
    _verify_straightening(chain, st)
    return st


def _verify_straightening(chain, st: StateTransformation):
    """Check that each chain member, rewritten in the new coordinates, has
    components only along its own and earlier blocks."""
    states = st.states
    new_syms = st.ordered_symbols
    jac = {c: [sp.diff(st.forward[c], s) for s in states] for c in new_syms}
    for k, dist in enumerate(chain, start=1):
        inside = {s for block in st.blocks[:k] for s in block}
        for f in dist.fields:
            for c in new_syms:
                if c in inside:
                    continue
                comp = sum(f.components[a] * jac[c][a] for a in range(len(states)))
                comp = _sub(comp, st.inverse)
                if symbolic.is_zero(comp) is not True:
                    raise StraighteningError(
                        "straightened chain has a stray component of member %d along %s"
                        % (k, c)
                    )


@dataclass(frozen=True)
class DecompositionStep:
    """Record of one peeling step: the consumed fibre coordinates gamma,
    the redundancy split (zeta, y), and the straightening (eta, zhat).
    All values are expressions in the original variables."""

    k: int
    mu: int
    gamma: tuple
    zeta_symbols: tuple
    zeta_values: tuple
    y_symbols: tuple
    y_values: tuple
    eta_symbols: tuple
    eta_values: tuple
    zhat_symbols: tuple
    zhat_values: tuple


@dataclass
class DecompositionState:
    """Mutable bookkeeping threaded through the peeling steps."""

    system: object
    report: object
    st: StateTransformation
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


def _update_rules(system) -> dict:
    return {s: f for s, f in zip(system.states, system.update)}


def _fbar_block(state: DecompositionState, j) -> list:
    """Dynamics of transformed block j, written in the current coordinates."""
    update = _update_rules(state.system)
    out = []
    for sym in state.st.blocks[j - 1]:
        e = state.st.forward[sym].subs(update, simultaneous=True)
        out.append(_sub(e, state.inverse_current))
    return out


def _pick_inverse_branch(state, equations, unknowns, new_forward, context):
    """Solve fibre-transformation equations and select the branch that
    reproduces the known expressions of the unknowns in the original
    variables."""
    solutions = symbolic.solve_algebraic(equations, unknowns)
    eval_map = dict(new_forward)
    for s in state.remaining_states(0):
        eval_map[s] = state.forward_all[s]
    for sym in state.verticals:
        eval_map[sym] = state.forward_all[sym]
    for sol in solutions:
        if set(sol) != set(unknowns):
            continue
        good = True
        for g in unknowns:
            back = sp.cancel(
                sol[g].subs(eval_map, simultaneous=True) - state.forward_all[g]
            )
            if symbolic.is_zero(back) is not True:
                good = False
                break
        if good:
            return {g: sp.cancel(sp.together(sol[g])) for g in unknowns}
    raise StraighteningError(
        "fibre transformation at %s could not be inverted rationally" % context
    )


def _apply_fibre_change(state: DecompositionState, consumed, new_forward, solution):
    """Replace consumed fibre coordinates by fresh ones everywhere."""
    state.forward_all.update(new_forward)
    state.inverse_current = {
        v: _sub(e, solution) for v, e in state.inverse_current.items()
    }
    eq_point = state.system.equilibrium_point()
    for sym, value in new_forward.items():
        state.point_cur[sym] = symbolic.evaluate_exact(value, eq_point)


def _transform_distribution(state: DecompositionState, basis, coords):
    """Components of a distribution over the base variables, re-read in the
    current coordinates."""
    base_vars = list(state.system.variables)
    jac = {c: [sp.diff(state.forward_all[c], v) for v in base_vars] for c in coords}
    rows = []
    for f in basis.fields:
        comps = []
        for c in coords:
            e = sum(f.components[a] * jac[c][a] for a in range(len(base_vars)))
            comps.append(_sub(e, state.inverse_current))
        rows.append(comps)
    return rows


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

    y_syms, y_gamma = [], []
    if k == 0:
        mu = 0
        if mu_reported != 0:
            raise FlatcheckError(
                "analysis reported %d redundant directions at step 0 for a system "
                "with full input rank" % mu_reported
            )
        zeta_syms = list(gamma)
    else:
        fbar_rows = []
        for j in range(k + 1, kbar + 1):
            fbar_rows.extend(_fbar_block(state, j))
        J = sp.Matrix([[sp.cancel(sp.diff(e, g)) for g in gamma] for e in fbar_rows])
        rank_generic = symbolic.generic_rank(J)
        rank_point = symbolic.rank_at_point(J, state.point_cur)
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
        if mu == 0:
            zeta_syms = list(gamma)
        else:
            kernel = symbolic.nullspace(J)
            variables = remaining + gamma
            kernel_rows = [
                [sp.Integer(0)] * len(remaining) + [sp.cancel(v) for v in vec]
                for vec in kernel
            ]
            zeta_values = polynomial_invariants(
                kernel_rows,
                variables,
                len(gamma) - mu,
                state.point_cur,
                max_degree=state.max_degree,
                gradient_variables=gamma,
            )
            zeta_syms = [sp.Symbol("zeta%d_%d" % (k, r + 1)) for r in range(len(zeta_values))]
            grad_stack = [[sp.diff(v, g) for g in gamma] for v in zeta_values]
            chosen = _complete_with_coordinates(
                list(reversed(list(enumerate(gamma)))),
                grad_stack,
                gamma,
                state.point_cur,
                mu,
                "redundant directions at step %d" % k,
            )
            chosen.sort(key=lambda item: item[0])
            y_syms = [sp.Symbol("y%d_%d" % (k, i + 1)) for i in range(mu)]
            y_gamma = [sym for _, sym in chosen]
            new_forward = {}
            for sym, value in zip(zeta_syms, zeta_values):
                new_forward[sym] = _sub(value, state.forward_all)
            for sym, g in zip(y_syms, y_gamma):
                new_forward[sym] = state.forward_all[g]
            equations = [sp.Eq(s, v) for s, v in zip(zeta_syms, zeta_values)]
            equations += [sp.Eq(s, g) for s, g in zip(y_syms, y_gamma)]
            solution = _pick_inverse_branch(
                state, equations, gamma, new_forward, "step %d" % k
            )
            _apply_fibre_change(state, gamma, new_forward, solution)
            state.verticals.extend(y_syms)
            allowed = set(remaining) | set(zeta_syms)
            for j in range(k + 1, kbar + 1):
                for e in _fbar_block(state, j):
                    if not e.free_symbols <= allowed:
                        raise FlatcheckError(
                            "dynamics above step %d retain consumed directions" % k
                        )

    # straighten the projectable distribution over the new fibre
    coords = remaining + zeta_syms + state.verticals
    rows = _transform_distribution(state, basis, coords)
    for row in rows:
        for idx in range(len(remaining)):
            if symbolic.is_zero(row[idx]) is not True:
                raise FlatcheckError(
                    "projectable distribution leaves the fibre at step %d" % k
                )
    n_zeta = len(zeta_syms)
    fibre_matrix = sp.Matrix([row[len(remaining):] for row in rows])
    res = symbolic.function_field_rref(fibre_matrix)
    zeta_pivot_rows = [i for i, p in enumerate(res.pivots) if p < n_zeta]
    vertical_pivots = [p for p in res.pivots if p >= n_zeta]
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
    allowed = set(remaining) | set(zeta_syms)
    w_rows = []
    for i in zeta_pivot_rows:
        w = [sp.cancel(res.rref[i, j]) for j in range(n_zeta)]
        if not set().union(*(e.free_symbols for e in w)) <= allowed:
            raise FlatcheckError(
                "distribution components at step %d depend on consumed coordinates" % k
            )
        w_rows.append(w)
    variables = remaining + zeta_syms
    count_eta = n_zeta - rho_next
    if count_eta:
        eta_values = polynomial_invariants(
            [[sp.Integer(0)] * len(remaining) + w for w in w_rows],
            variables,
            count_eta,
            state.point_cur,
            max_degree=state.max_degree,
            gradient_variables=zeta_syms,
        )
    else:
        eta_values = ()
    eta_syms = [sp.Symbol("eta%d_%d" % (k, i + 1)) for i in range(count_eta)]
    grad_stack = [[sp.diff(v, z) for z in zeta_syms] for v in eta_values]
    chosen = _complete_with_coordinates(
        list(reversed(list(enumerate(zeta_syms)))),
        grad_stack,
        zeta_syms,
        state.point_cur,
        rho_next,
        "straightening at step %d" % k,
    )
    chosen.sort(key=lambda item: item[0])
    zhat_syms = [sp.Symbol("zhat%d_%d" % (k, i + 1)) for i in range(rho_next)]
    zhat_zeta = [sym for _, sym in chosen]
    new_forward = {}
    for sym, value in zip(eta_syms, eta_values):
        new_forward[sym] = _sub(value, state.forward_all)
    for sym, z in zip(zhat_syms, zhat_zeta):
        new_forward[sym] = state.forward_all[z]
    equations = [sp.Eq(s, v) for s, v in zip(eta_syms, eta_values)]
    equations += [sp.Eq(s, z) for s, z in zip(zhat_syms, zhat_zeta)]
    solution = _pick_inverse_branch(
        state, equations, zeta_syms, new_forward, "step %d" % k
    )
    _apply_fibre_change(state, zeta_syms, new_forward, solution)
    state.verticals.extend(zhat_syms)

    # the straightened distribution must now be exactly the vertical span
    new_coords = state.remaining_states(k) + eta_syms + state.verticals
    rows = _transform_distribution(state, basis, new_coords)
    n_outside = len(new_coords) - len(state.verticals)
    for row in rows:
        for idx in range(n_outside):
            if symbolic.is_zero(row[idx]) is not True:
                raise FlatcheckError(
                    "straightened distribution at step %d is not vertical" % k
                )
    vertical_block = sp.Matrix([row[n_outside:] for row in rows])
    if symbolic.generic_rank(vertical_block) != basis.dim:
        raise FlatcheckError(
            "straightened distribution at step %d lost dimension" % k
        )

    # dynamics above the step must not see the consumed fibre directions
    allowed_above = set(state.remaining_states(k)) | set(eta_syms)
    for j in range(k + 2, kbar + 1):
        for e in _fbar_block(state, j):
            if not e.free_symbols <= allowed_above:
                raise FlatcheckError(
                    "dynamics of block %d depend on coordinates consumed at step %d"
                    % (j, k)
                )
    next_rows = _fbar_block(state, k + 1)
    allowed_next = allowed_above | set(zhat_syms)
    for e in next_rows:
        if not e.free_symbols <= allowed_next:
            raise FlatcheckError(
                "dynamics of block %d depend on coordinates consumed at step %d"
                % (k + 1, k)
            )
    gain = sp.Matrix([[sp.cancel(sp.diff(e, z)) for z in zhat_syms] for e in next_rows])
    if symbolic.generic_rank(gain) != rho_next:
        raise FlatcheckError(
            "block %d dynamics are singular in the new coordinates" % (k + 1)
        )
    if symbolic.rank_at_point(gain, state.point_cur) != rho_next:
        raise FlatcheckError(
            "block %d dynamics are singular at the equilibrium" % (k + 1)
        )

    record = DecompositionStep(
        k=k,
        mu=mu,
        gamma=tuple(gamma),
        zeta_symbols=tuple(zeta_syms),
        zeta_values=tuple(state.forward_all[s] for s in zeta_syms),
        y_symbols=tuple(y_syms),
        y_values=tuple(state.forward_all[s] for s in y_syms),
        eta_symbols=tuple(eta_syms),
        eta_values=tuple(state.forward_all[s] for s in eta_syms),
        zhat_symbols=tuple(zhat_syms),
        zhat_values=tuple(state.forward_all[s] for s in zhat_syms),
    )
    state.eta = list(eta_syms)
    state.steps.append(record)
    return state, record


@dataclass(frozen=True)
class FlatOutput:
    """Flat output candidate in the original variables.

    q is the highest forward input shift entering the components (zero
    for outputs built from states and inputs alone).  names hold the
    display names y1..ym."""

    components: tuple
    q: int
    names: tuple


@dataclass(frozen=True)
class DecompositionTrace:
    """Complete record of the peeling run.

    z_symbols lists the final coordinates flat-output blocks first;
    z_values expresses them in the original variables and z_inverse goes
    the other way.  combined_rows spell out the combined coordinate
    change: every transformed state and every input as an expression in
    the final coordinates."""

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

    @property
    def kbar(self) -> int:
        return len(self.y_blocks)


def extract_flat_output(system, report, st=None, max_degree=3) -> tuple:
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
    if st is None:
        st = straighten_distribution_chain(
            chain, report.chart, point=state_point, max_degree=max_degree
        )
    if st.rest:
        raise FlatcheckError("the distribution chain does not fill the state space")
    kbar = report.kbar
    forward_all = {sym: st.forward[sym] for sym in st.ordered_symbols}
    inverse_current = dict(st.inverse)
    point_cur = dict(st.point)
    for u in system.inputs:
        forward_all[u] = u
        inverse_current[u] = u
        point_cur[u] = eq_point[u]
    state = DecompositionState(
        system=system,
        report=report,
        st=st,
        max_degree=max_degree,
        forward_all=forward_all,
        inverse_current=inverse_current,
        point_cur=point_cur,
    )
    for k in range(kbar):
        state, _ = decompose_step(k, state, report.steps[k].D)

    top_sources = list(st.blocks[kbar - 1]) + list(state.eta)
    top_syms = [sp.Symbol("y%d_%d" % (kbar, i + 1)) for i in range(len(top_sources))]
    rename = {}
    for sym, src in zip(top_syms, top_sources):
        forward_all[sym] = forward_all[src]
        point_cur[sym] = point_cur[src]
        rename[src] = sym
    inverse_current = {v: _sub(e, rename) for v, e in state.inverse_current.items()}

    y_blocks = [()] * kbar
    zhat_blocks = [()] * kbar
    for rec in state.steps:
        zhat_blocks[rec.k] = rec.zhat_symbols
        if rec.k >= 1:
            y_blocks[rec.k - 1] = rec.y_symbols
    y_blocks[kbar - 1] = tuple(top_syms)

    z_symbols = list(top_syms)
    for k in range(kbar - 1, 0, -1):
        z_symbols.extend(y_blocks[k - 1])
        z_symbols.extend(zhat_blocks[k])
    z_symbols.extend(zhat_blocks[0])
    if len(z_symbols) != system.n + system.m:
        raise FlatcheckError(
            "decomposition produced %d final coordinates for %d variables"
            % (len(z_symbols), system.n + system.m)
        )
    z_values = {z: sp.cancel(sp.together(forward_all[z])) for z in z_symbols}
    z_point = {z: point_cur[z] for z in z_symbols}
    z_inverse = {}
    zset = set(z_symbols)
    for v in system.variables:
        e = sp.cancel(sp.together(inverse_current[v]))
        if not e.free_symbols <= zset:
            raise FlatcheckError(
                "inverse of %s retains intermediate coordinates" % v
            )
        z_inverse[v] = e
    state_inverse = {s: z_inverse[s] for s in system.states}
    combined_rows = []
    for sym in st.ordered_symbols:
        combined_rows.append((sym, _sub(st.forward[sym], state_inverse)))
    for u in system.inputs:
        combined_rows.append((u, z_inverse[u]))

    y_level_symbols = list(top_syms)
    for k in range(kbar - 1, 0, -1):
        y_level_symbols.extend(y_blocks[k - 1])
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
        z_point=z_point,
        combined_rows=tuple(combined_rows),
        y_blocks=tuple(y_blocks),
        zhat_blocks=tuple(zhat_blocks),
        y_level_symbols=tuple(y_level_symbols),
    )
    return flat_output, trace


@dataclass(frozen=True)
class TriangularBlock:
    """One implicit block: residuals that vanish along trajectories and the
    coordinates the block is solved for during parametrization."""

    k: int
    label: str
    residuals: tuple
    solved_for: tuple


@dataclass(frozen=True)
class ImplicitTriangularForm:
    """Implicit triangular equations in the final coordinates.

    blocks are ordered top level first.  shifted maps every final
    coordinate to its successor symbol; point carries equilibrium values
    for both."""

    blocks: tuple
    z_symbols: tuple
    shifted: dict
    y_symbols: tuple
    point: dict
    trace: DecompositionTrace


def _level_symbols(trace: DecompositionTrace, j) -> tuple:
    syms = list(trace.y_blocks[j - 1])
    if j <= trace.kbar - 1:
        syms.extend(trace.zhat_blocks[j])
    return tuple(syms)


def to_implicit_triangular(system, trace: DecompositionTrace, st: StateTransformation):
    """Rewrite the dynamics as implicit triangular blocks in the final
    coordinates.  Block k relates the successor values of level k to the
    straightened coordinates of level k-1 and is regular in them, both
    generically and at the equilibrium."""
    kbar = trace.kbar
    shifted = {z: _shift_symbol(z) for z in trace.z_symbols}
    combined = dict(trace.combined_rows)
    update = _update_rules(system)
    point = dict(trace.z_point)
    for z, v in trace.z_point.items():
        point[shifted[z]] = v
    blocks = []
    for k in range(kbar, 0, -1):
        residuals = []
        for sym in st.blocks[k - 1]:
            ahead = combined[sym].subs(shifted, simultaneous=True)
            through = st.forward[sym].subs(update, simultaneous=True)
            through = _sub(through, trace.z_inverse)
            residuals.append(sp.cancel(sp.together(ahead - through)))
        solved_for = trace.zhat_blocks[k - 1]
        allowed = set(solved_for)
        for j in range(k, kbar + 1):
            for z in _level_symbols(trace, j):
                allowed.add(z)
                allowed.add(shifted[z])
        for r in residuals:
            if not r.free_symbols <= allowed:
                raise FlatcheckError(
                    "triangular block %d violates the dependence pattern" % k
                )
        gain = sp.Matrix(
            [[sp.cancel(sp.diff(r, z)) for z in solved_for] for r in residuals]
        )
        if symbolic.generic_rank(gain) != len(solved_for):
            raise FlatcheckError("triangular block %d is singular" % k)
        if symbolic.rank_at_point(gain, point) != len(solved_for):
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
        point=point,
        trace=trace,
    )


def _format_equations(residuals) -> str:
    return "; ".join("%s = 0" % sp.sstr(r) for r in residuals)


def parametrize_from_triangular(form: ImplicitTriangularForm):
    """Solve the triangular blocks top-down for a difference parametrization.

    Every z coordinate is expressed in forward shifts of the flat output;
    substituting into the inverse coordinate change yields the state and
    input parametrizations.  Raises ImplicitSolveError when a block has no
    rational solution branch through the equilibrium."""
    trace = form.trace
    system = trace.system
    param = {}
    jet_point = {}
    for pos, ysym in enumerate(form.y_symbols):
        j = pos + 1
        value = trace.z_point[ysym]
        for s in range(0, 2):
            jet = verification.jet_symbol(j, s)
            jet_point[jet] = value
        param[ysym] = verification.jet_symbol(j, 0)
        param[form.shifted[ysym]] = verification.jet_symbol(j, 1)

    def eq_value(expr):
        extra = {}
        for sym in expr.free_symbols:
            if sym in jet_point:
                continue
            j, s = verification.parse_jet_symbol(sym)
            if j is None:
                raise FlatcheckError("unexpected symbol %s in implicit solution" % sym)
            extra[sym] = trace.z_point[form.y_symbols[j - 1]]
        return sp.simplify(expr.subs({**jet_point, **extra}, simultaneous=True))

    for block in form.blocks:
        unknowns = list(block.solved_for)
        equations = [
            sp.cancel(sp.together(r.subs(param, simultaneous=True)))
            for r in block.residuals
        ]
        try:
            solutions = symbolic.solve_algebraic(equations, unknowns)
        except FlatcheckError as exc:
            raise ImplicitSolveError(
                "implicit solve failed for block %s: %s (%s)"
                % (block.label, _format_equations(equations), exc)
            )
        chosen = None
        for sol in solutions:
            if set(sol) != set(unknowns):
                continue
            if all(
                sp.simplify(eq_value(sol[z]) - trace.z_point[z]) == 0 for z in unknowns
            ):
                chosen = sol
                break
        if chosen is None:
            raise ImplicitSolveError(
                "implicit solve failed for block %s: %s"
                % (block.label, _format_equations(equations))
            )
        for z in unknowns:
            expr = sp.cancel(sp.together(chosen[z]))
            jets = [s for s in expr.free_symbols]
            if not symbolic.is_rational_expression(expr, jets):
                raise ImplicitSolveError(
                    "implicit solve failed for block %s: solution for %s is not "
                    "rational in the flat output shifts" % (block.label, z)
                )
            param[z] = expr
            param[form.shifted[z]] = verification.shift_function(expr)

    F_x = tuple(
        sp.cancel(sp.together(trace.z_inverse[s].subs(param, simultaneous=True)))
        for s in system.states
    )
    F_u = tuple(
        sp.cancel(sp.together(trace.z_inverse[u].subs(param, simultaneous=True)))
        for u in system.inputs
    )
    R = verification._shift_ranks(F_x, F_u, len(form.y_symbols))
    if R is None:
        stray = next(
            sym
            for e in F_x + F_u
            for sym in e.free_symbols
            if verification.parse_jet_symbol(sym)[0] is None
        )
        raise FlatcheckError("parametrization retains a non-jet symbol %s" % stray)
    return verification.FlatParametrization(F_x=F_x, F_u=F_u, R=R)
