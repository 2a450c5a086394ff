"""Independent verification of flat output candidates and forward simulation.

A candidate flat output is verified symbolically by stacking its forward
shifts, solving for the system variables as functions of the output jets,
and checking the parametrization identity together with the submersion
property.  All of it runs on rational function field elements: the
candidate comes as elements, ``shift_function`` shifts it by composing
with the update map, ``symbolic.solve_elements`` solves the stacked
equations, and the branch through the equilibrium is picked with
``symbolic.branch_through``; the parametrization it returns holds
elements of a field of output jets, and its shift multi-index R is read
off the jets they use, so it needs no check.  Numeric verification replays
random output trajectories near the equilibrium through the
parametrization and measures the dynamics residual; the parametrization,
the candidate and the update map are evaluated by float functions that
``symbolic.float_function`` compiles from their expressions, in the
source that sympy's lambdify would write for them.  A symbolic PASS
is required for a certified result; the numeric check only ever adds
falsification power.  ``simulate`` steps exactly, in the kernel's
rational numbers (``symbolic.rational``), when every value it is given
is rational, and in floats otherwise.
"""

from dataclasses import dataclass
import functools
import math
import random
import re

from . import symbolic
from .errors import FlatcheckError, SimulationError

_JET_PATTERN = re.compile(r"^y(\d+)(?:_p(\d+))?$")


def jet_symbol(component, shift):
    """Symbol for forward shift ``shift`` of flat output component
    ``component`` (1-based)."""
    if shift == 0:
        return symbolic.symbol("y%d" % component)
    return symbolic.symbol("y%d_p%d" % (component, shift))


def parse_jet_symbol(sym):
    """Inverse of jet_symbol; returns (component, shift) or (None, None)."""
    match = _JET_PATTERN.match(sym.name)
    if match is None:
        return None, None
    return int(match.group(1)), int(match.group(2) or 0)


def input_shift_symbol(u, shift):
    """Symbol for forward shift ``shift`` of input u."""
    if shift == 0:
        return u
    return symbolic.symbol("%s_p%d" % (u.name, shift))


def _parse_input_shift(sym, inputs):
    for u in inputs:
        if sym == u:
            return u, 0
        match = re.match("^" + re.escape(u.name) + r"_p(\d+)$", sym.name)
        if match is not None:
            return u, int(match.group(1))
    return None, None


def shift_function(a, system=None):
    """Forward shift operator on field elements.

    With a system, states are replaced by their updates and every input
    shift is bumped by one, by composition in a's own field, which must
    hold the system's variables and the bumped shifts.  Without a system
    every output jet is bumped, and the result lies in the field of the
    bumped generators.  Raises FlatcheckError when a uses a generator the
    shift does not apply to."""
    if system is None:
        return _shift_output_jets(a)
    return _shift_through_system(a, system)


def _shift_output_jets(a):
    symbols, ahead = symbolic.field_of([a]).symbols, {}
    for sym in symbols:
        j, s = parse_jet_symbol(sym)
        if j is not None:
            ahead[sym] = jet_symbol(j, s + 1)
    stuck = symbolic.used_symbols(a).difference(ahead)
    if stuck:
        raise FlatcheckError("output shift applies to jet expressions, got %s"
                             % min(stuck, key=str))
    K = symbolic.field(ahead.get(s, s) for s in symbols)
    return symbolic.rename(a, K, ahead)


def _shift_through_system(a, system):
    images = _system_images(symbolic.field_of([a]), system.states, system.inputs,
                            system.update_elements[1])
    stuck = symbolic.used_symbols(a).difference(images)
    if stuck:
        raise FlatcheckError("system shift applies over states and input shifts, got %s"
                             % min(stuck, key=str))
    return symbolic.compose(a, images)


@functools.lru_cache(maxsize=32)
def _system_images(K, states, inputs, update):
    """The shift of the generators of the field K that have one, as
    elements of K by symbol: the update of a state (update holds the
    system's update elements) and the next shift of an input shift that
    has one in K."""
    images = {s: symbolic.rename(f, K, {}) for s, f in zip(states, update)}
    for sym in K.symbols:
        base, s = _parse_input_shift(sym, inputs)
        ahead = input_shift_symbol(base, s + 1) if base is not None else None
        if ahead in K.symbols:
            images[sym], = symbolic.generators(K, [ahead])
    return images


@dataclass(frozen=True)
class FlatParametrization:
    """Difference parametrization of the system trajectories.

    F_x expresses the states through output shifts up to order R-1, F_u
    the inputs through shifts up to order R, as elements of a field of
    output jets, one component per input."""

    F_x: tuple
    F_u: tuple

    @functools.cached_property
    def R(self) -> tuple:
        """The per-component multi-index of highest shifts, read off the
        jets the elements use: R_j is at least 1, every shift of y_j in
        F_u, and one more than every shift of y_j in F_x."""
        R = [1] * len(self.F_u)
        for elements, extra in ((self.F_x, 1), (self.F_u, 0)):
            for a in elements:
                for sym in symbolic.used_symbols(a):
                    j, s = parse_jet_symbol(sym)
                    if j is not None:
                        R[j - 1] = max(R[j - 1], s + extra)
        return tuple(R)


@dataclass(frozen=True)
class Trajectory:
    """Forward simulation record: states x(0..K), inputs u(0..K-1)."""

    horizon: int
    states: tuple
    inputs: tuple


@dataclass(frozen=True)
class SymbolicVerification:
    status: str
    bound: int
    detail: str


@dataclass(frozen=True)
class NumericTrial:
    index: int
    residual: float
    replay_error: float


@dataclass(frozen=True)
class NumericVerification:
    status: str
    trials: int
    horizon: int
    max_residual: float
    trial_records: tuple


def _equilibrium_jet_values(system, components, q):
    """Values of the output components, field elements over the states and
    input shifts up to q, at the equilibrium."""
    point = system.equilibrium_point()
    for u in system.inputs:
        for s in range(1, q + 1):
            point[input_shift_symbol(u, s)] = point[u]
    values = []
    for a in components:
        try:
            values += symbolic.element_values(symbolic.field_of([a]), [[a]], point)[0]
        except ZeroDivisionError:
            raise FlatcheckError(
                "output component %s has a pole at the equilibrium" % symbolic.to_infix(a)
            ) from None
    return values


def _by_name(symbols) -> tuple:
    return tuple(sorted(symbols, key=lambda s: s.name))


def _input_shifts(system, top):
    """The input shifts up to shift top, input by input."""
    return [input_shift_symbol(u, s) for u in system.inputs for s in range(top + 1)]


def _jet_targets(m, bound):
    return [jet_symbol(j + 1, s) for s in range(bound + 1) for j in range(m)]


def check_parametrization(system, p: FlatParametrization):
    """Exact checks of a parametrization: the shifted state expressions
    reproduce the dynamics and the combined map is a generic submersion.
    The shift bounds hold by construction, since R is read off F_x and
    F_u.  Returns (ok, detail).

    F_x and F_u are renamed into QQ(jets and shifted jets), where the
    shift renames the jets and f is composed with the parametrization."""
    elements = list(p.F_x) + list(p.F_u)
    jets = _by_name(set().union(*map(symbolic.used_symbols, elements)))
    ahead = {}
    for sym in jets:
        j, s = parse_jet_symbol(sym)
        if j is None:
            return False, "parametrization contains non-jet symbol %s" % sym
        ahead[sym] = jet_symbol(j, s + 1)
    if not jets:
        return False, "parametrization is not a generic submersion"
    J = symbolic.field(set(jets) | set(ahead.values()))
    values = [symbolic.rename(a, J, {}) for a in elements]
    _, update = system.update_elements
    images = dict(zip(system.variables, values))
    for s, a, f in zip(system.states, values, update):
        if symbolic.rename(a, J, ahead) != symbolic.compose(f, images, J):
            return False, "dynamics identity fails for %s" % s
    if symbolic.jacobian_rank(J, values, jets) != system.n + system.m:
        return False, "parametrization is not a generic submersion"
    return True, "identity, submersion, and shift bounds hold"


def _candidate_parts(system, candidate):
    """Component tuple and highest input shift of an output candidate, a
    sequence of field elements over the states and input shifts; the
    shift order is read off the generators the elements use."""
    comps = tuple(candidate)
    q = 0
    for a in comps:
        for sym in _by_name(symbolic.used_symbols(a)):
            if sym in system.states:
                continue
            base, s = _parse_input_shift(sym, system.inputs)
            if base is None:
                raise FlatcheckError(
                    "candidate output uses unknown symbol %s" % sym
                )
            q = max(q, s)
    return comps, q


def verify_flat_output_symbolic(system, candidate):
    """Decide whether candidate components, field elements over the
    states and input shifts, form a flat output.

    Stacks the forward shifts of the components up to an incrementally
    grown bound (capped at n + q + 1), solves once per bound for the
    states and every input shift the stacked shifts use, picks the branch
    that gives the system variables as functions of the output jets, and
    verifies the parametrization identity and the submersion property.
    Returns (parametrization, report); the parametrization is None
    unless the status is PASS.  A generic functional relation among the
    stacked shifts is a proof of failure; a solver that gives up is only
    INCONCLUSIVE.

    A bound is skipped without a solve, as unsolved, only when the exact
    rank at the point that certified the stacked shifts' independence
    proves that no solve can express the states and inputs in the jets
    (:func:`_solve_is_hopeless`); a pole there skips nothing.  Skipping
    turns no INCONCLUSIVE into a FAIL.

    The components are renamed into QQ(states, input shifts up to
    cap + q), where they are shifted and ranked.  Each bound is solved
    in QQ(its jets, states and input shifts), into which its equations
    are renamed: the gcds of the elimination slow down with every
    generator of the field, used or not."""
    components, q = _candidate_parts(system, candidate)
    if len(components) != system.m:
        raise FlatcheckError(
            "candidate has %d components for %d inputs" % (len(components), system.m)
        )
    m, n = system.m, system.n
    cap = n + q + 1
    shifts = _input_shifts(system, cap + q)
    X = symbolic.field(list(system.states) + shifts)
    level = [symbolic.rename(a, X, {}) for a in components]
    centers = _equilibrium_jet_values(system, level, q)
    stacked, used = [], set()
    detail = "no solvable shift bound up to %d" % cap
    for alpha in range(cap + 1):
        if alpha:
            level = [shift_function(a, system) for a in level]
        stacked += level
        used.update(*map(symbolic.used_symbols, level))
        present = [s for s in shifts if s in used]
        variables = list(system.states) + present
        at_point = symbolic.certificate_jacobian(X, stacked, variables)
        if symbolic.jacobian_rank(X, stacked, variables, at_point) < len(stacked):
            return None, SymbolicVerification(
                status="FAIL",
                bound=alpha,
                detail="components satisfy a difference relation at shift bound %d"
                % alpha,
            )
        if len(stacked) < n + m:
            continue
        if _solve_is_hopeless(system, variables, at_point, len(stacked)):
            detail = "stacked system unsolved at shift bound %d" % alpha
            continue
        targets = _jet_targets(m, alpha)
        S = symbolic.field(targets + variables)
        equations = symbolic.defining_equations(S, dict(zip(targets, stacked)))
        result = _attempt_jet_solve(system, S, equations, variables, centers, q)
        if result is None:
            detail = "stacked system unsolved at shift bound %d" % alpha
            continue
        F_x, F_u = result
        p = FlatParametrization(F_x=tuple(F_x), F_u=tuple(F_u))
        ok, why = check_parametrization(system, p)
        if ok:
            return p, SymbolicVerification(
                status="PASS", bound=alpha, detail=why
            )
        detail = why + " at shift bound %d" % alpha
    return None, SymbolicVerification(
        status="INCONCLUSIVE", bound=cap, detail=detail
    )


def _solve_is_hopeless(system, variables, at_point, nstacked):
    """Whether the rank at a point proves that the stacked jets, whose
    Jacobian with respect to variables (the states and input shifts) is at
    that point at_point and generically of full rank nstacked, determine
    no n + m functions of (x, u).

    Were x and u functions of the jets, dx and du would span n + m
    dimensions of the jets' differentials free of the input shifts of
    order 1 and more, so the jets' Jacobian B in those shifts would have
    generic rank at most nstacked - (n + m).  The rank of B at a point is
    at most its generic rank, so a larger one proves that no branch of
    any jet solve is free of the other variables.  A pole (at_point None)
    proves nothing."""
    if at_point is None:
        return False
    columns = [k for k, v in enumerate(variables) if v not in system.variables]
    B = [[row[k] for k in columns] for row in at_point]
    return symbolic.rational_rank(B, len(columns)) > nstacked - (system.n + system.m)


def _attempt_jet_solve(system, S, equations, unknowns, centers, q):
    """Solve the stacked jet equations, elements of the field S, for the
    given unknowns and select the branch through the equilibrium.
    Returns (F_x, F_u) with jet-pure elements of S for every state and
    input, or None."""
    jet_point = {}
    for j, c in enumerate(centers):
        for s in range(0, system.n + q + 3):
            jet_point[jet_symbol(j + 1, s)] = c
    try:
        solutions = symbolic.solve_elements(S, equations, unknowns)
        pure = [sol for sol in solutions if not any(
            parse_jet_symbol(sym)[0] is None
            for v in system.variables if v in sol for sym in symbolic.used_symbols(sol[v]))]
        sol = symbolic.branch_through(S, pure, system.variables,
                                      {**jet_point, **system.equilibrium_point()})
    except FlatcheckError:
        return None
    return [sol[s] for s in system.states], [sol[u] for u in system.inputs]


def _update_function(system):
    """The float update map x+ = f(x, u) of the system, compiled once, for
    the numeric replay and for simulate alike."""
    return symbolic.float_function(system.variables, system.update)


def verify_flat_output_numeric(
    system,
    p: FlatParametrization,
    candidate,
    trials=20,
    horizon=20,
    tol=1e-9,
    seed=0,
    box=0.1,
):
    """Replay random output trajectories through the parametrization.

    Each trial samples a y-trajectory componentwise uniform in a box
    around the equilibrium's image under the candidate (field elements,
    as for verify_flat_output_symbolic), computes states and inputs via
    the parametrization, measures the worst dynamics residual, and
    replays the candidate's outputs to compare them to the samples.
    Trials are independent, seeded by (seed, index), and merged in index
    order, so reports are reproducible.  Pole hits
    resample the trial a bounded number of times."""
    m = len(p.F_u)
    comps, q = _candidate_parts(system, candidate)
    centers = [float(v) for v in _equilibrium_jet_values(system, comps, q)]
    max_r = max(p.R)
    length = horizon + max_r + q + 2
    jets_used = _by_name(set().union(*map(symbolic.used_symbols, list(p.F_x) + list(p.F_u))))
    jet_index = [parse_jet_symbol(sym) for sym in jets_used]
    fx_fn = symbolic.float_function(jets_used, [symbolic.expression(a) for a in p.F_x])
    fu_fn = symbolic.float_function(jets_used, [symbolic.expression(a) for a in p.F_u])
    f_fn = _update_function(system)
    phi_vars = list(system.states) + [
        input_shift_symbol(u, s) for s in range(q + 1) for u in system.inputs
    ]
    phi_fn = symbolic.float_function(phi_vars, [symbolic.expression(c) for c in comps])

    def jet_values(samples, k):
        return [samples[j - 1][k + s] for j, s in jet_index]

    records = []
    for index in range(trials):
        rng = random.Random((seed << 32) ^ index)
        record = None
        for _ in range(8):
            samples = [
                [centers[j] + rng.uniform(-box, box) for _ in range(length)]
                for j in range(m)
            ]
            try:
                xs = [fx_fn(*jet_values(samples, k)) for k in range(horizon + 1)]
                us = [fu_fn(*jet_values(samples, k)) for k in range(horizon + q + 1)]
                residual = 0.0
                for k in range(horizon):
                    for a, b in zip(f_fn(*(xs[k] + us[k])), xs[k + 1]):
                        residual = max(residual, abs(a - b))
                replay = 0.0
                for k in range(horizon):
                    args = list(xs[k])
                    for s in range(q + 1):
                        args.extend(us[k + s])
                    for j, value in enumerate(phi_fn(*args)):
                        replay = max(replay, abs(value - samples[j][k]))
                values = [v for row in xs + us for v in row] + [residual, replay]
                if any(v != v or abs(v) == float("inf") for v in values):
                    raise ZeroDivisionError("non-finite value")
                record = NumericTrial(index=index, residual=residual, replay_error=replay)
                break
            except (ZeroDivisionError, OverflowError):
                continue
        if record is None:
            raise FlatcheckError(
                "numeric verification hit poles repeatedly in trial %d" % index
            )
        records.append(record)
    worst = max(
        (max(r.residual, r.replay_error) for r in records), default=0.0
    )
    status = "PASS" if all(
        r.residual <= tol and r.replay_error <= tol for r in records
    ) else "FAIL"
    return NumericVerification(
        status=status,
        trials=trials,
        horizon=horizon,
        max_residual=worst,
        trial_records=tuple(records),
    )


def _floats(values, where) -> tuple:
    """values as floats; SimulationError naming the first that is nan or
    infinite, which the dynamics would carry along or report as a pole."""
    floats = tuple(map(float, values))
    for j, v in enumerate(floats):
        if not math.isfinite(v):
            raise SimulationError("%s entry %d is %s, not a finite number" % (where, j + 1, v))
    return floats


def simulate(system, x0, inputs) -> Trajectory:
    """Iterate the dynamics from x0 under the given input sequence.

    Evaluation is exact over the rationals when symbolic.rational reads
    every value (ints, Fractions, sympy's and the kernel's rationals), and the
    states and inputs are then kernel rationals; otherwise it is in
    floating point, where a value that is not finite is refused before
    the first step.  A pole aborts with the step index."""
    if len(x0) != system.n:
        raise SimulationError(
            "initial state has %d entries for %d states" % (len(x0), system.n)
        )
    rows = [list(r) for r in inputs]
    for row in rows:
        if len(row) != system.m:
            raise SimulationError(
                "input row has %d entries for %d inputs" % (len(row), system.m)
            )
    try:
        state = tuple(map(symbolic.rational, x0))
        input_rows = tuple(tuple(map(symbolic.rational, row)) for row in rows)
        exact = True
    except TypeError:
        exact = False
    if exact:
        K, update = system.update_elements
        states = [state]
        for k, row in enumerate(input_rows):
            point = dict(zip(system.variables, state + row))
            try:
                state = tuple(symbolic.element_values(K, [update], point)[0])
            except ZeroDivisionError:
                raise SimulationError("pole encountered at step %d" % k, step=k)
            states.append(state)
    else:
        states = [_floats(x0, "initial state")]
        input_rows = tuple(_floats(row, "input row %d" % (k + 1)) for k, row in enumerate(rows))
        fn = _update_function(system)
        for k, row in enumerate(input_rows):
            try:
                state = tuple(fn(*states[-1], *row))
            except (ZeroDivisionError, OverflowError):
                raise SimulationError("pole encountered at step %d" % k, step=k)
            if not all(map(math.isfinite, state)):
                raise SimulationError("pole encountered at step %d" % k, step=k)
            states.append(state)
    return Trajectory(
        horizon=len(rows),
        states=tuple(states),
        inputs=input_rows,
    )
