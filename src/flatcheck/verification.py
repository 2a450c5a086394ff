"""Independent verification of flat output candidates and forward simulation.

A candidate flat output is verified symbolically by stacking its forward
shifts, solving for the system variables as functions of the output jets,
and checking the parametrization identity together with the submersion
property.  All of it runs on rational function field elements: the
candidate comes as elements, ``shift_function`` shifts it by composing
with the update map, ``symbolic.solve_elements`` solves the stacked
equations, and the branch through the equilibrium is picked with
``symbolic.branch_through``; the parametrization it returns holds
elements of a field of output jets.  Numeric verification replays
random output trajectories near the equilibrium through the
parametrization and measures the dynamics residual.  A symbolic PASS
is required for a certified result; the numeric check only ever adds
falsification power.
"""

from dataclasses import dataclass
import functools
import random
import re

import sympy as sp
from sympy import QQ

from . import symbolic
from .errors import FlatcheckError, SimulationError
from .model import update_elements

__all__ = [
    "jet_symbol",
    "parse_jet_symbol",
    "shift_function",
    "FlatParametrization",
    "Trajectory",
    "SymbolicVerification",
    "NumericTrial",
    "NumericVerification",
    "verify_flat_output_symbolic",
    "verify_flat_output_numeric",
    "simulate",
]

_JET_PATTERN = re.compile(r"^y(\d+)(?:_p(\d+))?$")


def jet_symbol(component, shift) -> sp.Symbol:
    """Symbol for forward shift ``shift`` of flat output component
    ``component`` (1-based)."""
    if shift == 0:
        return sp.Symbol("y%d" % component)
    return sp.Symbol("y%d_p%d" % (component, shift))


def parse_jet_symbol(sym):
    """Inverse of jet_symbol; returns (component, shift) or (None, None)."""
    match = _JET_PATTERN.match(sym.name)
    if match is None:
        return None, None
    return int(match.group(1)), int(match.group(2) or 0)


def input_shift_symbol(u: sp.Symbol, shift) -> sp.Symbol:
    """Symbol for forward shift ``shift`` of input u."""
    if shift == 0:
        return u
    return sp.Symbol("%s_p%d" % (u.name, shift))


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
    ahead = {}
    for sym in a.field.symbols:
        j, s = parse_jet_symbol(sym)
        if j is not None:
            ahead[sym] = jet_symbol(j, s + 1)
    stuck = symbolic.used_symbols(a).difference(ahead)
    if stuck:
        raise FlatcheckError("output shift applies to jet expressions, got %s"
                             % min(stuck, key=str))
    K = symbolic.field(ahead.get(s, s) for s in a.field.symbols)
    return symbolic.rename(a, K, ahead)


def _shift_through_system(a, system):
    images = _system_images(a.field, system.states, system.inputs, system.update)
    stuck = symbolic.used_symbols(a).difference(images)
    if stuck:
        raise FlatcheckError("system shift applies over states and input shifts, got %s"
                             % min(stuck, key=str))
    return symbolic.compose(a, images)


@functools.lru_cache(maxsize=32)
def _system_images(field, states, inputs, update):
    """The shift of the generators of field that have one, as elements of
    field by symbol: the update of a state and the next shift of an input
    shift that has one in field."""
    K = symbolic.function_field(field.symbols)
    images = {s: symbolic.rename(f, K, {})
              for s, f in zip(states, update_elements(update, states + inputs)[1])}
    gens = dict(zip(field.symbols, field.gens))
    for sym in field.symbols:
        base, s = _parse_input_shift(sym, inputs)
        ahead = gens.get(input_shift_symbol(base, s + 1)) if base is not None else None
        if ahead is not None:
            images[sym] = ahead
    return images


@dataclass(frozen=True)
class FlatParametrization:
    """Difference parametrization of the system trajectories.

    F_x expresses the states through output shifts up to order R-1, F_u
    the inputs through shifts up to order R, as elements of a field of
    output jets; R is the per-component multi-index of highest shifts."""

    F_x: tuple
    F_u: tuple
    R: tuple

    @property
    def m(self) -> int:
        return len(self.R)


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
    capped: bool
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
    tol: float
    seed: int
    box: float
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
            (value,), = symbolic.element_values(
                symbolic.function_field(a.field.symbols), [[a]], point)
        except ZeroDivisionError:
            raise FlatcheckError(
                "output component %s has a pole at the equilibrium" % symbolic.to_infix(a)
            ) from None
        values.append(QQ.to_sympy(value))
    return values


def _by_name(symbols) -> tuple:
    return tuple(sorted(symbols, key=lambda s: s.name))


def _input_shifts(system, top):
    """The input shifts up to shift top, input by input."""
    return [input_shift_symbol(u, s) for u in system.inputs for s in range(top + 1)]


def _jet_targets(m, bound):
    return [jet_symbol(j + 1, s) for s in range(bound + 1) for j in range(m)]


def _shift_ranks(F_x, F_u, m):
    """Multi-index R from the shifts appearing in a solved parametrization:
    R_j is at least 1, every shift of y_j in F_u, and one more than every
    shift of y_j in F_x.  None when a symbol is not a jet."""
    R = [1] * m
    for elements, extra in ((F_x, 1), (F_u, 0)):
        for a in elements:
            for sym in symbolic.used_symbols(a):
                j, s = parse_jet_symbol(sym)
                if j is None:
                    return None
                R[j - 1] = max(R[j - 1], s + extra)
    return tuple(R)


def check_parametrization(system, p: FlatParametrization):
    """Exact checks of a parametrization: the shifted state expressions
    reproduce the dynamics, the combined map is a generic submersion, and
    the states only use shifts below R.  Returns (ok, detail).

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
    _, update = update_elements(system.update, system.variables)
    images = dict(zip(system.variables, values))
    for s, a, f in zip(system.states, values, update):
        if symbolic.rename(a, J, ahead) - symbolic.compose(f, images, J):
            return False, "dynamics identity fails for %s" % s
    if symbolic.jacobian_rank(J, values, jets) != system.n + system.m:
        return False, "parametrization is not a generic submersion"
    for i, a in enumerate(p.F_x):
        for sym in _by_name(symbolic.used_symbols(a)):
            j, s = parse_jet_symbol(sym)
            if s > p.R[j - 1] - 1:
                return False, "state %d uses shift %d of component %d" % (i + 1, s, j)
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
    grown bound (capped at n + q + 1), solves for the system variables as
    functions of the output jets, and verifies the parametrization
    identity and the submersion property.  Returns (parametrization,
    report); the parametrization is None unless the status is PASS.  A
    generic functional relation among the stacked shifts is a proof of
    failure; a solver that gives up is only INCONCLUSIVE.

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
        if symbolic.jacobian_rank(X, stacked, list(system.states) + present) < len(stacked):
            return None, SymbolicVerification(
                status="FAIL",
                bound=alpha,
                capped=False,
                detail="components satisfy a difference relation at shift bound %d"
                % alpha,
            )
        if len(stacked) < n + m:
            continue
        top = max(
            (_parse_input_shift(s, system.inputs)[1] for s in present), default=-1
        )
        ladders = []
        if top >= 0:
            trimmed = [
                s for s in present if _parse_input_shift(s, system.inputs)[1] < top
            ]
            ladders.append(list(system.states) + trimmed)
        ladders.append(list(system.states) + present)
        targets = _jet_targets(m, alpha)
        S = symbolic.field(targets + list(system.states) + present)
        equations = [g - symbolic.rename(a, S, {})
                     for g, a in zip(symbolic.generators(S, targets), stacked)]
        result = None
        for unknowns in ladders:
            result = _attempt_jet_solve(system, S, equations, unknowns, centers, q)
            if result is not None:
                break
        if result is None:
            detail = "stacked system unsolved at shift bound %d" % alpha
            continue
        F_x, F_u = result
        R = _shift_ranks(F_x, F_u, m)
        if R is None:
            detail = "solution retains non-jet symbols at shift bound %d" % alpha
            continue
        p = FlatParametrization(F_x=tuple(F_x), F_u=tuple(F_u), R=R)
        ok, why = check_parametrization(system, p)
        if ok:
            return p, SymbolicVerification(
                status="PASS", bound=alpha, capped=False, detail=why
            )
        detail = why + " at shift bound %d" % alpha
    return None, SymbolicVerification(
        status="INCONCLUSIVE", bound=cap, capped=True, detail=detail
    )


def _attempt_jet_solve(system, S, equations, unknowns, centers, q):
    """Solve the stacked jet equations, elements of the field S, for the
    given unknowns and select the branch through the equilibrium.
    Returns (F_x, F_u) with jet-pure elements of S for every state and
    input, or None."""
    try:
        solutions = symbolic.solve_elements(S, equations, unknowns)
    except FlatcheckError:
        return None
    jet_point = {}
    for j, c in enumerate(centers):
        for s in range(0, system.n + q + 3):
            jet_point[jet_symbol(j + 1, s)] = c
    pure = [sol for sol in solutions if not any(
        parse_jet_symbol(sym)[0] is None
        for v in system.variables if v in sol for sym in symbolic.used_symbols(sol[v]))]
    eq_point = system.equilibrium_point()
    sol = symbolic.branch_through(S, pure, system.variables, jet_point,
                                  [eq_point[v] for v in system.variables])
    if sol is None:
        return None
    return [sol[s] for s in system.states], [sol[u] for u in system.inputs]


def verify_flat_output_numeric(
    system,
    p: FlatParametrization,
    trials=20,
    horizon=20,
    tol=1e-9,
    seed=0,
    box=0.1,
    candidate=None,
):
    """Replay random output trajectories through the parametrization.

    Each trial samples a y-trajectory componentwise uniform in a box
    around the equilibrium's output image, computes states and inputs via
    the parametrization, and measures the worst dynamics residual; when
    the candidate (field elements, as for verify_flat_output_symbolic)
    is supplied, the outputs are replayed and compared to the samples.
    Trials are independent, seeded by (seed, index), and merged in index
    order, so reports are reproducible.  Pole hits
    resample the trial a bounded number of times."""
    m = p.m
    comps = None
    if candidate is not None:
        comps, q = _candidate_parts(system, candidate)
        centers = [float(v) for v in _equilibrium_jet_values(system, comps, q)]
    else:
        centers = [0.0] * m
        q = 0
    max_r = max(p.R)
    length = horizon + max_r + q + 2
    jets_used = _by_name(set().union(*map(symbolic.used_symbols, list(p.F_x) + list(p.F_u))))
    fx_fns = [sp.lambdify(jets_used, a.as_expr(), modules="math") for a in p.F_x]
    fu_fns = [sp.lambdify(jets_used, a.as_expr(), modules="math") for a in p.F_u]
    sys_vars = list(system.states) + list(system.inputs)
    f_fns = [sp.lambdify(sys_vars, f, modules="math") for f in system.update]
    phi_fns = None
    if comps is not None:
        phi_vars = list(system.states) + [
            input_shift_symbol(u, s) for s in range(q + 1) for u in system.inputs
        ]
        phi_fns = [sp.lambdify(phi_vars, c.as_expr(), modules="math") for c in comps]

    def jet_values(samples, k):
        values = {}
        for sym in jets_used:
            j, s = parse_jet_symbol(sym)
            values[sym] = samples[j - 1][k + s]
        return [values[sym] for sym in jets_used]

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
                xs = [
                    [fn(*jet_values(samples, k)) for fn in fx_fns]
                    for k in range(horizon + 1)
                ]
                us = [
                    [fn(*jet_values(samples, k)) for fn in fu_fns]
                    for k in range(horizon + q + 1)
                ]
                residual = 0.0
                for k in range(horizon):
                    nxt = [fn(*(xs[k] + us[k])) for fn in f_fns]
                    for a, b in zip(nxt, xs[k + 1]):
                        residual = max(residual, abs(a - b))
                replay = 0.0
                if phi_fns is not None:
                    for k in range(horizon):
                        args = list(xs[k])
                        for s in range(q + 1):
                            args.extend(us[k + s])
                        for j, fn in enumerate(phi_fns):
                            replay = max(replay, abs(fn(*args) - samples[j][k]))
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
        tol=tol,
        seed=seed,
        box=box,
        max_residual=worst,
        trial_records=tuple(records),
    )


def simulate(system, x0, inputs) -> Trajectory:
    """Iterate the dynamics from x0 under the given input sequence.

    Evaluation is exact over the rationals when every value is rational,
    otherwise in floating point.  A pole aborts with the step index."""
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
    values = [sp.sympify(v) for v in list(x0) + [v for r in rows for v in r]]
    exact = all(v.is_Rational for v in values)
    sys_vars = list(system.states) + list(system.inputs)
    if exact:
        K, update = update_elements(system.update, system.variables)
        state = [sp.Rational(v) for v in x0]
        states = [tuple(state)]
        for k, row in enumerate(rows):
            point = {s: v for s, v in zip(system.states, state)}
            point.update({u: sp.Rational(v) for u, v in zip(system.inputs, row)})
            try:
                state = list(map(QQ.to_sympy, symbolic.element_values(K, [update], point)[0]))
            except ZeroDivisionError:
                raise SimulationError("pole encountered at step %d" % k, step=k)
            states.append(tuple(state))
        input_rows = tuple(tuple(sp.Rational(v) for v in row) for row in rows)
    else:
        fns = [
            sp.lambdify(sys_vars, f, modules="math") for f in system.update
        ]
        state = [float(v) for v in x0]
        states = [tuple(state)]
        for k, row in enumerate(rows):
            args = state + [float(v) for v in row]
            try:
                state = [fn(*args) for fn in fns]
            except (ZeroDivisionError, OverflowError):
                raise SimulationError("pole encountered at step %d" % k, step=k)
            if any(v != v or abs(v) == float("inf") for v in state):
                raise SimulationError("pole encountered at step %d" % k, step=k)
            states.append(tuple(state))
        input_rows = tuple(tuple(float(v) for v in row) for row in rows)
    return Trajectory(
        horizon=len(rows),
        states=tuple(states),
        inputs=input_rows,
    )
