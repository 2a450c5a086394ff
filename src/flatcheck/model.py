"""Discrete-time control systems and their well-posedness checks.

A system is x+ = f(x, u) with n states and m inputs, studied near a fixed
point f(x0, u0) = x0.  Everything downstream assumes the update map is a
submersion in (x, u), so validation checks that rank condition both
generically and at the equilibrium, and flags inputs that act redundantly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import sympy as sp
from sympy import QQ

from .errors import UnsupportedEquationError, ValidationError
from . import symbolic


@dataclass(frozen=True)
class DiscreteTimeSystem:
    """Immutable description of x+ = f(x, u) with a marked equilibrium."""

    name: str
    states: tuple
    inputs: tuple
    update: tuple
    equilibrium: dict
    source_digest: str | None = None

    def __post_init__(self):
        if len(self.update) != len(self.states):
            raise ValidationError(
                "system %r: %d states but %d update equations"
                % (self.name, len(self.states), len(self.update))
            )
        for v in list(self.states) + list(self.inputs):
            if v not in self.equilibrium:
                raise ValidationError(
                    "system %r: equilibrium missing a value for %s" % (self.name, v)
                )

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def m(self) -> int:
        return len(self.inputs)

    @property
    def variables(self) -> tuple:
        """All coordinates of the extended space, states first."""
        return tuple(self.states) + tuple(self.inputs)

    def equilibrium_point(self) -> dict:
        return dict(self.equilibrium)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the structural checks on a system that passes them."""

    input_rank_generic: int
    redundant_inputs: bool


def validate_system(system: DiscreteTimeSystem) -> ValidationReport:
    """Check submersivity, the fixed point, and input rank.

    Raises ValidationError when the update map is not rational in the
    system variables, when it is not a submersion (generically or at the
    equilibrium), when the marked point is a pole of it or not a fixed
    point, or when the input rank drops at the equilibrium.  A generic
    input-rank deficit is not an error; it is reported through the
    redundant_inputs flag so the caller can eliminate the redundancy.
    """
    n, m = system.n, system.m
    try:
        K, update = symbolic.to_elements(system.update, system.variables)
    except UnsupportedEquationError as exc:
        raise ValidationError("system %r: %s" % (system.name, exc)) from None
    point = system.equilibrium_point()
    for xi, fi, a in zip(system.states, system.update, update):
        try:
            (value,), = symbolic.element_values(K, [[a]], point)
        except ZeroDivisionError:
            raise ValidationError(
                "system %r: the update of %s, %s, has a pole at the marked point"
                % (system.name, xi, fi)
            ) from None
        residual = QQ.to_sympy(value) - point[xi]
        if residual != 0:
            raise ValidationError(
                "system %r: f(%s) - %s = %s at the marked point, not a fixed point"
                % (system.name, xi, xi, residual)
            )

    # a rank at a point is at most the generic rank, so a full rank at the
    # equilibrium proves the generic one
    rank_eq = symbolic.jacobian_rank(K, update, system.variables, point)
    if rank_eq < n:
        rank_generic = symbolic.jacobian_rank(K, update, system.variables)
        if rank_generic < n:
            raise ValidationError(
                "system %r: update map has generic rank %d < n = %d, not submersive"
                % (system.name, rank_generic, n)
            )
        raise ValidationError(
            "system %r: rank drop at equilibrium (rank %d < n = %d)"
            % (system.name, rank_eq, n)
        )

    input_rank_eq = symbolic.jacobian_rank(K, update, system.inputs, point)
    if input_rank_eq == min(n, m):
        input_rank = input_rank_eq
    else:
        input_rank = symbolic.jacobian_rank(K, update, system.inputs)
    if input_rank_eq < input_rank:
        raise ValidationError(
            "system %r: input rank drop at equilibrium (%d < %d)"
            % (system.name, input_rank_eq, input_rank)
        )

    return ValidationReport(
        input_rank_generic=input_rank,
        redundant_inputs=input_rank < m,
    )


@dataclass(frozen=True)
class InputReduction:
    """Result of eliminating redundant inputs.

    reduced is the new system with effective inputs uhat_1..uhat_mhat.
    kept_functions gives each uhat_r as an expression in the original
    (x, u); removed_coordinates are the original input symbols that
    survive as free directions.  inverse expresses every original input
    in terms of (x, uhat, utilde), with the removed coordinates renamed
    utilde_1..utilde_k.  extension lists the expressions (the removed
    coordinates themselves) that must be appended to any flat output of
    the reduced system to obtain one for the original system.
    """

    reduced: DiscreteTimeSystem
    kept_functions: tuple
    removed_coordinates: tuple
    removed_symbols: tuple
    inverse: dict
    extension: tuple = field(default=())


def eliminate_redundant_inputs(system: DiscreteTimeSystem) -> InputReduction:
    """Rewrite the dynamics over an effective input set of full rank.

    The rows of the transposed input Jacobian are reduced; pivot rows
    select update components f^{i_r} whose values serve as new inputs
    uhat_r, and non-pivot input coordinates are carried along unchanged
    as utilde.  Requires the system to actually be input-redundant and
    to retain at least one effective input.
    """
    n, m = system.n, system.m
    K, update = symbolic.to_elements(system.update, system.variables)
    ijac = [[f.diff(u) for u in K.field.gens[n:]] for f in update]
    # the first update components f^{i_r} whose input-Jacobian rows are
    # independent, the pivot columns of its transpose; their values
    # become the effective inputs
    _, comp_used = symbolic.element_rref(K, [list(col) for col in zip(*ijac)], n)
    input_rank = len(comp_used)
    if input_rank == m:
        raise ValidationError("system %r: no redundancy, input rank is already %d"
                              % (system.name, m))
    if input_rank == 0:
        raise ValidationError(
            "system %r: no effective inputs (input rank 0)" % system.name
        )

    kept_functions = tuple(system.update[i] for i in comp_used)
    uhat = tuple(sp.Symbol("uhat_%d" % (r + 1)) for r in range(input_rank))

    # Non-pivot original inputs come along unchanged as utilde coordinates.
    _, pivot_cols = symbolic.element_rref(K, [ijac[i] for i in comp_used], m)
    free_cols = [j for j in range(m) if j not in pivot_cols]
    removed = tuple(system.inputs[j] for j in free_cols)
    utilde = tuple(sp.Symbol("utilde_%d" % (t + 1)) for t in range(len(free_cols)))

    # solve for the inputs in QQ(x, u, uhat, utilde), generators sorted by name
    H = symbolic.function_field(tuple(sorted(system.variables + uhat + utilde,
                                             key=lambda s: s.name)))
    gen = dict(zip(H.symbols, H.field.gens))
    equations = [gen[uhat[r]] - symbolic.rename(update[i], H, {})
                 for r, i in enumerate(comp_used)]
    equations += [gen[t] - gen[u] for t, u in zip(utilde, removed)]
    solutions = symbolic.solve_elements(H, equations, system.inputs)
    if not solutions:
        raise ValidationError(
            "system %r: cannot invert the effective-input change" % system.name
        )
    # the first branch in sympy's order of its expressions, whatever order
    # the elimination finds them in
    inverse = min(solutions, key=lambda sol: sp.default_sort_key(
        {u: a.as_expr() for u, a in sol.items()}))

    images = {**gen, **inverse}
    substitution = [(images[v].numer, images[v].denom) for v in system.variables]
    new_update = []
    for fi in update:
        gi = symbolic.canonicalize_element(H, symbolic.compose(fi, substitution, H))
        extra = set(gi.free_symbols) & set(utilde)
        if extra:
            raise ValidationError(
                "system %r: update still depends on removed inputs %s"
                % (system.name, sorted(extra, key=str))
            )
        new_update.append(gi)

    point = system.equilibrium_point()
    new_equilibrium = {s: point[s] for s in system.states}
    values = symbolic.element_values(K, [[update[i] for i in comp_used]], point)[0]
    new_equilibrium.update(zip(uhat, map(QQ.to_sympy, values)))

    reduced = DiscreteTimeSystem(
        name=system.name + "Reduced",
        states=system.states,
        inputs=uhat,
        update=tuple(new_update),
        equilibrium=new_equilibrium,
        source_digest=system.source_digest,
    )
    inverse_full = {u: symbolic.canonicalize_element(H, a) for u, a in inverse.items()}
    return InputReduction(
        reduced=reduced,
        kept_functions=kept_functions,
        removed_coordinates=removed,
        removed_symbols=utilde,
        inverse=inverse_full,
        extension=tuple(removed),
    )
