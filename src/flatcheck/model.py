"""Discrete-time control systems and their well-posedness checks.

A system is x+ = f(x, u) with n states and m inputs, studied near a fixed
point f(x0, u0) = x0.  Everything downstream assumes the update map is a
submersion in (x, u), so validation checks that rank condition both
generically and at the equilibrium, and flags inputs that act redundantly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import sympy as sp

from .errors import ValidationError
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

    def update_map(self) -> sp.Matrix:
        return sp.Matrix(self.n, 1, list(self.update))

    def jacobian(self) -> sp.Matrix:
        """d f / d (x, u), an n x (n + m) matrix."""
        return self.update_map().jacobian(sp.Matrix(self.n + len(self.inputs), 1,
                                                    list(self.variables)))

    def input_jacobian(self) -> sp.Matrix:
        return self.update_map().jacobian(sp.Matrix(self.m, 1, list(self.inputs)))

    def equilibrium_point(self) -> dict:
        return dict(self.equilibrium)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the structural checks on a system."""

    submersive_generic: bool
    submersive_at_equilibrium: bool
    fixed_point: bool
    input_rank_generic: int
    input_rank_at_equilibrium: int
    redundant_inputs: bool


def validate_system(system: DiscreteTimeSystem) -> ValidationReport:
    """Check submersivity, the fixed point, and input rank.

    Raises ValidationError when the update map is not a submersion
    (generically or at the equilibrium), when the marked point is not a
    fixed point, or when the input rank drops at the equilibrium.  A
    generic input-rank deficit is not an error; it is reported through
    the redundant_inputs flag so the caller can eliminate the redundancy.
    """
    n, m = system.n, system.m
    point = system.equilibrium_point()
    for xi, fi in zip(system.states, system.update):
        residual = symbolic.evaluate_exact(fi - xi, point)
        if residual != 0:
            raise ValidationError(
                "system %r: f(%s) - %s = %s at the marked point, not a fixed point"
                % (system.name, xi, xi, residual)
            )

    jac = system.jacobian()
    rank_generic = symbolic.generic_rank(jac)
    if rank_generic < n:
        raise ValidationError(
            "system %r: update map has generic rank %d < n = %d, not submersive"
            % (system.name, rank_generic, n)
        )
    rank_eq = symbolic.rank_at_point(jac, point)
    if rank_eq < n:
        raise ValidationError(
            "system %r: rank drop at equilibrium (rank %d < n = %d)"
            % (system.name, rank_eq, n)
        )

    ijac = system.input_jacobian()
    input_rank = symbolic.generic_rank(ijac)
    input_rank_eq = symbolic.rank_at_point(ijac, point)
    if input_rank_eq < input_rank:
        raise ValidationError(
            "system %r: input rank drop at equilibrium (%d < %d)"
            % (system.name, input_rank_eq, input_rank)
        )

    return ValidationReport(
        submersive_generic=True,
        submersive_at_equilibrium=True,
        fixed_point=True,
        input_rank_generic=input_rank,
        input_rank_at_equilibrium=input_rank_eq,
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
    ijac = system.input_jacobian()
    input_rank = symbolic.generic_rank(ijac)
    if input_rank == m:
        raise ValidationError("system %r: no redundancy, input rank is already %d"
                              % (system.name, m))
    if input_rank == 0:
        raise ValidationError(
            "system %r: no effective inputs (input rank 0)" % system.name
        )

    # Pick update components f^{i_r} whose input-Jacobian rows are
    # independent; their values become the effective inputs.
    comp_used = []
    for _ in range(input_rank):
        found = None
        for i in range(n):
            if i in comp_used:
                continue
            trial = sp.Matrix([ijac[j, :] for j in comp_used + [i]])
            if symbolic.generic_rank(trial) == len(comp_used) + 1:
                found = i
                break
        if found is None:
            raise ValidationError(
                "system %r: could not select independent update components"
                % system.name
            )
        comp_used.append(found)

    kept_functions = tuple(system.update[i] for i in comp_used)
    uhat = tuple(sp.Symbol("uhat_%d" % (r + 1)) for r in range(input_rank))

    # Non-pivot original inputs come along unchanged as utilde coordinates.
    ijac_cols = sp.Matrix([[ijac[i, j] for j in range(m)] for i in comp_used])
    colres = symbolic.function_field_rref(ijac_cols)
    pivot_cols = list(colres.pivots)
    free_cols = [j for j in range(m) if j not in pivot_cols]
    removed = tuple(system.inputs[j] for j in free_cols)
    utilde = tuple(sp.Symbol("utilde_%d" % (t + 1)) for t in range(len(free_cols)))

    equations = [sp.Eq(uhat[r], kept_functions[r]) for r in range(input_rank)]
    equations += [sp.Eq(utilde[t], removed[t]) for t in range(len(removed))]
    solutions = symbolic.solve_algebraic(equations, list(system.inputs))
    if not solutions:
        raise ValidationError(
            "system %r: cannot invert the effective-input change" % system.name
        )
    inverse = solutions[0]

    new_update = []
    for fi in system.update:
        gi = symbolic.canonicalize(fi.subs(inverse, simultaneous=True))
        extra = set(gi.free_symbols) & set(utilde)
        if extra:
            raise ValidationError(
                "system %r: update still depends on removed inputs %s"
                % (system.name, sorted(extra, key=str))
            )
        new_update.append(gi)

    point = system.equilibrium_point()
    new_equilibrium = {s: point[s] for s in system.states}
    for r in range(input_rank):
        new_equilibrium[uhat[r]] = symbolic.evaluate_exact(kept_functions[r], point)

    reduced = DiscreteTimeSystem(
        name=system.name + "Reduced",
        states=system.states,
        inputs=uhat,
        update=tuple(new_update),
        equilibrium=new_equilibrium,
        source_digest=system.source_digest,
    )
    inverse_full = {u: symbolic.canonicalize(e) for u, e in inverse.items()}
    return InputReduction(
        reduced=reduced,
        kept_functions=kept_functions,
        removed_coordinates=removed,
        removed_symbols=utilde,
        inverse=inverse_full,
        extension=tuple(removed),
    )
