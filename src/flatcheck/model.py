"""Discrete-time control systems and their well-posedness checks.

A system is x+ = f(x, u) with n states and m inputs, studied near a fixed
point f(x0, u0) = x0.  Everything downstream assumes the update map is a
submersion in (x, u), so validation checks that rank condition both
generically and at the equilibrium, and flags inputs that act redundantly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import UnsupportedEquationError, ValidationError
from . import symbolic


class DiscreteTimeSystem:
    """Immutable description of x+ = f(x, u) with a marked equilibrium.

    A system enters the library as model text (``modelfile.parse_model``)
    or as the result of an input reduction; both have built its update map
    as elements.  ``update_elements`` is that map, a pair (K, tuple of
    elements) with K = QQ(states, inputs) in that order; a stage that
    needs it in another field renames these elements.  update is a
    function of no arguments that builds the map's expressions, called on
    the first read of ``update``, so a system that is only analyzed builds
    no expression.
    """

    def __init__(self, name, states, inputs, update, equilibrium, elements,
                 source_digest=None):
        vars(self).update(name=name, states=tuple(states), inputs=tuple(inputs),
                          equilibrium=dict(equilibrium), source_digest=source_digest,
                          _update=update, update_elements=elements)
        if len(elements[1]) != len(self.states):
            raise ValidationError(
                "system %r: %d states but %d update equations"
                % (self.name, len(self.states), len(elements[1]))
            )
        for v in self.variables:
            if v not in self.equilibrium:
                raise ValidationError(
                    "system %r: equilibrium missing a value for %s" % (self.name, v)
                )

    def __setattr__(self, name, value):
        raise AttributeError("a DiscreteTimeSystem is immutable")

    @functools.cached_property
    def update(self) -> tuple:
        """The update map as expressions, one per state."""
        return tuple(self._update())

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def m(self) -> int:
        return len(self.inputs)

    @property
    def variables(self) -> tuple:
        """All coordinates of the extended space, states first."""
        return self.states + self.inputs

    def equilibrium_point(self) -> dict:
        return dict(self.equilibrium)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the structural checks on a system that passes them."""

    input_rank_generic: int
    redundant_inputs: bool


def validate_system(system: DiscreteTimeSystem) -> ValidationReport:
    """Check submersivity, the fixed point, and input rank.

    Raises ValidationError when the update map is not a submersion
    (generically or at the equilibrium), when the marked point is a pole
    of it or not a fixed point, or when the input rank drops at the
    equilibrium.  A generic input-rank deficit is not an error; it is
    reported through the redundant_inputs flag so the caller can
    eliminate the redundancy.
    """
    n, m = system.n, system.m
    K, update = system.update_elements
    point = system.equilibrium_point()
    states = symbolic.generators(K, system.states)
    for xi, a, x in zip(system.states, update, states):
        try:
            value, target = symbolic.element_values(K, [[a, x]], point)[0]
        except ZeroDivisionError:
            raise ValidationError(
                "system %r: the update of %s, %s, has a pole at the marked point"
                % (system.name, xi, symbolic.to_infix(a))
            ) from None
        if value != target:
            raise ValidationError(
                "system %r: f(%s) - %s = %s at the marked point, not a fixed point"
                % (system.name, xi, xi, value - target)
            )

    rank, rank_eq = symbolic.jacobian_ranks(K, update, system.variables, point)
    if rank < n:
        raise ValidationError(
            "system %r: update map has generic rank %d < n = %d, not submersive"
            % (system.name, rank, n)
        )
    if rank_eq < n:
        raise ValidationError(
            "system %r: rank drop at equilibrium (rank %d < n = %d)"
            % (system.name, rank_eq, n)
        )
    input_rank, input_rank_eq = symbolic.jacobian_ranks(K, update, system.inputs, point)
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
    kept_functions gives each uhat_r as the update element it stands for,
    in QQ(x, u) of update_elements; removed_coordinates are the original
    input symbols that survive as free directions, and extend any flat
    output of the reduced system to one of the original system.  inverse
    expresses every original input as an element of QQ(x, u, uhat,
    utilde), generators sorted by name, in terms of (x, uhat, utilde),
    with the removed coordinates renamed utilde_1..utilde_k.
    """

    reduced: DiscreteTimeSystem
    kept_functions: tuple
    removed_coordinates: tuple
    removed_symbols: tuple
    inverse: dict


def eliminate_redundant_inputs(system: DiscreteTimeSystem) -> InputReduction:
    """Rewrite the dynamics over an effective input set of full rank.

    The rows of the transposed input Jacobian are reduced; pivot rows
    select update components f^{i_r} whose values serve as new inputs
    uhat_r, and non-pivot input coordinates are carried along unchanged
    as utilde.  Requires the system to actually be input-redundant and
    to retain at least one effective input.
    """
    n, m = system.n, system.m
    K, update = system.update_elements
    ijac = [[symbolic.derivative(f, u) for u in system.inputs] for f in update]
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

    kept_functions = tuple(update[i] for i in comp_used)
    uhat = tuple(symbolic.symbol("uhat_%d" % (r + 1)) for r in range(input_rank))

    # Non-pivot original inputs come along unchanged as utilde coordinates.
    _, pivot_cols = symbolic.element_rref(K, [ijac[i] for i in comp_used], m)
    free_cols = [j for j in range(m) if j not in pivot_cols]
    removed = tuple(system.inputs[j] for j in free_cols)
    utilde = tuple(symbolic.symbol("utilde_%d" % (t + 1)) for t in range(len(free_cols)))

    # solve for the inputs in QQ(x, u, uhat, utilde), generators sorted by name
    H = symbolic.field(system.variables + uhat + utilde)
    definitions = {**dict(zip(uhat, kept_functions)),
                   **dict(zip(utilde, symbolic.generators(K, removed)))}
    point = system.equilibrium_point()
    try:
        inverse, values = symbolic.invert(H, definitions, system.inputs, point)
    except UnsupportedEquationError as exc:
        raise ValidationError(
            "system %r: cannot invert the effective-input change through the "
            "equilibrium: %s" % (system.name, exc)
        ) from None
    new_equilibrium = {s: point[s] for s in system.states}
    new_equilibrium.update((s, values[s]) for s in uhat)

    # the reduced update map in QQ(x, uhat), the field of its variables
    R = symbolic.function_field(system.states + uhat)
    new_update = []
    for fi in update:
        gi = symbolic.compose(symbolic.rename(fi, H, {}), inverse, H)
        extra = symbolic.used_symbols(gi) & set(utilde)
        if extra:
            raise ValidationError(
                "system %r: update still depends on removed inputs %s"
                % (system.name, sorted(extra, key=str))
            )
        new_update.append(symbolic.rename(gi, R, {}))

    reduced = DiscreteTimeSystem(
        name=system.name + "Reduced",
        states=system.states,
        inputs=uhat,
        update=lambda: tuple(map(symbolic.canonicalize_element, new_update)),
        equilibrium=new_equilibrium,
        elements=(R, tuple(new_update)),
        source_digest=system.source_digest,
    )
    return InputReduction(
        reduced=reduced,
        kept_functions=kept_functions,
        removed_coordinates=removed,
        removed_symbols=utilde,
        inverse=inverse,
    )
