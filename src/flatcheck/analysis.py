"""Flatness analysis of discrete-time systems.

Runs the distribution sequence test: starting from the zero
distribution on the image space, each step lifts the current
distribution to the state-input space, takes the largest projectable
subdistribution, and pushes it forward through the update map.  The
sequence of dimensions stagnates within n steps; the system is flat
around the equilibrium exactly when the final dimension is n, and
static feedback linearizable exactly when additionally no step loses
directions to the projectability restriction.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import geometry
from .errors import FlatcheckError, RedundantInputsError
from .model import DiscreteTimeSystem, validate_system


@dataclass(frozen=True)
class SequenceStep:
    """One step of the sequence: the three distributions and their sizes.

    rho is the dimension gained by Delta at this step over the previous
    one; mu counts the kernel directions of the pushforward that are new
    at this step.  Both are zero at step 0 for a system with
    rank df/du = m.
    """

    k: int
    delta: geometry.Distribution
    E: geometry.Distribution
    D: geometry.Distribution
    dim_delta: int
    dim_E: int
    dim_D: int
    rho: int
    mu: int


@dataclass(frozen=True)
class FlatnessReport:
    """Full record of an analysis run.

    steps holds every computed step including the stagnation step kbar.
    verdict is "FLAT" iff dim Delta_kbar = n; sfl marks static feedback
    linearizability (D_k = E_k at every step and verdict FLAT).
    """

    system: DiscreteTimeSystem
    chart: geometry.Chart
    steps: tuple
    kbar: int
    verdict: str
    sfl: bool
    diagnostics: tuple

    @property
    def flat(self) -> bool:
        return self.verdict == "FLAT"

    def delta_chain(self) -> tuple:
        """The distributions Delta_1 ... Delta_kbar on the image space."""
        return tuple(step.delta for step in self.steps[1:])


def run_algorithm1(system: DiscreteTimeSystem) -> FlatnessReport:
    """Decide difference flatness around the declared equilibrium.

    The system must be submersive with rank df/du = m; redundant inputs
    have to be eliminated beforehand (see
    model.eliminate_redundant_inputs); RedundantInputsError is raised
    otherwise.  The sequence provably stagnates within n steps; running
    past n + 1 steps raises an internal error instead of looping.
    """
    validation = validate_system(system)
    if validation.redundant_inputs:
        raise RedundantInputsError(
            "rank df/du = %d < m = %d; eliminate redundant inputs before "
            "the flatness analysis" % (validation.input_rank_generic, system.m)
        )
    n = system.n
    max_steps = n + 1

    chart = geometry.build_adapted_chart(system)
    xplus = geometry.shifted_state_symbols(system)
    delta = geometry.Distribution(coords=xplus, fields=())

    steps = []
    prev_defect = None
    prev_dim = None
    kbar = None
    for k in range(max_steps + 1):
        E = geometry.lift_distribution(delta, system)
        D = geometry.largest_projectable_subdistribution(E, system, chart)
        nxt = geometry.pushforward_distribution(D, system, chart)
        defect = D.dim - nxt.dim
        mu = defect if prev_defect is None else defect - prev_defect
        rho = 0 if prev_dim is None else delta.dim - prev_dim
        steps.append(
            SequenceStep(
                k=k,
                delta=delta,
                E=E,
                D=D,
                dim_delta=delta.dim,
                dim_E=E.dim,
                dim_D=D.dim,
                rho=rho,
                mu=mu,
            )
        )
        if nxt.dim == delta.dim:
            kbar = k
            break
        prev_defect = defect
        prev_dim = delta.dim
        delta = nxt
    if kbar is None:
        raise FlatcheckError(
            "distribution sequence did not stagnate within %d steps; "
            "this indicates an internal rank bug" % max_steps
        )

    verdict = "FLAT" if delta.dim == n else "NOT_FLAT"
    sfl = verdict == "FLAT" and all(s.dim_D == s.dim_E for s in steps)
    diagnostics = ["stagnation at k=%d with dim %d of n=%d"
                   % (kbar, delta.dim, n)]
    if verdict == "FLAT" and not sfl:
        first = next(s.k for s in steps if s.dim_D != s.dim_E)
        diagnostics.append(
            "not static feedback linearizable: dim D_%d=%d < dim E_%d=%d"
            % (first, steps[first].dim_D, first, steps[first].dim_E)
        )
    return FlatnessReport(
        system=system,
        chart=chart,
        steps=tuple(steps),
        kbar=kbar,
        verdict=verdict,
        sfl=sfl,
        diagnostics=tuple(diagnostics),
    )


def classify(report: FlatnessReport) -> str:
    """Human-readable verdict with the per-step dimension table.

    The last column is the input rank m minus the accumulated mu
    values, the number of inputs still influencing the remaining
    subsystem at each step.
    """
    system = report.system
    lines = []
    lines.append("system %s: %s (kbar = %d)" % (system.name, report.verdict,
                                                report.kbar))
    lines.append("static feedback linearizable: %s"
                 % ("yes" if report.sfl else "no"))
    header = ("  k | dim Delta_k | dim E_k | dim D_k | rho_k | mu_k | "
              "m - sum(mu)")
    lines.append(header)
    mu_sum = 0
    for step in report.steps:
        mu_sum += step.mu
        lines.append(
            "%3d | %11d | %7d | %7d | %5d | %4d | %11d"
            % (step.k, step.dim_delta, step.dim_E, step.dim_D, step.rho,
               step.mu, system.m - mu_sum)
        )
    for note in report.diagnostics:
        lines.append(note)
    return "\n".join(lines)
