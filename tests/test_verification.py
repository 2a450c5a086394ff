"""Symbolic and numeric verification of flat outputs, and simulation."""

import pytest
import sympy as sp

from flatcheck import symbolic, verification
from flatcheck.errors import FlatcheckError, SimulationError

x1, x2, x3, x4 = sp.symbols("x1 x2 x3 x4")
u1, u2 = sp.symbols("u1 u2")


class TestJetSymbols:
    def test_roundtrip(self):
        sym = verification.jet_symbol(2, 3)
        assert str(sym) == "y2_p3"
        assert verification.parse_jet_symbol(sym) == (2, 3)

    def test_zero_shift_has_no_suffix(self):
        sym = verification.jet_symbol(1, 0)
        assert str(sym) == "y1"
        assert verification.parse_jet_symbol(sym) == (1, 0)

    def test_non_jet_symbol(self):
        assert verification.parse_jet_symbol(x1) == (None, None)


def _system_element(system, e, shifts=2):
    """e as an element of QQ(states, input shifts up to shifts)."""
    gens = list(system.states) + [verification.input_shift_symbol(u, s)
                                  for u in system.inputs for s in range(shifts + 1)]
    return symbolic.to_elements([e], gens)[1][0]


class TestShiftFunction:
    def test_jet_mode_bumps_shifts(self):
        y1 = verification.jet_symbol(1, 0)
        y1_p1 = verification.jet_symbol(1, 1)
        y1_p2 = verification.jet_symbol(1, 2)
        _, (a,) = symbolic.to_elements([y1**2 + y1_p1])
        shifted = verification.shift_function(a)
        assert shifted.as_expr() == y1_p1**2 + y1_p2
        assert set(shifted.field.symbols) == {y1_p1, y1_p2}

    def test_jet_mode_rejects_foreign_symbols(self):
        _, (a,) = symbolic.to_elements([x1 + 1])
        with pytest.raises(FlatcheckError):
            verification.shift_function(a)

    def test_system_mode_substitutes_dynamics(self, chain2):
        xa, xb = chain2.states
        u = chain2.inputs[0]
        a = _system_element(chain2, xa + xb)
        shifted = verification.shift_function(a, chain2)
        assert shifted.field == a.field
        assert shifted.as_expr() == xb + u

    def test_system_mode_bumps_input_shifts(self, chain2):
        u = chain2.inputs[0]
        u_p1 = verification.input_shift_symbol(u, 1)
        u_p2 = verification.input_shift_symbol(u, 2)
        shifted = verification.shift_function(_system_element(chain2, u_p1), chain2)
        assert shifted.as_expr() == u_p2
        # the top shift has no successor in the field
        with pytest.raises(FlatcheckError):
            verification.shift_function(_system_element(chain2, u_p2), chain2)

    def test_iterated_shift(self, chain2):
        xa = chain2.states[0]
        u = chain2.inputs[0]
        once = verification.shift_function(_system_element(chain2, xa), chain2)
        twice = verification.shift_function(once, chain2)
        assert twice.as_expr() == u


def _candidate(system, exprs):
    """Candidate components as elements of QQ(the system's variables)."""
    return symbolic.to_elements(exprs, system.variables)[1]


def _perturbed(p):
    """p with y1 added to the first input's parametrization."""
    y1 = p.F_u[0].field.from_expr(verification.jet_symbol(1, 0))
    return verification.FlatParametrization(
        F_x=p.F_x, F_u=(p.F_u[0] + y1, p.F_u[1]), R=p.R
    )


class TestCheckParametrization:
    def test_constructed_parametrization_passes(self, flat4, flat4_artifacts):
        ok, detail = verification.check_parametrization(flat4, flat4_artifacts[3])
        assert ok, detail

    def test_perturbed_parametrization_fails(self, flat4, flat4_artifacts):
        broken = _perturbed(flat4_artifacts[3])
        ok, detail = verification.check_parametrization(flat4, broken)
        assert not ok


class TestSymbolicVerification:
    def test_flagship_candidate_passes(self, flat4):
        candidate = _candidate(flat4, (x1 * (x3 + 1), x2 + 3 * x4))
        p, report = verification.verify_flat_output_symbolic(flat4, candidate)
        assert report.status == "PASS"
        assert report.bound == 3
        assert p is not None
        assert p.R == (3, 2)

    def test_dependent_components_fail_fast(self, flat4):
        candidate = _candidate(flat4, (x1, 2 * x1))
        p, report = verification.verify_flat_output_symbolic(flat4, candidate)
        assert p is None
        assert report.status == "FAIL"
        assert report.bound == 0

    def test_chain_candidate(self, chain2):
        p, report = verification.verify_flat_output_symbolic(
            chain2, _candidate(chain2, (chain2.states[0],))
        )
        assert report.status == "PASS"
        assert p.R == (2,)

    def test_component_count_is_checked(self, flat4):
        with pytest.raises(FlatcheckError):
            verification.verify_flat_output_symbolic(flat4, _candidate(flat4, (x1,)))

    def test_wrong_chain_output_is_refuted(self, chain2):
        """The input itself satisfies no difference relation with one
        component, but its parametrization attempt cannot close, so the
        verdict must not be PASS."""
        u = chain2.inputs[0]
        p, report = verification.verify_flat_output_symbolic(chain2, _candidate(chain2, (u,)))
        assert report.status in ("FAIL", "INCONCLUSIVE")
        assert p is None


class TestNumericVerification:
    def test_flagship_replay(self, flat4, flat4_artifacts):
        flat_output = flat4_artifacts[0]
        p = flat4_artifacts[3]
        result = verification.verify_flat_output_numeric(
            flat4, p, trials=20, horizon=20, seed=0, candidate=flat_output.components
        )
        assert result.status == "PASS"
        assert result.max_residual < 1e-9
        assert len(result.trial_records) == 20

    def test_deterministic_across_runs(self, flat4, flat4_artifacts):
        p = flat4_artifacts[3]
        a = verification.verify_flat_output_numeric(flat4, p, trials=5, seed=3)
        b = verification.verify_flat_output_numeric(flat4, p, trials=5, seed=3)
        assert a.max_residual == b.max_residual
        assert [t.residual for t in a.trial_records] == [
            t.residual for t in b.trial_records
        ]

    def test_seed_changes_samples(self, flat4, flat4_artifacts):
        p = flat4_artifacts[3]
        a = verification.verify_flat_output_numeric(flat4, p, trials=5, seed=0)
        b = verification.verify_flat_output_numeric(flat4, p, trials=5, seed=1)
        assert [t.residual for t in a.trial_records] != [
            t.residual for t in b.trial_records
        ]

    def test_mutated_parametrization_fails_every_trial(self, flat4, flat4_artifacts):
        broken = _perturbed(flat4_artifacts[3])
        result = verification.verify_flat_output_numeric(
            flat4, broken, trials=20, horizon=20, seed=0
        )
        assert result.status == "FAIL"
        for trial in result.trial_records:
            assert trial.residual > 1e-3

    def test_plain_candidate_sequence_accepted(self, flat4, flat4_artifacts):
        p = flat4_artifacts[3]
        result = verification.verify_flat_output_numeric(
            flat4,
            p,
            trials=3,
            seed=0,
            candidate=_candidate(flat4, (x1 * (x3 + 1), x2 + 3 * x4)),
        )
        assert result.status == "PASS"


class TestSimulate:
    def test_exact_step(self, flat4):
        trajectory = verification.simulate(flat4, [0, 0, 0, 0], [[1, 0]])
        assert trajectory.horizon == 1
        assert trajectory.states[1] == (0, 0, 1, 0)

    def test_float_mode(self, chain2):
        trajectory = verification.simulate(chain2, [0.5, 0.0], [[1.0], [2.0]])
        assert trajectory.states[1] == (0.0, 1.0)
        assert trajectory.states[2] == (1.0, 2.0)

    def test_rational_exactness(self, flat4):
        trajectory = verification.simulate(
            flat4, [sp.Rational(1, 3), 0, 0, 0], [[0, 0]]
        )
        x_next = trajectory.states[1]
        assert x_next == (0, -1, 0, sp.Rational(1, 3))
        assert all(v.is_Rational for v in x_next)

    def test_dimension_mismatches(self, flat4):
        with pytest.raises(SimulationError):
            verification.simulate(flat4, [0, 0], [[1, 0]])
        with pytest.raises(SimulationError):
            verification.simulate(flat4, [0, 0, 0, 0], [[1]])

    def test_pole_reports_step(self, flat4):
        with pytest.raises(SimulationError) as info:
            verification.simulate(flat4, [0, 0, 0, 0], [[-1, 0]])
        assert info.value.step == 0
