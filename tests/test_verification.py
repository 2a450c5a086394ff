"""Symbolic and numeric verification of flat outputs, and simulation."""

import pathlib

import pytest
import sympy as sp

from flatcheck import cli, modelfile, symbolic, verification
from flatcheck.errors import FlatcheckError, SimulationError

import kernel_oracle

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
    return kernel_oracle.elements([e], gens)[1][0]


class TestShiftFunction:
    def test_jet_mode_bumps_shifts(self):
        y1, y1_p1, y1_p2 = (verification.jet_symbol(1, k) for k in range(3))
        Y1, Y1_p1, Y1_p2 = map(kernel_oracle.sympy_symbol, (y1, y1_p1, y1_p2))
        _, (a,) = kernel_oracle.elements([Y1**2 + Y1_p1])
        shifted = verification.shift_function(a)
        assert kernel_oracle.as_expr(shifted) == Y1_p1**2 + Y1_p2
        assert set(shifted.field.symbols) == {y1_p1, y1_p2}

    def test_jet_mode_rejects_foreign_symbols(self):
        _, (a,) = kernel_oracle.elements([x1 + 1])
        with pytest.raises(FlatcheckError):
            verification.shift_function(a)

    def test_system_mode_substitutes_dynamics(self, chain2):
        xa, xb, u = map(kernel_oracle.sympy_symbol, chain2.variables)
        a = _system_element(chain2, xa + xb)
        shifted = verification.shift_function(a, chain2)
        assert shifted.field == a.field
        assert kernel_oracle.as_expr(shifted) == xb + u

    def test_system_mode_bumps_input_shifts(self, chain2):
        u = chain2.inputs[0]
        u_p1 = verification.input_shift_symbol(u, 1)
        u_p2 = verification.input_shift_symbol(u, 2)
        shifted = verification.shift_function(_system_element(chain2, u_p1), chain2)
        assert symbolic.expression(shifted) == u_p2
        # the top shift has no successor in the field
        with pytest.raises(FlatcheckError):
            verification.shift_function(_system_element(chain2, u_p2), chain2)

    def test_iterated_shift(self, chain2):
        xa = chain2.states[0]
        u = chain2.inputs[0]
        once = verification.shift_function(_system_element(chain2, xa), chain2)
        twice = verification.shift_function(once, chain2)
        assert symbolic.expression(twice) == u


def _candidate(system, exprs):
    """Candidate components as elements of QQ(the system's variables)."""
    return kernel_oracle.elements(exprs, system.variables)[1]


def _perturbed(p):
    """p with y1 added to the first input's parametrization."""
    y1 = verification.jet_symbol(1, 0)
    perturbed = kernel_oracle.from_sympy(
        p.F_u[0].field, kernel_oracle.as_expr(p.F_u[0]) + kernel_oracle.sympy_symbol(y1))
    return verification.FlatParametrization(
        F_x=p.F_x, F_u=(perturbed, p.F_u[1])
    )


class TestCheckParametrization:
    def test_constructed_parametrization_passes(self, flat4, flat4_artifacts):
        ok, detail = verification.check_parametrization(flat4, flat4_artifacts[3])
        assert ok, detail

    def test_perturbed_parametrization_fails(self, flat4, flat4_artifacts):
        broken = _perturbed(flat4_artifacts[3])
        ok, detail = verification.check_parametrization(flat4, broken)
        assert not ok

    @pytest.mark.parametrize(
        "exprs, symbols, detail",
        [
            (("x1", "y1_p1", "y1_p2"), ("x1", "y1", "y1_p1", "y1_p2"),
             "parametrization contains non-jet symbol x1"),
            ((0, 0, 0), ("y1",), "parametrization is not a generic submersion"),
        ],
        ids=["non-jet", "constant"],
    )
    def test_refusals(self, chain2, exprs, symbols, detail):
        _, (a, b, c) = kernel_oracle.elements(sp.sympify(exprs), sp.symbols(symbols))
        p = verification.FlatParametrization(F_x=(a, b), F_u=(c,))
        assert verification.check_parametrization(chain2, p) == (False, detail)


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

    def test_candidate_with_an_input_shift(self, chain2):
        """A candidate built in code may use input shifts such as u_p1,
        which the model grammar reserves; it is stacked with q = 1 and
        its value at the equilibrium read with the shifts at u's value."""
        (u,) = chain2.inputs
        u_p1 = verification.input_shift_symbol(u, 1)
        x1, u_p1_ = map(kernel_oracle.sympy_symbol, (chain2.states[0], u_p1))
        _, candidate = kernel_oracle.elements([x1 + u_p1_], list(chain2.variables) + [u_p1])
        p, report = verification.verify_flat_output_symbolic(chain2, candidate)
        assert p is None
        assert (report.status, report.bound, report.detail) == (
            "INCONCLUSIVE", 4, "stacked system unsolved at shift bound 4")

    def test_candidate_with_an_unknown_symbol_is_refused(self, chain2):
        x1, w = sp.symbols("x1 w")
        _, candidate = kernel_oracle.elements([x1 + w], list(chain2.variables) + [w])
        with pytest.raises(FlatcheckError) as info:
            verification.verify_flat_output_symbolic(chain2, candidate)
        assert str(info.value) == "candidate output uses unknown symbol w"


def _gated_bounds(monkeypatch, system, candidate):
    """Report of verify with the rank gate held open, and per bound that
    reaches the gate: the bound, the gate's verdict, and whether its one
    jet solve found a branch, as a list that stays empty when no solve
    runs."""
    gate, solve = verification._solve_is_hopeless, verification._attempt_jet_solve
    bounds = []

    def open_gate(system, variables, at_point, nstacked):
        bounds.append((nstacked // system.m - 1,
                       gate(system, variables, at_point, nstacked), []))
        return False

    def recorded_solve(*args):
        result = solve(*args)
        bounds[-1][2].append(result is not None)
        return result

    with monkeypatch.context() as patch:
        patch.setattr(verification, "_solve_is_hopeless", open_gate)
        patch.setattr(verification, "_attempt_jet_solve", recorded_solve)
        _, report = verification.verify_flat_output_symbolic(system, candidate)
    return report, bounds


class TestRankGate:
    """The gate skips a shift bound only where the bound's jet solve, for
    the states and every input shift present, finds no branch."""

    # the candidates of the verify goldens that end in bounded time, with
    # the bounds the gate skips
    CASES = [
        ("flat4", "x1*x3 + x1; x2 + 3*x4", {2}),
        ("flat4", "x1; x3", {2}),
        ("flat4", "x1*x3 + x1; x4", {2, 3, 4, 5}),
        ("chain2", "x1", set()),
        ("chain2", "x2", {2, 3}),
        ("sfl_quadratic", "x2 - x1^2", set()),
        ("sfl_quadratic", "x1", {2, 3}),
    ]

    @pytest.mark.parametrize("name, output, skipped", CASES)
    def test_skipped_bounds_have_no_solution(self, monkeypatch, load_system,
                                             name, output, skipped):
        system = load_system(name)
        candidate = modelfile.parse_elements(output.split("; "), system)
        report, bounds = _gated_bounds(monkeypatch, system, candidate)
        assert {alpha for alpha, hopeless, _ in bounds if hopeless} == skipped
        for alpha, hopeless, solved in bounds:
            if hopeless:
                # the bound's one solve ran and found no branch
                assert solved == [False], alpha
        # the gate changes no verdict, and never skips a passing bound
        _, gated = verification.verify_flat_output_symbolic(system, candidate)
        assert gated == report
        if report.status == "PASS":
            assert not dict((a, h) for a, h, _ in bounds)[report.bound]

    def test_extracted_output_bound_is_not_skipped(self, monkeypatch, flat4,
                                                   flat4_artifacts):
        flat_output = flat4_artifacts[0]
        report, bounds = _gated_bounds(monkeypatch, flat4, flat_output)
        assert report.status == "PASS"
        assert not dict((a, h) for a, h, _ in bounds)[report.bound]

    def test_pole_at_the_point_skips_nothing(self, chain2):
        """A pole at the certificate point gives no rows, and no rows are
        no proof: the gate stays open."""
        (value,) = symbolic._certificate_point(1)
        K, (pole,) = kernel_oracle.elements([1 / (x1 - value)], [x1])
        assert symbolic.certificate_jacobian(K, [pole], [x1]) is None
        variables = list(chain2.states) + [
            verification.input_shift_symbol(chain2.inputs[0], s) for s in range(3)]
        assert not verification._solve_is_hopeless(chain2, variables, None, 3)

    def test_pole_reaches_every_solve(self, monkeypatch, chain2):
        """With every certificate point a pole, each bound is solved, and
        the verdicts stay those of the gated runs."""
        monkeypatch.setattr(symbolic, "certificate_jacobian", lambda *args: None)
        for output, status in (("x2", "INCONCLUSIVE"), ("x1", "PASS")):
            candidate = modelfile.parse_elements([output], chain2)
            report, bounds = _gated_bounds(monkeypatch, chain2, candidate)
            assert report.status == status
            assert bounds and not any(hopeless for _, hopeless, _ in bounds)


class TestNumericVerification:
    def test_flagship_replay(self, flat4, flat4_artifacts):
        flat_output = flat4_artifacts[0]
        p = flat4_artifacts[3]
        result = verification.verify_flat_output_numeric(
            flat4, p, trials=20, horizon=20, seed=0, candidate=flat_output
        )
        assert result.status == "PASS"
        assert result.max_residual < 1e-9
        assert len(result.trial_records) == 20

    def test_deterministic_across_runs(self, flat4, flat4_artifacts):
        flat_output, p = flat4_artifacts[0], flat4_artifacts[3]
        a = verification.verify_flat_output_numeric(flat4, p, flat_output, trials=5, seed=3)
        b = verification.verify_flat_output_numeric(flat4, p, flat_output, trials=5, seed=3)
        assert a.max_residual == b.max_residual
        assert [t.residual for t in a.trial_records] == [
            t.residual for t in b.trial_records
        ]

    def test_seed_changes_samples(self, flat4, flat4_artifacts):
        flat_output, p = flat4_artifacts[0], flat4_artifacts[3]
        a = verification.verify_flat_output_numeric(flat4, p, flat_output, trials=5, seed=0)
        b = verification.verify_flat_output_numeric(flat4, p, flat_output, trials=5, seed=1)
        assert [t.residual for t in a.trial_records] != [
            t.residual for t in b.trial_records
        ]

    def test_mutated_parametrization_fails_every_trial(self, flat4, flat4_artifacts):
        broken = _perturbed(flat4_artifacts[3])
        result = verification.verify_flat_output_numeric(
            flat4, broken, flat4_artifacts[0], trials=20, horizon=20, seed=0
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

    def test_poles_in_every_resample_are_an_error(self, chain2):
        """y1^-400 overflows at every sample near the equilibrium, so the
        first trial gives up after its resamples."""
        _, (a, b, c) = kernel_oracle.elements(sp.sympify(("y1^-400", "y1_p1", "y1_p2")),
                                              sp.symbols("y1 y1_p1 y1_p2"))
        p = verification.FlatParametrization(F_x=(a, b), F_u=(c,))
        with pytest.raises(FlatcheckError) as info:
            verification.verify_flat_output_numeric(chain2, p,
                                                    modelfile.parse_elements(["x1"], chain2))
        assert str(info.value) == "numeric verification hit poles repeatedly in trial 0"

    def test_candidate_is_required(self, flat4, flat4_artifacts):
        with pytest.raises(TypeError, match="candidate"):
            verification.verify_flat_output_numeric(flat4, flat4_artifacts[3])

    @pytest.mark.parametrize("output", ["1/(x1 + 1)", "2/(x1 - 1)", "-1/(x1 + 3)"])
    def test_samples_are_centred_at_the_candidates_equilibrium_value(self, chain2, output):
        """For y = c/(x1 - a), x1 = a + c/y has its pole at y = 0, while the
        equilibrium x1 = 0 gives y = -c/a.  With a box of size 0 every
        sample is the centre, so the replay passes exactly only when the
        centre is the candidate's value at the equilibrium."""
        candidate = modelfile.parse_elements([output], chain2)
        p, symbolic_report = verification.verify_flat_output_symbolic(chain2, candidate)
        assert symbolic_report.status == "PASS"
        result = verification.verify_flat_output_numeric(chain2, p, candidate,
                                                         trials=2, box=0.0)
        assert (result.status, result.max_residual) == ("PASS", 0.0)


class TestReplayIsPinned:
    """Every trial of three numeric replays reproduces, bit for bit, the
    residual and replay error recorded when each component of each map was
    compiled on its own (golden/numeric-replay.txt: run, trial index and
    the two values as float.hex)."""

    RUNS = {
        "extract-flat4": ["extract", "flat4"],
        "verify-flat4": ["verify", "flat4", "--output", "x1*x3 + x1; x2 + 3*x4"],
        "verify-sfl_quadratic": ["verify", "sfl_quadratic", "--output", "x2 - x1^2"],
    }

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_trial_records(self, run, monkeypatch, capsys, models_dir):
        golden = pathlib.Path(__file__).resolve().parent / "golden" / "numeric-replay.txt"
        expected = [line.split()[1:] for line in golden.read_text().splitlines()
                    if line.split()[0] == run]
        replay, reports = verification.verify_flat_output_numeric, []

        def recorded(*args, **kwargs):
            reports.append(replay(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(verification, "verify_flat_output_numeric", recorded)
        command, name, *options = self.RUNS[run]
        assert cli.main([command, str(models_dir / ("%s.sys" % name)), *options]) == 0
        capsys.readouterr()
        (report,) = reports
        assert [[str(r.index), r.residual.hex(), r.replay_error.hex()]
                for r in report.trial_records] == expected

    def test_compiled_functions_print_no_expression(self, flat4):
        """The replay's float functions carry no docstring, which would
        print the expressions they compute a second time."""
        assert verification._update_function(flat4).__doc__ is None


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
        rational = type(symbolic.rational(0))
        assert {type(v) for state in trajectory.states for v in state} == {rational}
        assert {type(v) for row in trajectory.inputs for v in row} == {rational}

    @pytest.mark.parametrize("x0, u, exact", [
        ([0, 1, 0, 0], [2, 0], True),
        ([sp.Rational(1, 3), sp.Integer(0), 0, 0], [sp.Rational(1, 2), 0], True),
        ([symbolic.rational("1/3"), 0, 0, 0], [symbolic.rational(2), 0], True),
        ([0.5, 0, 0, 0], [1, 0], False),
        ([0, 0, 0, 0], [sp.Float(0.5), 0], False),
        ([0, 0, 0, 0], [sp.sqrt(2), 0], False),
    ])
    def test_exact_only_when_every_value_is_rational(self, flat4, x0, u, exact):
        """ints, sympy's rationals and kernel rationals step exactly; any
        float, sympy's among them, or irrational value steps in floats."""
        trajectory = verification.simulate(flat4, x0, [u, u])
        values = [v for rows in (trajectory.states, trajectory.inputs) for row in rows for v in row]
        kinds = {type(v) for v in values}
        assert kinds == ({type(symbolic.rational(0))} if exact else {float})

    def test_dimension_mismatches(self, flat4):
        with pytest.raises(SimulationError):
            verification.simulate(flat4, [0, 0], [[1, 0]])
        with pytest.raises(SimulationError):
            verification.simulate(flat4, [0, 0, 0, 0], [[1]])

    def test_pole_reports_step(self, flat4):
        """An exact pole, a float division by zero and a float step that
        overflows to inf without raising (x1*(x3 + 1) at x1 = x3 = 1e200)
        all stop at the step."""
        for x0, inputs in [([0, 0, 0, 0], [[-1, 0]]), ([0, 0, 0, 0], [[-1.0, 0.0]]),
                           ([1e200, 0, 1e200, 0], [[0, 0]])]:
            with pytest.raises(SimulationError) as info:
                verification.simulate(flat4, x0, inputs)
            assert (info.value.step, str(info.value)) == (0, "pole encountered at step 0")
