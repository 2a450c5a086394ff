"""Model file parsing, validation, and redundant-input elimination."""

import pytest
import sympy as sp

from flatcheck import model, modelfile, symbolic
from flatcheck.errors import (
    ModelSemanticsError,
    ModelSyntaxError,
    ValidationError,
)

CHAIN = """
system chain
states: x1, x2
inputs: u
equilibrium: all zero
next x1 = x2
next x2 = u
"""


class TestParseModel:
    def test_chain_roundtrip(self):
        system = modelfile.parse_model(CHAIN)
        assert system.name == "chain"
        assert [str(s) for s in system.states] == ["x1", "x2"]
        assert [str(u) for u in system.inputs] == ["u"]
        assert system.update[0] == system.states[1]
        assert system.equilibrium_point() == {v: 0 for v in system.variables}

    def test_digest_depends_on_text(self):
        a = modelfile.parse_model(CHAIN)
        b = modelfile.parse_model(CHAIN.replace("next x2 = u", "next x2 = 2*u"))
        assert a.source_digest != b.source_digest

    def test_comments_and_blank_lines(self):
        text = "# heading\n\n" + CHAIN + "\n# trailing\n"
        system = modelfile.parse_model(text)
        assert system.n == 2

    def test_rational_arithmetic(self):
        text = CHAIN.replace("next x2 = u", "next x2 = u/2 + x1^2 - 0.5")
        system = modelfile.parse_model(
            text.replace("equilibrium: all zero", "equilibrium: x1=1, x2=1, u=1")
        )
        u = system.inputs[0]
        x1 = system.states[0]
        assert sp.simplify(system.update[1] - (u / 2 + x1**2 - sp.Rational(1, 2))) == 0

    @pytest.mark.parametrize(
        "mutation",
        [
            ("states: x1, x2", "states: x1, x_2"),
            ("inputs: u", "inputs: y1"),
            ("next x2 = u", "next x2 = u +"),
            ("next x2 = u", "next x2 = v"),
            ("next x2 = u", "next x2 = u ** 2"),
        ],
    )
    def test_syntax_errors(self, mutation):
        old, new = mutation
        with pytest.raises(ModelSyntaxError):
            modelfile.parse_model(CHAIN.replace(old, new))

    def test_syntax_error_carries_position(self):
        try:
            modelfile.parse_model(CHAIN.replace("next x2 = u", "next x2 = v"))
        except ModelSyntaxError as exc:
            assert exc.line is not None
            assert exc.column is not None
        else:
            pytest.fail("expected a syntax error")

    @pytest.mark.parametrize(
        "mutation",
        [
            ("next x1 = x2\n", ""),
            ("next x1 = x2", "next x1 = x2\nnext x1 = u"),
        ],
    )
    def test_semantic_errors(self, mutation):
        old, new = mutation
        with pytest.raises(ModelSemanticsError):
            modelfile.parse_model(CHAIN.replace(old, new, 1))

    def test_integer_exponents_only(self):
        with pytest.raises(ModelSyntaxError):
            modelfile.parse_model(CHAIN.replace("next x2 = u", "next x2 = u^1.5"))


class TestParseExpression:
    def test_resolves_system_symbols(self):
        system = modelfile.parse_model(CHAIN)
        e = modelfile.parse_expression("x1*(x2+1)^2", system)
        x1, x2 = system.states
        assert sp.simplify(e - x1 * (x2 + 1) ** 2) == 0

    def test_unknown_identifier(self):
        system = modelfile.parse_model(CHAIN)
        with pytest.raises(ModelSyntaxError):
            modelfile.parse_expression("x1 + w", system)

    def test_empty_expression(self):
        system = modelfile.parse_model(CHAIN)
        with pytest.raises(ModelSyntaxError):
            modelfile.parse_expression("   ", system)


class TestValidateSystem:
    def test_chain_is_valid(self):
        system = modelfile.parse_model(CHAIN)
        report = model.validate_system(system)
        assert not report.redundant_inputs

    def test_non_fixed_point_rejected(self):
        text = CHAIN.replace("next x1 = x2", "next x1 = x2 + 1")
        system = modelfile.parse_model(text)
        with pytest.raises(ValidationError):
            model.validate_system(system)

    def test_non_submersive_rejected(self):
        text = """
system squash
states: x1, x2
inputs: u
equilibrium: all zero
next x1 = u
next x2 = u
"""
        with pytest.raises(ValidationError):
            model.validate_system(modelfile.parse_model(text))

    def test_non_rational_update_rejected(self):
        system = modelfile.parse_model(CHAIN)
        x1, x2 = system.states
        (u,) = system.inputs
        trig = model.DiscreteTimeSystem(
            name="trig",
            states=system.states,
            inputs=system.inputs,
            update=(x2 + sp.sin(x1), u),
            equilibrium=system.equilibrium,
        )
        with pytest.raises(ValidationError):
            model.validate_system(trig)

    def test_redundant_inputs_flagged_not_fatal(self, redundant_input):
        report = model.validate_system(redundant_input)
        assert report.redundant_inputs
        assert report.input_rank_generic == 1


class TestEliminateRedundantInputs:
    def test_sum_of_inputs(self, redundant_input):
        reduction = model.eliminate_redundant_inputs(redundant_input)
        reduced = reduction.reduced
        assert reduced.m == 1
        u1, u2 = redundant_input.inputs
        uhat = reduced.inputs[0]
        assert sp.simplify(reduction.kept_functions[0].as_expr() - (u1 + u2)) == 0
        assert reduction.removed_coordinates == (u2,)
        assert sp.simplify(reduced.update[1] - uhat) == 0
        report = model.validate_system(reduced)
        assert not report.redundant_inputs

    def test_inverse_recovers_original_inputs(self, redundant_input):
        reduction = model.eliminate_redundant_inputs(redundant_input)
        u1, u2 = redundant_input.inputs
        uhat = reduction.reduced.inputs[0]
        utilde = reduction.removed_symbols[0]
        forward = {uhat: reduction.kept_functions[0].as_expr(), utilde: u2}
        for u in (u1, u2):
            back = reduction.inverse[u].subs(forward, simultaneous=True)
            assert sp.simplify(back - u) == 0

    def test_requires_redundancy(self):
        system = modelfile.parse_model(CHAIN)
        with pytest.raises(ValidationError):
            model.eliminate_redundant_inputs(system)

    def test_rank_zero_rejected(self):
        text = """
system inert
states: x1
inputs: u
equilibrium: all zero
next x1 = x1
"""
        system = modelfile.parse_model(text)
        with pytest.raises(ValidationError):
            model.eliminate_redundant_inputs(system)


class TestDiscreteTimeSystem:
    def test_jacobians(self):
        system = modelfile.parse_model(CHAIN)
        K, update = symbolic.to_elements(system.update, system.variables)
        full = [[f.diff(v) for v in K.field.gens] for f in update]
        assert symbolic.element_rank(K, full, len(system.variables)) == 2
        ijac = [[f.diff(u) for u in K.field.gens[system.n :]] for f in update]
        assert (len(ijac), len(ijac[0])) == (2, 1)
