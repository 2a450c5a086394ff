"""Model file parsing, validation, and redundant-input elimination."""

import pathlib
import random
import sys

import pytest
import sympy as sp

from flatcheck import model, modelfile, symbolic
from flatcheck.errors import (
    ModelSemanticsError,
    ModelSyntaxError,
    UnsupportedEquationError,
    ValidationError,
)

import kernel_oracle

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODELS = sorted(path.stem for path in (ROOT / "models").glob("*.sys"))

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
        u, x1 = sp.symbols("u x1")
        assert sp.simplify(kernel_oracle.expression_to_sympy(system.update[1])
                           - (u / 2 + x1**2 - sp.Rational(1, 2))) == 0

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

    @pytest.mark.parametrize(
        "equilibrium, line, column, message",
        [
            ("equilibrium: x1 = 1, x1 = 0", 5, 22, "duplicate equilibrium value for 'x1'"),
            ("equilibrium: x1 = 1, u = 0, x1 = 1", 5, 29, "duplicate equilibrium value"),
            ("equilibrium: x1 = 1\nequilibrium: x2 = 1", 6, 1, "duplicate equilibrium line"),
            ("equilibrium: all zero\nequilibrium: all zero", 6, 1, "duplicate equilibrium line"),
            ("equilibrium: x1 =", 5, 18, "unexpected end of expression"),
            ("equilibrium: x1 = , u = 0", 5, 18, "unexpected end of expression"),
        ],
        ids=["repeated-value", "repeated-later", "second-line", "second-all-zero",
             "missing-value", "missing-value-before-comma"],
    )
    def test_equilibrium_errors_point_at_the_token(self, equilibrium, line, column, message):
        """A variable given two equilibrium values, or a second equilibrium
        line, is refused at the repeated token; a missing value is
        reported just past its '='."""
        with pytest.raises(ModelSyntaxError, match=message) as exc:
            modelfile.parse_model(CHAIN.replace("equilibrium: all zero", equilibrium))
        assert (exc.value.line, exc.value.column) == (line, column)

    def test_equilibrium_values_of_distinct_variables(self):
        system = modelfile.parse_model(
            CHAIN.replace("equilibrium: all zero", "equilibrium: x1 = 1/2, x2 = 1/2, u = 1/2"))
        assert list(system.equilibrium.values()) == [symbolic.rational("1/2")] * 3

    @pytest.mark.parametrize("equilibrium", ["all zero", "x1 = 1/2, x2 = -0.25, u = 3"])
    def test_equilibrium_values_are_kernel_rationals(self, equilibrium):
        system = modelfile.parse_model(CHAIN.replace("all zero", equilibrium))
        assert {type(v) for v in system.equilibrium.values()} == {type(symbolic.rational(0))}

    def test_integer_exponents_only(self):
        with pytest.raises(ModelSyntaxError):
            modelfile.parse_model(CHAIN.replace("next x2 = u", "next x2 = u^1.5"))

    @pytest.mark.parametrize(
        "old, new, error, line, column, message",
        [
            ("next x2 = u", "next x2 = u $", ModelSyntaxError, 7, 13,
             "unexpected character '$'"),
            ("next x2 = u", "next x2 = u u", ModelSyntaxError, 7, 13, "unexpected 'u'"),
            ("next x2 = u", "next x2 = u^-", ModelSyntaxError, 7, 14,
             "unexpected end of expression"),
            ("next x2 = u", "next x2 = (u x1)", ModelSyntaxError, 7, 14, "expected ')'"),
            ("next x2 = u", "next x2 = *u", ModelSyntaxError, 7, 11, "unexpected '*'"),
            ("states: x1, x2", "states: x1, next", ModelSyntaxError, 3, 13,
             "'next' is a keyword"),
            ("next x2 = u", "next x2 = u\n= x1", ModelSyntaxError, 8, 1, "unexpected '='"),
            ("next x2 = u", "next x2 = u\nsystem other", ModelSyntaxError, 8, 1,
             "duplicate system header"),
            ("system chain", "system chain extra", ModelSyntaxError, 2, 1,
             "expected: system <name>"),
            ("states: x1, x2", "states x1, x2", ModelSyntaxError, 3, 1,
             "expected ':' after 'states'"),
            ("states: x1, x2", "states: x1, 1", ModelSyntaxError, 3, 13,
             "expected identifier, got '1'"),
            ("inputs: u", "inputs:", ModelSyntaxError, 4, 1, "empty inputs declaration"),
            ("equilibrium: all zero", "equilibrium all zero", ModelSyntaxError, 5, 1,
             "expected ':' after 'equilibrium'"),
            ("next x2 = u", "next x2 = u\noutput y = x1", ModelSyntaxError, 8, 1,
             "unknown directive 'output'"),
            ("system chain\n", "", ModelSemanticsError, None, None,
             "<string>: missing 'system' header"),
            ("states: x1, x2\n", "", ModelSemanticsError, None, None,
             "<string>: no states declared"),
            ("inputs: u\n", "", ModelSemanticsError, None, None,
             "<string>: no inputs declared"),
            ("inputs: u", "inputs: u, x1", ModelSemanticsError, None, None,
             "<string>: duplicate variable 'x1'"),
            ("equilibrium: all zero", "equilibrium: v = 1", ModelSyntaxError, 5, 14,
             "expected declared variable, got 'v'"),
            ("equilibrium: all zero", "equilibrium: x1 1", ModelSyntaxError, 5, 14,
             "expected '=' in equilibrium assignment"),
            ("equilibrium: all zero", "equilibrium: x1 = 1/0", ModelSyntaxError, 5, 20,
             "division by zero"),
            ("next x2 = u", "next x2 u", ModelSyntaxError, 7, 6,
             "expected: next <state> = <expr>"),
            ("next x2 = u", "next", ModelSyntaxError, 7, 1,
             "expected: next <state> = <expr>"),
            ("next x2 = u", "next u = x1", ModelSyntaxError, 7, 6,
             "'u' is not a declared state"),
        ],
        ids=["bad-character", "trailing-token", "missing-exponent", "unclosed-paren",
             "leading-operator", "keyword-name", "line-without-directive",
             "second-header", "header-with-two-names", "states-without-colon",
             "number-as-state", "empty-inputs", "equilibrium-without-colon",
             "unknown-directive", "missing-header", "missing-states", "missing-inputs",
             "duplicate-variable", "undeclared-equilibrium-variable",
             "equilibrium-without-equals", "irrational-equilibrium", "next-without-equals",
             "bare-next", "next-of-an-input"],
    )
    def test_error_table(self, old, new, error, line, column, message):
        """Each refusal of the parser, with its type, message and position
        (none for the structural ones, which span the file)."""
        with pytest.raises(error) as exc:
            modelfile.parse_model(CHAIN.replace(old, new, 1))
        if line is not None:
            message = "line %d, column %d: %s" % (line, column, message)
        assert str(exc.value) == message
        assert (getattr(exc.value, "line", None), getattr(exc.value, "column", None)) == (
            line, column)

    def test_unary_plus(self):
        system = modelfile.parse_model(CHAIN.replace("next x2 = u", "next x2 = +u"))
        assert system.update[1] == system.inputs[0]


class TestParseExpression:
    """parse_elements reads one expression per text over a system's
    variables."""

    def test_resolves_system_symbols(self):
        system = modelfile.parse_model(CHAIN)
        x1, x2 = sp.symbols("x1 x2")
        expected = kernel_oracle.elements([x1 * (x2 + 1) ** 2], system.variables)[1]
        assert modelfile.parse_elements(["x1*(x2+1)^2"], system) == expected

    def test_unknown_identifier(self):
        system = modelfile.parse_model(CHAIN)
        with pytest.raises(ModelSyntaxError):
            modelfile.parse_elements(["x1 + w"], system)

    def test_empty_expression(self):
        system = modelfile.parse_model(CHAIN)
        with pytest.raises(ModelSyntaxError):
            modelfile.parse_elements(["   "], system)

    @pytest.mark.parametrize("entry", ["update", "candidate"])
    @pytest.mark.parametrize("text, column, message", [
        ("sin(x1)", 1, "unknown identifier 'sin'"),
        ("exp(u)", 1, "unknown identifier 'exp'"),
        ("sqrt(x1)", 1, "unknown identifier 'sqrt'"),
        ("abs(x1)", 1, "unknown identifier 'abs'"),
        ("pi*x1", 1, "unknown identifier 'pi'"),
        ("I*u", 1, "unknown identifier 'I'"),
        ("x2 + E", 6, "unknown identifier 'E'"),
        ("x1^(1/2)", 4, "exponent must be an integer literal"),
        ("x1^0.5", 4, "exponent must be an integer literal"),
        ("x1^x2", 4, "exponent must be an integer literal"),
    ])
    def test_only_rational_functions_are_read(self, text, column, message, entry):
        """Model text is the only way an update or a candidate enters the
        library, and it holds rational functions only: a function, a
        named constant or a non-integer exponent is refused at its token,
        in an update line and in a candidate alike."""
        if entry == "update":
            line, column = 7, column + len("next x2 = ")
            with pytest.raises(ModelSyntaxError) as info:
                modelfile.parse_model(CHAIN.replace("next x2 = u", "next x2 = " + text))
        else:
            line = 1
            with pytest.raises(ModelSyntaxError) as info:
                modelfile.parse_elements(["x1", text], modelfile.parse_model(CHAIN))
        assert str(info.value) == "line %d, column %d: %s" % (line, column, message)


def _generated_models(seeds=(1, 2)) -> list:
    """The model texts of the benchmark's seeded corpus generator
    (perfbench/generate.py), every shape it draws, for each seed."""
    path = str(ROOT / "perfbench")
    sys.path.insert(0, path)
    try:
        import generate
    finally:
        sys.path.remove(path)
    return [member["text"] for seed in seeds for member in generate.corpus(seed)]


def _next_lines(text) -> list:
    """The right-hand sides of the next statements of a model text, in
    order, with ^ read as **."""
    lines = (line.split("#")[0].strip() for line in text.split("\n"))
    return [line.split("=", 1)[1].replace("^", "**") for line in lines
            if line.startswith("next ")]


def _random_text(rng, names, depth):
    """A random expression in the model grammar: numbers (zero among
    them), names, the four operations, unary signs and integer powers."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(names + ["0", "2", "3", "1.5", ".25"])
    a, b = _random_text(rng, names, depth - 1), _random_text(rng, names, depth - 1)
    form = rng.choice(["%s + %s", "%s - %s", "%s*%s", "%s/%s", "(%s)*(%s)", "(%s)/(%s)",
                       "-(%s) + %s", "(%s)^%d", "(%s)^-%d"])
    if "%d" in form:
        return form % (a, rng.randint(0, 3))
    return form % (a, b)


class _ZeroDivisorCheck:
    """The parser's actions by sympy's own operators on sympy's numbers
    and Symbols, except that a divisor that cancels to zero raises
    ZeroDivisionError."""

    number = staticmethod(lambda q: sp.Rational(q.numerator, q.denominator))
    symbol = staticmethod(lambda s: sp.Symbol(s.name))
    add = staticmethod(lambda x, y: x + y)
    mul = staticmethod(lambda x, y: x * y)
    neg = staticmethod(lambda x: -x)

    @staticmethod
    def div(x, y):
        if sp.cancel(y) == 0:
            raise ZeroDivisionError(y)
        return x / y

    @classmethod
    def power(cls, x, k):
        return cls.div(1, x**-k) if k < 0 else x**k


class TestParsedElements:
    """The parser builds the update map and candidate components as
    elements; they equal the conversion of the expressions it builds when
    those are read, and those are the expressions sympy reads from the
    same text."""

    @pytest.mark.parametrize("name", MODELS)
    def test_bundled_model(self, name):
        text = (ROOT / "models" / ("%s.sys" % name)).read_text(encoding="utf-8")
        self._check(text)

    def test_generated_corpus(self):
        texts = _generated_models()
        assert len(texts) == 6
        for text in texts:
            self._check(text)

    @staticmethod
    def _check(text):
        system = modelfile.parse_model(text)
        K, elements = system.update_elements
        assert K == symbolic.function_field(system.variables)
        assert list(elements) == kernel_oracle.elements(system.update, system.variables)[1]
        expected = [sp.sympify(rhs) for rhs in _next_lines(text)]
        assert ([sp.srepr(kernel_oracle.expression_to_sympy(e)) for e in system.update]
                == [sp.srepr(e) for e in expected])

    @pytest.mark.parametrize("seed", range(50))
    def test_random_expression(self, seed):
        rng = random.Random(seed)
        system = modelfile.parse_model(CHAIN)
        texts = [_random_text(rng, ["x1", "x2", "u"], 4) for _ in range(2)]
        try:
            # the reference: the expressions of sympy's own operators
            exprs = [modelfile._ExprParser(*modelfile._expression_tokens(text, system),
                                           _ZeroDivisorCheck).parse() for text in texts]
        except ZeroDivisionError:
            with pytest.raises(ModelSyntaxError, match="division by zero"):
                modelfile.parse_elements(texts, system)
            return
        expected = kernel_oracle.elements(exprs, system.variables)[1]
        assert modelfile.parse_elements(texts, system) == expected

    def test_division_by_zero_is_a_syntax_error(self):
        """A zero divisor is refused at its / or ^, in a model and in a
        candidate alike, even where sympy's expression would be rational
        (zoo**0 is 1)."""
        system = modelfile.parse_model(CHAIN)
        for update, column in [("u/(x1 - x1)", 12), ("x2 + (1/0)^0 - 1", 18),
                               ("u*(x1 - x1)^-2", 22)]:
            with pytest.raises(ModelSyntaxError) as info:
                modelfile.parse_model(CHAIN.replace("next x2 = u", "next x2 = " + update))
            assert str(info.value) == "line 7, column %d: division by zero" % column
            with pytest.raises(ModelSyntaxError) as info:
                modelfile.parse_elements(["x1", update], system)
            assert str(info.value) == "line 1, column %d: division by zero" % (column - 10)

    def test_division_by_zero_keeps_syntax_errors(self):
        """The first error in reading order is the one reported."""
        for update, message in [("u/0 + )", "column 12: division by zero"),
                                (") + u/0", "column 11: unexpected ')'")]:
            with pytest.raises(ModelSyntaxError) as info:
                modelfile.parse_model(CHAIN.replace("next x2 = u", "next x2 = " + update))
            assert str(info.value) == "line 7, " + message


def _random_sympy(rng):
    """sympy's expression of a random model text in x1, x2 and u, its
    decimals read as rationals; a text with a zero divisor is drawn
    again."""
    while True:
        e = sp.sympify(_random_text(rng, ["x1", "x2", "u"], 4), rational=True)
        if not e.has(sp.zoo, sp.nan):
            return e


class TestSympyHelpers:
    """The helpers of tests/kernel_oracle.py, by which the tests build
    systems, expressions and elements with sympy, build what the model
    parser builds from the same text."""

    @pytest.mark.parametrize("name", MODELS)
    def test_system_of_a_bundled_model(self, name):
        text = (ROOT / "models" / ("%s.sys" % name)).read_text(encoding="utf-8")
        parsed = modelfile.parse_model(text)
        built = kernel_oracle.system(
            parsed.name, [sp.Symbol(s.name) for s in parsed.states],
            [sp.Symbol(s.name) for s in parsed.inputs],
            [sp.sympify(rhs, rational=True) for rhs in _next_lines(text)],
            {sp.Symbol(v.name): value for v, value in parsed.equilibrium.items()})
        assert (built.name, built.states, built.inputs) == (
            parsed.name, parsed.states, parsed.inputs)
        assert built.equilibrium_point() == parsed.equilibrium_point()
        assert built.update_elements == parsed.update_elements
        assert ([sp.srepr(kernel_oracle.expression_to_sympy(e)) for e in built.update]
                == [sp.srepr(kernel_oracle.expression_to_sympy(e)) for e in parsed.update])

    @pytest.mark.parametrize("seed", range(20))
    def test_expression_has_the_structure_sympy_evaluates(self, seed):
        e = _random_sympy(random.Random(seed + 60))
        ours = kernel_oracle.expression(e)
        assert sp.srepr(kernel_oracle.expression_to_sympy(ours)) == sp.srepr(e)

    @pytest.mark.parametrize("seed", range(20))
    def test_elements_are_the_fractions_sympy_reduces(self, seed):
        """The elements' pairs are sympy's reduced pairs, signs included:
        seed 8 draws a negative power whose pair sympy leaves with a
        negative leading denominator coefficient."""
        e = _random_sympy(random.Random(seed + 60))
        K, (a,) = kernel_oracle.elements([e], sp.symbols("x1 x2 u"))
        assert a == kernel_oracle.from_sympy(K, e)


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

    def test_float_equilibrium_rejected(self):
        """A code-built system may mark its point with any numbers; a float
        is not a rational number, whatever its value."""
        system = modelfile.parse_model(CHAIN)
        x1, x2 = system.states
        (u,) = system.inputs
        floating = kernel_oracle.system(
            name="floating", states=system.states, inputs=system.inputs,
            update=(x2, u), equilibrium={x1: sp.Integer(0), x2: 0, u: 0.0})
        with pytest.raises(UnsupportedEquationError,
                           match=r"point value u = 0\.0 is not a rational number"):
            model.validate_system(floating)

    @pytest.mark.parametrize("u_value", [sp.Rational(1, 2), symbolic.rational("0.5"), 1])
    def test_sympy_and_kernel_equilibria_are_read_exactly(self, u_value):
        """sympy's rationals, ints and kernel rationals mark a point alike."""
        system = modelfile.parse_model(CHAIN)
        x1, x2 = system.states
        (u,) = system.inputs
        shifted = kernel_oracle.system(
            name="shifted", states=system.states, inputs=system.inputs,
            update=(x2, u), equilibrium={x1: sp.Rational(1, 2), x2: sp.Rational(1, 2), u: u_value})
        if u_value == 1:
            with pytest.raises(ValidationError, match=r"f\(x2\) - x2 = 1/2 at the marked point"):
                model.validate_system(shifted)
        else:
            assert not model.validate_system(shifted).redundant_inputs

    def test_pole_message_prints_the_update_as_documents_do(self):
        """The pole message prints the update element with to_infix, so
        the model's expressions are not built on that error path."""
        system = modelfile.parse_model(CHAIN.replace("next x1 = x2", "next x1 = x2^2/x1"))
        with pytest.raises(ValidationError) as info:
            model.validate_system(system)
        assert str(info.value) == ("system 'chain': the update of x1, x2^2/x1, has a pole "
                                   "at the marked point")
        assert "update" not in vars(system)

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
        assert sp.simplify(kernel_oracle.as_expr(reduction.kept_functions[0])
                           - sp.Symbol(u1.name) - sp.Symbol(u2.name)) == 0
        assert reduction.removed_coordinates == (u2,)
        assert kernel_oracle.expression_to_sympy(reduced.update[1]) == sp.Symbol(uhat.name)
        report = model.validate_system(reduced)
        assert not report.redundant_inputs

    def test_inverse_recovers_original_inputs(self, redundant_input):
        reduction = model.eliminate_redundant_inputs(redundant_input)
        u1, u2 = redundant_input.inputs
        uhat = reduction.reduced.inputs[0]
        utilde = reduction.removed_symbols[0]
        # each inverse composed with (uhat, utilde) = (kept function, u2)
        # in QQ(x, u), the field of the kept functions
        K = symbolic.function_field(reduction.kept_functions[0].field.symbols)
        states = redundant_input.states
        forward = {**dict(zip(states, symbolic.generators(K, states))),
                   uhat: reduction.kept_functions[0], utilde: symbolic.generators(K, [u2])[0]}
        for u in (u1, u2):
            back = symbolic.compose(reduction.inverse[u], forward, K)
            assert back == symbolic.generators(K, [u])[0]

    def test_inverse_branch_passes_through_a_nonzero_equilibrium(self):
        system = modelfile.parse_model(
            """
system offset
states: x1, x2
inputs: u1, u2
equilibrium: x1 = 3, x2 = 3, u1 = 2, u2 = 1
next x1 = x2
next x2 = u1 + u2
"""
        )
        reduction = model.eliminate_redundant_inputs(system)
        reduced = reduction.reduced
        point = {**reduced.equilibrium,
                 **{t: system.equilibrium[u] for t, u in
                    zip(reduction.removed_symbols, reduction.removed_coordinates)}}
        assert reduced.equilibrium[reduced.inputs[0]] == 3
        for u in system.inputs:
            a = reduction.inverse[u]
            H = symbolic.function_field(a.field.symbols)
            (value,), = symbolic.element_values(H, [[a]], point)
            assert value == system.equilibrium[u]
        assert not model.validate_system(reduced).redundant_inputs

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
        K, update = kernel_oracle.elements(system.update, system.variables)
        full = [[kernel_oracle.diff(f, v) for v in K.symbols] for f in update]
        assert symbolic.element_rank(K, full, len(system.variables)) == 2
        ijac = [[kernel_oracle.diff(f, u) for u in K.symbols[system.n :]] for f in update]
        assert (len(ijac), len(ijac[0])) == (2, 1)

    def test_update_count_must_match_the_states(self):
        system = modelfile.parse_model(CHAIN)
        K, update = system.update_elements
        with pytest.raises(ValidationError) as info:
            model.DiscreteTimeSystem(name="short", states=system.states, inputs=system.inputs,
                                     update=lambda: system.update[:1],
                                     equilibrium=system.equilibrium, elements=(K, update[:1]))
        assert str(info.value) == "system 'short': 2 states but 1 update equations"

    def test_equilibrium_must_mark_every_variable(self):
        system = modelfile.parse_model(CHAIN)
        (u,) = system.inputs
        partial = {v: 0 for v in system.states}
        with pytest.raises(ValidationError) as info:
            model.DiscreteTimeSystem(name="partial", states=system.states,
                                     inputs=system.inputs, update=lambda: system.update,
                                     equilibrium=partial, elements=system.update_elements)
        assert str(info.value) == "system 'partial': equilibrium missing a value for %s" % u

    def test_elements_are_required(self):
        system = modelfile.parse_model(CHAIN)
        with pytest.raises(TypeError, match="elements"):
            model.DiscreteTimeSystem(name="bare", states=system.states, inputs=system.inputs,
                                     update=lambda: system.update,
                                     equilibrium=system.equilibrium)

    def test_update_is_built_once_on_its_first_read(self):
        system = modelfile.parse_model(CHAIN)
        builds = []

        def build():
            builds.append(None)
            return list(system.update)

        built = model.DiscreteTimeSystem(name="built", states=system.states,
                                         inputs=system.inputs, update=build,
                                         equilibrium=system.equilibrium,
                                         elements=system.update_elements)
        model.validate_system(built)
        assert builds == []
        assert built.update == system.update and built.update == system.update
        assert builds == [None]

    def test_attributes_cannot_be_assigned(self):
        system = modelfile.parse_model(CHAIN)
        with pytest.raises(AttributeError, match="^a DiscreteTimeSystem is immutable$"):
            system.name = "renamed"
        assert system.name == "chain"
