"""Tests of the symbolic substrate: canonical forms, ranks, solving."""

import random

import pytest
import sympy as sp

from flatcheck import symbolic
from flatcheck.errors import InconsistentSystemError

x, y, z = sp.symbols("x y z")


class TestCanonicalize:
    def test_cancels_common_factors(self):
        e = (x**2 - 1) / (x - 1)
        assert symbolic.canonicalize(e) == x + 1

    def test_idempotent(self):
        e = (x * y + y) / (y**2 + y)
        once = symbolic.canonicalize(e)
        assert symbolic.canonicalize(once) == once

    @pytest.mark.parametrize(
        "a, b",
        [
            ((x + y) ** 2, x**2 + 2 * x * y + y**2),
            (x / (1 + 1 / x), x**2 / (x + 1)),
            (sp.Rational(1, 2) * (2 * x), x),
        ],
    )
    def test_equal_expressions_agree(self, a, b):
        assert symbolic.canonicalize(a - b) == 0


class TestIsZero:
    def test_structural_zero(self):
        assert symbolic.is_zero(sp.Integer(0)) is True

    def test_hidden_zero(self):
        assert symbolic.is_zero((x + 1) ** 2 - x**2 - 2 * x - 1) is True

    def test_nonzero(self):
        assert symbolic.is_zero(x + 1) is False


class TestFunctionFieldRref:
    def test_pivots_and_zero_rows(self):
        M = sp.Matrix([[1, x, 0], [0, 0, 1], [1, x, 1]])
        res = symbolic.function_field_rref(M)
        assert res.pivots == (0, 2)
        assert res.rref.rows == 3
        assert res.rref[2, :] == sp.zeros(1, 3)

    def test_deterministic_under_row_mixing(self):
        rng = random.Random(7)
        base = sp.Matrix([[1, x, y], [0, 1, x * y]])
        reference = symbolic.function_field_rref(base).rref
        for _ in range(10):
            a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
            if a * d - b * c == 0:
                continue
            mixed = sp.Matrix(
                [
                    [a * base[0, j] + b * base[1, j] for j in range(3)],
                    [c * base[0, j] + d * base[1, j] for j in range(3)],
                ]
            )
            res = symbolic.function_field_rref(mixed)
            assert sp.simplify(res.rref - reference) == sp.zeros(2, 3)

    def test_rational_entries(self):
        M = sp.Matrix([[1 / x, 1], [1, x]])
        res = symbolic.function_field_rref(M)
        assert len(res.pivots) == 1


class TestRanks:
    def test_generic_rank_full(self):
        M = sp.Matrix([[x, 1], [1, x]])
        assert symbolic.generic_rank(M) == 2

    def test_generic_rank_degenerate(self):
        M = sp.Matrix([[x, x * y], [1, y]])
        assert symbolic.generic_rank(M) == 1

    def test_generic_rank_with_radical_entries(self):
        M = sp.Matrix([[sp.sqrt(2) * x, x], [2, sp.sqrt(2)]])
        assert symbolic.generic_rank(M) == 1

    def test_rank_at_point_drop(self):
        M = sp.Matrix([[x, 0], [0, 1]])
        assert symbolic.rank_at_point(M, {x: 0}) == 1
        assert symbolic.rank_at_point(M, {x: 2}) == 2

    def test_nullspace_matches_matrix(self):
        M = sp.Matrix([[1, x, 0], [0, 0, 1]])
        vectors = symbolic.nullspace(M)
        assert len(vectors) == 1
        v = sp.Matrix(vectors[0])
        assert sp.simplify(M * v) == sp.zeros(2, 1)


class TestSolveAlgebraic:
    def test_linear_system(self):
        sols = symbolic.solve_algebraic([sp.Eq(x + y, 3), sp.Eq(x - y, 1)], [x, y])
        assert sols == [{x: 2, y: 1}]

    def test_identity_has_empty_solution(self):
        sols = symbolic.solve_algebraic([sp.Eq((x + 1) ** 2, x**2 + 2 * x + 1)], [])
        assert sols == [{}]

    def test_inconsistent_raises(self):
        with pytest.raises(InconsistentSystemError):
            symbolic.solve_algebraic([sp.Eq(sp.Integer(0), 1)], [x])

    def test_rational_solution(self):
        sols = symbolic.solve_algebraic([sp.Eq(x * y, 1)], [x])
        assert sols[0][x] == 1 / y


class TestClearDenominators:
    def test_primitive_integer_vector(self):
        row = [sp.Rational(1, 2), sp.Rational(1, 3)]
        cleared = symbolic.clear_denominators(row)
        assert cleared == [3, 2]

    def test_rational_functions(self):
        row = [1 / (x + 1), x / (x + 1)]
        cleared = symbolic.clear_denominators(row)
        assert cleared == [1, x]

    def test_sign_normalization(self):
        assert symbolic.clear_denominators([-x, -1]) == [x, 1]
        assert symbolic.clear_denominators([-2 * x, -4]) == [x, 2]
        assert symbolic.clear_denominators([0, -3]) == [0, 1]


class TestEvaluateExact:
    def test_rational_value(self):
        assert symbolic.evaluate_exact(x / (y + 1), {x: 1, y: 1}) == sp.Rational(1, 2)

    def test_pole_raises(self):
        with pytest.raises(ZeroDivisionError):
            symbolic.evaluate_exact(1 / x, {x: 0})

    def test_removable_singularity_is_not_a_pole(self):
        assert symbolic.evaluate_exact((x**2 - 1) / (x - 1), {x: 1}) == 2


class TestToInfix:
    def test_power_operator(self):
        assert symbolic.to_infix(x**2) == "x^2"

    def test_stable_ordering(self):
        first = symbolic.to_infix(x * y + y * x + 1)
        second = symbolic.to_infix(1 + y * x + x * y)
        assert first == second
