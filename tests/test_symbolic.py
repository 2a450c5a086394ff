"""Tests of the symbolic substrate: canonical forms, ranks, solving."""

import random

import pytest
import sympy as sp
from sympy.polys.polyerrors import GeneratorsError

from flatcheck import geometry, model, symbolic
from flatcheck.errors import (
    InconsistentSystemError,
    IrrationalSolutionError,
    UnsupportedEquationError,
)
from flatcheck.model import DiscreteTimeSystem

x, y, z = sp.symbols("x y z")


def _element(e):
    """The element of a rational expression over QQ(its free symbols)."""
    _, (a,) = symbolic.to_elements([e])
    return a


def _canonical(e):
    """Canonical form of a rational expression, through its element."""
    K, (a,) = symbolic.to_elements([e])
    return symbolic.canonicalize_element(K, a)


class TestCanonicalize:
    def test_cancels_common_factors(self):
        e = (x**2 - 1) / (x - 1)
        assert _canonical(e) == x + 1

    def test_idempotent(self):
        e = (x * y + y) / (y**2 + y)
        once = _canonical(e)
        assert _canonical(once) == once

    @pytest.mark.parametrize(
        "a, b",
        [
            ((x + y) ** 2, x**2 + 2 * x * y + y**2),
            (x / (1 + 1 / x), x**2 / (x + 1)),
            (sp.Rational(1, 2) * (2 * x), x),
        ],
    )
    def test_equal_expressions_agree(self, a, b):
        assert _canonical(a - b) == 0

    @pytest.mark.parametrize("e", [-(x - y) / (2 * z + 2), (3 * y - x) / 6, -x * y, sp.Integer(-2)])
    def test_element_in_a_wider_field_in_any_order(self, e):
        """Generators the element does not use, and their order, change
        nothing."""
        K, (a,) = symbolic.to_elements([e], (z, y, sp.Symbol("w"), x))
        assert symbolic.canonicalize_element(K, a) == _canonical(e)


def _elements(M):
    """A sympy matrix as (K, rows of elements of K), K = QQ(its free
    symbols sorted by name)."""
    K, elements = symbolic.to_elements(list(M))
    return K, [elements[i * M.cols:(i + 1) * M.cols] for i in range(M.rows)]


def _generic_rank(M):
    K, rows = _elements(M)
    return symbolic.element_rank(K, rows, M.cols)


def _rank_at_point(M, point):
    K, rows = _elements(M)
    values = rows if K is symbolic.QQ else symbolic.element_values(K, rows, point)
    return symbolic.element_rank(symbolic.QQ, values, M.cols)


class TestFunctionFieldRref:
    def test_pivots_and_zero_rows(self):
        K, rows = _elements(sp.Matrix([[1, x, 0], [0, 0, 1], [1, x, 1]]))
        rref, pivots = symbolic.element_rref(K, rows, 3)
        assert pivots == (0, 2)
        assert len(rref) == 3
        assert rref[2] == [K.zero] * 3

    def test_deterministic_under_row_mixing(self):
        rng = random.Random(7)
        base = sp.Matrix([[1, x, y], [0, 1, x * y]])
        K, rows = _elements(base)
        reference = symbolic.element_rref(K, rows, 3)[0]
        for _ in range(10):
            a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
            if a * d - b * c == 0:
                continue
            mixed = [
                [a * rows[0][j] + b * rows[1][j] for j in range(3)],
                [c * rows[0][j] + d * rows[1][j] for j in range(3)],
            ]
            assert symbolic.element_rref(K, mixed, 3)[0] == reference

    def test_rational_entries(self):
        K, rows = _elements(sp.Matrix([[1 / x, 1], [1, x]]))
        assert len(symbolic.element_rref(K, rows, 2)[1]) == 1


class TestRanks:
    def test_generic_rank_full(self):
        M = sp.Matrix([[x, 1], [1, x]])
        assert _generic_rank(M) == 2

    def test_generic_rank_degenerate(self):
        M = sp.Matrix([[x, x * y], [1, y]])
        assert _generic_rank(M) == 1

    def test_radical_entries_are_rejected(self):
        M = sp.Matrix([[sp.sqrt(2) * x, x], [2, sp.sqrt(2)]])
        with pytest.raises(UnsupportedEquationError):
            _generic_rank(M)

    def test_rank_at_point_drop(self):
        M = sp.Matrix([[x, 0], [0, 1]])
        assert _rank_at_point(M, {x: 0}) == 1
        assert _rank_at_point(M, {x: 2}) == 2

    def test_nullspace_matches_matrix(self):
        K, rows = _elements(sp.Matrix([[1, x, 0], [0, 0, 1]]))
        rref, pivots = symbolic.element_rref(K, rows, 3)
        vectors = symbolic.element_nullspace(K, rref, pivots, 3)
        assert len(vectors) == 1
        v = vectors[0]
        assert [sum((a * b for a, b in zip(row, v)), K.zero) for row in rows] == [K.zero] * 2


def _random_polynomial(rng, gens, degree=2):
    """A seeded random polynomial with small integer coefficients."""
    terms = [rng.randint(-3, 3)]
    for _ in range(3):
        factors = [rng.choice(gens) for _ in range(rng.randint(1, degree))]
        terms.append(rng.randint(-3, 3) * sp.Mul(*factors))
    return sp.Add(*terms)


def _random_rational(rng, gens):
    den = _random_polynomial(rng, gens, 1) if rng.random() < 0.5 else sp.Integer(1)
    while den == 0:
        den = _random_polynomial(rng, gens, 1)
    return _random_polynomial(rng, gens) / den


def _jacobian_rank(functions, variables, point=None):
    """jacobian_rank of expressions converted over QQ(their free symbols
    sorted by name)."""
    K, elements = symbolic.to_elements(functions)
    return symbolic.jacobian_rank(K, elements, variables, point)


def _fraction_field_rank(M):
    K, rows = _elements(M)
    return len(symbolic.element_rref(K, rows, M.cols)[1])


@pytest.fixture
def fraction_field_rrefs(monkeypatch):
    """The row reductions over a field other than QQ, as (rows, cols)."""
    calls = []
    reduce = symbolic.element_rref

    def spy(K, rows, ncols):
        if K is not symbolic.QQ:
            calls.append((len(rows), ncols))
        return reduce(K, rows, ncols)

    monkeypatch.setattr(symbolic, "element_rref", spy)
    return calls


class TestRankCertificate:
    """element_rank and jacobian_rank certify a full rank at one fixed
    rational point and fall back to the fraction-field rref otherwise."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_matrices_of_known_rank(self, seed):
        rng = random.Random(seed + 4100)
        gens = [x, y, z]
        nrows, ncols = rng.randint(2, 3), rng.randint(2, 3)
        rank = rng.randint(0, min(nrows, ncols))
        left = sp.Matrix(nrows, rank, lambda i, j: _random_rational(rng, gens))
        right = sp.Matrix(rank, ncols, lambda i, j: _random_polynomial(rng, gens, 1))
        M = left * right if rank else sp.zeros(nrows, ncols)
        assert _generic_rank(M) == _fraction_field_rank(M) == rank

    def test_full_rank_is_certified_without_fraction_field_rref(
        self, fraction_field_rrefs
    ):
        M = sp.Matrix([[x, y, 1], [1 / (x + y), x * y, z], [y, 1, x**2]])
        assert _generic_rank(M) == 3
        assert fraction_field_rrefs == []

    def test_rank_deficit_falls_back(self, fraction_field_rrefs):
        M = sp.Matrix([[x, y], [x * z, y * z]])
        assert _generic_rank(M) == 1
        assert fraction_field_rrefs == [(2, 2)]

    def test_singular_at_the_certificate_point(self, fraction_field_rrefs):
        a, _ = symbolic._certificate_point(2)
        M = sp.Matrix([[x - a, 0], [0, y]])
        assert _rank_at_point(M, {x: a, y: 1}) == 1
        assert _generic_rank(M) == 2
        functions = [x**2 / 2 - a * x, y]
        assert _jacobian_rank(functions, [x, y]) == 2
        assert fraction_field_rrefs == [(2, 2), (2, 2)]

    def test_pole_at_the_certificate_point(self, fraction_field_rrefs):
        a, _ = symbolic._certificate_point(2)
        M = sp.Matrix([[1 / (x - a), 1], [0, y]])
        assert _generic_rank(M) == 2
        assert _jacobian_rank([1 / (x - a), y], [x, y]) == 2
        assert fraction_field_rrefs == [(2, 2), (2, 2)]

    def test_generators_the_functions_do_not_use_do_not_move_the_point(
        self, fraction_field_rrefs
    ):
        a, _ = symbolic._certificate_point(2)
        functions = [x**2 / 2 - a * x, y]
        wider, elements = symbolic.to_elements(functions, (sp.Symbol("w"), x, y))
        assert symbolic.jacobian_rank(wider, elements, [x, y]) == 2
        assert fraction_field_rrefs == [(2, 2)]

    def test_certificate_point_is_fixed_and_nonzero(self):
        point = symbolic._certificate_point(12)
        assert point[:5] == symbolic._certificate_point(5)
        assert all(isinstance(v, int) and abs(v) >= 2 for v in point)
        assert len(set(point)) == len(point)

    def test_radical_entries_are_rejected(self):
        with pytest.raises(UnsupportedEquationError):
            _generic_rank(sp.Matrix([[sp.sqrt(x), 1], [1, x]]))
        with pytest.raises(UnsupportedEquationError):
            _jacobian_rank([sp.sqrt(2) * x, y], [x, y])
        with pytest.raises(UnsupportedEquationError):
            _jacobian_rank([x, y], [x, y], {x: sp.sqrt(2), y: 1})


class TestJacobianRank:
    @staticmethod
    def _jacobian(functions, variables):
        return sp.Matrix([[sp.diff(f, v) for v in variables] for f in functions])

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_generic_rank_of_the_symbolic_jacobian(self, seed):
        rng = random.Random(seed + 5200)
        gens = [x, y, z]
        functions = [_random_rational(rng, gens) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            # a dependent function makes the rank fall short
            functions.append(functions[0] * functions[-1] + 1)
        variables = rng.sample(gens, rng.randint(1, 3))
        jacobian = self._jacobian(functions, variables)
        assert _jacobian_rank(functions, variables) == _generic_rank(jacobian)
        assert _generic_rank(jacobian) == _fraction_field_rank(jacobian)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_rank_at_point_of_the_symbolic_jacobian(self, seed):
        rng = random.Random(seed + 6300)
        gens = [x, y, z]
        functions = [_random_rational(rng, gens) for _ in range(3)]
        variables = [x, y, z]
        point = {g: sp.Rational(rng.randint(-2, 2), rng.randint(1, 2)) for g in gens}
        jacobian = self._jacobian(functions, variables)
        try:
            expected = _rank_at_point(jacobian, point)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                _jacobian_rank(functions, variables, point)
        else:
            assert _jacobian_rank(functions, variables, point) == expected

    def test_variables_outside_the_functions_give_zero_columns(self):
        assert _jacobian_rank([x * y, x + y], [x, z]) == 1
        assert _jacobian_rank([sp.Integer(3)], [x]) == 0
        assert _jacobian_rank([], [x]) == 0

    def test_removable_singularity_is_not_a_pole(self):
        functions = [(x**2 - 1) / (x - 1), y]
        assert _jacobian_rank(functions, [x, y], {x: 1, y: 0}) == 2

    def test_pole_at_point_raises(self):
        with pytest.raises(ZeroDivisionError):
            _jacobian_rank([1 / x, y], [x, y], {x: 0, y: 0})

    def test_incomplete_point_raises(self):
        with pytest.raises(ValueError):
            _jacobian_rank([x * y], [x], {x: 1})


def _solve(equations, unknowns):
    """solve_elements on expressions = 0 over QQ(the unknowns and their
    free symbols, sorted by name); the branches as expressions, in the
    order the elimination finds them."""
    symbols = set(unknowns).union(*(sp.sympify(e).free_symbols for e in equations))
    K, elements = symbolic.to_elements(equations, sorted(symbols, key=lambda s: s.name))
    return [{s: v.as_expr() for s, v in sol.items()}
            for sol in symbolic.solve_elements(K, elements, unknowns)]


class TestSolveAlgebraic:
    """solve_elements on small systems with known branches."""

    def test_linear_system(self):
        sols = _solve([x + y - 3, x - y - 1], [x, y])
        assert sols == [{x: 2, y: 1}]

    def test_identity_has_empty_solution(self):
        sols = _solve([(x + 1) ** 2 - (x**2 + 2 * x + 1)], [])
        assert sols == [{}]

    def test_inconsistent_raises(self):
        with pytest.raises(InconsistentSystemError):
            _solve([sp.Integer(-1)], [x])
        with pytest.raises(InconsistentSystemError, match="equation 1 = 0"):
            _solve([x - y, sp.Integer(1)], [x])

    def test_rational_solution(self):
        sols = _solve([x * y - 1], [x])
        assert sols[0][x] == 1 / y

    def test_only_irrational_branches_raise(self):
        with pytest.raises(IrrationalSolutionError) as info:
            _solve([x**2 - 2], [x])
        assert info.value.unknown == x

    def test_irrational_branches_are_dropped(self):
        sols = _solve([(x**2 - 2) * (x - 1)], [x])
        assert sols == [{x: 1}]

    def test_all_rational_branches_are_kept(self):
        sols = _solve([x**2 - 1], [x])
        assert sorted(sol[x] for sol in sols) == [-1, 1]

    def test_equation_free_of_unknowns_is_ignored(self):
        x1, x2, ub, y1, y2, y1_p1, y2_p1, ub_p1 = sp.symbols(
            "x1 x2 ub y1 y2 y1_p1 y2_p1 ub_p1"
        )
        equations = [y1 - x1, y2 - ub, y1_p1 - (-x1**2 + x2), y2_p1 - ub_p1]
        sols = _solve(equations, [x1, x2, ub])
        assert len(sols) == 1
        assert sols[0][x1] == y1 and sols[0][ub] == y2
        assert sp.expand(sols[0][x2] - y1**2 - y1_p1) == 0

    def test_only_unknown_free_equations_give_no_branch(self):
        assert _solve([y - 1], [x]) == []

    def test_spurious_pivot_zero_branch_is_dropped(self):
        # x1 is eliminated first through the second equation, as
        # x1 = (theta_2 - u + 2*x2**2) / (3*x2), which is undefined at x2 = 0
        x1, x2, u, t1, t2, xi1 = sp.symbols("x1 x2 u theta_1 theta_2 xi_1")
        equations = [
            t1 - (x1**2 + x1 + x2),
            t2 - (u + 3 * x1 * x2 - 2 * x2**2),
            xi1 - x1,
        ]
        sols = _solve(equations, [x1, x2, u])
        assert len(sols) == 1
        sol = sols[0]
        assert sol[x1] == xi1
        assert sp.expand(sol[x2] - (t1 - xi1**2 - xi1)) == 0
        for eq in equations:
            assert sp.cancel(eq.subs(sol)) == 0

    def test_underdetermined_solves_for_first_unknowns(self):
        assert _solve([x + y - 1], [x, y]) == [{x: 1 - y}]
        assert _solve([x + y - 1], [y, x]) == [{y: 1 - x}]

    def test_zero_denominator_is_not_a_solution(self):
        assert _solve([(x - 1) / (x**2 - 1)], [x]) == []


def _triangular_chain(rng, n):
    """Brunovsky chain z+ = (z2, ..., zn, u) seen through the triangular
    state change z_i = x_i + p_i(x_1, ..., x_{i-1}), p_i without constant
    term, so the equilibrium is the origin."""
    states = sp.symbols("x1:%d" % (n + 1))
    u = sp.Symbol("u")
    shifts = [sp.Integer(0)]
    for i in range(1, n):
        terms = [rng.choice([-2, -1, 1, 2]) * sp.Mul(*rng.sample(states[:i] * 2, k))
                 for k in (1, 2)]
        shifts.append(sp.Add(*terms))
    z_next = [states[i] + shifts[i] for i in range(1, n)] + [u]
    update = []
    for i in range(n):
        prior = dict(zip(states, update))
        update.append(sp.expand(z_next[i] - shifts[i].subs(prior, simultaneous=True)))
    return DiscreteTimeSystem(
        name="triangular%d" % n,
        states=states,
        inputs=(u,),
        update=tuple(update),
        equilibrium={s: 0 for s in states + (u,)},
        source_digest=None,
    )


def _canonical_branches(solutions):
    return sorted(
        (tuple(sorted((str(k), _canonical(v)) for k, v in sol.items()))
         for sol in solutions),
        key=sp.default_sort_key,
    )


class TestSolveAgainstSympy:
    """solve_elements gives the same branches as sympy's own solver, used
    here only as a test oracle, on chart-inverse systems and on systems
    that branch."""

    @staticmethod
    def _check_chart_inverse(system):
        chart = geometry.build_adapted_chart(system)
        equations = [c - chart.forward[c].as_expr() for c in chart.coords]
        unknowns = list(system.variables)
        ours = _solve(equations, unknowns)
        oracle = sp.solve(equations, unknowns, dict=True)
        assert ours
        assert _canonical_branches(ours) == _canonical_branches(oracle)

    @pytest.mark.parametrize(
        "name",
        ["chain2", "shift1", "sfl_quadratic", "redundant_input", "nonflat_bilinear"],
    )
    def test_bundled_chart_inverses(self, load_system, name):
        system = load_system(name)
        if model.validate_system(system).redundant_inputs:
            system = model.eliminate_redundant_inputs(system).reduced
        self._check_chart_inverse(system)

    @pytest.mark.parametrize("seed, n", [(0, 2), (1, 2), (2, 3), (3, 3)])
    def test_triangular_chain_chart_inverses(self, seed, n):
        self._check_chart_inverse(_triangular_chain(random.Random(seed + 9000), n))

    @pytest.mark.parametrize(
        "equations",
        [
            [x**2 - 1, y - x],
            [x * y - 2, x + y - 3],
            # y = x assumes x + 2 != 0; the branch x = -2 must survive
            [(x - y) * (x + 2), y**2 - 4],
            [x**2 - z**2, x * y - z],
            [y**2 - y, x * y - 1 + y],
        ],
    )
    def test_branching_systems(self, equations):
        ours = _solve(equations, [x, y])
        oracle = sp.solve(equations, [x, y], dict=True)
        assert _canonical_branches(ours) == _canonical_branches(oracle)


def _cleared(row):
    K, elements = symbolic.to_elements(row)
    return [K.to_sympy(a) for a in symbolic.clear_element_row(K, elements)[0]]


class TestClearDenominators:
    def test_primitive_integer_vector(self):
        row = [sp.Rational(1, 2), sp.Rational(1, 3)]
        cleared = _cleared(row)
        assert cleared == [3, 2]

    def test_rational_functions(self):
        row = [1 / (x + 1), x / (x + 1)]
        cleared = _cleared(row)
        assert cleared == [1, x]

    def test_sign_normalization(self):
        assert _cleared([-x, -1]) == [x, 1]
        assert _cleared([-2 * x, -4]) == [x, 2]
        assert _cleared([0, -3]) == [0, 1]


class TestRename:
    def test_renamed_fraction_stays_canonical(self):
        a, b = sp.symbols("a b")
        source, (e,) = symbolic.to_elements([(x**2 + y) / (x - y)], (x, y))
        target = symbolic.function_field((a, b, z))
        moved = symbolic.rename(e, target, {x: b, y: a})
        # canonical form: equal to the same function converted directly
        assert moved == target.from_sympy((b**2 + a) / (b - a))
        assert moved.denom.LC > 0

    def test_missing_generator_raises(self):
        _, (e,) = symbolic.to_elements([x * y], (x, y))
        with pytest.raises(GeneratorsError):
            symbolic.rename(e, symbolic.function_field((x,)), {})


class TestComposeIntoAnotherField:
    def test_result_lives_in_the_target_field(self):
        a, b = sp.symbols("a b")
        _, (e,) = symbolic.to_elements([(x**2 + y) / (x - y)], (x, y))
        target, (p, q) = symbolic.to_elements([a * b, a + 1], (a, b))
        moved = symbolic.compose(e, {x: p, y: q}, target)
        assert moved == target.from_sympy(((a * b) ** 2 + a + 1) / (a * b - a - 1))

    def test_generator_without_image_raises(self):
        _, (e,) = symbolic.to_elements([x * y], (x, y))
        target = symbolic.function_field((z,))
        with pytest.raises(GeneratorsError):
            symbolic.compose(e, {x: target.field.gens[0]}, target)

    def test_image_of_an_unused_generator_is_ignored(self):
        a, b = sp.symbols("a b")
        _, (e,) = symbolic.to_elements([x + 1], (x, y))
        target, (p, q) = symbolic.to_elements([a * b, 1 / a], (a, b))
        moved = symbolic.compose(e, {x: p, y: q, z: q}, target)
        assert moved == target.from_sympy(a * b + 1)


class TestSolveElements:
    def test_same_branches_as_the_expression_solver(self):
        equations = [x**2 - y**2, x * z - 1]
        K, elements = symbolic.to_elements(equations, (x, y, z))
        found = symbolic.solve_elements(K, elements, [x, z])
        as_expressions = [{s: v.as_expr() for s, v in sol.items()} for sol in found]
        assert all(v.field == K.field for sol in found for v in sol.values())
        oracle = sp.solve(equations, [x, z], dict=True)
        assert _canonical_branches(as_expressions) == _canonical_branches(oracle)


class TestCompose:
    """compose within an element's own field, where a generator without
    an image is kept."""

    def test_simultaneous(self):
        K, (e, a, b) = symbolic.to_elements([x - 2 * y, y, x], (x, y))
        assert symbolic.compose(e, {x: a, y: b}) == K.from_sympy(y - 2 * x)

    def test_result_in_lowest_terms(self):
        K, (e, image) = symbolic.to_elements([x / (x + y), x * z], (x, y, z))
        result = symbolic.compose(e, {y: image})
        expected = K.from_sympy(1 / (z + 1))
        assert (result.numer, result.denom) == (expected.numer, expected.denom)

    def test_removable_singularity_is_not_a_pole(self):
        K, (e, one) = symbolic.to_elements([(x**2 - 1) / (x - 1), sp.Integer(1)], (x,))
        assert symbolic.compose(e, {x: one}) == K(2)

    def test_vanishing_denominator_raises(self):
        _, (e, image) = symbolic.to_elements([1 / (x - y), y], (x, y))
        with pytest.raises(ZeroDivisionError):
            symbolic.compose(e, {x: image})

    def test_generators_the_element_does_not_use_are_ignored(self):
        _, (e, image) = symbolic.to_elements([x + 1, x**2], (x, y))
        assert symbolic.compose(e, {y: image}) is e

    def test_constant_into_another_field(self):
        _, (e,) = symbolic.to_elements([sp.Rational(3, 6)], (x,))
        target = symbolic.function_field((y,))
        assert symbolic.compose(e, {x: target.field.gens[0]}, target) == \
            target.from_sympy(sp.Rational(1, 2))


class TestBranchThrough:
    """branch_through picks the first solved branch that takes the given
    values at a point."""

    def _branches(self, *branches):
        K = symbolic.function_field((x, y))
        return K, [{s: K.from_sympy(v) for s, v in b.items()} for b in branches]

    def test_first_passing_branch(self):
        K, sols = self._branches({x: y - 1}, {x: 2 * y}, {x: y**2})
        assert symbolic.branch_through(K, sols, [x], {y: 1}, [2]) is sols[1]

    def test_pole_at_the_point_is_skipped(self):
        K, sols = self._branches({x: 1 / (y - 1)}, {x: y + 1})
        assert symbolic.branch_through(K, sols, [x], {y: 1}, [2]) is sols[1]

    def test_branch_missing_an_unknown_is_skipped(self):
        K, sols = self._branches({x: y + 1}, {x: y + 1, y: sp.Integer(1)})
        assert symbolic.branch_through(K, sols, [x, y], {y: 1}, [2, 1]) is sols[1]

    def test_none_when_no_branch_passes(self):
        K, sols = self._branches({x: y - 1}, {x: 1 / (y - 1)})
        assert symbolic.branch_through(K, sols, [x], {y: 1}, [2]) is None


def _value(e, point):
    """element_values of one expression over QQ(its free symbols)."""
    K, (a,) = symbolic.to_elements([e])
    (value,), = symbolic.element_values(K, [[a]], point)
    return value


class TestEvaluateExact:
    """element_values at exact rational points."""

    def test_rational_value(self):
        assert _value(x / (y + 1), {x: 1, y: 1}) == symbolic.QQ(1, 2)

    def test_pole_raises(self):
        with pytest.raises(ZeroDivisionError):
            _value(1 / x, {x: 0})

    def test_removable_singularity_is_not_a_pole(self):
        assert _value((x**2 - 1) / (x - 1), {x: 1}) == 2

    def test_incomplete_point_raises(self):
        with pytest.raises(ValueError):
            _value(x * y, {x: 1})
        # a generator the element does not use needs no value
        K, (a,) = symbolic.to_elements([x + 1], (x, y))
        assert symbolic.element_values(K, [[a]], {x: 1}) == [[2]]


class TestToInfix:
    def test_power_operator(self):
        assert symbolic.to_infix(_element(x**2)) == "x^2"

    def test_stable_ordering(self):
        first = symbolic.to_infix(_element(x * y + y * x + 1))
        second = symbolic.to_infix(_element(1 + y * x + x * y))
        assert first == second
