"""Tests of the symbolic substrate: canonical forms, ranks, solving."""

import pickle
import random
from fractions import Fraction

import pytest
import sympy as sp
from sympy.polys.euclidtools import dmp_rr_prs_gcd
from sympy.polys.matrices import DomainMatrix

from flatcheck import geometry, model, symbolic
from flatcheck.errors import (
    GeneratorsError,
    HeuristicGCDFailed,
    InconsistentSystemError,
    IrrationalSolutionError,
    UnsolvedEquationsError,
    UnsupportedEquationError,
)

import kernel_oracle

x, y, z = sp.symbols("x y z")


def _element(e):
    """The element of a rational expression over QQ(its free symbols)."""
    _, (a,) = kernel_oracle.elements([e])
    return a


def _canonical(e):
    """Canonical form of a rational expression, through its element."""
    K, (a,) = kernel_oracle.elements([e])
    return symbolic.canonicalize_element(a)


class TestCanonicalize:
    def test_cancels_common_factors(self):
        e = (x**2 - 1) / (x - 1)
        assert kernel_oracle.expression_to_sympy(_canonical(e)) == x + 1

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
        K, (a,) = kernel_oracle.elements([e], (z, y, sp.Symbol("w"), x))
        assert symbolic.canonicalize_element(a) == _canonical(e)


def _elements(M):
    """A sympy matrix as (K, rows of elements of K), K = QQ(its free
    symbols sorted by name)."""
    K, elements = kernel_oracle.elements(list(M))
    return K, [elements[i * M.cols:(i + 1) * M.cols] for i in range(M.rows)]


def _generic_rank(M):
    K, rows = _elements(M)
    return symbolic.element_rank(K, rows, M.cols)


def _rank_at_point(M, point):
    K, rows = _elements(M)
    return symbolic.rational_rank(
        symbolic.element_values(K, rows, kernel_oracle.keyed(point)), M.cols)


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
            _, mixed = _elements(sp.Matrix([[a, b], [c, d]]) * base)
            assert symbolic.element_rref(K, mixed, 3)[0] == reference

    def test_rational_entries(self):
        K, rows = _elements(sp.Matrix([[1 / x, 1], [1, x]]))
        assert len(symbolic.element_rref(K, rows, 2)[1]) == 1

    @pytest.mark.parametrize("seed", range(50))
    def test_invariant_under_row_permutation(self, seed):
        """Rows are eliminated simplest first by dense Gauss-Jordan; the
        form equals sympy's own rref of the rows in any order."""
        rng = random.Random(seed + 1700)
        gens = (x, y)
        K, Q = kernel_oracle.function_field(gens), sp.ZZ.frac_field(*gens)
        independent = [[Q.from_sympy(_random_rational(rng, gens)) for _ in range(3)]
                       for _ in range(rng.randint(1, 2))]
        sympy_rows = independent + [
            [sum((Q(rng.randint(-2, 2)) * r[j] for r in independent), Q.zero)
             for j in range(3)]
            for _ in range(rng.randint(0, 2))]
        reference = DomainMatrix(sympy_rows, (len(sympy_rows), 3), Q).rref()
        rows, expected = ([[kernel_oracle.from_sympy(K, a) for a in row] for row in sympy_form]
                          for sympy_form in (sympy_rows, reference[0].to_list()))
        expected = (expected, tuple(reference[1]))
        assert symbolic.element_rref(K, rows, 3) == expected
        rng.shuffle(rows)
        assert symbolic.element_rref(K, rows, 3) == expected


class TestRanks:
    def test_generic_rank_full(self):
        M = sp.Matrix([[x, 1], [1, x]])
        assert _generic_rank(M) == 2

    def test_generic_rank_degenerate(self):
        M = sp.Matrix([[x, x * y], [1, y]])
        assert _generic_rank(M) == 1

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
        assert [symbolic.dot(K, row, v) for row in rows] == [K.zero] * 2


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
    sorted by name), or the rank of their jacobian_at a given point."""
    K, elements = kernel_oracle.elements(functions)
    variables = kernel_oracle.symbols(variables)
    if point is None:
        return symbolic.jacobian_rank(K, elements, variables)
    rows = symbolic.jacobian_at(K, elements, variables, kernel_oracle.keyed(point))
    return symbolic.rational_rank(rows, len(variables))


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
        wider, elements = kernel_oracle.elements(functions, (sp.Symbol("w"), x, y))
        assert symbolic.jacobian_rank(wider, elements, kernel_oracle.symbols([x, y])) == 2
        assert fraction_field_rrefs == [(2, 2)]

    def test_rows_certify_at_the_point_of_the_generators_they_use(
        self, fraction_field_rrefs
    ):
        """element_rank evaluates where certificate_jacobian does: the
        values of the certificate point go to the generators the rows use,
        in name order, not by position in the field.  Over QQ(y, x), rows
        in x alone take x = a, the point's first value."""
        a, b = symbolic._certificate_point(2)
        K, (vanishing, regular) = kernel_oracle.elements([x - a, x - b], (y, x))
        assert symbolic.element_rank(K, [[vanishing]], 1) == 1
        assert fraction_field_rrefs == [(1, 1)]
        assert symbolic.element_rank(K, [[regular]], 1) == 1
        assert fraction_field_rrefs == [(1, 1)]
        _, (square,) = kernel_oracle.elements([(x - a) ** 2], (y, x))
        assert symbolic.certificate_jacobian(K, [square], [x]) == [[0]]

    def test_certificate_point_is_fixed_and_nonzero(self):
        point = symbolic._certificate_point(12)
        assert point[:5] == symbolic._certificate_point(5)
        assert all(isinstance(v, int) and abs(v) >= 2 for v in point)
        assert len(set(point)) == len(point)

    def test_radical_point_values_are_rejected(self):
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


class TestJacobianAtPoint:
    """jacobian_at against the values of the Jacobian built with diff,
    jacobian_ranks against its two ranks, and the greedy unit_completion."""

    @staticmethod
    def _case(seed):
        """Random functions of (x, y, z) over QQ(x, y, z), some variables, a
        point, and the Jacobian built with diff."""
        rng = random.Random(seed + 7400)
        functions = [_random_rational(rng, [x, y, z]) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            # a dependent function makes the ranks fall short
            functions.append(functions[0] * functions[-1] + 1)
        K, elements = kernel_oracle.elements(functions, (x, y, z))
        variables = kernel_oracle.symbols(rng.sample([x, y, z], rng.randint(1, 3)))
        point = kernel_oracle.keyed(
            {g: sp.Rational(rng.randint(-2, 2), rng.randint(1, 2)) for g in (x, y, z)})
        return K, elements, variables, point, [[kernel_oracle.diff(a, v) for v in variables]
                                               for a in elements]

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_values_of_the_diff_jacobian(self, seed):
        K, elements, variables, point, jacobian = self._case(seed)
        assert (symbolic.jacobian_at(K, elements, variables, point)
                == symbolic.element_values(K, jacobian, point))

    @pytest.mark.parametrize("seed", range(12))
    def test_ranks_match_the_diff_jacobian(self, seed):
        K, elements, variables, point, jacobian = self._case(seed)
        at_point = symbolic.rational_rank(
            symbolic.element_values(K, jacobian, point), len(variables))
        generic = symbolic.element_rank(K, jacobian, len(variables))
        assert symbolic.jacobian_ranks(K, elements, variables, point) == (generic, at_point)

    def test_point_rank_falls_short(self):
        K, elements = kernel_oracle.elements([x * y])
        assert symbolic.jacobian_ranks(K, elements, kernel_oracle.symbols([x, y]),
                                       kernel_oracle.keyed({x: 0, y: 0})) == (1, 0)

    def test_pole_of_an_element_raises_without_a_column_for_it(self):
        K, elements = kernel_oracle.elements([1 / x + y])
        with pytest.raises(ZeroDivisionError):
            symbolic.jacobian_at(K, elements, kernel_oracle.symbols([y]),
                                 kernel_oracle.keyed({x: 0, y: 1}))

    def test_full_rank_at_the_point_skips_the_generic_rank(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the generic rank was computed")

        monkeypatch.setattr(symbolic, "jacobian_rank", refuse)
        K, elements = kernel_oracle.elements([x * y, x + y**2])
        assert symbolic.jacobian_ranks(K, elements, kernel_oracle.symbols([x, y]),
                                       kernel_oracle.keyed({x: 1, y: 2})) == (2, 2)

    def test_completion_keeps_columns_in_the_order_tried(self):
        QQ = symbolic.QQ
        rows = [[QQ(1), QQ(1), QQ(0)]]
        # the unit row of column 1 after column 0 adds nothing
        assert symbolic.unit_completion(rows, 3, [0, 1, 2], 2) == [0, 2]
        assert symbolic.unit_completion(rows, 3, [2, 1, 0], 2) == [2, 1]
        assert symbolic.unit_completion(rows, 3, [0, 1, 2], 0) == []
        # candidates that run out leave the completion short
        assert symbolic.unit_completion(rows, 3, [0, 1], 2) == [0]


def _solve(equations, unknowns):
    """solve_elements on expressions = 0 over QQ(the unknowns and their
    free symbols, sorted by name); the branches as sympy expressions keyed
    by sympy's symbols, in the order the elimination finds them."""
    symbols = set(unknowns).union(*(sp.sympify(e).free_symbols for e in equations))
    K, elements = kernel_oracle.elements(equations, sorted(symbols, key=lambda s: s.name))
    return [{kernel_oracle.sympy_symbol(s): kernel_oracle.as_expr(v) for s, v in sol.items()}
            for sol in symbolic.solve_elements(K, elements, kernel_oracle.symbols(unknowns))]


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
        assert info.value.unknown is symbolic.symbol("x")

    def test_giving_up_names_the_unknowns_left(self):
        # neither equation has a factor linear in x or y, and neither is
        # univariate, so the elimination has no step to take
        with pytest.raises(UnsolvedEquationsError) as info:
            _solve([x**2 + y**2 - 2, x**2 - y**3], [x, y, z])
        assert info.value.unknowns == (symbolic.symbol("x"), symbolic.symbol("y"))
        assert isinstance(info.value, UnsupportedEquationError)

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
    return kernel_oracle.system(
        name="triangular%d" % n,
        states=states,
        inputs=(u,),
        update=tuple(update),
        equilibrium={s: 0 for s in states + (u,)},
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
        equations = [kernel_oracle.sympy_symbol(c) - kernel_oracle.as_expr(chart.forward[c])
                     for c in chart.coords]
        unknowns = [kernel_oracle.sympy_symbol(v) for v in system.variables]
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
    K, elements = kernel_oracle.elements(row)
    return [kernel_oracle.as_expr(a) for a in symbolic.clear_element_row(K, elements)[0]]


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


def _integer_polynomials(ring, exprs):
    """Polynomial expressions with rational coefficients as polynomials of
    sympy's integer ring, all multiplied by the one least positive integer
    that clears their denominators, so their ratios do not change."""
    scale = sp.ilcm(1, *(sp.fraction(c)[1] for e in exprs
                         for c in sp.Poly(e, *ring.symbols).coeffs()))
    return [ring.from_expr(sp.expand(scale * e)) for e in exprs]


class TestClearFractionRow:
    """clear_fraction_row clears numerators over one denominator not in
    lowest terms exactly as clear_element_row clears the row's elements."""

    FACTORS = (x + 1, x - y, 2 * y * z + 3, sp.Rational(1, 2) * z)

    @pytest.mark.parametrize("seed", range(50))
    def test_same_row_and_factor_as_clear_element_row(self, seed):
        rng = random.Random(seed + 7300)
        K = kernel_oracle.function_field((x, y, z))
        F = kernel_oracle.sympy_field(K)
        # factors shared by the denominator and some or all numerators
        shared = sp.Mul(*(rng.choice(self.FACTORS) for _ in range(rng.randint(0, 3))))
        denominator = shared * sp.Mul(
            *(rng.choice(self.FACTORS) for _ in range(rng.randint(0, 2))))
        numerators = [
            sp.Integer(0) if rng.random() < 0.25 else
            rng.choice([shared, 1]) * _random_polynomial(rng, (x, y, z))
            for _ in range(rng.randint(1, 4))]
        denominator, *numerators = _integer_polynomials(F.ring, [denominator] + numerators)
        row = [kernel_oracle.from_sympy(K, F.new(p, denominator)) for p in numerators]
        numerators = list(map(kernel_oracle.poly_from_sympy, numerators))
        denominator = kernel_oracle.poly_from_sympy(denominator)
        assert (symbolic.clear_fraction_row(K, numerators, denominator)
                == symbolic.clear_element_row(K, row))

    def test_zero_row(self):
        K = kernel_oracle.function_field((x, y))
        ring = K.ring
        assert symbolic.clear_fraction_row(K, [ring.zero] * 2, ring.gens[0]) == \
            ([K.zero] * 2, K.one)


def _oracle_entry(rng, gens):
    """A seeded random rational function with rational coefficients, or
    zero one time in four."""
    if rng.random() < 0.25:
        return sp.Integer(0)
    scale = sp.Rational(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 1, 2, 3, 4]))
    return scale * _random_rational(rng, gens) + sp.Rational(rng.randint(-2, 2), rng.randint(1, 3))


def _kernel_cofactors(P, Q):
    """symbolic._cofactors of the sympy polynomials P and Q, converted."""
    return symbolic._cofactors(*map(kernel_oracle.poly_from_sympy, (P, Q)))


def _pair(a):
    """The numerator and denominator of a field element as dicts of
    monomials and coefficients, whichever its coefficient domain."""
    return dict(a.numer), dict(a.denom)


def _integer_poly(rng, ring, used, terms=3, degree=2, constant=True, bound=None):
    """A seeded random polynomial of sympy's integer polynomial ring in
    the generators at the indices used, a constant term added one time in
    two.  Its coefficients are small, or up to bound in size when bound
    is given."""
    poly = ring.zero
    for _ in range(terms):
        monomial = ring.one
        for _ in range(rng.randint(1, degree)):
            monomial *= ring.gens[rng.choice(used)]
        coeff = rng.randint(-bound, bound) if bound else rng.choice([-3, -2, -1, 1, 2, 5])
        poly += coeff * monomial
    if constant and rng.random() < 0.5:
        poly += rng.randint(-3, 3)
    return poly or ring.gens[used[0]]


class TestKernelOracle:
    """The kernel's fused arithmetic against sympy's own over the field
    QQ(gens) with rational coefficients, sympy's ``QQ.frac_field``: the
    same canonical pairs, entry by entry.  Its gcd, ``_cofactors``, is
    checked against sympy's ``PolyElement.cofactors``: the same gcd and
    cofactors, compared as dicts of monomials and coefficients, over
    pairs that take each of its paths:

    - the shortcuts for zero and monomials;
    - the proof of a constant gcd from univariate images;
    - the heuristic gcd ``_heugcd`` in the generators that the pair uses,
      in Z[w, x, y, z] and in 5 to 8 of 12 generators with coefficients
      up to 10**12;
    - pinned pairs whose first evaluation point fails, so that the gcd is
      read from the cofactor of p or of q, or the point grows;
    - sympy's dense gcd, where the heuristic gives up.

    Where the pair leaves generators out, sympy's gcd runs in the ring of
    the generators it uses, as ``_cofactors`` does: the heuristic
    evaluates every generator of its ring, so a ring with more of them
    can accept a different but equally valid triple."""

    GENS = (x, y, z)
    SHAPES = [(1, 1), (1, 4), (4, 1), (2, 3), (3, 3), (4, 2)]

    @staticmethod
    def _fields():
        gens = TestKernelOracle.GENS
        return kernel_oracle.function_field(gens), sp.QQ.frac_field(*gens)

    @pytest.mark.parametrize("seed", range(30))
    def test_element_rref_matches_domain_matrix(self, seed):
        """Zero rows, rank-deficient matrices, single rows and single
        columns included."""
        rng = random.Random(seed + 8100)
        nrows, ncols = self.SHAPES[seed % len(self.SHAPES)]
        exprs = [[_oracle_entry(rng, self.GENS) for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1 and seed % 3:
            # a rank deficit: the last row combines the others, or vanishes
            c = [rng.randint(-2, 2) for _ in range(nrows - 1)]
            exprs[-1] = [sum((ci * row[j] for ci, row in zip(c, exprs)), sp.Integer(0))
                         for j in range(ncols)]
        K, Q = self._fields()
        rows = [[kernel_oracle.from_sympy(K, e) for e in row] for row in exprs]
        reference, pivots = DomainMatrix(
            [[Q.from_sympy(e) for e in row] for row in exprs], (nrows, ncols), Q).rref()
        rref, got_pivots = symbolic.element_rref(K, rows, ncols)
        assert got_pivots == tuple(pivots)
        assert [[_pair(a) for a in row] for row in rref] == \
            [[_pair(b) for b in row] for row in reference.to_list()]

    RATIONAL_SHAPES = [(0, 3), (1, 1), (1, 4), (4, 1), (2, 5), (5, 2), (3, 3), (4, 4)]
    ROW_KINDS = ["random", "zero", "repeated", "combined"]

    @pytest.mark.parametrize("seed", range(40))
    def test_rational_rref_matches_domain_matrix(self, seed):
        """Rows of rational numbers go through the same Gauss-Jordan loop:
        the same form and pivots as sympy's DomainMatrix over QQ, for no
        rows at all, wide and tall shapes, zero rows, repeated rows and
        rows that combine earlier ones (rank deficits)."""
        rng = random.Random(seed + 8600)
        nrows, ncols = self.RATIONAL_SHAPES[seed % len(self.RATIONAL_SHAPES)]
        Q = sp.QQ

        def entry():
            return Q(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.7 else Q.zero

        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        for i in range(1, nrows):
            kind = self.ROW_KINDS[(seed + i) % len(self.ROW_KINDS)]
            if kind == "zero":
                rows[i] = [Q.zero] * ncols
            elif kind == "repeated":
                rows[i] = list(rows[rng.randrange(i)])
            elif kind == "combined":
                c = [Q(rng.randint(-2, 2)) for _ in range(i)]
                rows[i] = [sum((cj * r[j] for cj, r in zip(c, rows)), Q.zero)
                           for j in range(ncols)]
        reference, pivots = DomainMatrix(rows, (nrows, ncols), Q).rref()
        rows = [[symbolic.QQ(a.numerator, a.denominator) for a in row] for row in rows]
        assert symbolic.element_rref(symbolic.QQ, rows, ncols) == (reference.to_list(),
                                                                   tuple(pivots))

    def test_element_rref_of_zero_rows(self):
        K, _ = self._fields()
        assert symbolic.element_rref(K, [[K.zero] * 3] * 2, 3) == ([[K.zero] * 3] * 2, ())

    @pytest.mark.parametrize("seed", range(20))
    def test_dot_matches_sum(self, seed):
        rng = random.Random(seed + 8200)
        K, _ = self._fields()
        n = rng.randint(0, 4)
        u = [kernel_oracle.from_sympy(K, _oracle_entry(rng, self.GENS)) for _ in range(n)]
        v = [kernel_oracle.from_sympy(K, _oracle_entry(rng, self.GENS)) for _ in range(n)]
        to_sympy = kernel_oracle.to_sympy
        expected = sum((to_sympy(a) * to_sympy(b) for a, b in zip(u, v)),
                       kernel_oracle.sympy_field(K).zero)
        assert _pair(symbolic.dot(K, u, v)) == _pair(expected)

    @pytest.mark.parametrize("seed", range(20))
    def test_depends_on_matches_diff(self, seed):
        rng = random.Random(seed + 8300)
        K, _ = self._fields()
        F = kernel_oracle.sympy_field(K)
        a = F.from_expr(_oracle_entry(rng, (x, y)))
        # 1 / a swaps the parts: a generator only its denominator uses
        for b in [a, 1 / a] if a else [a]:
            for s, g in zip(self.GENS, F.gens):
                assert (symbolic.depends_on(kernel_oracle.from_sympy(K, b),
                                            symbolic.symbol(s.name)) == bool(b.diff(g)))

    @pytest.mark.parametrize("seed", range(20))
    def test_derivative_mod_rows_matches_stepwise_elimination(self, seed):
        """The residual of a row's derivative modulo an echelon form equals
        .diff followed by subtracting d[pc] * r one echelon row at a time."""
        rng = random.Random(seed + 8400)
        K, _ = self._fields()
        ncols = rng.randint(1, 4)
        rows = [[kernel_oracle.from_sympy(K, _oracle_entry(rng, self.GENS)) for _ in range(ncols)]
                for _ in range(rng.randint(1, 3))]
        rref, pivots = symbolic.element_rref(K, rows, ncols)
        rref = rref[:len(pivots)]
        row = [kernel_oracle.from_sympy(K, _oracle_entry(rng, self.GENS)) for _ in range(ncols)]
        to_sympy = kernel_oracle.to_sympy
        for s, g in zip(self.GENS, kernel_oracle.sympy_field(K).gens):
            expected = [to_sympy(a).diff(g) for a in row]
            for r, pc in zip(rref, pivots):
                fac = expected[pc]
                expected = [a - fac * to_sympy(b) for a, b in zip(expected, r)]
            got = symbolic.derivative_mod_rows(K, row, symbolic.symbol(s.name), rref, pivots)
            assert [_pair(a) for a in got] == [_pair(b) for b in expected]

    @pytest.mark.parametrize("seed", range(20))
    def test_fraction_elements_have_the_canonical_integer_coefficients(self, seed):
        rng = random.Random(seed + 8500)
        exprs = [_oracle_entry(rng, self.GENS) for _ in range(3)]
        _, elements = kernel_oracle.elements(exprs, self.GENS)
        _, Q = self._fields()
        for a, e in zip(elements, exprs):
            assert _pair(a) == _pair(Q.from_sympy(e))
            assert all(sp.ZZ.of_type(c) for c in a.numer.values())

    @staticmethod
    def _ring():
        """sympy's Z[w, x, y, z]; the operands of _cofactors are drawn in
        it and converted."""
        return sp.ring("w, x, y, z", sp.ZZ)[0]

    @staticmethod
    def _check(P, Q):
        p, q = map(kernel_oracle.poly_from_sympy, (P, Q))
        assert [dict(a) for a in symbolic._cofactors(p, q)] == [dict(b) for b in P.cofactors(Q)]

    @pytest.mark.parametrize("seed", range(20))
    def test_factor_planted_in_the_shared_generators(self, seed):
        """w is left out, so sympy's gcd runs in the ring of x, y, z."""
        rng = random.Random(seed + 8600)
        ring = self._ring()
        common = _integer_poly(rng, ring, [1, 2], constant=False) + rng.choice([1, -2])
        p = common * _integer_poly(rng, ring, [1, 2, 3])
        q = common * _integer_poly(rng, ring, [1, 2, 3]) * rng.choice([1, 2, -3])
        self._check(p, q)

    @pytest.mark.parametrize("seed", range(20))
    def test_pair_without_a_shared_generator(self, seed):
        rng = random.Random(seed + 8700)
        ring = self._ring()
        p = _integer_poly(rng, ring, [0, 1]) * rng.choice([1, 4, -6])
        q = _integer_poly(rng, ring, [2, 3]) * rng.choice([1, 6, -10])
        self._check(p, q)

    @pytest.mark.parametrize("seed", range(20))
    def test_factor_in_one_generator_only(self, seed):
        rng = random.Random(seed + 8800)
        ring = self._ring()
        common = _integer_poly(rng, ring, [2], constant=False) + rng.choice([1, -1, 3])
        p = common * _integer_poly(rng, ring, [0, 1, 2])
        q = common * _integer_poly(rng, ring, [1, 2, 3])
        self._check(p, q)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_pairs(self, seed):
        """Mostly coprime pairs over shared generators: the proof path."""
        rng = random.Random(seed + 8900)
        ring = self._ring()
        p = _integer_poly(rng, ring, [0, 1, 2, 3], terms=4) * rng.choice([1, 2, -2])
        q = _integer_poly(rng, ring, [1, 2, 3], terms=4) * rng.choice([1, 3, -4])
        self._check(p, q)

    def test_leading_coefficient_vanishing_at_the_point_falls_back(self):
        """(x - a)(y - b) + 1 divides both, a and b the values the images
        give x and y.  Both leading coefficients in x vanish at y = b and
        both in y at x = a, and the images are coprime in each, so only
        the degree check keeps the pair from being called coprime."""
        ring = self._ring()
        _, X, Y, _ = ring.gens
        _, a, b, _ = symbolic._image_point(ring.ngens)
        common = (X - a) * (Y - b) + 1
        P, Q = common * (X + Y), common * (X - Y + 1)
        p, q = map(kernel_oracle.poly_from_sympy, (P, Q))
        assert not symbolic._shares_no_generator(p, q, [1, 2])
        self._check(P, Q)
        assert symbolic._cofactors(p, q)[0] == kernel_oracle.poly_from_sympy(common)

    def test_contents_signs_monomials_and_zero(self):
        ring = self._ring()
        W, X, Y, Z = ring.gens
        pairs = [
            (6 * X + 4 * Y, 10 * X * Y + 2),
            (-3 * X**2 - 3, 6 * Y + 6 * Z),
            (-2 * X * Y + 4, -6 * X - 2 * W),
            (X**2 * Y, 2 * X * Y + X),
            (-4 * X * Z, 6 * X**2 - 2 * X),
            (ring(4), 6 * X + 2),
            (ring.zero, -2 * X + 1),
            (3 * Y - 6, ring.zero),
            (ring.zero, ring.zero),
        ]
        for p, q in pairs:
            self._check(p, q)
            self._check(q, p)

    @staticmethod
    def _wide_ring():
        return sp.ring(sp.symbols("a0:12"), sp.ZZ)[0]

    @staticmethod
    def _check_in_used_generators(P, Q):
        """_cofactors of the sympy polynomials P and Q, converted, against
        sympy's cofactors in the ring of only the generators that P or Q
        uses."""
        ring = P.ring
        used = [i for i, (a, b) in enumerate(zip(P.degrees(), Q.degrees())) if a or b]
        sub = ring.drop(*(g for i, g in enumerate(ring.gens) if i not in used))

        def down(poly):
            return {tuple(m[i] for i in used): c for m, c in poly.iterterms()}

        expected = sub.from_dict(down(P)).cofactors(sub.from_dict(down(Q)))
        got = symbolic._cofactors(*map(kernel_oracle.poly_from_sympy, (P, Q)))
        assert [down(a) for a in got] == [dict(b) for b in expected]

    @pytest.mark.parametrize("seed", range(20))
    def test_heugcd_in_many_generators(self, seed):
        """A factor planted in 4 of the 5 to 8 generators of 12 that the
        pair uses, each factor of degree up to 4."""
        rng = random.Random(seed + 9500)
        ring = self._wide_ring()
        used = rng.sample(range(12), rng.randint(5, 8))
        bound = rng.choice([10, 1000, 10**12])
        common = _integer_poly(rng, ring, used[:4], terms=rng.randint(2, 4), degree=4, bound=bound)
        p = common * _integer_poly(rng, ring, used, terms=rng.randint(2, 5), degree=4, bound=bound)
        q = common * _integer_poly(rng, ring, used, terms=rng.randint(2, 5), degree=4, bound=bound)
        self._check_in_used_generators(p, q)
        assert not _kernel_cofactors(p, q)[0].is_ground

    # (seed, (n, k)): pairs of the generator below whose first evaluation
    # point fails, found by a seeded search.  At the top level the gcd is
    # read back n times at k distinct points: (2, 1) accepts the cofactor
    # of p, (3, 1) that of q, and k > 1 grows the point.
    FIRST_POINT_FAILS = [(5, (2, 1)), (2, (3, 1)), (191, (4, 2)), (63, (5, 2)), (75, (6, 2)),
                         (8, (7, 3))]

    @pytest.mark.parametrize("seed, reads", FIRST_POINT_FAILS)
    def test_heugcd_when_the_first_point_fails(self, monkeypatch, seed, reads):
        """A small factor and large ones, or the other way round: an
        integer gcd whose base-xi digits overflow is not the gcd's
        image.  Only the pair's own points are counted, not those of the
        calls on univariate images that try to prove it coprime."""
        rng = random.Random(seed + 9600)
        ring = self._wide_ring()
        used = rng.sample(range(12), rng.randint(1, 4))
        common, p, q = (
            _integer_poly(rng, ring, used, terms=rng.randint(2, 3), degree=3,
                          bound=rng.choice([3, 10**12]))
            for _ in range(3))
        p, q = common * p, common * q
        depth, proving, points = [0], [False], []
        heugcd, interpolate = symbolic._heugcd, symbolic._interpolate
        shares_no_generator = symbolic._shares_no_generator

        def counted(f, g):
            if proving[0]:
                return heugcd(f, g)
            depth[0] += 1
            try:
                return heugcd(f, g)
            finally:
                depth[0] -= 1

        def recorded(image, xi):
            if depth[0] == 1:
                points.append(xi)
            return interpolate(image, xi)

        def proof(*args):
            proving[0] = True
            try:
                return shares_no_generator(*args)
            finally:
                proving[0] = False

        monkeypatch.setattr(symbolic, "_heugcd", counted)
        monkeypatch.setattr(symbolic, "_interpolate", recorded)
        monkeypatch.setattr(symbolic, "_shares_no_generator", proof)
        self._check_in_used_generators(p, q)
        assert (len(points), len(set(points))) == reads

    @pytest.mark.parametrize("seed", range(10))
    def test_dense_gcd_when_the_heuristic_gives_up(self, monkeypatch, seed):
        monkeypatch.setattr(symbolic, "_HEUGCD_ATTEMPTS", 0)
        rng = random.Random(seed + 9700)
        ring = self._ring()
        common = _integer_poly(rng, ring, [1, 2], constant=False) + rng.choice([1, -2])
        p = common * _integer_poly(rng, ring, [0, 1, 2]) * rng.choice([1, 2, -3])
        q = common * _integer_poly(rng, ring, [1, 2, 3])
        with pytest.raises(HeuristicGCDFailed):
            symbolic._heugcd(dict(p), dict(q))
        self._check(p, q)
        assert not _kernel_cofactors(p, q)[0].is_ground

    @pytest.mark.parametrize("seed", range(10))
    def test_dense_gcd_in_the_used_generators(self, monkeypatch, seed):
        """Where the heuristic gives up on a pair that uses 5 to 8 of 12
        generators, the dense gcd over only those generators gives sympy's
        triple, and the triple of the dense gcd over all 12."""
        monkeypatch.setattr(symbolic, "_HEUGCD_ATTEMPTS", 0)
        rng = random.Random(seed + 9800)
        ring = self._wide_ring()
        used = rng.sample(range(12), rng.randint(5, 8))
        common = _integer_poly(rng, ring, used[:4], terms=rng.randint(2, 3), degree=2)
        p = common * _integer_poly(rng, ring, used, terms=rng.randint(2, 4), degree=2)
        q = common * _integer_poly(rng, ring, used, terms=rng.randint(2, 4), degree=2)
        self._check_in_used_generators(p, q)
        everywhere = dmp_rr_prs_gcd(p.to_dense(), q.to_dense(), ring.ngens - 1, sp.ZZ)
        assert list(_kernel_cofactors(p, q)) == [
            kernel_oracle.poly_from_sympy(ring.from_dense(a)) for a in everywhere]
        assert not _kernel_cofactors(p, q)[0].is_ground

    @pytest.mark.parametrize("seed", range(10))
    def test_lcm_matches_sympy(self, seed):
        rng = random.Random(seed + 9000)
        ring = self._ring()
        common = _integer_poly(rng, ring, [1, 2], constant=False) + 1
        polys = [_integer_poly(rng, ring, [0, 1, 2]) * rng.choice([common, ring.one, 2])
                 for _ in range(rng.randint(1, 3))]
        expected = polys[0]
        for poly in polys[1:]:
            expected = expected.lcm(poly)
        polys = list(map(kernel_oracle.poly_from_sympy, polys))
        assert dict(symbolic._lcm(polys, polys[0].ring.one)) == dict(expected)


    @pytest.mark.parametrize("seed", range(20))
    def test_derivative_matches_diff(self, seed):
        rng = random.Random(seed + 9100)
        K, _ = self._fields()
        a = kernel_oracle.from_sympy(K, _oracle_entry(rng, self.GENS))
        for s in kernel_oracle.symbols(self.GENS):
            assert _pair(symbolic.derivative(a, s)) == _pair(kernel_oracle.diff(a, s))

    @pytest.mark.parametrize("seed", range(20))
    def test_composed_derivative_matches_diff_then_compose(self, seed):
        rng = random.Random(seed + 9200)
        a_, b_ = sp.symbols("a b")
        (K, _), target = self._fields(), kernel_oracle.function_field((a_, b_))
        images = {symbolic.symbol(s.name): kernel_oracle.from_sympy(target, e)
                  for s, e in [(x, a_ + b_), (y, a_ * b_ - 1), (z, a_ / (b_ + 2))]}
        a = kernel_oracle.from_sympy(K, _oracle_entry(rng, self.GENS))
        for s in kernel_oracle.symbols(self.GENS):
            try:
                expected = _pair(symbolic.compose(kernel_oracle.diff(a, s), images, target))
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    symbolic.compose_derivative(a, s, images, target)
                continue
            assert _pair(symbolic.compose_derivative(a, s, images, target)) == expected

    @pytest.mark.parametrize("seed", range(20))
    def test_difference_matches_subtraction(self, seed):
        rng = random.Random(seed + 9300)
        K, _ = self._fields()
        a, b = (kernel_oracle.from_sympy(K, _oracle_entry(rng, self.GENS)) for _ in range(2))
        assert _pair(symbolic.difference(a, b)) == \
            _pair(kernel_oracle.to_sympy(a) - kernel_oracle.to_sympy(b))
        assert _pair(symbolic.difference(a, a)) == _pair(K.zero)

    @pytest.mark.parametrize("seed", range(10))
    def test_defining_equations_match_subtraction(self, seed):
        rng = random.Random(seed + 9400)
        s, t = sp.symbols("s t")
        definitions = {symbolic.symbol(s.name): _element(_oracle_entry(rng, (x, y)) + x),
                       symbolic.symbol(t.name): _element(_oracle_entry(rng, (y,)) + y)}
        K = symbolic.field(kernel_oracle.symbols((x, y, s, t)))
        equations = symbolic.defining_equations(K, definitions)
        for g, (sym, v) in zip(equations, definitions.items()):
            expected = (kernel_oracle.sympy_field(K).from_expr(kernel_oracle.sympy_symbol(sym))
                        - kernel_oracle.to_sympy(symbolic.rename(v, K, {})))
            assert _pair(g) == _pair(expected)


class TestPolynomialOracle:
    """The kernel's own integer polynomials against sympy's ``PolyElement``
    over the same generators, compared as dicts of monomials and
    coefficients: sums, differences, negation, products, powers, exact
    quotients, derivatives, coefficients in one generator, degrees,
    leading coefficients, equality and the ``_cofactors`` triple.  The
    operands are seeded random polynomials in 1 to 12 generators; zero
    and monomial operands, negated ones and ones with an integer content
    are among them."""

    KINDS = ("zero", "monomial", "sum", "sum", "sum")

    @classmethod
    def _operands(cls, seed):
        """Two polynomials of sympy's ring of 1 to 12 generators, by seed,
        and the same two as polynomials of the kernel's ring."""
        rng = random.Random(seed + 9900)
        ngens = 1 + seed % 12
        ring = sp.ring(sp.symbols("g0:%d" % ngens), sp.ZZ)[0]

        def draw():
            kind = rng.choice(cls.KINDS)
            if kind == "zero":
                return ring.zero
            used = rng.sample(range(ngens), rng.randint(1, min(ngens, 4)))
            terms = 1 if kind == "monomial" else rng.randint(2, 5)
            poly = _integer_poly(rng, ring, used, terms=terms, degree=3,
                                 constant=kind != "monomial")
            return poly * rng.choice([1, 1, -1, 2, -6])

        P, Q = draw(), draw()
        return P, Q, kernel_oracle.poly_from_sympy(P), kernel_oracle.poly_from_sympy(Q)

    SEEDS = range(60)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_arithmetic(self, seed):
        P, Q, p, q = self._operands(seed)
        assert dict(p + q) == dict(P + Q)
        assert dict(p - q) == dict(P - Q)
        assert dict(-p) == dict(-P)
        assert dict(p * q) == dict(P * Q)
        for k in range(0 if p else 1, 4):
            assert dict(p**k) == dict(P**k)
        assert (p == q) == (P == Q) and (p != q) == (P != Q)
        assert p + q - q == p and hash(p + q - q) == hash(p)
        assert (p == p.ring.zero) == (not P)
        assert (p.is_ground, p.is_one) == (P.is_ground, P.is_one)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_exact_quotient(self, seed):
        P, Q, p, q = self._operands(seed)
        if not q:
            return
        assert dict((p * q).exquo(q)) == dict((P * Q).exquo(Q)) == dict(p)
        if len(p) > 1 and not q.is_ground:
            with pytest.raises(ArithmeticError):
                (p * q + p.ring.one).exquo(q)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_derivatives_degrees_and_coefficients(self, seed):
        P, _, p, _ = self._operands(seed)
        assert p.degrees() == P.degrees()
        assert p.LC == P.LC
        for i, g in enumerate(P.ring.gens):
            assert dict(p.diff(i)) == dict(P.diff(g))
            assert p.degree(i) == P.degree(g)
            for d in range(3):
                assert dict(p.coeff_wrt(i, d)) == dict(P.coeff_wrt(i, d))
        term = (tuple(i % 3 for i in range(P.ring.ngens)), -4)
        assert dict(p.mul_term(term)) == dict(P.mul_term(term))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cofactors(self, seed):
        """Zero operands against sympy's cofactors in the whole ring, the
        others in the ring of the generators they use (see
        TestKernelOracle)."""
        P, Q, _, _ = self._operands(seed)
        check = (TestKernelOracle._check_in_used_generators if P and Q
                 else TestKernelOracle._check)
        check(P, Q)
        check(Q, P)


class TestRename:
    def test_renamed_fraction_stays_canonical(self):
        a, b = sp.symbols("a b")
        source, (e,) = kernel_oracle.elements([(x**2 + y) / (x - y)], (x, y))
        target = kernel_oracle.function_field((a, b, z))
        moved = symbolic.rename(e, target, dict(zip(kernel_oracle.symbols((x, y)),
                                                    kernel_oracle.symbols((b, a)))))
        # canonical form: equal to the same function converted directly
        assert moved == kernel_oracle.from_sympy(target, (b**2 + a) / (b - a))
        assert moved.denom.LC > 0

    def test_missing_generator_raises(self):
        _, (e,) = kernel_oracle.elements([x * y], (x, y))
        with pytest.raises(GeneratorsError):
            symbolic.rename(e, kernel_oracle.function_field((x,)), {})


class TestComposeIntoAnotherField:
    def test_result_lives_in_the_target_field(self):
        a, b = sp.symbols("a b")
        _, (e,) = kernel_oracle.elements([(x**2 + y) / (x - y)], (x, y))
        target, (p, q) = kernel_oracle.elements([a * b, a + 1], (a, b))
        moved = symbolic.compose(e, kernel_oracle.keyed({x: p, y: q}), target)
        assert moved == kernel_oracle.from_sympy(target, ((a * b) ** 2 + a + 1) / (a * b - a - 1))

    def test_generator_without_image_raises(self):
        _, (e,) = kernel_oracle.elements([x * y], (x, y))
        target = kernel_oracle.function_field((z,))
        with pytest.raises(GeneratorsError):
            symbolic.compose(e, {x: target.gens[0]}, target)

    def test_renaming_takes_no_gcd(self, monkeypatch):
        a, b = sp.symbols("a b")
        _, (e,) = kernel_oracle.elements([(x**2 + y) / (x - y)], (x, y, z))
        target = kernel_oracle.function_field((a, b))
        A, B = target.gens

        def refuse(*args):
            raise AssertionError("a renaming went through the substitution")

        monkeypatch.setattr(symbolic, "_compose_by_index", refuse)
        moved = symbolic.compose(e, kernel_oracle.keyed({x: B, y: A, z: A}), target)
        assert moved == kernel_oracle.from_sympy(target, (b**2 + a) / (b - a))

    @pytest.mark.parametrize("images", [
        # two generators onto one, and an image that is no bare generator
        lambda a, b: {x: a, y: a},
        lambda a, b: {x: 2 * a, y: b},
        lambda a, b: {x: a / b, y: b},
    ])
    def test_images_that_do_not_rename_are_substituted(self, images):
        a, b = sp.symbols("a b")
        _, (e,) = kernel_oracle.elements([(x**2 + y) / (x + 2 * y)], (x, y))
        target = kernel_oracle.function_field((a, b))
        chosen = {symbolic.symbol(s.name): kernel_oracle.from_sympy(target, v)
                  for s, v in images(a, b).items()}
        expected = ((x**2 + y) / (x + 2 * y)).subs(images(a, b), simultaneous=True)
        assert symbolic.compose(e, chosen, target) == \
            kernel_oracle.from_sympy(target, sp.cancel(expected))

    def test_image_of_an_unused_generator_is_ignored(self):
        a, b = sp.symbols("a b")
        _, (e,) = kernel_oracle.elements([x + 1], (x, y))
        target, (p, q) = kernel_oracle.elements([a * b, 1 / a], (a, b))
        moved = symbolic.compose(e, kernel_oracle.keyed({x: p, y: q, z: q}), target)
        assert moved == kernel_oracle.from_sympy(target, a * b + 1)


class TestSolveElements:
    def test_same_branches_as_the_expression_solver(self):
        equations = [x**2 - y**2, x * z - 1]
        K, elements = kernel_oracle.elements(equations, (x, y, z))
        found = symbolic.solve_elements(K, elements, kernel_oracle.symbols([x, z]))
        as_expressions = [{kernel_oracle.sympy_symbol(s): kernel_oracle.as_expr(v)
                           for s, v in sol.items()} for sol in found]
        assert all(v.field is K for sol in found for v in sol.values())
        oracle = sp.solve(equations, [x, z], dict=True)
        assert _canonical_branches(as_expressions) == _canonical_branches(oracle)


class TestCompose:
    """compose within an element's own field, where a generator without
    an image is kept."""

    def test_simultaneous(self):
        K, (e, a, b) = kernel_oracle.elements([x - 2 * y, y, x], (x, y))
        assert (symbolic.compose(e, kernel_oracle.keyed({x: a, y: b}))
                == kernel_oracle.from_sympy(K, y - 2 * x))

    def test_result_in_lowest_terms(self):
        K, (e, image) = kernel_oracle.elements([x / (x + y), x * z], (x, y, z))
        result = symbolic.compose(e, kernel_oracle.keyed({y: image}))
        expected = kernel_oracle.from_sympy(K, 1 / (z + 1))
        assert (result.numer, result.denom) == (expected.numer, expected.denom)

    def test_removable_singularity_is_not_a_pole(self):
        K, (e, one) = kernel_oracle.elements([(x**2 - 1) / (x - 1), sp.Integer(1)], (x,))
        assert symbolic.compose(e, kernel_oracle.keyed({x: one})) == kernel_oracle.from_sympy(K, 2)

    def test_vanishing_denominator_raises(self):
        _, (e, image) = kernel_oracle.elements([1 / (x - y), y], (x, y))
        with pytest.raises(ZeroDivisionError):
            symbolic.compose(e, kernel_oracle.keyed({x: image}))

    def test_generators_the_element_does_not_use_are_ignored(self):
        _, (e, image) = kernel_oracle.elements([x + 1, x**2], (x, y))
        assert symbolic.compose(e, {y: image}) is e

    def test_constant_into_another_field(self):
        _, (e,) = kernel_oracle.elements([sp.Rational(3, 6)], (x,))
        target = kernel_oracle.function_field((y,))
        assert symbolic.compose(e, {x: target.gens[0]}, target) == \
            kernel_oracle.from_sympy(target, sp.Rational(1, 2))


class TestBranchThrough:
    """branch_through picks the first solved branch that takes at a point
    the values the point gives the unknowns, and raises when none does;
    invert keeps the branch of a coordinate change through a point."""

    def _branches(self, *branches):
        K = kernel_oracle.function_field((x, y))
        return K, [{symbolic.symbol(s.name): kernel_oracle.from_sympy(K, v) for s, v in b.items()}
                   for b in branches]

    @staticmethod
    def _through(K, sols, unknowns, point):
        """branch_through with the unknowns and the point's keys by name."""
        return symbolic.branch_through(K, sols, kernel_oracle.symbols(unknowns),
                                       kernel_oracle.keyed(point))

    def test_first_passing_branch(self):
        K, sols = self._branches({x: y - 1}, {x: 2 * y}, {x: y**2})
        assert self._through(K, sols, [x], {x: 2, y: 1}) is sols[1]

    def test_pole_at_the_point_is_skipped(self):
        K, sols = self._branches({x: 1 / (y - 1)}, {x: y + 1})
        assert self._through(K, sols, [x], {x: 2, y: 1}) is sols[1]

    def test_branch_missing_an_unknown_is_skipped(self):
        K, sols = self._branches({x: y + 1}, {x: y + 1, y: sp.Integer(1)})
        assert self._through(K, sols, [x, y], {x: 2, y: 1}) is sols[1]

    def test_raises_when_no_branch_passes(self):
        K, sols = self._branches({x: y - 1}, {x: 1 / (y - 1)})
        with pytest.raises(UnsupportedEquationError) as info:
            self._through(K, sols, [x], {x: 2, y: 1})
        assert str(info.value) == "no solved branch passes through the point"

    def test_invert_through_the_point(self):
        """(s, t) = (x y, y) is inverted by x = s / t, y = t, and the point
        (x, y) = (2, 1) goes to (s, t) = (2, 1)."""
        s, t = sp.symbols("s t")
        K = symbolic.field(kernel_oracle.symbols((s, t, x, y)))
        P = symbolic.field(kernel_oracle.symbols((x, y)))
        definitions = kernel_oracle.keyed({s: kernel_oracle.from_sympy(P, x * y),
                                           t: kernel_oracle.from_sympy(P, y)})
        branch, values = symbolic.invert(K, definitions, kernel_oracle.symbols([x, y]),
                                         kernel_oracle.keyed({x: 2, y: 1}))
        assert ({v: kernel_oracle.as_expr(a) for v, a in branch.items()}
                == kernel_oracle.keyed({x: s / t, y: t}))
        assert values == kernel_oracle.keyed({s: 2, t: 1})

    def test_invert_raises_where_the_jacobian_is_singular(self):
        """At y = 0 the change (x y, y) is singular: its only branch has a
        pole at the image (0, 0)."""
        s, t = sp.symbols("s t")
        K = symbolic.field(kernel_oracle.symbols((s, t, x, y)))
        P = symbolic.field(kernel_oracle.symbols((x, y)))
        with pytest.raises(UnsupportedEquationError) as info:
            symbolic.invert(K, kernel_oracle.keyed({s: kernel_oracle.from_sympy(P, x * y),
                                                     t: kernel_oracle.from_sympy(P, y)}),
                            kernel_oracle.symbols([x, y]), kernel_oracle.keyed({x: 2, y: 0}))
        assert str(info.value) == "no solved branch passes through the point"


def _value(e, point):
    """element_values of one expression over QQ(its free symbols)."""
    K, (a,) = kernel_oracle.elements([e])
    (value,), = symbolic.element_values(K, [[a]], kernel_oracle.keyed(point))
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
        K, (a,) = kernel_oracle.elements([x + 1], (x, y))
        assert symbolic.element_values(K, [[a]], kernel_oracle.keyed({x: 1})) == [[2]]


class TestFunctionField:
    def test_one_field_per_tuple_of_generators(self):
        """function_field keeps one field per tuple of symbols, in their
        order."""
        x_, y_ = symbolic.symbol("x"), symbolic.symbol("y")
        ours = symbolic.function_field((x_, y_))
        assert ours.symbols == (x_, y_)
        assert symbolic.function_field((symbolic.symbol("x"), symbolic.symbol("y"))) is ours
        assert symbolic.function_field((y_, x_)) is not ours


class TestFieldWithoutGenerators:
    """Constants convert into the function field with no generators, whose
    elements take every operation of any other field."""

    @staticmethod
    def _constants():
        K, elements = kernel_oracle.elements(["1/2", "3"])
        assert type(K).__name__ == "FunctionField" and K.symbols == ()
        return K, elements

    def test_constants_are_elements_of_a_function_field(self):
        K, (half, three) = self._constants()
        assert K is symbolic.function_field(())
        assert half.field is K and three.field is K
        assert half != three and K.zero != K.one

    def test_to_infix_and_values(self):
        K, (half, three) = self._constants()
        assert [symbolic.to_infix(a) for a in (half, three, -half)] == ["1/2", "3", "-1/2"]
        assert symbolic.element_values(K, [[half, three]], {}) == [[symbolic.rational("1/2"), 3]]

    def test_clear_element_row(self):
        K, (half, three) = self._constants()
        cleared, factor = symbolic.clear_element_row(K, [half, three])
        assert [symbolic.to_infix(a) for a in cleared + [factor]] == ["1", "6", "2"]
        assert symbolic.clear_element_row(K, [K.zero, -half])[0] == [K.zero, K.one]

    def test_jacobian_rank_is_zero(self):
        K, elements = self._constants()
        assert symbolic.jacobian_rank(K, elements, [x, y]) == 0
        assert symbolic.element_rank(K, [elements], 2) == 1

    def test_nonzero_constant_is_a_contradiction(self):
        K, (half, _) = self._constants()
        with pytest.raises(InconsistentSystemError, match=r"^equation 1/2 = 0 is a contradiction$"):
            symbolic.solve_elements(K, [half], [])
        assert symbolic.solve_elements(K, [K.zero], []) == [{}]


class TestRational:
    """symbolic.rational, the one conversion to the kernel's rational
    numbers, the values at every point."""

    RATIONAL = type(symbolic.rational(0))

    @pytest.mark.parametrize("value, expected", [
        ("0.5", (1, 2)), ("1/3", (1, 3)), ("-2", (-2, 1)), (3, (3, 1)),
        (sp.Rational(2, 3), (2, 3)), (sp.Integer(-4), (-4, 1)), (symbolic.QQ(5, 7), (5, 7))])
    def test_reads(self, value, expected):
        q = symbolic.rational(value)
        assert type(q) is self.RATIONAL
        assert (q.numerator, q.denominator) == expected
        assert q == sp.Rational(*expected) and str(q) == str(sp.Rational(*expected))

    @pytest.mark.parametrize("value", [0.5, sp.Float(0.5), sp.sqrt(2), x, None])
    def test_refuses_what_is_no_rational_number(self, value):
        with pytest.raises(TypeError):
            symbolic.rational(value)

    def test_point_values_must_be_rational(self):
        K, (a,) = kernel_oracle.elements([x + 1])
        assert (symbolic.element_values(K, [[a]], kernel_oracle.keyed({x: sp.Rational(1, 2)}))
                == [[sp.Rational(3, 2)]])
        with pytest.raises(UnsupportedEquationError,
                           match=r"point value x = 0\.5 is not a rational number"):
            symbolic.element_values(K, [[a]], kernel_oracle.keyed({x: 0.5}))


class TestRationalArithmetic:
    """The kernel's Rational against fractions.Fraction: arithmetic with
    Rationals and ints, powers, comparisons, hashes and printing; and
    symbolic.rational against sympy's Rational on texts, the errors
    included."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_fraction(self, seed):
        rng = random.Random(seed + 9700)
        for _ in range(50):
            p, q = rng.randint(-60, 60), rng.randint(1, 60)
            r, s = rng.randint(-60, 60), rng.choice((1, rng.randint(1, 60)))
            a, b = symbolic.QQ(p, q), symbolic.QQ(r, s)
            f, g = Fraction(p, q), Fraction(r, s)
            k = rng.randint(-5, 5)
            results = [(a + b, f + g), (a - b, f - g), (a * b, f * g), (a + k, f + k),
                       (k - a, k - f), (a * k, f * k), (k * a, k * f), (-a, -f), (abs(a), abs(f)),
                       (a ** abs(k), f ** abs(k))]
            if g:
                results += [(a / b, f / g), (a ** -abs(k) if f else a, f ** -abs(k) if f else f)]
            if k:
                results += [(a / k, f / k)]
            if f:
                results += [(k / a, k / f)]
            for ours, theirs in results:
                assert type(ours) is symbolic.Rational
                assert (ours.numerator, ours.denominator) == (theirs.numerator, theirs.denominator)
                assert hash(ours) == hash(theirs) and str(ours) == str(theirs)
            assert [a < b, a <= b, a > b, a >= b, a == b, a < k, a > k, a == k] == [
                f < g, f <= g, f > g, f >= g, f == g, f < k, f > k, f == k]
            assert float(a) == float(f) and bool(a) == bool(f)

    def test_division_by_zero(self):
        for divide in (lambda: symbolic.QQ(1, 2) / symbolic.QQ(0), lambda: symbolic.QQ(1) / 0,
                       lambda: 1 / symbolic.QQ(0), lambda: symbolic.QQ(0) ** -1,
                       lambda: symbolic.QQ(1, 0)):
            with pytest.raises(ZeroDivisionError):
                divide()

    @pytest.mark.parametrize("text", [
        "0.5", "-0.25", "+3", "3.", ".5", "007", "1e3", "-1.5E-2", " 1 / 2 ", "- 0.5", "3/-4",
        "1_000", "", ".", "-", "1/0", "1/2/3", "nan", "inf", "0x10", "1/a", "a"])
    def test_reads_texts_as_sympy(self, text):
        try:
            expected = sp.Rational(text)
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            with pytest.raises(type(exc)):
                symbolic.rational(text)
        else:
            assert symbolic.rational(text) == expected
            assert str(symbolic.rational(text)) == str(expected)

    def test_reads_fractions(self):
        assert symbolic.rational(Fraction(-6, 4)) == symbolic.QQ(-3, 2)


class TestFactorShortcut:
    """_factors returns an equation linear in a generator, whose
    coefficient of it and rest have a constant gcd, as its one factor
    without sympy, and sympy's dmp_factor_list gives the same list, the
    factor's sign included: on primitive polynomials, on ones with an
    integer content and on ones with a negative leading coefficient, over
    1 to 6 generators.  Any other equation is factored by sympy."""

    KINDS = ("primitive", "content", "negated")

    @staticmethod
    def _sympy_factors(p):
        from sympy.polys.factortools import dmp_factor_list

        k = p.ring.ngens
        _, factors = dmp_factor_list(symbolic._to_dense(p, k), k - 1, sp.ZZ)
        return [p.ring.from_dict(symbolic._from_dense(f, k)) for f, _ in factors]

    @staticmethod
    def _linear(rng, ring, i):
        """a*x_i + b, a and b free of x_i and of degree 0 or 2 in every
        generator before x_i, so x_i is the first generator p is linear
        in, with a constant gcd of a and b."""
        def part(terms):
            poly = {}
            for _ in range(terms):
                monom = tuple(0 if j == i else rng.choice((0, 2)) if j < i else
                              rng.randint(0, 2) for j in range(ring.ngens))
                poly[monom] = poly.get(monom, 0) + rng.choice((-3, -2, -1, 1, 2, 3))
            return ring.from_dict({m: c for m, c in poly.items() if c})

        while True:
            if rng.random() < 0.6:
                a = part(rng.randint(1, 3))
            else:
                a = ring.ground_new(rng.choice((1, -2)))
            b = part(rng.randint(0, 3))
            if a and symbolic._cofactors(a, b)[0].is_ground:
                return a * ring.gens[i] + b

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_dmp_factor_list(self, seed, monkeypatch):
        rng = random.Random(seed + 9800)
        ngens = 1 + seed % 6
        ring = symbolic.function_field(tuple(symbolic.symbol("v%d" % j)
                                             for j in range(ngens))).ring
        p = self._linear(rng, ring, rng.randrange(ngens))
        kind = self.KINDS[seed // 6 % 3]
        if kind == "content":
            p = p * ring.ground_new(rng.randint(2, 6))
        elif kind == "negated" and p.LC > 0 or kind != "negated" and p.LC < 0:
            p = -p
        expected = self._sympy_factors(p)

        def refuse(*args):
            raise AssertionError("sympy factored %s" % (p,))

        monkeypatch.setattr("sympy.polys.factortools.dmp_factor_list", refuse)
        assert symbolic._factors(p) == expected

    def test_reducible_linear_equation_goes_to_sympy(self):
        ring = symbolic.function_field(tuple(map(symbolic.symbol, ("x", "y")))).ring
        x, y = ring.gens
        one = ring.one
        p = (y + one) * (x * y - one - one) * ring.ground_new(3)
        assert symbolic._factors(p) == self._sympy_factors(p) == [y + one, x * y - one - one]


class TestToInfix:
    def test_power_operator(self):
        assert symbolic.to_infix(_element(x**2)) == "x^2"

    def test_stable_ordering(self):
        first = symbolic.to_infix(_element(x * y + y * x + 1))
        second = symbolic.to_infix(_element(1 + y * x + x * y))
        assert first == second


class TestSymbol:
    """One symbol per name, which it prints and hashes as."""

    @pytest.mark.parametrize("name", ["x", "x1", "u_p2", "uhat_1"])
    def test_hashes_as_its_name(self, name):
        s = symbolic.symbol(name)
        assert s is symbolic.Symbol(name)
        assert hash(s) == hash(name) and str(s) == repr(s) == name

    def test_pickles_to_the_same_symbol(self):
        s = symbolic.symbol("x1")
        assert pickle.loads(pickle.dumps(s)) is s
