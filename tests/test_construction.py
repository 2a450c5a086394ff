"""Flat output construction: straightening, peeling, triangular form,
and the trajectory parametrization, pinned against hand-derived values
for the corpus systems."""

import pytest
import sympy as sp

from flatcheck import analysis, construction, symbolic
from flatcheck.errors import (
    FlatcheckError,
    ImplicitSolveError,
    StraighteningError,
)

x1, x2, x3, x4 = sp.symbols("x1 x2 x3 x4")
u1, u2 = sp.symbols("u1 u2")


def _same_set(actual, expected):
    """Expression sets are equal up to ordering and sign-free scaling."""
    rest = list(expected)
    for a in actual:
        hit = None
        for i, e in enumerate(rest):
            if sp.simplify(a - e) == 0 or sp.simplify(a + e) == 0:
                hit = i
                break
        if hit is None:
            return False
        rest.pop(hit)
    return not rest


def _invariants(rows, variables, count, point, **options):
    """polynomial_invariants on expression rows, read over QQ(gens), with
    gens the variables and then any further free symbols by name; the
    invariants come back as expressions."""
    free = set().union(*(sp.sympify(e).free_symbols for row in rows for e in row))
    gens = tuple(variables) + tuple(sorted(free - set(variables), key=str))
    _, elements = symbolic.to_elements([e for row in rows for e in row], gens)
    width = len(variables)
    element_rows = [elements[i:i + width] for i in range(0, len(elements), width)]
    found = construction.polynomial_invariants(element_rows, variables, count, point, **options)
    return [h.as_expr() for h in found]


class TestPolynomialInvariants:
    def test_tilted_plane_field(self):
        result = _invariants([[1, x1]], (x1, x2), 1, {x1: 0, x2: 0})
        assert sp.simplify(result[0] - (2 * x2 - x1**2)) == 0

    def test_coordinate_distribution(self):
        result = _invariants([[1, 0, 0]], (x1, x2, x3), 2, {x1: 0, x2: 0, x3: 0})
        assert _same_set(result, [x2, x3])

    def test_annihilation_property(self):
        rows = [[1, x1, 0], [0, 0, 1]]
        result = _invariants(rows, (x1, x2, x3), 1, {x1: 0, x2: 0, x3: 0})
        for h in result:
            for row in rows:
                derivative = sum(
                    c * sp.diff(h, v) for c, v in zip(row, (x1, x2, x3))
                )
                assert sp.simplify(derivative) == 0

    def test_degree_cap_failure(self):
        with pytest.raises(StraighteningError):
            _invariants([[1, x1]], (x1, x2), 1, {x1: 0, x2: 0}, max_degree=1)

    def test_non_rational_kernel_raises(self):
        a = sp.Symbol("a")
        with pytest.raises(FlatcheckError, match="non-rational kernel"):
            _invariants([[1, a]], (x1, x2), 1, {x1: 0, x2: 0, a: 0})

    def test_flagship_chain_without_expression_conversion(
        self, flat4, flat4_report, monkeypatch
    ):
        """The invariant search works on the field elements of the chain:
        not one sympy expression is converted."""
        chain = [
            construction.restate_distribution(d, flat4)
            for d in flat4_report.delta_chain()
        ]
        point = {s: 0 for s in flat4.states}

        def search():
            return [
                construction.polynomial_invariants(
                    [list(f.components) for f in low.fields],
                    flat4.states,
                    high.dim - low.dim,
                    point,
                )
                for low, high in zip(chain, chain[1:])
            ]

        expected = search()
        assert [len(found) for found in expected] == [2, 1]

        def refuse(*args, **kwargs):
            raise AssertionError("a sympy expression was converted")

        monkeypatch.setattr(symbolic, "_fractions", refuse)
        assert search() == expected


class TestStraightening:
    def test_flagship_blocks(self, flat4, flat4_report):
        chain = [
            construction.restate_distribution(d, flat4)
            for d in flat4_report.delta_chain()
        ]
        point = {s: 0 for s in flat4.states}
        st = construction.straighten_distribution_chain(
            chain, flat4_report.chart, point=point
        )
        assert st.rest == ()
        assert len(st.blocks) == 3
        values = [[st.forward[s].as_expr() for s in block] for block in st.blocks]
        assert _same_set(values[2], [x1 * (x3 + 1)])
        assert _same_set(values[1], [x3, x2 + 3 * x4])
        assert _same_set(values[0], [x4])

    def test_forward_inverse_roundtrip(self, flat4_artifacts):
        st = flat4_artifacts[1].transformation
        inverse = {s: a.as_expr() for s, a in st.inverse.items()}
        for sym in st.ordered_symbols:
            back = st.forward[sym].as_expr().subs(inverse, simultaneous=True)
            assert sp.simplify(back - sym) == 0


class TestExtractFlatOutput:
    def test_flagship_components(self, flat4_artifacts):
        flat_output = flat4_artifacts[0]
        assert flat_output.q == 0
        assert flat_output.names == ("y1", "y2")
        assert sp.simplify(flat_output.components[0].as_expr() - x1 * (x3 + 1)) == 0
        assert sp.simplify(flat_output.components[1].as_expr() - (x2 + 3 * x4)) == 0

    def test_final_coordinates_in_original_variables(self, flat4_artifacts):
        trace = flat4_artifacts[1]
        values = {str(z): a.as_expr() for z, a in trace.z_values.items()}
        assert sp.simplify(values["y3_1"] - x1 * (x3 + 1)) == 0
        assert sp.simplify(values["y2_1"] - (x2 + 3 * x4)) == 0
        assert sp.simplify(values["zhat2_1"] - (x2 + x3 + 3 * x4)) == 0
        assert sp.simplify(values["zhat1_1"] - x4) == 0
        assert sp.simplify(values["zhat1_2"] - (u1 + 2 * u2)) == 0
        assert sp.simplify(values["zhat0_1"] - u2) == 0

    def test_coordinate_count(self, flat4, flat4_artifacts):
        trace = flat4_artifacts[1]
        assert len(trace.z_symbols) == flat4.n + flat4.m

    def test_redundancy_defects_match_report(self, flat4_report, flat4_artifacts):
        trace = flat4_artifacts[1]
        for record in trace.steps:
            assert record.mu == flat4_report.steps[record.k].mu

    def test_combined_transformation(self, flat4_artifacts):
        trace = flat4_artifacts[1]
        z = {str(s): s for s in trace.z_symbols}
        rows = {str(sym): a.as_expr() for sym, a in trace.combined_rows}
        assert sp.simplify(rows["xbar1_1"] - z["zhat1_1"]) == 0
        assert sp.simplify(rows["xbar2_1"] - (z["zhat2_1"] - z["y2_1"])) == 0
        assert sp.simplify(rows["xbar2_2"] - z["y2_1"]) == 0
        assert sp.simplify(rows["xbar3_1"] - z["y3_1"]) == 0
        assert sp.simplify(rows["u1"] - (z["zhat1_2"] - 2 * z["zhat0_1"])) == 0
        assert sp.simplify(rows["u2"] - z["zhat0_1"]) == 0

    def test_z_inverse_substitutes_back(self, flat4, flat4_artifacts):
        trace = flat4_artifacts[1]
        z_values = {z: a.as_expr() for z, a in trace.z_values.items()}
        for v in flat4.variables:
            back = trace.z_inverse[v].as_expr().subs(z_values, simultaneous=True)
            assert sp.simplify(back - v) == 0

    def test_not_flat_is_rejected(self, nonflat_bilinear):
        report = analysis.run_algorithm1(nonflat_bilinear)
        with pytest.raises(FlatcheckError):
            construction.extract_flat_output(nonflat_bilinear, report)

    def test_degree_cap_aborts_honestly(self, sfl_quadratic, sfl_quadratic_report):
        with pytest.raises(StraighteningError):
            construction.extract_flat_output(
                sfl_quadratic, sfl_quadratic_report, max_degree=0
            )


class TestImplicitTriangularForm:
    def test_flagship_blocks(self, flat4_artifacts):
        form = flat4_artifacts[2]
        residuals = [[r.as_expr() for r in b.residuals] for b in form.blocks]
        assert [b.k for b in form.blocks] == [3, 2, 1]
        y3_1, y2_1 = sp.symbols("y3_1 y2_1")
        zhat2_1, zhat1_1, zhat1_2, zhat0_1 = sp.symbols(
            "zhat2_1 zhat1_1 zhat1_2 zhat0_1"
        )
        y3_1_p1, y2_1_p1 = sp.symbols("y3_1_p1 y2_1_p1")
        zhat2_1_p1, zhat1_1_p1 = sp.symbols("zhat2_1_p1 zhat1_1_p1")
        assert _same_set(residuals[0], [y3_1_p1 - zhat2_1])
        assert _same_set(
            residuals[1],
            [
                zhat2_1_p1 - y2_1_p1 - zhat1_2,
                y2_1_p1 - y3_1 * zhat1_2 - zhat1_1,
            ],
        )
        assert _same_set(residuals[2], [zhat1_1_p1 - y3_1 - zhat0_1])

    def test_solved_coordinates_per_block(self, flat4_artifacts):
        form = flat4_artifacts[2]
        solved = [tuple(str(s) for s in b.solved_for) for b in form.blocks]
        assert solved == [("zhat2_1",), ("zhat1_1", "zhat1_2"), ("zhat0_1",)]

    def test_residuals_vanish_along_trajectories(self, flat4, flat4_artifacts):
        """Substituting the coordinate expressions and the dynamics into
        each residual must give the zero function of (x, u, u+)."""
        trace = flat4_artifacts[1]
        form = flat4_artifacts[2]
        updates = {s: f for s, f in zip(flat4.states, flat4.update)}
        shift_u = {
            u: sp.Symbol("%s_p1" % u.name) for u in flat4.inputs
        }
        current = {z: a.as_expr() for z, a in trace.z_values.items()}
        ahead = {}
        for z, e in current.items():
            stepped = e.subs(shift_u, simultaneous=True).subs(
                updates, simultaneous=True
            )
            ahead[form.shifted[z]] = stepped
        for block in form.blocks:
            for residual in block.residuals:
                value = residual.as_expr().subs(ahead, simultaneous=True).subs(
                    current, simultaneous=True
                )
                assert sp.simplify(value) == 0


class TestParametrization:
    def test_flagship_closed_form(self, flat4_artifacts):
        p = flat4_artifacts[3]
        y1, y2 = sp.symbols("y1 y2")
        y1_p1, y1_p2, y1_p3 = sp.symbols("y1_p1 y1_p2 y1_p3")
        y2_p1, y2_p2 = sp.symbols("y2_p1 y2_p2")
        assert p.R == (3, 2)
        expected_x = [
            y1 / (y1_p1 - y2 + 1),
            3 * y1 * y1_p2 - 3 * y1 * y2_p1 + y2 - 3 * y2_p1,
            y1_p1 - y2,
            -y1 * y1_p2 + y1 * y2_p1 + y2_p1,
        ]
        for got, want in zip(p.F_x, expected_x):
            assert sp.simplify(got.as_expr() - want) == 0
        expected_u = [
            2 * y1
            + 2 * y1_p1 * y1_p3
            - 2 * y1_p1 * y2_p2
            + y1_p2
            - y2_p1
            - 2 * y2_p2,
            -y1 - y1_p1 * y1_p3 + y1_p1 * y2_p2 + y2_p2,
        ]
        for got, want in zip(p.F_u, expected_u):
            assert sp.simplify(got.as_expr() - want) == 0

    def test_chain2_parametrization(self, chain2, chain2_report):
        flat_output, trace = construction.extract_flat_output(chain2, chain2_report)
        assert sp.simplify(flat_output.components[0].as_expr() - x1) == 0
        form = construction.to_implicit_triangular(trace)
        p = construction.parametrize_from_triangular(form)
        y1, y1_p1, y1_p2 = sp.symbols("y1 y1_p1 y1_p2")
        assert p.R == (2,)
        assert sp.simplify(p.F_x[0].as_expr() - y1) == 0
        assert sp.simplify(p.F_x[1].as_expr() - y1_p1) == 0
        assert sp.simplify(p.F_u[0].as_expr() - y1_p2) == 0

    def test_quadratic_output_function(self, sfl_quadratic, sfl_quadratic_report):
        flat_output, trace = construction.extract_flat_output(
            sfl_quadratic, sfl_quadratic_report
        )
        assert sp.simplify(flat_output.components[0].as_expr() - (x2 - x1**2)) == 0
        form = construction.to_implicit_triangular(trace)
        p = construction.parametrize_from_triangular(form)
        y1, y1_p1, y1_p2 = sp.symbols("y1 y1_p1 y1_p2")
        assert p.R == (2,)
        assert sp.simplify(p.F_x[0].as_expr() - y1_p1) == 0
        assert sp.simplify(p.F_x[1].as_expr() - (y1 + y1_p1**2)) == 0
        assert sp.simplify(p.F_u[0].as_expr() - y1_p2) == 0

    def test_irrational_solve_fails_honestly(self, quad_chain):
        report = analysis.run_algorithm1(quad_chain)
        flat_output, trace = construction.extract_flat_output(quad_chain, report)
        form = construction.to_implicit_triangular(trace)
        with pytest.raises(ImplicitSolveError) as info:
            construction.parametrize_from_triangular(form)
        assert "not rational" in str(info.value)


def _used_generators(a) -> set:
    """The generators a field element actually depends on."""
    return {s for i, s in enumerate(a.field.symbols)
            if a.numer.degree(i) > 0 or a.denom.degree(i) > 0}


class TestPeelingOnFieldElements:
    @pytest.mark.parametrize("model", ["flat4", "chain2"])
    def test_expressions_are_read_only_at_entry(self, model, request, monkeypatch):
        """extract_flat_output reads the chart and its own records as
        field elements, so neither it nor the triangular form nor the
        parametrization converts an expression."""
        system = request.getfixturevalue(model)
        report = request.getfixturevalue(model + "_report")
        calls = 0
        original = symbolic._fractions

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(symbolic, "_fractions", counted)
        _, trace = construction.extract_flat_output(system, report)
        construction.parametrize_from_triangular(construction.to_implicit_triangular(trace))
        assert calls == 0

    @pytest.mark.parametrize("model", ["flat4", "sfl_quadratic", "quad_chain"])
    def test_transformed_rows_lie_in_the_coordinates(self, model, load_system, monkeypatch):
        """The chart symbols theta, xi in the bases of D_k are read as what
        they stand for, so every re-read basis row is a function of the
        new coordinates alone."""
        system = load_system(model)
        report = analysis.run_algorithm1(system)
        seen = []
        original = construction._transform

        def recorded(dist, forward, coords, *rest):
            rows = original(dist, forward, coords, *rest)
            seen.append((coords, rows))
            return rows

        monkeypatch.setattr(construction, "_transform", recorded)
        construction.extract_flat_output(system, report)
        assert len(seen) == 2 * report.kbar + len(report.delta_chain())
        for coords, rows in seen:
            for row in rows:
                for a in row:
                    assert _used_generators(a) <= set(coords)

    def test_transform_composes_each_element_once(self, flat4, flat4_report, monkeypatch):
        """Within one re-reading of a basis, an element shared by Jacobian
        entries or basis entries is composed into the coordinates once."""
        composed, active = [], []
        transform, compose = construction._transform, symbolic.compose

        def tracked(*args):
            composed.append([])
            active.append(True)
            try:
                return transform(*args)
            finally:
                active.pop()

        def recorded(a, *args):
            if active:
                composed[-1].append(a)
            return compose(a, *args)

        monkeypatch.setattr(construction, "_transform", tracked)
        monkeypatch.setattr(symbolic, "compose", recorded)
        construction.extract_flat_output(flat4, flat4_report)
        assert len(composed) == 2 * flat4_report.kbar + len(flat4_report.delta_chain())
        for elements in composed:
            assert len(elements) == len(set(elements))
