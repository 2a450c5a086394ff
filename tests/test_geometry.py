"""Distributions, adapted charts, projectability, and the sequence steps."""

import pathlib
import random

import pytest
import sympy as sp

from flatcheck import cli, geometry, modelfile, symbolic
from flatcheck.errors import ConstantDimensionError

x1, x2, x3 = sp.symbols("x1 x2 x3")
BUNDLED = sorted(p.stem for p in (pathlib.Path(__file__).resolve().parent.parent
                                   / "models").glob("*.sys"))


def _field(coords, components):
    """A vector field from sympy expressions, read over QQ(coords)."""
    return geometry.VectorField(coords, tuple(symbolic.to_elements(components, coords)[1]))


def _matrix(dist):
    """The basis of a distribution as a sympy matrix, one row per field."""
    return sp.Matrix([[c.as_expr() for c in f.components] for f in dist.fields])


class TestDistribution:
    def test_dimension_counts_basis(self):
        coords = (x1, x2, x3)
        d = geometry.make_distribution(coords, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])
        assert d.dim == 2

    def test_zero_rows_dropped(self):
        coords = (x1, x2)
        d = geometry.make_distribution(coords, [[0, 0]])
        assert d.dim == 0

    def test_basis_is_canonical_under_mixing(self):
        coords = (x1, x2, x3)
        rows = [[1, x1, 0], [0, 1, x2]]
        reference = geometry.make_distribution(coords, rows)
        rng = random.Random(3)
        for _ in range(10):
            a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
            if a * d - b * c == 0:
                continue
            mixed = [
                [a * r + b * s for r, s in zip(rows[0], rows[1])],
                [c * r + d * s for r, s in zip(rows[0], rows[1])],
            ]
            again = geometry.make_distribution(coords, mixed)
            assert [f.components for f in again.fields] == [
                f.components for f in reference.fields
            ]

    def test_contains_field(self):
        coords = (x1, x2, x3)
        d = geometry.make_distribution(coords, [[1, 0, 0], [0, x1, 1]])
        inside = _field(coords, (x2, x1, 1))
        outside = _field(coords, (0, 1, 0))
        assert geometry.contains_field(d, inside)
        assert not geometry.contains_field(d, outside)

    def test_containment_refuses_foreign_coordinates(self):
        x4 = sp.Symbol("x4")
        d = geometry.make_distribution((x1, x2), [[1, 0]])
        stray = _field((x3, x4), (1, 0))
        with pytest.raises(ValueError):
            geometry.contains_field(d, stray)
        with pytest.raises(ValueError):
            geometry.contains_distribution(d, geometry.make_distribution((x3, x4), [[1, 0]]))

    def test_containment_refuses_a_foreign_function_field(self):
        d = geometry.make_distribution((x1, x2), [[1, 0]])
        wider = geometry.VectorField((x1, x2), tuple(symbolic.to_elements([x1, 0], (x1, x2, x3))[1]))
        with pytest.raises(ValueError):
            geometry.contains_field(d, wider)

    def test_witness_matrix_clears_poles(self):
        coords = (x1, x2)
        f = _field(coords, (1 / x1, 1))
        d = geometry.Distribution(coords=coords, fields=(f,))
        W = geometry._witness_rows(d, symbolic.function_field(coords))
        assert all(sp.denom(sp.cancel(e.as_expr())).is_number for row in W for e in row)


class TestLieBracket:
    def test_coordinate_fields_commute(self):
        coords = (x1, x2)
        a = _field(coords, (1, 0))
        b = _field(coords, (0, 1))
        assert geometry.lie_bracket(a, b).is_zero_field()

    def test_known_bracket(self):
        coords = (x1, x2)
        a = _field(coords, (1, 0))
        b = _field(coords, (0, x1))
        result = geometry.lie_bracket(a, b)
        assert [c.as_expr() for c in result.components] == [0, 1]

    def test_involutive_span(self):
        coords = (x1, x2, x3)
        d = geometry.make_distribution(coords, [[1, 0, 0], [0, 1, x1]])
        assert geometry.is_involutive(d) is False
        e = geometry.make_distribution(coords, [[1, 0, 0], [0, 1, 0]])
        assert geometry.is_involutive(e) is True


class TestAdaptedChart:
    def test_flagship_greedy_choice(self, flat4):
        chart = geometry.build_adapted_chart(flat4)
        assert tuple(str(v) for v in chart.xi_choice) == ("x1", "x2")

    def test_roundtrip_on_chain(self):
        system = modelfile.parse_model(
            """
system chain
states: x1, x2
inputs: u
equilibrium: all zero
next x1 = x2
next x2 = u
"""
        )
        chart = geometry.build_adapted_chart(system)
        images = {s: a.as_expr() for s, a in chart.inverse.items()}
        assert set(images) == set(system.variables) | set(chart.coords)
        # chart symbols stay; base variables go to functions of the chart
        assert all(images[c] == c for c in chart.coords)
        inverse = {s: images[s] for s in system.variables}
        assert all(inverse[s].free_symbols <= set(chart.coords) for s in inverse)
        for c in chart.coords:
            residual = chart.forward[c].as_expr().subs(inverse, simultaneous=True) - c
            assert sp.simplify(residual) == 0

    def test_quadratic_input_still_charts(self):
        system = modelfile.parse_model(
            """
system degenerate
states: x1, x2
inputs: u
equilibrium: all zero
next x1 = x2 + u^2
next x2 = x1
"""
        )
        chart = geometry.build_adapted_chart(system)
        assert str(chart.xi_choice[0]) == "u"

    def test_foreign_coordinates_rejected(self, flat4):
        chart = geometry.build_adapted_chart(flat4)
        stray = geometry.VectorField((x1, x2), (1, 0))
        with pytest.raises(ValueError):
            geometry.transform_vector_field(stray, chart)


class TestSequenceSteps:
    def test_lift_of_zero_is_input_span(self, flat4):
        xplus = geometry.shifted_state_symbols(flat4)
        zero = geometry.Distribution(coords=xplus, fields=())
        E = geometry.lift_distribution(zero, flat4)
        assert E.dim == flat4.m
        M = _matrix(E)
        for i in range(M.rows):
            for j in range(flat4.n):
                assert M[i, j] == 0

    def test_flagship_first_projectable_direction(self, flat4, flat4_report):
        step0 = flat4_report.steps[0]
        assert step0.dim_D == 1
        field = step0.D.fields[0]
        for j in range(flat4.n):
            assert sp.simplify(field.components[j].as_expr()) == 0
        K = symbolic.function_field(field.components[0].field.symbols)
        u_part = [list(field.components[flat4.n :])]
        normalized = symbolic.element_rref(K, u_part, flat4.m)[0]
        expected = symbolic.element_rref(
            K, [symbolic.to_elements([-2, 1], K.symbols)[1]], flat4.m
        )[0]
        assert normalized == expected

    @pytest.mark.parametrize(
        "report_fixture",
        ["flat4_report", "chain2_report", "sfl_quadratic_report", "nonflat_bilinear_report"],
    )
    def test_carried_chart_forms_match_fresh_transforms(self, request, report_fixture):
        report = request.getfixturevalue(report_fixture)
        for step in report.steps:
            assert step.D.chart is report.chart
            assert len(step.D.chart_fields) == step.D.dim
            for field, carried in zip(step.D.fields, step.D.chart_fields):
                fresh = geometry.transform_vector_field(field, report.chart)
                assert carried.coords == fresh.coords
                for a, b in zip(carried.components, fresh.components):
                    assert not (a - b)

    def test_projectability_of_extracted_fields(self, flat4, flat4_report):
        chart = flat4_report.chart
        for step in flat4_report.steps:
            for field in step.D.fields:
                assert geometry.is_projectable(field, flat4, chart) is True

    def test_pushforward_of_first_step(self, flat4, flat4_report):
        chart = flat4_report.chart
        pushed = geometry.pushforward_distribution(
            flat4_report.steps[0].D, flat4, chart
        )
        assert pushed.dim == 1
        delta1 = flat4_report.steps[1].delta
        assert geometry.contains_distribution(delta1, pushed)
        assert geometry.contains_distribution(pushed, delta1)

    def test_deltas_are_involutive(self, flat4_report):
        for delta in flat4_report.delta_chain():
            assert geometry.is_involutive(delta) is True


class TestNarrowChartField:
    """Chart forms live in QQ(theta, xi), the chart coordinates sorted by
    name, not in the wide field of the base rows."""

    @pytest.mark.parametrize("model", BUNDLED)
    def test_chart_forms_are_in_the_coordinate_field(self, model, load_system, monkeypatch):
        charts, projectable = [], []
        build = geometry.build_adapted_chart
        cut = geometry.largest_projectable_subdistribution

        def built(system):
            charts.append(build(system))
            return charts[-1]

        def recorded(*args):
            projectable.append(cut(*args))
            return projectable[-1]

        monkeypatch.setattr(geometry, "build_adapted_chart", built)
        monkeypatch.setattr(geometry, "largest_projectable_subdistribution", recorded)
        try:
            cli._prepare(load_system(model))
        except ConstantDimensionError:
            pass
        assert len(charts) == 1 and projectable
        chart = charts[0]
        narrow = tuple(sorted(chart.coords, key=lambda s: s.name))
        for row in chart.jacobian:
            for a in row:
                assert a.field.symbols == narrow
        for D in projectable:
            for f in D.chart_fields:
                for a in f.components:
                    assert a.field.symbols == narrow


class TestSequenceWithoutExpressions:
    """Lift, largest projectable cut and pushforward stay in the function
    fields: not one sympy expression is converted along the sequence."""

    @pytest.mark.parametrize(
        "system_fixture, report_fixture",
        [("flat4", "flat4_report"), ("chain2", "chain2_report")],
    )
    def test_sequence_reruns_without_expression_conversion(
        self, request, monkeypatch, system_fixture, report_fixture
    ):
        system = request.getfixturevalue(system_fixture)
        report = request.getfixturevalue(report_fixture)

        def refuse(*args, **kwargs):
            raise AssertionError("a sympy expression was converted")

        monkeypatch.setattr(symbolic, "_fractions", refuse)
        xplus = geometry.shifted_state_symbols(system)
        delta = geometry.Distribution(coords=xplus, fields=())
        for step in report.steps:
            E = geometry.lift_distribution(delta, system)
            D = geometry.largest_projectable_subdistribution(E, system, report.chart)
            assert (delta.dim, E.dim, D.dim) == (step.dim_delta, step.dim_E, step.dim_D)
            delta = geometry.pushforward_distribution(D, system, report.chart)
        assert delta.dim == report.steps[-1].dim_delta
