"""Distributions, adapted charts, projectability, and the sequence steps."""

import random

import pytest
import sympy as sp

from flatcheck import geometry, modelfile, symbolic

x1, x2, x3 = sp.symbols("x1 x2 x3")


def _rref_of(dist):
    M = dist.component_matrix()
    return symbolic.function_field_rref(M).rref


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
        inside = geometry.VectorField(coords, (x2, x1, 1))
        outside = geometry.VectorField(coords, (0, 1, 0))
        assert geometry.contains_field(d, inside)
        assert not geometry.contains_field(d, outside)

    def test_witness_matrix_clears_poles(self):
        coords = (x1, x2)
        f = geometry.VectorField(coords, (1 / x1, 1))
        d = geometry.Distribution(coords=coords, fields=(f,))
        W = d.witness_matrix()
        assert all(sp.denom(sp.cancel(e)).is_number for e in W)


class TestLieBracket:
    def test_coordinate_fields_commute(self):
        coords = (x1, x2)
        a = geometry.VectorField(coords, (1, 0))
        b = geometry.VectorField(coords, (0, 1))
        assert geometry.lie_bracket(a, b).is_zero_field()

    def test_known_bracket(self):
        coords = (x1, x2)
        a = geometry.VectorField(coords, (1, 0))
        b = geometry.VectorField(coords, (0, x1))
        result = geometry.lie_bracket(a, b)
        assert result.components == (0, 1)

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
        for c in chart.coords:
            residual = chart.forward[c].subs(chart.inverse, simultaneous=True) - c
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
        M = E.component_matrix()
        for i in range(M.rows):
            for j in range(flat4.n):
                assert M[i, j] == 0

    def test_flagship_first_projectable_direction(self, flat4, flat4_report):
        step0 = flat4_report.steps[0]
        assert step0.dim_D == 1
        field = step0.D.fields[0]
        for j in range(flat4.n):
            assert sp.simplify(field.components[j]) == 0
        u_part = sp.Matrix([field.components[flat4.n :]])
        normalized = symbolic.function_field_rref(u_part).rref
        expected = symbolic.function_field_rref(sp.Matrix([[-2, 1]])).rref
        assert sp.simplify(normalized - expected) == sp.zeros(1, 2)

    @pytest.mark.parametrize("report_fixture", ["flat4_report", "chain2_report"])
    def test_carried_chart_forms_match_fresh_transforms(self, request, report_fixture):
        report = request.getfixturevalue(report_fixture)
        for step in report.steps:
            assert step.D.chart is report.chart
            assert len(step.D.chart_fields) == step.D.dim
            for field, carried in zip(step.D.fields, step.D.chart_fields):
                fresh = geometry.transform_vector_field(field, report.chart)
                assert carried.coords == fresh.coords
                for a, b in zip(carried.components, fresh.components):
                    assert symbolic.is_zero(a - b) is True

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
