"""Distributions, adapted charts, projectability, and the sequence steps."""

import pathlib
import random

import pytest
import sympy as sp

from flatcheck import cli, geometry, modelfile, symbolic
from flatcheck.errors import ConstantDimensionError

import geometry_oracles
import kernel_oracle

x1, x2, x3 = sp.symbols("x1 x2 x3")
BUNDLED = sorted(p.stem for p in (pathlib.Path(__file__).resolve().parent.parent
                                   / "models").glob("*.sys"))


def _field(coords, components):
    """A vector field's component row from sympy expressions, read over
    QQ(coords)."""
    return tuple(kernel_oracle.elements(components, coords)[1])


def _distribution(coords, rows):
    """make_distribution of rows of sympy expressions, read over QQ(coords),
    over flatcheck's symbols of the coordinates' names."""
    return geometry.make_distribution(
        tuple(kernel_oracle.symbols(coords)),
        [kernel_oracle.elements(row, coords)[1] for row in rows])


def _matrix(dist):
    """The basis of a distribution as a sympy matrix, one row per field."""
    return sp.Matrix([[kernel_oracle.as_expr(c) for c in row] for row in dist.rows])


class TestDistribution:
    def test_dimension_counts_basis(self):
        coords = (x1, x2, x3)
        d = _distribution(coords, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])
        assert d.dim == 2

    def test_zero_rows_dropped(self):
        coords = (x1, x2)
        d = _distribution(coords, [[0, 0]])
        assert d.dim == 0

    def test_basis_is_canonical_under_mixing(self):
        coords = (x1, x2, x3)
        rows = [[1, x1, 0], [0, 1, x2]]
        reference = _distribution(coords, rows)
        rng = random.Random(3)
        for _ in range(10):
            a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
            if a * d - b * c == 0:
                continue
            mixed = [
                [a * r + b * s for r, s in zip(rows[0], rows[1])],
                [c * r + d * s for r, s in zip(rows[0], rows[1])],
            ]
            again = _distribution(coords, mixed)
            assert again.rows == reference.rows

    def test_contains_field(self):
        coords = (x1, x2, x3)
        d = _distribution(coords, [[1, 0, 0], [0, x1, 1]])
        inside = _field(coords, (x2, x1, 1))
        outside = _field(coords, (0, 1, 0))
        assert geometry_oracles.contains_field(d, inside)
        assert not geometry_oracles.contains_field(d, outside)

    def test_containment_refuses_foreign_coordinates(self):
        x4 = sp.Symbol("x4")
        d = _distribution((x1, x2), [[1, 0]])
        stray = _field((x3, x4), (1, 0))
        with pytest.raises(ValueError):
            geometry_oracles.contains_field(d, stray)
        with pytest.raises(ValueError):
            geometry_oracles.contains_distribution(
                d, _distribution((x3, x4), [[1, 0]]))

    def test_row_length_must_match_the_coordinates(self):
        row = _field((x1, x2), (1, 0))
        with pytest.raises(ValueError) as info:
            geometry.Distribution((x1, x2, x3), (row,))
        assert str(info.value) == "row has 2 components for 3 coordinates"

    def test_containment_refuses_a_foreign_function_field(self):
        d = _distribution((x1, x2), [[1, 0]])
        wider = tuple(kernel_oracle.elements([x1, 0], (x1, x2, x3))[1])
        with pytest.raises(ValueError):
            geometry_oracles.contains_field(d, wider)


class TestCombine:
    """The recombination of rows over one common denominator equals the
    naive sum of field elements, and clearing it from its numerators
    equals clearing that sum."""

    FACTORS = (x1 + 1, x1 - x2, 2 * x2 * x3 + 3)

    def _rational(self, rng, K):
        if rng.random() < 0.25:
            return K.zero
        numerator = sum(rng.randint(-3, 3) * rng.choice((1, x1, x2, x3, x1 * x3))
                        for _ in range(3))
        # denominators from a few shared factors, so that they overlap
        denominator = sp.Mul(*(rng.choice(self.FACTORS) for _ in range(rng.randint(0, 2))))
        return kernel_oracle.from_sympy(K, numerator / denominator)

    @pytest.mark.parametrize("seed", range(50))
    def test_equals_the_naive_sum(self, seed):
        rng = random.Random(seed + 3100)
        K = kernel_oracle.function_field((x1, x2, x3))
        size, width = rng.randint(1, 4), rng.randint(1, 3)
        coeffs = [self._rational(rng, K) for _ in range(size)]
        rows = [[self._rational(rng, K) for _ in range(width)] for _ in range(size)]
        to_sympy, F = kernel_oracle.to_sympy, kernel_oracle.sympy_field(K)
        naive = [kernel_oracle.from_sympy(
            K, sum((to_sympy(c) * to_sympy(row[k]) for c, row in zip(coeffs, rows)), F.zero))
            for k in range(width)]
        numerators, denominator = symbolic.combine_rows(K, coeffs, rows)
        assert symbolic.fraction_row(K, numerators, denominator) == naive
        assert (symbolic.clear_fraction_row(K, numerators, denominator)
                == symbolic.clear_element_row(K, naive))


class TestLieBracket:
    def test_coordinate_fields_commute(self):
        coords = (x1, x2)
        a = _field(coords, (1, 0))
        b = _field(coords, (0, 1))
        assert geometry_oracles.is_zero_field(geometry_oracles.lie_bracket(coords, a, b))

    def test_known_bracket(self):
        coords = (x1, x2)
        a = _field(coords, (1, 0))
        b = _field(coords, (0, x1))
        result = geometry_oracles.lie_bracket(coords, a, b)
        assert [symbolic.expression(c) for c in result] == [0, 1]

    def test_involutive_span(self):
        coords = (x1, x2, x3)
        d = _distribution(coords, [[1, 0, 0], [0, 1, x1]])
        assert geometry_oracles.is_involutive(d) is False
        e = _distribution(coords, [[1, 0, 0], [0, 1, 0]])
        assert geometry_oracles.is_involutive(e) is True


class TestAdaptedChart:
    def test_flagship_greedy_choice(self, flat4):
        chart = geometry.build_adapted_chart(flat4)
        assert tuple(str(v) for v in chart.xi_choice) == ("x1", "x2")

    @pytest.mark.parametrize("model", BUNDLED)
    def test_forward_inverse_roundtrip(self, model, load_system):
        """The inverse map keeps each chart symbol and sends each base
        variable to an element over the chart symbols; composed with it,
        every forward component gives back its chart symbol."""
        chart = geometry.build_adapted_chart(load_system(model))
        N = chart.coordinate_field
        symbols = symbolic.generators(N, chart.coords)
        assert set(chart.inverse) == set(chart.system_vars) | set(chart.coords)
        assert all(a.field is N for a in chart.inverse.values())
        assert [chart.inverse[c] for c in chart.coords] == symbols
        assert [symbolic.compose(chart.forward[c], chart.inverse, N)
                for c in chart.coords] == symbols

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
        stray = geometry.Distribution((x1, x2), ((1, 0),))
        with pytest.raises(ValueError):
            geometry.largest_projectable_subdistribution(stray, chart)


class TestSequenceSteps:
    def test_lift_of_zero_is_input_span(self, flat4, flat4_report):
        zero = geometry.Distribution(geometry.shifted_state_symbols(flat4.states), ())
        E = geometry.lift_distribution(zero, flat4_report.chart)
        assert E.dim == flat4.m
        M = _matrix(E)
        for i in range(M.rows):
            for j in range(flat4.n):
                assert M[i, j] == 0

    def test_flagship_first_projectable_direction(self, flat4, flat4_report):
        step0 = flat4_report.steps[0]
        assert step0.D.dim == 1
        row = step0.D.rows[0]
        for j in range(flat4.n):
            assert sp.simplify(kernel_oracle.as_expr(row[j])) == 0
        K = symbolic.function_field(row[0].field.symbols)
        u_part = [list(row[flat4.n :])]
        normalized = symbolic.element_rref(K, u_part, flat4.m)[0]
        expected = symbolic.element_rref(
            K, [kernel_oracle.elements([-2, 1], K.symbols)[1]], flat4.m
        )[0]
        assert normalized == expected

    @pytest.mark.parametrize(
        "report_fixture",
        ["flat4_report", "chain2_report", "sfl_quadratic_report", "nonflat_bilinear_report"],
    )
    def test_carried_chart_forms_match_fresh_transforms(self, request, monkeypatch,
                                                         report_fixture):
        """The cut hands the pushforward the theta rows of D's basis
        fields, the nonzero transform_vector_field of each, and computes
        no xi component: the chart's Jacobian has the n theta rows only."""
        report = request.getfixturevalue(report_fixture)
        chart = report.chart
        assert len(chart.jacobian) == len(chart.theta)
        handed = []
        push = geometry.pushforward_distribution

        def recorded(theta_rows, witness_values, chart):
            handed.append(theta_rows)
            return push(theta_rows, witness_values, chart)

        monkeypatch.setattr(geometry, "pushforward_distribution", recorded)
        for step in report.steps:
            D, _ = geometry.largest_projectable_subdistribution(step.E, chart)
            assert D == step.D
            fresh = [geometry.transform_vector_field(row, chart) for row in D.rows]
            assert handed.pop() == [t for t in fresh if any(t)]
            assert all(len(t) == len(chart.theta) for t in fresh)

    def test_projectability_of_extracted_fields(self, flat4_report):
        chart = flat4_report.chart
        for step in flat4_report.steps:
            for row in step.D.rows:
                assert geometry_oracles.is_projectable(row, chart) is True

    def test_pushforward_of_first_step(self, flat4_report):
        chart = flat4_report.chart
        _, pushed = geometry.largest_projectable_subdistribution(
            flat4_report.steps[0].E, chart
        )
        assert pushed.dim == 1
        delta1 = flat4_report.steps[1].delta
        assert geometry_oracles.contains_distribution(delta1, pushed)
        assert geometry_oracles.contains_distribution(pushed, delta1)

    def test_deltas_are_involutive(self, load_system):
        """Every Delta_k, E_k and D_k of every bundled model whose analysis
        completes is involutive, which the largest projectable cut
        assumes without checking."""
        stopped = []
        for model in BUNDLED:
            try:
                _, _, report = cli._prepare(load_system(model))
            except ConstantDimensionError:
                stopped.append(model)
                continue
            for step in report.steps:
                for dist in (step.delta, step.E, step.D):
                    assert geometry_oracles.is_involutive(dist) is True, (model, step.k)
        assert stopped == ["quad_integrator"]


class TestNarrowChartField:
    """Chart forms, the chart's Jacobian and the theta rows the cut hands
    to the pushforward, live in QQ(theta, xi), the chart coordinates
    sorted by name, not in the wide field of the base rows."""

    @pytest.mark.parametrize("model", BUNDLED)
    def test_chart_forms_are_in_the_coordinate_field(self, model, load_system, monkeypatch):
        charts, handed = [], []
        build = geometry.build_adapted_chart
        push = geometry.pushforward_distribution

        def built(system):
            charts.append(build(system))
            return charts[-1]

        def recorded(theta_rows, witness_values, chart):
            handed.append(theta_rows)
            return push(theta_rows, witness_values, chart)

        monkeypatch.setattr(geometry, "build_adapted_chart", built)
        monkeypatch.setattr(geometry, "pushforward_distribution", recorded)
        try:
            cli._prepare(load_system(model))
        except ConstantDimensionError:
            pass
        assert len(charts) == 1 and handed
        chart = charts[0]
        narrow = tuple(sorted(chart.coords, key=lambda s: s.name))
        assert len(chart.jacobian) == len(chart.theta)
        for row in chart.jacobian:
            for a in row:
                assert a.field.symbols == narrow
        for theta_rows in handed:
            for row in theta_rows:
                assert len(row) == len(chart.theta)
                for a in row:
                    assert a.field.symbols == narrow


class TestPushforwardBasis:
    """The pushforward reads its basis off the extraction's echelon rows,
    renamed to x+ and cleared, instead of row reducing them again:
    make_distribution stays the reference it must equal."""

    @pytest.mark.parametrize("model", BUNDLED)
    def test_basis_equals_make_distribution(self, model, load_system, monkeypatch):
        images = []
        push = geometry.pushforward_distribution

        def recorded(*args):
            images.append(push(*args))
            return images[-1]

        monkeypatch.setattr(geometry, "pushforward_distribution", recorded)
        try:
            cli._prepare(load_system(model))
        except ConstantDimensionError:
            pass
        assert images
        for image in images:
            reference = geometry.make_distribution(image.coords, image.rows)
            assert image == reference

    def test_sequence_calls_no_make_distribution(self, load_system, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("make_distribution was called")

        monkeypatch.setattr(geometry, "make_distribution", refuse)
        verdicts = {}
        for model in BUNDLED:
            try:
                verdicts[model] = cli._prepare(load_system(model))[2].verdict
            except ConstantDimensionError:
                verdicts[model] = "exit 2"
        assert verdicts == {
            "chain2": "FLAT", "flat4": "FLAT", "nonflat_bilinear": "NOT_FLAT",
            "quad_chain": "FLAT", "quad_integrator": "exit 2",
            "redundant_input": "FLAT", "sfl_quadratic": "FLAT", "shift1": "FLAT"}


class TestSequenceWithoutExpressions:
    """Lift, largest projectable cut and pushforward stay in the function
    fields: not one sympy expression is converted along the sequence."""

    @pytest.mark.parametrize(
        "system_fixture, report_fixture",
        [("flat4", "flat4_report"), ("chain2", "chain2_report")],
    )
    def test_sequence_reruns_on_field_elements(self, request, system_fixture, report_fixture):
        system = request.getfixturevalue(system_fixture)
        report = request.getfixturevalue(report_fixture)
        delta = geometry.Distribution(geometry.shifted_state_symbols(system.states), ())
        for step in report.steps:
            E = geometry.lift_distribution(delta, report.chart)
            D, delta_next = geometry.largest_projectable_subdistribution(E, report.chart)
            assert (delta.dim, E.dim, D.dim) == (step.delta.dim, step.E.dim, step.D.dim)
            delta = delta_next
        assert delta.dim == report.steps[-1].delta.dim
