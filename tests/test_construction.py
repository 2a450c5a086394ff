"""Flat output construction: straightening, peeling, triangular form,
and the trajectory parametrization, pinned against hand-derived values
for the corpus systems."""

import dataclasses

import pytest
import sympy as sp

from flatcheck import analysis, construction, model, symbolic
from flatcheck.errors import (
    FlatcheckError,
    ImplicitSolveError,
    StraighteningError,
)

import kernel_oracle
from test_properties import TestSmallFlatSystemsUnderLinearStateChanges as _SmallFlat

x1, x2, x3, x4 = sp.symbols("x1 x2 x3 x4")
u1, u2 = sp.symbols("u1 u2")
_point = kernel_oracle.keyed


def _symbol(s):
    return symbolic.symbol(s.name)


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
    """polynomial_invariants on expression rows, read over QQ(variables);
    the invariants come back as expressions, after a check that the
    gradients returned with them are their jacobian_at the point."""
    variables, point = tuple(map(_symbol, variables)), _point(point)
    _, elements = kernel_oracle.elements([e for row in rows for e in row], variables)
    width = len(variables)
    element_rows = [elements[i:i + width] for i in range(0, len(elements), width)]
    found, gradients = construction.polynomial_invariants(
        element_rows, variables, count, point, **options)
    grad_vars = options.get("gradient_variables", variables)
    assert list(gradients) == symbolic.jacobian_at(
        symbolic.field(variables), found, grad_vars, point)
    return [kernel_oracle.as_expr(h) for h in found]


@pytest.fixture(scope="module",
                params=["flat4", "chain2", "sfl_quadratic", "shift1", "redundant_input",
                        "quad_chain"])
def extracted(request, load_system):
    """The system, report and decomposition trace of every bundled model
    whose extraction reaches the peeling, redundant_input reduced first."""
    if request.param == "flat4":
        return (request.getfixturevalue("flat4"), request.getfixturevalue("flat4_report"),
                request.getfixturevalue("flat4_artifacts")[1])
    system = load_system(request.param)
    if model.validate_system(system).redundant_inputs:
        system = model.eliminate_redundant_inputs(system).reduced
    report = analysis.run_algorithm1(system)
    return system, report, construction.extract_flat_output(system, report)[1]


def _inverts(inverse, forward, domain, codomain):
    """Whether inverse (per variable of domain, an element over codomain)
    composed with forward (per symbol of codomain, an element over
    domain) gives back every variable of domain, and forward composed
    with inverse every symbol of codomain: each solved branch is the
    two-sided inverse of its change."""
    D, C = symbolic.field(domain), symbolic.field(codomain)
    into_D = {c: symbolic.rename(forward[c], D, {}) for c in codomain}
    into_C = {v: symbolic.rename(inverse[v], C, {}) for v in domain}
    return (all(symbolic.compose(into_C[v], into_D, D) == g
                for v, g in zip(domain, symbolic.generators(D, domain)))
            and all(symbolic.compose(into_D[c], into_C, C) == g
                    for c, g in zip(codomain, symbolic.generators(C, codomain))))


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

    def test_invariants_in_the_name_sorted_field(self):
        """The ansatz runs over the variables in the caller's order, x2
        before x1, on rows of a field with a further generator x3 that
        they do not use; the invariants come back in QQ(x1, x2),
        generators sorted by name, as symbolic.field makes every other
        field, with their gradients in the caller's order."""
        _, row = kernel_oracle.elements([x1, 1], (x2, x1, x3))
        found, gradients = construction.polynomial_invariants(
            [row], (_symbol(x2), _symbol(x1)), 1, _point({x1: 0, x2: 0}))
        assert found[0].field is kernel_oracle.function_field((x1, x2))
        assert sp.expand(kernel_oracle.as_expr(found[0]) - (2 * x2 - x1**2)) == 0
        assert gradients == ([2, 0],)

    def test_degree_cap_failure(self):
        with pytest.raises(StraighteningError):
            _invariants([[1, x1]], (x1, x2), 1, {x1: 0, x2: 0}, max_degree=1)

    def test_rows_over_other_generators_are_refused(self):
        """The ansatz kernel is taken over QQ: rows that use a generator
        other than the variables are refused, not searched."""
        a = sp.Symbol("a")
        _, row = kernel_oracle.elements([1, a], (x1, x2, a))
        with pytest.raises(symbolic.GeneratorsError):
            construction.polynomial_invariants([row], (_symbol(x1), _symbol(x2)), 1,
                                               _point({x1: 0, x2: 0, a: 0}))

    def test_no_invariants_asked(self):
        assert construction.polynomial_invariants([], (_symbol(x1), _symbol(x2)), 0,
                                                  {}) == ((), ())

    def test_flagship_chain(self, flat4, flat4_report):
        """The invariant search works on the field elements of the chain."""
        chain = [
            construction.restate_distribution(d, flat4)
            for d in flat4_report.delta_chain()
        ]
        point = {s: 0 for s in flat4.states}

        searched = [
            construction.polynomial_invariants(low.rows, flat4.states, high.dim - low.dim, point)
            for low, high in zip(chain, chain[1:])
        ]
        assert [len(found) for found, _ in searched] == [2, 1]
        for found, gradients in searched:
            assert list(gradients) == symbolic.jacobian_at(
                symbolic.field(flat4.states), found, flat4.states, point)


class TestStraightening:
    def test_flagship_blocks(self, flat4, flat4_report):
        chain = [
            construction.restate_distribution(d, flat4)
            for d in flat4_report.delta_chain()
        ]
        point = {s: 0 for s in flat4.states}
        st = construction.straighten_distribution_chain(chain, point=point)
        assert len(st.blocks) == 3
        values = [[kernel_oracle.as_expr(st.forward[s]) for s in block] for block in st.blocks]
        assert _same_set(values[2], [x1 * (x3 + 1)])
        assert _same_set(values[1], [x3, x2 + 3 * x4])
        assert _same_set(values[0], [x4])

    def test_chain_that_does_not_fill_the_state_space(self, flat4, flat4_report):
        """A FLAT chain ends in the whole state space; a shorter one is
        refused before any invariant search."""
        chain = [
            construction.restate_distribution(d, flat4)
            for d in flat4_report.delta_chain()
        ]
        point = {s: 0 for s in flat4.states}
        with pytest.raises(FlatcheckError) as info:
            construction.straighten_distribution_chain(chain[:-1], point)
        assert str(info.value) == "the distribution chain does not fill the state space"

    def test_fibre_change_without_rational_inverse(self):
        """A fibre change w = x1 + x1^3 of one coordinate needs a root of a
        cubic to give x1 back, so the peeling refuses it with its reason,
        and leaves the state as it was."""
        w, x = symbolic.symbol("w"), _symbol(x1)
        K, (value,) = kernel_oracle.elements([x1 + x1**3], [x])
        state = construction.DecompositionState(
            report=None, st=None, base=K, coordinates=K, dynamics={},
            stands_for={}, gamma=[], forward_all={x: symbolic.generators(K, [x])[0]},
            point_cur={x: 0})
        with pytest.raises(StraighteningError) as info:
            construction._change_fibre(state, {w: value}, [x], 2)
        assert str(info.value) == ("fibre transformation at step 2 could not be "
                                   "inverted rationally: no solution branch is "
                                   "rational in x1")
        assert state.coordinates is K and set(state.forward_all) == {x}

    def test_forward_inverse_roundtrip(self, extracted):
        """The chart and the straightening, each inverted by its branch
        through the equilibrium, compose with their forward maps to the
        identity both ways."""
        _, report, trace = extracted
        chart, st = report.chart, trace.transformation
        assert _inverts(chart.inverse, chart.forward, chart.system_vars, chart.coords)
        assert _inverts(st.inverse, st.forward, st.states, st.ordered_symbols)


class TestExtractFlatOutput:
    def test_flagship_components(self, flat4_artifacts):
        flat_output = flat4_artifacts[0]
        assert len(flat_output) == 2
        assert sp.simplify(kernel_oracle.as_expr(flat_output[0]) - x1 * (x3 + 1)) == 0
        assert sp.simplify(kernel_oracle.as_expr(flat_output[1]) - (x2 + 3 * x4)) == 0

    def test_final_coordinates_in_original_variables(self, flat4_artifacts):
        trace = flat4_artifacts[1]
        values = {str(z): kernel_oracle.as_expr(a) for z, a in trace.z_values.items()}
        assert sp.simplify(values["y3_1"] - x1 * (x3 + 1)) == 0
        assert sp.simplify(values["y2_1"] - (x2 + 3 * x4)) == 0
        assert sp.simplify(values["zhat2_1"] - (x2 + x3 + 3 * x4)) == 0
        assert sp.simplify(values["zhat1_1"] - x4) == 0
        assert sp.simplify(values["zhat1_2"] - (u1 + 2 * u2)) == 0
        assert sp.simplify(values["zhat0_1"] - u2) == 0

    def test_coordinate_count(self, flat4, flat4_artifacts):
        trace = flat4_artifacts[1]
        assert len(trace.z_symbols) == flat4.n + flat4.m

    def test_redundancy_mismatch_is_refused(self, flat4, flat4_report):
        """The peeling counts the redundant directions of each step itself,
        step 0 included, and refuses a report whose mu disagrees."""
        for k in (0, 1):
            steps = list(flat4_report.steps)
            steps[k] = dataclasses.replace(steps[k], mu=steps[k].mu + 1)
            report = dataclasses.replace(flat4_report, steps=tuple(steps))
            with pytest.raises(FlatcheckError, match="redundancy mismatch at step %d: "
                               "decomposition found 0, analysis reported 1" % k):
                construction.extract_flat_output(flat4, report)

    def test_combined_transformation(self, flat4_artifacts):
        trace = flat4_artifacts[1]
        z = {str(s): kernel_oracle.sympy_symbol(s) for s in trace.z_symbols}
        rows = {str(sym): kernel_oracle.as_expr(a) for sym, a in trace.combined_rows}
        assert sp.simplify(rows["xbar1_1"] - z["zhat1_1"]) == 0
        assert sp.simplify(rows["xbar2_1"] - (z["zhat2_1"] - z["y2_1"])) == 0
        assert sp.simplify(rows["xbar2_2"] - z["y2_1"]) == 0
        assert sp.simplify(rows["xbar3_1"] - z["y3_1"]) == 0
        assert sp.simplify(rows["u1"] - (z["zhat1_2"] - 2 * z["zhat0_1"])) == 0
        assert sp.simplify(rows["u2"] - z["zhat0_1"]) == 0

    def test_z_inverse_substitutes_back(self, extracted):
        """The combined change, through every fibre change of the peeling,
        is inverted by z_inverse."""
        system, _, trace = extracted
        assert _inverts(trace.z_inverse, trace.z_values, system.variables, trace.z_symbols)

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
        residuals = [[kernel_oracle.as_expr(r) for r in b.residuals] for b in form.blocks]
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
        updates = {kernel_oracle.sympy_symbol(s): f
                   for s, f in zip(flat4.states, kernel_oracle.sympy_update(flat4))}
        shift_u = {
            sp.Symbol(u.name): sp.Symbol("%s_p1" % u.name) for u in flat4.inputs
        }
        current = {kernel_oracle.sympy_symbol(z): kernel_oracle.as_expr(a)
                   for z, a in trace.z_values.items()}
        ahead = {}
        for z, e in current.items():
            stepped = e.subs(shift_u, simultaneous=True).subs(
                updates, simultaneous=True
            )
            ahead[sp.Symbol(form.shifted[symbolic.symbol(z.name)].name)] = stepped
        for block in form.blocks:
            for residual in block.residuals:
                value = kernel_oracle.as_expr(residual).subs(
                    ahead, simultaneous=True).subs(current, simultaneous=True)
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
            assert sp.simplify(kernel_oracle.as_expr(got) - want) == 0
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
            assert sp.simplify(kernel_oracle.as_expr(got) - want) == 0

    def test_chain2_parametrization(self, chain2, chain2_report):
        flat_output, trace = construction.extract_flat_output(chain2, chain2_report)
        assert sp.simplify(kernel_oracle.as_expr(flat_output[0]) - x1) == 0
        form = construction.to_implicit_triangular(trace)
        p = construction.parametrize_from_triangular(form)
        y1, y1_p1, y1_p2 = sp.symbols("y1 y1_p1 y1_p2")
        assert p.R == (2,)
        assert sp.simplify(kernel_oracle.as_expr(p.F_x[0]) - y1) == 0
        assert sp.simplify(kernel_oracle.as_expr(p.F_x[1]) - y1_p1) == 0
        assert sp.simplify(kernel_oracle.as_expr(p.F_u[0]) - y1_p2) == 0

    def test_quadratic_output_function(self, sfl_quadratic, sfl_quadratic_report):
        flat_output, trace = construction.extract_flat_output(
            sfl_quadratic, sfl_quadratic_report
        )
        assert sp.simplify(kernel_oracle.as_expr(flat_output[0]) - (x2 - x1**2)) == 0
        form = construction.to_implicit_triangular(trace)
        p = construction.parametrize_from_triangular(form)
        y1, y1_p1, y1_p2 = sp.symbols("y1 y1_p1 y1_p2")
        assert p.R == (2,)
        assert sp.simplify(kernel_oracle.as_expr(p.F_x[0]) - y1_p1) == 0
        assert sp.simplify(kernel_oracle.as_expr(p.F_x[1]) - (y1 + y1_p1**2)) == 0
        assert sp.simplify(kernel_oracle.as_expr(p.F_u[0]) - y1_p2) == 0

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
        assert len(seen) == report.kbar + len(report.delta_chain()) - 1
        for coords, rows in seen:
            for row in rows:
                for a in row:
                    assert _used_generators(a) <= set(coords)

    @pytest.mark.parametrize("model_name", ["chain2", "flat4", "sfl_quadratic", "shift1",
                                            "redundant_input"])
    def test_each_block_is_renamed_into_a_field_once(self, model_name, load_system,
                                                     monkeypatch):
        """Each dependence check of block dynamics runs once: no peeling
        step renames a block into a field that another rename of it
        already reached.  redundant_input is peeled after its reduction."""
        system = load_system(model_name)
        if model_name == "redundant_input":
            system = model.eliminate_redundant_inputs(system).reduced
        report = analysis.run_algorithm1(system)
        seen = []
        original = construction._fbar_block

        def recorded(state, j, K, message):
            seen.append((j, K.symbols))
            return original(state, j, K, message)

        monkeypatch.setattr(construction, "_fbar_block", recorded)
        construction.extract_flat_output(system, report)
        assert seen and len(seen) == len(set(seen))

    @pytest.mark.parametrize("name", ["chain2", "flat4", "sfl_quadratic", "shift1",
                                      "quad_chain", "redundant_input", "A", "B", "D"])
    def test_each_step_leaves_its_distribution_vertical(self, name, load_system,
                                                        monkeypatch):
        """Each peeling step transforms D_k once, before its straightening.
        After the step D_k, re-read in the new coordinates (remaining,
        eta, verticals), lies along the verticals and keeps its dimension.
        The extraction ends with n + m final coordinates, m flat-output
        components and an inverse in QQ(z_symbols).  redundant_input is
        peeled after its reduction; A, B and D are the bases of
        test_properties' small flat systems, with u2 = 1 at the
        equilibrium."""
        if name in ("A", "B", "D"):
            system = _SmallFlat._changed(name, None)
        else:
            system = load_system(name)
            if name == "redundant_input":
                system = model.eliminate_redundant_inputs(system).reduced
        report = analysis.run_algorithm1(system)
        steps = []
        original = construction.decompose_step

        def checked(k, state, basis):
            original(k, state, basis)
            eta = state.gamma[len(state.st.blocks[k]):]
            outside = state.remaining_states(k) + eta
            rows = construction._transform(basis, state.forward_all, outside + state.verticals,
                                           state.inverse_current, state.stands_for)
            assert not any(a for row in rows for a in row[:len(outside)])
            vertical = [row[len(outside):] for row in rows]
            assert symbolic.element_rank(state.coordinates, vertical,
                                         len(state.verticals)) == basis.dim
            steps.append(k)

        monkeypatch.setattr(construction, "decompose_step", checked)
        components, trace = construction.extract_flat_output(system, report)
        assert steps == list(range(report.kbar))
        assert len(trace.z_symbols) == system.n + system.m
        assert len(components) == system.m
        Z = symbolic.field(trace.z_symbols)
        assert all(a.field == Z for a in trace.z_inverse.values())

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
        assert len(composed) == flat4_report.kbar + len(flat4_report.delta_chain()) - 1
        for elements in composed:
            assert len(elements) == len(set(elements))
