"""Acceptance gate: one test per shipped criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Tolerances and bounds are pinned here and must not
be loosened; a red line means the criterion is not met.
"""

import importlib.util
import pathlib
import time

import pytest
import sympy as sp

from flatcheck import analysis, cli, construction, geometry, symbolic, verification
from flatcheck.verification import FlatParametrization

import geometry_oracles
import kernel_oracle

x1, x2, x3, x4 = sp.symbols("x1 x2 x3 x4")

ANALYSIS_TIME_BUDGET = 30.0
NUMERIC_TOL = 1e-9
MUTATION_FLOOR = 1e-3
PROPERTY_CASES = 50


def _span_equal(a, b):
    return (
        a.dim == b.dim
        and geometry_oracles.contains_distribution(a, b)
        and geometry_oracles.contains_distribution(b, a)
    )


def _same_residual_set(actual, expected):
    remaining = list(expected)
    for r in actual:
        for e in remaining:
            if sp.expand(r - e) == 0 or sp.expand(r + e) == 0:
                remaining.remove(e)
                break
        else:
            return False
    return not remaining


def test_criterion_1_flagship_dimension_sequence(flat4):
    started = time.perf_counter()
    report = analysis.run_algorithm1(flat4)
    elapsed = time.perf_counter() - started

    assert [s.delta.dim for s in report.steps[1:]] == [1, 3, 4]
    assert report.kbar == 3
    assert report.verdict == "FLAT"
    assert report.sfl is False
    assert report.steps[2].D.dim == 5

    D0 = report.steps[0].D
    rows = [list(row) for row in D0.rows]
    assert len(rows) == 1
    state_part = rows[0][: flat4.n]
    assert all(not e for e in state_part)
    K = symbolic.function_field(rows[0][0].field.symbols)
    u_part = symbolic.element_rref(K, [rows[0][flat4.n :]], flat4.m)[0]
    expected = symbolic.element_rref(
        K, [kernel_oracle.elements([-2, 1], K.symbols)[1]], flat4.m
    )[0]
    assert u_part == expected

    assert elapsed < ANALYSIS_TIME_BUDGET


def test_criterion_2_flagship_flat_output_and_triangular(
    flat4_artifacts, models_dir, capsys
):
    flat_output, trace, form, p = flat4_artifacts
    assert sp.expand(kernel_oracle.as_expr(flat_output[0]) - x1 * (x3 + 1)) == 0
    assert sp.expand(kernel_oracle.as_expr(flat_output[1]) - (x2 + 3 * x4)) == 0

    code = cli.main(["extract", str(models_dir / "flat4.sys")])
    out = capsys.readouterr().out
    assert code == 0
    assert "verification: symbolic PASS" in out
    assert "verification: numeric PASS" in out

    assert [b.k for b in form.blocks] == [3, 2, 1]
    assert sum(len(b.residuals) for b in form.blocks) == 4
    names = {}
    for z in form.trace.z_symbols:
        names[str(z)] = kernel_oracle.sympy_symbol(z)
        names[str(form.shifted[z])] = kernel_oracle.sympy_symbol(form.shifted[z])
    for y in form.trace.y_level_symbols:
        names[str(y)] = kernel_oracle.sympy_symbol(y)
        names[str(form.shifted[y])] = kernel_oracle.sympy_symbol(form.shifted[y])
    expected_blocks = {
        3: [names["y3_1_p1"] - names["zhat2_1"]],
        2: [
            names["zhat2_1_p1"] - names["y2_1_p1"] - names["zhat1_2"],
            names["y2_1_p1"] - names["y3_1"] * names["zhat1_2"] - names["zhat1_1"],
        ],
        1: [names["zhat1_1_p1"] - names["y3_1"] - names["zhat0_1"]],
    }
    for block in form.blocks:
        residuals = [kernel_oracle.as_expr(r) for r in block.residuals]
        assert _same_residual_set(residuals, expected_blocks[block.k])


def test_criterion_3_parametrization_identities(flat4, flat4_artifacts):
    _, _, _, p = flat4_artifacts
    exprs = [symbolic.expression(a) for a in p.F_x + p.F_u]
    jets = sorted(
        {s for a in p.F_x + p.F_u for s in symbolic.used_symbols(a)},
        key=lambda s: s.name,
    )
    shifted = [verification.jet_symbol(j, s + 1)
               for j, s in map(verification.parse_jet_symbol, jets)]
    K, elements = kernel_oracle.elements(exprs, sorted(set(jets + shifted), key=str))
    # x+ = f(x, u) along the parametrization: F_x shifted once equals f
    # composed with (F_x, F_u)
    _, update = kernel_oracle.elements(flat4.update, flat4.variables)
    images = dict(zip(flat4.variables, elements))
    for i in range(flat4.n):
        ahead = verification.shift_function(elements[i])
        through = symbolic.compose(update[i], images, K)
        assert symbolic.rename(ahead, K, {}) == through

    jacobian = [[kernel_oracle.diff(e, s) for s in jets] for e in elements]
    assert symbolic.element_rank(K, jacobian, len(jets)) == flat4.n + flat4.m

    for j, bound in enumerate(p.R, start=1):
        top = verification.jet_symbol(j, bound)
        for e in p.F_x:
            assert sp.diff(kernel_oracle.as_expr(e), kernel_oracle.sympy_symbol(top)) == 0

    ok, detail = verification.check_parametrization(flat4, p)
    assert ok, detail


def test_criterion_4_numeric_replay(flat4, flat4_artifacts):
    flat_output, _, _, p = flat4_artifacts
    report = verification.verify_flat_output_numeric(
        flat4,
        p,
        trials=20,
        horizon=20,
        tol=NUMERIC_TOL,
        seed=0,
        box=0.1,
        candidate=flat_output,
    )
    assert report.status == "PASS"
    assert report.trials == 20
    assert report.max_residual < NUMERIC_TOL


@pytest.mark.parametrize("name", ["chain2", "sfl_quadratic"])
def test_criterion_5_static_feedback_linearizable_pattern(load_system, name):
    system = load_system(name)
    report = analysis.run_algorithm1(system)
    assert report.verdict == "FLAT"
    assert report.sfl is True
    assert geometry_oracles.sfl_dimensions_are_brunovsky(report)
    for step in report.steps:
        assert step.D.dim == step.E.dim
        assert _span_equal(step.D, step.E)

    _, trace = construction.extract_flat_output(system, report)
    form = construction.to_implicit_triangular(trace)
    assert [b.k for b in form.blocks] == [2, 1]
    levels = [[], [], list(form.trace.y_level_symbols)]
    for block in form.blocks:
        assert len(block.residuals) == 1
        assert len(block.solved_for) == 1
        levels[block.k - 1] = list(block.solved_for)
    for block in form.blocks:
        upstream = levels[block.k][0]
        residual = kernel_oracle.as_expr(block.residuals[0])
        delay = (kernel_oracle.sympy_symbol(form.shifted[upstream])
                 - kernel_oracle.sympy_symbol(block.solved_for[0]))
        assert sp.expand(residual - delay) == 0 or sp.expand(residual + delay) == 0


def test_criterion_6_nonflat_detection(nonflat_bilinear, models_dir, capsys):
    report = analysis.run_algorithm1(nonflat_bilinear)
    assert report.steps[0].D.dim == 0
    assert report.kbar == 0
    assert report.verdict == "NOT_FLAT"

    code = cli.main(["analyze", str(models_dir / "nonflat_bilinear.sys")])
    capsys.readouterr()
    assert code == 1


def test_criterion_7_property_suites_present():
    path = pathlib.Path(__file__).parent / "test_properties.py"
    spec = importlib.util.spec_from_file_location("acceptance_props", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert len(module.SEEDS) >= PROPERTY_CASES
    assert len(module._lps_cases()) >= PROPERTY_CASES
    suites = [
        ("TestBracketAlgebra", "test_antisymmetry"),
        ("TestBracketAlgebra", "test_jacobi_identity"),
        ("TestPushforwardCommutesWithBracket", "test_commutation"),
        ("TestLargestProjectableSubdistribution", "test_unique_under_basis_mixing"),
        ("TestLargestProjectableSubdistribution", "test_idempotent_on_projectable_spans"),
        ("TestInvarianceUnderLinearStateChanges", "test_verdict_and_dimensions"),
        ("TestIntegratorExtensionPreservesFlatness", "test_input_delay_extension"),
        ("TestRedundantInputExtension", "test_removed_input_becomes_component"),
    ]
    for class_name, test_name in suites:
        suite = getattr(module, class_name)
        assert hasattr(suite, test_name)


def test_criterion_8_mutation_is_detected(flat4, flat4_artifacts):
    flat_output, _, _, p = flat4_artifacts
    y1_jet = verification.jet_symbol(1, 0)
    mutated = FlatParametrization(
        F_x=p.F_x,
        F_u=(kernel_oracle.from_sympy(
            p.F_u[0].field, kernel_oracle.as_expr(p.F_u[0]) + kernel_oracle.sympy_symbol(y1_jet)),)
        + tuple(p.F_u[1:]),
    )
    report = verification.verify_flat_output_numeric(
        flat4,
        mutated,
        trials=20,
        horizon=20,
        tol=NUMERIC_TOL,
        seed=0,
        box=0.1,
        candidate=flat_output,
    )
    assert report.status == "FAIL"
    assert len(report.trial_records) == 20
    for record in report.trial_records:
        assert record.residual > MUTATION_FLOOR
