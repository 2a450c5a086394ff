"""The distribution-sequence flatness test on the model corpus."""

import pytest

from flatcheck import analysis
from flatcheck.errors import ConstantDimensionError, RedundantInputsError

import geometry_oracles

FLAGSHIP_TRACE = [
    # k, dim_delta, dim_E, dim_D, rho, mu
    (0, 0, 2, 1, 0, 0),
    (1, 1, 3, 3, 1, 0),
    (2, 3, 5, 5, 2, 1),
    (3, 4, 6, 6, 1, 1),
]


class TestFlagship:
    def test_verdict(self, flat4_report):
        assert flat4_report.verdict == "FLAT"
        assert flat4_report.flat
        assert flat4_report.kbar == 3
        assert flat4_report.sfl is False
        assert geometry_oracles.linearization_is_controllable(flat4_report.system)

    @pytest.mark.parametrize("row", FLAGSHIP_TRACE)
    def test_step_table(self, flat4_report, row):
        k, dim_delta, dim_E, dim_D, rho, mu = row
        step = flat4_report.steps[k]
        assert step.k == k
        assert step.delta.dim == dim_delta
        assert step.E.dim == dim_E
        assert step.D.dim == dim_D
        assert step.rho == rho
        assert step.mu == mu

    def test_delta_chain_dimensions(self, flat4_report):
        assert [d.dim for d in flat4_report.delta_chain()] == [1, 3, 4]

    def test_rho_sums_to_state_dimension(self, flat4_report):
        assert sum(s.rho for s in flat4_report.steps) == flat4_report.system.n

    def test_classify_table(self, flat4_report):
        text = analysis.classify(flat4_report)
        assert "FLAT (kbar = 3)" in text
        assert "static feedback linearizable: no" in text
        assert "dim D_0=1 < dim E_0=2" in text


class TestStaticFeedbackLinearizable:
    @pytest.mark.parametrize("name, kbar", [("chain2", 2), ("sfl_quadratic", 2)])
    def test_sfl_systems(self, load_system, name, kbar):
        report = analysis.run_algorithm1(load_system(name))
        assert report.verdict == "FLAT"
        assert report.sfl is True
        assert geometry_oracles.sfl_dimensions_are_brunovsky(report)
        assert report.kbar == kbar
        assert geometry_oracles.linearization_is_controllable(report.system)
        for step in report.steps:
            assert step.D.dim == step.E.dim

    def test_single_shift_register(self, shift1):
        report = analysis.run_algorithm1(shift1)
        assert report.verdict == "FLAT"
        assert report.kbar == 1
        assert report.sfl is True
        assert geometry_oracles.sfl_dimensions_are_brunovsky(report)
        assert geometry_oracles.linearization_is_controllable(shift1)


class TestNegativeAndInvalid:
    def test_bilinear_is_not_flat(self, nonflat_bilinear):
        report = analysis.run_algorithm1(nonflat_bilinear)
        assert report.verdict == "NOT_FLAT"
        assert report.kbar == 0
        assert report.steps[0].D.dim == 0

    def test_redundant_inputs_must_be_reduced_first(self, redundant_input):
        with pytest.raises(RedundantInputsError) as info:
            analysis.run_algorithm1(redundant_input)
        # raised by the validation, before any step of the sequence
        assert info.value.k is None

    def test_constant_dimension_violation(self, load_system):
        with pytest.raises(ConstantDimensionError) as info:
            analysis.run_algorithm1(load_system("quad_integrator"))
        # the error names the step of the sequence that raised it
        assert info.value.k == 1

    def test_quad_chain_is_flat(self, quad_chain):
        report = analysis.run_algorithm1(quad_chain)
        assert report.verdict == "FLAT"
        assert report.kbar == 2
        assert report.sfl is True
        assert geometry_oracles.sfl_dimensions_are_brunovsky(report)
        assert geometry_oracles.linearization_is_controllable(quad_chain)
