"""End-to-end command line behavior: output text, JSON documents, exit codes."""

import json
import sys
import traceback

import pytest
import sympy

from flatcheck import cli, model, modelfile, symbolic


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def model_path(models_dir, name):
    return str(models_dir / ("%s.sys" % name))


class TestAnalyze:
    def test_flagship_table(self, capsys, models_dir):
        code, out, err = run(capsys, "analyze", model_path(models_dir, "flat4"))
        assert code == 0
        assert "FLAT (kbar = 3)" in out
        assert "static feedback linearizable: no" in out
        assert "timing:" in err

    def test_not_flat_exit_code(self, capsys, models_dir):
        code, out, _ = run(
            capsys, "analyze", model_path(models_dir, "nonflat_bilinear")
        )
        assert code == 1
        assert "NOT_FLAT" in out

    def test_missing_file(self, capsys, models_dir):
        code, _, err = run(capsys, "analyze", model_path(models_dir, "missing"))
        assert code == 2
        assert "error:" in err

    def test_rank_degeneracy_is_indeterminate(self, capsys, models_dir):
        code, _, err = run(
            capsys, "analyze", model_path(models_dir, "quad_integrator")
        )
        assert code == 2
        assert "dimension" in err
        assert err.count("timing: analyze") == 1

    @pytest.mark.parametrize("command", ["analyze", "extract"])
    def test_pole_at_the_equilibrium_is_an_error(self, capsys, tmp_path, command):
        path = tmp_path / "pole.sys"
        path.write_text(
            "system pole\nstates: x1, x2\ninputs: u\nequilibrium: all zero\n"
            "next x1 = x2/(x1 + x2)\nnext x2 = u\n"
        )
        code, _, err = run(capsys, command, str(path))
        assert code == 2
        assert "error:" in err
        assert "update of x1" in err and "pole" in err

    def test_json_document(self, capsys, models_dir, tmp_path):
        target = tmp_path / "doc.json"
        code, _, _ = run(
            capsys,
            "analyze",
            model_path(models_dir, "chain2"),
            "--json",
            str(target),
        )
        assert code == 0
        doc = json.loads(target.read_text())
        assert set(doc) == {
            "version",
            "model",
            "algorithm1",
            "flat_output",
            "triangular",
            "parametrization",
            "verification",
        }
        assert set(doc["model"]) == {"name", "digest", "n", "m"}
        assert doc["model"]["name"] == "chain2"
        assert doc["model"]["n"] == 2
        assert doc["algorithm1"]["verdict"] == "FLAT"
        assert doc["algorithm1"]["sfl"] is True
        step_keys = {
            "k",
            "dim_delta",
            "dim_E",
            "dim_D",
            "rho",
            "mu",
            "delta_basis",
            "D_basis",
        }
        for step in doc["algorithm1"]["steps"]:
            assert set(step) == step_keys
        assert doc["flat_output"] is None
        assert doc["triangular"] is None
        assert doc["parametrization"] is None
        assert doc["verification"] == {"symbolic": None, "numeric": None}

    def test_json_byte_identical_across_runs(self, capsys, models_dir, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        run(capsys, "analyze", model_path(models_dir, "chain2"), "--json", str(first))
        run(capsys, "analyze", model_path(models_dir, "chain2"), "--json", str(second))
        assert first.read_bytes() == second.read_bytes()


class TestExtract:
    def test_flagship_artifacts(self, capsys, models_dir, tmp_path):
        target = tmp_path / "doc.json"
        code, out, _ = run(
            capsys,
            "extract",
            model_path(models_dir, "flat4"),
            "--json",
            str(target),
        )
        assert code == 0
        assert "y1 = x1*x3 + x1" in out
        assert "y2 = x2 + 3*x4" in out
        assert "R = (3, 2)" in out
        assert "verification: symbolic PASS" in out
        assert "verification: numeric PASS" in out
        doc = json.loads(target.read_text())
        assert doc["flat_output"]["components"] == ["x1*x3 + x1", "x2 + 3*x4"]
        assert doc["flat_output"]["q"] == 0
        assert len(doc["triangular"]["blocks"]) == 3
        assert doc["parametrization"]["R"] == [3, 2]
        assert doc["verification"]["symbolic"] == "PASS"
        assert doc["verification"]["numeric"]["trials"] == 20
        assert doc["verification"]["numeric"]["max_residual"] < 1e-9

    def test_not_flat_has_no_artifacts(self, capsys, models_dir):
        code, out, _ = run(
            capsys, "extract", model_path(models_dir, "nonflat_bilinear")
        )
        assert code == 1
        assert "no construction" in out
        assert "flat output:" not in out

    def test_irrational_parametrization_exit(self, capsys, models_dir):
        code, out, err = run(capsys, "extract", model_path(models_dir, "quad_chain"))
        assert code == 3
        assert "verdict: FLAT" in out
        assert "implicit solve failed" in err
        assert err.count("timing: analyze") == 1
        assert err.count("timing: construct") == 1

    def test_degree_cap_exit(self, capsys, models_dir):
        code, out, err = run(
            capsys,
            "extract",
            model_path(models_dir, "sfl_quadratic"),
            "--max-ansatz-degree",
            "1",
        )
        assert code == 3
        assert "verdict: FLAT" in out
        assert "ansatz degree 1" in err

    def test_redundant_inputs_reduced_and_extended(self, capsys, models_dir):
        code, out, _ = run(
            capsys, "extract", model_path(models_dir, "redundant_input")
        )
        assert code == 0
        assert "removed coordinates (u2)" in out
        assert "y1 = x1" in out
        assert "y2 = u2" in out


class TestVerify:
    def test_constructed_output_passes(self, capsys, models_dir):
        code, out, _ = run(
            capsys,
            "verify",
            model_path(models_dir, "flat4"),
            "--output",
            "x1*(x3+1); x2+3*x4",
            "--trials",
            "5",
            "--horizon",
            "10",
        )
        assert code == 0
        assert "symbolic: PASS at shift bound 3" in out
        assert "numeric: PASS" in out

    def test_dependent_candidate_fails(self, capsys, models_dir):
        code, out, _ = run(
            capsys,
            "verify",
            model_path(models_dir, "flat4"),
            "--output",
            "x1; 2*x1",
        )
        assert code == 1
        assert "symbolic: FAIL" in out

    def test_unsolved_candidate_is_inconclusive_and_bounded(self, capsys, models_dir):
        code, out, _ = run(
            capsys,
            "verify",
            model_path(models_dir, "flat4"),
            "--output",
            "x1*x3 + x1; x2",
        )
        assert code == 1
        assert "symbolic: INCONCLUSIVE at shift bound 5" in out

    def test_wrong_component_count(self, capsys, models_dir):
        code, _, err = run(
            capsys, "verify", model_path(models_dir, "flat4"), "--output", "x1"
        )
        assert code == 2
        assert "expected 2 output components" in err

    def test_unknown_identifier(self, capsys, models_dir):
        code, _, err = run(
            capsys,
            "verify",
            model_path(models_dir, "flat4"),
            "--output",
            "x1; x2 + w",
        )
        assert code == 2
        assert "unknown identifier" in err

    def test_pole_at_the_equilibrium_is_an_error(self, capsys, models_dir):
        code, _, err = run(
            capsys, "verify", model_path(models_dir, "chain2"), "--output", "1/x1"
        )
        assert code == 2
        assert "error: output component 1/x1 has a pole" in err


class TestSimulate:
    def test_float_trajectory(self, capsys, models_dir, tmp_path):
        inputs = tmp_path / "inputs.csv"
        inputs.write_text("u1,u2\n1,0\n")
        code, out, _ = run(
            capsys,
            "simulate",
            model_path(models_dir, "flat4"),
            "--x0",
            "0,0,0,0",
            "--inputs-file",
            str(inputs),
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,x1,x2,x3,x4,u1,u2"
        assert lines[1] == "0,0.0,0.0,0.0,0.0,1.0,0.0"
        assert lines[2] == "1,0.0,0.0,1.0,0.0,,"

    def test_exact_trajectory(self, capsys, models_dir, tmp_path):
        inputs = tmp_path / "inputs.csv"
        inputs.write_text("1,0\n")
        code, out, _ = run(
            capsys,
            "simulate",
            model_path(models_dir, "flat4"),
            "--x0",
            "0,0,0,0",
            "--inputs-file",
            str(inputs),
            "--exact",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[2] == "1,0,0,1,0,,"

    def test_dimension_mismatch(self, capsys, models_dir, tmp_path):
        inputs = tmp_path / "inputs.csv"
        inputs.write_text("1,0\n")
        code, _, err = run(
            capsys,
            "simulate",
            model_path(models_dir, "flat4"),
            "--x0",
            "0,0",
            "--inputs-file",
            str(inputs),
        )
        assert code == 2
        assert "initial state" in err

    def test_pole_exit(self, capsys, models_dir, tmp_path):
        inputs = tmp_path / "inputs.csv"
        inputs.write_text("-1,0\n")
        code, _, err = run(
            capsys,
            "simulate",
            model_path(models_dir, "flat4"),
            "--x0",
            "0,0,0,0",
            "--inputs-file",
            str(inputs),
            "--exact",
        )
        assert code == 2
        assert "pole encountered at step 0" in err

    def test_missing_inputs_file(self, capsys, models_dir, tmp_path):
        code, _, err = run(
            capsys,
            "simulate",
            model_path(models_dir, "flat4"),
            "--x0",
            "0,0,0,0",
            "--inputs-file",
            str(tmp_path / "absent.csv"),
        )
        assert code == 2
        assert "error:" in err


class TestNoSympyCalls:
    """The pipeline decides in the exact kernel: none of sympy's own
    solve, cancel, together, simplify or subs is reached."""

    @pytest.mark.parametrize("name", ["solve", "cancel", "together", "simplify"])
    def test_extract_and_verify_without(self, name, capsys, models_dir, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sympy.%s was called" % name)

        defining = getattr(sympy, name).__module__
        for module in ("sympy", defining.rpartition(".")[0], defining):
            monkeypatch.setattr(sys.modules[module], name, refuse)
        for model in ("chain2", "flat4", "redundant_input"):
            code, out, _ = run(capsys, "extract", model_path(models_dir, model))
            assert code == 0, model
            assert "verification: symbolic PASS" in out
        code, out, _ = run(
            capsys, "verify", model_path(models_dir, "chain2"), "--output", "x1"
        )
        assert code == 0
        assert "symbolic: PASS" in out

    def test_flat4_without_subs(self, capsys, models_dir, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Basic.subs was called")

        monkeypatch.setattr(sympy.core.basic.Basic, "subs", refuse)
        flat4 = model_path(models_dir, "flat4")
        code, out, _ = run(capsys, "analyze", flat4)
        assert code == 0
        code, out, _ = run(capsys, "extract", flat4)
        assert code == 0
        assert "verification: symbolic PASS" in out
        code, out, _ = run(capsys, "verify", flat4, "--output", "x1*x3 + x1; x2 + 3*x4")
        assert code == 0
        assert "symbolic: PASS" in out


class TestExpressionBoundary:
    """Expressions enter the field-element kernel only where the user
    writes them: the model's update map and the candidate components."""

    def test_flat4_converts_only_the_update_map_and_the_candidate(
        self, capsys, models_dir, monkeypatch, tmp_path
    ):
        flat4 = model_path(models_dir, "flat4")
        output = "x1*x3 + x1; x2 + 3*x4"
        system = modelfile.load_model(flat4)
        allowed = set(system.update)
        allowed.update(modelfile.parse_expression(piece, system) for piece in output.split(";"))
        converted = []
        fractions = symbolic._fractions

        def recorded(exprs, gens=None):
            exprs = list(exprs)
            converted.extend(exprs)
            return fractions(exprs, gens)

        monkeypatch.setattr(symbolic, "_fractions", recorded)
        code, _, _ = run(capsys, "extract", flat4, "--json", str(tmp_path / "flat4.json"))
        assert code == 0
        code, _, _ = run(capsys, "verify", flat4, "--output", output)
        assert code == 0
        assert converted
        assert [e for e in converted if e not in allowed] == []

    def test_reduction_converts_only_the_update_maps(self, capsys, models_dir, monkeypatch):
        """The input reduction hands its kept functions on as elements, so
        extract converts two expression lists, the update maps of the
        system and of the reduced system, both in model.update_elements."""
        callers = []
        fractions = symbolic._fractions

        def recorded(exprs, gens=None):
            callers.append([frame.name for frame in traceback.extract_stack()])
            return fractions(exprs, gens)

        model.update_elements.cache_clear()
        monkeypatch.setattr(symbolic, "_fractions", recorded)
        code, _, _ = run(capsys, "extract", model_path(models_dir, "redundant_input"))
        assert code == 0
        assert len(callers) == 2
        assert all("update_elements" in names for names in callers)


class TestVacuousFlags:
    """Flags that would make the numeric verification vacuous, or the
    invariant search empty, are usage errors (exit 2)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--output", "x1", "--trials", "0"],
            ["verify", "--output", "x1", "--horizon", "-1"],
            ["verify", "--output", "x1", "--box", "0"],
            ["verify", "--output", "x1", "--box", "-1"],
            ["verify", "--output", "x1", "--tol", "inf"],
            ["verify", "--output", "x1", "--tol", "nan"],
            ["extract", "--trials", "0"],
            ["extract", "--max-ansatz-degree", "0"],
            ["extract", "--max-ansatz-degree", "-2"],
        ],
    )
    def test_usage_error(self, capsys, models_dir, argv):
        command, *flags = argv
        with pytest.raises(SystemExit) as exc:
            cli.main([command, model_path(models_dir, "chain2")] + flags)
        assert exc.value.code == 2
        assert "expected" in capsys.readouterr().err


class TestRanksByEvaluation:
    """Every rank decision of the flat4 verify is certified at a rational
    point: no row reduction over a rational function field is needed."""

    def test_verify_without_fraction_field_rref(self, capsys, models_dir, monkeypatch):
        reduce = symbolic.element_rref

        def rational_only(K, rows, ncols):
            if K is not sympy.QQ:
                raise AssertionError("row reduction over %s" % K)
            return reduce(K, rows, ncols)

        monkeypatch.setattr(symbolic, "element_rref", rational_only)
        code, out, _ = run(
            capsys,
            "verify",
            model_path(models_dir, "flat4"),
            "--output",
            "x1*x3 + x1; x2 + 3*x4",
        )
        assert code == 0
        assert "symbolic: PASS at shift bound 3" in out
