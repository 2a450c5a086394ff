"""End-to-end command line behavior: output text, JSON documents, exit codes."""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

from flatcheck import cli, symbolic, verification

import geometry_oracles
from test_golden import VERIFY_CASES


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

    @pytest.mark.parametrize("name, model, message", [
        ("rd", "states: x1\ninputs: u\nnext x1 = u^2 + x1^2\n",
         "rank drop at equilibrium (rank 0 < n = 1)"),
        ("ird", "states: x1, x2\ninputs: u\nnext x1 = x2\nnext x2 = x1 + u^2\n",
         "input rank drop at equilibrium (0 < 1)"),
    ])
    def test_rank_drop_at_the_equilibrium_is_an_error(self, capsys, tmp_path, name, model,
                                                      message):
        """rd's Jacobian and ird's input columns have full rank
        generically but not at the all-zero equilibrium."""
        path = tmp_path / ("%s.sys" % name)
        path.write_text("system %s\nequilibrium: all zero\n%s" % (name, model))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "error: system %r: %s\n" % (name, message) in err

    def test_chart_without_rational_inverse_is_an_error(self, capsys, tmp_path):
        """x1+ = u1^3 + u1 is regular in u1 at the equilibrium, but its
        inverse needs a root of a cubic, so no rational chart exists."""
        path = tmp_path / "cubic.sys"
        path.write_text("system cubic\nstates: x1\ninputs: u1\nequilibrium: all zero\n"
                        "next x1 = u1^3 + u1\n")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert ("error: the chart inverse was not found: no solution branch is "
                "rational in u1 (xi = ('x1',))\n") in err

    def test_input_reduction_without_rational_inverse_is_an_error(self, capsys, tmp_path):
        """x1+ = u1^3 + u1 + u2 has input rank 1, and its effective input
        uhat_1 = u1^3 + u1 + u2, with u2 kept, needs a root of a cubic to
        give u1 back: the reduction refuses, and names the unknown."""
        path = tmp_path / "cubic_pair.sys"
        path.write_text("system cubic_pair\nstates: x1\ninputs: u1, u2\n"
                        "equilibrium: all zero\nnext x1 = u1^3 + u1 + u2\n")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert ("error: system 'cubic_pair': cannot invert the effective-input change "
                "through the equilibrium: no solution branch is rational in u1\n") in err

    def test_json_document(self, capsys, models_dir, tmp_path, load_system):
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
        dims = [step["dim_delta"] for step in doc["algorithm1"]["steps"][1:]]
        assert dims == geometry_oracles.controllability_ranks(load_system("chain2"), len(dims))
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

    def test_straightening_without_rational_inverse_exits_3(self, capsys, tmp_path):
        """x1+ = u, x2+ = x1 - u - u^3 is flat (and static feedback
        linearizable), but the straightening's state change needs a root
        of a cubic to give x1 back: the construction fails honestly."""
        path = tmp_path / "cubic_chain.sys"
        path.write_text("system cubic_chain\nstates: x1, x2\ninputs: u\n"
                        "equilibrium: all zero\nnext x1 = u\nnext x2 = x1 - u - u^3\n")
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert "system cubic_chain: FLAT (kbar = 2)\n" in out
        assert "static feedback linearizable: yes\n" in out
        code, out, err = run(capsys, "extract", str(path))
        assert code == 3
        assert "verdict: FLAT (kbar = 2)" in out
        assert ("construction failed: state transformation could not be inverted "
                "rationally: no solution branch is rational in x1\n") in err

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

    def test_failed_symbolic_check_exits_3(self, capsys, models_dir, tmp_path, monkeypatch):
        monkeypatch.setattr(verification, "check_parametrization",
                            lambda system, p: (False, "dynamics identity fails for x1"))
        target = tmp_path / "doc.json"
        code, out, err = run(capsys, "extract", model_path(models_dir, "chain2"),
                             "--json", str(target))
        assert code == 3
        assert "verification: symbolic FAIL (dynamics identity fails for x1)\n" in out
        assert "verification: numeric PASS" in out
        assert "construction verification failed" in err
        golden = (GOLDEN_DIR / "extract-chain2.json").read_text()
        assert golden.count('"symbolic": "PASS"') == 1
        assert target.read_text() == golden.replace('"symbolic": "PASS"', '"symbolic": "FAIL"')

    def test_failed_numeric_check_exits_3(self, capsys, models_dir, tmp_path, monkeypatch):
        replay = verification.verify_flat_output_numeric
        monkeypatch.setattr(
            verification, "verify_flat_output_numeric",
            lambda *args, **kwargs: dataclasses.replace(replay(*args, **kwargs),
                                                        status="FAIL"))
        target = tmp_path / "doc.json"
        code, out, err = run(capsys, "extract", model_path(models_dir, "chain2"),
                             "--json", str(target))
        assert code == 3
        assert "verification: symbolic PASS" in out
        assert "verification: numeric FAIL (trials=20, max residual 0.000e+00)\n" in out
        assert "construction verification failed" in err
        assert target.read_bytes() == (GOLDEN_DIR / "extract-chain2.json").read_bytes()

    def test_redundant_inputs_reduced_and_extended(self, capsys, models_dir, redundant_input):
        code, out, _ = run(
            capsys, "extract", model_path(models_dir, "redundant_input")
        )
        assert code == 0
        assert geometry_oracles.linearization_is_controllable(redundant_input)
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

    def test_float_csv_is_pinned(self, capsys, models_dir):
        """The float CSV of a nonlinear run equals, byte for byte, the one
        recorded when every update entry was compiled on its own."""
        golden = pathlib.Path(__file__).resolve().parent / "golden"
        code, out, _ = run(
            capsys,
            "simulate",
            model_path(models_dir, "flat4"),
            "--x0",
            "0.01,-0.02,0.015,0.005",
            "--inputs-file",
            str(golden / "simulate-flat4-inputs.csv"),
        )
        assert code == 0
        assert out == (golden / "simulate-flat4.csv").read_text(encoding="utf-8")

    def test_exact_csv_is_pinned(self, capsys, models_dir):
        """The exact CSV prints each rational value in lowest terms, as
        numerator/denominator."""
        code, out, _ = run(
            capsys,
            "simulate",
            model_path(models_dir, "flat4"),
            "--x0",
            "0.01,-0.02,0.015,0.005",
            "--inputs-file",
            str(GOLDEN_DIR / "simulate-flat4-inputs.csv"),
            "--exact",
        )
        assert code == 0
        assert out == (GOLDEN_DIR / "simulate-flat4-exact.csv").read_text(encoding="utf-8")

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

    @pytest.mark.parametrize("x0, message", [
        ("nan,0", "initial state entry 1 is nan"),
        ("inf,0", "initial state entry 1 is inf"),
        ("0,nan", "initial state entry 2 is nan"),
        ("0,-inf", "initial state entry 2 is -inf"),
    ])
    def test_non_finite_initial_state(self, capsys, models_dir, tmp_path, x0, message):
        inputs = tmp_path / "inputs.csv"
        inputs.write_text("1\n2\n")
        code, out, err = run(capsys, "simulate", model_path(models_dir, "chain2"),
                             "--x0", x0, "--inputs-file", str(inputs))
        assert code == 2
        assert out == ""
        assert "error: %s, not a finite number" % message in err
        assert "pole" not in err

    @pytest.mark.parametrize("rows, message", [
        # a first row of numbers that are not finite is no header
        ("nan\n2\n", "input row 1 entry 1 is nan"),
        ("1\nnan\n", "input row 2 entry 1 is nan"),
        ("u\n1\ninf\n", "input row 2 entry 1 is inf"),
    ])
    def test_non_finite_input_row(self, capsys, models_dir, tmp_path, rows, message):
        inputs = tmp_path / "inputs.csv"
        inputs.write_text(rows)
        code, out, err = run(capsys, "simulate", model_path(models_dir, "chain2"),
                             "--x0", "0,0", "--inputs-file", str(inputs))
        assert code == 2
        assert out == ""
        assert "error: %s, not a finite number" % message in err

    @pytest.mark.parametrize("rows, message", [
        # float() reads a first row of nan, so it is no header
        ("nan\n2\n", "input row 1 entry 1 is nan"),
        ("1\ninf\n", "input row 2 entry 1 is inf"),
        ("u\n1\n-inf\n", "input row 2 entry 1 is -inf"),
    ])
    def test_exact_non_finite_input_row(self, capsys, models_dir, tmp_path, rows, message):
        inputs = tmp_path / "inputs.csv"
        inputs.write_text(rows)
        code, out, err = run(capsys, "simulate", model_path(models_dir, "chain2"),
                             "--x0", "0,0", "--inputs-file", str(inputs), "--exact")
        assert code == 2
        assert out == ""
        assert "error: %s, not a rational number" % message in err

    def test_exact_zero_denominator_is_a_usage_error(self, capsys, models_dir, tmp_path):
        inputs = tmp_path / "inputs.csv"
        inputs.write_text("1\n1/0\n")
        code, _, err = run(capsys, "simulate", model_path(models_dir, "chain2"),
                           "--x0", "1/0,0", "--inputs-file", str(inputs), "--exact")
        assert code == 2
        assert "--x0 expects" in err
        code, _, err = run(capsys, "simulate", model_path(models_dir, "chain2"),
                           "--x0", "0,0", "--inputs-file", str(inputs), "--exact")
        assert code == 2
        assert "non-numeric entry in row 2" in err


GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
MODELS_DIR = pathlib.Path(__file__).resolve().parent.parent / "models"
# runs one command line and prints the sympy modules loaded at its end
_LOADED = (
    "import sys\n"
    "from flatcheck import cli\n"
    "cli.main(sys.argv[1:])\n"
    "print('loaded:', sorted(m for m in sys.modules if m.partition('.')[0] == 'sympy'))\n"
)
# a model whose update multiplies a base by itself
REPEATED_BASE = """system repeated
states: x1, x2
inputs: u
equilibrium: all zero
next x1 = x2 + x1*x1
next x2 = u
"""


def _corpus(seeds=(1, 2, 3)) -> list:
    """The members of the benchmark's seeded corpus (perfbench/generate.py)
    for each seed."""
    path = str(MODELS_DIR.parent / "perfbench")
    sys.path.insert(0, path)
    try:
        import generate
    finally:
        sys.path.remove(path)
    return [member for seed in seeds for member in generate.corpus(seed)]


CORPUS = _corpus()


class TestImportBoundary:
    """No command imports sympy: a fresh interpreter that runs analyze or
    extract on any bundled model, on a model with a repeated base or on a
    member of the benchmark's generated corpus (seeds 1-3), verify on any
    golden record or on x1 of a flat corpus member, or a float simulate,
    has no sympy module loaded at its end.  The numbers, symbols,
    expressions and polynomials of the pipeline are symbolic's own;
    extract quad_chain factors an equation linear in a generator without
    sympy's factorization."""

    @pytest.mark.parametrize(
        "command, name",
        [(command, path.stem) for command in ("analyze", "extract")
         for path in sorted(MODELS_DIR.glob("*.sys"))],
    )
    def test_analysis(self, command, name, tmp_path):
        self._check([command, model_path(MODELS_DIR, name), "--json", str(tmp_path / "doc.json")])

    @pytest.mark.parametrize("name, output", VERIFY_CASES)
    def test_verify(self, name, output):
        self._check(["verify", model_path(MODELS_DIR, name), "--output", output])

    @pytest.mark.parametrize("index", range(len(CORPUS)))
    def test_generated_corpus(self, index, tmp_path):
        member = CORPUS[index]
        path = tmp_path / ("%s.sys" % member["name"])
        path.write_text(member["text"], encoding="utf-8")
        for command in ("analyze", "extract"):
            self._check([command, str(path), "--json", str(tmp_path / "doc.json")])
        if member["expected"]["verdict"] == "FLAT":
            self._check(["verify", str(path), "--output", "x1"])

    def test_repeated_base(self, tmp_path):
        model = tmp_path / "repeated.sys"
        model.write_text(REPEATED_BASE)
        self._check(["extract", str(model), "--json", str(tmp_path / "doc.json")])

    @pytest.mark.parametrize("exact", [[], ["--exact"]])
    def test_float_simulate(self, exact):
        golden = MODELS_DIR.parent / "tests" / "golden"
        self._check(["simulate", model_path(MODELS_DIR, "flat4"), "--x0", "0.01,-0.02,0.015,0.005",
                     "--inputs-file", str(golden / "simulate-flat4-inputs.csv"), *exact])

    @staticmethod
    def _check(argv):
        path = [str(MODELS_DIR.parent / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run([sys.executable, "-c", _LOADED] + argv, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "loaded: []"


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
            if K is not symbolic.QQ:
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
