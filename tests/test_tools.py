"""The code-line counter of tools/code_lines.py, the summary of
tools/bench_pairs.py, and the names of the benchmark's per-layer
metrics."""

import importlib
import importlib.util
import inspect
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts


# a comment line does not
class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string
that is no docstring"""
        return (text,
                os.sep)
'''


def test_counts_code_lines_only(tmp_path):
    """Blank lines, comment lines and the module, class and function
    docstrings do not count; a string that is no docstring counts on
    each of its lines, and so does each line of a bracketed expression."""
    module = tmp_path / "sample.py"
    module.write_text(SAMPLE, encoding="utf-8")
    assert code_lines.code_lines(module) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    (tmp_path / "b.py").write_text('"""Doc."""\nz = 3\n', encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["2", str(tmp_path / "a.py")], ["1", str(tmp_path / "b.py")], ["3", "total"]]


@pytest.mark.parametrize("argv", [["--help"], ["no/such/module.py"]])
def test_a_path_that_does_not_exist_prints_the_usage(argv, capsys):
    assert code_lines.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[0] == code_lines.USAGE


def test_pair_summary_counts_the_wins_in_the_better_direction():
    """Each side's median and quartiles and the pairs in which the change
    reads better: lower for a time, and ties count for neither side."""
    spec = {"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower"},
                           {"name": "score", "unit": "1", "better": "higher"}]}
    pairs = [(0.30, 0.06, 1, 2), (0.36, 0.07, 1, 1), (0.32, 0.32, 3, 2), (0.34, 0.05, 2, 1)]
    runs = [{"seed": i + 1,
             "parent": {"correct": True, "failed": 0, "metrics": {"setup_s": p, "score": a}},
             "change": {"correct": True, "failed": i == 3, "metrics": {"setup_s": c, "score": b}}}
            for i, (p, c, a, b) in enumerate(pairs)]
    record = bench_pairs._workload_record(runs, spec)
    setup = record["metrics"]["setup_s"]
    assert (setup["change_wins"], setup["pairs"]) == (3, 4)
    assert setup["parent"]["median"] == 0.33 and setup["change"]["median"] == 0.065
    assert setup["parent"]["q1"] < setup["parent"]["median"] < setup["parent"]["q3"]
    assert record["metrics"]["score"]["change_wins"] == 1
    assert record["failed"] == {"parent": 0, "change": 1}
    assert record["correct"] == {"parent": True, "change": True}


# Per-layer metrics of BENCHMARK.json whose functions flatcheck no longer
# has; a change to the benchmark replaces them.
GONE_FROM_THE_PACKAGE = frozenset({
    "symbolic.canonical_pair", "symbolic.clear_denominators", "symbolic.evaluate_exact",
    "symbolic.function_field_rref", "symbolic.is_zero", "symbolic.rank_at_point",
    "symbolic.solve_algebraic"})


def _is_public_function(module, attr) -> bool:
    fn = getattr(module, attr, None)
    return (not attr.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == module.__name__)


def test_benchmark_per_layer_names_are_public_functions():
    """The benchmark's tracer times the public functions of flatcheck's
    layer modules by name, so a per-layer metric <layer>.<function>.<stat>
    of BENCHMARK.json whose function is private, renamed or gone would
    read 0 instead of failing.  Metrics of other sources (sympy.*,
    import.*, trace.*) are not checked."""
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    checked, wrong = set(), []
    for metric in per_layer:
        parts = metric["name"].split(".")
        if len(parts) != 3 or importlib.util.find_spec("flatcheck." + parts[0]) is None:
            continue
        name = "%s.%s" % tuple(parts[:2])
        checked.add(name)
        module = importlib.import_module("flatcheck." + parts[0])
        # a gone name that is back must leave the exemptions
        expected = name not in GONE_FROM_THE_PACKAGE
        if _is_public_function(module, parts[1]) != expected:
            wrong.append(name)
    assert "geometry.pushforward_distribution" in checked
    assert wrong == []
