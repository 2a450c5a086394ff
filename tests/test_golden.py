"""Byte-level contract of the command line on every bundled model.

``analyze --json`` and ``extract --json`` run on each bundled model in
fresh interpreters, once under each of two hash seeds.  The exit code,
stdout, stderr without its ``timing:`` lines, and the JSON document
must equal the golden files in tests/golden/ byte for byte:
``<command>-<model>.txt`` holds the exit code and the two streams, and
``<command>-<model>.json`` the document, when the run writes one.
``verify --output`` runs the same way on the candidates of
VERIFY_CASES; ``verify-<model>-<output slug>.txt`` holds its record.
Each script of DEMOS runs the same way; ``demo-<script>.txt`` holds its
stdout, which reads the records of the library directly.

Running

    PYTHONPATH=src python tests/test_golden.py

writes the golden records whose ``.txt`` file is missing and leaves the
others as they are.  After an intended change of the output, a record
is re-pinned by deleting its ``.txt`` file, whose ``.json`` document is
then rewritten with it, and running the script.
"""

import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODELS_DIR = ROOT / "models"
GOLDEN_DIR = ROOT / "tests" / "golden"
MODELS = (
    "chain2",
    "flat4",
    "nonflat_bilinear",
    "quad_chain",
    "quad_integrator",
    "redundant_input",
    "sfl_quadratic",
    "shift1",
)
COMMANDS = ("analyze", "extract")
HASH_SEEDS = ("0", "1")
CASES = [(command, model) for command in COMMANDS for model in MODELS]
# flat outputs and INCONCLUSIVE candidates of three models: a changed
# solver branch or rank decision shows here.  The INCONCLUSIVE flat4
# candidates are cheap because verify's rank gate skips every bound of
# theirs without a solve; without it "x1; x2" and "x2; x4" do not end
VERIFY_CASES = [
    ("flat4", "x1*x3 + x1; x2 + 3*x4"),
    ("flat4", "x1; x3"),
    ("flat4", "x1*x3 + x1; x4"),
    ("flat4", "x1; x2"),
    ("flat4", "x2; x4"),
    ("flat4", "x1*x3 + x1; x2"),
    ("chain2", "x1"),
    ("chain2", "x2"),
    ("sfl_quadratic", "x2 - x1^2"),
    ("sfl_quadratic", "x1"),
]
DEMOS = ("flat4_walkthrough", "inline_model")


def _start(argv, seed, workdir):
    """Launch ``python argv`` in ``workdir`` under the hash seed."""
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.Popen([sys.executable, *argv], cwd=workdir, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _start_cli(command, model, seed, workdir, options):
    """Launch one CLI run in ``workdir``, which holds a copy of the model,
    so that every path the run prints is relative."""
    shutil.copy(MODELS_DIR / ("%s.sys" % model), workdir)
    return _start(["-m", "flatcheck.cli", command, "%s.sys" % model, *options],
                  seed, workdir)


def _finish(proc, workdir):
    """Rendered text record and JSON document (or None) of a finished run."""
    out, err = proc.communicate()
    err_lines = err.decode("utf-8").splitlines(keepends=True)
    err = "".join(line for line in err_lines if not line.startswith("timing:"))
    record = "exit %d\n--- stdout\n%s--- stderr\n%s" % (
        proc.returncode, out.decode("utf-8"), err)
    doc_path = pathlib.Path(workdir) / "doc.json"
    doc = doc_path.read_bytes() if doc_path.exists() else None
    return record, doc


def run_case(command, model, seeds=HASH_SEEDS, output=None):
    """Run one case under every seed concurrently; results in seed order.
    With an output, the command is ``verify --output output``."""
    options = ("--json", "doc.json") if output is None else ("--output", output)
    with tempfile.TemporaryDirectory() as base:
        workdirs = [os.path.join(base, seed) for seed in seeds]
        procs = []
        for seed, workdir in zip(seeds, workdirs):
            os.mkdir(workdir)
            procs.append(_start_cli(command, model, seed, workdir, options))
        return [_finish(proc, workdir) for proc, workdir in zip(procs, workdirs)]


def run_demo(name, seeds=HASH_SEEDS):
    """Exit code and stdout of demos/<name>.py under every seed
    concurrently, in seed order."""
    script = str(ROOT / "demos" / ("%s.py" % name))
    with tempfile.TemporaryDirectory() as workdir:
        procs = [_start([script], seed, workdir) for seed in seeds]
        results = []
        for proc in procs:
            out, _ = proc.communicate()
            results.append((proc.returncode, out.decode("utf-8")))
        return results


def _golden_paths(command, model, output=None):
    stem = "%s-%s" % (command, model)
    if output is not None:
        stem += "-" + re.sub(r"\W+", "_", output).strip("_")
    return GOLDEN_DIR / (stem + ".txt"), GOLDEN_DIR / (stem + ".json")


@pytest.mark.parametrize("command, model", CASES)
def test_cli_matches_golden(command, model):
    text_path, doc_path = _golden_paths(command, model)
    expected_text = text_path.read_text(encoding="utf-8")
    expected_doc = doc_path.read_bytes() if doc_path.exists() else None
    for seed, (record, doc) in zip(HASH_SEEDS, run_case(command, model)):
        assert record == expected_text, "PYTHONHASHSEED=%s" % seed
        assert doc == expected_doc, "PYTHONHASHSEED=%s" % seed


@pytest.mark.parametrize("model, output", VERIFY_CASES)
def test_verify_matches_golden(model, output):
    text_path, _ = _golden_paths("verify", model, output)
    expected_text = text_path.read_text(encoding="utf-8")
    for seed, (record, doc) in zip(HASH_SEEDS, run_case("verify", model, output=output)):
        assert record == expected_text, "PYTHONHASHSEED=%s" % seed
        assert doc is None


@pytest.mark.parametrize("name", DEMOS)
def test_demo_matches_golden(name):
    expected = (GOLDEN_DIR / ("demo-%s.txt" % name)).read_text(encoding="utf-8")
    for seed, (code, out) in zip(HASH_SEEDS, run_demo(name)):
        assert code == 0, "PYTHONHASHSEED=%s" % seed
        assert out == expected, "PYTHONHASHSEED=%s" % seed


def regenerate():
    """Write every golden record whose .txt file is missing."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    cases = [(command, model, None) for command, model in CASES]
    cases += [("verify", model, output) for model, output in VERIFY_CASES]
    for command, model, output in cases:
        text_path, doc_path = _golden_paths(command, model, output)
        if text_path.exists():
            continue
        (record, doc), = run_case(command, model, seeds=HASH_SEEDS[:1], output=output)
        text_path.write_text(record, encoding="utf-8")
        if doc is None:
            doc_path.unlink(missing_ok=True)
        else:
            doc_path.write_bytes(doc)
        print("wrote %s" % text_path.name)
    for name in DEMOS:
        path = GOLDEN_DIR / ("demo-%s.txt" % name)
        if path.exists():
            continue
        (_, out), = run_demo(name, seeds=HASH_SEEDS[:1])
        path.write_text(out, encoding="utf-8")
        print("wrote %s" % path.name)


if __name__ == "__main__":
    regenerate()
