"""Importing flatcheck and the cycle collector.

The package import runs with the collector off, freezes the heap it
leaves behind (sympy's module graph among it) and gives the caller back
the collector's on/off state, also when the import fails.  Only the
first import of the package runs that code, so each case runs in a
fresh interpreter.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _run(code):
    """The words that code prints in a fresh interpreter which finds
    flatcheck in src/."""
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


# the permanent generation need not start empty: 3.12 freezes objects of
# its own start-up, so the cases compare its size before and after
def test_enabled_collector_stays_enabled_and_the_import_heap_is_frozen():
    before, enabled, after = _run(
        "import gc\n"
        "before = gc.get_freeze_count()\n"
        "import flatcheck\n"
        "print(before, gc.isenabled(), gc.get_freeze_count())\n"
    )
    assert enabled == "True"
    assert int(after) > int(before)


def test_disabled_collector_stays_disabled():
    assert _run("import gc; gc.disable(); import flatcheck; print(gc.isenabled())") == ["False"]


def test_failed_import_restores_the_collector():
    code = (
        "import gc, sys\n"
        "sys.modules['flatcheck.analysis'] = None\n"
        "before = gc.get_freeze_count()\n"
        "try:\n"
        "    import flatcheck\n"
        "except ImportError:\n"
        "    print('ImportError', gc.isenabled(), gc.get_freeze_count() - before)\n"
    )
    # a half-done import freezes nothing
    assert _run(code) == ["ImportError", "True", "0"]
