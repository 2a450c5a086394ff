"""Importing flatcheck and the cycle collector.

The package import loads no sympy, freezes the heap it leaves behind
and leaves the collector as it found it, on or off.  Only the first
import of the package runs its code, so each case runs in a fresh
interpreter.
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
# its own start-up, so the case compares its size before and after
def test_import_freezes_its_heap_and_leaves_the_collector_as_it_found_it():
    for switch, state in (("gc.enable()", "True"), ("gc.disable()", "False")):
        enabled, sympy, grown = _run(
            "import gc, sys\n%s\n"
            "before = gc.get_freeze_count()\n"
            "import flatcheck\n"
            "print(gc.isenabled(),\n"
            "      any(m.partition('.')[0] == 'sympy' for m in sys.modules),\n"
            "      gc.get_freeze_count() > before)" % switch)
        assert (enabled, sympy, grown) == (state, "False", "True")
