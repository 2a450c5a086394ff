"""Count the code lines of Python modules.

A code line holds a token other than a comment or a newline, outside
the docstrings of modules, classes and functions; blank lines, comment
lines and docstrings do not count.  A string token that spans lines
counts on each of its lines.

    python tools/code_lines.py [PATH ...]

Each PATH is a module or a directory searched for modules; the default,
for a run from the root of the repository, is src/flatcheck.  Prints the
count of each module and the total.  A PATH that does not exist (an
option such as --help among them) prints the usage line to stderr and
exits with status 2.
"""

import ast
import io
import pathlib
import sys
import tokenize

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """The lines of the module, class and function docstrings of tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path) -> int:
    """The number of code lines of the module at path."""
    source = pathlib.Path(path).read_bytes()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


USAGE = "usage: python tools/code_lines.py [PATH ...]"


def main(argv) -> int:
    paths = [pathlib.Path(a) for a in argv] or [pathlib.Path("src/flatcheck")]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print("%s\nno such file or directory: %s" % (USAGE, ", ".join(missing)),
              file=sys.stderr)
        return 2
    modules = sorted(m for p in paths for m in (p.rglob("*.py") if p.is_dir() else [p]))
    total = 0
    for module in modules:
        count = code_lines(module)
        total += count
        print("%6d  %s" % (count, module))
    print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
