"""The kernel boundary: only flatcheck.symbolic knows how a rational
function is stored, and no module imports sympy where it is loaded.

Every module of the package is parsed, not imported, and its syntax tree
is searched: for imports of sympy, for the names of sympy's domain and
element types, and for the attributes through which an element exposes
its numerator, denominator, ring or terms.  The other modules reach the
kernel through symbolic's functions and an element's truth value and
equality alone.  They take no derivative with ``.diff`` and build no
expression with ``.as_expr()``, the calls of sympy's elements:
``symbolic.derivative`` reduces through symbolic's own gcd, and
``symbolic.expression`` builds symbolic's own expression.  sympy is
imported only inside ``symbolic._factors`` and ``symbolic._cofactors``,
and neither reaches it on a command on a bundled model.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "flatcheck"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "symbolic")

KERNEL_NAMES = {"QQ", "ZZ", "FracElement", "DomainMatrix", "Polynomial", "PolynomialRing",
                "RationalFunction", "FunctionField"}
# the parts of a field element, its field and its ring
KERNEL_ATTRIBUTES = {
    "numer", "denom", "ring", "field", "gens", "mul_term", "from_dict", "exquo", "LC",
    "is_ground", "iterterms", "to_sympy", "from_sympy", "frac_field", "raw_new", "diff",
    "as_expr",
}
# the functions that import sympy, each when it is called, and what they
# import: the factorization where an equation has no linear factor that
# is provably irreducible, and the dense gcd where the heuristic gcd gives
# up.  Systems and expressions enter as model text, so no sympy input is
# read.
FUNCTION_IMPORTS = {
    ("symbolic", "_factors"): {"from sympy import ZZ",
                               "from sympy.polys.factortools import dmp_factor_list"},
    ("symbolic", "_cofactors"): {"from sympy import ZZ",
                                 "from sympy.polys.euclidtools import dmp_rr_prs_gcd"},
}


def _tree(name):
    return ast.parse((PACKAGE / ("%s.py" % name)).read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", MODULES)
def test_no_kernel_names(name):
    tree = _tree(name)
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    named |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert not named & KERNEL_NAMES


def _sympy_imports(tree) -> dict:
    """The imports of sympy in tree by the name of the function that holds
    them, None for the module level, each as its source text."""
    found = {}

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Import):
            found.setdefault(function, set()).update(
                "import " + alias.name for alias in node.names
                if alias.name.partition(".")[0] == "sympy")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "sympy":
            found.setdefault(function, set()).update(
                "from %s import %s" % (node.module, alias.name) for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return {function: imports for function, imports in found.items() if imports}


def test_sympy_is_imported_only_by_the_named_functions():
    """No module of the package imports sympy at module level, so
    importing it loads no sympy; only the functions of FUNCTION_IMPORTS
    import it, and only what they name."""
    found = {(name, function): imports
             for name in MODULES + ["symbolic"]
             for function, imports in _sympy_imports(_tree(name)).items()}
    assert found == FUNCTION_IMPORTS


@pytest.mark.parametrize("name", MODULES)
def test_no_element_internals(name):
    read = {
        node.attr for node in ast.walk(_tree(name))
        if isinstance(node, ast.Attribute) and node.attr in KERNEL_ATTRIBUTES
        # symbolic.field(symbols) is the kernel's own function
        and not (isinstance(node.value, ast.Name) and node.value.id == "symbolic")
    }
    assert not read


def test_expressions_are_built_only_for_floats_and_the_model():
    """An element becomes an expression only for the float replay
    (verification) and for the update map of a reduced system (model);
    error messages print elements with symbolic.to_infix, as documents
    do."""
    readers = {
        name for name in MODULES for node in ast.walk(_tree(name))
        if isinstance(node, ast.Attribute) and node.attr in ("expression", "canonicalize_element")
        and isinstance(node.value, ast.Name) and node.value.id == "symbolic"
    }
    assert readers == {"verification", "model"}
