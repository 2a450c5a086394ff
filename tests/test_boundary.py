"""The kernel boundary: only flatcheck.symbolic knows how a rational
function is stored.

Every module of the package is parsed, not imported, and its syntax tree
is searched: for imports of sympy, for the names of sympy's domain and
element types, and for the attributes through which an element exposes
its numerator, denominator, ring or terms.  The other modules reach the
kernel through symbolic's functions and an element's truth value and
equality alone.  They take no derivative with ``.diff`` and build no
expression with ``.as_expr()``, the calls of sympy's elements:
``symbolic.derivative`` reduces through symbolic's own gcd, and
``symbolic.expression`` builds sympy's expression without
``Add.flatten`` and its import of ``sympy.tensor.tensor``.
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
# the attributes of sympy that a module may use: none, so no module but
# symbolic imports sympy; values at points are the kernel's rationals,
# which symbolic.rational makes
SYMPY_USE = {}


def _tree(name):
    return ast.parse((PACKAGE / ("%s.py" % name)).read_text(encoding="utf-8"))


def _sympy_aliases(tree) -> tuple:
    """The imports of sympy, ``from <module>`` for a from-import, and the
    local names bound to sympy."""
    modules, aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sympy":
                    modules.append(alias.name)
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sympy":
            modules.append("from " + node.module)
    return modules, aliases


@pytest.mark.parametrize("name", MODULES)
def test_no_polys_import_and_no_kernel_names(name):
    tree = _tree(name)
    modules, _ = _sympy_aliases(tree)
    assert not [m for m in modules if "sympy.polys" in m]
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    named |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert not named & KERNEL_NAMES


def test_kernel_polys_imports():
    """symbolic imports from sympy.polys exactly these names: the dense
    subresultant gcd of euclidtools (``dmp_rr_prs_gcd``) and the
    factorization of factortools (``dmp_factor_list``), the surface that
    is left for a kernel of flatcheck's own to replace.  Its polynomials,
    fields, row reduction, coprimality proof and errors are its own, so
    neither sympy.polys.rings, .fields, .matrices nor .polyerrors is among
    them, and no other dense routine (``dup_gcd`` among them)."""
    tree = _tree("symbolic")
    imported = {(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and "sympy.polys" in (node.module or "")
                for alias in node.names}
    assert imported == {("sympy.polys.euclidtools", "dmp_rr_prs_gcd"),
                        ("sympy.polys.factortools", "dmp_factor_list")}
    # nor is sympy.polys imported or read as a module
    modules, aliases = _sympy_aliases(tree)
    assert not [m for m in modules if m.startswith("sympy.polys")]
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and node.attr == "polys" and isinstance(node.value, ast.Name)
                and node.value.id in aliases]


def test_kernel_core_imports():
    """symbolic imports from exactly these modules of sympy.core: the
    pieces of sympy's own sum evaluation that symbolic.Expressions builds
    sums with, without ``Add.flatten``."""
    modules, _ = _sympy_aliases(_tree("symbolic"))
    assert {m for m in modules if "sympy.core" in m} == {
        "from sympy.core.add", "from sympy.core.mul"}


@pytest.mark.parametrize("name", MODULES)
def test_no_element_internals(name):
    read = {
        node.attr for node in ast.walk(_tree(name))
        if isinstance(node, ast.Attribute) and node.attr in KERNEL_ATTRIBUTES
        # symbolic.field(symbols) is the kernel's own function
        and not (isinstance(node.value, ast.Name) and node.value.id == "symbolic")
    }
    assert not read


@pytest.mark.parametrize("name", MODULES)
def test_sympy_use(name):
    tree = _tree(name)
    modules, aliases = _sympy_aliases(tree)
    allowed = SYMPY_USE.get(name, set())
    # sympy itself is imported, so every use is an attribute read below
    assert modules == (["sympy"] if allowed else [])
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in aliases}
    assert used <= allowed


def test_expressions_are_built_only_for_floats_and_the_model():
    """An element becomes a sympy expression only for the float replay
    (verification) and for the update map of a reduced system (model);
    error messages print elements with symbolic.to_infix, as documents
    do."""
    readers = {
        name for name in MODULES for node in ast.walk(_tree(name))
        if isinstance(node, ast.Attribute) and node.attr in ("expression", "canonicalize_element")
        and isinstance(node.value, ast.Name) and node.value.id == "symbolic"
    }
    assert readers == {"verification", "model"}
