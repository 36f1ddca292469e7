import ast
from pathlib import Path

from haefliger import cli, errors

SOURCES = sorted((Path(__file__).parent.parent / "src" / "haefliger").glob("*.py"))


def test_library_has_no_assert_statements():
    # python -O strips asserts, so a check written as one silently vanishes.
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_uses_no_private_fraction_api():
    # Fraction(n, d, _normalize=False) is gone in Python 3.12 and
    # Fraction._from_coprime_ints is new there; the package supports 3.10+.
    private = {"_normalize", "_from_coprime_ints"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.keyword) and node.arg in private)
        or (isinstance(node, ast.Attribute) and node.attr in private)
        or (isinstance(node, ast.Name) and node.id in private)
    ]
    assert found == []


def module_level_numpy_imports(tree: ast.Module) -> list[int]:
    """Lines of numpy imports that run on import, outside ``if TYPE_CHECKING:``.

    Function bodies run only when called, so they are not searched;
    class bodies, ``if``, ``try`` and ``with`` blocks run on import.
    """
    found = []

    def visit(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                    and node.test.id == "TYPE_CHECKING"):
                visit(node.orelse)
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                names = []
            if any(n == "numpy" or n.startswith("numpy.") for n in names):
                found.append(node.lineno)
            for field in ("body", "orelse", "finalbody", "handlers"):
                visit(getattr(node, field, []))

    visit(tree.body)
    return found


def test_library_imports_numpy_only_where_it_is_used():
    # Importing a module must not load numpy: the exact commands and
    # `import haefliger` stay free of it.  Float code imports it inside.
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in module_level_numpy_imports(
            ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_numpy_import_rule_sees_every_import_form():
    flagged = (
        "import numpy as np\n"
        "from numpy import linalg\n"
        "import os, numpy.random\n"
        "try:\n    import numpy\nexcept ImportError:\n    pass\n"
        "class A:\n    import numpy\n"
        "if not TYPE_CHECKING:\n    import numpy\n"
    )
    allowed = (
        "from typing import TYPE_CHECKING\n"
        "import numpyish\n"
        "if TYPE_CHECKING:\n    import numpy as np\n"
        "def f():\n    import numpy as np\n"
        "async def g():\n    from numpy import linalg\n"
    )
    assert module_level_numpy_imports(ast.parse(flagged)) == [1, 2, 3, 5, 9, 11]
    assert module_level_numpy_imports(ast.parse(allowed)) == []


def imports_of(path: Path, module: str) -> list[int]:
    """Lines of every import of ``module`` in the file, inside functions too."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == module for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and not node.level
            and (node.module or "").split(".")[0] == module)
    ]


def test_library_never_imports_dataclasses():
    # dataclasses loads inspect, which costs every CLI call more than its
    # own work; the records share haefliger._record instead.  Imports
    # inside functions count too, since a command would still pay them.
    found = [
        f"{path.name}:{line}" for path in SOURCES for line in imports_of(path, "dataclasses")
    ]
    assert SOURCES and found == []


def test_exit_codes_map_exactly_the_errors_the_library_raises():
    # An error class only the tests raise, or one without its own exit
    # code, fails here; codes 7, 9 and 13 are retired and are not reused.
    defined = {
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.HaefligerError)
        and cls is not errors.HaefligerError
    }
    assert set(cli.EXIT_CODES) == defined
    codes = list(cli.EXIT_CODES.values())
    assert len(set(codes)) == len(codes)
    assert {7, 9, 13}.isdisjoint(codes)
    # A class counts as raised where it is built: some helpers return
    # the error for their caller to raise.
    built = {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for path in SOURCES if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }
    assert sorted(cls.__name__ for cls in defined if cls.__name__ not in built) == []



def test_generator_imports_nothing_from_math():
    # The twelve circles are built on int vertices; float trig would make
    # the cross-sections inexactly planar again.
    path = next(p for p in SOURCES if p.name == "generator.py")
    assert imports_of(path, "math") == []


FLOAT_FUNCTIONS = {"circle", "_box_pairs", "_resample", "gauss_linking_quadrature"}


def float_literals(tree: ast.Module, allowed: set[str]) -> list[int]:
    """Lines of float literals outside the functions named in ``allowed``."""
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name in allowed
        if isinstance(node, ast.Constant) and type(node.value) is float and not inside:
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return found


def test_float_literals_live_only_in_the_float_functions():
    # Every geometric decision is exact: a float constant elsewhere would
    # be a tolerance, or a value taken approximately.
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in float_literals(ast.parse(path.read_text(), filename=str(path)),
                                   FLOAT_FUNCTIONS)
    ]
    assert SOURCES and found == []


def test_float_literal_rule_sees_every_place():
    source = (
        "X = 1.0\n"
        "def circle(r=0.0):\n    return 2.0 * r\n"
        "def f(x=0.5):\n    return x\n"
        "class A:\n    eps = 1e-12\n    def circle(self):\n        return 3.0\n"
        "def g():\n    def circle():\n        return 4.0\n    return 5.0\n"
        "Y = 1\n"
    )
    assert float_literals(ast.parse(source), FLOAT_FUNCTIONS) == [1, 4, 7, 13]


# The Conway oracle checks v2, so it must not reach the X-pairing's code.
PAIRING_NAMES = {"x_pairing", "v2", "_interleaved", "descending_set", "switch"}
ORACLE_SECTION = "# --- Conway polynomial oracle"


def pairing_names_in_oracle(source: str) -> list[str]:
    """``function:name`` for each pairing name that a function defined
    below the oracle section's heading reads, as a name or an attribute."""
    heading = source[: source.index(ORACLE_SECTION)].count("\n") + 1
    return [
        f"{node.name}:{name}"
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.lineno > heading
        for sub in ast.walk(node)
        for name in [getattr(sub, "id", None) or getattr(sub, "attr", None)]
        if name in PAIRING_NAMES
    ]


def test_the_conway_oracle_shares_no_code_with_the_pairing():
    path = next(p for p in SOURCES if p.name == "classical.py")
    assert pairing_names_in_oracle(path.read_text()) == []


def test_pairing_name_rule_sees_every_use():
    source = (
        "def v2(g):\n    return x_pairing(g)\n"
        f"{ORACLE_SECTION} ---\n"
        "def _switch_link(link, label):\n    return link\n"
        "def a(g):\n    return v2(g)\n"
        "def b(g):\n    def inner():\n        return classical.switch(g, ())\n    return inner\n"
        "async def c(g):\n    f = descending_set\n    return _interleaved(x_pairing, f)\n"
    )
    assert pairing_names_in_oracle(source) == [
        "a:v2", "b:switch", "c:descending_set", "c:_interleaved", "c:x_pairing"]


def call_sites(source: str, name: str) -> list[int]:
    """Lines that call ``name``, as a bare name or as an attribute, in order."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == name
    )


def test_crossings_are_counted_in_one_place():
    # Linking numbers and writhes share one loop over the candidate pairs,
    # so the exact crossing predicate has a single caller.
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in call_sites(path.read_text(), "_segment_crossings")
    ]
    assert len(found) == 1, found


def test_call_site_rule_sees_every_call():
    source = (
        "def a(s):\n    return _segment_crossings(s, s, b)\n"
        "class C:\n    def m(self):\n        return [linking._segment_crossings(x) for x in y]\n"
        "f = lambda: _segment_crossings()\n"
        "g = _segment_crossings\n"
    )
    assert call_sites(source, "_segment_crossings") == [2, 5, 6]
