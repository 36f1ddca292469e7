import ast
from pathlib import Path

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
