import ast
from pathlib import Path

import tropint

SOURCES = sorted(Path(tropint.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_library():
    # `python -O` strips asserts; checks that guard correctness must raise.
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_no_module_imports_gmpy2():
    # Exact arithmetic has one path, fractions.Fraction.
    found = [path.name for path in SOURCES
             for name in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
             if name.split(".")[0] == "gmpy2"]
    assert SOURCES and not found
