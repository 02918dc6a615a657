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
