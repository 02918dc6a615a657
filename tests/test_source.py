import ast
import subprocess
import sys
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


def _unused_imports(tree):
    """The names a module imports and never reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_library_modules_use_every_import():
    # A name imported and never read, like a helper left behind by the route
    # that used it, is dead weight; __init__.py imports to re-export.
    found = [f"{path.name}: {name}" for path in SOURCES if path.name != "__init__.py"
             for name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))]
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


def test_import_loads_no_dataclasses_machinery():
    # Records are named tuples: dataclasses imports inspect, ast and dis,
    # about 1.2 MiB resident in every process that imports tropint.
    run = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import tropint; "
         "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))",
         str(Path(tropint.__file__).parents[1])],
        capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
