import ast
import importlib
import re
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


_CACHES = {"lru_cache", "cache"}


def _cache_uses(tree):
    """Each place a module names functools.lru_cache or functools.cache: the
    function or class it decorates, else its line."""
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "functools"}
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for alias in node.names if alias.name in _CACHES}
    decorated = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for decorator in node.decorator_list:
                for part in ast.walk(decorator):
                    decorated[id(part)] = node.name
    return [decorated.get(id(node), f"line {node.lineno}") for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id in names)
            or (isinstance(node, ast.Attribute) and node.attr in _CACHES
                and isinstance(node.value, ast.Name) and node.value.id in modules)]


def test_standard_skeleton_holds_the_one_cache_across_calls():
    # A memo that outlives an operation would make bench rounds do unequal
    # work and grow peak_rss_mib with the run.  standard_skeleton's cache is
    # the one that bench/README.md and workloads.warm_up name and fill.
    found = [f"{path.stem}.{use}" for path in SOURCES
             for use in _cache_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == ["cycles.standard_skeleton"]
    # Any other spelling is found too.
    other = ("import functools as f\nfrom functools import cache as memo\n"
             "@f.lru_cache(maxsize=8)\ndef g(): pass\nh = memo(g)\n")
    assert sorted(_cache_uses(ast.parse(other))) == ["g", "line 5"]


_ROLE = re.compile(r":(func|meth|class|attr|data|mod):`([^`]+)`")


def _resolves(dotted):
    """Whether a dotted name is a module of the package or an attribute
    reached from the longest module that prefixes it."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for name in parts[i:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def _broken_references(module, text):
    """The Sphinx roles in a module's text whose target names nothing.  A
    leading "." is relative to the package, a name starting with
    "tropint." is absolute (after an optional "~"), and any other name is
    looked up in the module, a bare method or attribute also on the
    module's own classes."""
    broken = []
    for match in _ROLE.finditer(text):
        role, target = match.groups()
        name = target.lstrip("~")
        if name.startswith("."):
            found = _resolves("tropint" + name)
        elif name.split(".")[0] == "tropint":
            found = _resolves(name)
        else:
            found = _resolves(f"{module.__name__}.{name}") or (
                role in ("meth", "attr") and "." not in name
                and any(isinstance(v, type) and v.__module__ == module.__name__
                        and hasattr(v, name) for v in vars(module).values()))
        if not found:
            broken.append(f":{role}:`{target}`")
    return broken


def test_docstring_references_resolve():
    # A reference to a helper that a change deleted or renamed points the
    # reader at nothing.
    found = []
    for path in SOURCES:
        module = importlib.import_module(
            "tropint" if path.stem == "__init__" else f"tropint.{path.stem}")
        found += [f"{path.name}: {ref}"
                  for ref in _broken_references(module, path.read_text(encoding="utf-8"))]
    assert SOURCES and not found
    # A stale name is found, in each spelling.
    from tropint import polyhedra
    stale = (":func:`_line` :func:`.polyhedra._interval_of` "
             ":func:`~tropint.polyhedra._integer_lines` :meth:`no_such_method`")
    assert len(_broken_references(polyhedra, stale)) == 4
    assert not _broken_references(polyhedra, ":meth:`canonical_cell` :func:`.kernel.dot`")
