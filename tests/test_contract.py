"""The public surface of ``tropint`` is its contract and no larger.

The contract is the README library tour, the command line and the document
format.  Every name the package exports must appear in the README's code
or be imported by ``cli.py`` or ``documents.py``, and the tour must run as
written.
"""

import ast
import re
import types
from pathlib import Path

import tropint

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
PACKAGE = Path(tropint.__file__).resolve().parent

FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)


def _exported():
    return sorted(name for name, value in vars(tropint).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType))


def _readme_code_identifiers():
    """Identifiers inside the README's fenced blocks and inline code spans."""
    prose = FENCE.sub("", README)
    code = [body for _, body in FENCE.findall(README)] + re.findall(r"`([^`\n]+)`", prose)
    return {word for chunk in code for word in re.findall(r"[A-Za-z_]\w*", chunk)}


def _imported_by(filename):
    tree = ast.parse((PACKAGE / filename).read_text(encoding="utf-8"))
    return {alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _tour_blocks():
    start = README.index("## Library tour")
    end = README.find("\n## ", start + 1)
    section = README[start:] if end < 0 else README[start:end]
    return [body for lang, body in FENCE.findall(section) if lang == "python"]


def test_every_export_is_in_the_contract():
    reached = _readme_code_identifiers() | _imported_by("cli.py") | _imported_by("documents.py")
    exported = _exported()
    assert [name for name in exported if name not in reached] == []
    assert len(exported) <= 40


def test_readme_library_tour_runs():
    blocks = _tour_blocks()
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md library tour", "exec"), {})
