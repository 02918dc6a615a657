"""The benchmark tracer still fits the library.

``bench/tracing.py`` wraps the functions named in its ``TRACED`` table by
name, so removing or renaming one of them breaks ``bench/run.py --trace 1``
with an ``AttributeError``.  These tests load the tracer from the source
checkout without writing anything under ``bench/``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def _traced_names(tracing):
    for modname, functions in tracing.TRACED.items():
        for qual in functions:
            yield modname, qual


def _resolve(modname, qual):
    """The module or class attribute the tracer rebinds, as stored."""
    owner = importlib.import_module(f"tropint.{modname}")
    *path, attr = qual.split(".")
    for name in path:
        owner = getattr(owner, name)
    return vars(owner)[attr]


def test_every_traced_name_resolves(tracing):
    missing = []
    for modname, qual in _traced_names(tracing):
        try:
            _resolve(modname, qual)
        except (AttributeError, KeyError, ImportError):
            missing.append(f"{modname}.{qual}")
    assert not missing, f"traced names missing from tropint: {missing}"


def _bindings():
    """Every attribute of every loaded tropint module."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "tropint" or name.startswith("tropint."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    return out


def test_install_and_uninstall_restore_the_originals(tracing):
    names = list(_traced_names(tracing))
    originals = {name: _resolve(*name) for name in names}
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [name for name in names if _resolve(*name) is not originals[name]]
    finally:
        tracer.uninstall()
    assert len(wrapped) == len(names)
    assert all(_resolve(*name) is originals[name] for name in names)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
