"""Declarative JSON formats for cycles, functions and integer maps.

Rationals travel as integers or exact "p/q" strings; decimal literals are
rejected so nothing is silently rounded.  Serialization is canonical: cells
are written from their irredundant constraint systems in a deterministic
order, so equal inputs produce byte-identical documents.
"""

from __future__ import annotations

import json
import re
import sys
from collections import namedtuple

from .cycles import Cycle, WeightedComplex
from .divisors import CartierDivisor, PiecewisePL, TropicalPolynomial
from .kernel import QQ, rat_parts
from .morphisms import IntegerLinearMap
from .polyhedra import AffineForm, Cell

FORMAT_VERSION = "1"

_RATIONAL_RE = re.compile(r"^-?\d+(/-?\d+)?$")


class DocumentError(ValueError):
    """Schema violation, with the offending field in the message."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


class Document(namedtuple("Document", "kind payload")):
    """A parsed document: its kind, cycle, function or map, and its payload."""

    __slots__ = ()


def _reject_float(value):
    raise DocumentError("$", f"decimal literal {value!r} not accepted; use 'p/q' strings")


def _too_long(path):
    """The error for an integer past Python's limit on digits converted."""
    return DocumentError(path, f"integer of more than {sys.get_int_max_str_digits()} digits "
                               "not accepted")


def parse_document(text: str) -> Document:
    try:
        data = json.loads(text, parse_float=_reject_float)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"line {exc.lineno}", f"invalid JSON: {exc.msg}") from None
    except DocumentError:
        raise
    except ValueError:
        # The one other error of the decoder: an integer literal too long
        # to convert.
        raise _too_long("$") from None
    if not isinstance(data, dict):
        raise DocumentError("$", "document must be a JSON object")
    version = data.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise DocumentError("$.format_version",
                            f"unsupported format version {version!r}, expected {FORMAT_VERSION!r}")
    kind = data.get("kind")
    if kind == "cycle":
        return Document("cycle", _parse_cycle(data))
    if kind == "function":
        return Document("function", _parse_function(data))
    if kind == "map":
        return Document("map", _parse_map(data))
    raise DocumentError("$.kind", f"unknown document kind {kind!r}")


def serialize_document(obj) -> str:
    if isinstance(obj, Document):
        obj = obj.payload
    if isinstance(obj, (Cycle, WeightedComplex)):
        data = _cycle_data(obj)
    elif isinstance(obj, (TropicalPolynomial, PiecewisePL, CartierDivisor)):
        data = _function_data(obj)
    elif isinstance(obj, IntegerLinearMap):
        data = _map_data(obj)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# -- rationals ---------------------------------------------------------------


def _rat_to_json(q):
    num, den = rat_parts(q)
    return num if den == 1 else f"{num}/{den}"


def _rat_from_json(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise DocumentError(path, f"expected integer or 'p/q' string, got {value!r}")
    if isinstance(value, str):
        if not _RATIONAL_RE.match(value):
            raise DocumentError(path, f"malformed rational {value!r}")
        num, _, den = value.partition("/")
        try:
            num, den = int(num), int(den or 1)
        except ValueError:
            raise _too_long(path) from None
        if den == 0:
            raise DocumentError(path, "zero denominator")
        return QQ(num, den)
    return QQ(value)


def _int_from_json(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(path, f"expected an integer, got {value!r}")
    return value


def _object(value, path):
    if not isinstance(value, dict):
        raise DocumentError(path, "expected an object")
    return value


def _int_vector(value, path, length=None):
    if not isinstance(value, list) or (length is not None and len(value) != length):
        raise DocumentError(path, f"expected a list of {length or 'integers'}")
    return tuple(_int_from_json(x, f"{path}[{i}]") for i, x in enumerate(value))


# -- cells and cycles --------------------------------------------------------


def _constraint_rows(cell: Cell):
    """Constraint rows [a_1 .. a_n, b] with a.x >= b resp. a.x == b."""
    canon = cell.canonical_cell()

    def row(form):
        return list(form.linear) + [_rat_to_json(-form.constant)]

    return ([row(f) for f in canon.ineqs], [row(f) for f in canon.eqs])


def _parse_constraint(row, n, path):
    if not isinstance(row, list) or len(row) != n + 1:
        raise DocumentError(path, f"constraint row must have {n + 1} entries")
    linear = tuple(_int_from_json(x, f"{path}[{i}]") for i, x in enumerate(row[:n]))
    bound = _rat_from_json(row[n], f"{path}[{n}]")
    return AffineForm(linear, -bound)


def _parse_cell(entry, n, path) -> Cell:
    """The cell of an object's "ineqs" and "eqs" constraint rows in R^n."""
    rows = {}
    for key in ("ineqs", "eqs"):
        raw = _object(entry, path).get(key, [])
        if not isinstance(raw, list):
            raise DocumentError(f"{path}.{key}", "expected a list of constraint rows")
        rows[key] = [_parse_constraint(r, n, f"{path}.{key}[{j}]") for j, r in enumerate(raw)]
    try:
        return Cell.from_constraints(n, rows["ineqs"], rows["eqs"])
    except ValueError as exc:
        raise DocumentError(path, str(exc)) from None


def _cycle_data(cycle):
    cx = cycle.complex if isinstance(cycle, Cycle) else cycle
    cells = []
    for cell, w in sorted(zip(cx.cells, cx.weights), key=lambda cw: cw[0].canonical_key):
        ineqs, eqs = _constraint_rows(cell)
        cells.append({"ineqs": ineqs, "eqs": eqs, "weight": w})
    return {
        "format_version": FORMAT_VERSION,
        "kind": "cycle",
        "ambient_dim": cx.ambient_dim,
        "dim": cx.dim,
        "cells": cells,
    }


def _parse_cycle(data) -> Cycle:
    n = _int_from_json(data.get("ambient_dim"), "$.ambient_dim")
    if n < 0:
        raise DocumentError("$.ambient_dim", f"expected a non-negative integer, got {n}")
    dim = _int_from_json(data.get("dim"), "$.dim")
    # A negative dim is the empty cycle of a product k + l - n < 0.
    if not -n <= dim <= n:
        raise DocumentError("$.dim", f"expected a dimension from {-n} to {n}, got {dim}")
    raw_cells = data.get("cells")
    if not isinstance(raw_cells, list):
        raise DocumentError("$.cells", "expected a list of cells")
    cells, weights = [], []
    for i, entry in enumerate(raw_cells):
        path = f"$.cells[{i}]"
        cell = _parse_cell(entry, n, path)
        if cell.dim != dim:
            raise DocumentError(path, f"cell has dimension {cell.dim}, complex declares {dim}")
        cells.append(cell)
        weights.append(_int_from_json(entry.get("weight"), f"{path}.weight"))
    return Cycle(WeightedComplex(n, dim, cells, weights), check=False)


# -- functions ---------------------------------------------------------------


def _function_data(phi):
    rep = phi.rep if isinstance(phi, CartierDivisor) else phi
    if isinstance(rep, TropicalPolynomial):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "function",
            "type": "max_affine",
            "terms": [{"linear": list(t.linear), "constant": _rat_to_json(t.constant)}
                      for t in rep.terms],
        }
    pieces = []
    for cell, form in sorted(rep.pieces, key=lambda p: (p[0].canonical_key, p[1].sort_key())):
        ineqs, eqs = _constraint_rows(cell)
        pieces.append({"ineqs": ineqs, "eqs": eqs,
                       "linear": list(form.linear),
                       "constant": _rat_to_json(form.constant)})
    return {
        "format_version": FORMAT_VERSION,
        "kind": "function",
        "type": "piecewise",
        "pieces": pieces,
    }


def _parse_function(data) -> CartierDivisor:
    ftype = data.get("type")
    if ftype == "max_affine":
        raw = data.get("terms")
        if not isinstance(raw, list) or not raw:
            raise DocumentError("$.terms", "expected a nonempty list of terms")
        terms = []
        for i, t in enumerate(raw):
            path = f"$.terms[{i}]"
            _object(t, path)
            linear = _int_vector(t.get("linear"), f"{path}.linear")
            constant = _rat_from_json(t.get("constant", 0), f"{path}.constant")
            terms.append(AffineForm(linear, constant))
        try:
            return CartierDivisor(TropicalPolynomial(tuple(terms)))
        except ValueError as exc:
            raise DocumentError("$.terms", str(exc)) from None
    if ftype == "piecewise":
        raw = data.get("pieces")
        if not isinstance(raw, list) or not raw:
            raise DocumentError("$.pieces", "expected a nonempty list of pieces")
        pieces = []
        for i, entry in enumerate(raw):
            path = f"$.pieces[{i}]"
            linear = _int_vector(_object(entry, path).get("linear"), f"{path}.linear")
            constant = _rat_from_json(entry.get("constant", 0), f"{path}.constant")
            cell = _parse_cell(entry, len(linear), path)
            pieces.append((cell, AffineForm(linear, constant)))
        try:
            return CartierDivisor(PiecewisePL(tuple(pieces)))
        except ValueError as exc:
            raise DocumentError("$.pieces", str(exc)) from None
    raise DocumentError("$.type", f"unknown function type {ftype!r}")


# -- maps --------------------------------------------------------------------


def _map_data(m: IntegerLinearMap):
    return {
        "format_version": FORMAT_VERSION,
        "kind": "map",
        "matrix": [list(row) for row in m.matrix],
    }


def _parse_map(data) -> IntegerLinearMap:
    raw = data.get("matrix")
    if not isinstance(raw, list) or not raw:
        raise DocumentError("$.matrix", "expected a nonempty list of rows")
    width = None
    rows = []
    for i, row in enumerate(raw):
        vec = _int_vector(row, f"$.matrix[{i}]")
        if width is None:
            width = len(vec)
        elif len(vec) != width:
            raise DocumentError(f"$.matrix[{i}]", "ragged matrix")
        rows.append(vec)
    return IntegerLinearMap(tuple(rows))
