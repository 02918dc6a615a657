"""Refinement with the hull-box cull against the probe-every-form reference.

``refine_cell`` bounds the cell once in its hull coordinates and probes only
the forms that take both signs on that box; on a cell of dimension one it
sorts the crossings of the forms instead and probes nothing.  The reference
probes every form that does not vanish on a piece.  Both must give the same
pieces, as sets and as sign vectors over the arrangement, and the signs
``refine_cell`` returns with each piece must be its sign vector.

On a cell of dimension one the crossings are integer pairs, compared by
cross-multiplication.  Against the rational reading
(``oracles.reference_refine_interval``), with constants over the coprime
denominators 7, 60 and 97, forms crossing at one point over different
denominators, crossings at the ends of the cell and forms constant on it,
the pieces, their inequalities and points, and the signs must be equal,
and every point coordinate a ``Fraction``.

A point is refined from the same integer lines, all constant there: it
comes back alone, with the signs of the forms at it, and no ``Fraction``
is built.
"""

from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    reference_lp_max,
    reference_refine_cell,
    reference_refine_interval,
    sign_vector,
)
from test_faces import _count_lps, _count_slack_solves

import tropint.polyhedra as polyhedra
from tropint._simplex import OPTIMAL
from tropint.cycles import add, standard_skeleton, translate
from tropint.kernel import QQ, dot, kernel_lattice, mat_rank
from tropint.library import conic_curve
from tropint.polyhedra import (
    AffineForm,
    Cell,
    cone_from_rays,
    form_vanishes_on,
    point_cell,
    ray_cell,
    refine_cell,
    segment_cell,
    strict_point,
)

_coef = st.integers(-2, 2)
_const = st.builds(QQ, st.integers(-6, 6), st.sampled_from((1, 2)))


def _vectors(n):
    return st.tuples(*[_coef] * n).filter(any)


_CELL_KINDS = tuple(
    [(n, 0, "point") for n in (2, 3)]
    + [(n, 1, kind) for n in (2, 3) for kind in ("segment", "ray", "line")]
    + [(n, dim, kind) for n in (2, 3) for dim in range(2, n + 1)
       for kind in ("bounded", "cone", "unbounded")])


@st.composite
def cells(draw, n, dim, kind):
    """A cell of R^n of the given dimension: a point; a segment, ray or
    line; or, from dimension two up, a bounded cell, a translated cone or a
    cell cut out by a few random inequalities (mostly unbounded)."""
    point = st.tuples(*[_const] * n)
    if kind == "point":
        return point_cell(draw(point))
    if kind == "segment":
        p, q = draw(point), draw(point)
        assume(p != q)
        return segment_cell(p, q)
    if kind in ("ray", "line"):
        base, d = draw(point), draw(_vectors(n))
        if kind == "ray":
            return ray_cell(base, d)
        return Cell.from_constraints(n, (), [AffineForm(a, -dot(a, base))
                                             for a in kernel_lattice([d], n)])
    if kind == "cone":
        rays = draw(st.lists(_vectors(n), min_size=dim, max_size=dim))
        assume(mat_rank(rays) == dim)
        return cone_from_rays(rays, n).translate(draw(point))
    forms = st.builds(AffineForm, _vectors(n), _const)
    eqs = [draw(forms) for _ in range(n - dim)]
    ineqs = draw(st.lists(forms, max_size=3))
    if kind == "bounded":
        ineqs += [AffineForm(tuple(s if j == i else 0 for j in range(n)), 4)
                  for i in range(n) for s in (1, -1)]
    cell = Cell.try_from_constraints(n, ineqs, eqs)
    assume(cell is not None)
    return cell


def _support_form(cell, a):
    """a . x + c touching the cell from above 0 (at a vertex or along a
    face), or None when a . x is unbounded below on the cell."""
    n = cell.ambient_dim
    status, value, _ = reference_lp_max(
        n, tuple(-x for x in a), ineqs=[(f.linear, -f.constant) for f in cell.ineqs],
        eqs=[(f.linear, -f.constant) for f in cell.eqs])
    return AffineForm(a, value) if status == OPTIMAL else None


@st.composite
def arrangements(draw, cell):
    """Forms that miss the cell, touch it, cross it (also through its
    interior point), vanish on it or lie far out, with repeats."""
    n = cell.ambient_dim
    forms = []
    for _ in range(draw(st.integers(1, 5))):
        a = draw(_vectors(n))
        kind = draw(st.sampled_from(("any", "through", "touch", "vanish", "far")))
        if kind == "through":
            f = AffineForm(a, -dot(a, cell.interior_point))
        elif kind == "touch":
            f = _support_form(cell, a) or AffineForm(a, draw(_const))
        elif kind == "vanish" and cell.eqs:
            g = draw(st.sampled_from(cell.eqs))
            f = g if draw(st.booleans()) else g.negated()
        elif kind == "far":
            f = AffineForm(a, draw(st.sampled_from((-40, 40))))
        else:
            f = AffineForm(a, draw(_const))
        forms.append(f)
    forms += draw(st.lists(st.sampled_from(forms), max_size=2))
    return forms


def _crosses(cell, f):
    """Whether f takes both signs on the cell."""
    return strict_point(cell, f) is not None and strict_point(cell, f.negated()) is not None


@pytest.mark.parametrize("n, dim, kind", _CELL_KINDS)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_refine_cell_matches_reference(n, dim, kind, data):
    cell = data.draw(cells(n, dim, kind))
    forms = data.draw(arrangements(cell))
    probed = []
    split = polyhedra._split_piece

    def recording(c, fs):
        probed.extend(fs)
        return split(c, fs)

    with mock.patch.object(polyhedra, "_split_piece", recording):
        pairs = refine_cell(cell, forms)
    got = [piece for piece, _ in pairs]
    want = reference_refine_cell(cell, forms)

    def key(piece):
        return piece.canonical_key, sign_vector(piece, forms)

    assert Counter(map(key, got)) == Counter(map(key, want))
    # The signs returned with each piece are those of the forms at its
    # relative interior point.
    for piece, signs in pairs:
        assert signs == sign_vector(piece, forms)
    # A piece carries, beyond the cell's own inequalities, only forms that
    # cut the cell.
    for piece in got:
        assert piece.ineqs[:len(cell.ineqs)] == cell.ineqs
        assert all(_crosses(cell, g) for g in piece.ineqs[len(cell.ineqs):])
    # No LP probes a form that vanishes on the cell; up to dimension one
    # the box is the cell, so every probed form crosses it.
    for f in probed:
        assert _crosses(cell, f) if cell.dim <= 1 else not form_vanishes_on(cell, f)


@pytest.mark.parametrize("n, kind", [(n, kind) for n, dim, kind in _CELL_KINDS if dim == 1])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_cell_of_dimension_one_is_refined_without_probes(n, kind, data):
    cell = data.draw(cells(n, 1, kind))
    forms = data.draw(arrangements(cell))
    calls = []

    def recording(name):
        real = getattr(polyhedra, name)

        def record(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return record

    with mock.patch.object(polyhedra, "_slack_lp", recording("_slack_lp")), \
            mock.patch.object(polyhedra, "_split_piece", recording("_split_piece")):
        pairs = refine_cell(cell, forms)
    assert calls == []
    # The pieces meet only at their ends, so each interior point lies in
    # its own piece only.
    for piece, _ in pairs:
        assert piece.contains_point(piece.interior_point)
        assert all(not other.contains_point(piece.interior_point)
                   for other, _ in pairs if other is not piece)


# Constants over coprime denominators; the bench's are over 60.
_wide = st.builds(QQ, st.integers(-200, 200), st.sampled_from((1, 7, 60, 97)))


@st.composite
def crossed_intervals(draw):
    """A segment, ray or line p + t w of R^2 or R^3, with p over 7, 60 or
    97, and forms that cross it at a few shared values of t, the ends
    t = 0 and t = t1 of a segment among them, each scaled by its own
    factor so that the forms of one crossing have different denominators;
    forms constant on it, negative, zero and positive there; and arbitrary
    forms, with repeats and opposites."""
    n = draw(st.sampled_from((2, 3)))
    kind = draw(st.sampled_from(("segment", "ray", "line")))
    p, w = draw(st.tuples(*[_wide] * n)), draw(_vectors(n))
    t1 = QQ(draw(st.integers(1, 9)), draw(st.sampled_from((1, 7, 60, 97))))
    if kind == "segment":
        cell = segment_cell(p, tuple(x + t1 * y for x, y in zip(p, w)))
    elif kind == "ray":
        cell = ray_cell(p, w)
    else:
        cell = Cell.from_constraints(n, (), [AffineForm(a, -dot(a, p))
                                             for a in kernel_lattice([w], n)])
    ts = st.sampled_from((QQ(0), t1, t1 / 2, t1 / 3, QQ(-1, 7), QQ(5, 97), 2 * t1))
    flat = kernel_lattice([w], n)
    forms = []
    for _ in range(draw(st.integers(1, 7))):
        a = draw(_vectors(n))
        how = draw(st.sampled_from(("cross", "cross", "cross", "constant", "any")))
        if how == "cross" and dot(a, w):
            a = tuple(draw(st.sampled_from((1, 2, 7, 60))) * x for x in a)
            forms.append(AffineForm(a, -dot(a, p) - draw(ts) * dot(a, w)))
        elif how == "constant":
            a = tuple(draw(st.sampled_from((1, -2))) * x for x in draw(st.sampled_from(flat)))
            forms.append(AffineForm(a, -dot(a, p) + draw(st.sampled_from((-1, 0, 1, QQ(1, 97))))))
        else:
            forms.append(AffineForm(a, draw(_wide)))
    for f in draw(st.lists(st.sampled_from(forms), max_size=2)):
        forms.append(f.negated() if draw(st.booleans()) else f)
    return cell, draw(st.permutations(forms))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(crossed_intervals())
def test_cell_of_dimension_one_matches_the_rational_refinement(arrangement):
    cell, forms = arrangement
    got = [(piece.ineqs, piece.interior_point, signs) for piece, signs in refine_cell(cell, forms)]
    want = [(piece.ineqs, piece.interior_point, signs)
            for piece, signs in reference_refine_interval(cell, forms)]
    assert got == want
    assert all(type(x) is QQ for _, point, _ in got for x in point)


def test_segment_missed_by_every_line_takes_no_lp(monkeypatch):
    seg = segment_cell((0, 0), (2, 1))
    lines = [AffineForm((1, 0), -5), AffineForm((0, 1), 3), AffineForm((1, 1), -10),
             AffineForm((1, -2), -4)]
    calls, solves = _count_lps(monkeypatch), _count_slack_solves(monkeypatch)
    boxes = []
    interval = polyhedra._interval

    def recording(rows):
        boxes.append(1)
        return interval(rows)

    monkeypatch.setattr(polyhedra, "_interval", recording)
    assert [piece for piece, _ in refine_cell(seg, lines)] == [seg]
    # The box of a segment is the interval its rows cut out, read once; it
    # culls every line, so nothing is solved.
    assert len(calls) == 0 and len(solves) == 0 and len(boxes) == 1


def test_point_cell_takes_no_lp(monkeypatch):
    p = point_cell((1, QQ(1, 2), -3))
    forms = [AffineForm((1, 0, 0), -1), AffineForm((0, 2, 1), 2), AffineForm((1, 1, 1), 0)]
    calls = _count_lps(monkeypatch)
    assert [piece for piece, _ in refine_cell(p, forms)] == [p]
    assert not calls


@st.composite
def signed_forms(draw, p):
    """Forms through, above and below the point p, with constants over 7,
    60 and 97 and some slopes zero: a . x - a . p + delta, delta zero,
    positive or negative."""
    n, forms = len(p), []
    for _ in range(draw(st.integers(1, 6))):
        a = draw(st.tuples(*[_coef] * n))
        delta = draw(st.sampled_from((0, 1, -1))) * QQ(draw(st.integers(1, 50)),
                                                      draw(st.sampled_from((7, 60, 97))))
        forms.append(AffineForm(a, -dot(a, p) + delta))
    return forms


@pytest.mark.parametrize("n", (1, 2, 3))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_point_is_refined_by_the_signs_of_its_forms(n, data):
    p = data.draw(st.tuples(*[_wide] * n))
    cell, forms = point_cell(p), data.draw(signed_forms(p))
    made = []
    real_new = QQ.__dict__["__new__"]

    def new(cls, *args, **kwargs):
        made.append(args)
        return real_new.__func__(cls, *args, **kwargs)

    QQ.__new__ = staticmethod(new)
    try:
        pairs = refine_cell(cell, forms)
    finally:
        QQ.__new__ = real_new
    assert len(pairs) == 1 and pairs[0][0] is cell
    assert pairs[0][1] == sign_vector(cell, forms)
    assert not made


# Slack solves of add(conic, line) on fresh copies.  Every cell is a segment
# or a ray, so refinement sorts crossings and solves nothing.  Probing each
# cut with a closed-form slack program took 20 and 38 solves; with the
# simplex on every program they were 44 and 62 LPs, and refining along
# every form, as the reference does, took 140 and 240.
_ADD_SOLVES = {"conic+line": 0, "conic+(line+v)": 0}


@pytest.mark.parametrize("name, shift", [
    ("conic+line", (0, 0)),
    ("conic+(line+v)", ("1/2", "1/3")),
])
def test_add_lp_budget(monkeypatch, name, shift):
    c, d = translate(conic_curve(), (0, 0)), translate(standard_skeleton(2, 1), shift)
    calls, solves = _count_lps(monkeypatch), _count_slack_solves(monkeypatch)
    add(c, d)
    assert len(calls) == 0
    assert len(solves) == _ADD_SOLVES[name]


def test_adding_plane_curves_splits_no_piece_by_a_probe(monkeypatch):
    c, d = conic_curve(), translate(standard_skeleton(2, 1), ("1/2", "1/3"))
    splits = []
    real = polyhedra._split_piece

    def recording(*args):
        splits.append(args)
        return real(*args)

    monkeypatch.setattr(polyhedra, "_split_piece", recording)
    total = add(c, d)
    assert not splits
    assert len(total.complex.cells) > len(c.complex.cells) + len(d.complex.cells)
