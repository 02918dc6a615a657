"""Cells with one free variable, read from their interval, against the
references.

A constraint system whose equalities leave one free variable z is built,
canonicalized, cut into facets and given its recession cone from the
interval of z that its inequalities cut out (``polyhedra._interval_of``),
with no slack program.  On random such systems in R^2 and R^3, with
rational constants, repeated and parallel forms, forms constant on the
line, and empty and single-point systems, the results must match the
rational references of ``tests/oracles.py``: emptiness and dimension by the
two-phase reference simplex, the canonical key and the faces by their
general constructions, and the recession cone by the boundedness of +w and
-w.  A point's elimination, written down, must be the one ``_eliminate``
computes.  Every interior point is a tuple of ``Fraction``s as built, with
no conversion by the cell.

The interval is read in integers: each line is a positive multiple of the
rational line d f(x) = (a . w) z + (a . c + d f.constant), and the ends are
chosen by cross-multiplication.  Against the rational reading
(``oracles.reference_interval``), with constants over the coprime
denominators 7, 60 and 97 and roots that tie over different denominators,
the lines must have the same signs and roots and the interval the same
ends.  Every end and every point coordinate that ``_interval``,
``_relint_lp``, ``strict_point`` and the facets of ``canonical_cell`` return
must be exactly a ``Fraction``, never a float or an int.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    reference_canonical_key,
    reference_faces_of_codim_one,
    reference_interval,
    reference_lp_max,
    relative_interior_contains,
)

import tropint.polyhedra as polyhedra
from tropint._simplex import INFEASIBLE, OPTIMAL, UNBOUNDED
from tropint.kernel import QQ, dot
from tropint.polyhedra import AffineForm, Cell

_coef = st.sampled_from((0, 0, 1, -1, 2, -2, 3))
_rat = st.builds(QQ, st.integers(-6, 6), st.sampled_from((1, 2, 3)))
# Constants over larger coprime denominators; the bench's are over 60.
_wide = st.builds(QQ, st.integers(-200, 200), st.sampled_from((1, 7, 60, 97)))
_mult = st.sampled_from((1, 1, -1, 2, -3))


def _orthogonal(w):
    """Integer vectors spanning the orthogonal complement of w != 0."""
    if len(w) == 2:
        return [(w[1], -w[0])]
    crosses = [(w[1] * e[2] - w[2] * e[1], w[2] * e[0] - w[0] * e[2], w[0] * e[1] - w[1] * e[0])
               for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    first = next(v for v in crosses if any(v))
    second = next(v for v in crosses if any(
        first[i] * v[j] - first[j] * v[i] for i in range(3) for j in range(3)))
    return [first, second]


def _scaled(m, v):
    return tuple(m * x for x in v)


@st.composite
def line_systems(draw):
    """(n, ineqs, eqs, w): constraints in R^n, n in {2, 3}, whose equalities
    cut out a line p + R w, written as integer combinations of a basis of
    w's orthogonal complement, sometimes with one of them repeated.  The
    inequalities are an arbitrary form or none, up to two lower and two
    upper bounds on t, a repeated, parallel or opposite copy of one of
    them, and a form constant on the line."""
    n = draw(st.sampled_from((2, 3)))
    w = draw(st.tuples(*[_coef] * n).filter(any))
    p = draw(st.tuples(*[_rat] * n))
    normals = _orthogonal(w)
    if len(normals) == 2:
        a, b, c, d = draw(st.tuples(_mult, _mult, _mult, _mult).filter(
            lambda m: m[0] * m[3] != m[1] * m[2]))
        normals = [tuple(a * x + b * y for x, y in zip(*normals)),
                   tuple(c * x + d * y for x, y in zip(*normals))]
    else:
        normals = [_scaled(draw(_mult), normals[0])]
    if draw(st.booleans()):
        normals.append(_scaled(draw(_mult), draw(st.sampled_from(normals))))
    eqs = [AffineForm(a, -dot(a, p)) for a in normals]
    ineqs = [AffineForm(a, c) for a, c in draw(st.lists(st.tuples(st.tuples(*[_coef] * n), _rat),
                                                        max_size=1))]
    # Forms that bound p + t w below at t0 (s > 0) or above (s < 0), with
    # few values of t0, so that the ends often meet or cross.
    t0s = st.sampled_from((0, 1, -1, QQ(1, 2)))
    for sign in (1, -1):
        for s, m, t0 in draw(st.lists(st.tuples(st.sampled_from((1, 2, 3)), _coef, t0s),
                                      max_size=2)):
            a = tuple(sign * s * x + m * y for x, y in zip(w, normals[0]))
            ineqs.append(AffineForm(a, -dot(a, p) - sign * s * dot(w, w) * t0))
    sloped = [f for f in ineqs if dot(f.linear, w)]
    if sloped and draw(st.booleans()):
        # A repeated form, a parallel one, or the opposite side of one
        # shifted by 0 (a single point), a positive amount (empty) or a
        # negative one (often a segment).
        f = draw(st.sampled_from(sloped))
        kind = draw(st.sampled_from(("repeat", "parallel", "opposite", "opposite")))
        if kind == "repeat":
            ineqs.append(f)
        elif kind == "parallel":
            ineqs.append(AffineForm(tuple(2 * a for a in f.linear), draw(_rat)))
        else:
            ineqs.append(AffineForm(tuple(-a for a in f.linear),
                                    -f.constant - draw(st.sampled_from((0, 1, QQ(1, 2), -1, -3)))))
    if draw(st.booleans()):
        # Constant on the line: positive, zero or negative there.
        a = _scaled(draw(_mult), normals[0])
        ineqs.append(AffineForm(a, -dot(a, p) + draw(st.sampled_from((1, 0, -1, QQ(1, 3))))))
    return n, draw(st.permutations(ineqs)), eqs, w


def _rows(forms):
    return [(f.linear, -f.constant) for f in forms]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(line_systems())
def test_one_free_variable_matches_the_references(system):
    n, ineqs, eqs, w = system
    cell = Cell.try_from_constraints(n, ineqs, eqs)
    rows, eq_rows = _rows(ineqs), _rows(eqs)
    status, _, _ = reference_lp_max(n, (0,) * n, ineqs=rows, eqs=eq_rows)
    assert (cell is None) == (status == INFEASIBLE)
    if cell is None:
        return
    assert relative_interior_contains(cell, cell.interior_point)
    # The cell is a point exactly when w . x takes one value on it.
    ends = [reference_lp_max(n, tuple(s * x for x in w), ineqs=rows, eqs=eq_rows)
            for s in (1, -1)]
    single = all(st_ == OPTIMAL for st_, _, _ in ends) and ends[0][1] == -ends[1][1]
    assert cell.dim == (0 if single else 1)
    assert cell.canonical_key == reference_canonical_key(cell)
    faces = cell.faces_of_codim_one()
    assert (sorted(f.canonical_key for f in faces)
            == [f.canonical_key for f in reference_faces_of_codim_one(cell)])
    for face, g in zip(faces, cell.canonical_cell().ineqs):
        assert relative_interior_contains(face, face.interior_point)
        assert face._elim == polyhedra._eliminate(n, cell.eqs + (g,))
    # The recession cone holds +w (-w) exactly when w . x (-w . x) is
    # unbounded above on the cell.
    cone = cell.recession_cone()
    assert cone.contains_point(w) == (ends[0][0] == UNBOUNDED)
    assert cone.contains_point(tuple(-x for x in w)) == (ends[1][0] == UNBOUNDED)
    assert cone.dim == (0 if all(st_ == OPTIMAL for st_, _, _ in ends) else 1)
    assert relative_interior_contains(cone, cone.interior_point)
    for c in (cell, cell.canonical_cell(), cone, *faces):
        assert all(type(x) is Fraction for x in c.interior_point)
    # Its elimination is that of the homogenized equalities, with w . x = 0
    # when it is the origin.
    hull = [AffineForm(f.linear, 0) for f in cell.eqs] + ([] if cone.dim else [AffineForm(w, 0)])
    assert cone._elim == polyhedra._eliminate(n, hull)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(line_systems())
def test_one_free_variable_takes_no_slack_program(system):
    n, ineqs, eqs, _ = system
    calls, solves = [], []
    real_lp, real_slack = polyhedra.lp_max, polyhedra._slack_lp
    polyhedra.lp_max = lambda *a, **k: calls.append(a) or real_lp(*a, **k)
    polyhedra._slack_lp = lambda *a, **k: solves.append(a) or real_slack(*a, **k)
    try:
        cell = Cell.try_from_constraints(n, ineqs, eqs)
        if cell is not None:
            cell.faces_of_codim_one()
            cell.recession_cone()
    finally:
        polyhedra.lp_max, polyhedra._slack_lp = real_lp, real_slack
    assert not calls and not solves


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 3).flatmap(lambda n: st.tuples(
    st.tuples(*[_rat] * n), st.tuples(*[_mult] * n), st.tuples(*[_coef] * n),
    st.lists(st.tuples(*[_coef] * n), max_size=1))))
def test_point_elimination_is_eliminate(system):
    # Equalities whose one solution is p: n triangular rows with a nonzero
    # diagonal, plus perhaps a combination of them.
    p, diagonal, upper, extra = system
    n = len(p)
    rows = [tuple(diagonal[i] if j == i else upper[i] * diagonal[j] if j == i + 1 else 0
                  for j in range(n)) for i in range(n)]
    rows += [tuple(sum(e[i] * r[j] for i, r in enumerate(rows)) for j in range(n))
             for e in extra]
    eqs = [AffineForm(a, -dot(a, p)) for a in rows]
    assert polyhedra._point_elimination(p) == polyhedra._eliminate(n, eqs)


def _exact(values):
    """Whether every value is exactly a Fraction (an int or a float equal
    to one is not)."""
    return all(type(x) is Fraction for x in values)


@st.composite
def wide_line_systems(draw):
    """A system of :func:`line_systems` with more inequalities, whose
    constants are over 7, 60 or 97, some with a root tied with another's
    over a different denominator: a positive multiple of it, or its
    opposite side, each with its constant scaled too."""
    n, ineqs, eqs, w = draw(line_systems())
    ineqs = list(ineqs) + draw(st.lists(st.builds(AffineForm, st.tuples(*[_coef] * n), _wide),
                                        max_size=3))
    for _ in range(draw(st.integers(0, 2))):
        if not ineqs:
            break
        f = draw(st.sampled_from(ineqs))
        m = draw(st.sampled_from((2, 3, 7, 60)))
        sign = draw(st.sampled_from((1, -1)))
        ineqs.append(AffineForm(tuple(sign * m * a for a in f.linear), sign * m * f.constant))
    return n, draw(st.permutations(ineqs)), eqs, w


@settings(max_examples=200, deadline=None, derandomize=True)
@given(wide_line_systems())
def test_integer_lines_read_as_the_rational_ones(system):
    n, ineqs, eqs, _ = system
    elim = polyhedra._eliminate(n, eqs)
    c, (w,), d = elim[:3]
    lines, box = polyhedra._interval_of(ineqs, elim)
    rational = [(dot(f.linear, w), dot(f.linear, c) + d * f.constant) for f in ineqs]
    assert all(type(A) is int and type(G) is int for A, G in lines)
    for (A, G), (alpha, gamma) in zip(lines, rational):
        assert (A > 0) - (A < 0) == (alpha > 0) - (alpha < 0)
        if A:
            assert QQ(-G, A) == -gamma / alpha
        else:
            assert (G > 0) - (G < 0) == (gamma > 0) - (gamma < 0)
    assert box == reference_interval(rational)
    if box is not None:
        assert _exact(end for end in box if end is not None)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_tied_roots_over_different_denominators(data):
    # Lines A z + G >= 0 whose roots are drawn from a few rationals, each
    # written over several denominators, on both sides.
    roots = data.draw(st.lists(st.builds(QQ, st.integers(-9, 9), st.sampled_from((1, 7, 60, 97))),
                               min_size=1, max_size=3))
    lines = []
    for _ in range(data.draw(st.integers(1, 6))):
        r = data.draw(st.sampled_from(roots))
        A = data.draw(st.sampled_from((1, -1))) * r.denominator * data.draw(
            st.sampled_from((1, 2, 3, 7, 60)))
        lines.append((A, -A * r.numerator // r.denominator))
    lines += data.draw(st.lists(st.tuples(st.just(0), st.integers(-1, 2)), max_size=1))
    box = polyhedra._interval(lines)
    assert box == reference_interval([(QQ(A), QQ(G)) for A, G in lines])
    if box is not None:
        assert _exact(end for end in box if end is not None)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(wide_line_systems(), st.tuples(st.tuples(*[_coef] * 3), _wide))
def test_points_of_an_interval_are_exact(system, raw):
    n, ineqs, eqs, _ = system
    elim = polyhedra._eliminate(n, eqs)
    point, t = polyhedra._relint_lp(ineqs, elim)
    if point is None:
        return
    assert _exact(point) and _exact((t,))
    cell = Cell.try_from_constraints(n, ineqs, eqs)
    form = AffineForm(raw[0][:n], raw[1])
    best = polyhedra.strict_point(cell, form)
    if best is not None:
        assert _exact(best) and form.value_at(best) > 0
    canonical = cell.canonical_cell()
    for facet_point, _ in canonical._facet_points:
        assert _exact(facet_point)
    assert all(_exact((f.constant,)) for f in canonical.ineqs + canonical.eqs)
