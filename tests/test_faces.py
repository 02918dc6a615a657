"""Faces, ridges and linearity regions against their general constructions.

The library builds facets from the points canonicalization leaves, with no
LP, matches ridges by affine hull and a relative-interior point, and cuts
linearity regions on the hull of the cell.  The oracles build every face
and region as a new cell from all constraints, find implied equalities by
probing and compare faces by canonical key, so both must give the same
sets.
"""

import importlib
import pkgutil

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    reference_faces_of_codim_one,
    reference_linearity_regions,
    reference_ridges,
    relative_interior_contains,
)

import tropint
import tropint._simplex as simplex
import tropint.polyhedra as polyhedra
from tropint.cycles import cartesian_product, rn_cycle
from tropint.divisors import TropicalPolynomial, _split_one, linearize_many, weil_divisor
from tropint.polyhedra import AffineForm, Cell, collect_hyperplanes, hyperplane_form
from tropint.rn_products import diagonal_divisors

_coef = st.integers(-2, 2)


def _through(point, linear, slack=0):
    """The form with this linear part taking the value slack at the point."""
    return AffineForm(linear, slack - sum(a * x for a, x in zip(linear, point)))


def _combine(forms, weights):
    linear = zip(*(f.linear for f in forms))
    return AffineForm(tuple(sum(w * a for w, a in zip(weights, col)) for col in linear),
                      sum(w * f.constant for w, f in zip(weights, forms)))


@st.composite
def systems(draw, n, max_eqs=2):
    """Inequalities and equalities satisfied by a common integer point, with
    redundant members, implied equalities and repeated forms mixed in."""
    p = draw(st.tuples(*[_coef] * n))
    ineqs = [_through(p, draw(st.tuples(*[_coef] * n)), draw(st.integers(0, 2)))
             for _ in range(draw(st.integers(1, 5)))]
    eqs = [_through(p, draw(st.tuples(*[_coef] * n)))
           for _ in range(draw(st.integers(0, max_eqs)))]
    for _ in range(draw(st.integers(0, 3))):
        f = draw(st.sampled_from(ineqs))
        kind = draw(st.sampled_from(("repeat", "scaled", "looser", "sum", "opposite", "eq")))
        if kind == "repeat":
            ineqs.append(f)
        elif kind == "scaled":
            ineqs.append(AffineForm(tuple(2 * a for a in f.linear), 2 * f.constant))
        elif kind == "looser":
            ineqs.append(AffineForm(f.linear, f.constant + 1))
        elif kind == "sum":
            ineqs.append(_combine([f, draw(st.sampled_from(ineqs))], [1, 1]))
        elif kind == "opposite":
            # Together with f this forces f = 0 where f is tight at p.
            ineqs.append(_through(p, tuple(-a for a in f.linear)))
            ineqs.append(_through(p, f.linear))
        elif eqs:
            # An inequality on the hyperplane of a listed equality.
            e = draw(st.sampled_from(eqs))
            ineqs.append(draw(st.sampled_from((e, e.negated()))))
    return p, ineqs, eqs


def _keys(cells):
    return sorted(c.canonical_key for c in cells)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(systems(3))
def test_faces_match_reference(system):
    _, ineqs, eqs = system
    cell = Cell.try_from_constraints(3, ineqs, eqs)
    assert cell is not None
    faces = cell.faces_of_codim_one()
    reference = {f.canonical_key: f for f in reference_faces_of_codim_one(cell)}
    assert _keys(faces) == sorted(reference)
    assert len(faces) == len(set(f.canonical_key for f in faces))
    for face in faces:
        assert face.dim == cell.dim - 1
        assert relative_interior_contains(face, face.interior_point)
        assert cell.contains_point(face.interior_point)
        # The reference face lists every constraint of the cell, so a point
        # handed on from the boundary of the facet fails here.
        assert relative_interior_contains(reference[face.canonical_key], face.interior_point)


def _count_lps(monkeypatch):
    """Count ``lp_max`` calls, rebound in every tropint module that holds it."""
    calls = []
    real = simplex.lp_max

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for info in pkgutil.iter_modules(tropint.__path__):
        module = importlib.import_module(f"tropint.{info.name}")
        if getattr(module, "lp_max", None) is real:
            monkeypatch.setattr(module, "lp_max", counting)
    return calls


def _count_slack_solves(monkeypatch):
    """Count ``polyhedra._slack_lp`` programs."""
    calls = []
    real = polyhedra._slack_lp

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(polyhedra, "_slack_lp", counting)
    return calls


def test_one_lp_per_inequality_and_none_per_face(monkeypatch):
    cube = Cell.from_constraints(3, [AffineForm(v, 1) for v in (
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))]
        + [AffineForm((1, 1, 0), 5)])  # redundant
    calls = _count_lps(monkeypatch)
    canon = cube.canonical_cell()
    assert len(calls) == 7  # one per distinct reduced inequality
    faces = cube.faces_of_codim_one()
    assert len(faces) == 6 and len(calls) == 7
    # In the canonical order, each face lists g = 0 once, among the equalities.
    for g, face in zip(canon.ineqs, faces):
        assert g not in face.ineqs and face.eqs == (hyperplane_form(g),)
        assert relative_interior_contains(face, face.interior_point)


def test_inequality_on_a_listed_equality_needs_no_probe(monkeypatch):
    calls, solves = _count_lps(monkeypatch), _count_slack_solves(monkeypatch)
    x, y = AffineForm((1, 0), 0), AffineForm((0, 1), 0)
    cell = Cell.try_from_constraints(2, [x, x.negated(), y], [AffineForm((-2, 0), 0)])
    # One variable is free, so the cell is read from its interval: no solve.
    assert len(calls) == 0 and len(solves) == 0
    assert cell.eqs == (x,) and cell.ineqs == (y,) and cell.dim == 1


def test_hull_key_depends_on_the_affine_hull_only():
    # {y = 1, z = 0} written twice, once as y + z = 1, z = y - 1.
    a = Cell.from_constraints(3, [AffineForm((1, 0, 0), 0)],
                              [AffineForm((0, 1, 0), -1), AffineForm((0, 0, 1), 0)])
    b = Cell.from_constraints(3, [AffineForm((-1, 0, 0), 5)],
                              [AffineForm((0, 2, 2), -2), AffineForm((0, -1, 1), 1)])
    c = Cell.from_constraints(3, [AffineForm((1, 0, 0), 0)],
                              [AffineForm((0, 1, 0), -2), AffineForm((0, 0, 1), 0)])
    assert a.hull_key == b.hull_key == a.canonical_key[2]
    assert not a.same_set(b) and a.hull_key != c.hull_key


def _random_polynomial(draw, n, degree):
    """Full degree-d simplex support, seeded constants."""
    terms = []

    def exponents(k, left):
        if k == 0:
            yield ()
            return
        for e in range(left + 1):
            for rest in exponents(k - 1, left - e):
                yield (e,) + rest

    for lin in exponents(n, degree):
        terms.append(AffineForm(lin, draw(st.integers(-3, 3))))
    return TropicalPolynomial(tuple(terms))


def _assert_ridges_match(cx):
    ridges = cx.ridges()
    got = {face.canonical_key: idxs for face, idxs, _ in ridges}
    assert len(got) == len(ridges)
    assert got == reference_ridges(cx)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.data())
def test_ridges_of_linearized_plane_curves_match_reference(data):
    draw = data.draw
    curve = weil_divisor(_random_polynomial(draw, 2, draw(st.integers(1, 3))), rn_cycle(2))
    phi = _random_polynomial(draw, 2, draw(st.integers(1, 2)))
    for base in (rn_cycle(2).complex, curve.complex):
        cx, _ = linearize_many([phi], base)
        _assert_ridges_match(cx)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(st.data())
def test_ridges_of_linearized_products_match_reference(data):
    draw = data.draw
    a = weil_divisor(_random_polynomial(draw, 2, 1), rn_cycle(2))
    b = weil_divisor(_random_polynomial(draw, 2, draw(st.integers(1, 2))), rn_cycle(2))
    cut = cartesian_product(a, b)
    for phi in reversed(diagonal_divisors(2)):
        cx, _ = linearize_many([phi], cut.complex)
        _assert_ridges_match(cx)
        cut = weil_divisor(phi, cut)
        assume(not cut.is_empty)


@st.composite
def cells_and_polynomials(draw, n):
    """A cell and a max-polynomial with repeated terms, terms that differ
    only in the constant, and the cell often inside a tie hyperplane of two
    terms, which need not be among its listed equalities."""
    p, ineqs, eqs = draw(systems(n, max_eqs=n))
    terms = [AffineForm(draw(st.tuples(*[_coef] * n)), draw(_coef))
             for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 3))):
        t = draw(st.sampled_from(terms))
        kind = draw(st.sampled_from(("repeat", "constant", "tie")))
        if kind == "repeat":
            terms.append(t)
        elif kind == "constant":
            terms.append(AffineForm(t.linear, t.constant + draw(st.sampled_from((-1, 1)))))
        elif eqs:
            # A term agreeing with t on the hull of the cell.
            weights = draw(st.tuples(*[st.integers(-1, 1)] * len(eqs)))
            terms.append(_combine([t] + eqs, (1,) + weights))
    return Cell.try_from_constraints(n, ineqs, eqs), draw(st.permutations(terms))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(st.one_of(cells_and_polynomials(2), cells_and_polynomials(3)))
def test_linearity_regions_match_reference(case):
    cell, terms = case
    assert cell is not None
    got = _split_one(cell, TropicalPolynomial(tuple(terms)))
    want = reference_linearity_regions(cell, terms)
    assert [(r.canonical_key, t) for r, t in got] == \
        [(r.canonical_key, terms[i]) for r, i in want]
    for (region, _), (ref, _) in zip(got, want):
        assert collect_hyperplanes([region]) == collect_hyperplanes([ref])
        assert region.dim == cell.dim
        assert relative_interior_contains(region, region.interior_point)


def test_regions_of_a_cell_inside_a_tie_hyperplane():
    # The point (0, 0) lies on x = y, where the terms x and y tie; the tie
    # hyperplane is not among the listed equalities x = 0, y = 0.
    origin = Cell.from_constraints(2, eqs=[AffineForm((1, 0), 0), AffineForm((0, 1), 0)])
    terms = (AffineForm((1, 0), 0), AffineForm((0, 1), 0), AffineForm((0, 0), -1))
    (region, term), = _split_one(origin, TropicalPolynomial(terms))
    assert term == terms[0] and region.same_set(origin)
    # The tie holds on the whole hull, so it adds no equality: the region
    # keeps the origin's canonical ones.
    assert region.eqs == (AffineForm((1, 0), 0), AffineForm((0, 1), 0)) == origin.eqs
