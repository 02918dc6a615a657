"""The fan displacement rule of ``stable_intersect`` against independent routes.

``diagonal_stable_intersect`` cuts C x D by the diagonal divisors and pushes
the cut forward.  For k + l = n it writes the same cycle as the displacement
rule, byte for byte; for k + l > n the two may refine their outputs
differently, so they are compared as cycles.  Mikhalkin's count checks
transversal plane curves and Bernstein's count (the mixed area of the
Newton polygons, computed with no tropint code) any two plane curves of
sparse polynomials; the wall case checks that a displacement lying on a
wall is replaced by the next one.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    diagonal_stable_intersect,
    mixed_area,
    reference_stable_intersect,
    transversal_intersection,
)
from test_diagonal_locality import _fresh, plane_curves
from test_faces import _count_lps, _count_slack_solves
from test_hull import _count_calls
from test_point_predicates import polynomials

from tropint import polyhedra, rn_products
from tropint.cycles import (
    Cycle,
    WeightedComplex,
    cycles_equal,
    is_balanced,
    rn_cycle,
    scale,
    standard_skeleton,
    translate,
    validate_complex,
)
from tropint.divisors import TropicalPolynomial, weil_divisor
from tropint.documents import serialize_document
from tropint.kernel import dot, hnf_basis, hnf_index, mat_rank, subspace_lattice
from tropint.library import conic_curve
from tropint.polyhedra import AffineForm, cone_from_rays, intersect
from tropint.rn_products import degree, stable_intersect

_shift = st.fractions(-2, 2, max_denominator=3)
_generic = st.fractions(-2, 2, max_denominator=7)


def _assert_bytes_match(c, d):
    assert serialize_document(stable_intersect(c, d)) == \
        serialize_document(diagonal_stable_intersect(c, d))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(plane_curves(), plane_curves(), st.sampled_from(("pair", "self", "translate")))
def test_plane_curves_match_diagonal(c, d, kind):
    if kind == "self":
        d = c
    elif kind == "translate":
        d = translate(c, (1, 0))
    _assert_bytes_match(c, d)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(st.sampled_from(((1, 2), (2, 1))), st.tuples(_shift, _shift, _shift))
def test_complementary_space_skeleta_match_diagonal(dims, v):
    k, l = dims
    _assert_bytes_match(standard_skeleton(3, k), translate(standard_skeleton(3, l), v))


@settings(max_examples=6, deadline=None, derandomize=True)
@given(st.sampled_from(("L32.L32", "L31.R3", "C.R2")), st.tuples(_shift, _shift, _shift))
def test_excess_dimension_matches_diagonal_as_cycles(kind, v):
    if kind == "L32.L32":
        c, d = standard_skeleton(3, 2), translate(standard_skeleton(3, 2), v)
    elif kind == "L31.R3":
        c, d = translate(standard_skeleton(3, 1), v), rn_cycle(3)
    else:
        c, d = translate(conic_curve(), v[:2]), rn_cycle(2)
    got = stable_intersect(c, d)
    assert got.dim == c.dim + d.dim - c.ambient_dim
    assert cycles_equal(got, diagonal_stable_intersect(c, d))
    assert is_balanced(got.complex)


@st.composite
def _space_cycles(draw, dim):
    """A surface (dim 2) or a curve (dim 1) of R^3, cut out of R^3 by one
    or two polynomials of degree 1, on the simplex or on a few vertices of
    the unit cube, and moved."""
    c = rn_cycle(3)
    for _ in range(3 - dim):
        c = weil_divisor(draw(polynomials(3, 1)), c)
    return translate(c, draw(st.tuples(_shift, _shift, _shift)))


@pytest.mark.parametrize("kind", ["surface.surface", "curve.R3", "surface.R3"])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_excess_products_match_diagonal(kind, data):
    # Two surfaces and a curve with R^3 have m = 1, a surface with R^3 has
    # m = 2.  Every output is a valid, balanced complex.
    if kind == "surface.surface":
        c, d = data.draw(_space_cycles(2)), data.draw(_space_cycles(2))
    else:
        c, d = data.draw(_space_cycles(1 if kind == "curve.R3" else 2)), rn_cycle(3)
    got = stable_intersect(c, d)
    assert got.dim == c.dim + d.dim - 3
    assert cycles_equal(got, diagonal_stable_intersect(c, d))
    assert validate_complex(got.complex).valid
    assert is_balanced(got.complex).balanced


@pytest.mark.parametrize("dim", [2, 1])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_hypersurface_law(dim, data):
    # f . C, cut out of C by f itself, is the stable product of div(f) with
    # C: m = 1 for a surface C, m = 0 for a curve.  The divisor side shares
    # no code with the product.
    f, c = data.draw(polynomials(3, 1)), data.draw(_space_cycles(dim))
    assert cycles_equal(weil_divisor(f, c), stable_intersect(weil_divisor(f, rn_cycle(3)), c))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(plane_curves(), plane_curves(), st.booleans(), st.tuples(_generic, _generic))
def test_transversal_curves_match_mikhalkin(c, d, self_pair, v):
    d = translate(c if self_pair else d, v)
    want = transversal_intersection(c, d)
    assume(want is not None)
    got = stable_intersect(c, d).complex
    assert dict(zip((cell.interior_point for cell in got.cells), got.weights)) == want


def test_wall_displacement_is_replaced(monkeypatch):
    # At v = (1, 3) the ray (1, 3) of one copy meets the other copy's ray
    # (-1, 0), moved by v, only at its apex: a wall.
    tried = []
    real = rn_products._displaced

    def spy(meets, v):
        tried.append(v)
        return real(meets, v)

    monkeypatch.setattr(rn_products, "_displaced", spy)
    rays = ((1, 3), (-1, 0), (0, -1))
    fan = Cycle(WeightedComplex(2, 1, [cone_from_rays([r], 2) for r in rays], [1, 1, 3]))
    got = stable_intersect(fan, fan)
    assert tried == [(1, 3), (1, 4)]
    assert got.complex.weights == (3,) and got.complex.cells[0].interior_point == (0, 0)
    assert serialize_document(got) == serialize_document(reference_stable_intersect(fan, fan))


def test_r0_empty_inputs_and_complementary_defect():
    point = rn_cycle(0)
    got = stable_intersect(scale(point, 2), scale(point, -3))
    assert got.complex.weights == (-6,)
    _assert_bytes_match(scale(point, 2), scale(point, -3))
    conic = conic_curve()
    for c, d in ((Cycle.empty(2, 1), conic), (conic, Cycle.empty(2, 1)),
                 (conic, scale(conic, 0))):
        out = stable_intersect(c, d)
        assert out.is_empty and (out.ambient_dim, out.dim) == (2, 0)
    line = standard_skeleton(3, 1)
    out = stable_intersect(line, line)
    assert out.is_empty and (out.ambient_dim, out.dim) == (3, -1)
    with pytest.raises(ValueError):
        stable_intersect(conic, line)


# Slack programs of stable_intersect on the inputs of
# test_diagonal_locality.test_lp_budget; the diagonal route takes 414, 50,
# 237 and 534 there, and 66, 12, 190 and 510 LPs; stable_intersect takes
# none.  Every displacement is decided by the signs of integer walls.  Every
# pair of cells is read on the flat where the affine hulls meet, with no
# intersect call: in complementary dimension by sign tests at its one point,
# and in L32.L32, where the flat is a line, from its interval.  Only the
# output cells are eliminated.

_INPUTS = [
    ("conic.conic", lambda: (_fresh(conic_curve()), _fresh(conic_curve()))),
    ("L31.(L32+v)", lambda: (_fresh(standard_skeleton(3, 1)),
                             _fresh(standard_skeleton(3, 2), (1, "1/2", -2)))),
    ("L31.L32", lambda: (_fresh(standard_skeleton(3, 1)), _fresh(standard_skeleton(3, 2)))),
    ("L32.L32", lambda: (_fresh(standard_skeleton(3, 2)), _fresh(standard_skeleton(3, 2)))),
]


@pytest.mark.parametrize("name, make", _INPUTS)
def test_no_lp_and_slack_budget(monkeypatch, name, make):
    c, d = make()
    lps, solves = _count_lps(monkeypatch), _count_slack_solves(monkeypatch)
    stable_intersect(c, d)
    assert not lps and not solves


def _count_pair_work(monkeypatch):
    """Slack programs, eliminations and cell intersections, counted."""
    return (_count_slack_solves(monkeypatch), _count_calls(monkeypatch, polyhedra._eliminate),
            _count_calls(monkeypatch, polyhedra.intersect))


# Output points of the complementary-dimension inputs above; each is written
# down with its elimination, so the product eliminates nothing.
_POINTS = {"conic.conic": 4, "L31.(L32+v)": 1, "L31.L32": 1}


@pytest.mark.parametrize("name, make", [case for case in _INPUTS if case[0] in _POINTS])
def test_complementary_dimension_builds_only_the_output_points(monkeypatch, name, make):
    c, d = make()
    solves, eliminations, intersections = _count_pair_work(monkeypatch)
    got = stable_intersect(c, d)
    assert not solves and not intersections and not eliminations
    assert len(got.complex.cells) == _POINTS[name]


def test_excess_dimension_takes_no_slack_program(monkeypatch):
    c, d = dict(_INPUTS)["L32.L32"]()
    solves, eliminations, intersections = _count_pair_work(monkeypatch)
    stable_intersect(c, d)
    assert (len(solves), len(eliminations), len(intersections)) == (0, 4, 0)


def test_displacements_take_no_program_in_any_dimension(monkeypatch):
    # L43.L43, the 3-skeleton of R^4 with itself, has m = 2: its slack
    # programs come from the meeting pairs, at most one per pair of cells,
    # its eliminations from the output cells, one per pair that counts, and
    # none of either from a displacement.
    c, d = _fresh(standard_skeleton(4, 3)), _fresh(standard_skeleton(4, 3))
    solves, eliminations, intersections = _count_pair_work(monkeypatch)
    under, real = [], rn_products._displaced

    def spy(meets, v):
        before = len(solves)
        entries = real(meets, v)
        under.append(len(solves) - before)
        return entries

    monkeypatch.setattr(rn_products, "_displaced", spy)
    got = stable_intersect(c, d)
    assert (len(solves), len(eliminations), len(intersections)) == (128, 10, 0)
    assert under and not any(under)
    monkeypatch.undo()
    assert cycles_equal(got, diagonal_stable_intersect(c, d))


def test_displacement_search_ends(monkeypatch):
    # A cone test that reads every v as a wall gives up after one candidate
    # more than the walls (a nonzero wall of R^2 vanishes at one point of
    # the moment curve), and a wall that is the zero covector is refused
    # when the pair is read.
    conic = conic_curve()
    tried, walls = [], []

    def wall_everywhere(meets, v):
        tried.append(v)
        walls.append(sum(len(meet.walls) for meet in meets))

    monkeypatch.setattr(rn_products, "_displaced", wall_everywhere)
    with pytest.raises(RuntimeError, match="every candidate"):
        stable_intersect(conic, conic)
    assert walls[0] and len(tried) == walls[0] + 1
    # The inequality y >= 0 of a cell along the x-axis vanishes on its
    # part a of every v, when the other cell runs along the y-axis.
    inverse = rn_products._Inverse.of(2, ((1, 0),), ((0, 1),))
    with pytest.raises(RuntimeError, match="zero covector"):
        rn_products._walls(inverse, [AffineForm((0, 1), 0)], [])


_exponent = st.tuples(st.integers(0, 3), st.integers(0, 3))
_directions = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, -1), (1, 3))


def _on_grid(e):
    return 0 <= min(e) and max(e) <= 3


@st.composite
def _sparse_polynomials(draw, direction=None):
    """A max-polynomial with rational coefficients and at least two terms,
    so its curve is not empty.  Its support is a random set in [0, 3]^2, or
    one on a line of the given direction when there is one."""
    if direction is None:
        support = draw(st.sets(_exponent, min_size=2, max_size=6))
    else:
        def step(e, t):
            return (e[0] + t * direction[0], e[1] + t * direction[1])

        base = draw(st.sampled_from([(i, j) for i in range(4) for j in range(4)
                                     if _on_grid(step((i, j), 1))]))
        line = [e for e in (step(base, t) for t in range(-3, 4)) if _on_grid(e)]
        support = {base, step(base, 1)} | draw(st.sets(st.sampled_from(line)))
    return TropicalPolynomial(
        AffineForm(e, draw(st.fractions(-3, 3, max_denominator=4))) for e in sorted(support))


def _vertex_step(curve):
    """The difference of two vertices of a plane curve, so that the curve
    and its translate by it share a vertex; (1, 0) when it has fewer."""
    vertices = sorted({face.interior_point for cell in curve.complex.cells
                       for face in cell.faces_of_codim_one()})
    if len(vertices) < 2:
        return (1, 0)
    return tuple(b - a for a, b in zip(*vertices[:2]))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from(("pair", "self", "translate", "collinear", "parallel")))
def test_degree_is_bernsteins_count(data, kind):
    # "collinear" pairs a curve of parallel lines with any curve, and
    # "parallel" two such curves of one direction, whose product is zero.
    direction = None
    if kind in ("collinear", "parallel"):
        direction = data.draw(st.sampled_from(_directions))
    f = data.draw(_sparse_polynomials(direction))
    c = weil_divisor(f, rn_cycle(2))
    if kind in ("self", "translate"):
        g, d = f, (c if kind == "self" else translate(c, _vertex_step(c)))
    else:
        g = data.draw(_sparse_polynomials(direction if kind == "parallel" else None))
        d = weil_divisor(g, rn_cycle(2))
    supports = [[t.linear for t in h.terms] for h in (f, g)]
    assert degree(stable_intersect(c, d)) == mixed_area(*supports)


@st.composite
def _lattice_pairs(draw):
    """(n, sigma basis, tau basis): saturated lattices of R^n, n <= 4, of
    ranks k and l >= n - k.  In some pairs tau contains a vector of sigma,
    which keeps them from spanning R^n when l = n - k, and in others both
    lie in one hyperplane."""
    n = draw(st.integers(0, 4))
    flat = n > 1 and draw(st.booleans())
    k = draw(st.integers(int(flat), n - flat))
    l = draw(st.integers(n - k, n - flat))
    vector = st.tuples(*[st.integers(-3, 3)] * n)
    if flat:
        # (h . h) x - (h . x) h lies in the hyperplane orthogonal to h.
        h = draw(vector.filter(any))
        vector = vector.map(lambda x: tuple(dot(h, h) * a - dot(h, x) * b for a, b in zip(x, h)))

    def lattice(rank, rows):
        rows = rows + draw(st.lists(vector, min_size=rank - len(rows), max_size=rank - len(rows)))
        assume(mat_rank(rows) == rank)
        return subspace_lattice(rows, n).vectors

    sigma = lattice(k, [])
    shared = [draw(st.sampled_from(sigma))] if sigma and l and draw(st.booleans()) else []
    return n, sigma, lattice(l, shared)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_lattice_pairs(), st.data())
def test_lattice_inverse_matches_hermite_forms(lattices, data):
    n, sigma, tau = lattices
    inverse = rn_products._Inverse.of(n, sigma, tau)
    rows = hnf_basis(sigma + tau)
    assert (inverse is None) == (len(rows) < n)
    if inverse is None:
        return
    d = inverse.det
    assert inverse.index == hnf_index(rows)
    if len(sigma) + len(tau) == n:
        assert d == inverse.index
    v = data.draw(st.tuples(*[st.integers(-5, 5)] * n))
    da = tuple(dot(col, v) for col in inverse.columns)
    db = tuple(d * y - x for x, y in zip(da, v))
    assert all(x + y == d * z for x, y, z in zip(da, db, v))
    # d a and d b are integer vectors of L_sigma and L_tau: each leaves the
    # Hermite basis of its lattice as it is.
    assert hnf_basis(sigma + (da,)) == hnf_basis(sigma)
    assert hnf_basis(tau + (db,)) == hnf_basis(tau)
    # The meet is a basis of L_sigma ∩ L_tau, of rank k + l - n: full rank,
    # and each vector lies in both lattices.
    meet = inverse.meet
    assert len(meet) == len(sigma) + len(tau) - n and mat_rank(meet) == len(meet)
    assert all(hnf_basis(lattice + (u,)) == hnf_basis(lattice)
               for u in meet for lattice in (sigma, tau))
    if len(sigma) + len(tau) == n:
        assert meet == ()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_sparse_polynomials(), _sparse_polynomials())
def test_crossings_lie_in_both_cells(f, g):
    # The output points are written down, not checked by a constructor, so
    # every crossing is checked here: it exists exactly when the two cells
    # meet, at their one common point.
    c, d = (weil_divisor(h, rn_cycle(2)) for h in (f, g))
    seen, real = [], rn_products._meeting

    def spy(sigma, tau, weight, inverse):
        meet = real(sigma, tau, weight, inverse)
        seen.append((sigma, tau, meet))
        return meet

    with mock.patch.object(rn_products, "_meeting", spy):
        got = stable_intersect(c, d)
    points = set()
    for sigma, tau, meet in seen:
        common = intersect(sigma, tau)
        assert (meet is None) == (common is None)
        if meet is not None:
            numer, denom = meet.rho
            p = tuple(Fraction(x, denom) for x in numer)
            assert sigma.contains_point(p) and tau.contains_point(p)
            assert common.dim == 0 and common.interior_point == p
            points.add(p)
    assert {cell.interior_point for cell in got.complex.cells} <= points
    assert validate_complex(got.complex).valid
    assert is_balanced(got.complex).balanced
