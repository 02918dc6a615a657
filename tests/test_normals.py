"""Lattice normals and quotient generators against the coordinate method.

The library takes each lattice normal from a facet inequality that cuts
the ridge, as the facet lattice vector on which it is least positive, and
builds ``quotient_generator`` on the same step.  The oracles write the
ridge lattice in coordinates of the facet lattice, test saturation and
solve w . u = 1 there, then fix the sign.  Representatives may differ by
ridge lattice vectors, so the tests compare classes modulo the ridge.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import reference_normal_vector, reference_quotient_generator
from test_faces import _random_polynomial, systems

from tropint.cycles import cartesian_product, is_balanced, normal_vector, rn_cycle
from tropint.divisors import linearize_many, weil_divisor
from tropint.kernel import LatticeBasis, hnf_basis, mat_rank, quotient_generator, subspace_lattice
from tropint.library import conic_curve
from tropint.polyhedra import AffineForm, Cell, point_cell, ray_cell
from tropint.rn_products import diagonal_divisors


def _cutting_inequalities(facet, ridge):
    """Facet inequalities tight on the ridge that vanish on its directions
    but not on the facet's."""
    p = ridge.interior_point
    return [g for g in facet.ineqs
            if g.value_at(p) == 0
            and all(g.eval_direction(b) == 0 for b in ridge.direction_lattice.vectors)
            and any(g.eval_direction(b) != 0 for b in facet.direction_lattice.vectors)]


def _assert_normal_matches_reference(facet, ridge):
    _assert_is_reference_normal(facet, ridge, normal_vector(facet, ridge).representative)


def _assert_is_reference_normal(facet, ridge, u):
    ref = reference_normal_vector(facet, ridge)
    assert all(f.eval_direction(tuple(a - b for a, b in zip(u, ref))) == 0 for f in ridge.eqs)
    assert hnf_basis(ridge.direction_lattice.vectors + (u,)) == facet.direction_lattice.vectors
    cutting = _cutting_inequalities(facet, ridge)
    assert cutting
    for g in cutting:
        assert g.eval_direction(u) > 0 and g.eval_direction(ref) > 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(systems(3))
def test_normals_of_faces_of_random_cells_match_reference(system):
    _, ineqs, eqs = system
    cell = Cell.try_from_constraints(3, ineqs, eqs)
    assert cell is not None
    for face in cell.faces_of_codim_one():
        _assert_normal_matches_reference(cell, face)
        _assert_normal_matches_reference(cell.canonical_cell(), face)


def _assert_ridge_normals_match_reference(cx):
    for ridge, idxs, normals in cx.ridges():
        for i, u in zip(idxs, normals):
            _assert_normal_matches_reference(cx.cells[i], ridge)
            # The normal a ridge carries is the one the validated entry point
            # finds on the canonical cell, where one inequality cuts the ridge.
            _assert_is_reference_normal(cx.cells[i], ridge, u)
            assert u == normal_vector(cx.cells[i].canonical_cell(), ridge).representative


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.data())
def test_normals_of_linearized_plane_curves_match_reference(data):
    draw = data.draw
    curve = weil_divisor(_random_polynomial(draw, 2, draw(st.integers(1, 3))), rn_cycle(2))
    phi = _random_polynomial(draw, 2, draw(st.integers(1, 2)))
    for base in (rn_cycle(2).complex, curve.complex):
        cx, _ = linearize_many([phi], base)
        _assert_ridge_normals_match_reference(cx)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(st.data())
def test_normals_of_linearized_products_match_reference(data):
    draw = data.draw
    a = weil_divisor(_random_polynomial(draw, 2, 1), rn_cycle(2))
    b = weil_divisor(_random_polynomial(draw, 2, draw(st.integers(1, 2))), rn_cycle(2))
    cut = cartesian_product(a, b)
    for phi in reversed(diagonal_divisors(2)):
        cx, _ = linearize_many([phi], cut.complex)
        _assert_ridge_normals_match_reference(cx)
        cut = weil_divisor(phi, cut)
        assume(not cut.is_empty)


def _divisor_and_balance_run():
    """The conic and one diagonal divisor step in R^4 on conic x conic,
    built fresh, as canonical keys with weights, after checking balance."""
    conic = conic_curve()
    step = weil_divisor(diagonal_divisors(2)[-1], cartesian_product(conic, conic_curve()))
    out = []
    for cycle in (conic, step):
        assert is_balanced(cycle.complex)
        out.append(sorted(zip((c.canonical_key for c in cycle.complex.cells),
                              cycle.complex.weights)))
    return out


def test_divisors_and_balancing_read_normals_from_ridges(monkeypatch):
    expected = _divisor_and_balance_run()

    def refuse(facet, ridge):
        raise AssertionError("normal_vector called")

    for module in ("tropint.cycles", "tropint.divisors"):
        monkeypatch.setattr(f"{module}.normal_vector", refuse, raising=False)
    assert _divisor_and_balance_run() == expected


@st.composite
def independent_vectors(draw, n, min_k=1, max_k=None):
    """Between min_k and max_k (default n) linearly independent small
    integer vectors in Z^n."""
    k = draw(st.integers(min_k, n if max_k is None else max_k))
    vectors = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=k, max_size=k))
    assume(mat_rank(vectors) == k)
    return vectors


@st.composite
def saturated_pairs(draw, n):
    """A saturated lattice sup of Z^n and a saturated corank-one sub inside
    it, spanned by integer combinations of the basis of sup."""
    sup = subspace_lattice(draw(independent_vectors(n)), n)
    combos = [tuple(sum(c * x for c, x in zip(coeffs, col)) for col in zip(*sup.vectors))
              for coeffs in draw(st.lists(st.tuples(*[st.integers(-2, 2)] * sup.rank),
                                          min_size=sup.rank - 1, max_size=sup.rank - 1))]
    assume(mat_rank(combos) == sup.rank - 1 if combos else True)
    return subspace_lattice(combos, n), sup


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(saturated_pairs(3), saturated_pairs(4)))
def test_quotient_generator_matches_reference(pair):
    sub, sup = pair
    u = quotient_generator(sub, sup)
    assert hnf_basis(sub.vectors + (u,)) == sup.vectors
    ref = reference_quotient_generator(sub, sup)
    assert any(mat_rank(list(sub.vectors) + [tuple(a + s * b for a, b in zip(u, ref))]) == sub.rank
               for s in (-1, 1))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(saturated_pairs(3), saturated_pairs(4)), st.integers(2, 4))
def test_quotient_generator_rejects_torsion(pair, m):
    sub, sup = pair
    assume(sub.rank >= 1)
    coarse = LatticeBasis(sub.ambient_dim, (tuple(m * x for x in sub.vectors[0]),)
                          + sub.vectors[1:])
    for generator in (quotient_generator, reference_quotient_generator):
        with pytest.raises(ValueError, match="torsion"):
            generator(coarse, sup)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(independent_vectors(3, 2, 2), independent_vectors(4, 2, 3)),
       st.tuples(*[st.integers(-3, 3)] * 4))
def test_quotient_generator_rejects_sub_outside_sup(vectors, outside):
    n = len(vectors[0])
    outside = outside[:n]
    assume(mat_rank(vectors + [outside]) == len(vectors) + 1)
    sup = subspace_lattice(vectors, n)
    sub = subspace_lattice([outside] + vectors[2:], n)
    for generator in (quotient_generator, reference_quotient_generator):
        with pytest.raises(ValueError):
            generator(sub, sup)


def test_quotient_generator_rejects_rank_mismatch():
    z3 = LatticeBasis(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    for sub in (z3, LatticeBasis(3, ((1, 0, 0),))):
        with pytest.raises(ValueError, match="rank mismatch"):
            quotient_generator(sub, z3)


def test_normal_vector_rejects_ridge_point_outside_facet():
    with pytest.raises(ValueError, match="not a codimension-one face"):
        normal_vector(ray_cell((0, 0), (1, 0)), point_cell((-1, 0)))


def test_normal_vector_rejects_ridge_in_relative_interior():
    with pytest.raises(ValueError, match="cuts the ridge"):
        normal_vector(ray_cell((0, 0), (1, 0)), point_cell((2, 0)))


def test_normal_vector_rejects_ridge_direction_leaving_the_hull():
    # The line x = z in the plane y = 0 meets the half-plane {y >= 0, z = c}
    # in one point only; y is tight there and vanishes along the line.
    line = Cell.from_constraints(3, eqs=[AffineForm((0, 1, 0), 0), AffineForm((1, 0, -1), 0)])
    c = line.interior_point[2]
    half = Cell.from_constraints(3, [AffineForm((0, 1, 0), 0)], [AffineForm((0, 0, 1), -c)])
    assert half.contains_point(line.interior_point)
    with pytest.raises(ValueError, match="not a codimension-one face"):
        normal_vector(half, line)


def test_normal_vector_rejects_ridge_not_cut_by_a_tight_inequality():
    # The line x = y lies in the hull of the half-plane {y >= c} and touches
    # its boundary at one point, where y - c is tight but not constant.
    line = Cell.from_constraints(2, eqs=[AffineForm((1, -1), 0)])
    c = line.interior_point[1]
    half = Cell.from_constraints(2, [AffineForm((0, 1), -c)])
    assert half.contains_point(line.interior_point)
    with pytest.raises(ValueError, match="cuts the ridge"):
        normal_vector(half, line)


def test_normal_vector_rejects_wrong_dimension():
    half = Cell.from_constraints(2, [AffineForm((0, 1), 0)])
    axis = Cell.from_constraints(2, eqs=[AffineForm((0, 1), 0)])
    for ridge in (point_cell((0, 0)), half):
        with pytest.raises(ValueError, match="not a codimension-one face"):
            normal_vector(half, ridge)
    with pytest.raises(ValueError, match="not a codimension-one face"):
        normal_vector(axis, half)
