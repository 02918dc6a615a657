import gc
import random

import pytest
from oracles import (
    linear_image_cell,
    refine_by_arrangement,
    relative_interior_contains,
    sign_vector,
)

from tropint.kernel import QQ, hnf_basis
from tropint.polyhedra import (
    AffineForm,
    Cell,
    EmptyCellError,
    cell_contains_cell,
    collect_hyperplanes,
    cone_from_rays,
    intersect,
    point_cell,
    product_cell,
    ray_cell,
    refine_cell,
    segment_cell,
)


def mk(n, ge=(), eq=()):
    return Cell.from_constraints(
        n,
        [AffineForm(a, c) for a, c in ge],
        [AffineForm(a, c) for a, c in eq])


def test_canonicalize_implied_equality():
    c = mk(1, ge=[((1,), 0), ((-1,), 0)])
    assert c.dim == 0
    assert len(c.eqs) >= 1 and c.interior_point == (QQ(0),)


def test_canonicalize_halfplane():
    c = mk(2, ge=[((1, 1), 0)])
    assert c.dim == 2 and not c.eqs


def test_canonicalize_simplicial_cone_r3():
    # Cone spanned by -e1, -e2 inside the plane x3 = 0.
    c = mk(3, ge=[((-1, 0, 0), 0), ((0, -1, 0), 0)], eq=[((0, 0, 1), 0)])
    assert c.dim == 2
    assert c.direction_lattice.vectors == hnf_basis(((1, 0, 0), (0, 1, 0)))
    via_rays = cone_from_rays([(-1, 0, 0), (0, -1, 0)], 3)
    assert c.same_set(via_rays)


def test_affine_form_rejects_a_non_integer_linear_part():
    with pytest.raises(ValueError):
        AffineForm((QQ(1, 2), 1), 0)
    f = AffineForm((QQ(4, 2), 1), QQ(1, 2))
    assert f.linear == (2, 1) and type(f.linear[0]) is int


def test_ray_cell_rejects_a_non_integer_direction():
    with pytest.raises(ValueError):
        ray_cell((0, 0), (QQ(1, 2), 1))
    ray = ray_cell((0, 0), (QQ(2), 1))
    assert ray.same_set(ray_cell((0, 0), (2, 1))) and type(ray.ineqs[0].linear[0]) is int


def test_ray_cell_rejects_a_zero_direction():
    # A zero direction would give a point, which a cycle of curves then
    # fails on with no word of the ray.
    for n in (1, 2, 3):
        with pytest.raises(ValueError, match="degenerate ray"):
            ray_cell((1,) * n, (0,) * n)


def test_cone_from_rays_rejects_a_non_integer_ray():
    with pytest.raises(ValueError):
        cone_from_rays([(QQ(3, 2), 1)], 2)
    assert cone_from_rays([(QQ(3), 1)], 2).same_set(cone_from_rays([(3, 1)], 2))


def test_cone_from_rays_rejects_a_ray_of_the_wrong_length():
    # Every ray must lie in R^n, or the dual forms are not forms on R^n.
    for rays, n in (([(1, 0, 0)], 2), ([(1, 0)], 3), ([(1, 0), (0, 1, 0)], 3)):
        with pytest.raises(ValueError, match="wrong length"):
            cone_from_rays(rays, n)


def test_constraints_reject_a_form_of_the_wrong_length():
    # A form on R^2 has two coefficients; a third must not be read as the
    # constant, which would make the first system the line x_1 = -5.
    for ineqs, eqs in (((), [AffineForm((1, 0, 5), 0)]), ([AffineForm((1,), 0)], ()),
                       ([AffineForm((1, 0), 0), AffineForm((0, 1, 0), 1)], ())):
        for build in (Cell.try_from_constraints, Cell.from_constraints):
            with pytest.raises(ValueError, match="wrong length"):
                build(2, ineqs, eqs)


def test_public_constructor_checks_its_point():
    x, y = AffineForm((1, 0), 0), AffineForm((0, 1), 0)
    # The point is outside the ray {x >= 0, y = 0}; then it is not strict on
    # x >= 0, -x >= 0, which cut out a point, not a segment; then it is off
    # the equality.
    for ineqs, eqs, point in (([x], [y], (-1, 0)), ([x, x.negated()], [y], (0, 0)),
                              ([x], [y], (1, QQ(1, 2)))):
        with pytest.raises(ValueError, match="relative interior"):
            Cell(2, ineqs, eqs, point)
    cell = Cell(2, iter([x]), iter([y]), ("1/2", 0))
    assert cell.dim == 1 and cell.interior_point == (QQ(1, 2), 0)
    assert cell.canonical_key == mk(2, ge=[((1, 0), 0)], eq=[((0, 1), 0)]).canonical_key


def test_empty_cell():
    assert Cell.try_from_constraints(1, [AffineForm((1,), -1), AffineForm((-1,), 0)]) is None
    with pytest.raises(EmptyCellError):
        mk(1, ge=[((1,), -1), ((-1,), 0)])


def test_intersect():
    pos = mk(1, ge=[((1,), 0)])
    neg = mk(1, ge=[((-1,), 0)])
    origin = intersect(pos, neg)
    assert origin is not None and origin.dim == 0
    a = mk(2, ge=[((1, 0), 0)])
    b = mk(2, ge=[((-1, 0), 0)])
    line = intersect(a, b)
    assert line.dim == 1 and line.same_set(mk(2, eq=[((1, 0), 0)]))
    r1 = cone_from_rays([(-1, 0)], 2)
    r2 = cone_from_rays([(0, -1)], 2)
    both = intersect(r1, r2)
    assert both.same_set(point_cell((0, 0)))


def test_faces_of_square():
    square = mk(2, ge=[((1, 0), 0), ((-1, 0), 1), ((0, 1), 0), ((0, -1), 1)])
    faces = square.faces_of_codim_one()
    assert len(faces) == 4
    assert all(f.dim == 1 for f in faces)
    for f in faces:
        assert cell_contains_cell(square, f)


def test_faces_of_cone_ray_line():
    cone = cone_from_rays([(-1, 0), (0, -1)], 2)
    faces = cone.faces_of_codim_one()
    assert len(faces) == 2
    assert {f.same_set(cone_from_rays([(-1, 0)], 2)) for f in faces} == {True, False}
    ray = cone_from_rays([(1, 1)], 2)
    vertex, = ray.faces_of_codim_one()
    assert vertex.same_set(point_cell((0, 0)))
    line = mk(2, eq=[((0, 1), 0)])
    assert line.faces_of_codim_one() == ()


def test_boundary_points_lie_in_faces():
    # Every non-interior point sits in a codimension-one face or deeper;
    # sampled at relative-interior points of the faces themselves and at
    # their pairwise intersections (the deeper strata).
    cone = cone_from_rays([(-1, 0), (0, -1)], 2)
    square = mk(2, ge=[((1, 0), 0), ((-1, 0), 1), ((0, 1), 0), ((0, -1), 1)])
    for cell in (cone, square):
        faces = cell.faces_of_codim_one()
        for f in faces:
            p = f.interior_point
            assert cell.contains_point(p) and not relative_interior_contains(cell, p)
            assert any(g.contains_point(p) for g in faces)
        for i in range(len(faces)):
            for j in range(i + 1, len(faces)):
                deep = intersect(faces[i], faces[j])
                if deep is not None:
                    assert cell.contains_point(deep.interior_point)
                    assert not relative_interior_contains(cell, deep.interior_point)


def test_recession_cone():
    square = mk(2, ge=[((1, 0), 0), ((-1, 0), 1), ((0, 1), 0), ((0, -1), 1)])
    assert square.recession_cone().same_set(point_cell((0, 0)))
    cone = cone_from_rays([(-1, 0), (0, -1)], 2)
    assert cone.recession_cone().same_set(cone)
    shifted_ray = ray_cell((-1, -1), (1, 1))
    assert shifted_ray.recession_cone().same_set(cone_from_rays([(1, 1)], 2))
    assert shifted_ray.translate((QQ(5), QQ(-3))).recession_cone().same_set(
        cone_from_rays([(1, 1)], 2))


def test_membership_predicates():
    cone = cone_from_rays([(-1, 0), (0, -1)], 2)
    assert cone.contains_point((0, 0))
    assert not relative_interior_contains(cone, (0, 0))
    assert relative_interior_contains(cone, (-1, -1))
    assert cone.contains_point((-1, 0))
    assert not relative_interior_contains(cone, (-1, 0))
    assert not cone.contains_point((1, 0))


def test_relative_interior_point_cached():
    cases = [
        mk(2, ge=[((1, 0), 0), ((0, 1), 0)]),
        cone_from_rays([(1, 1, 1), (1, 1, 0)], 3),
        segment_cell((0, 0), (1, 1)),
        point_cell((QQ(1, 2), 3)),
    ]
    for c in cases:
        assert relative_interior_contains(c, c.interior_point)
        assert c.dim == c.direction_lattice.rank


def test_refine_plane_by_axes():
    plane = Cell.full_space(2)
    pieces = refine_cell(plane, [AffineForm((1, 0), 0)])
    assert len(pieces) == 2
    pieces = refine_by_arrangement([plane], [AffineForm((1, 0), 0), AffineForm((0, 1), 0)])
    assert len(pieces) == 4
    assert all(p.dim == 2 for p in pieces)


def test_refine_fan_cells_by_diagonal_hyperplane():
    # Rays of the standard line: the two axis rays miss {x = y} and the
    # diagonal ray lies inside it, so nothing splits.
    from tropint.cycles import standard_skeleton

    diag = AffineForm((1, -1), 0)
    rays = standard_skeleton(2, 1).complex.cells
    assert len(refine_by_arrangement(rays, [diag])) == 3
    # The full two-dimensional fan: one of three cones is cut in two.
    cones = standard_skeleton(2, 2).complex.cells
    assert len(refine_by_arrangement(cones, [diag])) == 4


def test_refine_tiles_and_dedupes():
    # Two overlapping halfplanes refined by all their forms give disjoint
    # interiors and no duplicated piece.
    a = mk(2, ge=[((1, 0), 0)])
    b = mk(2, ge=[((-1, 0), -1)])  # x <= 1
    forms = collect_hyperplanes([a, b])
    pieces = refine_by_arrangement([a, b], forms)
    keys = [sign_vector(p, forms) for p in pieces]
    assert len(set(keys)) == len(pieces)
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            common = intersect(pieces[i], pieces[j])
            assert common is None or common.dim < 2
    # Relative interior points of the inputs land in exactly one piece.
    for src in (a, b):
        p = src.interior_point
        hits = [pc for pc in pieces if pc.contains_point(p)]
        assert len([pc for pc in hits if relative_interior_contains(pc, p)]) <= 1
        assert hits


def test_canonical_key_is_semantic():
    sq1 = mk(2, ge=[((1, 0), 0), ((-1, 0), 1), ((0, 1), 0), ((0, -1), 1)])
    sq2 = mk(2, ge=[((2, 0), 0), ((-1, 0), 1), ((0, 3), 0), ((0, -1), 1),
                    ((1, 1), 0)])  # redundant extra constraint
    assert sq1.same_set(sq2)
    assert sq2.canonical_cell().ineqs == sq1.canonical_cell().ineqs
    tri = mk(2, ge=[((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)])
    assert not sq1.same_set(tri)


def test_canonical_key_reduces_modulo_affine_hull():
    # On the line x = y the forms x >= 0 and y >= 0 describe the same ray.
    a = mk(2, ge=[((1, 0), 0)], eq=[((1, -1), 0)])
    b = mk(2, ge=[((0, 1), 0)], eq=[((1, -1), 0)])
    assert a.same_set(b)


def test_product_cell():
    seg = segment_cell((0,), (1,))
    ray = ray_cell((0,), (1,))
    p = product_cell(seg, ray)
    assert p.ambient_dim == 2 and p.dim == 2
    assert p.contains_point((QQ(1, 2), 7))
    assert not p.contains_point((2, 1))
    assert relative_interior_contains(p, p.interior_point)


def test_linear_image_cell():
    # Project the diagonal line of R^2 to the x-axis.
    diag = mk(2, eq=[((1, -1), 0)])
    img = linear_image_cell(((1, 0),), diag)
    assert img.same_set(Cell.full_space(1))
    # Collapse a 2-d cone to a halfline.
    quad = mk(2, ge=[((1, 0), 0), ((0, 1), 0)])
    img = linear_image_cell(((1, 1),), quad)
    assert img.same_set(mk(1, ge=[((1,), 0)]))
    img = linear_image_cell(((1, -1),), quad)
    assert img.same_set(Cell.full_space(1))
    sq = mk(2, ge=[((1, 0), 0), ((-1, 0), 1), ((0, 1), 0), ((0, -1), 1)])
    img = linear_image_cell(((1, 1),), sq)
    assert img.same_set(segment_cell((0,), (2,)))


def test_random_refinement_properties():
    rng = random.Random(17)
    for _ in range(10):
        forms = []
        for _ in range(rng.randint(1, 3)):
            a = (rng.randint(-2, 2), rng.randint(-2, 2))
            if a == (0, 0):
                continue
            forms.append(AffineForm(a, rng.randint(-2, 2)))
        cell = mk(2, ge=[((1, 0), 3), ((-1, 0), 3), ((0, 1), 3), ((0, -1), 3)])
        pieces = [p for p, _ in refine_cell(cell, forms)]
        assert all(p.dim == 2 for p in pieces)
        for p in pieces:
            assert cell_contains_cell(cell, p)
        # Piece interiors are separated by the arrangement.
        for i in range(len(pieces)):
            for j in range(i + 1, len(pieces)):
                c = intersect(pieces[i], pieces[j])
                assert c is None or c.dim < 2


def test_canonical_cells_are_freed_without_the_cycle_collector():
    # A canonical cell is its own canonical cell without holding a reference
    # to itself, so the cells of an operation are freed as soon as it ends.
    gc.collect()
    gc.disable()
    try:
        cube = mk(3, ge=[(tuple(s if j == i else 0 for j in range(3)), 1)
                         for i in range(3) for s in (1, -1)])
        canon = cube.canonical_cell()
        assert canon.canonical_cell() is canon and cube.canonical_cell() is canon
        assert canon.canonical_key == cube.canonical_key
        assert len(cube.faces_of_codim_one()) == 6
        del cube, canon
        assert gc.collect() == 0
    finally:
        gc.enable()
