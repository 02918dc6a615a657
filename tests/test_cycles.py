import pytest
from oracles import common_refinement, refine_complex, star_fan

from tropint.cycles import (
    Cycle,
    WeightedComplex,
    add,
    cartesian_product,
    cycles_equal,
    is_balanced,
    negate,
    normal_vector,
    rn_cycle,
    scale,
    standard_skeleton,
    translate,
    validate_complex,
)
from tropint.kernel import QQ
from tropint.polyhedra import (
    AffineForm,
    Cell,
    collect_hyperplanes,
    cone_from_rays,
    point_cell,
    ray_cell,
)


def ray(*d):
    return cone_from_rays([d], len(d))


def complex_of(dim, cells_weights, ambient=None):
    cells = [c for c, _ in cells_weights]
    ambient = ambient if ambient is not None else cells[0].ambient_dim
    return WeightedComplex(ambient, dim, cells, [w for _, w in cells_weights])


def line_r1(weight=1):
    return Cycle(WeightedComplex(1, 1, [Cell.full_space(1)], [weight]), check=False)


def test_validate_accepts_standard_line():
    d = validate_complex(standard_skeleton(2, 1).complex)
    assert d.valid, d.problems


def test_validate_accepts_halfplane_without_boundary():
    half = Cell.from_constraints(2, [AffineForm((1, 0), 0)])
    d = validate_complex(WeightedComplex(2, 2, [half], [1]))
    assert d.valid


def test_validate_rejects_raw_union_of_two_fans():
    # Cones of two different fans thrown together: [0,45] and [45,90] from
    # one fan next to [0,90] from another overlap without being faces.
    a = cone_from_rays([(1, 0), (1, 1)], 2)
    b = cone_from_rays([(1, 1), (0, 1)], 2)
    c = cone_from_rays([(1, 0), (0, 1)], 2)
    d = validate_complex(WeightedComplex(2, 2, [a, b, c], [1, 1, 1]))
    assert not d.valid
    assert any("overlap" in p or "not a face" in p for p in d.problems)


def test_validate_rejects_non_face_intersection():
    left = cone_from_rays([(1, 0), (1, 2)], 2)
    right = cone_from_rays([(1, 1), (0, 1)], 2)  # overlaps left in [45,~63]
    d = validate_complex(WeightedComplex(2, 2, [left, right], [1, 1]))
    assert not d.valid


def test_nonzero_part():
    rays = [ray(-1, 0), ray(0, -1), ray(1, 1)]
    c = complex_of(1, list(zip(rays, (1, 0, 1))))
    reduced = c.nonzero_part()
    assert len(reduced.cells) == 2
    zero = complex_of(1, list(zip(rays, (0, 0, 0))))
    assert zero.nonzero_part().is_empty
    again = reduced.nonzero_part()
    assert again.cells == reduced.cells


def test_weighted_complex_rejects_non_integer_weights():
    with pytest.raises(ValueError):
        WeightedComplex(2, 1, [ray_cell((0, 0), (1, 0))], [QQ(3, 2)])
    cx = WeightedComplex(2, 1, [ray_cell((0, 0), (1, 0))], [QQ(4, 2)])
    assert cx.weights == (2,) and type(cx.weights[0]) is int


def test_normal_vector_ray_over_origin():
    nv = normal_vector(ray(-1, 0), point_cell((0, 0)))
    assert nv.representative == (-1, 0)


def test_normal_vector_cone_over_ray_r3():
    facet = cone_from_rays([(-1, 0, 0), (0, -1, 0)], 3)
    ridge = cone_from_rays([(-1, 0, 0)], 3)
    u = normal_vector(facet, ridge).representative
    assert u[1] == -1 and u[2] == 0


def test_normal_vector_halfplane_over_axis():
    half = Cell.from_constraints(2, [AffineForm((0, 1), 0)])
    axis = Cell.from_constraints(2, eqs=[AffineForm((0, 1), 0)])
    u = normal_vector(half, axis).representative
    assert u[1] == 1


def test_normal_vector_rejects_non_face():
    with pytest.raises(ValueError):
        normal_vector(ray(1, 0), point_cell((5, 5)))


def test_balanced_skeleta():
    for n in range(1, 5):
        for k in range(0, n + 1):
            report = is_balanced(standard_skeleton(n, k).complex)
            assert report.balanced, (n, k, report.witness)


def test_unbalanced_opposite_rays():
    c = complex_of(1, [(ray(1), 1), (ray(-1), 2)])
    report = is_balanced(c)
    assert not report.balanced
    assert report.witness.same_set(point_cell((0,)))


def test_common_refinement_preserves_weights():
    whole = line_r1(3).complex
    split = complex_of(1, [(ray(1), 3), (ray(-1), 3)])
    a2, b2 = common_refinement(whole, split)
    assert set(a2.weights) == {3}
    assert len(a2.cells) == len(b2.cells) == 2
    # Identical inputs come back re-cut the same way.
    x2, y2 = common_refinement(whole, whole)
    assert len(x2.cells) == len(y2.cells)
    assert x2.weights == y2.weights


def test_common_refinement_resolves_misaligned_fans():
    # Two complete fans whose rays do not match; the raw union of cones is
    # not a complex, the common refinement of both is.
    x = complex_of(2, [
        (cone_from_rays([(1, 0), (1, 1)], 2), 2),
        (cone_from_rays([(1, 1), (-1, 0)], 2), 3),
        (cone_from_rays([(-1, 0), (1, -1)], 2), 4),
        (cone_from_rays([(1, -1), (1, 0)], 2), 5),
    ])
    y = complex_of(2, [
        (cone_from_rays([(1, 0), (0, 1)], 2), 1),
        (cone_from_rays([(0, 1), (-1, -1)], 2), 1),
        (cone_from_rays([(-1, -1), (1, 0)], 2), 1),
    ])
    assert not validate_complex(
        WeightedComplex(2, 2, x.cells + y.cells, x.weights + y.weights)).valid
    a2, b2 = common_refinement(x, y)
    assert validate_complex(a2).valid
    assert validate_complex(b2).valid
    assert len(a2.cells) == len(b2.cells) >= 6
    # Inherited weights: every piece carries its originating cone's weight.
    for piece, w in zip(a2.cells, a2.weights):
        parents = [wx for cx, wx in zip(x.cells, x.weights)
                   if cx.contains_point(piece.interior_point)]
        assert parents == [w]


def test_cycles_equal_up_to_refinement():
    whole = line_r1(2)
    split = Cycle(complex_of(1, [(ray(1), 2), (ray(-1), 2)]), check=False)
    assert cycles_equal(whole, split)
    assert cycles_equal(whole, whole)
    other = Cycle(complex_of(1, [(ray(1), 2), (ray(-1), 1)]), check=False)
    assert not cycles_equal(whole, other)


def test_refinement_invariance_of_cycles():
    line = standard_skeleton(2, 1)
    forms = collect_hyperplanes(line.complex.cells) + (AffineForm((1, 1), -2),)
    refined = Cycle(refine_complex(line.complex, forms), check=False)
    assert len(refined.complex.cells) > len(line.complex.cells)
    assert cycles_equal(line, refined)


def test_add_group_axioms():
    line = standard_skeleton(2, 1)
    shifted = translate(line, (1, 2))
    shifted2 = translate(line, (QQ(-1, 2), 1))
    doubled = scale(line, 2)
    empty = Cycle.empty(2, 1)
    library = [line, shifted, shifted2, doubled, add(line, shifted)]
    for c in library:
        assert cycles_equal(add(c, empty), c)
        assert cycles_equal(add(c, negate(c)), empty)
    for a in library:
        for b in library:
            assert cycles_equal(add(a, b), add(b, a))
    a, b, c = library[0], library[1], library[3]
    assert cycles_equal(add(add(a, b), c), add(a, add(b, c)))


def test_add_and_equality_check_dimensions_when_a_summand_is_empty():
    surface = standard_skeleton(3, 2)
    zero = scale(standard_skeleton(2, 1), 0)
    for empty in (Cycle.empty(2, 1), Cycle.empty(3, 1), Cycle.empty(2, 2), zero):
        with pytest.raises(ValueError, match="different dimension"):
            add(empty, surface)
        with pytest.raises(ValueError, match="different dimension"):
            add(surface, empty)
        assert not cycles_equal(empty, surface) and not cycles_equal(surface, empty)
    assert not cycles_equal(Cycle.empty(2, 1), Cycle.empty(3, 2))
    assert not cycles_equal(Cycle.empty(2, 1), Cycle.empty(2, 0))
    assert not cycles_equal(Cycle(complex_of(1, [(ray(1), 0)]), check=False), Cycle.empty(2, 1))
    assert cycles_equal(zero, Cycle.empty(2, 1))
    assert cycles_equal(add(Cycle.empty(3, 2), surface), surface)


def test_add_same_support_doubles_weights():
    line = standard_skeleton(2, 1)
    summed = add(line, line)
    assert cycles_equal(summed, scale(line, 2))
    for w in summed.complex.weights:
        assert w == 2


def test_add_preserves_balancing():
    line = standard_skeleton(2, 1)
    shifted = translate(line, (3, 1))
    total = add(line, shifted)
    assert is_balanced(total.complex).balanced
    assert is_balanced(cartesian_product(line, line_r1()).complex).balanced
    assert is_balanced(translate(line, (QQ(1, 3), QQ(2, 5))).complex).balanced
    assert is_balanced(scale(line, -7).complex).balanced


def test_cartesian_product_cases():
    line = standard_skeleton(2, 1)
    origin = Cycle(complex_of(0, [(point_cell((0,)), 1)]), check=False)
    lifted = cartesian_product(line, origin)
    assert lifted.ambient_dim == 3 and lifted.dim == 1
    r1 = line_r1()
    plane = cartesian_product(r1, r1)
    assert plane.dim == 2 and len(plane.complex.cells) == 1
    p2 = Cycle(complex_of(0, [(point_cell((1,)), 2)]), check=False)
    p3 = Cycle(complex_of(0, [(point_cell((2,)), 3)]), check=False)
    prod = cartesian_product(p2, p3)
    assert prod.complex.weights == (6,)


def test_translate_identities():
    line = standard_skeleton(2, 1)
    assert cycles_equal(translate(line, (0, 0)), line)
    v = (QQ(3, 2), -2)
    back = translate(translate(line, v), tuple(-x for x in v))
    assert cycles_equal(back, line)
    moved = translate(line, v)
    for cell, orig in zip(moved.complex.cells, line.complex.cells):
        assert cell.recession_cone().same_set(orig.recession_cone())


def test_standard_skeleton_shapes():
    for n in (1, 2, 3):
        assert cycles_equal(standard_skeleton(n, n), rn_cycle(n))
    l21 = standard_skeleton(2, 1)
    assert len(l21.complex.cells) == 3
    dirs = {c.recession_cone().canonical_key for c in l21.complex.cells}
    expected = {ray(-1, 0).canonical_key, ray(0, -1).canonical_key, ray(1, 1).canonical_key}
    assert dirs == expected
    l30 = standard_skeleton(3, 0)
    assert len(l30.complex.cells) == 1 and l30.complex.cells[0].dim == 0


def test_scale_by_zero_and_one():
    line = standard_skeleton(2, 1)
    assert scale(line, 0).is_empty
    assert cycles_equal(scale(line, 1), line)


def test_star_fan():
    l21 = standard_skeleton(2, 1)
    # Star at a maximal cell: the span of that cell.
    r = l21.complex.cells[0]
    star = star_fan(l21.complex, r)
    assert len(star.cells) == 1
    span = Cell.from_constraints(2, eqs=r.recession_cone().eqs)
    assert star.cells[0].same_set(span)
    # Star at the vertex of a fan is the fan itself.
    star0 = star_fan(l21.complex, point_cell((0, 0)))
    assert len(star0.cells) == 3
    keys = {c.canonical_key for c in star0.cells}
    assert keys == {c.canonical_key for c in l21.complex.cells}


def test_star_fan_at_split_ray_of_rigid_refinement():
    # The refined standard surface has two maximal cones around the split
    # direction e_1 + e_2; its star collects exactly those.
    e0 = (1, 1, 1)
    cones = [
        cone_from_rays([e0, (-1, 0, 0)], 3), cone_from_rays([e0, (0, -1, 0)], 3),
        cone_from_rays([(-1, 0, 0), (0, 0, -1)], 3), cone_from_rays([(0, -1, 0), (0, 0, -1)], 3),
        cone_from_rays([(-1, 0, 0), (-1, -1, 0)], 3), cone_from_rays([(-1, -1, 0), (0, -1, 0)], 3),
        cone_from_rays([e0, (1, 1, 0)], 3), cone_from_rays([(1, 1, 0), (0, 0, -1)], 3),
    ]
    l_r = WeightedComplex(3, 2, cones, [1] * 8)
    assert validate_complex(l_r).valid
    assert is_balanced(l_r).balanced
    star = star_fan(l_r, cone_from_rays([(-1, -1, 0)], 3))
    # Two tangent halfplanes inside {x_3 = 0}, split along the line
    # through the split direction, one covering each original cone.
    assert len(star.cells) == 2
    for cone in star.cells:
        assert cone.dim == 2
        assert cone.contains_point((-1, -1, 0))
        assert cone.contains_point((1, 1, 0))
    hits = {c.contains_point((-1, 0, 0)) for c in star.cells}
    assert hits == {True, False}
