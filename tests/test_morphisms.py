import pytest
from oracles import (
    compose_maps,
    divisors_equal,
    identity_map,
    linear_image_cell,
    pl_add,
    projection_map,
    weight_of,
)

from tropint.cycles import (
    Cycle,
    WeightedComplex,
    add,
    cycles_equal,
    is_balanced,
    rn_cycle,
    scale,
    standard_skeleton,
)
from tropint.divisors import (
    TropicalPolynomial,
    pl_rep,
    weil_divisor,
)
from tropint.kernel import QQ
from tropint.library import (
    diagonal_line,
    map_f1,
    map_f2,
    pushforward_fan,
)
from tropint.morphisms import (
    IntegerLinearMap,
    Morphism,
    check_projection_formula,
    image_cell,
    pull_back,
    push_forward,
)
from tropint.polyhedra import (
    AffineForm,
    Cell,
    cone_from_rays,
    point_cell,
    segment_cell,
)


def max_x_zero(n=1):
    terms = [AffineForm(tuple(1 if j == 0 else 0 for j in range(n)), 0),
             AffineForm((0,) * n, 0)]
    return TropicalPolynomial(tuple(terms))


def weight_lookup(cycle, cell):
    return weight_of(cycle.complex, cell)


def test_image_cell_matches_projection_oracle():
    # The dedicated injective-path image agrees with variable elimination.
    cells = [
        cone_from_rays([(1, 2)], 2),
        segment_cell((0, 0), (3, 1)),
        cone_from_rays([(1, 0), (1, 1)], 2),
    ]
    maps = [((1, 0), (1, 1)), ((2, 1), (0, 1)), ((1, 1), (1, -1))]
    for cell in cells:
        for m in maps:
            fast = image_cell(m, cell)
            slow = linear_image_cell(m, cell)
            assert fast is not None and fast.same_set(slow)


def test_image_cell_rank_drop():
    diag = cone_from_rays([(1, 1)], 2)
    assert image_cell(((1, -1),), diag) is None


def test_pushforward_example_weights():
    fan = pushforward_fan()
    assert is_balanced(fan.complex).balanced
    target = rn_cycle(1)
    pos = Cell.from_constraints(1, [AffineForm((1,), 0)])
    neg = Cell.from_constraints(1, [AffineForm((-1,), 0)])

    out1 = push_forward(Morphism(map_f1(), fan, target))
    assert weight_lookup(out1, pos) == 2
    assert weight_lookup(out1, neg) == 2
    assert is_balanced(out1.complex).balanced

    out2 = push_forward(Morphism(map_f2(), fan, target))
    assert weight_lookup(out2, pos) == 1
    assert weight_lookup(out2, neg) == 1


def test_pushforward_identity():
    line = standard_skeleton(2, 1)
    ident = Morphism(identity_map(2), line, line)
    assert cycles_equal(push_forward(ident), line)


def test_pushforward_projection_of_diagonal():
    diag = diagonal_line(1)
    pi = Morphism(projection_map(1), diag, rn_cycle(1))
    out = push_forward(pi)
    assert cycles_equal(out, rn_cycle(1))


def test_pushforward_scaling_index():
    double = IntegerLinearMap(((2,),))
    f = Morphism(double, rn_cycle(1), rn_cycle(1))
    out = push_forward(f)
    assert cycles_equal(out, scale(rn_cycle(1), 2))


def test_pushforward_linearity():
    fan = pushforward_fan()
    shifted = Cycle(WeightedComplex(
        2, 1, [c.translate((1, 1)) for c in fan.complex.cells], fan.complex.weights),
        check=False)
    target = rn_cycle(1)
    f = Morphism(map_f1(), add(fan, shifted), target)
    lhs = push_forward(f)
    rhs = add(push_forward(Morphism(map_f1(), fan, target)),
              push_forward(Morphism(map_f1(), shifted, target)))
    assert cycles_equal(lhs, rhs)


def test_pushforward_functoriality():
    fan = pushforward_fan()
    g = IntegerLinearMap(((3,),))
    f = map_f1()
    via_composite = push_forward(Morphism(compose_maps(g, f), fan, rn_cycle(1)))
    step1 = push_forward(Morphism(f, fan, rn_cycle(1)))
    via_steps = push_forward(Morphism(g, step1, rn_cycle(1)))
    assert cycles_equal(via_composite, via_steps)


def test_integer_linear_map_rejects_non_integer_entries():
    with pytest.raises(ValueError):
        IntegerLinearMap(((QQ(3, 2), 1),))
    assert IntegerLinearMap(((QQ(3, 1), 1),)).matrix == ((3, 1),)


def test_morphism_validation():
    line = standard_skeleton(2, 1)
    with pytest.raises(ValueError, match="leaves the target"):
        Morphism(IntegerLinearMap(((1, 0), (0, 1))), rn_cycle(2), line)
    Morphism(identity_map(2), line, line)
    with pytest.raises(ValueError, match="matrix width"):
        Morphism(map_f1(), rn_cycle(3), rn_cycle(1))


def test_pullback_of_affine_is_affine():
    f = Morphism(map_f1(), pushforward_fan(), rn_cycle(1))
    back = pull_back(f, TropicalPolynomial((AffineForm((3,), 1),)))
    rep = pl_rep(back)
    assert len(rep.terms) == 1
    assert rep.terms[0].linear == (3, 3) and rep.terms[0].constant == 1


def test_pullback_composes_terms():
    f = Morphism(IntegerLinearMap(((2,),)), rn_cycle(1), rn_cycle(1))
    back = pull_back(f, max_x_zero())
    rep = pl_rep(back)
    assert {t.linear for t in rep.terms} == {(2,), (0,)}
    div = weil_divisor(back, rn_cycle(1))
    assert div.complex.weights == (2,)
    assert div.complex.cells[0].same_set(point_cell((0,)))


def test_pullback_additive():
    f = Morphism(map_f1(), pushforward_fan(), rn_cycle(1))
    phi, psi = max_x_zero(), TropicalPolynomial((AffineForm((2,), 0),))
    lhs = pull_back(f, pl_add(phi, psi))
    rhs = pl_add(pull_back(f, phi), pull_back(f, psi))
    assert divisors_equal(lhs, rhs, pushforward_fan())


def test_projection_formula_suite():
    # Five (map, cycle, function) triples, two with non-injective maps.
    triples = []
    line1 = rn_cycle(1)
    triples.append(Morphism(identity_map(2), standard_skeleton(2, 1),
                            standard_skeleton(2, 1)))
    phis = [TropicalPolynomial((AffineForm((1, 0), 0), AffineForm((0, 0), 0))),
            max_x_zero(1), max_x_zero(1), max_x_zero(1), max_x_zero(1)]
    f_id = triples[0]
    assert check_projection_formula(f_id, standard_skeleton(2, 1), phis[0])

    pi = Morphism(projection_map(1), diagonal_line(1), line1)
    assert check_projection_formula(pi, diagonal_line(1), phis[1])

    f1 = Morphism(map_f1(), pushforward_fan(), line1)
    assert check_projection_formula(f1, pushforward_fan(), phis[2])

    f2 = Morphism(map_f2(), pushforward_fan(), line1)  # collapses a ray
    assert check_projection_formula(f2, pushforward_fan(), phis[3])

    dbl = Morphism(IntegerLinearMap(((2,),)), line1, line1)
    assert check_projection_formula(dbl, line1, phis[4])


def test_projection_formula_both_sides_origin():
    # Projection of the diagonal against max{x, 0}: both sides are a single
    # point of weight one at the origin.
    pi = Morphism(projection_map(1), diagonal_line(1), rn_cycle(1))
    lhs = weil_divisor(max_x_zero(1), push_forward(pi))
    assert lhs.complex.weights == (1,)
    assert lhs.complex.cells[0].same_set(point_cell((0,)))
    rhs = push_forward(pi, weil_divisor(pull_back(pi, max_x_zero(1)), diagonal_line(1)))
    assert cycles_equal(lhs, rhs)


def test_pushforward_of_pinwheel_projection():
    # Two rays collapse to points, the remaining edges and rays tile the
    # line with overlaps; every piece ends up with weight two.
    from tropint.library import pinwheel_curve

    curve = pinwheel_curve()
    f = Morphism(IntegerLinearMap(((1, 0),)), curve, rn_cycle(1))
    out = push_forward(f)
    assert cycles_equal(out, scale(rn_cycle(1), 2))


def test_pushforward_outputs_balanced():
    fan = pushforward_fan()
    for m in (map_f1(), map_f2()):
        out = push_forward(Morphism(m, fan, rn_cycle(1)))
        assert is_balanced(out.complex).balanced
    skew = IntegerLinearMap(((1, 0), (1, 2)))
    out = push_forward(Morphism(skew, standard_skeleton(2, 1), rn_cycle(2)))
    assert is_balanced(out.complex).balanced
