import pytest
from oracles import (
    bump_function_on_r1,
    divisors_equal,
    pl_add,
    pl_negate,
    pl_scale,
    tent_function_on_line,
    weight_of,
)

from tropint.cycles import (
    Cycle,
    WeightedComplex,
    cycles_equal,
    is_balanced,
    rn_cycle,
    standard_skeleton,
)
from tropint.divisors import (
    PiecewisePL,
    TropicalPolynomial,
    divisor_chain,
    graph_fan,
    is_bounded_on,
    linearize_many,
    pl_rep,
    weil_divisor,
    weil_divisor_complex,
)
from tropint.kernel import QQ
from tropint.library import (
    hyperplane_polynomial,
    pinwheel_curve,
    rigid_curve,
    rigid_function,
    rigid_surface,
    sawtooth_function,
)
from tropint.polyhedra import AffineForm, cone_from_rays, point_cell


def test_pl_values():
    h = hyperplane_polynomial(2)
    assert pl_rep(h).value((0, 0)) == 0
    assert pl_rep(h).value((3, 1)) == 3
    assert pl_rep(h).value((-1, -5)) == 0
    saw = sawtooth_function()
    assert pl_rep(saw).value((1, 0)) == 0
    assert pl_rep(saw).value((0, 1)) == 1
    assert pl_rep(saw).value((QQ(1, 2), QQ(1, 2))) == QQ(1, 2)
    assert pl_rep(saw).value((0, 10)) == 1


def test_linearize_affine_keeps_complex():
    line = standard_skeleton(2, 1)
    refined, (forms,) = linearize_many([TropicalPolynomial((AffineForm((1, 1), 5),))], line.complex)
    assert len(refined.cells) == len(line.complex.cells)
    assert all(f.linear == (1, 1) for f in forms)


def test_linearize_hyperplane_polynomial_on_plane():
    refined, (forms,) = linearize_many([hyperplane_polynomial(2)], rn_cycle(2).complex)
    assert len(refined.cells) == 3
    assert {f.linear for f in forms} == {(0, 0), (1, 0), (0, 1)}


def test_linearize_diagonal_split():
    psi = TropicalPolynomial((AffineForm((0, 0), 0), AffineForm((1, -1), 0)))
    refined, (forms,) = linearize_many([psi], rn_cycle(2).complex)
    assert len(refined.cells) == 2


def test_linearize_undefined_domain_errors():
    half = PiecewisePL(((cone_from_rays([(1, 0), (0, 1)], 2), AffineForm((0, 0), 0)),))
    with pytest.raises(ValueError, match="undefined"):
        linearize_many([half], rn_cycle(2).complex)


def test_hyperplane_divisor_on_plane():
    h = hyperplane_polynomial(2)
    div = weil_divisor(h, rn_cycle(2))
    assert cycles_equal(div, standard_skeleton(2, 1))
    assert is_balanced(div.complex).balanced


def test_hyperplane_chain_r3():
    h = hyperplane_polynomial(3)
    cur = rn_cycle(3)
    for k in (2, 1, 0):
        cur = weil_divisor(h, cur)
        assert cycles_equal(cur, standard_skeleton(3, k)), k
        assert is_balanced(cur.complex).balanced


def test_affine_divisor_is_zero():
    for cyc in (rn_cycle(2), standard_skeleton(2, 1), pinwheel_curve()):
        div = weil_divisor(TropicalPolynomial((AffineForm((2, -3), QQ(1, 7)),)), cyc)
        assert div.is_empty


def test_divisor_respects_refinement():
    from oracles import refine_complex
    from tropint.polyhedra import collect_hyperplanes

    h = hyperplane_polynomial(2)
    line = standard_skeleton(2, 1)
    forms = collect_hyperplanes(line.complex.cells) + (AffineForm((1, 0), -1),)
    refined = Cycle(refine_complex(line.complex, forms), check=False)
    a = weil_divisor(h, line)
    b = weil_divisor(h, refined)
    assert cycles_equal(a, b)


def test_rigid_function_cuts_out_curve():
    phi = rigid_function()
    surface = rigid_surface()
    full = weil_divisor_complex(phi, surface)
    # Weights on the split directions are 1, on the original rays 0.
    for rays, expected in [
        ([(1, 1, 0)], 1), ([(-1, -1, 0)], 1),
        ([(1, 1, 1)], 0), ([(-1, 0, 0)], 0), ([(0, -1, 0)], 0), ([(0, 0, -1)], 0),
    ]:
        assert weight_of(full, cone_from_rays(rays, 3)) == expected, rays
    div = weil_divisor(phi, surface)
    assert cycles_equal(div, rigid_curve())


def test_rigid_curve_self_intersection():
    phi = rigid_function()
    surface = rigid_surface()
    second = divisor_chain([phi, phi], surface)
    assert second.dim == 0
    assert len(second.complex.cells) == 1
    assert second.complex.cells[0].same_set(point_cell((0, 0, 0)))
    assert second.complex.weights == (-1,)


def test_divisor_chain_on_r3():
    h = hyperplane_polynomial(3)
    assert cycles_equal(divisor_chain([h, h], rn_cycle(3)), standard_skeleton(3, 1))
    with pytest.raises(ValueError):
        divisor_chain([h, h], standard_skeleton(3, 1))


def test_divisor_commutativity():
    h = hyperplane_polynomial(2)
    psi = TropicalPolynomial((AffineForm((0, 0), 0), AffineForm((1, -1), 0)))
    a = weil_divisor(psi, weil_divisor(h, rn_cycle(2)))
    b = weil_divisor(h, weil_divisor(psi, rn_cycle(2)))
    assert cycles_equal(a, b)


def test_divisor_additivity():
    h = hyperplane_polynomial(2)
    psi = TropicalPolynomial((AffineForm((0, 0), 0), AffineForm((1, -1), 0)))
    total = weil_divisor(pl_add(h, psi), rn_cycle(2))
    parts = weil_divisor(h, rn_cycle(2)) + weil_divisor(psi, rn_cycle(2))
    assert cycles_equal(total, parts)
    shifted = weil_divisor(pl_add(h, TropicalPolynomial((AffineForm((1, 2), 3),))), rn_cycle(2))
    assert cycles_equal(shifted, weil_divisor(h, rn_cycle(2)))


def test_graph_fan_of_max_x_zero():
    phi = TropicalPolynomial((AffineForm((1,), 0), AffineForm((0,), 0)))
    g = graph_fan(phi, rn_cycle(1))
    assert g.ambient_dim == 2 and g.dim == 1
    assert is_balanced(g.complex).balanced
    down = [(c, w) for c, w in zip(g.complex.cells, g.complex.weights)
            if c.same_set(cone_from_rays([(0, -1)], 2))]
    assert len(down) == 1 and down[0][1] == 1
    assert len(g.complex.cells) == 3


def test_graph_fan_matches_divisor_weights():
    # Downward walls of the graph project cell by cell onto the divisor.
    from oracles import linear_image_cell

    from tropint.cycles import validate_complex

    h = hyperplane_polynomial(2)
    g = graph_fan(h, rn_cycle(2))
    assert is_balanced(g.complex).balanced
    assert validate_complex(g.complex).valid
    div = weil_divisor_complex(h, rn_cycle(2))
    forget = ((1, 0, 0), (0, 1, 0))
    down = []
    for cell, w in zip(g.complex.cells, g.complex.weights):
        if cell.recession_cone().contains_point((0, 0, -1)):
            shadow = linear_image_cell(forget, cell)
            assert weight_of(div, shadow) == w
            down.append(w)
    assert down == [1, 1, 1]


def test_graph_of_affine_function_has_no_walls():
    g = graph_fan(TropicalPolynomial((AffineForm((2, 1), 0),)), rn_cycle(2))
    assert len(g.complex.cells) == 1


def test_graph_of_piecewise_function_on_surface():
    g = graph_fan(rigid_function(), rigid_surface())
    assert g.ambient_dim == 4 and g.dim == 2
    assert is_balanced(g.complex).balanced
    # Exactly the two walls over the rigid directions appear.
    walls = [c for c in g.complex.cells
             if c.recession_cone().contains_point((0, 0, 0, -1))]
    assert len(walls) == 2


def test_bounded_functions():
    assert is_bounded_on(bump_function_on_r1(), rn_cycle(1))
    assert not is_bounded_on(TropicalPolynomial((AffineForm((1,), 0),)), rn_cycle(1))
    assert is_bounded_on(TropicalPolynomial((AffineForm((0,), 5),)), rn_cycle(1))
    assert is_bounded_on(tent_function_on_line(), standard_skeleton(2, 1))
    assert is_bounded_on(sawtooth_function(), pinwheel_curve())
    assert not is_bounded_on(hyperplane_polynomial(2), standard_skeleton(2, 1))


def test_divisors_equal_modulo_affine():
    h = hyperplane_polynomial(2)
    shifted = pl_add(h, TropicalPolynomial((AffineForm((3, -1), QQ(2, 5)),)))
    plane = rn_cycle(2)
    assert divisors_equal(h, shifted, plane)
    assert divisors_equal(h, pl_add(h, TropicalPolynomial((AffineForm((0, 0), 1),))), plane)
    doubled = pl_scale(h, 2)
    assert not divisors_equal(h, doubled, plane)
    two_x = TropicalPolynomial((AffineForm((2,), 0), AffineForm((0,), 0)))
    one_x = TropicalPolynomial((AffineForm((1,), 0), AffineForm((0,), 0)))
    assert not divisors_equal(one_x, two_x, rn_cycle(1))


def test_divisors_equal_on_small_support():
    # On the x-axis in R^2 the covectors (1, 0) and (1, 5) restrict equally.
    axis = Cycle(WeightedComplex(
        2, 1, [cone_from_rays([(1, 0)], 2), cone_from_rays([(-1, 0)], 2)], [1, 1]),
        check=False)
    # Covectors differing off the support restrict to the same function.
    assert divisors_equal(TropicalPolynomial((AffineForm((1, 0), 0),)),
                          TropicalPolynomial((AffineForm((1, 5), 0),)), axis)
    kink1 = TropicalPolynomial((AffineForm((1, 0), 0), AffineForm((0, 0), 0)))
    kink2 = TropicalPolynomial((AffineForm((2, 0), 0), AffineForm((0, 0), 0)))
    assert not divisors_equal(kink1, kink2, axis)
    assert divisors_equal(kink1, pl_add(kink1, TropicalPolynomial((AffineForm((0, 7), 2),))), axis)


def test_pl_arithmetic():
    h = hyperplane_polynomial(1)
    s = pl_add(h, h)
    assert pl_rep(s).value((3,)) == 6 and pl_rep(s).value((-2,)) == 0
    neg = pl_negate(h)
    assert pl_rep(neg).value((3,)) == -3 and pl_rep(neg).value((-2,)) == 0
    bump = pl_add(h, pl_negate(TropicalPolynomial((AffineForm((1,), -1), AffineForm((0,), 0)))))
    for x, v in [(-5, 0), (0, 0), (QQ(1, 2), QQ(1, 2)), (1, 1), (7, 1)]:
        assert pl_rep(bump).value((x,)) == v
    tripled = pl_scale(h, 3)
    assert pl_rep(tripled).value((2,)) == 6


def test_divisor_weights_independent_of_normal_representative():
    # Recompute every ridge weight with normal representatives shifted by
    # ridge-lattice vectors; the formula must not notice.
    from tropint.cycles import normal_vector
    from tropint.kernel import dot, vec_add, vec_scale

    for phi, cyc in [
        (hyperplane_polynomial(2), rn_cycle(2)),
        (rigid_function(), rigid_surface()),
        (sawtooth_function(), pinwheel_curve()),
    ]:
        reference = weil_divisor_complex(phi, cyc)
        cx, (forms,) = linearize_many([phi], cyc.reduce().complex)
        cx = WeightedComplex(cx.ambient_dim, cx.dim,
                             [c.canonical_cell() for c in cx.cells], cx.weights)
        n = cx.ambient_dim
        recomputed = {}
        for ridge, idxs, _ in cx.ridges():
            shift_pool = ridge.direction_lattice.vectors or ((0,) * n,)
            s = (0,) * n
            acc = 0
            for pick, i in enumerate(idxs):
                v = normal_vector(cx.cells[i], ridge).representative
                w = shift_pool[pick % len(shift_pool)]
                v = vec_add(v, vec_scale(1 + pick, w))
                s = vec_add(s, vec_scale(cx.weights[i], v))
                acc += cx.weights[i] * dot(forms[i].linear, v)
            acc -= dot(forms[idxs[0]].linear, s)
            recomputed[ridge.canonical_key] = acc
        for cell, w in zip(reference.cells, reference.weights):
            assert recomputed[cell.canonical_key] == w


def test_divisor_outputs_balanced_for_piecewise():
    saw = sawtooth_function()
    div = weil_divisor(saw, pinwheel_curve())
    assert is_balanced(div.complex).balanced
    weights = sorted(div.complex.weights)
    assert weights == [-2, -2, 2, 2]
    assert sum(div.complex.weights) == 0
