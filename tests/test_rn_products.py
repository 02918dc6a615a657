import pytest
from oracles import (
    bump_function_on_r1,
    diagonal_stable_intersect,
    origin_cycle,
    projection_map,
    relative_interior_contains,
    tent_function_on_line,
    translation_invariance_check,
)

from tropint import rn_products
from tropint.cycles import (
    Cycle,
    WeightedComplex,
    add,
    cartesian_product,
    cycles_equal,
    is_balanced,
    rn_cycle,
    scale,
    standard_skeleton,
    translate,
)
from tropint.divisors import (
    CartierDivisor,
    TropicalPolynomial,
    divisor_chain,
    weil_divisor,
)
from tropint.kernel import QQ
from tropint.library import (
    conic_curve,
    diagonal_line,
    hyperplane_polynomial,
    pinwheel_curve,
    sawtooth_function,
)
from tropint.morphisms import pull_back
from tropint.rn_products import (
    bezout_check,
    degree,
    degree_zero_check,
    diagonal_cycle,
    diagonal_divisors,
    is_pn_generic,
    stable_intersect,
)
from tropint.polyhedra import AffineForm, Cell, cone_from_rays, point_cell, refine_cell


def line():
    return standard_skeleton(2, 1)


def test_diagonal_cycle_small_dims():
    for n in (1, 2, 3):
        d = diagonal_cycle(n)
        assert d.ambient_dim == 2 * n and d.dim == n
        assert cycles_equal(d, diagonal_line(n))


def test_diagonal_cycle_raises_runtime_error_on_wrong_divisors(monkeypatch):
    # With the first divisor repeated, the chain cuts out {x_1 = y_1}
    # instead of the diagonal; the check must survive `python -O`.
    import tropint.rn_products as rn_products

    monkeypatch.setattr(rn_products, "diagonal_divisors",
                        lambda n: [diagonal_divisors(n)[0]] * n)
    with pytest.raises(RuntimeError, match="diagonal"):
        diagonal_cycle(2)


def test_diagonal_intermediate_cuts():
    # Cutting R^2 x C with the second diagonal divisor constrains exactly
    # the second coordinate pair: the result is represented by the cells
    # (R^2 x sigma) & {x_2 = y_2} with unchanged weights.
    from tropint.polyhedra import intersect, product_cell

    c = line()
    prod = cartesian_product(rn_cycle(2), c)
    psi2 = diagonal_divisors(2)[1]
    cut = weil_divisor(psi2, prod)
    assert cut.dim == 2
    assert set(cut.complex.weights) == {1}
    for cell in cut.complex.cells:
        p = cell.interior_point
        assert p[1] == p[3]
    wall = Cell.from_constraints(4, eqs=[AffineForm((0, 1, 0, -1), 0)])
    explicit_cells = [intersect(product_cell(Cell.full_space(2), sigma), wall)
                      for sigma in c.complex.cells]
    explicit = Cycle(WeightedComplex(4, 2, explicit_cells, c.complex.weights),
                     check=False)
    assert cycles_equal(cut, explicit)


def test_rn_times_c_equals_c():
    samples = [line(), translate(line(), (1, 2)), conic_curve(),
               scale(line(), 2), origin_cycle(2, 3)]
    for c in samples:
        assert cycles_equal(stable_intersect(rn_cycle(2), c), c)
    assert cycles_equal(stable_intersect(rn_cycle(1), rn_cycle(1)), rn_cycle(1))


def test_line_self_intersection_is_origin():
    z = stable_intersect(line(), line())
    points = [(cell.interior_point, w) for cell, w in zip(z.complex.cells, z.complex.weights)]
    assert sum(w for _, w in points) == 1
    assert len(points) == 1 and points[0][0] == (0, 0)


def test_stable_intersection_below_zero_dim_is_empty():
    z = stable_intersect(line(), origin_cycle(2))
    assert z.is_empty


def test_stable_intersection_commutes():
    pairs = [
        (line(), translate(line(), (1, 1))),
        (line(), conic_curve()),
        (rn_cycle(2), line()),
        (origin_cycle(2, 2), rn_cycle(2)),
    ]
    for c, d in pairs:
        assert cycles_equal(stable_intersect(c, d), stable_intersect(d, c))


def test_stable_intersection_distributes():
    c1, c2 = line(), translate(line(), (2, 1))
    d = translate(line(), (1, -1))
    lhs = stable_intersect(add(c1, c2), d)
    rhs = add(stable_intersect(c1, d), stable_intersect(c2, d))
    assert cycles_equal(lhs, rhs)


def test_stable_intersection_associates():
    a, b, c = rn_cycle(2), line(), translate(line(), (1, 3))
    lhs = stable_intersect(stable_intersect(a, b), c)
    rhs = stable_intersect(a, stable_intersect(b, c))
    assert cycles_equal(lhs, rhs)


def test_product_outputs_balanced():
    z = stable_intersect(line(), translate(line(), (1, 0)))
    assert is_balanced(z.complex).balanced
    z2 = stable_intersect(conic_curve(), line())
    assert is_balanced(z2.complex).balanced


def test_pipeline_outputs_are_valid_complexes():
    from tropint.cycles import validate_complex

    assert validate_complex(conic_curve().complex).valid
    assert validate_complex(stable_intersect(rn_cycle(2), conic_curve()).complex).valid
    assert validate_complex(
        stable_intersect(line(), translate(line(), (1, 1))).complex).valid


def test_degree_of_skeleta():
    for n in (1, 2, 3):
        for k in range(n + 1):
            assert degree(standard_skeleton(n, k)) == 1, (n, k)


def test_degree_of_zero_cycles_and_sums():
    pts = Cycle(WeightedComplex(2, 0, [point_cell((1, 1)), point_cell((0, 3))], [2, 3]),
                check=False)
    assert degree(pts) == 5
    assert sum(pts.complex.weights) == 5
    assert degree(add(line(), translate(line(), (1, 1)))) == degree(line()) * 2


def test_degree_translation_invariant():
    for v in [(1, 0), (QQ(-1, 2), QQ(3, 2)), (10, 7)]:
        assert degree(translate(line(), v)) == 1
        assert degree(translate(conic_curve(), v)) == 2


def test_pn_generic():
    assert is_pn_generic(line())
    assert is_pn_generic(translate(line(), (QQ(5, 3), -2)))
    assert is_pn_generic(conic_curve())
    assert is_pn_generic(rn_cycle(2))
    skew = Cycle(WeightedComplex(2, 1, [
        cone_from_rays([(1, 2)], 2),
        cone_from_rays([(-1, 0)], 2),
        cone_from_rays([(0, -1)], 2)], [1, 1, 2]), check=False)
    assert is_balanced(skew.complex).balanced
    assert not is_pn_generic(skew)
    # Rays in the directions e_1 and e_2 fit no standard cone.
    assert not is_pn_generic(pinwheel_curve())


def test_bezout_line_conic():
    r = bezout_check(line(), line())
    assert (r.degree_first, r.degree_second, r.degree_product) == (1, 1, 1)
    assert r.passed
    r = bezout_check(conic_curve(), line())
    assert r.degree_product == 2 and r.passed
    r = bezout_check(conic_curve(), conic_curve())
    assert r.degree_product == 4 and r.passed


def test_bezout_not_applicable_for_nongeneric():
    skew = Cycle(WeightedComplex(2, 1, [
        cone_from_rays([(1, 2)], 2),
        cone_from_rays([(-1, 0)], 2),
        cone_from_rays([(0, -1)], 2)], [1, 1, 2]), check=False)
    r = bezout_check(skew, line())
    assert not r.applicable and not r.passed


def test_degree_zero_for_bounded_functions():
    assert degree_zero_check(bump_function_on_r1(), rn_cycle(1))
    assert degree_zero_check(tent_function_on_line(), line())
    assert degree_zero_check(sawtooth_function(), pinwheel_curve())
    with pytest.raises(ValueError, match="unbounded"):
        degree_zero_check(hyperplane_polynomial(2), line())


def test_translation_invariance_check():
    assert translation_invariance_check(line(), line(), (0, 0), (0, 0))
    assert translation_invariance_check(line(), line(), (3, 1), (-1, QQ(1, 2)))
    assert translation_invariance_check(conic_curve(), line(), (1, 2), (0, -1))


def test_randomized_displacement_cross_check():
    # Move one factor far away by a random integer vector until the two
    # supports meet transversally (each intersection point interior to a
    # facet of both sides); the degree of the product must not change.
    import random

    rng = random.Random(331)
    for c, d in [(line(), line()), (conic_curve(), line())]:
        base = degree(stable_intersect(c, d))
        for attempt in range(5):
            v = (rng.choice([-1, 1]) * rng.randint(10, 100),
                 rng.choice([-1, 1]) * rng.randint(10, 100))
            moved = translate(c, v)
            z = stable_intersect(moved, d)
            pts = [cell.interior_point for cell in z.complex.cells]
            transversal = all(
                any(relative_interior_contains(f, p) for f in moved.complex.cells)
                and any(relative_interior_contains(f, p) for f in d.complex.cells)
                for p in pts)
            if transversal:
                break
        else:
            raise AssertionError("no transversal displacement found in 5 tries")
        assert degree(z) == base


def test_product_with_cartier_divisor_expression():
    # A cycle expressible as a divisor chain intersects like the chain acts.
    h = hyperplane_polynomial(2)
    c = weil_divisor(h, rn_cycle(2))
    d = translate(line(), (1, 2))
    assert cycles_equal(stable_intersect(c, d), weil_divisor(h, d))


def test_divisor_slides_through_products():
    h = hyperplane_polynomial(2)
    c, d = rn_cycle(2), translate(line(), (1, 1))
    lhs = stable_intersect(weil_divisor(h, c), d)
    rhs = weil_divisor(h, stable_intersect(c, d))
    assert cycles_equal(lhs, rhs)


def test_divisor_product_compatible_with_cartesian_product():
    # (phi . C) x D agrees with (pulled-back phi) . (C x D).
    from tropint.morphisms import IntegerLinearMap

    h = hyperplane_polynomial(2)
    c, d = rn_cycle(2), rn_cycle(1)
    lhs = cartesian_product(weil_divisor(h, c), d)
    first_factor = IntegerLinearMap(((1, 0, 0), (0, 1, 0)))
    rhs = weil_divisor(pull_back(first_factor, h), cartesian_product(c, d))
    assert cycles_equal(lhs, rhs)


def test_diagonal_divisor_choice_does_not_matter():
    n = 2
    flipped = []
    for i in range(n):
        lin = tuple(-1 if j == i else (1 if j == n + i else 0) for j in range(2 * n))
        flipped.append(CartierDivisor(TropicalPolynomial((
            AffineForm((0,) * 2 * n, 0), AffineForm(lin, 0)))))
    c, d = line(), translate(line(), (1, 1))
    prod = cartesian_product(c, d)
    from tropint.morphisms import Morphism, push_forward
    cut = divisor_chain(flipped, prod)
    alt = push_forward(Morphism(projection_map(n), cut, rn_cycle(n)))
    assert cycles_equal(alt, stable_intersect(c, d))


def test_span_index_once_per_pair_of_lattices(monkeypatch):
    # In complementary and in excess dimension the index is read from the
    # lattices' record, built once per pair of lattices.  The second cycle
    # is L32, the 2-skeleton of R^3, with the cones along e_1 cut at x_1 = 1,
    # so that its lattices repeat.
    pairs = []
    real = rn_products._Inverse.of

    def recording(n, sigma_basis, tau_basis):
        pairs.append((sigma_basis, tau_basis))
        return real(n, sigma_basis, tau_basis)

    cut = AffineForm((1, 0, 0), -1)
    cones = [piece for cone in standard_skeleton(3, 2).complex.cells
             for piece, _ in refine_cell(cone, [cut])]
    for c in (conic_curve(), Cycle(WeightedComplex(3, 2, cones, [1] * len(cones)))):
        pairs.clear()
        monkeypatch.setattr(rn_products._Inverse, "of", recording)
        got = stable_intersect(c, c)
        assert pairs and len(pairs) == len(set(pairs))
        assert len(pairs) < len(c.complex.cells) ** 2
        monkeypatch.undo()
        assert cycles_equal(got, diagonal_stable_intersect(c, c))
