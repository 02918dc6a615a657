"""Acceptance criteria for the cycle calculus, one test per criterion.

Every comparison is exact (integer weights, rational coordinates); there
are no tolerances anywhere.  Each criterion prints a single PASS/FAIL line;
run with `pytest tests/test_acceptance.py -v -s` to see them.
"""

import random
from contextlib import contextmanager

from oracles import (
    bump_function_on_r1,
    count_lattice_points_in_parallelepiped,
    identity_map,
    origin_cycle,
    projection_map,
    reference_coordinates,
    refine_complex,
    tent_function_on_line,
    weight_of,
)

from tropint.cycles import (
    Cycle,
    add,
    cycles_equal,
    is_balanced,
    rn_cycle,
    scale,
    standard_skeleton,
    translate,
)
from tropint.divisors import (
    TropicalPolynomial,
    divisor_chain,
    weil_divisor,
    weil_divisor_complex,
)
from tropint.kernel import QQ, lattice_index, mat_rank, mat_vec, subspace_lattice
from tropint.library import (
    conic_curve,
    diagonal_line,
    hyperplane_polynomial,
    map_f1,
    map_f2,
    pinwheel_curve,
    pushforward_fan,
    rigid_curve,
    rigid_function,
    rigid_surface,
    sawtooth_function,
)
from tropint.morphisms import (
    IntegerLinearMap,
    Morphism,
    check_projection_formula,
    push_forward,
)
from tropint.polyhedra import AffineForm, Cell, cone_from_rays, point_cell
from tropint.rn_products import (
    bezout_check,
    degree_zero_check,
    diagonal_cycle,
    stable_intersect,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def line(v=None):
    base = standard_skeleton(2, 1)
    return base if v is None else translate(base, v)


def test_criterion_1_hyperplane_self_intersection():
    with criterion(1, "hyperplane self-intersection"):
        for n in (1, 2, 3):
            h = hyperplane_polynomial(n)
            for k in range(1, n + 1):
                result = divisor_chain([h] * k, rn_cycle(n))
                assert cycles_equal(result, standard_skeleton(n, n - k)), (n, k)
                assert set(result.complex.weights) == {1}, (n, k)


def test_criterion_2_rigid_curve():
    with criterion(2, "rigid curve"):
        phi, surface = rigid_function(), rigid_surface()
        full = weil_divisor_complex(phi, surface)
        assert weight_of(full, cone_from_rays([(1, 1, 0)], 3)) == 1
        assert weight_of(full, cone_from_rays([(-1, -1, 0)], 3)) == 1
        for direction in [(1, 1, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]:
            assert weight_of(full, cone_from_rays([direction], 3)) == 0, direction
        first = weil_divisor(phi, surface)
        assert cycles_equal(first, rigid_curve())
        second = weil_divisor(phi, first)
        assert len(second.complex.cells) == 1
        assert second.complex.cells[0].same_set(point_cell((0, 0, 0)))
        assert second.complex.weights == (-1,)
        assert cycles_equal(second, divisor_chain([phi, phi], surface))


def test_criterion_3_pushforward_example():
    with criterion(3, "push-forward weights"):
        fan = pushforward_fan()
        target = rn_cycle(1)
        pos = Cell.from_constraints(1, [AffineForm((1,), 0)])
        neg = Cell.from_constraints(1, [AffineForm((-1,), 0)])
        out1 = push_forward(Morphism(map_f1(), fan, target))
        assert weight_of(out1.complex, pos) == 2
        assert weight_of(out1.complex, neg) == 2
        out2 = push_forward(Morphism(map_f2(), fan, target))
        assert weight_of(out2.complex, pos) == 1
        assert weight_of(out2.complex, neg) == 1


def cycle_library_r2():
    return [
        line(),
        line((1, 2)),
        scale(line(), 2),
        conic_curve(),
        add(line(), line((2, -1))),
        origin_cycle(2, 3),
        rn_cycle(2),
    ]


def test_criterion_4_identity_of_ambient_cycle():
    with criterion(4, "R^n . C = C"):
        for c in [rn_cycle(1), scale(rn_cycle(1), 2), origin_cycle(1, 2),
                  translate(origin_cycle(1), (QQ(1, 2),)),
                  add(origin_cycle(1), translate(origin_cycle(1), (3,)))]:
            assert cycles_equal(stable_intersect(rn_cycle(1), c), c)
        for c in cycle_library_r2():
            assert cycles_equal(stable_intersect(rn_cycle(2), c), c)


def test_criterion_5_product_laws():
    with criterion(5, "intersection product laws"):
        pairs = [
            (line(), line((1, 1))),
            (line(), line((2, -1))),
            (line((0, 1)), scale(line(), 2)),
            (line(), conic_curve()),
            (rn_cycle(2), line()),
            (rn_cycle(2), conic_curve()),
            (rn_cycle(2), origin_cycle(2, 2)),
            (add(line(), line((1, 0))), line((0, 2))),
            (scale(rn_cycle(2), 3), line((1, 1))),
            (line((3, 3)), origin_cycle(2)),
            (rn_cycle(2), rn_cycle(2)),
        ]
        assert len(pairs) >= 10
        for c, d in pairs:
            assert cycles_equal(stable_intersect(c, d), stable_intersect(d, c))
        distributive = [
            (line(), line((1, 1)), line((1, -1))),
            (line(), line((2, 0)), line((0, 2))),
            (line((1, 0)), scale(line(), 2), line((0, 1))),
            (rn_cycle(2), scale(rn_cycle(2), 2), line()),
            (line(), conic_curve(), line((1, 2))),
            (origin_cycle(2), translate(origin_cycle(2), (1, 1)), rn_cycle(2)),
            (rn_cycle(2), rn_cycle(2), line((0, 1))),
            (line((0, 1)), line((1, 0)), rn_cycle(2)),
            (scale(line(), -1), line(), line((1, 1))),
            (line((2, 2)), line((-1, -1)), line()),
        ]
        assert len(distributive) >= 10
        for c, cp, d in distributive:
            lhs = stable_intersect(add(c, cp), d)
            rhs = add(stable_intersect(c, d), stable_intersect(cp, d))
            assert cycles_equal(lhs, rhs)
        triples = [
            (rn_cycle(2), line(), line((1, 1))),
            (rn_cycle(2), rn_cycle(2), conic_curve()),
            (scale(rn_cycle(2), 2), line((1, 0)), line((0, 1))),
            (line(), line((1, 2)), rn_cycle(2)),
        ]
        for a, b, c in triples:
            lhs = stable_intersect(stable_intersect(a, b), c)
            rhs = stable_intersect(a, stable_intersect(b, c))
            assert cycles_equal(lhs, rhs)


def test_criterion_6_bezout():
    with criterion(6, "Bezout degrees"):
        expectations = [
            (line(), line((1, 1)), 1, 1, 1),
            (conic_curve(), line(), 2, 1, 2),
            (conic_curve(), conic_curve(), 2, 2, 4),
        ]
        for c, d, dc, dd, dp in expectations:
            report = bezout_check(c, d)
            assert report.applicable
            assert (report.degree_first, report.degree_second) == (dc, dd)
            assert report.degree_product == dp
            assert report.passed


def test_criterion_7_degree_zero_of_bounded_functions():
    with criterion(7, "bounded functions have degree-zero divisors"):
        cases = [
            (bump_function_on_r1(), rn_cycle(1)),
            (tent_function_on_line(), standard_skeleton(2, 1)),
            (sawtooth_function(), pinwheel_curve()),
        ]
        assert len(cases) >= 3 and len({id(c) for _, c in cases}) >= 2
        for phi, c in cases:
            assert degree_zero_check(phi, c)


def test_criterion_8_projection_formula():
    with criterion(8, "projection formula"):
        max_x0 = TropicalPolynomial((AffineForm((1,), 0), AffineForm((0,), 0)))
        kink2d = TropicalPolynomial((AffineForm((1, 0), 0), AffineForm((0, 0), 0)))
        cases = [
            (Morphism(identity_map(2), line(), line()), line(), kink2d),
            (Morphism(projection_map(1), diagonal_line(1), rn_cycle(1)),
             diagonal_line(1), max_x0),
            (Morphism(map_f1(), pushforward_fan(), rn_cycle(1)),
             pushforward_fan(), max_x0),
            # map_f2 collapses the ray through e_2: not injective there.
            (Morphism(map_f2(), pushforward_fan(), rn_cycle(1)),
             pushforward_fan(), max_x0),
            (Morphism(IntegerLinearMap(((2,),)), rn_cycle(1), rn_cycle(1)),
             rn_cycle(1), max_x0),
        ]
        assert len(cases) >= 5
        for f, e, phi in cases:
            assert check_projection_formula(f, e, phi)


def test_criterion_9_property_suites():
    with criterion(9, "property suites"):
        # Balancing of every divisor, push-forward and product output.
        outputs = []
        h2 = hyperplane_polynomial(2)
        outputs.append(weil_divisor(h2, rn_cycle(2)))
        outputs.append(weil_divisor(rigid_function(), rigid_surface()))
        outputs.append(weil_divisor(sawtooth_function(), pinwheel_curve()))
        outputs.append(push_forward(Morphism(map_f1(), pushforward_fan(), rn_cycle(1))))
        outputs.append(push_forward(Morphism(map_f2(), pushforward_fan(), rn_cycle(1))))
        outputs.append(stable_intersect(line(), line((1, 1))))
        outputs.append(stable_intersect(conic_curve(), line()))
        outputs.append(stable_intersect(rn_cycle(2), conic_curve()))
        for out in outputs:
            assert is_balanced(out.complex).balanced

        # Divisors of affine functions vanish.
        for c in (rn_cycle(2), line(), pinwheel_curve()):
            assert weil_divisor(TropicalPolynomial((AffineForm((1, -2), QQ(3, 4)),)), c).is_empty

        # Commutativity of divisor chains on ten function pairs.
        psi_a = TropicalPolynomial((AffineForm((0, 0), 0), AffineForm((1, -1), 0)))
        psi_b = TropicalPolynomial((AffineForm((0, 0), 0), AffineForm((1, 1), -1)))
        psi_c = TropicalPolynomial((AffineForm((0, 0), 0), AffineForm((0, 1), 0)))
        psi_d = TropicalPolynomial((AffineForm((1, 0), 0), AffineForm((0, 1), 0)))
        pool = [h2, psi_a, psi_b, psi_c, psi_d]
        pairs = [(f, g) for i, f in enumerate(pool) for g in pool[i + 1:]]
        assert len(pairs) >= 10
        for f, g in pairs:
            lhs = weil_divisor(g, weil_divisor(f, rn_cycle(2)))
            rhs = weil_divisor(f, weil_divisor(g, rn_cycle(2)))
            assert cycles_equal(lhs, rhs)

        # Refinement invariance of the divisor on five refined inputs.
        from tropint.polyhedra import collect_hyperplanes

        cases = [
            (h2, rn_cycle(2), (AffineForm((1, 0), -1),)),
            (h2, rn_cycle(2), (AffineForm((0, 1), 2), AffineForm((1, 1), 0))),
            (h2, line(), (AffineForm((1, 0), -3),)),
            (psi_a, rn_cycle(2), (AffineForm((1, 1), -1),)),
            (sawtooth_function(), pinwheel_curve(), (AffineForm((1, 0), 0),)),
        ]
        for phi, c, extra in cases:
            forms = collect_hyperplanes(c.complex.cells) + extra
            refined = Cycle(refine_complex(c.complex, forms), check=False)
            assert cycles_equal(weil_divisor(phi, c), weil_divisor(phi, refined))

        # Lattice indices versus the fundamental-domain point count.
        rng = random.Random(90125)
        done = 0
        while done < 200:
            n = rng.randint(1, 3)
            m = rng.randint(1, 3)
            r = rng.randint(1, min(2, n))
            vecs = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(r)]
            if mat_rank(vecs) != r:
                continue
            f = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(m))
            imgs = [mat_vec(f, v) for v in vecs]
            if mat_rank(imgs) != r:
                continue
            source = subspace_lattice(vecs, n)
            target = subspace_lattice(imgs, m)
            idx = lattice_index(f, source, target)
            coords = [reference_coordinates(target, mat_vec(f, b)) for b in source.vectors]
            assert count_lattice_points_in_parallelepiped(coords) == idx
            done += 1


def test_criterion_10_diagonal():
    with criterion(10, "diagonal as a divisor product"):
        for n in (1, 2, 3):
            d = diagonal_cycle(n)
            assert cycles_equal(d, diagonal_line(n))
            assert set(d.complex.weights) == {1}
