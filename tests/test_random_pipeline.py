"""Seeded randomized cross-checks of the whole pipeline.

Divisors of max-polynomials supported on the full degree-d simplex are
plane curves of degree d: that number is known independently of the
stable-intersection machinery, so comparing it against the diagonal
pipeline exercises products, push-forwards and divisors end to end.  Sums,
differences and push-forwards of such curves, with constants over 60 as
in the bench, must be valid complexes.  On such curves and primitive
covectors the laws hold: the projection formula, balanced push-forwards,
sums that serialize to the same bytes in either order, and documents that
parse and serialize back to themselves.
"""

import random
from fractions import Fraction
from math import gcd

from tropint.cycles import add, cycles_equal, is_balanced, negate, rn_cycle, validate_complex
from tropint.divisors import TropicalPolynomial, weil_divisor
from tropint.documents import parse_document, serialize_document
from tropint.morphisms import IntegerLinearMap, Morphism, check_projection_formula, push_forward
from tropint.polyhedra import AffineForm
from tropint.rn_products import bezout_check, degree, is_pn_generic, stable_intersect


def random_plane_curve(rng, d, denominator=1):
    """Divisor of a random polynomial with full degree-d simplex support.

    Coefficients are kept small and distinct-ish, and are integers over the
    given denominator; the support guarantees rays only in the three
    standard directions, so the curve has degree d and is generic
    regardless of the coefficients.
    """
    terms = []
    for i in range(d + 1):
        for j in range(d + 1 - i):
            c = Fraction(rng.randint(-3 * denominator, 3 * denominator), denominator)
            terms.append(AffineForm((i, j), c))
    return weil_divisor(TropicalPolynomial(tuple(terms)), rn_cycle(2))


def random_covector(rng):
    """A random primitive covector R^2 -> R."""
    while True:
        covector = (rng.randint(-3, 3), rng.randint(-3, 3))
        if gcd(*covector) == 1:
            return covector


def test_random_curve_degrees_match_newton_polygon():
    rng = random.Random(1729)
    for trial, d in [(0, 1), (1, 1), (2, 2), (3, 2), (4, 3)]:
        curve = random_plane_curve(rng, d)
        assert is_balanced(curve.complex).balanced, trial
        assert validate_complex(curve.complex).valid, trial
        assert is_pn_generic(curve), trial
        assert degree(curve) == d, trial


def test_random_bezout_products():
    rng = random.Random(23)
    a = random_plane_curve(rng, 1)
    b = random_plane_curve(rng, 2)
    report = bezout_check(a, b)
    assert report.passed and report.degree_product == 2
    report = bezout_check(a, a)
    assert report.passed and report.degree_product == 1


def test_random_products_commute_and_balance():
    rng = random.Random(5150)
    curves = [random_plane_curve(rng, 1) for _ in range(3)]
    for i in range(len(curves)):
        for j in range(i, len(curves)):
            lhs = stable_intersect(curves[i], curves[j])
            rhs = stable_intersect(curves[j], curves[i])
            assert cycles_equal(lhs, rhs)
            assert is_balanced(lhs.complex).balanced
            assert degree(lhs) == 1


def test_sums_and_push_forwards_of_curves_are_valid():
    # Every edge of these outputs is cut and read from the interval of its
    # free variable.
    rng = random.Random(60)
    for trial in range(8):
        a, b = (random_plane_curve(rng, rng.randint(1, 3), 60) for _ in range(2))
        pushed = push_forward(Morphism(IntegerLinearMap((random_covector(rng),)), a, rn_cycle(1)))
        for name, out in (("a + b", add(a, b)), ("a - b", add(a, negate(b))),
                          ("push", pushed)):
            assert validate_complex(out.complex).valid, (trial, name)


def test_laws_on_generated_curves():
    # Every sum, equality and push-forward here refines cells of dimension
    # one.  The function on R^1 has breakpoints near the images of the
    # vertices, so its pull-back cuts edges as well as rays.
    rng = random.Random(909)
    for trial in range(25):
        a, b = (random_plane_curve(rng, rng.randint(1, 3), 60) for _ in range(2))
        f = Morphism(IntegerLinearMap((random_covector(rng),)), a, rn_cycle(1))
        phi = TropicalPolynomial((AffineForm((-1,), Fraction(rng.randint(-360, 0), 60)),
                                  AffineForm((0,), 0),
                                  AffineForm((1,), Fraction(rng.randint(-360, 0), 60))))
        assert check_projection_formula(f, a, phi), trial
        pushed = push_forward(f)
        assert is_balanced(pushed.complex).balanced, trial
        total = serialize_document(add(a, b))
        assert serialize_document(add(b, a)) == total, trial
        for c in (a, pushed):
            text = serialize_document(c)
            assert serialize_document(parse_document(text)) == text, trial
        assert serialize_document(parse_document(total)) == total, trial
