"""Genericity and boundedness are decided with no LP predicate.

``is_pn_generic`` tests each cell's recession cone against the support of
the skeleton, piece by piece at their interior points, and
``is_bounded_on`` tests whether a linear form vanishes on a recession
cone's span.  The references in ``oracles`` keep the LP
route: containment constraint by constraint (``cell_contains_cell``) and
two ``strict_point`` programs per cell.
"""

import sys
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    pl_add,
    pl_negate,
    reference_is_bounded_on,
    reference_is_pn_generic,
    refine_complex,
)

from tropint import polyhedra
from tropint.cycles import Cycle, rn_cycle, standard_skeleton, translate
from tropint.divisors import TropicalPolynomial, is_bounded_on, weil_divisor
from tropint.library import (
    conic_curve,
    hyperplane_polynomial,
    pinwheel_curve,
    sawtooth_function,
)
from tropint.polyhedra import AffineForm
from tropint.rn_products import bezout_check, degree_zero_check, is_pn_generic

_shift = st.fractions(-2, 2, max_denominator=3)


@st.composite
def polynomials(draw, n, degree):
    """A max-polynomial in n variables with small constants.  Its support is
    the degree-d simplex, as in ``test_random_pipeline``, so that its
    divisor is generic, or two to four points of the box [0, d]^n."""
    box = list(product(range(degree + 1), repeat=n))
    if draw(st.booleans()):
        support = [e for e in box if sum(e) <= degree]
    else:
        support = draw(st.lists(st.sampled_from(box), min_size=2, max_size=4, unique=True))
    return TropicalPolynomial(tuple(AffineForm(e, draw(st.integers(-3, 3))) for e in support))


@st.composite
def cycles(draw):
    """A plane curve, or a two-dimensional cycle in R^3 (whose recession
    cones reach dimension 2), cut out by a polynomial and moved."""
    n, degree = draw(st.sampled_from(((2, 1), (2, 2), (3, 1))))
    phi = draw(polynomials(n, degree))
    return translate(weil_divisor(phi, rn_cycle(n)), tuple(draw(_shift) for _ in range(n)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(cycles())
def test_genericity_matches_containment_by_lps(c):
    assert is_pn_generic(c) == reference_is_pn_generic(c)


def _midpoint_cuts(c):
    """The hyperplanes that cut each bounded edge of a cycle's cells (the
    cells of a curve, the edges of a surface) across at its midpoint."""
    edges = c.complex.cells if c.dim == 1 else [
        edge for cell in c.complex.cells for edge in cell.faces_of_codim_one()]
    cuts = {}
    for edge in edges:
        ends = edge.faces_of_codim_one()
        if len(ends) == 2:
            (w,) = edge.direction_lattice.vectors
            mid = [(x + y) / 2 for x, y in zip(ends[0].interior_point, ends[1].interior_point)]
            cut = AffineForm(w, -sum(a * x for a, x in zip(w, mid)))
            cuts[cut.sort_key()] = cut
    return [cuts[k] for k in sorted(cuts)]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.data())
def test_genericity_does_not_change_under_refinement(data):
    # Genericity is a property of the cycle, not of its cells: a refinement
    # at the midpoints of the bounded edges, or along a few hyperplanes in
    # general position, gives the same answer.
    c = data.draw(cycles())
    n = c.ambient_dim
    if data.draw(st.booleans()):
        forms = _midpoint_cuts(c)
    else:
        normal = st.tuples(*[st.integers(-2, 2)] * n).filter(any)
        forms = data.draw(st.lists(st.builds(AffineForm, normal, _shift), min_size=1, max_size=2))
    refined = Cycle(refine_complex(c.complex, forms), check=False)
    assert is_pn_generic(refined) == is_pn_generic(c)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_boundedness_matches_two_lps_per_cell(data):
    # f - g is bounded on a ray v exactly when the largest e . v over the
    # support of f equals that over the support of g.  When g has f's
    # support, f - g is bounded everywhere and still not constant.
    c = data.draw(cycles())
    f = data.draw(polynomials(c.ambient_dim, 1))
    box = list(product(range(2), repeat=c.ambient_dim))
    support = data.draw(st.one_of(
        st.just([t.linear for t in f.terms]),
        st.lists(st.sampled_from(box), min_size=1, max_size=2, unique=True)))
    g = TropicalPolynomial(tuple(AffineForm(e, data.draw(st.integers(-3, 3))) for e in support))
    phi = pl_add(f, pl_negate(g))
    assert is_bounded_on(phi, c) == reference_is_bounded_on(phi, c)


def test_genericity_and_boundedness_call_no_strict_point(monkeypatch):
    original = polyhedra.strict_point

    def forbidden(*args, **kwargs):
        raise AssertionError("strict_point called")

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("tropint"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, forbidden)
    assert bezout_check(conic_curve(), standard_skeleton(2, 1)).passed
    assert not is_bounded_on(hyperplane_polynomial(2), standard_skeleton(2, 1))
    assert degree_zero_check(sawtooth_function(), pinwheel_curve())
