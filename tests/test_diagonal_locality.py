"""Stable intersection local to the diagonal against the full product.

``diagonal_stable_intersect`` (imported as ``stable_intersect``) builds
only the product cells sigma x tau with sigma meeting tau and drops the
cells its cut leaves off the diagonal; the reference runs the diagonal
divisors on every cell of C x D.  Both must give the same cycle,
serialized byte for byte.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import _cells_meet, _on_diagonal, reference_stable_intersect
from oracles import diagonal_stable_intersect as stable_intersect
from test_faces import _count_lps, _count_slack_solves, _random_polynomial

from tropint.cycles import (
    Cycle,
    WeightedComplex,
    cycles_equal,
    rn_cycle,
    scale,
    standard_skeleton,
    translate,
)
from tropint.divisors import weil_divisor
from tropint.documents import serialize_document
from tropint.library import conic_curve
from tropint.polyhedra import AffineForm, Cell, cone_from_rays, point_cell, segment_cell

_shift = st.fractions(-2, 2, max_denominator=3)


def _assert_matches_reference(c, d):
    got = stable_intersect(c, d)
    want = reference_stable_intersect(c, d)
    assert cycles_equal(got, want)
    assert serialize_document(got) == serialize_document(want)


@st.composite
def plane_curves(draw):
    curve = weil_divisor(_random_polynomial(draw, 2, draw(st.integers(1, 3))), rn_cycle(2))
    curve = scale(curve, draw(st.sampled_from((1, -1, 2, -2))))
    return translate(curve, (draw(_shift), draw(_shift)))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(plane_curves(), plane_curves(), st.sampled_from(("pair", "self", "translate")))
def test_plane_curves_match_reference(c, d, kind):
    if kind == "self":
        d = c
    elif kind == "translate":
        d = translate(c, (1, 0))
    _assert_matches_reference(c, d)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(st.sampled_from(((1, 2), (2, 1), (2, 2))),
       st.tuples(_shift, _shift, _shift), st.booleans())
def test_space_skeleta_match_reference(dims, v, moved):
    k, l = dims
    d = standard_skeleton(3, l)
    _assert_matches_reference(standard_skeleton(3, k), translate(d, v) if moved else d)


def test_disjoint_cells_give_no_product_cell():
    c = Cycle(WeightedComplex(2, 0, [point_cell((0, 0))], [1]), check=False)
    d = Cycle(WeightedComplex(2, 2, [Cell.from_constraints(
        2, [AffineForm((1, 0), -1)])], [1]), check=False)
    assert not _cells_meet(c.complex.cells[0], d.complex.cells[0])
    assert stable_intersect(c, d).is_empty
    seg = segment_cell((0, 0), (1, 0))
    assert _cells_meet(seg, segment_cell((1, 0), (1, 1)))
    assert not _cells_meet(seg, segment_cell((2, 0), (3, 0)))


def test_two_cones_meet_without_an_lp(monkeypatch):
    calls, solves = _count_lps(monkeypatch), _count_slack_solves(monkeypatch)
    a = cone_from_rays([(1, 0, 0)], 3)
    b = cone_from_rays([(0, 1, 0), (0, 0, 1)], 3)
    assert _cells_meet(a, b)
    assert _cells_meet(a, a)
    assert not calls and not solves
    # Three equalities in R^3 leave no free variable: the constant lines of
    # the inequalities decide, with no slack program.
    assert _cells_meet(a.translate((0, 1, 1)), b)
    assert not calls and not solves


def test_junk_filter_drops_a_cell_off_the_diagonal():
    on = Cell.from_constraints(4, [AffineForm((1, 0, 0, 0), 0)],
                               [AffineForm((1, 0, -1, 0), 0), AffineForm((0, 1, 0, -1), 0)])
    off = Cell.from_constraints(4, [AffineForm((1, 0, 0, 0), 0)],
                                [AffineForm((1, 0, -1, 0), -1), AffineForm((0, 1, 0, -1), 0)])
    cut = Cycle(WeightedComplex(4, 2, [off, on], [3, 2]), check=False)
    kept = _on_diagonal(cut)
    assert kept.complex.cells == (on,) and kept.complex.weights == (2,)


# LP solves of reference_stable_intersect, the full-product route, on these
# inputs; stable_intersect takes 66, 12, 190 and 510.  The fans through the
# origin gain nothing from locality: every pair of their cones meets.
_FULL_PRODUCT_LPS = {"conic.conic": 162, "L31.(L32+v)": 232, "L31.L32": 190, "L32.L32": 510}


def _fresh(c, v=None):
    """A translated copy, whose cells carry no cached faces or keys."""
    return translate(c, v or (0,) * c.ambient_dim)


@pytest.mark.parametrize("name, make, share", [
    ("conic.conic", lambda: (_fresh(conic_curve()), _fresh(conic_curve())), 0.55),
    ("L31.(L32+v)", lambda: (_fresh(standard_skeleton(3, 1)),
                             _fresh(standard_skeleton(3, 2), (1, "1/2", -2))), 0.55),
    ("L31.L32", lambda: (_fresh(standard_skeleton(3, 1)), _fresh(standard_skeleton(3, 2))), 1),
    ("L32.L32", lambda: (_fresh(standard_skeleton(3, 2)), _fresh(standard_skeleton(3, 2))), 1),
])
def test_lp_budget(monkeypatch, name, make, share):
    c, d = make()
    calls = _count_lps(monkeypatch)
    stable_intersect(c, d)
    assert len(calls) <= share * _FULL_PRODUCT_LPS[name]
