"""The fan displacement rule of ``stable_intersect`` against independent routes.

``diagonal_stable_intersect`` cuts C x D by the diagonal divisors and pushes
the cut forward.  For k + l = n it writes the same cycle as the displacement
rule, byte for byte; for k + l > n the two may refine their outputs
differently, so they are compared as cycles.  Mikhalkin's count checks
transversal plane curves, and the wall case checks that a displacement
lying on a wall is replaced by the next one.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import diagonal_stable_intersect, reference_stable_intersect, transversal_intersection
from test_diagonal_locality import _fresh, plane_curves
from test_faces import _count_lps, _count_slack_solves

from tropint import rn_products
from tropint.cycles import (
    Cycle,
    WeightedComplex,
    cycles_equal,
    is_balanced,
    rn_cycle,
    scale,
    standard_skeleton,
    translate,
)
from tropint.documents import serialize_document
from tropint.library import conic_curve
from tropint.polyhedra import cone_from_rays
from tropint.rn_products import stable_intersect

_shift = st.fractions(-2, 2, max_denominator=3)
_generic = st.fractions(-2, 2, max_denominator=7)


def _assert_bytes_match(c, d):
    assert serialize_document(stable_intersect(c, d)) == \
        serialize_document(diagonal_stable_intersect(c, d))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(plane_curves(), plane_curves(), st.sampled_from(("pair", "self", "translate")))
def test_plane_curves_match_diagonal(c, d, kind):
    if kind == "self":
        d = c
    elif kind == "translate":
        d = translate(c, (1, 0))
    _assert_bytes_match(c, d)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(st.sampled_from(((1, 2), (2, 1))), st.tuples(_shift, _shift, _shift))
def test_complementary_space_skeleta_match_diagonal(dims, v):
    k, l = dims
    _assert_bytes_match(standard_skeleton(3, k), translate(standard_skeleton(3, l), v))


@settings(max_examples=6, deadline=None, derandomize=True)
@given(st.sampled_from(("L32.L32", "L31.R3", "C.R2")), st.tuples(_shift, _shift, _shift))
def test_excess_dimension_matches_diagonal_as_cycles(kind, v):
    if kind == "L32.L32":
        c, d = standard_skeleton(3, 2), translate(standard_skeleton(3, 2), v)
    elif kind == "L31.R3":
        c, d = translate(standard_skeleton(3, 1), v), rn_cycle(3)
    else:
        c, d = translate(conic_curve(), v[:2]), rn_cycle(2)
    got = stable_intersect(c, d)
    assert got.dim == c.dim + d.dim - c.ambient_dim
    assert cycles_equal(got, diagonal_stable_intersect(c, d))
    assert is_balanced(got.complex)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(plane_curves(), plane_curves(), st.booleans(), st.tuples(_generic, _generic))
def test_transversal_curves_match_mikhalkin(c, d, self_pair, v):
    d = translate(c if self_pair else d, v)
    want = transversal_intersection(c, d)
    assume(want is not None)
    got = stable_intersect(c, d).complex
    assert dict(zip((cell.interior_point for cell in got.cells), got.weights)) == want


def test_wall_displacement_is_replaced(monkeypatch):
    # At v = (1, 3) the ray (1, 3) of one copy meets the other copy's ray
    # (-1, 0), moved by v, only at its apex: a wall.
    tried = []
    real = rn_products._displaced

    def spy(meets, v):
        tried.append(v)
        return real(meets, v)

    monkeypatch.setattr(rn_products, "_displaced", spy)
    rays = ((1, 3), (-1, 0), (0, -1))
    fan = Cycle(WeightedComplex(2, 1, [cone_from_rays([r], 2) for r in rays], [1, 1, 3]))
    got = stable_intersect(fan, fan)
    assert tried == [(1, 3), (1, 4)]
    assert got.complex.weights == (3,) and got.complex.cells[0].interior_point == (0, 0)
    assert serialize_document(got) == serialize_document(reference_stable_intersect(fan, fan))


def test_r0_empty_inputs_and_complementary_defect():
    point = rn_cycle(0)
    got = stable_intersect(scale(point, 2), scale(point, -3))
    assert got.complex.weights == (-6,)
    _assert_bytes_match(scale(point, 2), scale(point, -3))
    conic = conic_curve()
    for c, d in ((Cycle.empty(2, 1), conic), (conic, Cycle.empty(2, 1)),
                 (conic, scale(conic, 0))):
        out = stable_intersect(c, d)
        assert out.is_empty and (out.ambient_dim, out.dim) == (2, 0)
    line = standard_skeleton(3, 1)
    out = stable_intersect(line, line)
    assert out.is_empty and (out.ambient_dim, out.dim) == (3, -1)
    with pytest.raises(ValueError):
        stable_intersect(conic, line)


# Slack programs of stable_intersect on the inputs of
# test_diagonal_locality.test_lp_budget; the diagonal route takes 414, 50,
# 237 and 534 there, and 66, 12, 190 and 510 LPs.
_SLACK_BUDGET = {"conic.conic": 118, "L31.(L32+v)": 13, "L31.L32": 56, "L32.L32": 156}


@pytest.mark.parametrize("name, make", [
    ("conic.conic", lambda: (_fresh(conic_curve()), _fresh(conic_curve()))),
    ("L31.(L32+v)", lambda: (_fresh(standard_skeleton(3, 1)),
                             _fresh(standard_skeleton(3, 2), (1, "1/2", -2)))),
    ("L31.L32", lambda: (_fresh(standard_skeleton(3, 1)), _fresh(standard_skeleton(3, 2)))),
    ("L32.L32", lambda: (_fresh(standard_skeleton(3, 2)), _fresh(standard_skeleton(3, 2)))),
])
def test_no_lp_and_slack_budget(monkeypatch, name, make):
    c, d = make()
    lps, solves = _count_lps(monkeypatch), _count_slack_solves(monkeypatch)
    stable_intersect(c, d)
    assert not lps
    assert len(solves) <= _SLACK_BUDGET[name]
