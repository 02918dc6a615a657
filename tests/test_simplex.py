"""The one-phase exact simplex against rational references.

``lp_max`` maximizes from a start point that satisfies every row.  It must
agree with the rational one-phase reference from the same start in status,
value, point and every pivot, and with the two-phase reference, which
finds its own feasible basis, in status and value.
"""

import random
from functools import partial

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_lp_max

from tropint import _simplex as simplex
from tropint._simplex import OPTIMAL, UNBOUNDED, lp_max
from tropint.cycles import rn_cycle
from tropint.divisors import divisor_chain
from tropint.kernel import QQ, dot
from tropint.library import hyperplane_polynomial, rigid_function, rigid_surface


def test_simple_bounded():
    # max x + y on the triangle x,y >= 0, x + y <= 1
    r = lp_max(2, (1, 1), ineqs=[((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)], start=(0, 0))
    assert r.status == OPTIMAL
    assert r.value == 1


def test_unbounded():
    r = lp_max(1, (1,), ineqs=[((1,), 0)], start=(QQ(5, 2),))
    assert r.status == UNBOUNDED


def test_no_constraints():
    r = lp_max(2, (0, 0), ineqs=(), start=(1, QQ(1, 2)))
    assert (r.status, r.value, r.point) == (OPTIMAL, 0, (1, QQ(1, 2)))
    assert lp_max(2, (1, 0), ineqs=(), start=(0, 0)).status == UNBOUNDED


def test_start_breaking_a_row_raises():
    rows = [((1, 0), 0), ((0, 1), QQ(1, 3))]
    with pytest.raises(ValueError, match="breaks row 1"):
        lp_max(2, (1, 1), ineqs=rows, start=(1, QQ(1, 4)))
    assert lp_max(2, (-1, -1), ineqs=rows, start=(1, QQ(1, 3))).value == QQ(-1, 3)


def test_degenerate_does_not_cycle():
    # Klee-Minty-ish degenerate square pyramid, started at the apex of three
    # tight rows; Bland's rule must terminate.
    ineqs = [
        ((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
        ((-1, -1, 0), -1), ((-1, 0, -1), -1), ((0, -1, -1), -1),
        ((-1, -1, -1), -2),
    ]
    r = lp_max(3, (1, 1, 1), ineqs=ineqs, start=(0, 0, 0))
    assert r.status == OPTIMAL
    assert r.value == QQ(3, 2)


def test_random_against_vertex_enumeration():
    # 2-d instances with a box so everything is bounded; compare to brute
    # force over all constraint-pair intersection points.  Each row is
    # moved, if need be, to pass through a start point drawn in the box.
    rng = random.Random(5)
    for _ in range(60):
        start = (QQ(rng.randint(-8, 8), 2), QQ(rng.randint(-8, 8), 2))
        ineqs = [((1, 0), -5), ((-1, 0), -5), ((0, 1), -5), ((0, -1), -5)]
        for _ in range(rng.randint(1, 4)):
            a = (rng.randint(-3, 3), rng.randint(-3, 3))
            if a == (0, 0):
                continue
            ineqs.append((a, min(rng.randint(-4, 4), dot(a, start))))
        c = (rng.randint(-3, 3), rng.randint(-3, 3))
        r = lp_max(2, c, ineqs=ineqs, start=start)
        best = None
        pts = []
        for i in range(len(ineqs)):
            for j in range(i + 1, len(ineqs)):
                (a1, b1), (a2, b2) = ineqs[i], ineqs[j]
                det = a1[0] * a2[1] - a1[1] * a2[0]
                if det == 0:
                    continue
                x = (b1 * a2[1] - b2 * a1[1]) / QQ(det)
                y = (a1[0] * b2 - a2[0] * b1) / QQ(det)
                pts.append((x, y))
        for p in pts:
            if all(dot(a, p) >= b for a, b in ineqs):
                v = dot(c, p)
                if best is None or v > best:
                    best = v
        assert r.status == OPTIMAL
        assert r.value == best


# Small rationals, zero-heavy so that vertices are often degenerate.
_coef = st.one_of(st.just(QQ(0)), st.builds(QQ, st.integers(-3, 3), st.sampled_from((1, 1, 2, 3))))


@st.composite
def lps(draw):
    """(n, objective, ineqs, start): random programs for lp_max around a
    rational start point.  Rows have rational coefficients and hold at the
    start; about half are tight there, which makes the first basis
    degenerate, and some are 0.x >= 0.  Half the programs get a box of
    rows around the start and are bounded; many of the others are not."""
    n = draw(st.integers(1, 3))
    vec = st.tuples(*[_coef] * n)
    gap = st.one_of(st.just(QQ(0)), _coef.map(abs))
    start = draw(vec)
    rows = draw(st.lists(vec, max_size=6))
    if draw(st.booleans()):
        rows += [tuple(sign if i == j else 0 for i in range(n))
                 for j in range(n) for sign in (1, -1)]
    ineqs = [(a, dot(a, start) - draw(gap)) for a in rows]
    objective = draw(st.tuples(*[st.integers(-3, 3)] * n))
    return n, objective, ineqs, start


def _solve_recording_pivots(module, pivot_name, solve):
    """solve(), and the (row, column) of every pivot it made."""
    pivots = []
    pivot = getattr(module, pivot_name)

    def recording(tab, row, col, *rest):
        pivots.append((row, col))
        return pivot(tab, row, col, *rest)

    setattr(module, pivot_name, recording)
    try:
        return solve(), pivots
    finally:
        setattr(module, pivot_name, pivot)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(lps())
def test_matches_rational_reference(lp):
    # Same pivots from the same start, hence the same vertex: outputs stay
    # byte-identical.  The two-phase reference reaches the same optimum.
    n, objective, ineqs, start = lp
    r, pivots = _solve_recording_pivots(
        simplex, "bareiss_pivot", partial(lp_max, n, objective, ineqs=ineqs, start=start))
    ref, ref_pivots = _solve_recording_pivots(
        oracles, "_reference_pivot",
        partial(reference_lp_max, n, objective, ineqs=ineqs, start=start))
    assert (r.status, r.value, r.point) == ref
    assert pivots == ref_pivots
    status, value, _ = reference_lp_max(n, objective, ineqs=ineqs)
    assert (r.status, r.value) == (status, value)


# Exact simplex pivots of divisor chains in R^3, the inputs that reach the
# simplex.  Started from points the caller holds, the chains take these
# counts; the two-phase simplex took 230, 52, 239 and 239.
_PIVOT_BUDGET = {
    "rigid curve": (lambda: divisor_chain([rigid_function()] * 2, rigid_surface()), 114),
    **{f"hyperplane^{k}": (lambda k=k: divisor_chain([hyperplane_polynomial(3)] * k, rn_cycle(3)),
                           pivots)
       for k, pivots in ((1, 40), (2, 109), (3, 109))},
}


@pytest.mark.parametrize("name", _PIVOT_BUDGET)
def test_pivot_budget(name):
    chain, budget = _PIVOT_BUDGET[name]
    _, pivots = _solve_recording_pivots(simplex, "bareiss_pivot", chain)
    assert len(pivots) == budget
