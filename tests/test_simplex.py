import random

import oracles
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_lp_max

from tropint import _simplex as simplex
from tropint._simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, lp_max
from tropint.kernel import QQ, dot


def test_simple_bounded():
    # max x + y on the triangle x,y >= 0, x + y <= 1
    r = lp_max(2, (1, 1), ineqs=[((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)])
    assert r.status == OPTIMAL
    assert r.value == 1


def test_infeasible():
    r = lp_max(1, (1,), ineqs=[((1,), 1), ((-1,), 0)])
    assert r.status == INFEASIBLE


def test_unbounded():
    r = lp_max(1, (1,), ineqs=[((1,), 0)])
    assert r.status == UNBOUNDED


def test_equalities_and_rationals():
    # max x subject to x + y == 1, x - y >= 0, x <= 3/4
    r = lp_max(2, (1, 0), ineqs=[((1, -1), 0), ((-1, 0), QQ(-3, 4))], eqs=[((1, 1), 1)])
    assert r.status == OPTIMAL
    assert r.value == QQ(3, 4)
    x, y = r.point
    assert x + y == 1 and x - y >= 0


def test_no_constraints():
    assert lp_max(2, (0, 0)).status == OPTIMAL
    assert lp_max(2, (1, 0)).status == UNBOUNDED


def test_degenerate_does_not_cycle():
    # Klee-Minty-ish degenerate square pyramid; Bland's rule must terminate.
    ineqs = [
        ((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
        ((-1, -1, 0), -1), ((-1, 0, -1), -1), ((0, -1, -1), -1),
        ((-1, -1, -1), -2),
    ]
    r = lp_max(3, (1, 1, 1), ineqs=ineqs)
    assert r.status == OPTIMAL
    assert r.value == QQ(3, 2)


def test_random_against_vertex_enumeration():
    # 2-d instances with a box so everything is bounded; compare to brute
    # force over all constraint-pair intersection points.
    rng = random.Random(5)
    for _ in range(60):
        ineqs = [((1, 0), -5), ((-1, 0), -5), ((0, 1), -5), ((0, -1), -5)]
        for _ in range(rng.randint(1, 4)):
            a = (rng.randint(-3, 3), rng.randint(-3, 3))
            if a == (0, 0):
                continue
            ineqs.append((a, rng.randint(-4, 4)))
        c = (rng.randint(-3, 3), rng.randint(-3, 3))
        r = lp_max(2, c, ineqs=ineqs)
        best = None
        pts = []
        for i in range(len(ineqs)):
            for j in range(i + 1, len(ineqs)):
                (a1, b1), (a2, b2) = ineqs[i], ineqs[j]
                det = a1[0] * a2[1] - a1[1] * a2[0]
                if det == 0:
                    continue
                x = QQ(b1 * a2[1] - b2 * a1[1], det)
                y = QQ(a1[0] * b2 - a2[0] * b1, det)
                pts.append((x, y))
        for p in pts:
            if all(dot(a, p) >= b for a, b in ineqs):
                v = dot(c, p)
                if best is None or v > best:
                    best = v
        if best is None:
            assert r.status == INFEASIBLE
        else:
            assert r.status == OPTIMAL
            assert r.value == best


# Small rationals, zero-heavy so that vertices are often degenerate.
_coef = st.one_of(st.just(QQ(0)), st.builds(QQ, st.integers(-3, 3), st.sampled_from((1, 1, 2, 3))))


@st.composite
def lps(draw):
    """Random programs for lp_max: rational rows, right-hand sides of either
    sign, equality rows and redundant equalities (rational combinations of
    the others, which leave an artificial variable basic at zero after
    phase 1 and so force the drive-out).  Degenerate inequality rows, such
    as 0.x >= 0, make the drive-out pivot on a negative surplus entry."""
    n = draw(st.integers(1, 3))
    vec = st.tuples(*[_coef] * n)
    ineqs = draw(st.lists(st.tuples(vec, _coef), max_size=4))
    eqs = draw(st.lists(st.tuples(vec, _coef), max_size=2))
    for _ in range(draw(st.integers(0, 2)) if eqs else 0):
        w = draw(st.tuples(*[_coef] * len(eqs)))
        a = tuple(sum(wk * e[0][j] for wk, e in zip(w, eqs)) for j in range(n))
        r = sum(wk * e[1] for wk, e in zip(w, eqs))
        eqs.insert(draw(st.integers(0, len(eqs))), (a, r))
    return n, draw(vec), ineqs, eqs


def _solve_recording_pivots(module, pivot_name, solve, lp):
    """solve(*lp), and the (row, column, entry) of every pivot it made."""
    pivots = []
    pivot = getattr(module, pivot_name)

    def recording(tab, row, col, *rest):
        pivots.append((row, col, tab[row][col]))
        return pivot(tab, row, col, *rest)

    setattr(module, pivot_name, recording)
    try:
        return solve(*lp), pivots
    finally:
        setattr(module, pivot_name, pivot)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(lps())
def test_matches_rational_reference(lp):
    # Same pivots, hence the same vertex: outputs stay byte-identical.
    r, pivots = _solve_recording_pivots(simplex, "bareiss_pivot", lp_max, lp)
    ref, ref_pivots = _solve_recording_pivots(oracles, "_reference_pivot", reference_lp_max, lp)
    assert (r.status, r.value, r.point) == ref
    assert [p[:2] for p in pivots] == [p[:2] for p in ref_pivots]


def test_drive_out_on_negative_pivot():
    # x - y == 0 stated twice, the second time negated: phase 1 ends at
    # once with both artificial variables basic at zero, and the drive-out
    # pivots on the bottom row's leading -1/2 (-1 once scaled by 2).
    lp = (2, (1, -1), [], [((QQ(1, 2), QQ(-1, 2)), 0), ((QQ(-1, 2), QQ(1, 2)), 0)])
    r, pivots = _solve_recording_pivots(simplex, "bareiss_pivot", lp_max, lp)
    assert pivots == [(1, 0, -1)]
    assert (r.status, r.value, r.point) == reference_lp_max(*lp)
    assert r.value == 0 and r.point == (0, 0)
