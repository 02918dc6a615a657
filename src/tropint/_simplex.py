"""Exact rational linear programming by the simplex method, in one phase
from a feasible point the caller gives.

Small dense tableau implementation with Bland's least-index pivot rule,
which makes every solve deterministic and immune to cycling.  Problem sizes
here are tiny (tens of variables), so no effort is spent on sparsity or
revised-simplex updates.

Every program is solved from a point ``start`` that satisfies all of its
rows.  Writing x = start + y+ - y- with y+, y- >= 0, row i (a.x >= r)
reads s_i - a.(y+ - y-) = a.start - r >= 0, so the surplus variables s
form a feasible first basis and no phase 1 is needed (Chvátal, *Linear
Programming*, ch. 3 and 8).

The tableau holds Python ints only (fraction-free pivoting after Bareiss,
as in Avis's lrs).  With B the current basis of the integer system
M = [A | I | b], it stores T = d * B^-1 M with d = |det B|, and the
reduced-cost row likewise as d times its rational value.  A pivot is the
shared elimination step :func:`.kernel.bareiss_pivot`, which maps every
other row to (T[r][s] * T[i] - T[i][s] * T[r]) / d, exactly, and returns
the new d = T[r][s].  Entries therefore stay as small as the minors of the
input, and no rational is formed until a solution is read off as
T[i][-1] / d.  Each row is cleared of its denominators separately and its
surplus variable is scaled by the same positive factor, so the first basis
is the identity with d = 1; positive row and column scalings leave every
sign and every ratio comparison, hence every pivot, as the rational
tableau has them.
"""

from __future__ import annotations

from math import lcm

from .kernel import QQ, bareiss_pivot, dot

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"  # of a slack program; lp_max starts feasible
UNBOUNDED = "unbounded"


class LPResult:
    __slots__ = ("status", "value", "point")

    def __init__(self, status, value=None, point=None):
        self.status = status
        self.value = value
        self.point = point

    def __repr__(self):
        return f"LPResult({self.status}, {self.value})"


def lp_max(n, objective, ineqs, start):
    """Maximize objective . x over {x in Q^n : a.x >= r for (a, r) in ineqs},
    starting from the point ``start`` of that set; the result is OPTIMAL
    or UNBOUNDED.  A start that breaks a row raises ValueError."""
    m = len(ineqs)
    tab = []
    for i, (a, r) in enumerate(ineqs):
        b = dot(a, start) - QQ(r)
        if b < 0:
            raise ValueError(f"the start point breaks row {i} of the program")
        scale = lcm(b.denominator, *(q.denominator for q in a))
        row = [-q.numerator * (scale // q.denominator) for q in a]
        unit = [0] * m
        unit[i] = 1
        tab.append(row + [-x for x in row] + unit + [b.numerator * (scale // b.denominator)])
    cscale = lcm(*(c.denominator for c in objective))
    cost = [c.numerator * (cscale // c.denominator) for c in objective]
    cost += [-c for c in cost] + [0] * m
    basis = list(range(2 * n, 2 * n + m))

    d, value = _optimize(tab, basis, cost, 1)
    if value is None:
        return LPResult(UNBOUNDED)
    y = [0] * (2 * n)
    for i, j in enumerate(basis):
        if j < 2 * n:
            y[j] = tab[i][-1]
    point = tuple(QQ(s) + QQ(y[j] - y[n + j], d) for j, s in enumerate(start))
    return LPResult(OPTIMAL, QQ(dot(objective, point)), point)


def _optimize(tab, basis, cost, d):
    """Run simplex pivots until optimal or unbounded.

    Returns the new d and d times the optimal value, or None for the value
    when the program is unbounded.  The reduced-cost row z (with -value in
    the last slot), scaled by d like the tableau, rides along as an extra
    last row through every pivot.  Basic columns have z == 0 exactly, so
    the first column with z > 0 is Bland's entering variable.
    """
    m = len(tab)
    z = [d * c for c in cost] + [0]
    for i, b in enumerate(basis):
        cb = cost[b]
        if cb != 0:
            z = [a - cb * x for a, x in zip(z, tab[i])]
    tab.append(z)
    ncols = len(cost)
    while True:
        entering = next((j for j in range(ncols) if z[j] > 0), -1)
        if entering < 0:
            tab.pop()
            return d, -z[-1]
        # Bland's ratio test: least b_i / a_i over a_i > 0, compared by
        # cross-multiplication (both scaled by the same d > 0).
        leaving = -1
        best_b = best_a = 0
        for i in range(m):
            row = tab[i]
            a = row[entering]
            if a > 0:
                b = row[-1]
                if leaving < 0:
                    better = True
                else:
                    lhs = b * best_a
                    rhs = best_b * a
                    better = lhs < rhs or (lhs == rhs and basis[i] < basis[leaving])
                if better:
                    best_b, best_a, leaving = b, a, i
        if leaving < 0:
            tab.pop()
            return d, None
        d = bareiss_pivot(tab, leaving, entering, d)
        basis[leaving] = entering
        z = tab[m]
