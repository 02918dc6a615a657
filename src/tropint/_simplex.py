"""Exact rational linear programming by the two-phase simplex method.

Small dense tableau implementation with Bland's least-index pivot rule,
which makes every solve deterministic and immune to cycling.  Problem sizes
here are tiny (tens of variables), so no effort is spent on sparsity or
revised-simplex updates.

The tableau holds Python ints only (fraction-free pivoting after Bareiss,
as in Avis's lrs).  With B the current basis of the integer system
M = [A | I | b], it stores T = d * B^-1 M with d = |det B|, and the
reduced-cost row likewise as d times its rational value.  A pivot is the
shared elimination step :func:`.kernel.bareiss_pivot`, which maps every
other row to (T[r][s] * T[i] - T[i][s] * T[r]) / d, exactly, and returns
the new d = T[r][s].  Entries therefore stay as small as the minors of the
input, and no rational is formed until a solution is read off as
T[i][-1] / d.

All rows are scaled by one common denominator.  That multiplies the
phase-1 objective (the sum of the artificial variables) by a single
positive constant, so every comparison, and hence every pivot, is the one
the rational tableau would make; scaling each row by its own denominator
would reweight the artificial variables and change the pivot sequence.
The phase-2 cost vector is cleared of its denominator separately.
"""

from __future__ import annotations

from math import lcm

from .kernel import QQ, bareiss_pivot

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LPResult:
    __slots__ = ("status", "value", "point")

    def __init__(self, status, value=None, point=None):
        self.status = status
        self.value = value
        self.point = point

    def __repr__(self):
        return f"LPResult({self.status}, {self.value})"


def lp_max(n, objective, ineqs=(), eqs=()):
    """Maximize objective . x over {x in Q^n : a.x >= r for (a, r) in ineqs,
    a.x == r for (a, r) in eqs}.

    Free variables are split into differences of nonnegative ones and
    inequalities get surplus variables, giving a standard-form program.
    """
    ncols = 2 * n + len(ineqs)
    # Coefficients are ints or rationals; both carry numerator and denominator.
    cons = [(*a, r) for a, r in ineqs] + [(*a, r) for a, r in eqs]
    scale = lcm(*{q.denominator for con in cons for q in con})

    def widen(coeffs, s):
        row = [q.numerator * (s // q.denominator) for q in coeffs]
        return row + [-c for c in row] + [0] * len(ineqs)

    rows = []
    rhs = []
    for i, con in enumerate(cons):
        row = widen(con[:n], scale)
        if i < len(ineqs):
            row[2 * n + i] = -scale
        rows.append(row)
        r = con[n]
        rhs.append(r.numerator * (scale // r.denominator))
    cscale = lcm(*{c.denominator for c in objective})
    cost = widen(objective, cscale)

    status, d, y = _simplex_standard(rows, rhs, cost, ncols)
    if status != OPTIMAL:
        return LPResult(status)
    point = tuple(QQ(y[j] - y[n + j], d) for j in range(n))
    value = QQ(sum(c * yj for c, yj in zip(cost, y)), d * cscale)
    return LPResult(OPTIMAL, value, point)


def _simplex_standard(rows, rhs, cost, ncols):
    """Maximize cost . y subject to rows @ y = rhs, y >= 0, all integers.

    Returns (status, d, d * y) for an optimal basic solution y.
    """
    m = len(rows)
    if m == 0:
        if any(c > 0 for c in cost):
            return UNBOUNDED, None, None
        return OPTIMAL, 1, [0] * ncols

    tab = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        if b < 0:
            row = [-x for x in row]
            b = -b
        unit = [0] * m
        unit[i] = 1
        tab.append(row + unit + [b])
    basis = [ncols + i for i in range(m)]

    phase1 = [0] * ncols + [-1] * m
    d, value = _optimize(tab, basis, phase1, 1)
    if value is None:
        raise RuntimeError("phase 1 of the simplex is unbounded; its objective is at most 0")
    if value < 0:
        return INFEASIBLE, None, None

    # Drive leftover artificial variables out of the basis.  The pivot may
    # be negative; negating the whole tableau keeps d positive.
    for i in range(m - 1, -1, -1):
        if basis[i] >= ncols:
            pivot_col = next((j for j in range(ncols) if tab[i][j] != 0), None)
            if pivot_col is None:
                del tab[i]
                del basis[i]
            else:
                d = bareiss_pivot(tab, i, pivot_col, d)
                basis[i] = pivot_col
                if d < 0:
                    d = -d
                    for k, row in enumerate(tab):
                        tab[k] = [-x for x in row]
    for row in tab:
        del row[ncols:ncols + m]

    d, value = _optimize(tab, basis, cost, d)
    if value is None:
        return UNBOUNDED, None, None
    y = [0] * ncols
    for i, b in enumerate(basis):
        y[b] = tab[i][-1]
    return OPTIMAL, d, y


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
