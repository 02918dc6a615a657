"""Independent brute-force oracles shared by the test modules."""

from tropint._simplex import INFEASIBLE, OPTIMAL, UNBOUNDED
from tropint.kernel import QQ, solve_rational

_ZERO = QQ(0)
_ONE = QQ(1)


def count_lattice_points_in_parallelepiped(rows):
    """Points of Z^n in the half-open parallelepiped spanned by the rows.

    Scans the integer bounding box and tests membership by solving for the
    rational coefficients; independent of any determinant computation.
    """
    n = len(rows[0])
    corners = []
    for mask in range(2 ** len(rows)):
        c = [0] * n
        for i, row in enumerate(rows):
            if mask >> i & 1:
                c = [a + b for a, b in zip(c, row)]
        corners.append(c)
    lo = [min(c[j] for c in corners) for j in range(n)]
    hi = [max(c[j] for c in corners) for j in range(n)]

    def points(j):
        if j == n:
            yield ()
            return
        for rest in points(j + 1):
            for x in range(lo[j], hi[j] + 1):
                yield (x,) + rest

    count = 0
    cols = list(zip(*rows))
    for p in points(0):
        sol = solve_rational(cols, p)
        if sol is None:
            continue
        back = tuple(sum(QQ(sol[i]) * rows[i][j] for i in range(len(rows))) for j in range(n))
        if any(QQ(b) != QQ(x) for b, x in zip(back, p)):
            continue
        if all(0 <= QQ(c) < 1 for c in sol):
            count += 1
    return count


def reference_lp_max(n, objective, ineqs=(), eqs=()):
    """Reference for :func:`tropint._simplex.lp_max`: the two-phase simplex
    on a tableau of rationals, with the same Bland pivot rule.

    Maximize objective . x over {x in Q^n : a.x >= r for (a, r) in ineqs,
    a.x == r for (a, r) in eqs}.

    Free variables are split into differences of nonnegative ones and
    inequalities get surplus variables, giving a standard-form program.
    """
    ncols = 2 * n + len(ineqs)

    def widen(coeffs):
        row = [QQ(a) for a in coeffs]
        return row + [-c for c in row]

    rows = []
    rhs = []
    for i, (a, r) in enumerate(ineqs):
        row = widen(a) + [_ZERO] * len(ineqs)
        row[2 * n + i] = -_ONE
        rows.append(row)
        rhs.append(QQ(r))
    for a, r in eqs:
        rows.append(widen(a) + [_ZERO] * len(ineqs))
        rhs.append(QQ(r))
    cost = widen(objective) + [_ZERO] * len(ineqs)

    status, values = _reference_simplex(rows, rhs, cost, ncols)
    if status != OPTIMAL:
        return status, None, None
    point = tuple(values[j] - values[n + j] for j in range(n))
    value = sum(QQ(c) * x for c, x in zip(objective, point))
    return OPTIMAL, value, point


def _reference_simplex(rows, rhs, cost, ncols):
    """Maximize cost . y subject to rows @ y = rhs, y >= 0."""
    m = len(rows)
    if m == 0:
        if any(c > 0 for c in cost):
            return UNBOUNDED, None
        return OPTIMAL, [_ZERO] * ncols

    tab = []
    for row, b0 in zip(rows, rhs):
        r = list(row)
        b = QQ(b0)
        if b < 0:
            r = [-x for x in r]
            b = -b
        tab.append(r + [_ZERO] * m + [b])
    for i in range(m):
        tab[i][ncols + i] = _ONE
    basis = [ncols + i for i in range(m)]
    total = ncols + m

    phase1 = [_ZERO] * ncols + [-_ONE] * m
    value = _reference_optimize(tab, basis, phase1, total)
    assert value is not None  # the phase-1 objective is bounded above by 0
    if value < 0:
        return INFEASIBLE, None

    # Drive leftover artificial variables out of the basis.
    for i in range(m - 1, -1, -1):
        if basis[i] >= ncols:
            pivot_col = next((j for j in range(ncols) if tab[i][j] != 0), None)
            if pivot_col is None:
                del tab[i]
                del basis[i]
            else:
                _reference_pivot(tab, basis, i, pivot_col)
    for row in tab:
        del row[ncols:ncols + m]

    value = _reference_optimize(tab, basis, list(cost), ncols)
    if value is None:
        return UNBOUNDED, None
    values = [_ZERO] * ncols
    for i, b in enumerate(basis):
        values[b] = tab[i][-1]
    return OPTIMAL, values


def _reference_optimize(tab, basis, cost, total):
    """Run simplex pivots until optimal or unbounded (returns None).

    The reduced-cost row z (with -value in the last slot) is updated by the
    same row operations as the tableau.
    """
    m = len(tab)
    z = list(cost) + [_ZERO]
    for i, b in enumerate(basis):
        cb = cost[b]
        if cb != 0:
            row = tab[i]
            z = [a - cb * x for a, x in zip(z, row)]
    in_basis = bytearray(total)
    for b in basis:
        in_basis[b] = 1
    while True:
        entering = -1
        for j in range(total):
            if not in_basis[j] and z[j] > 0:
                entering = j
                break
        if entering < 0:
            return -z[-1]
        leaving = -1
        best = None
        for i in range(m):
            a = tab[i][entering]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving < 0:
            return None
        in_basis[basis[leaving]] = 0
        in_basis[entering] = 1
        _reference_pivot(tab, basis, leaving, entering)
        f = z[entering]
        if f != 0:
            pr = tab[leaving]
            z = [a - f * x for a, x in zip(z, pr)]


def _reference_pivot(tab, basis, row, col):
    pv = tab[row][col]
    if pv != 1:
        tab[row] = [x / pv for x in tab[row]]
    pr = tab[row]
    for i in range(len(tab)):
        if i != row:
            f = tab[i][col]
            if f != 0:
                tab[i] = [a - f * b for a, b in zip(tab[i], pr)]
    basis[row] = col
