"""Independent brute-force oracles shared by the test modules, and the
helpers the tests share that no path of the library needs."""

from tropint._simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult, lp_max
from tropint.cycles import (
    Cycle,
    WeightedComplex,
    cartesian_product,
    rn_cycle,
    standard_skeleton,
    translate,
)
from tropint.divisors import (
    CartierDivisor,
    PiecewisePL,
    TropicalPolynomial,
    _form_on_cell,
    divisor_chain,
    linearize_many,
    pl_rep,
)
from tropint.kernel import (
    QQ,
    clear_denominators,
    dot,
    hnf_basis,
    identity_matrix,
    int_vector,
    mat_vec,
    rat_parts,
    smith_normal_form,
    solve_rational,
    transpose,
    vec_add,
    vec_gcd,
    vec_scale,
)
from tropint.morphisms import IntegerLinearMap, Morphism, image_cell, push_forward
from tropint.polyhedra import (
    AffineForm,
    Cell,
    _eliminate,
    _relint_lp,
    _split_piece,
    cell_contains_cell,
    collect_hyperplanes,
    form_from_rational,
    form_vanishes_on,
    hyperplane_form,
    intersect,
    point_cell,
    product_cell,
    ray_cell,
    refine_cell,
    segment_cell,
    strict_point,
)
from tropint.rn_products import degree, diagonal_divisors, stable_intersect

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


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def reference_lp_max(n, objective, ineqs=(), eqs=(), start=None):
    """Maximize objective . x over {x in Q^n : a.x >= r for (a, r) in ineqs,
    a.x == r for (a, r) in eqs} on a tableau of rationals, with Bland's
    pivot rule; returns (status, value, point).

    With a ``start`` that satisfies every row (and no equality), this is
    the reference for :func:`tropint._simplex.lp_max`: one phase from the
    surplus basis of x = start + y+ - y-, where row i reads
    s_i - a.(y+ - y-) = a.start - r.  Without one, it is the two-phase
    simplex: free variables are split into differences of nonnegative ones,
    inequalities get surplus variables, and phase 1 finds a feasible basis
    over artificial variables.
    """
    def widen(coeffs):
        row = [QQ(a) for a in coeffs]
        return row + [-c for c in row]

    if start is not None:
        return _reference_from_start(n, objective, ineqs, eqs, start, widen)
    ncols = 2 * n + len(ineqs)

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


def _reference_from_start(n, objective, ineqs, eqs, start, widen):
    """The one-phase simplex of :func:`reference_lp_max` from ``start``."""
    if eqs:
        raise ValueError("a start point goes with inequalities only")
    m = len(ineqs)
    start = [QQ(x) for x in start]
    tab = []
    for i, (a, r) in enumerate(ineqs):
        b = sum(QQ(x) * s for x, s in zip(a, start)) - QQ(r)
        if b < 0:
            raise ValueError(f"the start point breaks row {i}")
        unit = [_ONE if j == i else _ZERO for j in range(m)]
        tab.append([-x for x in widen(a)] + unit + [b])
    basis = [2 * n + i for i in range(m)]
    if _reference_optimize(tab, basis, widen(objective) + [_ZERO] * m, 2 * n + m) is None:
        return UNBOUNDED, None, None
    y = [_ZERO] * (2 * n + m)
    for i, b in enumerate(basis):
        y[b] = tab[i][-1]
    point = tuple(s + y[j] - y[n + j] for j, s in enumerate(start))
    return OPTIMAL, sum(QQ(c) * x for c, x in zip(objective, point)), point


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
                _reference_pivot(tab, i, pivot_col)
                basis[i] = pivot_col
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
        _reference_pivot(tab, leaving, entering)
        basis[leaving] = entering
        f = z[entering]
        if f != 0:
            pr = tab[leaving]
            z = [a - f * x for a, x in zip(z, pr)]


def _reference_pivot(tab, row, col):
    pv = tab[row][col]
    if pv != 1:
        tab[row] = [x / pv for x in tab[row]]
    pr = tab[row]
    for i in range(len(tab)):
        if i != row:
            f = tab[i][col]
            if f != 0:
                tab[i] = [a - f * b for a, b in zip(tab[i], pr)]


def reference_slack_lp(plain, slack, elim, start=None):
    """:func:`~tropint.polyhedra._slack_lp` with rational rows: each form f
    is read as its rational line d f(x) = A . z + G over the solutions
    x = (c + sum_j z_j ws[j]) / d of the elimination, and a slack row is
    A . z + G - d t >= 0.  The library's integer rows are these times a
    positive factor, so the simplex makes the same pivots on both."""
    if elim is None:
        return LPResult(INFEASIBLE)
    c, ws, d, free = elim[:4]
    k = len(ws)

    def line(f):
        return tuple(dot(f.linear, w) for w in ws), dot(f.linear, c) + d * f.constant

    plain, slack = [line(f) for f in plain], [line(f) for f in slack]
    z0 = (0,) * k if start is None else tuple(start[j] for j in free)
    t0 = min([QQ(1)] + [QQ(dot(A, z0) + G, d) for A, G in slack])
    ineqs = [(A + (0,), -G) for A, G in plain] + [(A + (-d,), -G) for A, G in slack]
    ineqs.append(((0,) * k + (-1,), -1))
    res = lp_max(k + 1, (0,) * k + (1,), ineqs=ineqs, start=z0 + (t0,))
    if res.status == OPTIMAL:
        z = res.point[:k]
        res.point = tuple(QQ(ci + sum(zj * w[i] for zj, w in zip(z, ws)), d)
                          for i, ci in enumerate(c))
    return res


# -- rational Gauss elimination ----------------------------------------------
# References for the fraction-free routines of tropint.kernel: Gauss-Jordan
# elimination on Fractions, with pivots scaled to one.


def reference_interval(lines):
    """The z with alpha z + gamma >= 0 for every (alpha, gamma), with
    rational alpha and gamma, as (lo, hi) with None on an unbounded side,
    or None when there is none: each root -gamma / alpha as a rational."""
    lo = hi = None
    for alpha, gamma in lines:
        if alpha > 0:
            b = -gamma / alpha
            if lo is None or b > lo:
                lo = b
        elif alpha < 0:
            b = -gamma / alpha
            if hi is None or b < hi:
                hi = b
        elif gamma < 0:
            return None
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


def reference_mat_rank(rows):
    """Rank of a matrix with int/rational entries."""
    work = [[QQ(x) for x in row] for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(work)):
            if work[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][col]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                f = work[i][col] / pv
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return rank


def reference_solve_rational(rows, rhs):
    """One rational solution x of rows @ x = rhs with free variables zero,
    or None if the system is inconsistent."""
    m = [[QQ(x) for x in row] + [QQ(r)] for row, r in zip(rows, rhs)]
    if not m:
        return ()
    ncols = len(rows[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(m)):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        m[rank] = [a / pv for a in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, len(m)):
        if m[i][ncols] != 0:
            return None
    x = [QQ(0)] * ncols
    for r, col in enumerate(pivots):
        x[col] = m[r][ncols]
    return tuple(x)


def reference_mat_det(rows):
    """Exact determinant of a square int/rational matrix."""
    n = len(rows)
    work = [[QQ(x) for x in row] for row in rows]
    det = QQ(1)
    for col in range(n):
        pivot = None
        for i in range(col, n):
            if work[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            return QQ(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        pv = work[col][col]
        det *= pv
        for i in range(col + 1, n):
            if work[i][col] != 0:
                f = work[i][col] / pv
                work[i] = [a - f * b for a, b in zip(work[i], work[col])]
    return det


def reference_integer_solve(rows, rhs):
    """One integer solution x of rows @ x = rhs, or None, by the Smith
    decomposition S = U @ rows @ V: solve S y = U rhs entry by entry and
    return V y."""
    if not rows:
        return ()
    ncols = len(rows[0])
    s, u, v = smith_normal_form(rows)
    ub = mat_vec(u, rhs)
    y = [0] * ncols
    r = min(len(rows), ncols)
    for i in range(len(rows)):
        d = s[i][i] if i < r else 0
        if d == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % d != 0:
                return None
            if i < ncols:
                y[i] = ub[i] // d
    return mat_vec(v, y)


def reference_kernel_lattice(rows, ncols):
    """HNF basis of the integer kernel of rows, from the columns of V in
    the Smith decomposition S = U @ rows @ V beyond the rank."""
    if not rows:
        return hnf_basis(identity_matrix(ncols)) if ncols else ()
    s, _, v = smith_normal_form(rows)
    r = sum(1 for i in range(min(len(rows), ncols)) if s[i][i] != 0)
    return hnf_basis(transpose(v)[r:]) if r < ncols else ()


def reference_coordinates(basis, v):
    """Integer coordinates of v in a lattice basis (independent rows), from
    the unique rational solution, or None if v is outside the lattice."""
    if not basis.vectors:
        return () if all(x == 0 for x in v) else None
    sol = reference_solve_rational(transpose(basis.vectors), v)
    if sol is None or any(c.denominator != 1 for c in sol):
        return None
    return tuple(int(c) for c in sol)


def reference_lattice_index(matrix, source, target):
    """|det| of the images of the source basis written in the target
    basis: the index of the image of source inside target."""
    coords = [reference_coordinates(target, mat_vec(matrix, b)) for b in source.vectors]
    if None in coords:
        raise ValueError("image vector lies outside the target lattice")
    return abs(int(reference_mat_det(coords)))


def rational_rref(rows, n):
    """Reduced row echelon form of affine equality rows (a, c) ~ a.x + c = 0.

    Unique for the affine subspace they cut out; rows are returned with
    rational entries, pivots first.
    """
    work = [[QQ(x) for x in lin] + [QQ(c)] for lin, c in rows]
    rank = 0
    pivots = []
    for col in range(n):
        piv = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pv = work[rank][col]
        work[rank] = [a / pv for a in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        pivots.append(col)
        rank += 1
    return [(tuple(row[:n]), row[n]) for row in work[:rank]]


def rational_coset_representative(form, eq_rows):
    """Canonical coset representative of a form modulo the equality rows."""
    lin = [QQ(a) for a in form.linear]
    c = QQ(form.constant)
    for rlin, rc in eq_rows:
        piv = next((i for i, a in enumerate(rlin) if a != 0), None)
        if piv is None or lin[piv] == 0:
            continue
        f = lin[piv] / QQ(rlin[piv])
        lin = [a - f * QQ(b) for a, b in zip(lin, rlin)]
        c = c - f * rc
    return form_from_rational(lin, c).scaled_primitive()


def reference_canonical_key(cell):
    """Cell.canonical_key computed with rational elimination.

    An inequality is dropped as redundant when the others and the
    equalities bound it below by zero, decided by an uncapped LP.
    """
    n = cell.ambient_dim
    eq_rows = rational_rref([(f.linear, f.constant) for f in cell.eqs], n)
    canon_eqs = [form_from_rational(lin, c) for lin, c in eq_rows]
    reduced = {}
    for g in cell.ineqs:
        h = rational_coset_representative(g, eq_rows)
        reduced.setdefault(h.sort_key(), h)
    kept = [reduced[k] for k in sorted(reduced)]
    for g in list(kept):
        others = [h for h in kept if h is not g]
        status, value, _ = reference_lp_max(
            n, tuple(-a for a in g.linear), ineqs=[(h.linear, -h.constant) for h in others],
            eqs=[(e.linear, -e.constant) for e in canon_eqs])
        if status == OPTIMAL and g.constant - value >= 0:
            kept.remove(g)
    return (n, cell.dim,
            tuple(f.sort_key() for f in canon_eqs),
            tuple(sorted(f.sort_key() for f in kept)))


# -- faces, ridges and linearity regions by general construction -------------


def reference_faces_of_codim_one(cell):
    """Faces of dimension dim - 1, each built from all of the cell's
    constraints plus one inequality as an equality, with implied equalities
    found by probing, deduplicated and sorted by canonical key."""
    found = {}
    for g in cell.ineqs:
        face = Cell.try_from_constraints(cell.ambient_dim, cell.ineqs, cell.eqs + (g,))
        if face is not None and face.dim == cell.dim - 1:
            found.setdefault(face.canonical_key, face)
    return tuple(found[k] for k in sorted(found))


def reference_ridges(cx):
    """Ridges of a weighted complex matched by canonical key: a dict from
    the key of each ridge to the indices of its adjacent maximal cells."""
    table = {}
    for idx, cell in enumerate(cx.cells):
        for face in reference_faces_of_codim_one(cell):
            table.setdefault(face.canonical_key, []).append(idx)
    return {k: tuple(v) for k, v in table.items()}


def reference_linearity_regions(cell, terms):
    """(region, term index) for each term of a max-polynomial that is
    maximal on a part of the cell of full dimension, each region built as a
    new cell from the cell's constraints and the term differences; ties go
    to the lowest index.  A difference that is constant on the cell's hull
    adds no constraint: the region keeps the cell's equalities."""
    n = cell.ambient_dim
    out = []
    for i, term in enumerate(terms):
        diffs = tuple(
            AffineForm(tuple(a - b for a, b in zip(term.linear, other.linear)),
                       term.constant - other.constant)
            for j, other in enumerate(terms) if j != i)
        region = Cell.try_from_constraints(n, cell.ineqs + diffs, cell.eqs)
        if region is None or region.dim != cell.dim:
            continue
        values = [t.value_at(region.interior_point) for t in terms]
        if values.index(max(values)) != i:
            continue
        out.append((region, i))
    return out


# -- refinement by an arrangement -------------------------------------------


def sign_vector(cell, forms):
    """Signs of the arrangement forms at the cell's interior point.

    The reference for the signs :func:`refine_cell` returns: on a piece of
    a refinement along these forms, a zero at the interior point certifies
    that the form vanishes identically on the piece.
    """
    p = cell.interior_point
    out = []
    for f in forms:
        v = f.value_at(p)
        out.append(0 if v == 0 else (1 if v > 0 else -1))
    return tuple(out)


def reference_refine_cell(cell, forms):
    """Refinement that probes every form not vanishing on a piece.

    No box cull: each such form costs an LP per piece, and a form one-sided
    on a piece is appended to it as a redundant inequality.
    """
    pieces = [cell]
    for f in forms:
        out = []
        for c in pieces:
            if form_vanishes_on(c, f):
                out.append(c)
                continue
            val = f.value_at(c.interior_point)
            if val > 0:
                pos = c._replace_geometry(ineqs=c.ineqs + (f,))
                neg = _split_piece(c, (f.negated(),))
            elif val < 0:
                pos = _split_piece(c, (f,))
                neg = c._replace_geometry(ineqs=c.ineqs + (f.negated(),))
            else:
                pos = _split_piece(c, (f,))
                neg = _split_piece(c, (f.negated(),))
            out += [p for p in (pos, neg) if p is not None]
        pieces = out
    return pieces


def reference_refine_interval(cell, forms):
    """:func:`~tropint.polyhedra.refine_cell` on a cell of dimension one,
    read in rationals: each form's line d f(x) = a z + G over the cell's
    elimination x = (c + z w) / d, the cell's interval of z from
    :func:`reference_interval`, and each crossing -G / a as a rational.

    The cuts are the distinct crossings strictly inside the interval,
    sorted.  Each piece adds the first form crossing at each of its inner
    ends, oriented to be >= 0 on it, and its point is at z the midpoint of
    its interval, one step from its finite end, or 0.  A crossing's rank
    is the number of pieces below it (0 at or below lo, m + 1 at or above
    hi), and a form's sign on piece i is sign(a) when i >= rank, else
    -sign(a); a form with a = 0 keeps sign(G).  Returns (piece, signs)
    pairs."""
    elim = cell._elim
    c, (w,), d = elim[:3]

    def line(f):
        return dot(f.linear, w), dot(f.linear, c) + d * f.constant

    lo, hi = reference_interval([line(f) for f in cell.ineqs])
    lines = []
    for f in forms:
        a, G = line(f)
        lines.append((a, -G / a if a else (G > 0) - (G < 0)))
    cuts = sorted({z for a, z in lines if a and (lo is None or z > lo) and (hi is None or z < hi)})
    m = len(cuts)
    rank = {z: i + 1 for i, z in enumerate(cuts)}
    ranked = [(0, z) if a == 0 else
              (1 if a > 0 else -1, rank.get(z, 0 if lo is not None and z <= lo else m + 1))
              for a, z in lines]

    def signs(i):
        return tuple(v if s == 0 else (s if i >= v else -s) for s, v in ranked)

    def point(lo, hi):
        if lo is None and hi is None:
            z = _ZERO
        elif lo is None:
            z = hi - 1
        elif hi is None:
            z = lo + 1
        else:
            z = (lo + hi) / 2
        return tuple((ci + z * wi) / d for ci, wi in zip(c, w))

    if not cuts:
        return [(cell, signs(0))]
    above = {}
    for f, (s, r) in zip(forms, ranked):
        if s and 1 <= r <= m:
            above.setdefault(r, f if s > 0 else f.negated())
    pieces = []
    for i in range(m + 1):
        ineqs = cell.ineqs
        if i > 0:
            ineqs += (above[i],)
        if i < m:
            ineqs += (above[i + 1].negated(),)
        piece = cell._replace_geometry(
            ineqs=ineqs, interior_point=point(cuts[i - 1] if i else lo, cuts[i] if i < m else hi))
        pieces.append((piece, signs(i)))
    return pieces


def reference_cells_inside_support(cells, targets):
    """Whether each cell lies inside the union of the targets, deciding
    piece-in-target containment by LPs constraint by constraint."""
    forms = collect_hyperplanes(targets)
    return all(any(cell_contains_cell(t, piece) for t in targets)
               for cell in cells for piece in reference_refine_cell(cell, forms))


def reference_is_pn_generic(c: Cycle) -> bool:
    """Whether the recession cone of every piece of the cycle, refined along
    the standard skeleton's hyperplanes, lies in a cone of the skeleton,
    deciding containment by LPs constraint by constraint."""
    if c.is_empty:
        return True
    cones = standard_skeleton(c.ambient_dim, c.dim).complex.cells
    forms = collect_hyperplanes(cones)
    return all(any(cell_contains_cell(cone, piece.recession_cone()) for cone in cones)
               for cell in c.complex.cells for piece in reference_refine_cell(cell, forms))


def reference_is_bounded_on(phi, c: Cycle) -> bool:
    """Whether, on every cell of a linearization, the linear part of the
    function has no point of either sign on the recession cone: two LPs
    per cell."""
    if c.is_empty:
        return True
    cx, (forms,) = linearize_many([phi], c.complex)
    for cell, form in zip(cx.cells, forms):
        rec = cell.recession_cone()
        lam = AffineForm(form.linear, 0)
        if strict_point(rec, lam) is not None or strict_point(rec, lam.negated()) is not None:
            return False
    return True


def refine_complex(c: WeightedComplex, forms) -> WeightedComplex:
    """Refine every maximal cell along a hyperplane arrangement.

    The arrangement is extended by all defining forms of the complex, which
    keeps the output a complex and makes sign vectors over it identify
    pieces; weights are inherited from the original cells.
    """
    extended = {h.sort_key(): h for h in collect_hyperplanes(c.cells)}
    for h in forms:
        extended.setdefault(h.sort_key(), h)
    arrangement = tuple(extended[k] for k in sorted(extended))
    out = {}
    for cell, w in zip(c.cells, c.weights):
        for piece, _ in refine_cell(cell, arrangement):
            key = sign_vector(piece, arrangement)
            if key in out:
                raise ValueError("refinement produced a duplicate piece; "
                                 "input cells overlap in full dimension")
            out[key] = (piece, w)
    items = sorted(out.items())
    return WeightedComplex(c.ambient_dim, c.dim,
                           [p for _, (p, _) in items], [w for _, (_, w) in items])


def refine_by_arrangement(cells, forms):
    """Refine several cells by a common hyperplane arrangement.

    Equal pieces arising from overlapping input cells are deduplicated by
    their canonical constraint systems, so the arrangement may be any set
    of hyperplanes.
    """
    out = {}
    for cell in cells:
        for piece, _ in refine_cell(cell, forms):
            out.setdefault(piece.canonical_key, piece)
    return [out[k] for k in sorted(out)]


def common_refinement(a, b):
    """Refine two weighted complexes along the union of their defining forms.

    Cells of the results coincide over the common support.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    forms = collect_hyperplanes(a.cells + b.cells)
    return refine_complex(a, forms), refine_complex(b, forms)


def reference_weighted_sum(ambient_dim, dim, entries) -> Cycle:
    """:func:`~tropint.cycles._weighted_sum` by the arrangement route in
    every dimension, points included: every cell refined along the
    hyperplanes of all of them, pieces matched by the sign vectors
    :func:`refine_cell` returns, the first piece of each sign vector
    standing for it, in sorted key order."""
    forms = collect_hyperplanes([cell for cell, _ in entries])
    table = {}
    for cell, w in entries:
        for piece, signs in refine_cell(cell, forms):
            table.setdefault(signs, [piece, 0])[1] += w
    kept = [table[key] for key in sorted(table)]
    out = WeightedComplex(ambient_dim, dim, [p for p, _ in kept], [w for _, w in kept])
    return Cycle(out, check=False)


def reference_push_forward(matrix, cycle):
    """Push-forward that weights every refinement piece by its own lattice
    index: the images of the cells on which the map is injective, refined
    along all their hyperplanes, pieces matched by sign vector, each adding
    source weight * [piece lattice : image of source lattice]."""
    entries = []
    for cell, w in zip(cycle.complex.cells, cycle.complex.weights):
        img = image_cell(matrix, cell)
        if img is not None:
            entries.append((cell, w, img))
    forms = collect_hyperplanes([img for _, _, img in entries])
    table = {}
    for cell, w, img in entries:
        for piece, _ in refine_cell(img, forms):
            entry = table.setdefault(sign_vector(piece, forms), [piece, 0])
            entry[1] += w * reference_lattice_index(matrix, cell.direction_lattice,
                                                    piece.direction_lattice)
    kept = [table[key] for key in sorted(table) if table[key][1] != 0]
    out = WeightedComplex(len(matrix), cycle.dim, [p for p, _ in kept], [w for _, w in kept])
    return Cycle(out, check=False)


# -- Fourier-Motzkin projection ----------------------------------------------


def linear_image_cell(matrix, cell):
    """Image of a cell under an integer linear map, via variable elimination.

    Works for maps that drop dimension on the cell as well as injective ones.
    """
    m = len(matrix)
    n = cell.ambient_dim
    # Lift to {(y, x) : x in cell, y = M x} and eliminate the x block.
    ineqs = [((0,) * m + tuple(f.linear), f.constant) for f in cell.ineqs]
    eqs = [((0,) * m + tuple(f.linear), f.constant) for f in cell.eqs]
    for i in range(m):
        row = [0] * m
        row[i] = 1
        eqs.append((tuple(row) + tuple(-x for x in matrix[i]), QQ(0)))
    ineqs, eqs = _eliminate_last(m + n, n, ineqs, eqs)
    return Cell.from_constraints(
        m,
        [form_from_rational(lin, c) for lin, c in ineqs],
        [form_from_rational(lin, c) for lin, c in eqs])


def _eliminate_last(nvars, count, ineqs, eqs):
    """Fourier-Motzkin elimination of the trailing `count` variables."""
    for j in range(nvars - 1, nvars - count - 1, -1):
        pivot = next((e for e in eqs if e[0][j] != 0), None)
        if pivot is not None:
            eqs = [_subst(e, pivot, j) for e in eqs if e is not pivot]
            ineqs = [_subst(f, pivot, j) for f in ineqs]
        else:
            pos = [f for f in ineqs if f[0][j] > 0]
            neg = [f for f in ineqs if f[0][j] < 0]
            zero = [f for f in ineqs if f[0][j] == 0]
            combos = []
            for fp in pos:
                for fn in neg:
                    lin = tuple(QQ(a) * -fn[0][j] + QQ(b) * fp[0][j]
                                for a, b in zip(fp[0], fn[0]))
                    combos.append((lin, QQ(fp[1]) * -fn[0][j] + QQ(fn[1]) * fp[0][j]))
            ineqs = zero + combos
        seen = {}
        for lin, c in ineqs:
            key = (tuple(lin), rat_parts(c))
            seen.setdefault(key, (lin, c))
        ineqs = list(seen.values())
    trim = nvars - count
    return ([(lin[:trim], c) for lin, c in ineqs],
            [(lin[:trim], c) for lin, c in eqs])


def _subst(constraint, pivot, j):
    """Eliminate variable j from a constraint using an equality pivot."""
    lin, c = constraint
    plin, pc = pivot
    if lin[j] == 0:
        return (tuple(QQ(a) for a in lin), QQ(c))
    factor = QQ(lin[j]) / QQ(plin[j])
    return (tuple(QQ(a) - factor * QQ(b) for a, b in zip(lin, plin)),
            QQ(c) - factor * QQ(pc))


# -- lattice normals through coordinates in the facet lattice ----------------


def reference_quotient_generator(sub, sup):
    """A generator of sup/sub from the coordinates of sub in a basis of sup:
    a saturation test (the kernel of the kernel), the primitive covector on
    Z^r vanishing on those coordinates and an integer solution of w . u = 1."""
    if sup.rank != sub.rank + 1:
        raise ValueError(f"rank mismatch: sub rank {sub.rank}, super rank {sup.rank}")
    r = sup.rank
    coords = []
    for v in sub.vectors:
        c = reference_coordinates(sup, v)
        if c is None:
            raise ValueError("sub is not contained in super")
        coords.append(c)
    if r == 1:
        return sup.vectors[0]
    if hnf_basis(coords) != reference_kernel_lattice(reference_kernel_lattice(coords, r), r):
        raise ValueError("torsion in quotient: sublattice is not saturated")
    (w,) = reference_kernel_lattice(coords, r)
    u_coord = reference_integer_solve([list(primitive_part(w))], (1,))
    out = [0] * sup.ambient_dim
    for c, b in zip(u_coord, sup.vectors):
        out = [a + c * x for a, x in zip(out, b)]
    return tuple(out)


def reference_normal_vector(facet, ridge):
    """The lattice normal as a generator of the facet lattice modulo the
    ridge lattice, turned to the side where a tight facet inequality that
    does not vanish on it is positive."""
    if ridge.dim != facet.dim - 1 or not facet.contains_point(ridge.interior_point):
        raise ValueError("ridge is not a codimension-one face of the facet")
    u = reference_quotient_generator(ridge.direction_lattice, facet.direction_lattice)
    for f in facet.ineqs:
        if f.value_at(ridge.interior_point) == 0:
            pairing = f.eval_direction(u)
            if pairing != 0:
                return tuple(-x for x in u) if pairing < 0 else u
    raise ValueError("no facet inequality is tight on the ridge")


def projection_map(n: int) -> IntegerLinearMap:
    """(x, y) -> x from R^{2n} to R^n."""
    rows = [tuple(1 if j == i else 0 for j in range(2 * n)) for i in range(n)]
    return IntegerLinearMap(tuple(rows))


def reference_stable_intersect(c, d):
    """Stable intersection through the full product: all n diagonal
    divisors on every cell of C x D, then the first projection."""
    n = c.ambient_dim
    k, l = c.dim, d.dim
    if c.is_empty or d.is_empty or k + l < n:
        return Cycle.empty(n, k + l - n)
    cut = divisor_chain(diagonal_divisors(n), cartesian_product(c, d))
    if cut.is_empty:
        return Cycle.empty(n, k + l - n)
    return push_forward(Morphism(projection_map(n), cut, rn_cycle(n)))


def diagonal_stable_intersect(c, d):
    """Stable intersection through the diagonal, local to it: the n diagonal
    divisors on the product cells sigma x tau with sigma meeting tau only,
    then the final cells on the diagonal pushed forward.

    A Weil divisor's weight at a ridge depends only on the cells containing
    that ridge, so a cell of psi_k ... psi_1 . (C x D) that meets the
    diagonal takes its weight from cells of the previous stage that meet it
    too; the weights of every cell meeting the diagonal come out as on the
    full product (:func:`reference_stable_intersect`).  The truncation
    leaves boundary junk on cells that never meet the diagonal, which the
    last stage drops by one test of an interior point against x = y.
    """
    n = c.ambient_dim
    k, l = c.dim, d.dim
    if c.is_empty or d.is_empty or k + l < n:
        return Cycle.empty(n, k + l - n)
    a, b = c.complex, d.complex
    cells, weights = [], []
    for sigma, ws in zip(a.cells, a.weights):
        for tau, wt in zip(b.cells, b.weights):
            if _cells_meet(sigma, tau):
                cells.append(product_cell(sigma, tau))
                weights.append(ws * wt)
    local = Cycle(WeightedComplex(2 * n, k + l, cells, weights), check=False)
    cut = _on_diagonal(divisor_chain(diagonal_divisors(n), local))
    if cut.is_empty:
        return Cycle.empty(n, k + l - n)
    return push_forward(Morphism(projection_map(n), cut, rn_cycle(n)))


def _cells_meet(sigma, tau) -> bool:
    """Whether two closed cells of one R^n meet; two cones meet at the
    origin, anything else takes one feasibility question
    (``polyhedra._relint_lp``), read from an interval with no program when
    the equalities of both leave at most one free variable."""
    forms = sigma.ineqs + sigma.eqs + tau.ineqs + tau.eqs
    if all(f.constant == 0 for f in forms):
        return True
    eqs = sigma.eqs + tau.eqs
    point, _ = _relint_lp(sigma.ineqs + tau.ineqs, _eliminate(sigma.ambient_dim, eqs))
    return point is not None


def _on_diagonal(cut: Cycle) -> Cycle:
    """The cells of a cycle in R^n x R^n whose interior point has x = y.

    On a cut of the truncated product a cell with nonzero weight either
    lies in the diagonal or misses it, so the interior point decides.
    """
    n = cut.ambient_dim // 2
    kept = [(cell, w) for cell, w in zip(cut.complex.cells, cut.complex.weights)
            if cell.interior_point[:n] == cell.interior_point[n:]]
    return Cycle(WeightedComplex(cut.ambient_dim, cut.dim,
                                 [cell for cell, _ in kept], [w for _, w in kept]),
                 check=False)


def transversal_intersection(c, d):
    """Mikhalkin's count for plane curves that meet transversally: the points
    where an edge of each crosses, interior to both, weighted by the sum of
    m m' |det(u, u')| over the crossing pairs of weights m, m' and primitive
    directions u, u'.  Returns {point: weight} with zero weights dropped, or
    None when two edges meet anywhere else: at an end of one, or along a
    common segment."""
    points = {}
    for sigma, m in zip(c.complex.cells, c.complex.weights):
        for tau, m2 in zip(d.complex.cells, d.complex.weights):
            (u,), (u2,) = sigma.direction_lattice.vectors, tau.direction_lattice.vectors
            det = u[0] * u2[1] - u[1] * u2[0]
            if det == 0:
                if intersect(sigma, tau) is not None:
                    return None
                continue
            eqs = sigma.eqs + tau.eqs
            p = solve_rational([f.linear for f in eqs], [-f.constant for f in eqs])
            values = [h.value_at(p) for h in sigma.ineqs + tau.ineqs]
            if any(x < 0 for x in values):
                continue
            if any(x == 0 for x in values):
                return None
            points[p] = points.get(p, 0) + m * m2 * abs(det)
    return {p: w for p, w in points.items() if w != 0}


def twice_hull_area(points):
    """Twice the area of the convex hull of integer points in the plane, an
    integer: Andrew's monotone chain, then the shoelace formula."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return 0

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    hull = []
    for seq in (pts, pts[::-1]):
        chain = []
        for p in seq:
            while len(chain) >= 2 and turn(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        hull.extend(chain[:-1])
    return abs(sum(hull[i - 1][0] * hull[i][1] - hull[i][0] * hull[i - 1][1]
                   for i in range(len(hull))))


def mixed_area(p, q):
    """The mixed area MV(P, Q) = area(P + Q) - area(P) - area(Q) of the
    convex hulls of two sets of integer points in the plane, exactly and
    with no tropint code.  Bernstein's count: the stable intersection of
    the curves of two max-polynomials with supports P and Q has degree
    MV(P, Q), with no genericity assumption."""
    twice = (twice_hull_area([(a + c, b + d) for a, b in p for c, d in q])
             - twice_hull_area(p) - twice_hull_area(q))
    if twice % 2:
        raise ArithmeticError("odd twice mixed area")
    return twice // 2


# -- small accessors ---------------------------------------------------------


def weight_of(c: WeightedComplex, cell: Cell) -> int:
    """Weight of the maximal cell equal (as a set) to the given one."""
    key = cell.canonical_key
    for other, w in zip(c.cells, c.weights):
        if other.canonical_key == key:
            return w
    raise KeyError("cell is not a maximal cell of this complex")


def relative_interior_contains(cell: Cell, p) -> bool:
    """Whether p lies in the relative interior of the cell.  Valid with
    redundant inequalities present: after implied-equality migration every
    listed inequality is strict on the interior."""
    return (all(f.value_at(p) == 0 for f in cell.eqs)
            and all(f.value_at(p) > 0 for f in cell.ineqs))


def primitive_part(v):
    """Divide an integer vector by the gcd of its coordinates.

    The result generates the same ray as ``v`` and has coprime coordinates.
    Raises on the zero vector, which spans no ray.
    """
    v = int_vector(v)
    g = vec_gcd(v)
    if g == 0:
        raise ValueError("no primitive part of zero")
    return tuple(x // g for x in v)


def identity_map(n: int) -> IntegerLinearMap:
    return IntegerLinearMap(identity_matrix(n))


def compose_maps(g: IntegerLinearMap, f: IntegerLinearMap) -> IntegerLinearMap:
    """g after f."""
    return IntegerLinearMap(mat_mul(g.matrix, f.matrix))


# -- stars and translations ----------------------------------------------------


def star_fan(c: WeightedComplex, tau: Cell) -> WeightedComplex:
    """Fan of tangent cones at a cell, recentered at its interior point.

    Collects the maximal cells containing the cell and replaces each by the
    cone of directions entering it; weights are inherited.
    """
    p = tau.interior_point
    cones, weights = [], []
    for cell, w in zip(c.cells, c.weights):
        if cell.contains_point(p) and cell_contains_cell(cell, tau):
            cones.append(cell.tangent_cone(p))
            weights.append(w)
    if not cones:
        raise ValueError("cell does not belong to the complex")
    return WeightedComplex(c.ambient_dim, c.dim, cones, weights)


def translation_invariance_check(c: Cycle, d: Cycle, v1, v2) -> bool:
    """deg(C . D) is unchanged when both factors are translated."""
    if c.dim + d.dim != c.ambient_dim:
        raise ValueError("cycles do not have complementary dimensions")
    base = degree(stable_intersect(c, d))
    moved = degree(stable_intersect(translate(c, v1), translate(d, v2)))
    return base == moved


# -- piecewise-linear functions: equality and pointwise arithmetic -------------


def divisors_equal(a, b, cycle: Cycle) -> bool:
    """Equality in the Cartier group: the difference is globally affine.

    Builds the integer linear system expressing that one integer covector
    matches the per-cell differences on all cells and their positions, and
    decides solvability exactly.
    """
    if cycle.is_empty:
        return True
    cx, (fa, fb) = linearize_many([a, b], cycle.complex)
    n = cx.ambient_dim
    diffs = [
        (tuple(x - y for x, y in zip(pa.linear, pb.linear)), pa.constant - pb.constant)
        for pa, pb in zip(fa, fb)
    ]
    rows, rhs = [], []
    for cell, (dlam, _) in zip(cx.cells, diffs):
        for bvec in cell.direction_lattice.vectors:
            rows.append(bvec)
            rhs.append(dot(dlam, bvec))
    p0 = cx.cells[0].interior_point
    v0 = dot(diffs[0][0], p0) + diffs[0][1]
    for cell, (dlam, dc) in list(zip(cx.cells, diffs))[1:]:
        p = cell.interior_point
        coeffs = tuple(QQ(x) - QQ(y) for x, y in zip(p, p0))
        target = dot(dlam, p) + dc - v0
        scaled = clear_denominators(coeffs + (target,))
        rows.append(scaled[:n])
        rhs.append(scaled[n])
    sol = reference_integer_solve(rows, rhs) if rows else ()
    return sol is not None


def pl_add(a, b):
    """Pointwise sum of piecewise-linear functions.

    The sum of two max-polynomials is the max-polynomial of pairwise term
    sums; mixed cases fall back to a piecewise representation over
    intersections of the two domains.
    """
    fa, fb = pl_rep(a), pl_rep(b)
    if isinstance(fa, TropicalPolynomial) and isinstance(fb, TropicalPolynomial):
        terms = []
        for s in fa.terms:
            for t in fb.terms:
                terms.append(AffineForm(vec_add(s.linear, t.linear), s.constant + t.constant))
        return TropicalPolynomial(tuple(terms))
    pieces = []
    for ca, pa in _pieces_of(fa):
        for cb, pb in _pieces_of(fb):
            common = intersect(ca, cb)
            if common is not None:
                pieces.append((common, AffineForm(vec_add(pa.linear, pb.linear),
                                                  pa.constant + pb.constant)))
    return PiecewisePL._continuous(pieces)


def pl_negate(a):
    f = pl_rep(a)
    if isinstance(f, TropicalPolynomial) and len(f.terms) == 1:
        t = f.terms[0]
        return TropicalPolynomial((AffineForm(tuple(-x for x in t.linear), -t.constant),))
    return PiecewisePL._continuous(
        (cell, AffineForm(tuple(-x for x in form.linear), -form.constant))
        for cell, form in _pieces_of(f))


def pl_scale(a, m: int):
    f = pl_rep(a)
    if m < 0:
        return pl_negate(pl_scale(f, -m))
    if isinstance(f, TropicalPolynomial):
        return TropicalPolynomial(tuple(
            AffineForm(vec_scale(m, t.linear), m * t.constant) for t in f.terms))
    return PiecewisePL._continuous(
        (cell, AffineForm(vec_scale(m, form.linear), m * form.constant))
        for cell, form in f.pieces)


def _pieces_of(f):
    """An affine cell cover of the domain of the function."""
    if isinstance(f, PiecewisePL):
        return f.pieces
    space = Cell.full_space(len(f.terms[0].linear))
    forms = tuple(h for _, h in sorted(_function_hyperplanes(f).items()))
    return tuple((piece, _form_on_cell(f, piece)) for piece, _ in refine_cell(space, forms))


def _function_hyperplanes(phi):
    f = pl_rep(phi)
    forms = {}
    if isinstance(f, TropicalPolynomial):
        terms = f.terms
        for i in range(len(terms)):
            for j in range(i + 1, len(terms)):
                d = AffineForm(
                    tuple(a - b for a, b in zip(terms[i].linear, terms[j].linear)),
                    terms[i].constant - terms[j].constant)
                h = hyperplane_form(d)
                if h is not None:
                    forms.setdefault(h.sort_key(), h)
    else:
        for h in collect_hyperplanes([cell for cell, _ in f.pieces]):
            forms.setdefault(h.sort_key(), h)
    return forms


# -- bounded functions and zero cycles for degree-zero checks ----------------


def tent_function_on_line() -> CartierDivisor:
    """Bounded tent on the standard plane line: rises to 1 along the
    diagonal ray, constant elsewhere."""
    pieces = (
        (ray_cell((0, 0), (-1, 0)), AffineForm((0, 0), 0)),
        (ray_cell((0, 0), (0, -1)), AffineForm((0, 0), 0)),
        (segment_cell((0, 0), (1, 1)), AffineForm((1, 0), 0)),
        (ray_cell((1, 1), (1, 1)), AffineForm((0, 0), 1)),
    )
    return CartierDivisor(PiecewisePL(pieces))


def bump_function_on_r1() -> CartierDivisor:
    """Bounded bump on the line: slope 0, then 1 on [0, 1], then 0."""
    pieces = (
        (Cell.from_constraints(1, [AffineForm((-1,), 0)]), AffineForm((0,), 0)),
        (segment_cell((0,), (1,)), AffineForm((1,), 0)),
        (Cell.from_constraints(1, [AffineForm((1,), -1)]), AffineForm((0,), 1)),
    )
    return CartierDivisor(PiecewisePL(pieces))


def origin_cycle(n: int, weight: int = 1) -> Cycle:
    return Cycle(WeightedComplex(n, 0, [point_cell((0,) * n)], [weight]), check=False)
