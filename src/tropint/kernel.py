"""Exact rational arithmetic and integer lattice algebra.

Everything downstream (polyhedra, balancing checks, divisor weights) reduces
to exact linear algebra over Q and over Z.  Vectors are plain tuples,
matrices are tuples of row tuples; all scalars are either Python ints or
rationals of type ``QQ``.

All elimination over Q goes through one routine, :func:`echelon`:
fraction-free Gauss-Jordan elimination after Bareiss (Math. Comp. 22,
1968) on integer rows.  With M the input matrix (rows reordered and
negated as pivoting goes) and B its block of pivot rows and pivot
columns, the working matrix is T = det(B) * B^-1 M on the pivot rows and
det(B) times the Schur complement below them, so every entry is a minor
of M and each step, :func:`bareiss_pivot`, divides exactly by the
previous pivot.  The invariant: every pivot row has its pivot entry equal
to the last pivot d = det(B), so the pivot rows of T divided by d are the
reduced row echelon form.  The exact simplex in :mod:`._simplex` pivots
with the same step.

``QQ`` is ``fractions.Fraction``: exact, hashable and normalized to lowest
terms with positive denominator.  Integer entries are taken as they are and
never truncated: :func:`int_vector` rejects a non-integer one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as QQ
from math import gcd, lcm

IntVector = tuple  # tuple of ints
RatVector = tuple  # tuple of QQ / int
IntMatrix = tuple  # tuple of int row tuples


def rat_parts(x) -> tuple[int, int]:
    """(numerator, denominator) of a rational or int, as plain ints."""
    q = QQ(x)
    return int(q.numerator), int(q.denominator)


def int_vector(v) -> IntVector:
    """The entries of v as a tuple of ints.

    Ints pass as they are; any other number passes only if it is an integer
    (a rational with denominator 1), else ValueError.
    """
    out = []
    for x in v:
        if type(x) is not int:
            q = QQ(x)
            if q.denominator != 1:
                raise ValueError(f"non-integer entry {x}")
            x = q.numerator
        out.append(x)
    return tuple(out)


def dot(a, b):
    """Inner product of two equal-length vectors."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch {len(a)} vs {len(b)}")
    return sum(x * y for x, y in zip(a, b))


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_scale(c, a):
    return tuple(c * x for x in a)


def vec_gcd(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def clear_denominators(v) -> IntVector:
    """Scale a rational vector by the positive lcm of denominators."""
    m = lcm(*(QQ(x).denominator for x in v))
    return tuple(int(QQ(x) * m) for x in v)


def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def transpose(m):
    return tuple(zip(*m))


def bareiss_pivot(rows, r, col, d):
    """Fraction-free pivot on rows[r][col], in place; returns the new d.

    ``d`` is the previous pivot (1 at the start).  Every other row becomes
    (pv * row - row[col] * rows[r]) / d, a division that is exact because
    the entries before and after are minors of the original matrix.
    """
    pr = rows[r]
    pv = pr[col]
    for i in range(len(rows)):
        if i != r:
            ri = rows[i]
            f = ri[col]
            if f == 0:
                if pv != d:
                    rows[i] = [pv * a // d for a in ri]
            elif d == 1:
                rows[i] = [pv * a - f * b for a, b in zip(ri, pr)]
            else:
                rows[i] = [(pv * a - f * b) // d for a, b in zip(ri, pr)]
    return pv


def echelon(rows):
    """Fraction-free Gauss-Jordan elimination of an int/rational matrix.

    Returns ``(T, pivots, d)``: integer rows ``T``, the pivot columns in
    order and the last pivot ``d`` (1 when there is none).  ``T[k] / d``
    for ``k < len(pivots)`` are the rows of the reduced row echelon form,
    and the rows after them are zero.  Each input row is first cleared of
    denominators, which does not change the echelon form.  A row swap
    negates the row moved down, so for an integer square matrix of full
    rank ``d`` is its determinant.
    """
    work = []
    for row in rows:
        s = lcm(*(x.denominator for x in row))
        work.append([x.numerator * (s // x.denominator) for x in row])
    ncols = len(work[0]) if work else 0
    pivots = []
    d = 1
    for col in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        p = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if p is None:
            continue
        if p != r:
            work[r], work[p] = work[p], [-x for x in work[r]]
        d = bareiss_pivot(work, r, col, d)
        pivots.append(col)
    return work, pivots, d


def mat_rank(rows) -> int:
    """Rank of a matrix with int/rational entries."""
    return len(echelon(rows)[1])


def solve_rational(rows, rhs):
    """One rational solution x of ``rows @ x = rhs``, or None if inconsistent.

    ``rows`` is a list of coefficient rows; the system may be under- or
    overdetermined.  Free variables are set to zero.
    """
    if not rows:
        return ()
    ncols = len(rows[0])
    t, pivots, d = echelon([(*row, r) for row, r in zip(rows, rhs)])
    if pivots and pivots[-1] == ncols:
        return None
    x = [QQ(0)] * ncols
    for row, col in zip(t, pivots):
        x[col] = QQ(row[ncols], d)
    return tuple(x)


def mat_det(rows) -> int:
    """Exact determinant of a square integer matrix.

    Integer entries only: :func:`echelon` clears each row of denominators,
    which would scale the determinant of a rational matrix.
    """
    if any(x.denominator != 1 for row in rows for x in row):
        raise ValueError("mat_det takes an integer matrix")
    _, pivots, d = echelon(rows)
    return d if len(pivots) == len(rows) else 0


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form with unimodular transform.

    Returns ``(H, U)`` with ``H = U @ m``, ``U`` unimodular, ``H`` in row
    echelon form with positive pivots and entries above each pivot reduced
    to ``[0, pivot)``.  The rows of ``H`` generate the same lattice as the
    rows of ``m``.
    """
    h = [list(int_vector(row)) for row in m]
    nrows = len(h)
    ncols = len(h[0]) if nrows else 0
    u = [list(row) for row in identity_matrix(nrows)]
    r = 0
    for col in range(ncols):
        # Euclid on column entries below the current pivot row.
        while True:
            nz = [i for i in range(r, nrows) if h[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(h[i][col]), i))
            if i0 != r:
                h[r], h[i0] = h[i0], h[r]
                u[r], u[i0] = u[i0], u[r]
            done = True
            for i in range(r + 1, nrows):
                if h[i][col] != 0:
                    q = h[i][col] // h[r][col]
                    h[i] = [a - q * b for a, b in zip(h[i], h[r])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[r])]
                    if h[i][col] != 0:
                        done = False
            if done:
                break
        if r < nrows and h[r][col] != 0:
            if h[r][col] < 0:
                h[r] = [-a for a in h[r]]
                u[r] = [-a for a in u[r]]
            for i in range(r):
                q = h[i][col] // h[r][col]
                if q:
                    h[i] = [a - q * b for a, b in zip(h[i], h[r])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[r])]
            r += 1
            if r == nrows:
                break
    return tuple(tuple(row) for row in h), tuple(tuple(row) for row in u)


def hnf_basis(rows) -> tuple[IntVector, ...]:
    """Nonzero rows of the HNF: the canonical basis of the row lattice.

    Rows already in that form come back as they are, with no elimination.
    """
    if not rows:
        return ()
    rows = tuple(int_vector(row) for row in rows)
    if _is_hnf_basis(rows):
        return rows
    h, _ = hermite_normal_form(rows)
    return tuple(row for row in h if any(x != 0 for x in row))


def _is_hnf_basis(rows) -> bool:
    """Whether integer rows are the nonzero rows of a Hermite normal form:
    positive leading entries in strictly increasing columns, and every entry
    above a leading entry in ``[0, leading entry)``."""
    last = -1
    for i, row in enumerate(rows):
        col = next((j for j, x in enumerate(row) if x != 0), None)
        if col is None or col <= last or row[col] < 0:
            return False
        if any(not 0 <= above[col] < row[col] for above in rows[:i]):
            return False
        last = col
    return True


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form ``S = U @ m @ V`` with unimodular ``U``, ``V``.

    ``S`` is diagonal with nonnegative entries satisfying d_1 | d_2 | ... .
    """
    s = [list(int_vector(row)) for row in m]
    nrows = len(s)
    ncols = len(s[0]) if nrows else 0
    u = [list(row) for row in identity_matrix(nrows)]
    v = [list(row) for row in identity_matrix(ncols)]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        s[dst] = [a + q * b for a, b in zip(s[dst], s[src])]
        u[dst] = [a + q * b for a, b in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in s:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    t = 0
    while t < min(nrows, ncols):
        # Find the entry of least magnitude in the remaining block.
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if s[i][j] != 0 and (best is None or abs(s[i][j]) < abs(s[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            reduced = True
            for i in range(t + 1, nrows):
                if s[i][t] != 0:
                    q = s[i][t] // s[t][t]
                    add_row(i, t, -q)
                    if s[i][t] != 0:
                        swap_rows(t, i)
                        reduced = False
            for j in range(t + 1, ncols):
                if s[t][j] != 0:
                    q = s[t][j] // s[t][t]
                    add_col(j, t, -q)
                    if s[t][j] != 0:
                        swap_cols(t, j)
                        reduced = False
            if reduced and all(s[i][t] == 0 for i in range(t + 1, nrows)) \
                    and all(s[t][j] == 0 for j in range(t + 1, ncols)):
                break
        # Enforce the divisibility chain on the remaining block.
        bad = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if s[i][j] % s[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(t, bad, 1)
            continue
        if s[t][t] < 0:
            s[t] = [-a for a in s[t]]
            u[t] = [-a for a in u[t]]
        t += 1
    return (tuple(tuple(row) for row in s),
            tuple(tuple(row) for row in u),
            tuple(tuple(row) for row in v))


def integer_solve(rows, rhs):
    """One integer solution x of ``rows @ x = rhs``, or None.

    Solves via the Smith decomposition, so existence is decided exactly.
    """
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


def kernel_lattice(rows, ncols: int) -> tuple[IntVector, ...]:
    """HNF basis of ``{x in Z^ncols : rows @ x = 0}``.

    The kernel of an integer matrix is a saturated sublattice, so this basis
    also spans the rational kernel.
    """
    if not rows:
        return hnf_basis(identity_matrix(ncols)) if ncols else ()
    s, _, v = smith_normal_form(rows)
    r = 0
    for i in range(min(len(rows), ncols)):
        if s[i][i] != 0:
            r += 1
    cols = transpose(v)
    return hnf_basis(cols[r:]) if r < ncols else ()


def subspace_lattice(spanning, ambient_dim: int) -> "LatticeBasis":
    """Basis of (rational span of the input vectors) intersected with Z^n.

    Input vectors may be rational; the result is the saturated lattice of
    the spanned subspace.  Computed as the kernel of the kernel: the integer
    kernel of a matrix is saturated, and applying it twice recovers the
    span.
    """
    int_rows = [clear_denominators(v) for v in spanning]
    int_rows = [r for r in int_rows if any(x != 0 for x in r)]
    if not int_rows:
        return LatticeBasis(ambient_dim, ())
    perp = kernel_lattice(int_rows, ambient_dim)
    basis = kernel_lattice(perp, ambient_dim) if perp else hnf_basis(identity_matrix(ambient_dim))
    return LatticeBasis(ambient_dim, basis)


@dataclass(frozen=True)
class LatticeBasis:
    """A saturated sublattice of Z^n, stored by its canonical HNF basis.

    Two bases represent the same lattice exactly when their HNF rows agree,
    so equality of this dataclass is lattice equality.
    """

    ambient_dim: int
    vectors: tuple

    def __post_init__(self):
        canon = hnf_basis(self.vectors) if self.vectors else ()
        if len(canon) != len(self.vectors):
            raise ValueError("basis vectors are linearly dependent")
        object.__setattr__(self, "vectors", canon)

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def coordinates(self, v):
        """Integer coordinates of v in this basis, or None if v is outside."""
        if not self.vectors:
            return () if all(x == 0 for x in v) else None
        sol = solve_rational(list(transpose(self.vectors)), v)
        if sol is None:
            return None
        coords = []
        for c in sol:
            q = QQ(c)
            if q.denominator != 1:
                return None
            coords.append(int(q.numerator))
        # solve_rational zero-fills free variables; ranks match here since
        # basis vectors are independent, so the solution is unique.
        return tuple(coords)

    def spans_vector(self, v) -> bool:
        """Rational-span membership (ignores integrality)."""
        if not self.vectors:
            return all(x == 0 for x in v)
        return mat_rank(list(self.vectors) + [v]) == self.rank


def least_positive_vector(basis, values) -> IntVector:
    """The vector sum y_i b_i of the lattice with basis (b_i) on which a
    covector with integer values a_i on the b_i, not all zero, takes its
    least positive value gcd(a); y is :func:`integer_solve`'s solution."""
    g = gcd(*values)
    if g == 0:
        raise ValueError("the covector vanishes on the lattice")
    return mat_vec(transpose(basis), integer_solve([values], (g,)))


def quotient_generator(sub: LatticeBasis, sup: LatticeBasis) -> IntVector:
    """A vector of ``sup`` generating the rank-one quotient ``sup/sub``.

    Requires ``sub`` to be a corank-one sublattice of ``sup`` with
    torsion-free quotient (always the case for saturated lattices of nested
    subspaces).  The result is :func:`least_positive_vector` for the first
    basis covector of the annihilator of ``sub`` that does not vanish on
    ``sup``; any generator is unique up to sign and elements of ``sub``.
    """
    if sup.rank != sub.rank + 1:
        raise ValueError(f"rank mismatch: sub rank {sub.rank}, super rank {sup.rank}")
    n = sup.ambient_dim
    for w in kernel_lattice(sub.vectors, n):
        values = [dot(w, b) for b in sup.vectors]
        if any(values):
            break
    u = least_positive_vector(sup.vectors, values)
    if LatticeBasis(n, sub.vectors + (u,)) != sup:
        raise ValueError("torsion in the quotient, or sub is not contained in super")
    return u


def lattice_index(matrix, source: LatticeBasis, target: LatticeBasis) -> int:
    """Index of the image of ``source`` under an integer map inside ``target``.

    ``matrix`` rows map ambient source coordinates to target coordinates.
    The index is |det| of the image basis written in target coordinates;
    a rank drop raises, since the quotient is then infinite.
    """
    if source.rank != target.rank:
        raise ValueError("rank mismatch between source and target lattices")
    if source.rank == 0:
        return 1
    rows = []
    for b in source.vectors:
        img = mat_vec(matrix, b)
        c = target.coordinates(img)
        if c is None:
            raise ValueError("image vector lies outside the target lattice")
        rows.append(c)
    d = mat_det(rows)
    if d == 0:
        raise ValueError("map not injective on lattice")
    return abs(int(d))
