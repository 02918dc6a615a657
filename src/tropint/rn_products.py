"""Stable intersection of arbitrary cycles in R^n by the fan displacement
rule (Fulton–Sturmfels, Topology 36 (1997); Jensen–Yu, J. Algebraic
Combin. 43 (2016)).

The paper defines C . D as the push-forward along the first projection of
the n diagonal divisors max{0, x_i - y_i} applied to C x D in R^n x R^n;
:func:`diagonal_divisors` and :func:`diagonal_cycle` keep that
construction.  Allermann–Rau show it is the stable intersection, which is
computed here straight in R^n.  For a k-cycle C and an l-cycle D, with
m = k + l - n, a generic v and small e > 0, C . D is the limit of the
intersections of C with D + e v.  Near a point p of sigma ∩ tau the cells
sigma of C and tau + e v of D + e v look like their tangent cones at p, so
the pair contributes to the m-cell rho = sigma ∩ tau exactly when the
lattices of sigma and tau span R^n and the tangent cone of tau at p, moved
by v, meets that of sigma.  It contributes w_sigma w_tau [Z^n : L_sigma +
L_tau].  The contributions of all pairs, added on a common refinement,
give the product.  No cell of R^2n is built and no divisor is cut.

The saturated bases of L_sigma and L_tau stack to an integer matrix B of
k + l rows, and one :func:`~tropint.kernel.echelon` of [B | I] per pair of
lattices tells whether they span R^n, gives an integer matrix C that
splits every v as v = a + b, a in L_sigma and b in L_tau, with d a = v C,
and gives m integer vectors u_j spanning L_sigma ∩ L_tau (:class:`_Inverse`).

Each pair of cells is read once, in every dimension, with no cell built.
With the interior points of sigma and tau written Q_sigma / L and
Q_tau / L, the point P / D, P = d Q_sigma + (Q_tau - Q_sigma) C and
D = d L, lies on both affine hulls, which meet in the flat
x = (P + sum_j z_j u_j) / D.  An inequality a . x + r / q >= 0 with no
slope on it has the sign of q (a . P) + r D: negative, the pair does not
meet; zero, it is tight on all of rho = sigma ∩ tau; positive, it is
dropped.  The others cut rho out of the flat, and one reading of them
(:func:`~tropint.polyhedra._relint_lp`) finds a point p of rho's relative
interior, or none when rho has less than dimension m.  On the moved cones
a tight inequality is a constant again, its linear part on a for sigma's,
on -b for tau's.  Read on d a = v C and -d b = v C - d v (a move by d v
only scales the picture about p), it gives an integer covector of v, a
wall of the pair: sum_j f_j C_j for an inequality f of sigma,
sum_j g_j C_j - d g for one g of tau, C_j the columns of C.  The pair
counts at v when every wall is positive there, not when one is negative,
and tells nothing when one is zero.  Only the cells of the pairs that
count are written down: a point with no elimination, an m-cell with one.

A displacement v on a wall of a pair (its cones then meet only on their
boundaries) tells nothing, and the next v is tried.  The candidates run
along the moment curve (1, s, ..., s^(n-1)), s = 3, 4, ...: a nonzero wall
vanishes at no more than n - 1 of them, so at most (n - 1) W + 1 are
tried for W walls.

A 0-cycle is a finite set of weighted points, and its degree is the sum of
its weights, so the degree of C . D in complementary dimension is the total
weight of the pairs that count: degrees and Bezout verification add up
those weights, with no cell written down and no sum taken.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm

from .cycles import (
    Cycle,
    _weighted_sum,
    cycles_equal,
    rn_cycle,
    standard_skeleton,
)
from .divisors import (
    CartierDivisor,
    TropicalPolynomial,
    divisor_chain,
    is_bounded_on,
    weil_divisor,
)
from .kernel import QQ, dot, echelon, hnf_index
from .library import diagonal_line
from .morphisms import _cells_inside_support
from .polyhedra import AffineForm, Cell, _eliminate, _nonconstant, _point_elimination, _relint_lp


def diagonal_divisors(n: int) -> list:
    """The divisors max{0, x_i - y_i} on R^n x R^n, i = 1..n."""
    out = []
    for i in range(n):
        lin = tuple(1 if j == i else (-1 if j == n + i else 0) for j in range(2 * n))
        out.append(CartierDivisor(TropicalPolynomial((
            AffineForm((0,) * 2 * n, 0), AffineForm(lin, 0)))))
    return out


def stable_intersect(c: Cycle, d: Cycle) -> Cycle:
    """Intersection product of cycles in the same R^n, by the fan
    displacement rule (see the module docstring).

    The cells of the pairs that count at one displacement
    (:func:`_counted`) are written down (:func:`_written`) and added on a
    common refinement, which sums points by point.  Empty in dimensions
    below zero (complementary defect); always balanced.  Raises
    RuntimeError when a wall is the zero covector or every candidate
    displacement lies on a wall, which a correct cone test never gives.
    """
    meets = _counted(c, d)
    return _weighted_sum(c.ambient_dim, c.dim + d.dim - c.ambient_dim,
                         [(_written(meet.rho), meet.weight) for meet in meets])


def _counted(c: Cycle, d: Cycle) -> list:
    """The :class:`_Meeting` of each pair of cells of C and D that counts at
    the first displacement on no wall, none when C or D is empty or
    k + l < n.

    Every pair of lattices is read once (:class:`_Inverse`), and every pair
    of cells that meets once, into its walls; each displacement is then
    decided by the signs of the walls (:func:`_displaced`).  No cell is
    written down.  Raises ValueError when the ambient spaces differ, and
    RuntimeError as :func:`stable_intersect` says.
    """
    if c.ambient_dim != d.ambient_dim:
        raise ValueError("cycles live in different ambient spaces")
    n = c.ambient_dim
    if c.is_empty or d.is_empty or c.dim + d.dim < n:
        return []
    a, b = c.complex, d.complex
    meets, spans = [], {}
    for sigma, ws in zip(a.cells, a.weights):
        for tau, wt in zip(b.cells, b.weights):
            # What the rule reads from a pair of cells' lattices depends only
            # on the lattices, and most pairs repeat those of an earlier pair.
            lattices = (sigma.direction_lattice.vectors, tau.direction_lattice.vectors)
            if lattices not in spans:
                spans[lattices] = _Inverse.of(n, *lattices)
            inverse = spans[lattices]
            if inverse is None:
                continue
            meet = _meeting(sigma, tau, ws * wt * inverse.index, inverse)
            if meet is not None:
                meets.append(meet)
    walls = sum(len(meet.walls) for meet in meets)
    for s in range(3, 4 + (n - 1) * walls):
        counted = _displaced(meets, tuple(s ** i for i in range(n)))
        if counted is not None:
            return counted
    raise RuntimeError("every candidate displacement lies on a wall")


class _Inverse(namedtuple("_Inverse", "det columns index meet")):
    """What the fan displacement rule reads from two direction lattices
    L_sigma and L_tau that span R^n, given by saturated bases of ranks
    k + l >= n stacked to B.  ``index`` is [Z^n : L_sigma + L_tau]: |det B|
    when k + l = n, else that of the Hermite basis of B.  ``columns`` are
    those of the integer matrix C, d times the sigma-columns of a left
    inverse of B times sigma's basis, so that d a = v C, for d = ``det`` > 0,
    splits v = a + b with a in L_sigma and b in L_tau.  The split is unique
    when k + l = n, where C = d pi for pi the projection onto L_sigma along
    L_tau; otherwise a is one choice in a + (L_sigma ∩ L_tau), of which
    ``meet`` is a basis of k + l - n integer vectors."""

    __slots__ = ()

    @classmethod
    def of(cls, n, sigma_basis, tau_basis):
        """The record of two lattices given by saturated bases, or None when
        they do not span R^n, from one echelon of [B | I]."""
        basis = sigma_basis + tau_basis
        work, pivots, det = echelon([b + tuple(int(i == j) for j in range(len(basis)))
                                     for i, b in enumerate(basis)])
        # [B | I] has rank k + l, and B has rank n exactly when the first n
        # pivots fall in B.
        if n and pivots[n - 1] >= n:
            return None
        # Row i < n of the work is then det times (e_i, row i of X), for a
        # left inverse X of B; C is d X on the sigma-columns times sigma's
        # basis.  Each later row is (0 | y) with y B = 0, so the sigma-part
        # of y times sigma's basis lies in both lattices.
        sign, k = (-1 if det < 0 else 1), len(sigma_basis)
        inverse = [[sign * x for x in row[n:n + k]] for row in work[:n]]
        columns = [tuple(b[j] for b in sigma_basis) for j in range(n)]
        meet = tuple(tuple(dot(row[n:n + k], col) for col in columns) for row in work[n:])
        return cls(sign * det, tuple(tuple(dot(row, col) for row in inverse) for col in columns),
                   sign * det if len(basis) == n else hnf_index(basis), meet)


# A pair of cells that meets in an m-cell rho: what writes rho down if the
# pair counts (:func:`_written`), the pair's weight and its walls.
_Meeting = namedtuple("_Meeting", "rho weight walls")


def _walls(inverse, sigma_tight, tau_tight):
    """The walls of a pair from the inequalities of sigma and of tau tight
    at p: sum_j f_j C_j for one f of sigma, whose value at v is f . (d a),
    and sum_j g_j C_j - d g for one g of tau, whose value is g . (-d b).
    Raises RuntimeError on a zero wall, which would read every v as a wall."""
    if not sigma_tight and not tau_tight:
        return ()
    rows = tuple(zip(*inverse.columns))
    walls = tuple(tuple(dot(f.linear, row) - shift * x for row, x in zip(rows, f.linear))
                  for tight, shift in ((sigma_tight, 0), (tau_tight, inverse.det))
                  for f in tight)
    if not all(map(any, walls)):
        raise RuntimeError("a wall of the displacement rule is the zero covector")
    return walls


def _meeting(sigma, tau, weight, inverse):
    """The :class:`_Meeting` of two cells whose lattices span R^n, or None
    when they meet in less than dimension m, read on the flat
    x = (P + sum_j z_j u_j) / D (see the module docstring).  Only the cuts,
    the inequalities with a slope on the flat, are read for a strict point.
    rho is (P, D) when m = 0, else (that point, the equalities of sigma and
    tau, the cuts)."""
    ps, pt = sigma.interior_point, tau.interior_point
    den = lcm(*(x.denominator for x in ps + pt))
    qs = [x.numerator * (den // x.denominator) for x in ps]
    step = [x.numerator * (den // x.denominator) - q for x, q in zip(pt, qs)]
    numer = tuple(inverse.det * q + dot(col, step) for q, col in zip(qs, inverse.columns))
    denom, meet = inverse.det * den, inverse.meet
    tight, cuts = [], []
    for cell in (sigma, tau):
        forms = []
        for f in cell.ineqs:
            # Slopes first, G only for a constant line: polyhedra._lines cost ~3% a round.
            if meet and any(dot(f.linear, u) for u in meet):
                cuts.append(f)
                continue
            value = dot(f.linear, numer) * f.constant.denominator + f.constant.numerator * denom
            if value < 0:
                return None
            if value == 0:
                forms.append(f)
        tight.append(forms)
    if not meet:
        return _Meeting((numer, denom), weight, _walls(inverse, *tight))
    point, t = _relint_lp(cuts, (numer, meet, denom, ()))
    if point is None or t <= 0:
        return None
    return _Meeting((point, sigma.eqs + tau.eqs, cuts), weight, _walls(inverse, *tight))


def _displaced(meets, v):
    """The meetings of the pairs whose tangent cones at p meet once tau's is
    moved by v, or None when v lies on a wall of one of them: a pair counts
    when every wall is positive at v (the moved cones' relative interiors
    meet), and not when one is negative (they are disjoint)."""
    counted = []
    for meet in meets:
        t = min([dot(w, v) for w in meet.walls], default=1)
        if t == 0:
            return None
        if t > 0:
            counted.append(meet)
    return counted


def _written(rho):
    """rho as a cell: a point (P, D) with no elimination, an m-cell
    (point, eqs, cuts) by one elimination of eqs, at its strict point."""
    if len(rho) == 2:
        numer, denom = rho
        p = tuple(QQ(x, denom) for x in numer)
        return Cell._with_hull(len(p), (), p, _point_elimination(p))
    point, eqs, cuts = rho
    elim = _eliminate(len(point), eqs)
    return Cell._with_hull(len(point), _nonconstant(cuts, elim), point, elim)


def diagonal_cycle(n: int) -> Cycle:
    """The diagonal of R^n x R^n computed as a product of divisors.

    Checks agreement with the explicit weight-one diagonal
    (:func:`~tropint.library.diagonal_line`) before returning the computed
    representative, and raises RuntimeError when they differ.
    """
    computed = divisor_chain(diagonal_divisors(n), rn_cycle(2 * n))
    if not cycles_equal(computed, diagonal_line(n)):
        raise RuntimeError("diagonal divisors do not cut out the diagonal")
    return computed


def degree(c: Cycle) -> int:
    """The degree of a cycle: the sum of its weights when it is a 0-cycle,
    and for a k-cycle C with k >= 1 the degree of the 0-cycle C . L, for L
    the standard (n-k)-skeleton.

    That product's points, with their weights, are those of the pairs that
    count (:func:`_counted`), added by point, so its degree is the total
    weight of those pairs: no cell is written down and no sum is taken.
    """
    if c.is_empty:
        return 0
    if c.dim == 0:
        return sum(c.complex.weights)
    n = c.ambient_dim
    return sum(meet.weight for meet in _counted(c, standard_skeleton(n, n - c.dim)))


def is_pn_generic(c: Cycle) -> bool:
    """Whether every facet decomposes as polytope plus standard cone.

    A facet admits such a decomposition exactly when its recession cone
    lies inside a cone of the standard k-skeleton (split off the compact
    part of the polyhedron for one direction; take recession cones for the
    other).  The test is a property of the refinement class: a coarse cell
    spanning several standard cones counts when each of its pieces along
    the skeleton's hyperplane arrangement does.  These hyperplanes are
    linear, so a piece's cone lies in one closed region of them, and in a
    skeleton cone exactly when in the skeleton's support; and the cell's
    cone is the union of its pieces' cones, since a ray x + t u of the cell
    ends up in one closed region.  So the test asks whether each cell's
    cone lies in that support (:func:`~tropint.morphisms._cells_inside_support`).
    """
    if c.is_empty:
        return True
    cones = standard_skeleton(c.ambient_dim, c.dim).complex.cells
    return _cells_inside_support([cell.recession_cone() for cell in c.complex.cells], cones)


class BezoutReport(namedtuple("BezoutReport", "degree_first degree_second degree_product "
                                               "first_generic second_generic")):
    """The degrees of two cycles and of their product, and whether each
    cycle is P^n-generic."""

    __slots__ = ()

    @property
    def applicable(self) -> bool:
        return self.first_generic and self.second_generic

    @property
    def passed(self) -> bool:
        return self.applicable and self.degree_product == self.degree_first * self.degree_second


def bezout_check(c: Cycle, d: Cycle) -> BezoutReport:
    """Compare deg(C . D) with deg(C) deg(D) for complementary dimensions.

    deg(C . D) is the total weight of the pairs that count (:func:`_counted`),
    read as :func:`degree` reads its product, with no cell written down.
    The multiplicativity assertion only applies to generic cycles; the
    degrees themselves are reported either way.
    """
    if c.dim + d.dim != c.ambient_dim:
        raise ValueError("cycles do not have complementary dimensions")
    return BezoutReport(
        degree(c), degree(d), sum(meet.weight for meet in _counted(c, d)),
        is_pn_generic(c), is_pn_generic(d))


def degree_zero_check(phi, c: Cycle) -> bool:
    """Divisors of bounded functions on curves have total weight zero."""
    if c.dim != 1:
        raise ValueError("degree-zero check needs a one-dimensional cycle")
    if not is_bounded_on(phi, c):
        raise ValueError("function is unbounded on the cycle support")
    return degree(weil_divisor(phi, c)) == 0
