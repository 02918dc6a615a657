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
lattices tells whether they span R^n and gives an integer matrix C that
splits every v as v = a + b, a in L_sigma and b in L_tau, with d a = v C
(:class:`_Inverse`).

In complementary dimension, m = 0, the rule builds no cell per pair.  The
two affine hulls meet in the one point p = P / (d L): with the interior
points of sigma and tau written Q_sigma / L and Q_tau / L,
P = d Q_sigma + (Q_tau - Q_sigma) C.  An inequality a . x + r / q >= 0 has
the sign of q (a . P) + r d L there.  The pair counts when every
inequality of sigma tight at p is positive on a and every one of tau tight
at p is positive on -b, and only then is its point written down as a cell,
with no elimination.

For m > 0 each pair of cells meets in the m-cell rho = sigma ∩ tau, built
once by :func:`~tropint.polyhedra.intersect`, and the inequalities of sigma
and of tau tight at its interior point p are kept.  The moved tangent cones
meet on rho's affine hull moved by a, and a move by d v only scales the
picture about p; so these forms, raised by their linear parts on d a
(sigma's) and on -d b (tau's) and read over rho's own elimination, tell
by :func:`~tropint.polyhedra._relint_lp` whether the cones meet: from an
interval when m = 1, as for two surfaces in R^3, and by one slack program
for m >= 2.  No displacement eliminates anything.

A displacement v on the wall of a pair (its cones then meet only on their
boundaries) tells nothing, and the next v is tried.  The candidates run
along the moment curve (1, s, ..., s^(n-1)), s = 3, 4, ...: a hyperplane
through the origin holds at most n - 1 of them, and there are finitely
many walls, so the search ends.

Degrees, Bezout verification, P^n-genericity and the degree-zero property
of bounded functions on curves are all built on this product.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import count
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
from .polyhedra import AffineForm, Cell, _point_elimination, _relint_lp, intersect


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

    Every pair of lattices is read once (:class:`_Inverse`).  In
    complementary dimension each pair of cells is then decided by sign
    tests at the one point where their affine hulls meet, and only the
    points of the pairs that count become cells; in excess dimension the
    pairs meet in cells built by :func:`~tropint.polyhedra.intersect`, on
    whose eliminations every displacement is read.  Empty in dimensions
    below zero (complementary defect); always balanced.
    """
    if c.ambient_dim != d.ambient_dim:
        raise ValueError("cycles live in different ambient spaces")
    n = c.ambient_dim
    m = c.dim + d.dim - n
    if c.is_empty or d.is_empty or m < 0:
        return Cycle.empty(n, m)
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
            meet = (_crossing if m == 0 else _meeting)(sigma, tau, ws * wt * inverse.index, inverse)
            if meet is not None:
                meets.append(meet)
    for s in count(3):
        entries = _displaced(meets, tuple(s ** i for i in range(n)))
        if entries is not None:
            return _weighted_sum(n, m, entries)


class _Inverse(namedtuple("_Inverse", "det columns index")):
    """What the fan displacement rule reads from two direction lattices
    L_sigma and L_tau that span R^n, given by saturated bases of ranks
    k + l >= n stacked to B.  ``index`` is [Z^n : L_sigma + L_tau]: |det B|
    when k + l = n, else that of the Hermite basis of B.  ``columns`` are
    those of the integer matrix C, d times the sigma-columns of a left
    inverse of B times sigma's basis, so that d a = v C, for d = ``det`` > 0,
    splits v = a + b with a in L_sigma and b in L_tau.  The split is unique
    when k + l = n, where C = d pi for pi the projection onto L_sigma along
    L_tau; otherwise a is one choice in a + (L_sigma ∩ L_tau)."""

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
        # basis.
        sign, k = (-1 if det < 0 else 1), len(sigma_basis)
        inverse = [[sign * x for x in row[n:n + k]] for row in work[:n]]
        columns = (tuple(b[j] for b in sigma_basis) for j in range(n))
        return cls(sign * det, tuple(tuple(dot(row, col) for row in inverse) for col in columns),
                   sign * det if len(basis) == n else hnf_index(basis))

    def parts(self, v):
        """(d a, -d b) for v = a + b with a in L_sigma and b in L_tau: d a
        is v C, and -d b is d a - d v."""
        da = tuple(dot(col, v) for col in self.columns)
        return da, tuple(x - self.det * y for x, y in zip(da, v))


# A pair of cells whose affine hulls meet at the one point p = P / D: P
# and D, the pair's weight, the inequalities of sigma and of tau tight at
# p, and the :class:`_Inverse` of their lattices.
_Crossing = namedtuple("_Crossing", "numer denom weight sigma_tight tau_tight inverse")


def _crossing(sigma, tau, weight, inverse):
    """The :class:`_Crossing` of two cells of complementary dimension whose
    lattices span R^n, or None when the point where their affine hulls meet
    lies outside one of them.  The interior points are brought to one
    denominator L, as Q_sigma / L and Q_tau / L, so p = P / D with
    P = d Q_sigma + (Q_tau - Q_sigma) C and D = d L (:class:`_Inverse`),
    and an inequality with constant r / q has the sign of q (a . P) + r D
    at p."""
    ps, pt = sigma.interior_point, tau.interior_point
    den = lcm(*(x.denominator for x in ps + pt))
    qs = [x.numerator * (den // x.denominator) for x in ps]
    step = [x.numerator * (den // x.denominator) - q for x, q in zip(pt, qs)]
    numer = tuple(inverse.det * q + dot(col, step) for q, col in zip(qs, inverse.columns))
    denom = inverse.det * den
    tight = []
    for cell in (sigma, tau):
        forms = []
        for f in cell.ineqs:
            value = dot(f.linear, numer) * f.constant.denominator + f.constant.numerator * denom
            if value < 0:
                return None
            if value == 0:
                forms.append(f)
        tight.append(forms)
    return _Crossing(numer, denom, weight, *tight, inverse)


# A pair of cells of excess dimension meeting in the m-cell rho: rho, the
# pair's weight, the inequalities of sigma and of tau tight at rho's
# interior point, and the :class:`_Inverse` of their lattices.
_Meeting = namedtuple("_Meeting", "rho weight sigma_tight tau_tight inverse")


def _meeting(sigma, tau, weight, inverse):
    """The :class:`_Meeting` of two cells of excess dimension whose lattices
    span R^n, or None when they meet in less than that dimension."""
    rho = intersect(sigma, tau)
    if rho is None or rho.dim != sigma.dim + tau.dim - rho.ambient_dim:
        return None
    p = rho.interior_point
    return _Meeting(rho, weight, *([f for f in cell.ineqs if f.value_at(p) == 0]
                                   for cell in (sigma, tau)), inverse)


def _displaced(meets, v):
    """The (rho, weight) entries of the pairs whose tangent cones at a
    point p of rho = sigma ∩ tau meet once tau's is moved by v, or None
    when v lies on a wall of one of them.

    With v = a + b, a in L_sigma and b in L_tau (:meth:`_Inverse.parts`,
    once per pair of lattices), the moved cones meet on the points p + a + u,
    u in L_rho, where each inequality of sigma tight at p is raised by its
    linear part on a, and each one of tau by its linear part on -b.  Both
    kinds of pair read d a and -d b instead: moving by d v scales the
    picture about p, which changes no answer.  A :class:`_Crossing` (m = 0)
    has u = 0: the least of these raises, or 1 when there is none, plays
    the part of t below, and a pair that counts becomes its point, written
    down as a cell with no elimination.  A :class:`_Meeting` (m > 0) asks
    :func:`~tropint.polyhedra._relint_lp` for a point of rho's hull where
    the raised forms are >= t: t > 0 exactly when the moved cones' relative
    interiors meet, t = 0 when they meet only on their boundaries, and
    there is no point when they are disjoint.
    """
    entries, parts = [], {}
    for meet in meets:
        # One _Inverse serves every pair of its lattices.
        key = id(meet.inverse)
        if key not in parts:
            parts[key] = meet.inverse.parts(v)
        da, mdb = parts[key]
        if type(meet) is _Crossing:
            t = min([dot(f.linear, da) for f in meet.sigma_tight]
                    + [dot(f.linear, mdb) for f in meet.tau_tight], default=1)
            if t == 0:
                return None
            if t > 0:
                p = tuple(QQ(x, meet.denom) for x in meet.numer)
                entries.append((Cell._with_hull(len(p), (), p, _point_elimination(p)),
                                meet.weight))
            continue
        forms = [AffineForm(f.linear, f.constant + dot(f.linear, shift))
                 for tight, shift in ((meet.sigma_tight, da), (meet.tau_tight, mdb))
                 for f in tight]
        _, t = _relint_lp(forms, meet.rho._elim)
        if t == 0:
            return None
        if t is not None:
            entries.append((meet.rho, meet.weight))
    return entries


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
    """Sum of weights after intersecting down to dimension zero.

    A k-cycle is paired against the standard (n-k)-skeleton; zero cycles
    are summed directly.
    """
    if c.is_empty:
        return 0
    if c.dim == 0:
        return sum(c.complex.weights)
    n = c.ambient_dim
    return degree(stable_intersect(c, standard_skeleton(n, n - c.dim)))


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

    The multiplicativity assertion only applies to generic cycles; the
    degrees themselves are reported either way.
    """
    if c.dim + d.dim != c.ambient_dim:
        raise ValueError("cycles do not have complementary dimensions")
    return BezoutReport(
        degree(c), degree(d), degree(stable_intersect(c, d)),
        is_pn_generic(c), is_pn_generic(d))


def degree_zero_check(phi, c: Cycle) -> bool:
    """Divisors of bounded functions on curves have total weight zero."""
    if c.dim != 1:
        raise ValueError("degree-zero check needs a one-dimensional cycle")
    if not is_bounded_on(phi, c):
        raise ValueError("function is unbounded on the cycle support")
    return degree(weil_divisor(phi, c)) == 0
