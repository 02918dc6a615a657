"""Stable intersection of arbitrary cycles in R^n via the diagonal.

The product of two cycles is cut out of their cartesian product by the n
Cartier divisors max{0, x_i - y_i} expressing the diagonal of R^n x R^n,
then pushed forward along the first projection:

    C . D := project( psi_1 ... psi_n . (C x D) ).

The computation stays local to the diagonal Delta.  A Weil divisor's
weight at a ridge depends only on the cells containing that ridge, so a
cell of psi_k ... psi_1 . (C x D) that meets Delta takes its weight from
cells of the previous stage that meet Delta too.  Only the product cells
sigma x tau with sigma and tau meeting are therefore built; the weights
of every cell meeting Delta come out as on the full product.  The
truncation leaves boundary junk on cells that never meet Delta, which the
last stage drops by one test of an interior point against x = y.

Degrees, Bezout verification, P^n-genericity and the degree-zero property
of bounded functions on curves are all built on this product.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cycles import (
    Cycle,
    WeightedComplex,
    cycles_equal,
    rn_cycle,
    standard_skeleton,
    translate,
)
from .divisors import (
    CartierDivisor,
    TropicalPolynomial,
    divisor_chain,
    is_bounded_on,
    weil_divisor,
)
from .library import diagonal_line, projection_map
from .morphisms import Morphism, push_forward
from .polyhedra import (
    AffineForm,
    _relint_lp,
    cell_contains_cell,
    collect_hyperplanes,
    product_cell,
    refine_cell,
)


def diagonal_divisors(n: int) -> list:
    """The divisors max{0, x_i - y_i} on R^n x R^n, i = 1..n."""
    out = []
    for i in range(n):
        lin = tuple(1 if j == i else (-1 if j == n + i else 0) for j in range(2 * n))
        out.append(CartierDivisor(TropicalPolynomial((
            AffineForm((0,) * 2 * n, 0), AffineForm(lin, 0)))))
    return out


def stable_intersect(c: Cycle, d: Cycle) -> Cycle:
    """Intersection product of cycles in the same R^n.

    Empty in dimensions below zero (complementary defect); always balanced.
    Only the product cells sigma x tau with sigma meeting tau enter the
    diagonal divisors, and only the final cells on the diagonal are pushed
    forward; the module docstring says why the result is the full product's.
    """
    if c.ambient_dim != d.ambient_dim:
        raise ValueError("cycles live in different ambient spaces")
    n = c.ambient_dim
    k, l = c.dim, d.dim
    if c.is_empty or d.is_empty or k + l < n:
        return Cycle.empty(n, k + l - n)
    a, b = c.reduce().complex, d.reduce().complex
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
    pi = Morphism(projection_map(n), cut, rn_cycle(n))
    return push_forward(pi)


def _cells_meet(sigma, tau) -> bool:
    """Whether two closed cells of one R^n meet; two cones meet at the
    origin, anything else takes one feasibility program, solved in closed
    form when the equalities of both leave at most one free variable."""
    forms = sigma.ineqs + sigma.eqs + tau.ineqs + tau.eqs
    if all(f.constant == 0 for f in forms):
        return True
    point, _ = _relint_lp(sigma.ambient_dim, sigma.ineqs + tau.ineqs, sigma.eqs + tau.eqs)
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


def diagonal_cycle(n: int) -> Cycle:
    """The diagonal of R^n x R^n computed as a product of divisors.

    Asserts agreement with the explicit weight-one diagonal before
    returning the computed representative.
    """
    computed = divisor_chain(diagonal_divisors(n), rn_cycle(2 * n))
    if not cycles_equal(computed, diagonal_line(n)):
        raise AssertionError("diagonal divisors do not cut out the diagonal")
    return computed


@dataclass(frozen=True)
class ZeroCycle:
    """A zero-dimensional cycle as weighted rational points."""

    points: tuple  # of (point tuple, weight)

    @property
    def degree(self) -> int:
        return sum(w for _, w in self.points)


def as_zero_cycle(c: Cycle) -> ZeroCycle:
    if c.dim != 0 and not c.is_empty:
        raise ValueError("not a zero-dimensional cycle")
    red = c.reduce()
    pts = tuple((cell.interior_point, w)
                for cell, w in zip(red.complex.cells, red.complex.weights))
    return ZeroCycle(pts)


def degree(c: Cycle) -> int:
    """Sum of weights after intersecting down to dimension zero.

    A k-cycle is paired against the standard (n-k)-skeleton; zero cycles
    are summed directly.
    """
    red = c.reduce()
    if red.is_empty:
        return 0
    if red.dim == 0:
        return sum(red.complex.weights)
    n = red.ambient_dim
    return degree(stable_intersect(red, standard_skeleton(n, n - red.dim)))


def is_pn_generic(c: Cycle) -> bool:
    """Whether every facet decomposes as polytope plus standard cone.

    A facet admits such a decomposition exactly when its recession cone
    lies inside a cone of the standard k-skeleton (split off the compact
    part of the polyhedron for one direction; take recession cones for the
    other).  The test is run on the representative refined along the
    skeleton's own hyperplane arrangement, which makes it a property of
    the refinement class: coarse cells spanning several standard cones are
    cut to pieces first.
    """
    red = c.reduce()
    if red.is_empty:
        return True
    cones = standard_skeleton(red.ambient_dim, red.dim).complex.cells
    forms = collect_hyperplanes(cones)
    for cell in red.complex.cells:
        for piece in refine_cell(cell, forms):
            rec = piece.recession_cone()
            if not any(cell_contains_cell(cone, rec) for cone in cones):
                return False
    return True


@dataclass(frozen=True)
class BezoutReport:
    degree_first: int
    degree_second: int
    degree_product: int
    first_generic: bool
    second_generic: bool

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


def translation_invariance_check(c: Cycle, d: Cycle, v1, v2) -> bool:
    """deg(C . D) is unchanged when both factors are translated."""
    if c.dim + d.dim != c.ambient_dim:
        raise ValueError("cycles do not have complementary dimensions")
    base = degree(stable_intersect(c, d))
    moved = degree(stable_intersect(translate(c, v1), translate(d, v2)))
    return base == moved
