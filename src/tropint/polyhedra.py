"""Exact rational polyhedra in H-representation.

A :class:`Cell` is a nonempty rational polyhedron in R^n described by
integer-linear inequalities and equalities, with a relative interior point.
Its affine hull is derived from the equalities: each cell eliminates them
once, when it is built (:func:`_eliminate`), keeps the primitive rows of
the elimination as its equalities, and reads its dimension and the lattice
of its direction space from it.

Every geometric predicate comes down to one question: do some
inequalities have a strict point on the solutions of an elimination?
:func:`_relint_lp` is the one place it is answered.  There, as everywhere,
each form is read as its integer line over the solutions (:func:`_lines`),
a positive multiple of the form whatever the number of free variables.
When the elimination leaves at most one free variable z, as for a ray, a
segment, a point cut from a line or a facet of a cell of dimension two,
the lines cut out an interval of z whose ends are integer pairs chosen by
cross-multiplication (:func:`_interval`), and the answer is read from it
with no program.  Otherwise one slack program, :func:`_slack_lp`, decides
it by the simplex over the free variables, with the lines as its rows.  A
cell of dimension one also takes its canonical form, facets, recession
cone and refinement from its interval and the sorted points where forms
cross it, each a reduced integer pair.  The only rationals built are the
constants of facets and the coordinates of points.  There is no vertex
enumeration anywhere.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, lcm

from ._simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult, lp_max
from .kernel import (
    QQ,
    LatticeBasis,
    clear_denominators,
    dot,
    echelon,
    int_vector,
    kernel_lattice,
    mat_rank,
    rat_parts,
    solve_rational,
    vec_gcd,
)


_ZERO, _ONE = QQ(0), QQ(1)


class EmptyCellError(ValueError):
    """Raised when a constraint system has no solutions."""


class AffineForm(namedtuple("AffineForm", "linear constant")):
    """An affine functional a . x + c with integer linear part a and an
    exact rational constant c.

    Used both as an inequality (meaning value >= 0) and as an equality
    (value == 0), depending on which list of a cell it sits in.
    """

    __slots__ = ()

    def __new__(cls, linear, constant):
        # A QQ constant and a tuple of ints are kept as they are.
        if type(constant) is not QQ:
            constant = QQ(constant)
        return super().__new__(cls, int_vector(linear), constant)

    def value_at(self, point):
        return dot(self.linear, point) + self.constant

    def eval_direction(self, v):
        """Pairing with a direction vector (the constant does not enter)."""
        return dot(self.linear, v)

    def translate(self, v) -> "AffineForm":
        """The form describing the same locus shifted by v."""
        return AffineForm(self.linear, self.constant - dot(self.linear, v))

    def negated(self) -> "AffineForm":
        return AffineForm(tuple(-a for a in self.linear), -self.constant)

    def scaled_primitive(self) -> "AffineForm":
        """Divide by the gcd of the linear part (positive factor only)."""
        g = vec_gcd(self.linear)
        if g <= 1:
            return self
        return AffineForm(tuple(a // g for a in self.linear), self.constant / g)

    def sort_key(self):
        return (self.linear, rat_parts(self.constant))

    def __repr__(self):
        return f"AffineForm({self.linear}, {self.constant})"


def form_from_rational(linear, constant) -> AffineForm:
    """Scale a rational-coefficient form to integer linear part."""
    m = lcm(*(QQ(x).denominator for x in linear))
    return AffineForm(tuple(int(QQ(x) * m) for x in linear), QQ(constant) * m)


def hyperplane_form(form: AffineForm) -> AffineForm | None:
    """Canonical representative of the hyperplane {form = 0}.

    Primitive linear part oriented so the first nonzero coefficient is
    positive; None if the form has zero linear part (no hyperplane).
    """
    f = form.scaled_primitive()
    lead = next((a for a in f.linear if a != 0), 0)
    if lead == 0:
        return None
    return f.negated().scaled_primitive() if lead < 0 else f


class Cell:
    """A nonempty rational polyhedron with cached geometry.

    Instances are immutable; build them through :meth:`try_from_constraints`
    or :meth:`from_constraints`.  Construction leaves no implied equality
    among the inequalities, so every listed inequality is strict on the
    relative interior, which is all the predicates here rely on.  The list
    may still hold redundant members.  :meth:`canonical_cell` drops them,
    lazily.  On a cell of dimension one it keeps the two forms that bound
    the interval of its free variable (:func:`_interval`), read from the
    integer lines of its inequalities, and each end is its facet.  On
    other cells it asks :func:`_relint_lp` once per inequality g for a
    strict point of "g = 0, the others >= 0", read from an interval on
    cells of dimension two and an LP on cells of dimension three or more.
    It keeps g exactly when there is one, and the point then lies in the
    relative interior of g's facet.  Either way :meth:`faces_of_codim_one`
    builds the facets from those points with no further solve.

    The affine hull has one description.  Every constructor, the public
    one included, eliminates the equalities once (:func:`_eliminate`, whose
    result depends only on their solution set), and :attr:`eqs` are the
    rows of that elimination made primitive, whatever equalities were
    passed in.  The dimension, the direction lattice and :attr:`hull_key`
    are read from the elimination.  Pieces and the canonical cell share the
    elimination and the equality tuple of the cell they are cut from; each
    face takes the elimination of its facet, written down directly when the
    facet is a point.  The public constructor raises
    :class:`EmptyCellError` on inconsistent equalities and ValueError
    unless every equality is 0 and every inequality is > 0 at the given
    point.
    """

    __slots__ = (
        "ambient_dim", "ineqs", "eqs", "interior_point", "_elim", "_lattice",
        "_canonical", "_facet_points", "_canonical_cell", "_faces", "_recession",
    )

    def __init__(self, ambient_dim, ineqs, eqs, interior_point):
        ineqs, eqs = tuple(ineqs), tuple(eqs)
        elim = _eliminate(ambient_dim, eqs)
        if elim is None:
            raise EmptyCellError("inconsistent equalities")
        point = tuple(QQ(x) for x in interior_point)
        if (any(f.value_at(point) != 0 for f in eqs)
                or any(f.value_at(point) <= 0 for f in ineqs)):
            raise ValueError("the point is not in the relative interior of the cell")
        self._set(ambient_dim, ineqs, point, elim)

    def _set(self, ambient_dim, ineqs, interior_point, elim, eqs=None, lattice=None):
        n = self.ambient_dim = ambient_dim
        self.ineqs = tuple(ineqs)
        if eqs is None:
            # The integer rows of the elimination, made primitive.
            eqs = []
            for row in elim[4]:
                g = vec_gcd(row[:n])
                eqs.append(AffineForm(tuple(x // g for x in row[:n]), QQ(row[n], g)))
        self.eqs = tuple(eqs)
        self.interior_point = tuple(interior_point)
        self._elim, self._lattice = elim, lattice
        self._canonical = self._facet_points = self._canonical_cell = None
        self._faces = self._recession = None

    # -- construction -----------------------------------------------------

    @classmethod
    def try_from_constraints(cls, ambient_dim, ineqs=(), eqs=()) -> "Cell | None":
        """Canonicalize a constraint system; None if it is infeasible.

        Eliminates the equalities as given, then reads each inequality as
        its line over their solutions (:func:`_nonconstant`).  A constant line
        needs no probe: it is dropped when >= 0 and makes the cell empty
        when < 0.  The rest are probed for a relative interior point
        (:func:`_relint_lp`).  When they have no strict point and one
        variable is free, their interval is a single point, which is the
        cell.  Otherwise implied equalities among them migrate to the
        equalities, which are then eliminated again.  Every form must have
        ``ambient_dim`` coefficients.
        """
        ineqs, eqs = tuple(ineqs), tuple(eqs)
        if any(len(f.linear) != ambient_dim for f in ineqs + eqs):
            raise ValueError(f"a form of the wrong length in R^{ambient_dim}")
        elim = _eliminate(ambient_dim, eqs)
        cin = _nonconstant(ineqs, elim)
        if cin is None:
            return None
        point, slack = _relint_lp(cin, elim)
        if point is None:
            return None
        if slack == 0:
            if len(elim[1]) <= 1:
                # The interval of the free variable is one point.
                return cls._with_hull(ambient_dim, (), point, _point_elimination(point))
            # Only inequalities tight at the best-slack witness can be
            # implied equalities; the rest are strict somewhere already.
            implied, strict = [], []
            for g in cin:
                if g.value_at(point) == 0 and _max_capped(g, cin, elim, point).value == 0:
                    implied.append(g)
                else:
                    strict.append(g)
            elim = _eliminate(ambient_dim, eqs + tuple(implied))
            cin = _nonconstant(strict, elim)
            point, slack = _relint_lp(cin, elim)
            if point is None or slack <= 0:
                raise RuntimeError("relative-interior LP found no strict point "
                                   "after moving implied equalities")
        return cls._with_hull(ambient_dim, cin, point, elim)

    @classmethod
    def _with_hull(cls, ambient_dim, ineqs, point, elim, eqs=None, lattice=None):
        """The cell at a point where every inequality is strict, on the
        solutions of the elimination ``elim``, whose primitive rows are
        ``eqs`` (None: computed here), with the direction lattice given
        (None: computed on read)."""
        cell = cls.__new__(cls)
        cell._set(ambient_dim, ineqs, point, elim, eqs, lattice)
        return cell

    @classmethod
    def from_constraints(cls, ambient_dim, ineqs=(), eqs=()) -> "Cell":
        cell = cls.try_from_constraints(ambient_dim, ineqs, eqs)
        if cell is None:
            raise EmptyCellError("empty cell")
        return cell

    @classmethod
    def full_space(cls, n) -> "Cell":
        return cls(n, (), (), (QQ(0),) * n)

    def _replace_geometry(self, ineqs=None, interior_point=None):
        """Variant with the same affine hull, sharing this cell's
        elimination, equalities and direction lattice."""
        return Cell._with_hull(
            self.ambient_dim,
            self.ineqs if ineqs is None else ineqs,
            self.interior_point if interior_point is None else interior_point,
            self._elim, self.eqs, self._lattice,
        )

    @property
    def dim(self) -> int:
        """The number of free variables of the elimination."""
        return len(self._elim[1])

    @property
    def direction_lattice(self) -> LatticeBasis:
        """The saturated lattice of the direction space: the primitive part
        of the one direction of the elimination when there is at most one,
        else the integer kernel of the equalities."""
        if self._lattice is None:
            n, ws = self.ambient_dim, self._elim[1]
            if len(ws) <= 1:
                vectors = tuple(tuple(x // vec_gcd(w) for x in w) for w in ws)
            else:
                vectors = kernel_lattice([f.linear for f in self.eqs], n)
            self._lattice = LatticeBasis(n, vectors)
        return self._lattice

    @property
    def hull_key(self):
        """Hashable key equal for two cells of R^n iff their affine hulls
        are equal."""
        return tuple(f.sort_key() for f in self.eqs)

    # -- predicates -------------------------------------------------------

    def contains_point(self, p) -> bool:
        return (all(f.value_at(p) == 0 for f in self.eqs)
                and all(f.value_at(p) >= 0 for f in self.ineqs))

    # -- derived geometry -------------------------------------------------

    def faces_of_codim_one(self) -> tuple:
        """All faces of dimension dim - 1, in the order of the canonical
        inequalities that cut them out.

        Each canonical inequality g defines its own facet, on which g = 0 is
        the only new equality; canonicalization left a point of its relative
        interior, so no LP is needed here, and the elimination of the
        equalities with g, whose rows are the face's equalities.
        """
        if self._faces is None:
            cell = self.canonical_cell()
            self._faces = tuple(
                Cell._with_hull(self.ambient_dim, cell.ineqs[:i] + cell.ineqs[i + 1:], point, elim)
                for i, (point, elim) in enumerate(cell._facet_points))
        return self._faces

    def recession_cone(self) -> "Cell":
        """Directions v with cell + R_{>=0} v inside the cell.

        On a cell of dimension at most one it is read from the interval of
        the free variable (:func:`_interval`), with no constraint system
        to solve: the origin when the cell is bounded, the ray of +w or -w
        when it is unbounded on one side only, and the line through 0 when
        it is unbounded on both, for w the primitive direction of the
        cell's elimination.  Other cells solve the homogenized system.
        """
        if self._recession is None:
            if self.dim <= 1:
                self._recession = self._interval_recession()
            else:
                self._recession = Cell.from_constraints(
                    self.ambient_dim,
                    [AffineForm(f.linear, 0) for f in self.ineqs],
                    [AffineForm(f.linear, 0) for f in self.eqs])
        return self._recession

    def _interval_recession(self) -> "Cell":
        """:meth:`recession_cone` of a cell of dimension at most one.  The
        ray and the line take the cell's elimination with its constants
        dropped and the direction made primitive, which is the elimination
        of the homogenized equalities."""
        n, elim = self.ambient_dim, self._elim
        origin = (QQ(0),) * n
        lo, hi = _interval(_lines(self.ineqs, elim)) if self.dim else (0, 0)
        if lo is not None and hi is not None:
            return Cell._with_hull(n, (), origin, _point_elimination(origin))
        (w,), d, free = elim[1:4]
        g = vec_gcd(w)
        w = tuple(x // g for x in w)
        rows = tuple(tuple(x // g for x in row[:n]) + (0,) for row in elim[4])
        cone_elim = ((0,) * n, (w,), d // g, free, rows)
        if lo is None and hi is None:
            ineqs, point = (), origin
        else:
            sign = 1 if hi is None else -1
            ineqs = (AffineForm(tuple(sign if i == free[0] else 0 for i in range(n)), 0),)
            point = tuple(QQ(sign * x) for x in w)
        return Cell._with_hull(n, ineqs, point, cone_elim, lattice=self._lattice)

    def tangent_cone(self, p) -> "Cell":
        """Cone of directions entering the cell at a point of it."""
        if not self.contains_point(p):
            raise ValueError("tangent cone at a point outside the cell")
        tight = [AffineForm(f.linear, 0) for f in self.ineqs if f.value_at(p) == 0]
        eqs = [AffineForm(f.linear, 0) for f in self.eqs]
        return Cell.from_constraints(self.ambient_dim, tight, eqs)

    def translate(self, v) -> "Cell":
        """The cell shifted by v.  The shifted equalities keep their primitive
        linear parts, so they are still the rows of their elimination."""
        n = self.ambient_dim
        if len(v) != n:
            raise ValueError(f"translation by a vector of length {len(v)} in R^{n}")
        eqs = tuple(f.translate(v) for f in self.eqs)
        return Cell._with_hull(
            n, tuple(f.translate(v) for f in self.ineqs),
            tuple(QQ(a) + QQ(b) for a, b in zip(self.interior_point, v)),
            _eliminate(n, eqs), eqs, self._lattice,
        )

    # -- canonical form ---------------------------------------------------

    @property
    def canonical_key(self):
        """Hashable key equal for two cells iff they are the same set."""
        if self._canonical is None:
            self.canonical_cell()
        return self._canonical

    def canonical_cell(self) -> "Cell":
        """The same set with irredundant, canonically reduced constraints.
        It and this cell hold the :attr:`canonical_key` and a relative
        interior point of each facet; its own canonical cell is itself.

        Each inequality g is reduced to its coset representative modulo
        the equalities: a positive multiple of it is the line of g
        (:func:`_lines`), placed on the free columns, made primitive.  On a
        cell of dimension one that leaves x_j - lo >= 0 and hi - x_j >= 0
        for the interval [lo, hi] of the free coordinate x_j, and the kept
        ones are those with a finite end, each with the point of its end as
        its facet.  On other cells a reduced g is kept when the others are
        strict somewhere on g = 0, decided by one slack program."""
        if self._canonical is not None:
            # A canonical cell keeps no reference to itself, so reference
            # counting alone frees it, without the cycle collector.
            return self if self._canonical_cell is None else self._canonical_cell
        n = self.ambient_dim
        if self.dim == 1:
            kept, facets = self._interval_facets()
        else:
            kept, facets = self._probed_facets()
        key = (n, self.dim, self.hull_key, tuple(f.sort_key() for f in kept))
        cell, facets = self._replace_geometry(ineqs=tuple(kept)), tuple(facets)
        for c in (self, cell):
            c._canonical, c._facet_points = key, facets
        self._canonical_cell = cell
        return cell

    def _interval_facets(self):
        """The canonical inequalities of a cell of dimension one, in sort
        order, and the (point, elimination) of the facet each cuts out:
        hi - x_j >= 0 for a finite upper end hi of the free coordinate x_j,
        then x_j - lo >= 0 for a finite lower end lo."""
        n, (j,) = self.ambient_dim, self._elim[3]
        lo, hi = _interval(_lines(self.ineqs, self._elim))
        kept, facets = [], []
        for end, sign in ((hi, -1), (lo, 1)):
            if end is not None:
                kept.append(AffineForm(tuple(sign if i == j else 0 for i in range(n)),
                                       QQ(-sign * end[0], end[1])))
                point = _point_at(self._elim, *end)
                facets.append((point, _point_elimination(point)))
        return kept, facets

    def _probed_facets(self):
        """The canonical inequalities of a cell, in sort order, and the
        (point, elimination) of the facet each cuts out, one slack program
        per reduced inequality."""
        n, elim = self.ambient_dim, self._elim
        reduced = {}
        for A, G in _lines(self.ineqs, elim):
            # A constant line is positive on the hull, so its form is redundant.
            if any(A):
                linear = [0] * n
                for j, a in zip(elim[3], A):
                    linear[j] = a
                h = AffineForm(linear, G).scaled_primitive()
                reduced.setdefault(h.sort_key(), h)
        candidates = [reduced[k] for k in sorted(reduced)]
        kept, facets = list(candidates), []
        for g in candidates:
            # No other candidate is a positive multiple of g on the hull, so
            # the others are strict somewhere on g = 0 exactly when g cuts out
            # a facet.
            facet_elim = _eliminate(n, self.eqs + (g,))
            point, slack = _relint_lp([h for h in kept if h is not g], facet_elim)
            if point is None or slack <= 0:
                kept.remove(g)
            else:
                facets.append((point, facet_elim))
        return kept, facets

    def same_set(self, other: "Cell") -> bool:
        return self.canonical_key == other.canonical_key

    def __repr__(self):
        return (f"Cell(n={self.ambient_dim}, dim={self.dim}, "
                f"{len(self.ineqs)} ineqs, {len(self.eqs)} eqs)")


# -- LP helpers -----------------------------------------------------------


def _require_optimal(res, what):
    """Raise unless an LP that is feasible and bounded by construction
    came back optimal."""
    if res.status != OPTIMAL:
        raise RuntimeError(f"{what} is {res.status}; it is feasible and bounded by construction")


def _eliminate(n, eqs):
    """The solutions of eqs == 0 in Q^n, or None when there is none.

    Returns (c, ws, d, free, rows): the solutions are
    x = (c + sum_j z_j ws[j]) / d over z in Q^k, with integer vectors c and
    ws[j] and d > 0, and z_j is the coordinate x_{free[j]}.  The rows,
    linear part then constant, are d times the reduced row echelon form of
    the equalities, the least such d, so the whole result depends only on
    the solution set; the row of pivot p says d x_p = c_p + sum_j ws[j][p]
    z_j.  Everything is a tuple.
    """
    rows, pivots, d = echelon([f.linear + (f.constant,) for f in eqs])
    if pivots and pivots[-1] == n:
        return None
    rows = rows[:len(pivots)]
    g = gcd(d, *(x for row in rows for x in row))
    if d < 0:
        g = -g
    d, rows = d // g, [[x // g for x in row] for row in rows]
    free = tuple(j for j in range(n) if j not in pivots)
    c, ws = [0] * n, [[d if i == j else 0 for i in range(n)] for j in free]
    for row, p in zip(rows, pivots):
        c[p] = -row[n]
        for j, w in zip(free, ws):
            w[p] = -row[j]
    return tuple(c), tuple(map(tuple, ws)), d, free, tuple(map(tuple, rows))


def _lines(forms, elim):
    """The integer line q d f(x) = A . z + G of each form f = a . x + p / q
    over the solutions x = (c + sum_j z_j ws[j]) / d of an elimination
    (:func:`_eliminate`, or any such flat), as (A, G): A_j = q (a . ws[j]),
    A = () when no variable is free, and G = q (a . c) + d p.  It is a
    positive multiple of f there, so it has f's signs and roots, and as a
    row of a program it is f's rational row times a positive factor."""
    c, ws, d = elim[:3]
    lines = []
    for f in forms:
        a, q = f.linear, f.constant.denominator
        # A list comprehension: a generator expression measured slower.
        lines.append((tuple([q * dot(a, w) for w in ws]) if ws else (),
                      q * dot(a, c) + d * f.constant.numerator))
    return lines


def _nonconstant(ineqs, elim):
    """The inequalities whose line over the elimination ``elim`` is not
    constant, made primitive and without repeats; None when there is no
    solution: ``elim`` is None, or a constant line is negative.

    The integer slopes decide constancy.  A constant line d f(x) = a . c +
    d p / q, for f = a . x + p / q, has the sign of the integer
    (a . c) q + d p, which decides it with no rational."""
    if elim is None:
        return None
    c, ws, d = elim[:3]
    out, seen = [], set()
    for f in ineqs:
        # Slopes first, G only for a constant line: _lines here cost ~3% a round.
        if not any(dot(f.linear, w) for w in ws):
            if dot(f.linear, c) * f.constant.denominator + d * f.constant.numerator < 0:
                return None
            continue
        f = f.scaled_primitive()
        if f.sort_key() not in seen:
            seen.add(f.sort_key())
            out.append(f)
    return out


def _slack_lp(plain, slack, elim, start=None):
    """Maximize t <= 1 subject to plain forms >= 0 and slack forms >= t
    over the solutions of some equalities, given by their elimination
    ``elim`` (:func:`_eliminate`; None when there is no solution).

    Every form becomes its integer line q d f = A . z + G over the free
    variables z (:func:`_lines`), and the simplex maximizes t over (z, t),
    with the rows the plain lines, the slack lines minus q d t and the cap,
    in this order, and no equality row; each is its form's rational row
    times a positive factor.  It starts at z0, the free coordinates of
    ``start`` (a solution where every plain form is >= 0, needed only when
    there are plain forms) or else 0, and at t0, the least of 1 and the
    slack forms at z0.  The result carries t as its value and x as its
    point.
    """
    if elim is None:
        return LPResult(INFEASIBLE)
    c, ws, d, free = elim[:4]
    k = len(ws)
    z0 = (0,) * k if start is None else tuple(start[j] for j in free)
    scales = [f.constant.denominator * d for f in slack]
    slack = _lines(slack, elim)
    t0 = min([_ONE] + [QQ(dot(A, z0) + G, s) for (A, G), s in zip(slack, scales)])
    ineqs = [(A + (0,), -G) for A, G in _lines(plain, elim)]
    ineqs += [(A + (-s,), -G) for (A, G), s in zip(slack, scales)]
    ineqs.append(((0,) * k + (-1,), -1))
    res = lp_max(k + 1, (0,) * k + (1,), ineqs=ineqs, start=z0 + (t0,))
    if res.status == OPTIMAL:
        z = res.point[:k]
        res.point = tuple(QQ(ci + sum(zj * w[i] for zj, w in zip(z, ws)), d)
                          for i, ci in enumerate(c))
    return res


def _interval(lines):
    """The z with A z + G >= 0 for every integer line (A, G) of
    :func:`_lines` over at most one free variable, as (lo, hi), or None
    when there is none.  Each end is an integer pair (p, q) for p / q, with
    q > 0 and not reduced, None on an unbounded side; ends are chosen by
    cross-multiplication and no rational is built."""
    lo = hi = None
    for A, G in lines:
        A = A[0] if A else 0
        if A > 0:
            if lo is None or -G * lo[1] > lo[0] * A:
                lo = (-G, A)
        elif A < 0:
            if hi is None or G * hi[1] < hi[0] * -A:
                hi = (G, -A)
        elif G < 0:
            return None
    if lo is not None and hi is not None and lo[0] * hi[1] > hi[0] * lo[1]:
        return None
    return lo, hi


def _point_at(elim, p, q):
    """The point x = (c + z w) / d of an elimination with at most one free
    variable (:func:`_eliminate`) at z = p / q, for integers p and q > 0,
    one fraction a coordinate; c / d when no variable is free."""
    c, ws, d = elim[:3]
    (w,) = ws or ((0,) * len(c),)
    return tuple(QQ(ci * q + p * wi, q * d) for ci, wi in zip(c, w))


def _interval_point(elim, lo, hi):
    """The point of an elimination with at most one free variable z
    (:func:`_eliminate`) that stands for the interval [lo, hi] of z, each
    end an integer pair (p, q) for p / q with q > 0, None on an unbounded
    side (:func:`_point_at`): z at the midpoint, one step from the finite
    end when one side is unbounded, or 0 when both are, which is c / d
    when no variable is free.  Neither the ends nor z are built as
    rationals; only the point's coordinates are."""
    if lo is None and hi is None:
        return _point_at(elim, 0, 1)
    if lo is None:
        return _point_at(elim, hi[0] - hi[1], hi[1])
    if hi is None:
        return _point_at(elim, lo[0] + lo[1], lo[1])
    return _point_at(elim, lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1])


def _point_elimination(point):
    """:func:`_eliminate` of equalities whose one solution is the rational
    point, written down: for the point P / D, with D the lcm of the
    denominators, c = P, d = D, no free variable, and the row of x_i is
    D e_i | -P_i.  The rows have gcd 1, so this is the gcd-normalised
    result of any such equalities."""
    n = len(point)
    D = lcm(*(x.denominator for x in point))
    P = tuple(x.numerator * (D // x.denominator) for x in point)
    rows = tuple(tuple(D if j == i else 0 for j in range(n)) + (-p,) for i, p in enumerate(P))
    return P, (), D, (), rows


def _relint_lp(ineqs, elim):
    """Whether the inequalities have a strict point on the solutions of the
    elimination ``elim``: (point, t) with a common point, or (None, None)
    when they have none.  Callers read only the sign of t: t > 0 certifies
    that every inequality is strict at the point, which is then relatively
    interior, and t = 0 that some inequality vanishes on every common
    point.

    With at most one free variable z the integer lines of the inequalities
    (:func:`_lines`) are read once, with no program; only their signs and
    the ends of their interval (:func:`_interval`) are used.  A strict
    point exists exactly when every constant line is > 0 and the interval
    of z has lo < hi or an unbounded side; t is then 1, else 0, and the
    point is :func:`_interval_point`, whose z is never built as a rational.
    Otherwise one slack program
    (:func:`_slack_lp`) gives the best t <= 1 and a point where every
    inequality is >= t, or the solution with z = 0 and t = 1 when there is
    no inequality.  Only the parametrization (c, ws, d) of ``elim`` is
    read; ``free`` would be read only for a ``start`` of :func:`_slack_lp`,
    and none is given, so any flat x = (c + sum_j z_j ws[j]) / d, with
    integer c and ws[j] and d > 0, may stand for ``elim``.
    """
    if elim is None:
        return None, None
    if len(elim[1]) <= 1:
        lines = _lines(ineqs, elim)
        box = _interval(lines)
        if box is None:
            return None, None
        lo, hi = box
        strict = (all(G > 0 for A, G in lines if not any(A))
                  and (lo is None or hi is None or lo[0] * hi[1] < hi[0] * lo[1]))
        return _interval_point(elim, lo, hi), _ONE if strict else _ZERO
    if not ineqs:
        c, _, d = elim[:3]
        return tuple(QQ(x, d) for x in c), _ONE
    res = _slack_lp((), ineqs, elim)
    if res.status == INFEASIBLE or (res.status == OPTIMAL and res.value < 0):
        # A negative best slack means the relaxed system only meets the
        # constraints short of their boundaries: the cell is empty.
        return None, None
    _require_optimal(res, "relative-interior LP")
    return res.point, res.value


def _max_capped(form, ineqs, elim, start):
    """min(max(form), 1) over the system as value, and a point attaining it,
    from a point ``start`` of the system.

    Always feasible and bounded when the base system is feasible, which
    keeps the probe robust even when the form exceeds the cap everywhere.
    """
    res = _slack_lp(ineqs, (form,), elim, start)
    _require_optimal(res, "capped maximum LP")
    return res


def strict_point(cell, form) -> tuple | None:
    """A point of the cell with form > 0, or None if form <= 0 on the cell.

    On a cell of dimension at most one the form's integer line A z + G
    (:func:`_lines`) is read over the interval [lo, hi] of the free
    variable (:func:`_interval`) with no program: its maximum is at hi
    when A > 0 and at lo when A < 0, it is positive somewhere when that
    side is unbounded, one step past its root, and it has the sign of G
    when A = 0.  Every z is an integer pair, and only the point's
    coordinates are built as rationals.  Other cells take one capped slack
    program (:func:`_max_capped`).
    """
    elim = cell._elim
    if cell.dim > 1:
        res = _max_capped(form, cell.ineqs, elim, cell.interior_point)
        return res.point if res.value > 0 else None
    ((A, G),) = _lines((form,), elim)
    A = A[0] if A else 0
    if A == 0:
        return cell.interior_point if G > 0 else None
    lo, hi = _interval(_lines(cell.ineqs, elim))
    z, other = (hi, lo) if A > 0 else (lo, hi)
    if z is None:
        # The line grows without bound on this side: one step past its root,
        # or the other end if that lies further out, is a strict point.
        z = (A - G, A) if A > 0 else (G + A, -A)
        if other is not None and (other[0] * z[1] - z[0] * other[1]) * A > 0:
            z = other
    return _point_at(elim, *z) if A * z[0] + G * z[1] > 0 else None


def form_vanishes_on(cell, form) -> bool:
    """Exact validity of form == 0 over the cell: its line over the cell's
    elimination (:func:`_lines`) is zero."""
    ((A, G),) = _lines((form,), cell._elim)
    return G == 0 and not any(A)


def cell_contains_cell(outer: Cell, inner: Cell) -> bool:
    """Set containment inner <= outer, decided constraint by constraint."""
    if outer.ambient_dim != inner.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return (all(form_vanishes_on(inner, f) for f in outer.eqs)
            and all(strict_point(inner, f.negated()) is None for f in outer.ineqs))


def _split_piece(cell, forms) -> Cell | None:
    """The piece of the cell where all forms are >= 0 if it has the cell's
    dimension, else None.

    The slack program certifies a point where every inequality of the cell
    and every new form are simultaneously strict, so the piece has the
    cell's affine hull and shares its elimination and equalities.
    """
    point, slack = _relint_lp(cell.ineqs + forms, cell._elim)
    if point is None or slack <= 0:
        return None
    return cell._replace_geometry(ineqs=cell.ineqs + forms, interior_point=point)


# -- operations on cells --------------------------------------------------


def intersect(a: Cell, b: Cell) -> Cell | None:
    """Set intersection as a canonical cell, or None when empty."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Cell.try_from_constraints(a.ambient_dim, a.ineqs + b.ineqs, a.eqs + b.eqs)


def product_cell(a: Cell, b: Cell) -> Cell:
    """Cartesian product inside R^{n+m}."""
    za, zb = (0,) * a.ambient_dim, (0,) * b.ambient_dim

    def lift(fa, fb):
        return (tuple(AffineForm(f.linear + zb, f.constant) for f in fa)
                + tuple(AffineForm(za + f.linear, f.constant) for f in fb))

    return Cell(a.ambient_dim + b.ambient_dim, lift(a.ineqs, b.ineqs), lift(a.eqs, b.eqs),
                a.interior_point + b.interior_point)


def collect_hyperplanes(cells) -> tuple:
    """Canonical forms of all hyperplanes supporting the given cells."""
    seen = {}
    for cell in cells:
        for f in cell.ineqs + cell.eqs:
            h = hyperplane_form(f)
            if h is not None:
                seen.setdefault(h.sort_key(), h)
    return tuple(seen[k] for k in sorted(seen))


def _hull_box(cell):
    """The bounds (lo_j, hi_j) of each free variable z_j of the cell's
    elimination over a cell of dimension two or more, None on an unbounded
    side, by two LPs per variable from the interior point, whose rows are
    the integer lines of the cell's inequalities (:func:`_lines`).  Only
    :func:`refine_cell` reads it; a cell with at most one free variable is
    read from its interval instead (:func:`_refine_interval`)."""
    elim = cell._elim
    k = len(elim[1])
    rows = [(A, -G) for A, G in _lines(cell.ineqs, elim)]
    start = tuple(cell.interior_point[j] for j in elim[3])
    box = []
    for j in range(k):
        bounds = []
        for sign in (-1, 1):
            res = lp_max(k, tuple(sign if i == j else 0 for i in range(k)), ineqs=rows, start=start)
            if res.status == UNBOUNDED:
                bounds.append(None)
            else:
                _require_optimal(res, "hull-box LP")
                bounds.append(sign * res.value)
        box.append(tuple(bounds))
    return box


def _sign_on_box(line, box):
    """The sign a form keeps on the whole box, by interval arithmetic on its
    integer line A . z + G (:func:`_lines`): 1 when the form is >= 0
    there, -1 when it is <= 0, 0 when the line is zero (both hold) and None
    when it takes both signs.  Only :func:`refine_cell` on a cell of
    dimension two or more reads it."""
    A, lo = line
    hi = lo
    for aj, (lo_j, hi_j) in zip(A, box):
        if aj == 0:
            continue
        down, up = (lo_j, hi_j) if aj > 0 else (hi_j, lo_j)
        lo = None if lo is None or down is None else lo + aj * down
        hi = None if hi is None or up is None else hi + aj * up
    nonneg, nonpos = lo is not None and lo >= 0, hi is not None and hi <= 0
    return nonneg - nonpos if nonneg or nonpos else None


def refine_cell(cell: Cell, forms) -> list:
    """Split a cell along every hyperplane {form = 0} of the arrangement.

    Returns (piece, signs) pairs for the full-dimensional closed pieces,
    which tile the cell; ``signs[i]`` is the sign, 1, -1 or 0, of
    ``forms[i]`` on the piece's relative interior, so two pieces of one
    arrangement are the same set exactly when their signs agree.  A cell
    no form cuts comes back as itself.

    On a cell with at most one free variable the arrangement is a sorted
    list of points, the crossings of the forms' integer lines, read as
    integer pairs (:func:`_refine_interval`), and nothing is probed.  On a
    point every line is a constant G, so the point comes back alone, with
    the signs of the Gs.

    Other cells start from a box around the cell: the bounds of each free
    variable z_j of its affine hull x = (c + sum z_j w_j) / d
    (:func:`_eliminate`), by two LPs per variable (:func:`_hull_box`).  A
    form whose line A . z + G is >= 0 or <= 0 over the box keeps that sign
    on every piece (:func:`_sign_on_box`).  Its sign is 0 when the line is
    zero; otherwise the form cannot vanish at a relative interior point of
    a piece, where it would take a minimum inside the hull.  Only the
    forms that take both signs on the box are probed, by at most one slack
    program per side and piece.  A probed form is 1 on its positive side
    and -1 on its negative one.  A piece gains it only when it cuts the
    piece: if the other side is empty, the piece stays as it was, with the
    sign of its own side.
    """
    forms = tuple(forms)
    if not forms:
        return [(cell, ())]
    if cell.dim <= 1:
        return _refine_interval(cell, forms)
    box = _hull_box(cell)
    pieces = [(cell, ())]
    for f, line in zip(forms, _lines(forms, cell._elim)):
        sign = _sign_on_box(line, box)
        if sign is not None:
            pieces = [(c, signs + (sign,)) for c, signs in pieces]
            continue
        out = []
        for c, signs in pieces:
            val = f.value_at(c.interior_point)
            pos = c._replace_geometry(ineqs=c.ineqs + (f,)) if val > 0 else _split_piece(c, (f,))
            neg = (c._replace_geometry(ineqs=c.ineqs + (f.negated(),)) if val < 0
                   else _split_piece(c, (f.negated(),)))
            if pos is None or neg is None:
                out.append((c, signs + (-1 if pos is None else 1,)))
            else:
                out += [(pos, signs + (1,)), (neg, signs + (-1,))]
        pieces = out
    return pieces


def _refine_interval(cell, forms):
    """:func:`refine_cell` on a cell with at most one free variable z, which
    runs over the interval (lo, hi) the cell's inequalities cut out
    (:func:`_interval`), unbounded on both sides on a point, where no line
    crosses.

    Each form is read as its integer line A z + G (:func:`_lines`).
    One with A != 0 crosses at z = -G / A, held as the reduced integer pair
    (-G / g, A / g) for g = gcd(G, A) taken with the sign of A, so two
    crossings are equal exactly when their pairs are.  The distinct
    crossings strictly inside (lo, hi), decided by cross-multiplication,
    are the cuts, sorted by their numerators over the lcm of their
    denominators; no crossing is built as a rational.  The pieces are the
    intervals between consecutive cuts and the ends.  Each piece adds to
    the cell's inequalities the first form that crosses at each of its
    inner ends, oriented to be >= 0 on the piece, and takes the point of
    its interval (:func:`_interval_point`), whose coordinates are the only
    rationals built.  The rank r of a crossing is the number of pieces
    below it: the index of its cut plus one, 0 at or below lo, and m + 1
    at or above hi, for m cuts.  So the form's sign on piece i is sign(A)
    when i >= r and -sign(A) otherwise; a form with A = 0 keeps sign(G).
    The pieces, their inequalities and points, and the signs are those of
    the rational reading of the crossings.
    """
    elim = cell._elim
    lo, hi = _interval(_lines(cell.ineqs, elim))
    lines = []
    for A, G in _lines(forms, elim):
        A = A[0] if A else 0
        if A:
            g = gcd(G, A) if A > 0 else -gcd(G, A)
            lines.append((1 if A > 0 else -1, (-G // g, A // g)))
        else:
            lines.append((0, (G > 0) - (G < 0)))
    cuts = {z for s, z in lines if s and (lo is None or z[0] * lo[1] > lo[0] * z[1])
            and (hi is None or z[0] * hi[1] < hi[0] * z[1])}
    D = lcm(*(q for _, q in cuts))
    cuts = sorted(cuts, key=lambda z: z[0] * (D // z[1]))
    m = len(cuts)
    rank = {z: i + 1 for i, z in enumerate(cuts)}
    ranked = [(s, rank.get(z, 0 if lo is not None and z[0] * lo[1] <= lo[0] * z[1] else m + 1))
              if s else (0, z) for s, z in lines]

    def signs(i):
        return tuple(v if s == 0 else (s if i >= v else -s) for s, v in ranked)

    if not cuts:
        return [(cell, signs(0))]
    # The first form crossing at each cut, oriented >= 0 above it.
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
        point = _interval_point(elim, cuts[i - 1] if i else lo, cuts[i] if i < m else hi)
        pieces.append((cell._replace_geometry(ineqs=ineqs, interior_point=point), signs(i)))
    return pieces


# -- generator-style constructors ------------------------------------------


def cone_from_rays(rays, ambient_dim) -> Cell:
    """Simplicial cone spanned by linearly independent integer rays.

    The H-representation pairs each ray with a dual form positive on it and
    vanishing on the others; equalities cut out the linear span.
    """
    rays = tuple(int_vector(r) for r in rays)
    if any(len(r) != ambient_dim for r in rays):
        raise ValueError(f"a ray of the wrong length in R^{ambient_dim}")
    if not rays:
        return point_cell((0,) * ambient_dim)
    if mat_rank(rays) != len(rays):
        raise ValueError("rays are linearly dependent")
    eqs = tuple(AffineForm(a, 0) for a in kernel_lattice(rays, ambient_dim))
    ineqs = []
    for i in range(len(rays)):
        rhs = tuple(1 if j == i else 0 for j in range(len(rays)))
        a = solve_rational(list(rays), rhs)
        ineqs.append(form_from_rational(a, 0))
    apex = tuple(sum(QQ(r[i]) for r in rays) for i in range(ambient_dim))
    return Cell(ambient_dim, tuple(ineqs), eqs, apex)


def point_cell(p) -> Cell:
    p = tuple(QQ(x) for x in p)
    n = len(p)
    eqs = tuple(AffineForm(tuple(1 if j == i else 0 for j in range(n)), -p[i])
                for i in range(n))
    return Cell(n, (), eqs, p)


def ray_cell(base, direction) -> Cell:
    """Halfline base + R_{>=0} . direction."""
    base = tuple(QQ(x) for x in base)
    d = int_vector(direction)
    if not any(d):
        raise ValueError("degenerate ray")
    n = len(base)
    eqs = tuple(AffineForm(a, -dot(a, base)) for a in kernel_lattice([d], n))
    ineq = AffineForm(d, -dot(d, base))
    interior = tuple(b + QQ(x) for b, x in zip(base, d))
    return Cell(n, (ineq,), eqs, interior)


def segment_cell(p, q) -> Cell:
    p = tuple(QQ(x) for x in p)
    q = tuple(QQ(x) for x in q)
    if p == q:
        raise ValueError("degenerate segment")
    n = len(p)
    d = clear_denominators(tuple(b - a for a, b in zip(p, q)))
    eqs = tuple(AffineForm(a, -dot(a, p)) for a in kernel_lattice([d], n))
    ineqs = (AffineForm(d, -dot(d, p)), AffineForm(tuple(-x for x in d), dot(d, q)))
    return Cell(n, ineqs, eqs, tuple((a + b) / 2 for a, b in zip(p, q)))
