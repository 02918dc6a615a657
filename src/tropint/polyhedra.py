"""Exact rational polyhedra in H-representation.

A :class:`Cell` is a nonempty rational polyhedron in R^n described by
integer-linear inequalities and equalities, with its dimension, a relative
interior point and the lattice of its direction space cached at
construction.  All geometric predicates are decided exactly by one slack
program, :func:`_slack_lp`: in closed form when its equalities leave at
most one free variable, as for cells of dimension one or less and the
facets of cells of dimension two, and by the rational simplex otherwise.
There is no vertex enumeration anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from ._simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult, lp_max
from .kernel import (
    QQ,
    LatticeBasis,
    clear_denominators,
    dot,
    echelon,
    int_vector,
    kernel_lattice,
    rat_parts,
    solve_rational,
    subspace_lattice,
    vec_gcd,
)


class EmptyCellError(ValueError):
    """Raised when a constraint system has no solutions."""


@dataclass(frozen=True)
class AffineForm:
    """An affine functional a . x + c with integer linear part a.

    Used both as an inequality (meaning value >= 0) and as an equality
    (value == 0), depending on which list of a cell it sits in.
    """

    linear: tuple
    constant: object  # exact rational

    def __post_init__(self):
        object.__setattr__(self, "linear", int_vector(self.linear))
        object.__setattr__(self, "constant", QQ(self.constant))

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
    lazily and at one slack program per inequality g: "g = 0, the others
    >= t", an LP only on cells of dimension three or more.  The program
    keeps g exactly when t > 0, and its point then lies in the relative
    interior of g's facet, so :meth:`faces_of_codim_one` builds the facets
    from those points with no further solve.
    """

    __slots__ = (
        "ambient_dim", "ineqs", "eqs", "dim", "interior_point",
        "direction_lattice", "_canonical", "_facet_points", "_canonical_cell",
        "_faces", "_recession",
    )

    def __init__(self, ambient_dim, ineqs, eqs, dim, interior_point, direction_lattice):
        self.ambient_dim = ambient_dim
        self.ineqs = tuple(ineqs)
        self.eqs = tuple(eqs)
        self.dim = dim
        self.interior_point = tuple(QQ(x) for x in interior_point)
        self.direction_lattice = direction_lattice
        self._canonical = None
        self._facet_points = None
        self._canonical_cell = None
        self._faces = None
        self._recession = None

    # -- construction -----------------------------------------------------

    @classmethod
    def try_from_constraints(cls, ambient_dim, ineqs=(), eqs=()) -> "Cell | None":
        """Canonicalize a constraint system; None if it is infeasible.

        Detects implied equalities and migrates them to the equality list,
        then caches dimension, a relative interior point and the saturated
        lattice of the direction space.
        """
        ceq, eq_keys = [], set()
        for f in eqs:
            h = hyperplane_form(f)
            if h is None:
                if f.constant != 0:
                    return None
                continue
            if h.sort_key() not in eq_keys:
                eq_keys.add(h.sort_key())
                ceq.append(h)
        cin, seen = [], set()
        for f in ineqs:
            f = f.scaled_primitive()
            if all(a == 0 for a in f.linear):
                if f.constant < 0:
                    return None
                continue
            # An inequality on the hyperplane of a listed equality is implied
            # by it and needs no probe.
            if f.sort_key() not in seen and hyperplane_form(f).sort_key() not in eq_keys:
                seen.add(f.sort_key())
                cin.append(f)

        point, slack = _relint_lp(ambient_dim, cin, ceq)
        if point is None:
            return None
        if slack == 0:
            # Only inequalities tight at the best-slack witness can be
            # implied equalities; the rest are strict somewhere already.
            implied, strict = [], []
            for g in cin:
                if g.value_at(point) == 0 and _max_capped(ambient_dim, g, cin, ceq) == 0:
                    implied.append(g)
                else:
                    strict.append(g)
            ceq = ceq + implied
            cin = strict
            point, slack = _relint_lp(ambient_dim, cin, ceq)
            if point is None or slack <= 0:
                raise RuntimeError("relative-interior LP found no strict point "
                                   "after moving implied equalities")
        return cls._at_point(ambient_dim, cin, ceq, point)

    @classmethod
    def _at_point(cls, ambient_dim, ineqs, eqs, point) -> "Cell":
        """The cell of a system with no implied equality, given a point where
        every inequality is strict."""
        lattice = LatticeBasis(ambient_dim, kernel_lattice([f.linear for f in eqs], ambient_dim))
        return cls(ambient_dim, ineqs, eqs, lattice.rank, point, lattice)

    @classmethod
    def from_constraints(cls, ambient_dim, ineqs=(), eqs=()) -> "Cell":
        cell = cls.try_from_constraints(ambient_dim, ineqs, eqs)
        if cell is None:
            raise EmptyCellError("empty cell")
        return cell

    @classmethod
    def full_space(cls, n) -> "Cell":
        return cls(n, (), (), n, (QQ(0),) * n,
                   LatticeBasis(n, kernel_lattice([], n)))

    def _replace_geometry(self, ineqs=None, eqs=None, interior_point=None):
        """Same-dimension variant sharing this cell's affine hull data."""
        return Cell(
            self.ambient_dim,
            self.ineqs if ineqs is None else ineqs,
            self.eqs if eqs is None else eqs,
            self.dim,
            self.interior_point if interior_point is None else interior_point,
            self.direction_lattice,
        )

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
        interior, so no LP is needed here.
        """
        if self._faces is None:
            cell = self.canonical_cell()
            self._faces = tuple(
                Cell._at_point(self.ambient_dim, cell.ineqs[:i] + cell.ineqs[i + 1:],
                               cell.eqs + (hyperplane_form(g),), point)
                for i, (g, point) in enumerate(zip(cell.ineqs, cell._facet_points)))
        return self._faces

    def recession_cone(self) -> "Cell":
        """Directions v with cell + R_{>=0} v inside the cell."""
        if self._recession is None:
            self._recession = Cell.from_constraints(
                self.ambient_dim,
                [AffineForm(f.linear, 0) for f in self.ineqs],
                [AffineForm(f.linear, 0) for f in self.eqs])
        return self._recession

    def tangent_cone(self, p) -> "Cell":
        """Cone of directions entering the cell at a point of it."""
        if not self.contains_point(p):
            raise ValueError("tangent cone at a point outside the cell")
        tight = [AffineForm(f.linear, 0) for f in self.ineqs if f.value_at(p) == 0]
        eqs = [AffineForm(f.linear, 0) for f in self.eqs]
        return Cell.from_constraints(self.ambient_dim, tight, eqs)

    def translate(self, v) -> "Cell":
        return Cell(
            self.ambient_dim,
            tuple(f.translate(v) for f in self.ineqs),
            tuple(f.translate(v) for f in self.eqs),
            self.dim,
            tuple(QQ(a) + QQ(b) for a, b in zip(self.interior_point, v)),
            self.direction_lattice,
        )

    # -- canonical form ---------------------------------------------------

    @property
    def canonical_key(self):
        """Hashable key equal for two cells iff they are the same set."""
        if self._canonical is None:
            self._canonical, self._facet_points = self._canonicalize()
        return self._canonical

    @property
    def hull_key(self):
        """Hashable key equal for two cells of R^n iff their affine hulls
        are equal; read from the equalities alone, with no LP."""
        return tuple(f.sort_key() for f in self._hull()[0])

    def _hull(self):
        """Canonical equalities of the affine hull, with the pivot columns,
        scale d > 0 and pivot rows that reduce forms modulo them."""
        n = self.ambient_dim
        # The pivot rows of t are d times the reduced row echelon form of
        # the equalities, which is unique for the affine hull.  Negated
        # along with d when d < 0, they are positive multiples of it.
        t, pivots, d = echelon([f.linear + (f.constant,) for f in self.eqs])
        sign = -1 if d < 0 else 1
        d, rows = sign * d, [[sign * x for x in row] for row in t[:len(pivots)]]
        eqs = tuple(AffineForm(row[:n], row[n]).scaled_primitive() for row in rows)
        return eqs, pivots, d, rows

    def _canonicalize(self):
        n = self.ambient_dim
        canon_eqs, pivots, d, eq_rows = self._hull()
        reduced = {}
        for g in self.ineqs:
            # d times the coset representative of g modulo the equalities.
            row = [d * x for x in g.linear + (g.constant,)]
            for col, e in zip(pivots, eq_rows):
                f = g.linear[col]
                if f:
                    row = [a - f * b for a, b in zip(row, e)]
            if any(row[:n]):
                h = AffineForm(row[:n], row[n]).scaled_primitive()
            else:
                # Constant on the hull; there is no gcd to divide d out by.
                h = AffineForm(row[:n], row[n] / d)
            reduced.setdefault(h.sort_key(), h)
        candidates = [reduced[k] for k in sorted(reduced)]
        kept, points = list(candidates), []
        for g in candidates:
            # No other candidate is a positive multiple of g on the hull, so
            # the others are strict somewhere on g = 0 exactly when g cuts out
            # a facet; a g constant on the hull makes g = 0 infeasible.
            point, slack = _relint_lp(n, [h for h in kept if h is not g], canon_eqs + (g,))
            if point is None or slack <= 0:
                kept.remove(g)
            else:
                points.append(point)
        key = (n, self.dim, tuple(f.sort_key() for f in canon_eqs),
               tuple(f.sort_key() for f in kept))
        return key, tuple(points)

    def canonical_cell(self) -> "Cell":
        """The same set with irredundant, canonically reduced constraints."""
        if self._canonical_cell is None:
            n, _, eq_keys, in_keys = self.canonical_key
            cell = self._replace_geometry(
                ineqs=tuple(AffineForm(lin, QQ(p, q)) for lin, (p, q) in in_keys),
                eqs=tuple(AffineForm(lin, QQ(p, q)) for lin, (p, q) in eq_keys),
            )
            cell._canonical, cell._facet_points = self._canonical, self._facet_points
            cell._canonical_cell = cell
            self._canonical_cell = cell
        return self._canonical_cell

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


def _hull_row(f, hull):
    """The form f >= 0 as a pair (a, r) meaning a . y >= r.

    Over Q^n (``hull`` None) y is x and the row is the form itself; over the
    affine hull of a cell, y are the coordinates of x = p + sum y_j b_j, with
    p the interior point and b the direction basis of the cell, so a_j is
    the linear part of f paired with b_j and r is -f(p).
    """
    if hull is None:
        return f.linear, -f.constant
    return (tuple(f.eval_direction(b) for b in hull.direction_lattice.vectors),
            -f.value_at(hull.interior_point))


def _slack_lp(n, plain, slack, eqs=(), hull=None):
    """Maximize t <= 1 subject to plain forms >= 0, slack forms >= t and
    eqs == 0, over Q^n or, given a cell of Q^n as ``hull``, over its affine
    hull, in the coordinates of :func:`_hull_row`.

    A program with at most one free variable once its equalities are
    eliminated is solved in closed form by :func:`_slack_closed_form`; any
    other goes to the simplex, with the rows the plain forms, the slack
    forms, the cap and the equalities, in this order.  The result carries
    t as its value and x as its point.
    """
    k = n if hull is None else len(hull.direction_lattice.vectors)
    plain, slack, eqs = ([_hull_row(f, hull) for f in fs] for fs in (plain, slack, eqs))
    res = _slack_closed_form(k, plain, slack, eqs) if k - len(eqs) <= 1 else None
    if res is None:
        ineqs = [(a + (0,), r) for a, r in plain] + [(a + (-1,), r) for a, r in slack]
        ineqs.append(((0,) * k + (-1,), -1))
        res = lp_max(k + 1, (0,) * k + (1,), ineqs=ineqs, eqs=[(a + (0,), r) for a, r in eqs])
    if res.status == OPTIMAL:
        y = res.point[:k]
        if hull is not None:
            p, basis = hull.interior_point, hull.direction_lattice.vectors
            y = tuple(pi + sum(yj * b[i] for yj, b in zip(y, basis)) for i, pi in enumerate(p))
        res.point = y
    return res


def _interval(lines):
    """The z with alpha z + gamma >= 0 for every (alpha, gamma), as (lo, hi)
    with None on an unbounded side, or None when there is none.  The gammas
    are rationals."""
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


def _slack_closed_form(k, plain, slack, eqs):
    """The slack program of :func:`_slack_lp` on rows (a, r) over y in Q^k,
    solved without the simplex; None when the equalities leave more than
    one free variable.

    Eliminating the equalities gives y = (c + z w) / d with d > 0, and w = 0
    when no variable is free.  A row becomes the line d (a . y - r) = A z + G:
    the plain rows bound z to an interval, and the slack rows with A = 0
    fold into the cap d t <= min(d, G).  The lowest increasing line meets
    the lowest decreasing one at max_u min_d z_ud, which maximizes the
    concave minimum of the lines; with lines of one slope sign only, the
    first z where all of them reach the cap does.  Clamped into the
    interval, z maximizes t.
    """
    rows, pivots, d = echelon([a + (r,) for a, r in eqs])
    if pivots and pivots[-1] == k:
        return LPResult(INFEASIBLE)
    free = [j for j in range(k) if j not in pivots]
    if len(free) > 1:
        return None
    if d < 0:
        d, rows = -d, [[-x for x in row] for row in rows]
    c, w = [0] * k, [0] * k
    for row, col in zip(rows, pivots):
        c[col] = row[k]
    if free:
        j = free[0]
        w[j] = d
        for row, col in zip(rows, pivots):
            w[col] = -row[j]

    def line(a, r):
        return dot(a, w), dot(a, c) - d * r

    box = _interval([line(a, r) for a, r in plain])
    if box is None:
        return LPResult(INFEASIBLE)
    cap, up, down = d, [], []
    for a, r in slack:
        A, G = line(a, r)
        if A > 0:
            up.append((A, G))
        elif A < 0:
            down.append((A, G))
        elif G < cap:
            cap = G
    if up and down:
        z = max(min((Gd - Gu) / (Au - Ad) for Ad, Gd in down) for Au, Gu in up)
    elif up:
        z = max((cap - G) / A for A, G in up)
    elif down:
        z = min((cap - G) / A for A, G in down)
    else:
        z = QQ(0)
    lo, hi = box
    if lo is not None and z < lo:
        z = lo
    if hi is not None and z > hi:
        z = hi
    value = min([cap] + [A * z + G for A, G in up + down])
    return LPResult(OPTIMAL, QQ(value, d), tuple((ci + z * wi) / d for ci, wi in zip(c, w)))


def _relint_lp(n, ineqs, eqs):
    """Point with all inequalities at slack >= t0 for the best t0 <= 1.

    Returns (point, t0) or (None, None) when infeasible.  t0 > 0 certifies
    that no inequality is an implied equality and the point is relatively
    interior.
    """
    res = _slack_lp(n, (), ineqs, eqs)
    if res.status == INFEASIBLE or (res.status == OPTIMAL and res.value < 0):
        # A negative best slack means the relaxed system only meets the
        # constraints short of their boundaries: the cell is empty.
        return None, None
    _require_optimal(res, "relative-interior LP")
    return res.point, res.value


def _max_capped(n, form, ineqs, eqs):
    """min(max(form), 1) over the system, via an auxiliary variable.

    Always feasible and bounded when the base system is feasible, which
    keeps the probe robust even when the form exceeds the cap everywhere.
    """
    res = _slack_lp(n, ineqs, (form,), eqs)
    _require_optimal(res, "capped maximum LP")
    return res.value


def strict_point(cell, form) -> tuple | None:
    """A point of the cell with form > 0, or None if form <= 0 on the cell."""
    res = _slack_lp(cell.ambient_dim, cell.ineqs, (form,), hull=cell)
    _require_optimal(res, "strict-point LP")
    return res.point if res.value > 0 else None


def form_nonnegative_on(cell, form) -> bool:
    """Exact validity of form >= 0 over the cell."""
    return strict_point(cell, form.negated()) is None


def form_vanishes_on(cell, form) -> bool:
    """Exact validity of form == 0 over the cell."""
    return (form.value_at(cell.interior_point) == 0
            and all(form.eval_direction(b) == 0 for b in cell.direction_lattice.vectors))


def cell_contains_cell(outer: Cell, inner: Cell) -> bool:
    """Set containment inner <= outer, decided constraint by constraint."""
    if outer.ambient_dim != inner.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    for f in outer.eqs:
        if not form_vanishes_on(inner, f):
            return False
    for f in outer.ineqs:
        if not form_nonnegative_on(inner, f):
            return False
    return True


def _split_piece(cell, forms, eqs=()) -> Cell | None:
    """The piece of the cell where all forms are >= 0 if it has the cell's
    dimension, else None.

    The slack program certifies a point where every inequality of the cell
    and every new form are simultaneously strict, so the piece inherits the
    cell's affine hull, dimension and direction lattice unchanged.  ``eqs``
    are forms that vanish on the cell; they join the piece's equalities.
    """
    res = _slack_lp(cell.ambient_dim, (), cell.ineqs + forms, hull=cell)
    if res.status == INFEASIBLE or res.value <= 0:
        return None
    return cell._replace_geometry(ineqs=cell.ineqs + forms, eqs=cell.eqs + eqs,
                                  interior_point=res.point)


# -- operations on cells --------------------------------------------------


def intersect(a: Cell, b: Cell) -> Cell | None:
    """Set intersection as a canonical cell, or None when empty."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Cell.try_from_constraints(a.ambient_dim, a.ineqs + b.ineqs, a.eqs + b.eqs)


def product_cell(a: Cell, b: Cell) -> Cell:
    """Cartesian product inside R^{n+m}; all cached data composes blockwise."""
    n, m = a.ambient_dim, b.ambient_dim

    def lift_a(f):
        return AffineForm(f.linear + (0,) * m, f.constant)

    def lift_b(f):
        return AffineForm((0,) * n + f.linear, f.constant)

    basis = tuple(v + (0,) * m for v in a.direction_lattice.vectors) + \
        tuple((0,) * n + v for v in b.direction_lattice.vectors)
    return Cell(
        n + m,
        tuple(lift_a(f) for f in a.ineqs) + tuple(lift_b(f) for f in b.ineqs),
        tuple(lift_a(f) for f in a.eqs) + tuple(lift_b(f) for f in b.eqs),
        a.dim + b.dim,
        a.interior_point + b.interior_point,
        LatticeBasis(n + m, basis),
    )


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
    """Bounds (lo_j, hi_j) of each coordinate y_j of :func:`_hull_row` over
    the cell, None on an unbounded side.  On a cell of dimension one the box
    is the interval its rows cut out; otherwise it takes two LPs per
    coordinate."""
    rows = [_hull_row(f, cell) for f in cell.ineqs]
    k = len(cell.direction_lattice.vectors)
    if k == 1:
        return [_interval([(a[0], -r) for a, r in rows])]
    box = []
    for j in range(k):
        bounds = []
        for sign in (-1, 1):
            res = lp_max(k, tuple(sign if i == j else 0 for i in range(k)), ineqs=rows)
            if res.status == UNBOUNDED:
                bounds.append(None)
            else:
                _require_optimal(res, "hull-box LP")
                bounds.append(sign * res.value)
        box.append(tuple(bounds))
    return box


def _one_sided_on_box(f, cell, box) -> bool:
    """Whether f >= 0 or f <= 0 holds on the whole box, by interval
    arithmetic on f = f(p) + sum f(b_j) y_j."""
    a, r = _hull_row(f, cell)
    lo = hi = -r
    for aj, (lo_j, hi_j) in zip(a, box):
        if aj == 0:
            continue
        down, up = (lo_j, hi_j) if aj > 0 else (hi_j, lo_j)
        lo = None if lo is None or down is None else lo + aj * down
        hi = None if hi is None or up is None else hi + aj * up
    return (lo is not None and lo >= 0) or (hi is not None and hi <= 0)


def refine_cell(cell: Cell, forms) -> list:
    """Split a cell along every hyperplane {form = 0} of the arrangement.

    Returns the full-dimensional closed pieces; they tile the cell and each
    lies weakly on one side of every hyperplane of the arrangement.

    Only the forms that take both signs on a box around the cell are
    probed.  The box bounds each coordinate y_j of x = p + sum y_j b_j on the
    cell's affine hull (p the interior point, b the direction basis), by two
    LPs per coordinate.  A form whose interval over the box,
    f(p) + sum f(b_j) [lo_j, hi_j], is >= 0 or <= 0 has one sign on the
    box, hence on the cell and on every piece inside it, so skipping it is
    exact; this also skips every form constant on the hull.  On a cell of
    dimension one the box is the cell itself, read from its rows with no
    LP, and each probe is a closed-form slack program; a point cell needs
    neither.
    A piece gains a form only when the form cuts it: if the other side of
    the piece is empty, the piece stays as it was.
    """
    forms = tuple(forms)
    if not forms:
        return [cell]
    box = _hull_box(cell)
    pieces = [cell]
    for f in forms:
        if _one_sided_on_box(f, cell, box):
            continue
        out = []
        for c in pieces:
            val = f.value_at(c.interior_point)
            pos = c._replace_geometry(ineqs=c.ineqs + (f,)) if val > 0 else _split_piece(c, (f,))
            neg = (c._replace_geometry(ineqs=c.ineqs + (f.negated(),)) if val < 0
                   else _split_piece(c, (f.negated(),)))
            out += [c] if pos is None or neg is None else [pos, neg]
        pieces = out
    return pieces


def sign_vector(cell: Cell, forms) -> tuple:
    """Signs of the arrangement forms on a cell lying weakly on one side.

    Only meaningful for pieces produced by refining along these forms: a
    zero at the interior point then certifies the form vanishes identically
    on the piece.
    """
    p = cell.interior_point
    out = []
    for f in forms:
        v = f.value_at(p)
        out.append(0 if v == 0 else (1 if v > 0 else -1))
    return tuple(out)


# -- generator-style constructors ------------------------------------------


def cone_from_rays(rays, ambient_dim) -> Cell:
    """Simplicial cone spanned by linearly independent integer rays.

    The H-representation pairs each ray with a dual form positive on it and
    vanishing on the others; equalities cut out the linear span.
    """
    rays = tuple(int_vector(r) for r in rays)
    if not rays:
        return point_cell((0,) * ambient_dim)
    lattice = subspace_lattice(rays, ambient_dim)
    if lattice.rank != len(rays):
        raise ValueError("rays are linearly dependent")
    eqs = tuple(AffineForm(a, 0) for a in kernel_lattice(rays, ambient_dim))
    ineqs = []
    for i in range(len(rays)):
        rhs = tuple(1 if j == i else 0 for j in range(len(rays)))
        a = solve_rational(list(rays), rhs)
        ineqs.append(form_from_rational(a, 0))
    apex = tuple(sum(QQ(r[i]) for r in rays) for i in range(ambient_dim))
    return Cell(ambient_dim, tuple(ineqs), eqs, len(rays), apex, lattice)


def point_cell(p) -> Cell:
    p = tuple(QQ(x) for x in p)
    n = len(p)
    eqs = tuple(AffineForm(tuple(1 if j == i else 0 for j in range(n)), -p[i])
                for i in range(n))
    return Cell(n, (), eqs, 0, p, LatticeBasis(n, ()))


def ray_cell(base, direction) -> Cell:
    """Halfline base + R_{>=0} . direction."""
    base = tuple(QQ(x) for x in base)
    d = int_vector(direction)
    n = len(base)
    eqs = tuple(AffineForm(a, -dot(a, base)) for a in kernel_lattice([d], n))
    ineq = AffineForm(d, -dot(d, base))
    interior = tuple(b + QQ(x) for b, x in zip(base, d))
    return Cell(n, (ineq,), eqs, 1, interior, subspace_lattice([d], n))


def segment_cell(p, q) -> Cell:
    p = tuple(QQ(x) for x in p)
    q = tuple(QQ(x) for x in q)
    if p == q:
        raise ValueError("degenerate segment")
    n = len(p)
    d = clear_denominators(tuple(b - a for a, b in zip(p, q)))
    eqs = tuple(AffineForm(a, -dot(a, p)) for a in kernel_lattice([d], n))
    ineqs = (AffineForm(d, -dot(d, p)),
             AffineForm(tuple(-x for x in d), dot(d, q)))
    mid = tuple((a + b) / 2 for a, b in zip(p, q))
    return Cell(n, ineqs, eqs, 1, mid, subspace_lattice([d], n))
