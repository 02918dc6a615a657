"""Weighted polyhedral complexes and balanced cycles embedded in R^n.

A :class:`WeightedComplex` stores only its maximal cells together with
integer weights; ridges and deeper faces are derived on demand.  A
:class:`Cycle` is a complex satisfying the balancing condition, considered
up to refinement: two cycles are equal when a common refinement carries
identical weights.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations

from .kernel import QQ, int_vector, least_positive_vector, vec_add, vec_scale
from .polyhedra import (
    Cell,
    collect_hyperplanes,
    cone_from_rays,
    intersect,
    product_cell,
    refine_cell,
)


class WeightedComplex:
    """Pure-dimensional collection of maximal cells with integer weights.

    The empty complex is allowed in every dimension.  Every cell must lie
    in R^ambient_dim; construction raises ValueError, naming the first
    cell that does not.  Instances are immutable; derived data (ridge
    lists) is cached.
    """

    __slots__ = ("ambient_dim", "dim", "cells", "weights", "_ridges")

    def __init__(self, ambient_dim, dim, cells=(), weights=()):
        self.ambient_dim = ambient_dim
        self.dim = dim
        self.cells = tuple(cells)
        self.weights = int_vector(weights)
        if len(self.cells) != len(self.weights):
            raise ValueError("one weight per maximal cell required")
        for i, cell in enumerate(self.cells):
            if cell.ambient_dim != ambient_dim:
                raise ValueError(f"cell {i} lies in R^{cell.ambient_dim}, not in R^{ambient_dim}")
        self._ridges = None

    @property
    def is_empty(self) -> bool:
        return not self.cells

    def nonzero_part(self) -> "WeightedComplex":
        kept = [(c, w) for c, w in zip(self.cells, self.weights) if w != 0]
        return WeightedComplex(self.ambient_dim, self.dim,
                               [c for c, _ in kept], [w for _, w in kept])

    def ridges(self):
        """Codimension-one cells with the indices of their adjacent facets
        and the lattice normal of each facet: the vector of the facet lattice
        on which the inequality that cut the face out of the canonical cell
        (see :meth:`Cell.faces_of_codim_one`) is least positive.

        Faces are matched by their affine hulls and then by a relative
        interior point, which presumes that maximal cells meet in faces
        (see :func:`validate_complex`): two faces with one hull then meet in
        a face of both, which holds a relative-interior point of the first
        only if the two are equal.  Ridges come in order of first appearance.
        """
        if self._ridges is None:
            buckets, ridges = {}, []
            for idx, cell in enumerate(self.cells):
                basis = cell.direction_lattice.vectors
                for face, g in zip(cell.faces_of_codim_one(), cell.canonical_cell().ineqs):
                    u = least_positive_vector(basis, [g.eval_direction(b) for b in basis])
                    bucket = buckets.setdefault(face.hull_key, [])
                    for ridge, idxs, normals in bucket:
                        if ridge.contains_point(face.interior_point):
                            idxs.append(idx)
                            normals.append(u)
                            break
                    else:
                        bucket.append((face, [idx], [u]))
                        ridges.append(bucket[-1])
            self._ridges = tuple((face, tuple(idxs), tuple(normals))
                                 for face, idxs, normals in ridges)
        return self._ridges

    def __repr__(self):
        return (f"WeightedComplex(n={self.ambient_dim}, dim={self.dim}, "
                f"{len(self.cells)} maximal cells)")


class NormalVector(namedtuple("NormalVector", "facet ridge representative")):
    """Lattice normal of a facet relative to a ridge: ``representative``
    generates the facet lattice modulo the ridge lattice and points into the
    facet; :func:`normal_vector` says which representative it is."""

    __slots__ = ()


class BalanceReport(namedtuple("BalanceReport", "balanced witness defect",
                               defaults=(None, None))):
    """Whether a complex is balanced; if not, a ridge ``witness`` and the
    ``defect`` there, the weighted sum of its normals."""

    __slots__ = ()

    def __bool__(self):
        return self.balanced


class Diagnostics(namedtuple("Diagnostics", "valid problems")):
    """Whether a complex is valid, and the list of its problems."""

    __slots__ = ()

    def __bool__(self):
        return self.valid


class Cycle:
    """An equivalence class of balanced complexes, held by a representative.

    A cell of weight zero is no part of a cycle, so the constructor drops
    those cells and every representative has nonzero weights only.  Pass
    ``check=False`` to skip the balancing verification when the input is
    balanced by construction.
    """

    __slots__ = ("complex",)

    def __init__(self, complex: WeightedComplex, check: bool = True):
        if 0 in complex.weights:
            complex = complex.nonzero_part()
        if check:
            report = is_balanced(complex)
            if not report:
                raise ValueError(f"complex is not balanced at ridge {report.witness!r}")
        self.complex = complex

    @classmethod
    def empty(cls, ambient_dim, dim) -> "Cycle":
        return cls(WeightedComplex(ambient_dim, dim), check=False)

    @property
    def ambient_dim(self):
        return self.complex.ambient_dim

    @property
    def dim(self):
        return self.complex.dim

    @property
    def is_empty(self):
        return self.complex.is_empty

    def __add__(self, other):
        return add(self, other)

    def __neg__(self):
        return negate(self)

    def __rmul__(self, m):
        if isinstance(m, int):
            return scale(self, m)
        return NotImplemented

    def __repr__(self):
        return f"Cycle({self.complex!r})"


# -- validation and balancing ----------------------------------------------


def validate_complex(c: WeightedComplex) -> Diagnostics:
    """Check pure dimension and that cells meet along common faces.

    Maximal cells must pairwise intersect in a face of each; this is what
    makes relative interiors of derived faces partition the support.
    """
    problems = []
    for cell in c.cells:
        if cell.dim != c.dim:
            problems.append(f"cell {cell!r} breaks pure dimension {c.dim}")
    cells = c.cells
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            common = intersect(cells[i], cells[j])
            if common is None:
                continue
            if common.dim == c.dim:
                problems.append(f"maximal cells {i} and {j} overlap in dimension {c.dim}")
                continue
            for label, cell in ((i, cells[i]), (j, cells[j])):
                face = _minimal_face_through(cell, common.interior_point)
                if not face.same_set(common):
                    problems.append(
                        f"intersection of maximal cells {i} and {j} "
                        f"is not a face of cell {label}")
    return Diagnostics(not problems, problems)


def _minimal_face_through(cell: Cell, p) -> Cell:
    """Smallest face of the cell containing a point of it."""
    tight = tuple(f for f in cell.ineqs if f.value_at(p) == 0)
    return Cell.from_constraints(cell.ambient_dim, cell.ineqs, cell.eqs + tight)


def normal_vector(facet: Cell, ridge: Cell) -> NormalVector:
    """Lattice normal of a facet relative to a codimension-one face.

    A facet inequality g tight on the ridge that vanishes on its directions
    but not on the facet's cuts the ridge lattice out of the facet lattice,
    so the representative is the facet lattice vector on which g takes its
    least positive value (:func:`~tropint.kernel.least_positive_vector`).
    Another such g changes it by a ridge lattice vector only.  This is the
    validated entry point for any pair; the library's own loops read the
    normals :meth:`WeightedComplex.ridges` carries.
    """
    p = ridge.interior_point
    values = [f.value_at(p) for f in facet.ineqs]
    directions = ridge.direction_lattice.vectors
    if (ridge.dim != facet.dim - 1 or any(v < 0 for v in values)
            or any(f.value_at(p) != 0 for f in facet.eqs)
            or any(f.eval_direction(b) != 0 for f in facet.eqs for b in directions)):
        raise ValueError("ridge is not a codimension-one face of the facet")
    basis = facet.direction_lattice.vectors
    for g, v in zip(facet.ineqs, values):
        if v == 0 and all(g.eval_direction(b) == 0 for b in directions):
            pairing = [g.eval_direction(b) for b in basis]
            if any(pairing):
                return NormalVector(facet, ridge, least_positive_vector(basis, pairing))
    raise ValueError("no facet inequality cuts the ridge out of the facet")


def _weighted_normals(c: WeightedComplex):
    """Per ridge of the complex, in the order of :meth:`WeightedComplex.ridges`:
    the ridge, the indices of its facets, the normals those carry scaled by
    the facet weights, and the sum of the scaled normals."""
    n = c.ambient_dim
    for ridge, idxs, normals in c.ridges():
        scaled = tuple(vec_scale(c.weights[i], v) for i, v in zip(idxs, normals))
        s = (0,) * n
        for u in scaled:
            s = vec_add(s, u)
        yield ridge, idxs, scaled, s


def is_balanced(c: WeightedComplex) -> BalanceReport:
    """Check the balancing condition at every ridge of the nonzero part.

    The weighted sum of the normals the ridges carry must lie in the linear
    span of the ridge, that is, every equality of the ridge must vanish on
    it, so no choice of representatives matters.  Maximal cells must meet
    in faces (see :func:`validate_complex`), or the ridges are not matched
    up correctly.  A complex with no zero weight is balanced as it is, so
    it keeps the ridges it computes.
    """
    for ridge, _, _, s in _weighted_normals(c.nonzero_part() if 0 in c.weights else c):
        if not all(f.eval_direction(s) == 0 for f in ridge.eqs):
            return BalanceReport(False, ridge, s)
    return BalanceReport(True)


# -- refinement, sums, equality ---------------------------------------------


def _weighted_sum(ambient_dim, dim, entries) -> Cycle:
    """Refine the cells of (cell, weight) pairs of one dimension to a common
    complex and add the weights each piece receives.

    Every cell is refined along the hyperplanes of all of them, so pieces
    from different cells that share a sign vector over that arrangement,
    which :func:`refine_cell` returns with each piece, are the same set;
    the first such piece stands for them.  Pieces come in sorted key order;
    :class:`Cycle` drops those whose weights sum to zero.
    """
    forms = collect_hyperplanes([cell for cell, _ in entries])
    table = {}
    for cell, w in entries:
        for piece, signs in refine_cell(cell, forms):
            table.setdefault(signs, [piece, 0])[1] += w
    kept = [table[key] for key in sorted(table)]
    out = WeightedComplex(ambient_dim, dim, [p for p, _ in kept], [w for _, w in kept])
    return Cycle(out, check=False)


def add(a: Cycle, b: Cycle) -> Cycle:
    """Sum of cycles: refine to a common complex and add weights."""
    if a.ambient_dim != b.ambient_dim or a.dim != b.dim:
        raise ValueError("cannot add cycles of different dimension")
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    ca, cb = a.complex, b.complex
    return _weighted_sum(a.ambient_dim, a.dim,
                         list(zip(ca.cells + cb.cells, ca.weights + cb.weights)))


def negate(a: Cycle) -> Cycle:
    return scale(a, -1)


def scale(a: Cycle, m: int) -> Cycle:
    c = a.complex
    scaled = WeightedComplex(c.ambient_dim, c.dim, c.cells,
                             [m * w for w in c.weights])
    return Cycle(scaled, check=False)


def cycles_equal(a: Cycle, b: Cycle) -> bool:
    """Equality up to refinement: the difference has empty nonzero part."""
    if a.ambient_dim != b.ambient_dim or a.dim != b.dim:
        return False
    return add(a, negate(b)).is_empty


# -- products, translations, standard cycles --------------------------------


def cartesian_product(a: Cycle, b: Cycle) -> Cycle:
    """Product cycle in R^{n+m}; weights multiply cell by cell."""
    if a.is_empty or b.is_empty:
        return Cycle.empty(a.ambient_dim + b.ambient_dim, a.dim + b.dim)
    ca, cb = a.complex, b.complex
    cells, weights = [], []
    for c1, w1 in zip(ca.cells, ca.weights):
        for c2, w2 in zip(cb.cells, cb.weights):
            cells.append(product_cell(c1, c2))
            weights.append(w1 * w2)
    out = WeightedComplex(ca.ambient_dim + cb.ambient_dim, ca.dim + cb.dim,
                          cells, weights)
    return Cycle(out, check=False)


def translate(a: Cycle, v) -> Cycle:
    if len(v) != a.ambient_dim:
        raise ValueError(f"translation by a vector of length {len(v)} in R^{a.ambient_dim}")
    v = tuple(QQ(x) for x in v)
    c = a.complex
    moved = WeightedComplex(c.ambient_dim, c.dim,
                            [cell.translate(v) for cell in c.cells], c.weights)
    return Cycle(moved, check=False)


def minus_e(i: int, n: int) -> tuple:
    """Generator -e_i of the standard directions, with e_0 = -e_1-...-e_n."""
    if i == 0:
        return (1,) * n
    return tuple(-1 if j == i - 1 else 0 for j in range(n))


@lru_cache(maxsize=None)
def standard_skeleton(n: int, k: int) -> Cycle:
    """k-skeleton of the fan of the tropical hyperplane in R^n, weights 1.

    Maximal cones are spanned by k of the n+1 directions -e_0, ..., -e_n;
    these are the balanced skeleta that the degree and genericity tests are
    measured against.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    cells = [cone_from_rays([minus_e(i, n) for i in subset], n)
             for subset in combinations(range(n + 1), k)]
    for cell in cells:
        # The cycle is cached, so a lattice filled on its first read would
        # make the work of later calls depend on which call read it first.
        cell.direction_lattice
    cx = WeightedComplex(n, k, cells, [1] * len(cells))
    return Cycle(cx, check=False)


def rn_cycle(n: int) -> Cycle:
    """The ambient space R^n as a cycle with weight one."""
    return Cycle(WeightedComplex(n, n, [Cell.full_space(n)], [1]), check=False)
