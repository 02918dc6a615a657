"""Rational functions, Cartier divisors and associated Weil divisors.

A rational function here is a continuous piecewise integer-affine function
on the support of a cycle: either a tropical polynomial (maximum of
finitely many integer-affine terms; the max convention is used throughout,
min-convention inputs are not accepted) or an explicit cell decomposition
with one affine form per cell.  Cartier divisors are such functions up to a
globally affine summand.

The divisor of a function on a cycle is the codimension-one cycle whose
weight at a ridge measures the failure of linearity across it:

    weight(ridge) = sum_f form_f(w_f * normal_f) - form_ridge(sum_f w_f * normal_f)

summed over the adjacent facets f.  Balancing of the input makes the second
argument a direction along the ridge, so the value does not depend on the
chosen normal representatives.
"""

from __future__ import annotations

from collections import namedtuple

from .cycles import Cycle, WeightedComplex, _weighted_normals
from .kernel import dot
from .polyhedra import (
    AffineForm,
    Cell,
    _nonconstant,
    _split_piece,
    collect_hyperplanes,
    form_vanishes_on,
    intersect,
    refine_cell,
)


class TropicalPolynomial(namedtuple("TropicalPolynomial", "terms")):
    """max of integer-affine terms, all of one length; the value at x is
    max_t t(x)."""

    __slots__ = ()

    def __new__(cls, terms):
        terms = tuple(terms)
        if not terms:
            raise ValueError("a tropical polynomial needs at least one term")
        n = len(terms[0].linear)
        for i, t in enumerate(terms):
            if len(t.linear) != n:
                raise ValueError(f"term {i} has {len(t.linear)} coefficients, term 0 has {n}")
        return super().__new__(cls, terms)

    def value(self, x):
        return max(t.value_at(x) for t in self.terms)


class PiecewisePL(namedtuple("PiecewisePL", "pieces")):
    """Affine forms on a finite cell cover, as (Cell, AffineForm) pieces.

    The cover need not be a polyhedral complex, only a collection of cells
    whose union contains the support the function will be used on.  The
    function must be continuous: construction raises ValueError unless the
    forms of every two pieces agree on the intersection of their cells.
    Two pieces with equal forms agree anywhere, and their cells are not
    intersected.
    """

    __slots__ = ()

    def __new__(cls, pieces):
        pieces = tuple(pieces)
        if not pieces:
            raise ValueError("empty piecewise function")
        for i, (ci, fi) in enumerate(pieces):
            for cj, fj in pieces[i + 1:]:
                if fi == fj:
                    continue
                common = intersect(ci, cj)
                if common is None:
                    continue
                diff = AffineForm(tuple(a - b for a, b in zip(fi.linear, fj.linear)),
                                  fi.constant - fj.constant)
                if not form_vanishes_on(common, diff):
                    raise ValueError("piecewise forms disagree on an overlap")
        return super().__new__(cls, pieces)

    @classmethod
    def _continuous(cls, pieces):
        """The function on pieces made from continuous functions, such as
        a pull-back or a sum, which agree on overlaps by construction; no
        pair of pieces is checked."""
        return super().__new__(cls, tuple(pieces))

    def value(self, x):
        for cell, form in self.pieces:
            if cell.contains_point(x):
                return form.value_at(x)
        raise ValueError("point outside the domain of the piecewise function")


class CartierDivisor(namedtuple("CartierDivisor", "rep")):
    """A rational function, a TropicalPolynomial or a PiecewisePL ``rep``,
    considered modulo globally affine functions."""

    __slots__ = ()


def pl_rep(phi):
    return phi.rep if isinstance(phi, CartierDivisor) else phi


# -- linearization -----------------------------------------------------------


def _form_on_cell(phi, cell: Cell) -> AffineForm:
    """Affine form of the function on a cell it is affine on."""
    f = pl_rep(phi)
    p = cell.interior_point
    if isinstance(f, TropicalPolynomial):
        values = [t.value_at(p) for t in f.terms]
        best = max(values)
        return f.terms[values.index(best)]
    for dom, form in f.pieces:
        if dom.contains_point(p):
            return form
    raise ValueError("function undefined on support")


def _split_one(cell: Cell, phi):
    """Cut a cell into the pieces where the function is affine.

    For a tropical polynomial these are the intersections with the closed
    linearity regions, one per term that is maximal there (ties keep the
    lowest term index, so pieces are not duplicated).  Each difference of
    the term and another is read once as its line over the cell's affine
    hull (:func:`_nonconstant`).  A negative constant means the
    term never wins, another constant holds on the whole hull and is
    dropped, and the rest cut the cell into the region, which keeps the
    cell's equalities.  Piecewise functions refine along all forms of their
    domain cells, which also resolves overlapping domain covers.
    """
    f = pl_rep(phi)
    if isinstance(f, TropicalPolynomial):
        terms = f.terms
        out = []
        for i, term in enumerate(terms):
            diffs = [AffineForm(tuple(a - b for a, b in zip(term.linear, other.linear)),
                                term.constant - other.constant)
                     for j, other in enumerate(terms) if j != i]
            cuts = _nonconstant(diffs, cell._elim)
            if cuts is None:
                continue  # another term is larger on the whole hull
            region = _split_piece(cell, tuple(cuts))
            if region is None:
                continue
            values = [t.value_at(region.interior_point) for t in terms]
            if values.index(max(values)) != i:
                continue
            out.append((region, term))
        return out
    forms = collect_hyperplanes([dom for dom, _ in f.pieces])
    return [(piece, _form_on_cell(f, piece)) for piece, _ in refine_cell(cell, forms)]


def linearize_many(functions, complex: WeightedComplex):
    """Refine a complex until every function is affine on every cell.

    Returns the refined complex (weights inherited) and, per function, the
    tuple of affine forms matching its maximal cells.  Raises when a
    piecewise function does not cover the support.
    """
    cells, weights, tagged = [], [], []
    for cell, w in zip(complex.cells, complex.weights):
        items = [(cell, ())]
        for phi in functions:
            items = [(piece, forms + (form,))
                     for base, forms in items
                     for piece, form in _split_one(base, phi)]
        for piece, forms in items:
            cells.append(piece)
            weights.append(w)
            tagged.append(forms)
    out = WeightedComplex(complex.ambient_dim, complex.dim, cells, weights)
    per_function = [tuple(t[i] for t in tagged) for i in range(len(functions))]
    return out, per_function


# -- Weil divisors -----------------------------------------------------------


def weil_divisor_complex(phi, cycle: Cycle) -> WeightedComplex:
    """The full codimension-one skeleton with divisor weights, zeros kept."""
    cx, _, ridges = _ridge_weights(phi, cycle)
    return WeightedComplex(cx.ambient_dim, cx.dim - 1,
                           [ridge for ridge, _, _ in ridges],
                           [weight for _, weight, _ in ridges])


def _ridge_weights(phi, cycle: Cycle):
    """Linearize the function on the cycle and weigh every ridge.

    Returns the linearized complex, the affine form of the function on each
    of its cells, and per ridge the triple (ridge, divisor weight, form on
    the first adjacent cell).  The normals are those
    :meth:`~tropint.cycles.WeightedComplex.ridges` carries.
    """
    cx, (forms,) = linearize_many([phi], cycle.complex)
    out = []
    for ridge, idxs, scaled, s in _weighted_normals(cx):
        acc = sum(dot(forms[i].linear, u) for i, u in zip(idxs, scaled))
        form = forms[idxs[0]]
        out.append((ridge, acc - dot(form.linear, s), form))
    return cx, forms, out


def weil_divisor(phi, cycle: Cycle) -> Cycle:
    """The divisor of a rational function on a cycle."""
    return Cycle(weil_divisor_complex(phi, cycle), check=False)


def divisor_chain(divisors, cycle: Cycle) -> Cycle:
    """Iterated intersection product, rightmost divisor applied first."""
    if len(divisors) > cycle.dim:
        raise ValueError("more divisors than the dimension of the cycle")
    out = cycle
    for phi in reversed(list(divisors)):
        out = weil_divisor(phi, out)
    return out


def graph_fan(phi, cycle: Cycle) -> Cycle:
    """Balanced graph of the function inside R^{n+1}.

    Cells of the cycle are lifted onto the graph with their weights; every
    ridge grows a downward cell in the direction of the last coordinate,
    weighted like the divisor.  Projecting the downward cells back recovers
    the Weil divisor.
    """
    cx, forms, ridges = _ridge_weights(phi, cycle)
    cells, weights = [], []
    for cell, w, form in zip(cx.cells, cx.weights, forms):
        cells.append(_lift_to_graph(cell, form))
        weights.append(w)
    for ridge, weight, form in ridges:
        if weight != 0:
            cells.append(_downward_cell(ridge, form))
            weights.append(weight)
    out = WeightedComplex(cx.ambient_dim + 1, cx.dim, cells, weights)
    return Cycle(out, check=False)


def _lift_to_graph(cell: Cell, form: AffineForm) -> Cell:
    graph_eq = AffineForm(form.linear + (-1,), form.constant)
    ineqs = tuple(AffineForm(f.linear + (0,), f.constant) for f in cell.ineqs)
    eqs = tuple(AffineForm(f.linear + (0,), f.constant) for f in cell.eqs) + (graph_eq,)
    p = cell.interior_point + (form.value_at(cell.interior_point),)
    return Cell(cell.ambient_dim + 1, ineqs, eqs, p)


def _downward_cell(ridge: Cell, form: AffineForm) -> Cell:
    below = AffineForm(form.linear + (-1,), form.constant)  # x_{n+1} <= form(x)
    ineqs = tuple(AffineForm(f.linear + (0,), f.constant) for f in ridge.ineqs) + (below,)
    eqs = tuple(AffineForm(f.linear + (0,), f.constant) for f in ridge.eqs)
    p = ridge.interior_point + (form.value_at(ridge.interior_point) - 1,)
    return Cell(ridge.ambient_dim + 1, ineqs, eqs, p)


# -- boundedness ---------------------------------------------------------------


def is_bounded_on(phi, cycle: Cycle) -> bool:
    """True when the function is bounded on the support of the cycle.

    Equivalent test: on every maximal cell of a linearization, the linear
    part pairs to zero with the whole recession cone of the cell, that is
    (the cone has a relative interior) vanishes on its span: no LP.
    """
    if cycle.is_empty:
        return True
    cx, (forms,) = linearize_many([phi], cycle.complex)
    return all(form_vanishes_on(cell.recession_cone(), AffineForm(form.linear, 0))
               for cell, form in zip(cx.cells, forms))
