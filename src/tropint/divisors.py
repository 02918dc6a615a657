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

from dataclasses import dataclass

from .cycles import Cycle, WeightedComplex, _weighted_normals
from .kernel import LatticeBasis, dot
from .polyhedra import (
    AffineForm,
    Cell,
    _split_piece,
    collect_hyperplanes,
    form_vanishes_on,
    intersect,
    refine_cell,
    strict_point,
)


@dataclass(frozen=True)
class TropicalPolynomial:
    """max of integer-affine terms; the value at x is max_t t(x)."""

    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a tropical polynomial needs at least one term")
        object.__setattr__(self, "terms", tuple(self.terms))

    def value(self, x):
        return max(t.value_at(x) for t in self.terms)


@dataclass(frozen=True)
class PiecewisePL:
    """Affine forms on a finite cell cover; forms must agree on overlaps.

    The cover need not be a polyhedral complex, only a collection of cells
    whose union contains the support the function will be used on.
    """

    pieces: tuple  # of (Cell, AffineForm)

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))
        if not self.pieces:
            raise ValueError("empty piecewise function")

    def value(self, x):
        for cell, form in self.pieces:
            if cell.contains_point(x):
                return form.value_at(x)
        raise ValueError("point outside the domain of the piecewise function")

    def check_continuity(self):
        """Verify forms agree on pairwise intersections of domain cells."""
        for i in range(len(self.pieces)):
            for j in range(i + 1, len(self.pieces)):
                (ci, fi), (cj, fj) = self.pieces[i], self.pieces[j]
                common = intersect(ci, cj)
                if common is None:
                    continue
                diff = AffineForm(
                    tuple(a - b for a, b in zip(fi.linear, fj.linear)),
                    fi.constant - fj.constant)
                if diff.value_at(common.interior_point) != 0 or any(
                        diff.eval_direction(b) != 0
                        for b in common.direction_lattice.vectors):
                    raise ValueError("piecewise forms disagree on an overlap")
        return self


@dataclass(frozen=True)
class CartierDivisor:
    """A rational function considered modulo globally affine functions."""

    rep: object  # TropicalPolynomial | PiecewisePL


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
    lowest term index, so pieces are not duplicated).  Piecewise functions
    refine along all forms of their domain cells, which also resolves
    overlapping domain covers.
    """
    f = pl_rep(phi)
    if isinstance(f, TropicalPolynomial):
        terms = f.terms
        out = []
        for i, term in enumerate(terms):
            diffs = [AffineForm(tuple(a - b for a, b in zip(term.linear, other.linear)),
                                term.constant - other.constant)
                     for j, other in enumerate(terms) if j != i]
            if any(not any(d.linear) and d.constant < 0 for d in diffs):
                continue  # another term is larger everywhere
            # Differences that vanish on the cell hold with equality on all of
            # the region; the others must be strict somewhere in it.
            strict, vanishing = {}, {}
            for d in diffs:
                if any(d.linear):
                    d = d.scaled_primitive()
                    side = vanishing if form_vanishes_on(cell, d) else strict
                    side.setdefault(d.sort_key(), d)
            region = _split_piece(cell, tuple(strict.values()), tuple(vanishing.values()))
            if region is None:
                continue
            values = [t.value_at(region.interior_point) for t in terms]
            if values.index(max(values)) != i:
                continue
            out.append((region, term))
        return out
    forms = collect_hyperplanes([dom for dom, _ in f.pieces])
    return [(piece, _form_on_cell(f, piece)) for piece in refine_cell(cell, forms)]


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
    base = cycle.reduce()
    cx, (forms,) = linearize_many([phi], base.complex)
    out = []
    for ridge, idxs, scaled, s in _weighted_normals(cx):
        acc = sum(dot(forms[i].linear, u) for i, u in zip(idxs, scaled))
        form = forms[idxs[0]]
        out.append((ridge, acc - dot(form.linear, s), form))
    return cx, forms, out


def weil_divisor(phi, cycle: Cycle) -> Cycle:
    """The divisor of a rational function on a cycle, reduced."""
    full = weil_divisor_complex(phi, cycle)
    return Cycle(full.nonzero_part(), check=False)


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
    n = cell.ambient_dim
    lam = form.linear
    graph_eq = AffineForm(lam + (-1,), form.constant)
    ineqs = tuple(AffineForm(f.linear + (0,), f.constant) for f in cell.ineqs)
    eqs = tuple(AffineForm(f.linear + (0,), f.constant) for f in cell.eqs) + (graph_eq,)
    basis = tuple(b + (dot(lam, b),) for b in cell.direction_lattice.vectors)
    p = cell.interior_point + (form.value_at(cell.interior_point),)
    return Cell(n + 1, ineqs, eqs, cell.dim, p, LatticeBasis(n + 1, basis))


def _downward_cell(ridge: Cell, form: AffineForm) -> Cell:
    n = ridge.ambient_dim
    lam = form.linear
    below = AffineForm(lam + (-1,), form.constant)  # x_{n+1} <= form(x)
    ineqs = tuple(AffineForm(f.linear + (0,), f.constant) for f in ridge.ineqs) + (below,)
    eqs = tuple(AffineForm(f.linear + (0,), f.constant) for f in ridge.eqs)
    basis = tuple(b + (dot(lam, b),) for b in ridge.direction_lattice.vectors)
    basis = basis + ((0,) * n + (1,),)
    p = ridge.interior_point + (form.value_at(ridge.interior_point) - 1,)
    return Cell(n + 1, ineqs, eqs, ridge.dim + 1, p, LatticeBasis(n + 1, basis))


# -- boundedness ---------------------------------------------------------------


def is_bounded_on(phi, cycle: Cycle) -> bool:
    """True when the function is bounded on the support of the cycle.

    Equivalent test: on every maximal cell of a linearization, the linear
    part pairs to zero with the whole recession cone of the cell.
    """
    base = cycle.reduce()
    if base.is_empty:
        return True
    cx, (forms,) = linearize_many([phi], base.complex)
    for cell, form in zip(cx.cells, forms):
        rec = cell.recession_cone()
        lam = AffineForm(form.linear, 0)
        if strict_point(rec, lam) is not None or strict_point(rec, lam.negated()) is not None:
            return False
    return True
