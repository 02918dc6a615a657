"""Integer linear maps as morphisms of cycles: push-forward and pull-back.

The push-forward of a weighted complex collects the images of the maximal
cells on which the map is injective, refines them into a common complex,
and weights every image facet by

    sum over source facets mapping onto it of
        source weight * [target cell lattice : image of source cell lattice].

Cells on which the map drops dimension contribute nothing.  Pull-back of a
function is composition with the map; together they satisfy the projection
formula, which is exposed as a first-class check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cycles import Cycle, _weighted_sum, cycles_equal
from .divisors import (
    CartierDivisor,
    PiecewisePL,
    TropicalPolynomial,
    pl_rep,
    weil_divisor,
)
from .kernel import (
    QQ,
    dot,
    int_vector,
    kernel_lattice,
    lattice_index,
    mat_rank,
    mat_vec,
    solve_rational,
    subspace_lattice,
)
from .polyhedra import (
    AffineForm,
    Cell,
    collect_hyperplanes,
    form_from_rational,
    refine_cell,
)


@dataclass(frozen=True)
class IntegerLinearMap:
    """Z-linear map given by an integer matrix (target_dim x source_dim)."""

    matrix: tuple

    def __post_init__(self):
        object.__setattr__(self, "matrix", tuple(int_vector(row) for row in self.matrix))

    @property
    def target_dim(self):
        return len(self.matrix)

    @property
    def source_dim(self):
        return len(self.matrix[0]) if self.matrix else 0


class Morphism:
    """An integer linear map between the supports of two cycles.

    Construction verifies that the image of the source support lies inside
    the target support, that is, that the source support lies inside the
    union of the preimages of the target cells; for a complete target (all
    of R^m) the check is immediate.
    """

    __slots__ = ("map", "source", "target")

    def __init__(self, map: IntegerLinearMap, source: Cycle, target: Cycle):
        if map.source_dim != source.ambient_dim:
            raise ValueError("matrix width does not match the source ambient space")
        if map.target_dim != target.ambient_dim:
            raise ValueError("matrix height does not match the target ambient space")
        self.map = map
        self.source = source
        self.target = target
        if not _support_is_complete(target):
            preimages = [preimage_cell(map.matrix, cell) for cell in target.complex.cells]
            if not _cells_inside_support(source.reduce().complex.cells,
                                         [pre for pre in preimages if pre is not None]):
                raise ValueError("image of the source support leaves the target support")


def _support_is_complete(cycle: Cycle) -> bool:
    return any(not cell.ineqs and not cell.eqs for cell in cycle.complex.cells)


def _cells_inside_support(cells, targets) -> bool:
    """Whether each given cell lies inside the union of the target cells.

    Each cell is refined along every hyperplane of the targets.  A piece
    then lies weakly on one side of each of them, so every constraint of a
    target that holds at the piece's relative interior point holds on the
    whole piece: the piece lies inside the target exactly when that point
    does, and no LP is needed.
    """
    forms = collect_hyperplanes(targets)
    for cell in cells:
        for piece in refine_cell(cell, forms):
            if not any(t.contains_point(piece.interior_point) for t in targets):
                return False
    return True


def image_cell(matrix, cell: Cell) -> Cell | None:
    """Image of a cell under a map injective on it, or None on rank drop.

    On the affine hull the map is an affine bijection onto the image hull,
    so every inequality transports to the image by solving for a covector
    with the same pairings against the image directions.
    """
    basis = cell.direction_lattice.vectors
    imgs = [mat_vec(matrix, b) for b in basis]
    if mat_rank(imgs) < len(basis):
        return None
    m = len(matrix)
    p = cell.interior_point
    q = mat_vec(matrix, p)
    eqs = tuple(AffineForm(a, -dot(a, q)) for a in kernel_lattice(imgs, m))
    ineqs = []
    for f in cell.ineqs:
        if basis:
            # imgs has full row rank, so the transport system always solves.
            a = solve_rational(list(imgs), tuple(f.eval_direction(b) for b in basis))
        else:
            a = (QQ(0),) * m
        ineqs.append(form_from_rational(a, f.value_at(p) - dot(a, q)))
    lattice = subspace_lattice(imgs, m)
    return Cell(m, tuple(ineqs), eqs, len(basis), tuple(QQ(x) for x in q), lattice)


def _compose(form: AffineForm, matrix) -> AffineForm:
    """The form x -> form(matrix @ x)."""
    return AffineForm(tuple(dot(form.linear, col) for col in zip(*matrix)), form.constant)


def preimage_cell(matrix, cell: Cell) -> Cell | None:
    """Preimage of a cell under an integer linear map, or None when empty."""
    return Cell.try_from_constraints(
        len(matrix[0]),
        [_compose(g, matrix) for g in cell.ineqs],
        [_compose(g, matrix) for g in cell.eqs])


def push_forward(f: Morphism, cycle: Cycle | None = None) -> Cycle:
    """Push a subcycle of the source along the morphism.

    A given subcycle is checked to lie in the source support first.  The
    result is balanced whenever the input is.
    """
    if cycle is None:
        cycle = f.source
    elif cycle is not f.source:
        if cycle.ambient_dim != f.source.ambient_dim:
            raise ValueError("subcycle lives in the wrong ambient space")
        if not _cells_inside_support(cycle.reduce().complex.cells, f.source.complex.cells):
            raise ValueError("cycle is not supported inside the morphism source")
    return _push(f.map.matrix, cycle)


def _push(matrix, cycle: Cycle) -> Cycle:
    """The image cells of a cycle, each weighted by its source weight times
    the lattice index, summed over a common refinement.  Every piece of an
    image cell shares its direction lattice, so one index per cell serves."""
    red = cycle.reduce()
    entries = []
    for cell, w in zip(red.complex.cells, red.complex.weights):
        img = image_cell(matrix, cell)
        if img is not None:
            index = lattice_index(matrix, cell.direction_lattice, img.direction_lattice)
            entries.append((img, w * index))
    return _weighted_sum(len(matrix), red.dim, entries)


def pull_back(f, phi) -> CartierDivisor:
    """Compose a function on the target with the map: the pull-back divisor.

    Polynomial representatives compose term by term; piecewise ones pull
    their domain cells back through the map.  Affine functions pull back to
    affine functions, so this descends to Cartier divisors.
    """
    matrix = f.map.matrix if isinstance(f, Morphism) else f.matrix
    rep = pl_rep(phi)
    if isinstance(rep, TropicalPolynomial):
        return CartierDivisor(TropicalPolynomial(tuple(_compose(t, matrix) for t in rep.terms)))
    pieces = []
    for dom, form in rep.pieces:
        pre = preimage_cell(matrix, dom)
        if pre is not None:
            pieces.append((pre, _compose(form, matrix)))
    if not pieces:
        raise ValueError("pull-back has empty domain")
    return CartierDivisor(PiecewisePL(tuple(pieces)))


def check_projection_formula(f: Morphism, cycle: Cycle, phi) -> bool:
    """Exact comparison of divisor-then-push against pull-then-divisor."""
    lhs = weil_divisor(phi, push_forward(f, cycle))
    # The right-hand side is a divisor on the cycle the left-hand side has
    # already checked against the source support.
    rhs = _push(f.map.matrix, weil_divisor(pull_back(f, phi), cycle))
    return cycles_equal(lhs, rhs)
