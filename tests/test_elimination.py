"""Fraction-free elimination against the rational Gauss oracles.

Rank, the solution with free variables zero, the determinant and the
canonical key of a cell are all unique, so the integer routines must agree
with the Fraction ones exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    linear_image_cell,
    reference_canonical_key,
    reference_cells_inside_support,
    reference_mat_det,
    reference_mat_rank,
    reference_solve_rational,
)

from tropint.cycles import Cycle, WeightedComplex
from tropint.kernel import QQ, echelon, mat_rank, solve_rational
from tropint.morphisms import IntegerLinearMap, Morphism
from tropint.polyhedra import AffineForm, Cell, cone_from_rays, point_cell, segment_cell

# Zero-heavy small entries, so that zero rows and columns, dependent rows and
# row swaps are common; rationals only where the routine takes them.
_int = st.one_of(st.just(0), st.integers(-3, 3))
_rat = st.one_of(_int.map(QQ), st.builds(QQ, st.integers(-3, 3), st.sampled_from((2, 3))))


@st.composite
def matrices(draw, entry=_rat, square=False):
    """Rows of entries, some of them combinations of the others (rational
    combinations for rational entries, integer ones for integer entries)."""
    nrows = draw(st.integers(0, 4))
    ncols = nrows if square else draw(st.integers(1, 4))
    rows = [list(draw(st.tuples(*[entry] * ncols))) for _ in range(nrows)]
    if rows and draw(st.integers(0, 2)) == 0:
        # A dependent row replaces one of them, keeping the matrix square.
        w = draw(st.tuples(*[entry] * len(rows)))
        dep = [sum(wk * row[j] for wk, row in zip(w, rows)) for j in range(ncols)]
        rows[draw(st.integers(0, len(rows) - 1))] = dep
    return [tuple(row) for row in rows]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices())
def test_rank_matches_reference(rows):
    assert mat_rank(rows) == reference_mat_rank(rows)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices(), st.data())
def test_solution_matches_reference(rows, data):
    # Random right-hand sides make the dependent systems mostly inconsistent;
    # half of the time the right-hand side is an image, so they solve.
    if rows and data.draw(st.booleans()):
        x = data.draw(st.tuples(*[_rat] * len(rows[0])))
        rhs = tuple(sum(a * b for a, b in zip(row, x)) for row in rows)
    else:
        rhs = data.draw(st.tuples(*[_rat] * len(rows)))
    assert solve_rational(rows, rhs) == reference_solve_rational(rows, rhs)


def _echelon_det(rows):
    """The last pivot of an integer square matrix of full rank, else 0."""
    _, pivots, d = echelon(rows)
    return d if len(pivots) == len(rows) else 0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices(entry=_int, square=True))
def test_determinant_matches_reference(rows):
    # The last pivot is the determinant exactly when the rank is full.
    assert _echelon_det(rows) == reference_mat_det(rows)


def test_determinant_sign_after_swaps():
    # Each swap brings a negative pivot up; the signs must still combine.
    assert _echelon_det([(0, -1, 0), (0, 0, -1), (-2, 0, 0)]) == -2
    assert _echelon_det([(0, 1), (1, 0)]) == -1
    assert _echelon_det([(0, 0), (1, 0)]) == 0
    assert _echelon_det([]) == 1


def test_echelon_invariant():
    rows = [(0, QQ(1, 2), 1), (2, 1, 0), (4, 2, 0), (0, 0, 0)]
    t, pivots, d = echelon(rows)
    assert pivots == [0, 1]
    assert [[QQ(x, d) for x in row] for row in t[:2]] == [[1, 0, -1], [0, 1, 2]]
    assert all(x == 0 for row in t[2:] for x in row)


_form = st.tuples(st.tuples(_int, _int, _int), _rat)


@st.composite
def cells(draw):
    """Random nonempty cells of R^3 with rational constants.

    Equality rows often start with a zero, so the elimination swaps rows,
    and implied equalities (an inequality and its negation) enter the
    equality list unnormalized, with negative leading coefficients.
    """
    ineqs = draw(st.lists(_form, max_size=5))
    eqs = draw(st.lists(_form, max_size=2))
    for k in range(draw(st.integers(0, 1)) if ineqs else 0):
        a, c = ineqs[k]
        ineqs.append((tuple(-x for x in a), -c))
    box = [((s * (i == 0), s * (i == 1), s * (i == 2)), 4) for i in range(3) for s in (1, -1)]
    forms = [AffineForm(a, c) for a, c in ineqs + box]
    return Cell.try_from_constraints(3, forms, [AffineForm(a, c) for a, c in eqs])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cells(), st.permutations(range(3)), st.tuples(*[st.booleans()] * 3))
def test_canonical_key_matches_reference(cell, order, flips):
    if cell is None:
        return
    assert cell.canonical_key == reference_canonical_key(cell)
    # The same set described by reordered and negated equalities.
    eqs = [cell.eqs[i] for i in order if i < len(cell.eqs)]
    eqs = tuple(f.negated() if flip else f for f, flip in zip(eqs, flips))
    assert Cell(3, cell.ineqs, eqs, cell.interior_point).canonical_key == cell.canonical_key


# -- the support check of Morphism ------------------------------------------------

_vec2 = st.tuples(st.integers(-1, 1), st.integers(-1, 1)).filter(any)


def _cycle(n, dim, cells):
    return Cycle(WeightedComplex(n, dim, cells, [1] * len(cells)), check=False)


# Target cells in R^2: the rays and vertex of the standard tropical line,
# a segment along the first axis and the opposite ray (-1, 0).
_TARGET_CELLS = (
    cone_from_rays([(1, 0)], 2),
    cone_from_rays([(0, 1)], 2),
    cone_from_rays([(-1, -1)], 2),
    cone_from_rays([(-1, 0)], 2),
    segment_cell((0, 0), (1, 0)),
    point_cell((0, 0)),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(_vec2, min_size=1, max_size=2),
    st.tuples(_vec2, _vec2),
    st.booleans(),
    st.sets(st.integers(0, len(_TARGET_CELLS) - 1), min_size=1),
)
def test_morphism_support_check_matches_projection(rays, matrix, collapse, chosen):
    # A 1-dim source of rays from the origin; the map is injective or,
    # with its rows made parallel, collapses the plane onto a line.
    if collapse:
        matrix = (matrix[0], tuple(2 * x for x in matrix[0]))
    source_cells = [cone_from_rays([r], 2) for r in dict.fromkeys(rays)]
    source = _cycle(2, 1, source_cells)
    targets = [_TARGET_CELLS[i] for i in sorted(chosen)]
    target = _cycle(2, max(c.dim for c in targets), targets)
    images = [linear_image_cell(matrix, c) for c in source.complex.cells]
    expected = reference_cells_inside_support(images, targets)
    try:
        Morphism(IntegerLinearMap(matrix), source, target)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == expected
