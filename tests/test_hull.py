"""A cell's affine hull is read from its equalities alone.

Every constructor hands ``Cell`` only inequalities, equalities and an
interior point; the dimension and the direction lattice come from one
elimination of the equalities per cell.  On cells from every constructor
they must equal the rank and the integer kernel of the equalities' linear
parts, the kernel read from the Smith form reference.  The equalities a
cell keeps are the primitive rows of that elimination, however the given
ones were duplicated, scaled, reordered or implied.  The count gates pin
the eliminations of a stable product and of a sum of curves, and the
Hermite forms of a push-forward, a projection-formula check and the
rigid-curve chain; none of them reaches a Smith normal form.
"""

import importlib
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_kernel_lattice
from test_faces import _random_polynomial

import tropint
import tropint.kernel as kernel
import tropint.polyhedra as polyhedra
from tropint.cycles import Cycle, WeightedComplex, add, rn_cycle, standard_skeleton, translate
from tropint.divisors import TropicalPolynomial, divisor_chain, graph_fan, weil_divisor
from tropint.kernel import QQ, LatticeBasis, dot, mat_rank, vec_gcd
from tropint.library import conic_curve, rigid_function, rigid_surface
from tropint.morphisms import (
    IntegerLinearMap,
    Morphism,
    check_projection_formula,
    image_cell,
    push_forward,
)
from tropint.polyhedra import (
    AffineForm,
    Cell,
    EmptyCellError,
    cone_from_rays,
    point_cell,
    product_cell,
    ray_cell,
    refine_cell,
    segment_cell,
)
from tropint.rn_products import stable_intersect

_coef = st.sampled_from((0, 0, 1, -1, 2, -3))
_x = st.builds(QQ, st.integers(-3, 3), st.sampled_from((1, 2)))


def _assert_hull(cell):
    n = cell.ambient_dim
    rows = [f.linear for f in cell.eqs]
    assert cell.dim == n - mat_rank(rows)
    assert cell.direction_lattice == LatticeBasis(n, reference_kernel_lattice(rows, n))


def _vector(n):
    return st.tuples(*[_coef] * n)


@st.composite
def constructed(draw):
    """A cell from one of the constructors, in R^1 to R^3."""
    n = draw(st.integers(1, 3))
    p = draw(st.tuples(*[_x] * n))
    d = draw(_vector(n).filter(any))
    kind = draw(st.sampled_from(("constraints", "point", "ray", "segment", "cone",
                                 "product", "image")))
    if kind == "constraints":
        ineqs = draw(st.lists(st.builds(AffineForm, _vector(n), _x), max_size=4))
        eqs = draw(st.lists(st.builds(AffineForm, _vector(n), _x), max_size=2))
        return Cell.try_from_constraints(n, ineqs, eqs) or point_cell(p)
    if kind == "point":
        return point_cell(p)
    if kind == "ray":
        return ray_cell(p, d)
    if kind == "segment":
        return segment_cell(p, tuple(a + b for a, b in zip(p, d)))
    if kind == "cone":
        rays = draw(st.lists(_vector(n), min_size=1, max_size=n))
        if mat_rank(rays) < len(rays):
            rays = rays[:1] if any(rays[0]) else [d]
        return cone_from_rays(rays, n)
    if kind == "product":
        return product_cell(segment_cell(p[:1], (p[0] + 1,)), draw(constructed()))
    matrix = draw(st.lists(_vector(n), min_size=1, max_size=3))
    cell = draw(constructed().filter(lambda c: c.ambient_dim == n))
    return image_cell(matrix, cell) or point_cell(p)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_derived_hull_matches_the_equalities(data):
    cell = data.draw(constructed())
    n = cell.ambient_dim
    _assert_hull(cell)
    _assert_hull(cell.translate(data.draw(st.tuples(*[_x] * n))))
    for face in cell.faces_of_codim_one():
        _assert_hull(face)
    forms = data.draw(st.lists(st.builds(AffineForm, _vector(n), _x), max_size=3))
    for piece, _ in refine_cell(cell, forms):
        _assert_hull(piece)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_graph_fan_cells_match_the_equalities(data):
    curve = weil_divisor(_random_polynomial(data.draw, 2, 2), rn_cycle(2))
    base = data.draw(st.sampled_from((rn_cycle(2), curve)))
    for cell in graph_fan(_random_polynomial(data.draw, 2, 1), base).complex.cells:
        _assert_hull(cell)


def _assert_canonical_eqs(cell):
    """The equalities are the primitive rows of the cell's elimination: a
    reduced echelon form up to positive row scales, one row per dimension
    the hull lacks, which eliminate back to the cached elimination."""
    n, elim = cell.ambient_dim, cell._elim
    assert cell.eqs == tuple(AffineForm(row[:n], row[n]).scaled_primitive() for row in elim[4])
    assert len(cell.eqs) == n - cell.dim
    assert polyhedra._eliminate(n, cell.eqs) == elim
    pivots = [next(j for j, a in enumerate(f.linear) if a) for f in cell.eqs]
    assert pivots == sorted(set(pivots))
    for f, p in zip(cell.eqs, pivots):
        assert f.linear[p] > 0 and vec_gcd(f.linear) == 1
        assert all(g.linear[p] == 0 for g in cell.eqs if g is not f)


@st.composite
def presented_hulls(draw):
    """(n, point, base, variant): equalities through a point and another
    presentation of them, duplicated, scaled, reordered and with implied
    members; half the time a contradicting form joins the variant, which
    then has no solution."""
    n = draw(st.integers(1, 4))
    p = draw(st.tuples(*[_x] * n))
    base = [AffineForm(a, -dot(a, p)) for a in draw(st.lists(_vector(n), max_size=n))]
    extra = []
    for f in base:
        for k in draw(st.lists(st.sampled_from((1, -1, 2, -3)), max_size=2)):
            extra.append(AffineForm(tuple(k * a for a in f.linear), k * f.constant))
    if len(base) >= 2:
        f, g = base[:2]
        extra.append(AffineForm(tuple(a + b for a, b in zip(f.linear, g.linear)),
                                f.constant + g.constant))
    variant = draw(st.permutations(base + extra))
    if draw(st.booleans()):
        f = draw(st.sampled_from(base + [AffineForm((0,) * n, 0)]))
        variant.append(AffineForm(f.linear, f.constant + draw(st.sampled_from((1, QQ(-1, 2))))))
    return n, p, base, variant


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=presented_hulls(), data=st.data())
def test_every_cell_lists_the_rows_of_its_elimination(case, data):
    n, p, base, variant = case
    consistent = Cell.try_from_constraints(n, (), variant) is not None
    if not consistent:
        # A contradiction only: the base equalities hold at p.
        assert any(f.value_at(p) != 0 for f in variant)
        with pytest.raises(EmptyCellError):
            Cell(n, (), variant, p)
        return
    ref = Cell.try_from_constraints(n, (), base)
    # The equalities and the elimination depend on the solution set only.
    cells = [ref, Cell.try_from_constraints(n, (), variant), Cell(n, (), variant, p)]
    for cell in cells:
        assert (cell.eqs, cell._elim) == (ref.eqs, ref._elim)
        assert cell.contains_point(p)
    ineqs = data.draw(st.lists(st.builds(AffineForm, _vector(n), _x), max_size=3))
    f = data.draw(st.builds(AffineForm, _vector(n), _x))
    if data.draw(st.booleans()):
        ineqs += [f, f.negated()]  # an implied equality
    cell = Cell.try_from_constraints(n, ineqs, variant) or ref
    cells += [cell, cell.translate(data.draw(st.tuples(*[_x] * n))),
              product_cell(segment_cell((0,), (1,)), cell), *cell.faces_of_codim_one()]
    forms = data.draw(st.lists(st.builds(AffineForm, _vector(n), _x), max_size=2))
    cells += [piece for piece, _ in refine_cell(cell, forms)]
    matrix = data.draw(st.lists(_vector(n), min_size=1, max_size=3))
    cells.append(image_cell(matrix, cell) or ref)
    for c in cells:
        _assert_canonical_eqs(c)


def test_translate_rejects_a_vector_of_the_wrong_length():
    for v in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError):
            tropint.translate(rn_cycle(2), v)
        with pytest.raises(ValueError):
            point_cell((0, 0)).translate(v)
        # An empty cycle has no cell to check the length.
        with pytest.raises(ValueError):
            tropint.translate(Cycle.empty(2, 1), v)


def _count_calls(monkeypatch, real):
    """Count the calls of a library function, rebound in every tropint
    module that holds it."""
    calls = []

    def counting(*args):
        calls.append(1)
        return real(*args)

    for info in pkgutil.iter_modules(tropint.__path__):
        module = importlib.import_module(f"tropint.{info.name}")
        if getattr(module, real.__name__, None) is real:
            monkeypatch.setattr(module, real.__name__, counting)
    return calls


def _no_smith_form(*args):
    raise AssertionError("smith_normal_form reached")


# Eliminations of the operation on fresh copies, the copying included:
# ``translate`` eliminates the shifted equalities of each cell once.  In
# complementary dimension the product builds no cell per pair of cells,
# solves no tangent-cone program and writes each output point down with its
# elimination, so the copying is all there is.
_ELIMINATIONS = {"conic.conic": 18, "conic+line": 12}


@pytest.mark.parametrize("name, op, make", [
    ("conic.conic", stable_intersect, lambda: (conic_curve(), conic_curve())),
    ("conic+line", add, lambda: (conic_curve(), standard_skeleton(2, 1))),
])
def test_elimination_budget(monkeypatch, name, op, make):
    cycles = make()
    calls = _count_calls(monkeypatch, polyhedra._eliminate)
    monkeypatch.setattr(kernel, "smith_normal_form", _no_smith_form)
    op(*(translate(c, (0, 0)) for c in cycles))
    assert len(calls) == _ELIMINATIONS[name]


def _fresh(cycle):
    """A copy of a cycle whose cells have no cached lattice or faces, and
    whose complex has no cached ridges."""
    c = cycle.complex
    cells = [Cell(c.ambient_dim, cell.ineqs, cell.eqs, cell.interior_point) for cell in c.cells]
    return Cycle(WeightedComplex(c.ambient_dim, c.dim, cells, c.weights), check=False)


def _lattice_step(name):
    """An operation whose lattice algebra (normals, kernels of equalities,
    push-forward indices) must take the Hermite form only."""
    if name == "rigid chain":
        phi, surface = rigid_function(), _fresh(rigid_surface())
        return lambda: divisor_chain([phi, phi], surface)
    conic = _fresh(conic_curve())
    f = Morphism(IntegerLinearMap(((2, -1),)), conic, _fresh(rn_cycle(1)))
    if name == "push-forward":
        return lambda: push_forward(f)
    phi = TropicalPolynomial((AffineForm((1,), QQ(-7, 2)), AffineForm((0,), 0),
                              AffineForm((-1,), -5)))
    return lambda: check_projection_formula(f, conic, phi)


# Hermite forms on fresh copies.  lattice_index tests membership by
# reduction, with no Hermite form of the target and the image together.
_HERMITE_FORMS = {"push-forward": 12, "projection formula": 52, "rigid chain": 42}


@pytest.mark.parametrize("name", sorted(_HERMITE_FORMS))
def test_lattice_algebra_reaches_no_smith_form(monkeypatch, name):
    step = _lattice_step(name)
    calls = _count_calls(monkeypatch, kernel.hermite_normal_form)
    monkeypatch.setattr(kernel, "smith_normal_form", _no_smith_form)
    step()
    assert len(calls) == _HERMITE_FORMS[name]
