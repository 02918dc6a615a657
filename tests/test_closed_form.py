"""Systems with at most one free variable, read from their interval, and
slack programs, against the reference simplex.

``polyhedra._relint_lp`` decides whether inequalities have a strict point
on the solutions of an elimination.  When the elimination leaves at most
one free variable it reads the interval of that variable and solves
nothing.  On random such systems, some with the equalities of a point, a
segment, a ray or a line, some empty, some a single point and some with a
constant row that is zero, it must agree with the two-phase reference
simplex (``oracles.reference_lp_max``) on the emptiness of the system and
the sign of the best slack, and its point must be exact, satisfy every row
and be strict for every inequality when the slack is positive.  On
programs that leave two or more variables free, ``polyhedra._slack_lp``
must give the status and value of the reference, and its point must be
exact, satisfy every row and attain the value.  The box of a cell of
dimension one, read from the lines of its inequalities, must be the one
two LPs per side give, and ``polyhedra.strict_point`` on a cell of
dimension at most one must read the maximum of a form from the same
interval, with no LP, and agree with the reference.  Sums, equality,
push-forward and the projection formula of plane curves then run no LP at
all, and no equality ever reaches the simplex.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import reference_lp_max
from test_faces import _count_lps
from test_weighted_sum import _split_edges

import tropint.polyhedra as polyhedra
from tropint._simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, lp_max
from tropint.cycles import add, cycles_equal, negate, rn_cycle, standard_skeleton, translate
from tropint.divisors import TropicalPolynomial, divisor_chain
from tropint.kernel import QQ, dot, mat_rank
from tropint.library import conic_curve, rigid_function, rigid_surface
from tropint.morphisms import IntegerLinearMap, Morphism, check_projection_formula, push_forward
from tropint.polyhedra import AffineForm, Cell, point_cell, ray_cell, segment_cell

# Zero-heavy coefficients make rows parallel, degenerate or constant.
_coef = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3))
# Constants past the cap of 1 on either side make the cap bind.
_const = st.builds(QQ, st.integers(-8, 8), st.sampled_from((1, 2, 3)))
_x = st.builds(QQ, st.integers(-4, 4), st.sampled_from((1, 2)))


def _form(n):
    return st.builds(AffineForm, st.tuples(*[_coef] * n), _const)


@st.composite
def programs(draw, low=True):
    """(n, plain, slack, eqs, start) over Q^n: with ``low``, n <= 3 and at
    least n - 1 equalities, else n in {2, 3} and at most n - 2 of them.
    Some equalities are repeated or scaled (so with ``low`` a variable may
    stay free after all), some contradict another; some rows are constant.

    When the equalities leave two or more variables free, the simplex needs
    a start: the point drawn first, at which the equalities and plain rows
    are then shifted to hold (a plain row it breaks becomes tight there).
    Otherwise start is None, and the plain rows may be infeasible."""
    n = draw(st.integers(0, 3) if low else st.integers(2, 3))
    p = draw(st.tuples(*[_x] * n))
    eqs = draw(st.lists(_form(n), min_size=max(0, n - 1) if low else 0,
                        max_size=n if low else n - 2))
    if eqs and draw(st.booleans()):
        e = draw(st.sampled_from(eqs))
        kind = draw(st.sampled_from(("repeat", "scale", "shift")))
        if kind == "repeat":
            eqs.append(e)
        elif kind == "scale":
            eqs.append(AffineForm(tuple(-2 * a for a in e.linear), -2 * e.constant))
        else:
            eqs.append(AffineForm(e.linear, e.constant + 1))  # inconsistent
    plain = draw(st.lists(_form(n), max_size=4))
    slack = draw(st.lists(_form(n), max_size=4))
    for rows in (plain, slack):
        if rows and draw(st.booleans()):
            rows.append(draw(st.sampled_from(rows)))
    if draw(st.booleans()):
        # A constant row: 0 >= c, infeasible or vacuous as a plain row, a
        # cap on t as a slack row.
        draw(st.sampled_from((plain, slack))).append(AffineForm((0,) * n, draw(_const)))
    if plain and draw(st.booleans()):
        # The opposite side of a plain row, shifted: an empty interval for
        # a negative shift, a single point for zero.
        f = draw(st.sampled_from(plain))
        plain.append(AffineForm(tuple(-a for a in f.linear),
                                -f.constant + draw(st.sampled_from((-1, 0, 1)))))
    if n - (mat_rank([f.linear for f in eqs]) if eqs else 0) <= 1:
        return n, plain, slack, eqs, None
    eqs = [AffineForm(f.linear, -dot(f.linear, p)) for f in eqs]
    plain = [f if f.value_at(p) >= 0 else AffineForm(f.linear, f.constant - f.value_at(p))
             for f in plain]
    return n, plain, slack, eqs, p


def _reference(n, plain, slack, eqs):
    """The slack program over Q^n, solved by the two-phase reference
    simplex: (status, value, point)."""
    def row(f, t):
        return f.linear + (t,), -f.constant

    ineqs = [row(f, 0) for f in plain] + [row(f, -1) for f in slack]
    ineqs.append(((0,) * n + (-1,), -1))
    return reference_lp_max(n + 1, (0,) * n + (1,), ineqs=ineqs, eqs=[row(f, 0) for f in eqs])


def _spy():
    """Record the simplex runs of ``polyhedra`` within a ``with`` block."""
    return mock.patch.object(polyhedra, "lp_max", wraps=lp_max)


def _check_point(res, plain, slack, eqs):
    x = res.point
    assert all(f.value_at(x) == 0 for f in eqs)
    assert all(f.value_at(x) >= 0 for f in plain)
    assert min([QQ(1)] + [f.value_at(x) for f in slack]) == res.value


def _free(n, eqs):
    """The number of variables consistent equalities leave free, or None
    when they are inconsistent."""
    rank = mat_rank([f.linear for f in eqs]) if eqs else 0
    if eqs and mat_rank([f.linear + (f.constant,) for f in eqs]) != rank:
        return None
    return n - rank


@settings(max_examples=300, deadline=None, derandomize=True)
@given(programs(low=False))
def test_simplex_matches_reference(program):
    n, plain, slack, eqs, start = program
    with _spy() as spy:
        res = polyhedra._slack_lp(plain, slack, polyhedra._eliminate(n, eqs), start)
    # The simplex runs exactly when the equalities are consistent.
    assert spy.call_count == (_free(n, eqs) is not None)
    status, value, _ = _reference(n, plain, slack, eqs)
    assert status != UNBOUNDED
    assert (res.status, res.value) == (status, value)
    if res.status == OPTIMAL:
        # An exact float such as 0.5 equals Fraction(1, 2); only the type
        # tells a point computed with int / int apart.
        assert type(res.value) is Fraction
        assert all(type(x) is Fraction for x in res.point)
        _check_point(res, plain, slack, eqs)


@st.composite
def low_cells(draw):
    """A point, segment, ray or line of R^2 or R^3."""
    n = draw(st.integers(2, 3))
    p = draw(st.tuples(*[_x] * n))
    kind = draw(st.sampled_from(("point", "segment", "ray", "line")))
    if kind == "point":
        return point_cell(p)
    d = draw(st.tuples(*[_coef] * n).filter(any))
    if kind == "segment":
        return segment_cell(p, tuple(a + b for a, b in zip(p, d)))
    if kind == "ray":
        return ray_cell(p, d)
    return Cell.from_constraints(n, (), ray_cell(p, d).eqs)


@st.composite
def low_systems(draw):
    """(n, ineqs, eqs) with at most one free variable: the rows of a
    program, or the equalities of a low cell with its inequalities, up to
    two more forms, the opposite side of one of them, shifted by 0 (a
    single point) or -1 (empty), and perhaps an equality shifted into a
    constant row, zero, positive or negative."""
    if draw(st.booleans()):
        n, plain, slack, eqs, _ = draw(programs())
        assume(_free(n, eqs) is None or _free(n, eqs) <= 1)
        return n, plain + slack, eqs
    cell = draw(low_cells())
    n, eqs = cell.ambient_dim, list(cell.eqs)
    ineqs = list(cell.ineqs) + draw(st.lists(_form(n), max_size=2))
    if ineqs and draw(st.booleans()):
        f = draw(st.sampled_from(ineqs))
        ineqs.append(AffineForm(tuple(-a for a in f.linear),
                                -f.constant + draw(st.sampled_from((0, -1)))))
    if draw(st.booleans()):
        e = draw(st.sampled_from(eqs))
        ineqs.append(AffineForm(e.linear, e.constant + draw(st.sampled_from((0, 0, 1, -1)))))
    return n, draw(st.permutations(ineqs)), eqs


@settings(max_examples=600, deadline=None, derandomize=True)
@given(low_systems())
def test_relint_reads_low_systems_from_their_interval(system):
    n, ineqs, eqs = system
    with _spy() as spy:
        point, t = polyhedra._relint_lp(ineqs, polyhedra._eliminate(n, eqs))
    assert not spy.called
    status, value, _ = _reference(n, (), ineqs, eqs)
    assert status != UNBOUNDED
    assert (point is None) == (status == INFEASIBLE or value < 0)
    if point is None:
        assert t is None
        return
    assert type(t) is Fraction and t in (0, 1)
    assert (t > 0) == (value > 0)
    assert all(type(x) is Fraction for x in point)
    assert all(f.value_at(point) == 0 for f in eqs)
    assert all(f.value_at(point) > 0 if t > 0 else f.value_at(point) >= 0 for f in ineqs)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(low_cells())
def test_box_of_a_curve_cell_is_its_interval(cell):
    elim = polyhedra._eliminate(cell.ambient_dim, cell.eqs)
    lines = [polyhedra._line(f, elim) for f in cell.ineqs]
    rows = [(A, -G) for A, G in lines]
    want = []
    for _ in range(cell.dim):
        bounds = []
        for sign in (-1, 1):
            status, value, _ = reference_lp_max(1, (sign,), ineqs=rows)
            assert status != INFEASIBLE
            bounds.append(None if status == UNBOUNDED else sign * value)
        want.append(tuple(bounds))
    with _spy() as spy:
        assert polyhedra._hull_box(cell) == (elim, want)
    assert not spy.called


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_strict_point_reads_low_cells_from_their_interval(data):
    # A random form, or one that is zero on the cell or on a facet of it,
    # whose maximum over the cell is then 0.
    cell = data.draw(low_cells())
    n = cell.ambient_dim
    tight = [f.negated() for f in cell.ineqs] + list(cell.eqs)
    form = data.draw(st.sampled_from(tight) if tight and data.draw(st.booleans()) else _form(n))
    with _spy() as spy:
        point = polyhedra.strict_point(cell, form)
    assert not spy.called
    status, value, _ = reference_lp_max(
        n, form.linear, ineqs=[(f.linear, -f.constant) for f in cell.ineqs],
        eqs=[(f.linear, -f.constant) for f in cell.eqs])
    assert status != INFEASIBLE
    best = None if status == UNBOUNDED else value + form.constant
    assert (point is None) == (best is not None and best <= 0)
    if point is not None:
        assert all(type(x) is Fraction for x in point)
        assert cell.contains_point(point) and form.value_at(point) > 0
        # A bounded maximum is taken at an end of the interval.
        assert best is None or form.value_at(point) == best


def test_containment_of_a_segment_in_a_ray_runs_no_lp():
    with _spy() as spy:
        assert polyhedra.cell_contains_cell(ray_cell((0, 0), (2, 1)), segment_cell((0, 0), (2, 1)))
        assert not polyhedra.cell_contains_cell(segment_cell((0, 0), (2, 1)),
                                                ray_cell((0, 0), (2, 1)))
    assert not spy.called


def test_equalities_never_reach_the_simplex():
    # The rigid-curve chain solves LPs on cells of dimension two in R^3,
    # with equalities; each one is eliminated before the simplex runs, which
    # takes inequality rows and a start point only, both by keyword (the
    # bench reads the rows of an LP from ineqs=).
    with _spy() as spy:
        divisor_chain([rigid_function()] * 2, rigid_surface())
    assert spy.called
    assert all(len(c.args) == 2 and set(c.kwargs) == {"ineqs", "start"}
               for c in spy.call_args_list)


_CURVE_OPERATIONS = ("add", "add C -C", "equal refined", "equal moved", "push-forward",
                     "projection formula")


def _curve_step(name, conic, line):
    """An operation kind of the curve-arith bench workload on a conic and a
    line, with its inputs built beforehand."""
    if name == "add":
        return lambda: add(conic, line)
    if name == "add C -C":
        return lambda: add(conic, negate(conic))
    if name == "equal refined":
        split = _split_edges(line)
        return lambda: cycles_equal(line, split)
    if name == "equal moved":
        moved = translate(line, (1, 0))
        return lambda: cycles_equal(line, moved)
    f = Morphism(IntegerLinearMap(((2, -1),)), conic, rn_cycle(1))
    if name == "push-forward":
        return lambda: push_forward(f)
    phi = TropicalPolynomial((AffineForm((1,), QQ(-7, 2)), AffineForm((0,), 0),
                              AffineForm((-1,), -5)))
    return lambda: check_projection_formula(f, conic, phi)


@pytest.mark.parametrize("name", _CURVE_OPERATIONS)
def test_curve_arithmetic_takes_no_lp(monkeypatch, name):
    # Fresh copies, whose cells carry no cached keys or faces.
    conic = translate(conic_curve(), (0, 0))
    line = translate(standard_skeleton(2, 1), (QQ(1, 2), QQ(1, 3)))
    step = _curve_step(name, conic, line)
    calls = _count_lps(monkeypatch)
    step()
    assert not calls
