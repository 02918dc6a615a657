"""The one weighted-sum routine behind sums, equality and push-forward.

``push_forward`` weights each image cell once by its lattice index and lets
the common refinement add the weights; the reference weights every
refinement piece by its own index.  Both must give the same cells with the
same weights.  Sums and equality must not see how a cycle is subdivided.
"""

import random
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_push_forward
from test_random_pipeline import random_plane_curve

import tropint.morphisms as morphisms
from tropint.cycles import Cycle, WeightedComplex, add, cycles_equal, negate, rn_cycle
from tropint.kernel import lattice_index
from tropint.library import builtin_example
from tropint.morphisms import IntegerLinearMap, Morphism, image_cell, push_forward
from tropint.polyhedra import ray_cell, segment_cell

_LIBRARY_CURVES = ("pushfwd-fan", "pinwheel-curve", "conic-curve")
_RANDOM_CURVES = tuple((seed, d) for seed in (1729, 23, 5150) for d in (1, 2))


@lru_cache(maxsize=None)
def _curve(name):
    if name in _LIBRARY_CURVES:
        return builtin_example(name)
    seed, d = name
    return random_plane_curve(random.Random(seed), d)


_entry = st.integers(-2, 2)
_row = st.tuples(_entry, _entry)


@st.composite
def plane_maps(draw):
    """A 1x2 or 2x2 integer matrix; rows may be zero, non-primitive (scaled
    by 2 or 3) or, in the 2x2 case, a multiple of each other."""
    first = tuple(draw(st.sampled_from((1, 2, 3))) * x for x in draw(_row))
    if draw(st.booleans()):
        return (first,)
    if draw(st.booleans()):
        k = draw(_entry)
        return (first, tuple(k * x for x in first))
    return (first, draw(_row))


def _tally(cycle):
    return sorted(zip((c.canonical_key for c in cycle.complex.cells), cycle.complex.weights))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(_LIBRARY_CURVES + _RANDOM_CURVES), plane_maps())
def test_push_forward_matches_per_piece_reference(name, matrix):
    curve = _curve(name)
    f = Morphism(IntegerLinearMap(matrix), curve, rn_cycle(len(matrix)))
    got = push_forward(f)
    want = reference_push_forward(matrix, curve)
    assert _tally(got) == _tally(want)
    assert (got.ambient_dim, got.dim) == (want.ambient_dim, want.dim)


@pytest.mark.parametrize("name, matrix", [
    ("pinwheel-curve", ((2, 1),)), ("conic-curve", ((1, 0),)), ("conic-curve", ((1, 0), (1, 1)))])
def test_push_forward_takes_one_lattice_index_per_injective_cell(name, matrix):
    # Each of these maps sends some cell onto an image that the other images
    # cut into several pieces, so a per-piece index would be taken more often.
    curve = _curve(name)
    injective = sum(image_cell(matrix, cell) is not None for cell in curve.complex.cells)
    with mock.patch.object(morphisms, "lattice_index", wraps=lattice_index) as counted:
        push_forward(Morphism(IntegerLinearMap(matrix), curve, rn_cycle(len(matrix))))
    assert counted.call_count == injective


def _split_edges(cycle):
    """The same cycle with every edge cut in two: a bounded edge at its
    midpoint, a ray or a line at its relative interior point."""
    cx = cycle.complex
    cells, weights = [], []
    for cell, w in zip(cx.cells, cx.weights):
        p = cell.interior_point
        (b,) = cell.direction_lattice.vectors

        def at(t):
            return tuple(x + t * y for x, y in zip(p, b))

        # The edge is {p + t b}; each inequality bounds t on one side.
        lo = max((-f.value_at(p) / f.eval_direction(b) for f in cell.ineqs
                  if f.eval_direction(b) > 0), default=None)
        hi = min((-f.value_at(p) / f.eval_direction(b) for f in cell.ineqs
                  if f.eval_direction(b) < 0), default=None)
        cut = p if lo is None or hi is None else at((lo + hi) / 2)
        for end, sign in ((lo, -1), (hi, 1)):
            if end is None:
                cells.append(ray_cell(cut, tuple(sign * y for y in b)))
            else:
                cells.append(segment_cell(cut, at(end)))
            weights.append(w)
    return Cycle(WeightedComplex(cx.ambient_dim, cx.dim, cells, weights))


@pytest.mark.parametrize("name", _RANDOM_CURVES + _LIBRARY_CURVES, ids=str)
def test_sums_and_equality_ignore_refinement(name):
    curve = _curve(name)
    split = _split_edges(curve)
    assert len(split.complex.cells) == 2 * len(curve.complex.cells)
    assert cycles_equal(curve, split) and cycles_equal(split, curve)
    assert add(curve, negate(curve)).is_empty
    assert add(curve, negate(split)).is_empty
    assert not cycles_equal(curve, add(split, split))
