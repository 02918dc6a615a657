"""Each independent output check accepts a known-good case and rejects a
hand-made bad one.

    python3 -m pytest bench/test_checks.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402

LINE = [((1, 0), 0), ((0, 1), 0), ((0, 0), 0)]
# The line with its vertex at (1, 2); it meets LINE once, at (1, 1).
MOVED = [((1, 0), -1), ((0, 1), -2), ((0, 0), 0)]
HYPERPLANE3 = [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((0, 0, 0), 0)]


def cycle(n, dim, cells):
    return json.dumps({"format_version": "1", "kind": "cycle", "ambient_dim": n, "dim": dim,
                       "cells": [{"ineqs": i, "eqs": e, "weight": w} for i, e, w in cells]})


def plane_ray(base, u, w=1):
    """base + t u, t >= 0, in R^2."""
    normal = [-u[1], u[0]]
    return ([[u[0], u[1], u[0] * base[0] + u[1] * base[1]]],
            [normal + [normal[0] * base[0] + normal[1] * base[1]]], w)


def point(p, w=1):
    n = len(p)
    return ([], [[1 if j == i else 0 for j in range(n)] + [p[i]] for i in range(n)], w)


def space_ray(u):
    """The ray R_{>=0} u in R^3 for u among -e_i and (1, 1, 1)."""
    if u == (1, 1, 1):
        return ([[1, 1, 1, 0]], [[1, -1, 0, 0], [0, 1, -1, 0]], 1)
    i = u.index(-1)
    eqs = [[1 if j == k else 0 for j in range(3)] + [0] for k in range(3) if k != i]
    return ([[-1 if j == i else 0 for j in range(3)] + [0]], eqs, 1)


def standard_line(weights=(1, 1, 1), base=(0, 0)):
    dirs = [(-1, 0), (0, -1), (1, 1)]
    return cycle(2, 1, [plane_ray(base, u, w) for u, w in zip(dirs, weights)])


def test_plane_curve_accepts_the_standard_line():
    checks.check_plane_curve_sum(standard_line(), [LINE], 1)


def test_balancing_rejects_an_unbalanced_vertex():
    n, edges = checks.curve_edges(cycle(2, 1, [plane_ray((0, 0), (-1, 0)),
                                               plane_ray((0, 0), (0, -1))]))
    with pytest.raises(checks.CheckError, match="unbalanced"):
        checks.check_balanced_curve(edges, n)


def test_plane_curve_rejects_a_wrong_ray_weight():
    with pytest.raises(checks.CheckError, match="weigh"):
        checks.check_plane_curve_sum(standard_line(weights=(2, 2, 2)), [LINE], 1)


def test_plane_curve_rejects_a_curve_off_trop_f():
    with pytest.raises(checks.CheckError):
        checks.check_plane_curve_sum(standard_line(base=(1, 0)), [LINE], 1)


def test_plane_curve_rejects_a_wrong_edge_weight():
    # Balanced, with the rays of a degree-2 curve, but trop(LINE) has weight 1.
    with pytest.raises(checks.CheckError, match="weight 2 at"):
        checks.check_plane_curve_sum(standard_line(weights=(2, 2, 2)), [LINE], 2)


def test_intersection_accepts_line_dot_moved_line():
    checks.check_plane_intersection(cycle(2, 0, [point(["1", 1])]), LINE, MOVED, 1)


def test_intersection_rejects_a_point_off_the_curves():
    with pytest.raises(checks.CheckError, match="not on both"):
        checks.check_plane_intersection(cycle(2, 0, [point([1, 5])]), LINE, LINE, 1)


def test_intersection_rejects_a_wrong_multiplicity_and_degree():
    with pytest.raises(checks.CheckError, match="mixed area"):
        checks.check_plane_intersection(cycle(2, 0, [point([1, 1], 2)]), LINE, MOVED, 2)
    with pytest.raises(checks.CheckError, match="degree"):
        checks.check_plane_intersection(cycle(2, 0, []), LINE, MOVED, 1)
    with pytest.raises(checks.CheckError, match="weight -1"):
        checks.check_plane_intersection(cycle(2, 0, [point([1, 1], -1)]), LINE, MOVED, -1)


def test_self_intersection_multiplicity_is_the_mixed_area():
    assert checks.intersection_multiplicity(LINE, LINE, (0, 0)) == 1
    conic = [((0, 0), 0), ((1, 0), 0), ((0, 1), 0), ((1, 1), -1), ((2, 0), -3), ((0, 2), -3)]
    assert checks.intersection_multiplicity(conic, LINE, (0, 0)) == 1
    assert checks.intersection_multiplicity(conic, conic, (0, 0)) == 1


def test_space_curve_accepts_the_standard_line_in_r3_and_rejects_a_moved_one():
    dirs = [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 1, 1)]
    line = cycle(3, 1, [space_ray(u) for u in dirs])
    checks.check_space_curve(line, [HYPERPLANE3, HYPERPLANE3], 1)
    moved = [(e, c - sum(e)) for e, c in HYPERPLANE3]  # trop(moved) = trop(H) + (1, 1, 1)
    with pytest.raises(checks.CheckError, match="off trop"):
        checks.check_space_curve(line, [HYPERPLANE3, moved], 1)
    with pytest.raises(checks.CheckError, match="weigh"):
        checks.check_space_curve(line, [HYPERPLANE3, HYPERPLANE3], 2)


def test_pushforward_weights():
    curve = standard_line()
    image = cycle(1, 1, [([], [], 2)])
    checks.check_pushforward(image, curve, (1, 1))
    with pytest.raises(checks.CheckError, match="weight 2, expected 1"):
        checks.check_pushforward(image, curve, (1, 0))
    halves = cycle(1, 1, [([[1, 0]], [], 1), ([[-1, 0]], [], 1)])
    checks.check_pushforward(halves, curve, (1, 0))
    with pytest.raises(checks.CheckError, match="cover"):
        checks.check_pushforward(cycle(1, 1, [([[1, 0]], [], 1)]), curve, (1, 0))


def test_pushforward_rejects_an_unbalanced_source():
    rays = cycle(2, 1, [plane_ray((0, 0), (1, 0)), plane_ray((0, 0), (0, 1))])
    with pytest.raises(checks.CheckError, match="unbalanced"):
        checks.check_pushforward(cycle(1, 1, [([], [], 1)]), rays, (1, 0))


def test_empty_points_and_text():
    checks.check_empty(cycle(2, 1, []))
    with pytest.raises(checks.CheckError):
        checks.check_empty(standard_line())
    origin = cycle(3, 0, [point([0, 0, 0], -1)])
    checks.check_points(origin, {(0, 0, 0): -1})
    with pytest.raises(checks.CheckError):
        checks.check_points(origin, {(0, 0, 0): 1})
    checks.check_text("1 1 1 PASS\n", "1 1 1 PASS")
    with pytest.raises(checks.CheckError):
        checks.check_text("True\n", "False")


def test_skeleton():
    checks.check_skeleton(standard_line(), 2, 1)
    checks.check_skeleton(cycle(2, 0, [point([0, 0])]), 2, 0)
    dirs = [(-1, 0), (0, -1), (1, 1)]
    with pytest.raises(checks.CheckError, match="distinct standard cones"):
        checks.check_skeleton(cycle(2, 1, [plane_ray((0, 0), u) for u in dirs[:2]]), 2, 1)
    with pytest.raises(checks.CheckError, match="weight 2"):
        checks.check_skeleton(standard_line(weights=(1, 2, 1)), 2, 1)
    # The half-plane x <= 0 contains -e_1 and -e_2 but is not the cone they span.
    with pytest.raises(checks.CheckError):
        checks.check_skeleton(cycle(2, 2, [([[-1, 0, 0]], [], 1)]), 2, 2)
