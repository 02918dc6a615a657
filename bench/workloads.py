"""The three seeded workloads: input documents, operations and their checks.

An operation takes document texts, parses them, computes through tropint's
public API the way the matching ``tropint`` subcommand does, and returns
the canonical serialized result.  Each operation carries a check from
:mod:`checks` that decides the output from the generating polynomials
alone.  A round is the list of operations built from one seed; a run
repeats whole rounds, so every round does exactly the same work.

tropint is reached through attributes of the ``tropint`` package at call
time, never through names imported into this module, so that the traced
run can replace its functions with timing wrappers.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from functools import partial
from math import gcd

import tropint
import tropint.library

import checks

# README's `conic`: a smooth degree-2 curve.
CONIC = [((0, 0), 0), ((1, 0), 0), ((0, 1), 0), ((1, 1), -1), ((2, 0), -3), ((0, 2), -3)]
# max{x, y, 0}: the standard line Lnk:2:1.
LINE = [((1, 0), 0), ((0, 1), 0), ((0, 0), 0)]
# max{x, y, z, 0}: the hyperplane of the k-fold self-intersections.
HYPERPLANE3 = [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((0, 0, 0), 0)]


class Op:
    """One operation of a round: a name, input documents, a compute step
    and an independent check of its output."""

    __slots__ = ("name", "inputs", "compute", "check")

    def __init__(self, name, inputs, compute, check):
        self.name = name
        self.inputs = tuple(inputs)
        self.compute = compute
        self.check = check

    def run(self):
        return self.compute(*self.inputs)


# -- seeded polynomials ------------------------------------------------------------


def simplex_polynomial(rng, n, d):
    """A max-polynomial whose Newton polytope is the full degree-d simplex.

    The constants are a concave quadratic lift, which makes the dual
    subdivision fine, plus a seeded jitter in [0, 1] and a seeded linear
    term.  The jitter changes edge lengths without changing the
    combinatorial type, and the linear term translates the hypersurface.
    Both are rationals with denominator 60, so vertices of different
    hypersurfaces almost never line up: the arrangements of hyperplanes
    the operations build stay of the same size across seeds.
    """
    shift = [Fraction(rng.randint(-240, 240), 60) for _ in range(n)]
    terms = []
    for e in itertools.product(range(d + 1), repeat=n):
        if sum(e) > d:
            continue
        quad = sum(x * x for x in e) + sum(e[i] * e[j] for i in range(n) for j in range(i + 1, n))
        jitter = Fraction(rng.randint(0, 60), 60)
        terms.append((e, -3 * quad + jitter + sum(s * x for s, x in zip(shift, e))))
    return terms


def primitive_covector(rng):
    """A primitive map R^2 -> R that is injective on every ray and edge
    direction of a full-simplex curve: (1, 0), (0, 1), (1, 1)."""
    while True:
        a = (rng.randint(-3, 3), rng.randint(-3, 3))
        if gcd(*a) == 1 and a[0] * a[1] * (a[0] + a[1]) != 0:
            return a


def line_function(rng):
    """A seeded max-polynomial on R^1 with breakpoints -t1 and t2 in [80, 81].

    The curves' vertices lie within 12 of the origin and the maps have
    entries of at most 3, so the breakpoints lie beyond every vertex image
    on both sides: the pull-back cuts every ray once and nothing else, and
    the work does not depend on where the curve sits.
    """
    t1, t2 = (80 + Fraction(rng.randint(0, 60), 60) for _ in range(2))
    return [((-1,), -t1), ((0,), 0), ((1,), -t2)]


# -- documents ------------------------------------------------------------------------


def function_doc(poly):
    return json.dumps({
        "format_version": "1", "kind": "function", "type": "max_affine",
        "terms": [{"linear": list(e), "constant": _rat_json(c)} for e, c in poly]})


def rn_doc(n):
    return json.dumps({"format_version": "1", "kind": "cycle", "ambient_dim": n, "dim": n,
                       "cells": [{"ineqs": [], "eqs": [], "weight": 1}]})


def map_doc(rows):
    return json.dumps({"format_version": "1", "kind": "map", "matrix": [list(r) for r in rows]})


def builtin_doc(name):
    return tropint.serialize_document(tropint.library.builtin_example(name))


def shifted(poly, v):
    """The polynomial whose hypersurface is trop(poly) translated by v."""
    return [(e, c - sum(a * b for a, b in zip(e, v))) for e, c in poly]


def split_curve_doc(text):
    """The same curve with every edge cut in two at its midpoint.

    A refinement built from the document alone, so cycles_equal must
    report it equal to the original.
    """
    data = json.loads(text)
    _, edges = checks.curve_edges(text)
    cells = []
    for entry, edge in zip(data["cells"], edges):
        m = edge.midpoint()
        level = sum(a * b for a, b in zip(edge.u, m))
        for sign in (1, -1):
            row = [sign * a for a in edge.u] + [_rat_json(sign * level)]
            cells.append(dict(entry, ineqs=entry["ineqs"] + [row]))
    return json.dumps(dict(data, cells=cells))


def _rat_json(q):
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# -- operations, as the subcommands run them ---------------------------------------------


def _payload(text):
    return tropint.parse_document(text).payload


def op_intersect(a, b):
    return tropint.serialize_document(tropint.stable_intersect(_payload(a), _payload(b)))


def op_bezout(a, b):
    r = tropint.bezout_check(_payload(a), _payload(b))
    verdict = "PASS" if r.passed else "NOT-APPLICABLE" if not r.applicable else "FAIL"
    return f"{r.degree_first} {r.degree_second} {r.degree_product} {verdict}\n"


def op_chain(*texts):
    *funcs, cycle = [_payload(t) for t in texts]
    return tropint.serialize_document(tropint.divisor_chain(funcs, cycle))


def op_degree(a):
    return f"{tropint.degree(_payload(a))}\n"


def op_add(a, b):
    return tropint.serialize_document(tropint.add(_payload(a), _payload(b)))


def op_add_negative(a):
    c = _payload(a)
    return tropint.serialize_document(tropint.add(c, tropint.negate(c)))


def op_equal(a, b):
    return f"{tropint.cycles_equal(_payload(a), _payload(b))}\n"


def op_pushforward(m, a):
    f, c = _payload(m), _payload(a)
    morphism = tropint.Morphism(f, c, tropint.rn_cycle(f.target_dim))
    return tropint.serialize_document(tropint.push_forward(morphism))


def op_projection_formula(m, a, phi):
    f, c = _payload(m), _payload(a)
    morphism = tropint.Morphism(f, c, tropint.rn_cycle(f.target_dim))
    return f"{tropint.check_projection_formula(morphism, c, _payload(phi))}\n"


# -- workloads -------------------------------------------------------------------------------


def plane_curve(poly, degree):
    """Curve document of trop(poly) in R^2, checked before it is used."""
    text = op_chain(function_doc(poly), rn_doc(2))
    checks.check_plane_curve_sum(text, [poly], degree)
    return text


def plane_intersect(rng):
    conic, line = builtin_doc("conic-curve"), builtin_doc("Lnk:2:1")
    checks.check_plane_curve_sum(conic, [CONIC], 2)
    checks.check_plane_curve_sum(line, [LINE], 1)
    l1, l2, l3, l4 = (simplex_polynomial(rng, 2, 1) for _ in range(4))
    q1 = simplex_polynomial(rng, 2, 2)
    c1, c2, c3, c4 = (plane_curve(p, 1) for p in (l1, l2, l3, l4))
    inter = checks.check_plane_intersection
    return [
        Op("conic.conic", (conic, conic), op_intersect, partial(inter, f=CONIC, g=CONIC, degree=4)),
        Op("conic.line", (conic, line), op_intersect, partial(inter, f=CONIC, g=LINE, degree=2)),
        Op("line.conic", (c1, plane_curve(q1, 2)), op_intersect,
           partial(inter, f=l1, g=q1, degree=2)),
        Op("line.line", (c2, c3), op_intersect, partial(inter, f=l2, g=l3, degree=1)),
        Op("bezout line.line", (c3, c4), op_bezout,
           partial(checks.check_text, expected="1 1 1 PASS")),
    ]


def space_chain(rng):
    f1, f2 = simplex_polynomial(rng, 3, 1), simplex_polynomial(rng, 3, 2)
    g1, g2 = simplex_polynomial(rng, 3, 1), simplex_polynomial(rng, 3, 1)
    r3, h3 = rn_doc(3), function_doc(HYPERPLANE3)
    rigid = builtin_doc("rigid-function")
    ops = [
        Op("chain 1x2", (function_doc(f1), function_doc(f2), r3), op_chain,
           partial(checks.check_space_curve, polys=[f1, f2], degree=2)),
        Op("chain 1x1", (function_doc(g1), function_doc(g2), r3), op_chain,
           partial(checks.check_space_curve, polys=[g1, g2], degree=1)),
        Op("rigid chain", (rigid, rigid, builtin_doc("rigid-surface")), op_chain,
           partial(checks.check_points, expected={(0, 0, 0): -1})),
    ]
    for k in (1, 2):
        ops.append(Op(f"degree Lnk:3:{k}", (builtin_doc(f"Lnk:3:{k}"),), op_degree,
                      partial(checks.check_text, expected="1")))
    for k in (1, 2, 3):
        ops.append(Op(f"hyperplane^{k}", (h3,) * k + (r3,), op_chain,
                      partial(checks.check_skeleton, n=3, k=3 - k)))
    return ops


def curve_arith(rng):
    line, conic, cubic = (simplex_polynomial(rng, 2, d) for d in (1, 2, 3))
    lt, qt, ct = plane_curve(line, 1), plane_curve(conic, 2), plane_curve(cubic, 3)
    a, b = primitive_covector(rng), primitive_covector(rng)
    phi = line_function(rng)
    return [
        Op("add", (qt, lt), op_add,
           partial(checks.check_plane_curve_sum, polys=[conic, line], degree=3)),
        Op("add C -C", (qt,), op_add_negative, checks.check_empty),
        Op("equal refined", (lt, split_curve_doc(lt)), op_equal,
           partial(checks.check_text, expected="True")),
        Op("equal moved", (lt, plane_curve(shifted(line, (1, 0)), 1)), op_equal,
           partial(checks.check_text, expected="False")),
        Op("push-forward", (map_doc([a]), ct), op_pushforward,
           partial(checks.check_pushforward, curve_text=ct, a=a)),
        Op("projection formula", (map_doc([b]), qt, function_doc(phi)), op_projection_formula,
           partial(checks.check_text, expected="True")),
    ]


def build(workload, seed):
    """The round of operations for a workload, generated from the seed."""
    builders = {"plane-intersect": plane_intersect, "space-chain": space_chain,
                "curve-arith": curve_arith}
    return builders[workload](random.Random(f"{workload}:{seed}"))


def warm_up():
    """Fill standard_skeleton's cache, the one cache tropint keeps across
    calls, including the geometry its cells cache on first use, so that
    every round does the same work."""
    for n, k in ((2, 1), (3, 1), (3, 2)):
        for cell in tropint.standard_skeleton(n, k).complex.cells:
            cell.canonical_cell()
            cell.faces_of_codim_one()
            cell.recession_cone()
