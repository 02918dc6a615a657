"""Output checks that are independent of tropint.

Everything here reads serialized cycle documents (plain JSON) and the
polynomials the workloads were generated from, and decides facts about
them with ``fractions.Fraction`` and integers only.  Nothing imports
``tropint``: a fault in its arithmetic, its LP or its canonical forms
cannot make a wrong output pass.

A polynomial is a list of ``(exponent, constant)`` pairs for the max
convention: the value at x is max over terms of exponent . x + constant.

Every check raises :class:`CheckError` with a message naming what failed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, gcd


class CheckError(AssertionError):
    """An output contradicts a fact computed apart from tropint."""


def require(condition, message):
    if not condition:
        raise CheckError(message)


# -- documents -----------------------------------------------------------------


def _rat(value):
    if isinstance(value, bool):
        raise CheckError(f"boolean {value!r} where a rational is expected")
    return Fraction(value)


def load_cycle(text):
    """(ambient_dim, dim, cells) of a cycle document.

    Each cell is ``(ineqs, eqs, weight)`` with rows ``(a, b)`` meaning
    ``a . x >= b`` resp. ``a . x == b``.
    """
    data = json.loads(text)
    require(data.get("kind") == "cycle", "not a cycle document")
    n, dim = data["ambient_dim"], data["dim"]
    cells = []
    for entry in data["cells"]:
        def rows(key):
            return [(tuple(_rat(x) for x in r[:n]), _rat(r[n])) for r in entry.get(key, [])]
        cells.append((rows("ineqs"), rows("eqs"), int(entry["weight"])))
    return n, dim, cells


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def affine_hull(eqs, n):
    """A point and a basis of directions of {x : a . x == b for (a, b) in eqs}.

    Gauss-Jordan elimination over Fraction; raises if the system is
    inconsistent.
    """
    rows = [list(a) + [b] for a, b in eqs]
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    require(all(row[n] == 0 for row in rows[r:]), "inconsistent equations")
    point = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        point[col] = rows[i][n]
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for i, col in enumerate(pivots):
            v[col] = -rows[i][free]
        basis.append(tuple(v))
    return tuple(point), basis


def primitive(v):
    """The primitive integer vector on the ray through a rational vector."""
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    require(g != 0, "zero direction")
    return tuple(x // g for x in ints)


class Edge:
    """A one-dimensional cell p + t u with lo <= t <= hi (None = unbounded)."""

    def __init__(self, ineqs, eqs, weight, n):
        point, basis = affine_hull(eqs, n)
        require(len(basis) == 1, f"cell of dimension {len(basis)} in a curve")
        self.u = primitive(basis[0])
        self.weight = weight
        lo = hi = None
        for a, b in ineqs:
            au = _dot(a, self.u)
            bound = (b - _dot(a, point))
            if au == 0:
                require(bound <= 0, "empty cell")
                continue
            t = bound / au
            if au > 0:
                lo = t if lo is None else max(lo, t)
            else:
                hi = t if hi is None else min(hi, t)
        require(lo is None or hi is None or lo < hi, "degenerate one-dimensional cell")
        self.p, self.lo, self.hi = point, lo, hi

    def at(self, t):
        return tuple(x + t * y for x, y in zip(self.p, self.u))

    @property
    def is_ray(self):
        return (self.lo is None) != (self.hi is None)

    def ray_direction(self):
        """Primitive direction in which a ray is unbounded."""
        return self.u if self.hi is None else tuple(-x for x in self.u)

    def ends(self):
        """(vertex, primitive direction pointing into the cell) per endpoint."""
        out = []
        if self.lo is not None:
            out.append((self.at(self.lo), self.u))
        if self.hi is not None:
            out.append((self.at(self.hi), tuple(-x for x in self.u)))
        return out

    def midpoint(self):
        if self.lo is not None and self.hi is not None:
            return self.at((self.lo + self.hi) / 2)
        if self.lo is not None:
            return self.at(self.lo + 1)
        if self.hi is not None:
            return self.at(self.hi - 1)
        return self.p


def curve_edges(text):
    n, dim, cells = load_cycle(text)
    require(dim == 1, f"expected a curve, got dimension {dim}")
    return n, [Edge(ineqs, eqs, w, n) for ineqs, eqs, w in cells]


def zero_cycle_points(text):
    """(point, weight) for every cell of a zero-dimensional cycle."""
    n, dim, cells = load_cycle(text)
    require(dim == 0, f"expected points, got dimension {dim}")
    out = []
    for ineqs, eqs, w in cells:
        point, basis = affine_hull(eqs, n)
        require(not basis, "point cell with a direction")
        require(all(_dot(a, point) >= b for a, b in ineqs), "point violates its inequalities")
        out.append((point, w))
    return out


# -- tropical hypersurfaces -----------------------------------------------------


def maximal_terms(poly, x):
    """Exponents of the terms attaining the maximum at x."""
    values = [(_dot(e, x) + Fraction(c), e) for e, c in poly]
    top = max(v for v, _ in values)
    return [e for v, e in values if v == top]


def on_hypersurface(poly, x):
    """x lies on trop(poly): the maximum is attained at least twice."""
    return len(maximal_terms(poly, x)) >= 2


def curve_weight_at(poly, x):
    """Weight of the plane curve trop(poly) at a point inside one of its edges.

    That is the lattice length of the segment spanned by the exponents
    attaining the maximum; 0 off the curve.
    """
    ex = maximal_terms(poly, x)
    if len(ex) < 2:
        return 0
    lo, hi = min(ex), max(ex)
    require(all(_cross(_sub(e, lo), _sub(hi, lo)) == 0 for e in ex),
            f"point {_fmt(x)} is a vertex of trop(poly), not inside an edge")
    return gcd(*(abs(v) for v in _sub(hi, lo)))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _twice_area(points):
    """Twice the area of the convex hull of integer points in the plane."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return 0
    hull = []
    for seq in (pts, pts[::-1]):
        part = []
        for p in seq:
            while len(part) >= 2 and _cross(_sub(part[-1], part[-2]), _sub(p, part[-2])) <= 0:
                part.pop()
            part.append(p)
        hull.extend(part[:-1])
    return abs(sum(_cross(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))))


def intersection_multiplicity(f, g, x):
    """Stable intersection multiplicity of trop(f) and trop(g) at x.

    The mixed area of the two Newton cells dual to x:
    area(P + Q) - area(P) - area(Q).
    """
    p, q = maximal_terms(f, x), maximal_terms(g, x)
    mink = [tuple(a + b for a, b in zip(u, v)) for u in p for v in q]
    twice = _twice_area(mink) - _twice_area(p) - _twice_area(q)
    require(twice % 2 == 0, "odd mixed area")
    return twice // 2


def _fmt(x):
    return "(" + ", ".join(str(c) for c in x) + ")"


# -- checks on cycles -----------------------------------------------------------


def check_balanced_curve(edges, n):
    """Balancing of a one-dimensional cycle at every vertex."""
    sums = {}
    for e in edges:
        for v, u in e.ends():
            s = sums.setdefault(v, [0] * n)
            for i in range(n):
                s[i] += e.weight * u[i]
    for v, s in sums.items():
        require(not any(s), f"unbalanced at vertex {_fmt(v)}: defect {tuple(s)}")


def standard_directions(n):
    """-e_1, ..., -e_n and e_1 + ... + e_n: the rays of a degree-d curve."""
    dirs = [tuple(-1 if j == i else 0 for j in range(n)) for i in range(n)]
    return dirs + [(1,) * n]


def check_ray_weights(edges, n, expected):
    """Ray weights in each standard direction sum to `expected`; no other rays."""
    sums = {u: 0 for u in standard_directions(n)}
    for e in edges:
        if e.is_ray:
            u = e.ray_direction()
            require(u in sums, f"ray in non-standard direction {u}")
            sums[u] += e.weight
    for u, s in sums.items():
        require(s == expected, f"rays in direction {u} weigh {s}, expected {expected}")


def check_on_hypersurfaces(edges, polys):
    """Every vertex and cell midpoint lies on trop(f) for every f."""
    for e in edges:
        for x in [e.midpoint()] + [v for v, _ in e.ends()]:
            for f in polys:
                require(on_hypersurface(f, x), f"point {_fmt(x)} is off trop(f)")


def check_plane_curve_sum(text, polys, degree):
    """A plane curve equal to the sum of trop(f) over the given polynomials.

    Balanced, rays of total weight `degree` per standard direction, and at
    every cell midpoint the weight equals the sum of the lattice lengths of
    the Newton edges dual to it.
    """
    n, edges = curve_edges(text)
    require(n == 2, "not a plane curve")
    check_balanced_curve(edges, n)
    check_ray_weights(edges, n, degree)
    for e in edges:
        x = e.midpoint()
        expected = sum(curve_weight_at(f, x) for f in polys)
        require(e.weight == expected,
                f"weight {e.weight} at {_fmt(x)}, expected {expected}")
        for v, _ in e.ends():
            require(any(on_hypersurface(f, v) for f in polys),
                    f"vertex {_fmt(v)} is off the curve")


def check_space_curve(text, polys, degree):
    """The curve trop(f_1) . trop(f_2) in R^n: balanced, on every trop(f_i),
    rays of total weight `degree` per standard direction."""
    n, edges = curve_edges(text)
    check_balanced_curve(edges, n)
    check_ray_weights(edges, n, degree)
    check_on_hypersurfaces(edges, polys)


def check_plane_intersection(text, f, g, degree):
    """Stable intersection of trop(f) and trop(g) in the plane.

    Total weight `degree` (Bezout), every point on both curves with a
    positive weight equal to the mixed area of the dual Newton cells.
    """
    points = zero_cycle_points(text)
    total = 0
    for x, w in points:
        require(w > 0, f"point {_fmt(x)} has weight {w}")
        require(on_hypersurface(f, x) and on_hypersurface(g, x),
                f"point {_fmt(x)} is not on both curves")
        m = intersection_multiplicity(f, g, x)
        require(w == m, f"point {_fmt(x)} has weight {w}, mixed area {m}")
        total += w
    require(total == degree, f"degree {total}, expected {degree}")


def check_points(text, expected):
    """A zero-cycle equal to the given {point: weight}."""
    got = {}
    for x, w in zero_cycle_points(text):
        got[x] = got.get(x, 0) + w
    want = {tuple(Fraction(c) for c in x): w for x, w in expected.items()}
    require(got == want, f"points {got}, expected {want}")


def check_empty(text):
    _, _, cells = load_cycle(text)
    require(not cells, f"expected the empty cycle, got {len(cells)} cells")


def check_pushforward(text, curve_text, a):
    """Push-forward of a plane curve along x -> a . x.

    By balancing, the image is R with the constant weight
    sum of w (a . u) over rays with a . u > 0, which equals the sum of
    w |a . u| over rays with a . u < 0.
    """
    _, edges = curve_edges(curve_text)
    up = sum(e.weight * _dot(a, e.ray_direction()) for e in edges
             if e.is_ray and _dot(a, e.ray_direction()) > 0)
    down = sum(-e.weight * _dot(a, e.ray_direction()) for e in edges
               if e.is_ray and _dot(a, e.ray_direction()) < 0)
    require(up == down, f"ray pairings {up} and {down} differ: source unbalanced")
    n, dim, cells = load_cycle(text)
    require((n, dim) == (1, 1), "push-forward is not a curve in R^1")
    if up == 0:
        require(not cells, "push-forward should be empty")
        return
    intervals = []
    for ineqs, eqs, w in cells:
        require(not eqs, "equation on a cell of R^1")
        require(w == up, f"push-forward weight {w}, expected {up}")
        lo = max((b / x[0] for x, b in ineqs if x[0] > 0), default=None)
        hi = min((b / x[0] for x, b in ineqs if x[0] < 0), default=None)
        intervals.append((lo, hi))
    intervals.sort(key=lambda iv: (iv[0] is not None, iv[0]))
    require(intervals[0][0] is None and intervals[-1][1] is None,
            "push-forward does not cover R")
    for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
        require(hi is not None and hi == lo, "push-forward cells leave a gap or overlap")


def check_skeleton(text, n, k):
    """The standard k-skeleton L^n_k: unit weights on the cones spanned by
    every k of the n + 1 directions -e_0 = e_1 + ... + e_n, -e_1, ..., -e_n."""
    amb, dim, cells = load_cycle(text)
    require((amb, dim) == (n, k), f"expected dimension {k} in R^{n}")
    dirs = [(1,) * n] + [tuple(-1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set()
    for ineqs, eqs, w in cells:
        require(w == 1, f"weight {w} on a skeleton cone")
        require(all(b == 0 for _, b in ineqs + eqs), "skeleton cell is not a cone")
        gens = frozenset(i for i, d in enumerate(dirs)
                         if all(_dot(a, d) == 0 for a, _ in eqs)
                         and all(_dot(a, d) >= 0 for a, _ in ineqs))
        require(len(gens) == k, f"cone contains {len(gens)} standard directions")
        _, basis = affine_hull([(a, b) for a, b in eqs], n)
        require(len(basis) == k, "cone has the wrong dimension")
        require(len(ineqs) == k and all(
            sum(1 for i in gens if _dot(a, dirs[i]) == 0) == k - 1 for a, _ in ineqs),
            "cone inequalities are not the facets of a standard cone")
        seen.add(gens)
    expected = comb(n + 1, k)
    require(len(seen) == len(cells) == expected,
            f"{len(seen)} distinct standard cones, expected {expected}")


def check_text(text, expected):
    require(text.strip() == expected, f"output {text.strip()!r}, expected {expected!r}")
