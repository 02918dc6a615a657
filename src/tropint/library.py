"""Built-in cycles, functions and maps behind the CLI's named examples.

These are the stock verification instances: the standard skeleta and
tropical hyperplane polynomial, the rigid curve inside the standard surface
in R^3 with the function cutting it out, the three-ray fan whose
push-forwards have indices 2 and 1, a smooth plane conic, a bounded
sawtooth on the pinwheel curve for degree-zero checks, and the diagonal
of R^n x R^n that :func:`~tropint.rn_products.diagonal_cycle` checks
against.
"""

from __future__ import annotations

from .cycles import Cycle, WeightedComplex, minus_e, rn_cycle, standard_skeleton
from .divisors import CartierDivisor, PiecewisePL, TropicalPolynomial
from .kernel import integer_solve
from .morphisms import IntegerLinearMap
from .polyhedra import AffineForm, Cell, cone_from_rays, ray_cell, segment_cell


def hyperplane_polynomial(n: int) -> TropicalPolynomial:
    """max{x_1, ..., x_n, 0}, the linear tropical polynomial in R^n."""
    terms = [AffineForm(tuple(1 if j == i else 0 for j in range(n)), 0)
             for i in range(n)]
    terms.append(AffineForm((0,) * n, 0))
    return TropicalPolynomial(tuple(terms))


def rigid_surface() -> Cycle:
    """The standard two-dimensional fan in R^3 with unit weights."""
    return standard_skeleton(3, 2)


def rigid_curve() -> Cycle:
    """The pair of opposite rays spanned by e_1 + e_2 in R^3, weights 1."""
    cells = [cone_from_rays([(1, 1, 0)], 3), cone_from_rays([(-1, -1, 0)], 3)]
    return Cycle(WeightedComplex(3, 1, cells, [1, 1]), check=False)


def _cone_function_from_ray_values(ray_sets, values):
    """Piecewise-linear function on a fan, one integer covector per cone.

    Each cone is spanned by rays with prescribed integer values; the
    covector is an exact integer solution, so the data must be consistent
    with integrality (true for all the fans used here).
    """
    pieces = []
    for rays in ray_sets:
        cone = cone_from_rays(rays, len(rays[0]))
        lam = integer_solve([list(r) for r in rays], tuple(values[r] for r in rays))
        if lam is None:
            raise ValueError(f"no integer covector matches values on {rays}")
        pieces.append((cone, AffineForm(lam, 0)))
    return PiecewisePL(tuple(pieces))


def rigid_function() -> CartierDivisor:
    """Function on the standard surface whose divisor is the rigid curve.

    Linear on the refinement of the surface obtained by splitting the two
    cones containing the directions +-(e_1 + e_2); its values on the
    primitive generators pick out the curve with weight one.
    """
    e = {i: minus_e(i, 3) for i in range(4)}
    r = (-1, -1, 0)          # -(e_1 + e_2)
    mr = (1, 1, 0)
    values = {
        e[1]: 0, e[2]: 0, e[3]: 0,
        e[0]: 1,
        r: -1,
        mr: 0,
    }
    ray_sets = [
        (e[0], e[1]), (e[0], e[2]), (e[1], e[3]), (e[2], e[3]),
        (e[1], r), (r, e[2]),       # split of the cone spanned by e_1, e_2 directions
        (e[0], mr), (mr, e[3]),     # split of the opposite cone
    ]
    return CartierDivisor(_cone_function_from_ray_values(ray_sets, values))


def pushforward_fan() -> Cycle:
    """Balanced three-ray fan in R^2 with unit weights.

    Under (x, y) -> x + y the two half-lines acquire weight 2, under
    (x, y) -> x weight 1; the standard verification instance for the
    lattice-index weight formula.
    """
    rays = [(1, 0), (0, 1), (-1, -1)]
    cells = [cone_from_rays([r], 2) for r in rays]
    return Cycle(WeightedComplex(2, 1, cells, [1, 1, 1]), check=False)


def map_f1() -> IntegerLinearMap:
    return IntegerLinearMap(((1, 1),))


def map_f2() -> IntegerLinearMap:
    return IntegerLinearMap(((1, 0),))


def conic_polynomial() -> TropicalPolynomial:
    """A smooth degree-two tropical polynomial in the plane.

    Its divisor on R^2 is a trivalent curve with two rays in each of the
    directions -e_1, -e_2, e_1 + e_2, hence of degree two.
    """
    return TropicalPolynomial((
        AffineForm((0, 0), 0),
        AffineForm((1, 0), 0),
        AffineForm((0, 1), 0),
        AffineForm((1, 1), -1),
        AffineForm((2, 0), -3),
        AffineForm((0, 2), -3),
    ))


def conic_curve() -> Cycle:
    from .divisors import weil_divisor

    return weil_divisor(conic_polynomial(), rn_cycle(2))


def pinwheel_curve() -> Cycle:
    """Balanced plane curve with a bounded quadrilateral and four weight-2 rays."""
    v = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    cells = [segment_cell(v[i], v[(i + 1) % 4]) for i in range(4)]
    rays = [ray_cell(p, p) for p in v]
    weights = [1, 1, 1, 1, 2, 2, 2, 2]
    return Cycle(WeightedComplex(2, 1, cells + rays, weights), check=False)


def sawtooth_function() -> CartierDivisor:
    """Bounded sawtooth on the pinwheel curve: up-down around the square.

    Constant along each ray, alternating between 0 and 1 at the vertices;
    its divisor has weights +2, -2, +2, -2, of degree zero.
    """
    v = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    heights = [0, 1, 0, 1]
    pieces = []
    for i in range(4):
        p, q = v[i], v[(i + 1) % 4]
        d = tuple(b - a for a, b in zip(p, q))
        lam = integer_solve([list(d)], (heights[(i + 1) % 4] - heights[i],))
        c = heights[i] - sum(l * x for l, x in zip(lam, p))
        pieces.append((segment_cell(p, q), AffineForm(lam, c)))
    for i in range(4):
        pieces.append((ray_cell(v[i], v[i]), AffineForm((0, 0), heights[i])))
    return CartierDivisor(PiecewisePL(tuple(pieces)))


def diagonal_line(n: int = 1) -> Cycle:
    """The diagonal {(x, x)} inside R^{2n} with weight one."""
    eqs = [AffineForm(tuple(1 if j == i else (-1 if j == n + i else 0)
                            for j in range(2 * n)), 0) for i in range(n)]
    cell = Cell.from_constraints(2 * n, eqs=eqs)
    return Cycle(WeightedComplex(2 * n, n, [cell], [1]), check=False)


# -- named examples for the command line --------------------------------------

_FIXED_EXAMPLES = {
    "rigid-surface": rigid_surface,
    "rigid-function": rigid_function,
    "rigid-curve": rigid_curve,
    "pushfwd-fan": pushforward_fan,
    "map-f1": map_f1,
    "map-f2": map_f2,
    "conic": conic_polynomial,
    "conic-curve": conic_curve,
    "pinwheel-curve": pinwheel_curve,
    "sawtooth": sawtooth_function,
}


def example_names():
    return sorted(_FIXED_EXAMPLES) + ["Lnk:<n>:<k>", "hyperplane:<n>"]


def builtin_example(name: str):
    """Resolve a built-in example by its stable public name, or None."""
    if name in _FIXED_EXAMPLES:
        return _FIXED_EXAMPLES[name]()
    if name.startswith("Lnk:"):
        parts = name.split(":")
        if len(parts) == 3 and parts[1].lstrip("-").isdigit() and parts[2].lstrip("-").isdigit():
            n, k = int(parts[1]), int(parts[2])
            if not (1 <= n and 0 <= k <= n):
                raise ValueError(f"skeleton indices out of range in {name!r}")
            return standard_skeleton(n, k)
        raise ValueError(f"malformed skeleton name {name!r}; use Lnk:<n>:<k>")
    if name.startswith("hyperplane:"):
        suffix = name.split(":", 1)[1]
        if suffix.lstrip("-").isdigit():
            n = int(suffix)
            if n < 1:
                raise ValueError(f"hyperplane dimension out of range in {name!r}")
            return hyperplane_polynomial(n)
        raise ValueError(f"malformed hyperplane name {name!r}; use hyperplane:<n>")
    return None
