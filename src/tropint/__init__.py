"""Exact intersection theory for balanced weighted polyhedral complexes in R^n.

Cycles are balanced integer-weighted complexes considered up to refinement;
the calculus provides divisors of piecewise-linear functions, push-forward
and pull-back along integer linear maps, and the stable intersection
product of arbitrary cycles, all in exact rational arithmetic.

The names exported here are the ones the README, the command line and the
document format use; lattice algebra and other internals stay in their
modules (:mod:`tropint.kernel`, :mod:`tropint.polyhedra`, ...).
"""

from .cycles import (
    Cycle,
    WeightedComplex,
    add,
    cartesian_product,
    cycles_equal,
    is_balanced,
    negate,
    rn_cycle,
    standard_skeleton,
    translate,
    validate_complex,
)
from .divisors import (
    CartierDivisor,
    PiecewisePL,
    TropicalPolynomial,
    divisor_chain,
    graph_fan,
    is_bounded_on,
    weil_divisor,
)
from .documents import DocumentError, parse_document, serialize_document
from .kernel import QQ
from .morphisms import (
    IntegerLinearMap,
    Morphism,
    check_projection_formula,
    pull_back,
    push_forward,
)
from .polyhedra import AffineForm, Cell, cone_from_rays, point_cell, ray_cell, segment_cell
from .render import render_svg
from .rn_products import (
    bezout_check,
    degree,
    degree_zero_check,
    diagonal_cycle,
    stable_intersect,
)

__version__ = "0.1.0"
