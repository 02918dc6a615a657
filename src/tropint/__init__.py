"""Exact intersection theory for balanced weighted polyhedral complexes in R^n.

Cycles are balanced integer-weighted complexes considered up to refinement;
the calculus provides divisors of piecewise-linear functions, push-forward
and pull-back along integer linear maps, and the stable intersection
product of arbitrary cycles, all in exact rational arithmetic.
"""

from .cycles import (
    BalanceReport,
    Cycle,
    Diagnostics,
    NormalVector,
    WeightedComplex,
    add,
    cartesian_product,
    cycles_equal,
    is_balanced,
    negate,
    normal_vector,
    rn_cycle,
    scale,
    standard_skeleton,
    star_fan,
    translate,
    validate_complex,
)
from .divisors import (
    CartierDivisor,
    PiecewisePL,
    TropicalPolynomial,
    divisor_chain,
    divisors_equal,
    graph_fan,
    is_bounded_on,
    linearize_on,
    pl_add,
    pl_negate,
    pl_scale,
    pl_value,
    weil_divisor,
    weil_divisor_complex,
)
from .documents import Document, DocumentError, parse_document, serialize_document
from .kernel import (
    QQ,
    LatticeBasis,
    hermite_normal_form,
    lattice_index,
    primitive_part,
    quotient_generator,
    smith_normal_form,
    subspace_lattice,
)
from .morphisms import (
    IntegerLinearMap,
    Morphism,
    check_projection_formula,
    pull_back,
    push_forward,
)
from .polyhedra import (
    AffineForm,
    Cell,
    EmptyCellError,
    cone_from_rays,
    intersect,
    point_cell,
    ray_cell,
    segment_cell,
)
from .render import render_svg
from .rn_products import (
    BezoutReport,
    ZeroCycle,
    as_zero_cycle,
    bezout_check,
    degree,
    degree_zero_check,
    diagonal_cycle,
    diagonal_divisors,
    is_pn_generic,
    stable_intersect,
    translation_invariance_check,
)

__version__ = "0.1.0"
