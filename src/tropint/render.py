"""SVG rendering of one-dimensional cycles in the plane.

A display-only view: edges and rays are clipped to a bounding box and drawn
as line segments with their weights as labels.  Coordinates are converted
to decimals only for the SVG output; the cycle itself is never altered.
"""

from __future__ import annotations

from .cycles import Cycle
from .kernel import QQ, dot
from .polyhedra import _interval


def render_svg(cycle: Cycle, bbox=(-5, -5, 5, 5), size=600) -> str:
    """Render a plane curve to an SVG string, rays clipped to the box."""
    cx = cycle.complex
    if cx.ambient_dim != 2 or (not cx.is_empty and cx.dim != 1):
        raise ValueError("rendering supports one-dimensional cycles in the plane")
    x0, y0, x1, y1 = (QQ(v) for v in bbox)
    if x0 >= x1 or y0 >= y1:
        raise ValueError("degenerate bounding box")
    scale = QQ(size) / max(x1 - x0, y1 - y0)

    def to_svg(pt):
        return (float((pt[0] - x0) * scale), float((y1 - pt[1]) * scale))

    width = float((x1 - x0) * scale)
    height = float((y1 - y0) * scale)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    box_forms = [((1, 0), -x0), ((-1, 0), x1), ((0, 1), -y0), ((0, -1), y1)]
    for cell, w in zip(cx.cells, cx.weights):
        seg = _visible_segment(cell, box_forms)
        if seg is None:
            continue
        (ax, ay), (bx, by) = to_svg(seg[0]), to_svg(seg[1])
        parts.append(
            f'<line x1="{ax:.3f}" y1="{ay:.3f}" x2="{bx:.3f}" y2="{by:.3f}" '
            'stroke="black" stroke-width="2"/>')
        mx, my = (ax + bx) / 2, (ay + by) / 2
        parts.append(
            f'<text x="{mx + 6:.3f}" y="{my - 6:.3f}" font-size="14" '
            f'fill="crimson">{w}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _visible_segment(cell, box_forms):
    """Clip a one-dimensional cell to the box; None when nothing shows.

    The cell is p + z d for z in an interval: each constraint a . x + c >= 0
    of the cell or the box bounds z through (a . d) z + (a . p + c) >= 0.
    """
    p = cell.interior_point
    d = cell.direction_lattice.vectors[0]
    constraints = [(f.linear, f.constant) for f in cell.ineqs] + box_forms
    interval = _interval([(dot(linear, d), dot(linear, p) + QQ(constant))
                          for linear, constant in constraints])
    if interval is None or None in interval:
        return None
    lo, hi = interval
    a = tuple(x + lo * v for x, v in zip(p, d))
    b = tuple(x + hi * v for x, v in zip(p, d))
    if a == b:
        return None
    return a, b
