"""SVG rendering of straight-line instance drawings, crossings highlighted."""

from __future__ import annotations

from math import isfinite

from .geometry import Drawing, GeometryError, list_crossings
from .instance import EnergyInstance

_SIZE = 600
_MARGIN = 40


def render_svg(instance: EnergyInstance, d: Drawing) -> str:
    try:
        xs = [float(p[0]) for p in d.coords.values()]
        ys = [float(p[1]) for p in d.coords.values()]
    except OverflowError:
        raise GeometryError("a coordinate is beyond float range, so the drawing "
                            "cannot be rendered") from None
    min_x, max_x = min(xs, default=0.0), max(xs, default=0.0)
    min_y, max_y = min(ys, default=0.0), max(ys, default=0.0)
    span = max(max_x - min_x, max_y - min_y, 1e-9)
    if not isfinite(span):  # each coordinate is a float, but their span is not
        raise GeometryError("the coordinate span is beyond float range, so the "
                            "drawing cannot be rendered")
    scale = (_SIZE - 2 * _MARGIN) / span

    def sx(x: float) -> float:
        return _MARGIN + (x - min_x) * scale

    def sy(y: float) -> float:
        # SVG's y axis points down; flip so the drawing reads like the plane.
        return _SIZE - _MARGIN - (y - min_y) * scale

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
             f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
             f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>']
    for (u, v) in instance.edges:
        pu, pv = d.coords[u], d.coords[v]
        parts.append(f'<line x1="{sx(float(pu[0])):.2f}" y1="{sy(float(pu[1])):.2f}" '
                     f'x2="{sx(float(pv[0])):.2f}" y2="{sy(float(pv[1])):.2f}" '
                     'stroke="black" stroke-width="1"/>')
    for c in list_crossings(instance, d):
        cx, cy = sx(float(c.point[0])), sy(float(c.point[1]))
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="6" fill="none" '
                     'stroke="red" stroke-width="2"/>')
    for u in instance.nodes:
        p = d.coords[u]
        cx, cy = sx(float(p[0])), sy(float(p[1]))
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3.5" fill="steelblue"/>')
        parts.append(f'<text x="{cx + 5:.2f}" y="{cy - 5:.2f}" font-size="10" '
                     f'font-family="monospace">{u}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
