"""Exact rational 2D geometry for straight-line instance drawings.

Every predicate is exact, with no floating point anywhere, so "no
crossings remain" is a decidable postcondition.  The whole-drawing scans
(list_crossings, validate_general_position) scale the drawing by one
common denominator and work on integers, skipping edge pairs whose
bounding boxes are disjoint.  free_radius does the same with the crossing
point in the denominator, and builds a Fraction only for the least
squared distance.  Degenerate drawings are rejected, never perturbed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from .instance import EnergyInstance

Point = tuple[Fraction, Fraction]


class GeometryError(ValueError):
    pass


class GeneralPositionError(GeometryError):
    """Collinear overlapping segments or similar degeneracy."""


@dataclass(frozen=True)
class Drawing:
    coords: dict[int, Point]

    def __post_init__(self):
        # Points are told apart by their coordinates' integer numerators and
        # denominators, which hash faster than a Fraction.  A float has
        # neither; then every coordinate is stored as its exact Fraction, so
        # the scans see rationals only and a point equal in value across int,
        # Fraction and float is found.  NaN and infinities have no exact
        # value and are rejected.
        points = self.coords.values()
        try:
            keys = {(x.numerator, x.denominator, y.numerator, y.denominator) for x, y in points}
        except AttributeError:
            coords = {}
            for u, point in self.coords.items():
                try:
                    coords[u] = Fraction(point[0]), Fraction(point[1])
                except (ValueError, OverflowError):
                    raise GeometryError(
                        f"node {u}: coordinate {point} is not a finite number") from None
            object.__setattr__(self, "coords", coords)
            keys = set(coords.values())
        if len(keys) != len(self.coords):
            raise GeometryError("two nodes share a point")

    def covers(self, instance: EnergyInstance) -> bool:
        return set(instance.nodes) <= set(self.coords)


@dataclass(frozen=True)
class Crossing:
    edge_a: tuple[int, int]
    edge_b: tuple[int, int]
    point: Point


def frac_str(f: int | Fraction) -> str:
    """Exact "num/den" text of a rational coordinate, an int or a Fraction."""
    return f"{f.numerator}/{f.denominator}"


def circle_layout(nodes) -> Drawing:
    """Deterministic fallback layout: rational points on the unit circle, in id order."""
    coords = {}
    for i, u in enumerate(sorted(nodes)):
        # Weierstrass parametrization keeps the points exactly on the circle.
        t = Fraction(i)
        den = 1 + t * t
        coords[u] = ((1 - t * t) / den, 2 * t / den)
    return Drawing(coords)


def _scaled(q: Point, den: int) -> tuple[int, int]:
    """q times den, a multiple of both its coordinates' denominators, as integers."""
    x, y = q
    return x.numerator * (den // x.denominator), y.numerator * (den // y.denominator)


def _integer_coords(instance: EnergyInstance, d: Drawing) -> tuple[dict[int, tuple[int, int]], int]:
    """Every node's coordinates times one common denominator, and that denominator."""
    if not d.covers(instance):
        raise GeometryError("drawing does not cover the instance")
    coords = {u: d.coords[u] for u in instance.nodes}
    den = lcm(*(c.denominator for p in coords.values() for c in p))
    return {u: _scaled(p, den) for u, p in coords.items()}, den


def _pair_scan(instance: EnergyInstance, pts: dict[int, tuple[int, int]],
               den: int) -> list[tuple[int, int, Point | None]]:
    """(i, j, point) for every pair of edges i < j that share no endpoint but meet.

    point is the proper crossing point of the open segments (touching at an
    endpoint is not proper), or None for a collinear overlap; pairs come in
    lexicographic edge order.  All of it is computed on integers: pts and
    den are the drawing's _integer_coords, edges are swept by the left end
    of their bounding boxes, and pairs whose boxes are strictly disjoint
    (which can neither cross nor overlap) are never tested.
    """
    segs = []
    for (u, v) in instance.edges:
        (x1, y1), (x2, y2) = pts[u], pts[v]
        segs.append((min(x1, x2), max(x1, x2), min(y1, y2), max(y1, y2),
                     u, v, x1, y1, x2, y2))
    order = sorted(range(len(segs)), key=lambda i: segs[i][0])
    hits = []
    for a, i in enumerate(order):
        _, xhi, ylo, yhi, u, v, x1, y1, x2, y2 = segs[i]
        dx, dy = x2 - x1, y2 - y1
        for b in range(a + 1, len(order)):
            j = order[b]
            s = segs[j]
            if s[0] > xhi:
                break
            if s[3] < ylo or yhi < s[2] or s[4] == u or s[4] == v or s[5] == u or s[5] == v:
                continue
            x3, y3, x4, y4 = s[6:]
            ex, ey = x4 - x3, y4 - y3
            d1 = ex * (y1 - y3) - ey * (x1 - x3)
            d2 = ex * (y2 - y3) - ey * (x2 - x3)
            if d1 == 0 and d2 == 0:
                # Collinear with boxes that meet.  Segments on one line that
                # only touch share an end point, hence a node (the drawing
                # gives every node its own point); these share none, so
                # they overlap.
                hits.append((min(i, j), max(i, j), None))
                continue
            if d1 == 0 or d2 == 0 or (d1 > 0) == (d2 > 0):
                continue
            d3 = dx * (y3 - y1) - dy * (x3 - x1)
            d4 = dx * (y4 - y1) - dy * (x4 - x1)
            if d3 == 0 or d4 == 0 or (d3 > 0) == (d4 > 0):
                continue
            # d1, d2 interpolate to zero at the crossing: t = d1 / (d1 - d2).
            q = (d1 - d2) * den
            hits.append((min(i, j), max(i, j),
                         (Fraction(x1 * (d1 - d2) + d1 * dx, q),
                          Fraction(y1 * (d1 - d2) + d1 * dy, q))))
    hits.sort(key=lambda h: (h[0], h[1]))
    return hits


def list_crossings(instance: EnergyInstance, d: Drawing) -> list[Crossing]:
    """All proper crossings between edges sharing no endpoint, in lexicographic edge order.

    Raises GeneralPositionError if two such edges overlap collinearly.
    """
    edges = instance.edges
    out = []
    for i, j, p in _pair_scan(instance, *_integer_coords(instance, d)):
        if p is None:
            raise GeneralPositionError("collinear overlapping segments")
        out.append(Crossing(edges[i], edges[j], p))
    return out


@dataclass(frozen=True)
class PositionViolation:
    kind: str  # "node-on-edge" | "collinear-overlap" | "concurrent-edges"
    detail: tuple


def validate_general_position(instance: EnergyInstance, d: Drawing) -> list[PositionViolation]:
    """Empty list iff the drawing is in general position.

    Checks: no node interior to a non-incident edge, no collinear edge
    overlaps, no three edges through a common interior point.
    """
    return _position_and_crossings(instance, d)[0]


def _position_and_crossings(instance: EnergyInstance,
                            d: Drawing) -> tuple[list[PositionViolation], list[Crossing]]:
    """validate_general_position's violations and the proper crossings, from one pair scan.

    When there are no violations the crossings are list_crossings(instance, d).
    """
    pts, den = _integer_coords(instance, d)
    by_x = sorted((pts[w][0], k) for k, w in enumerate(instance.nodes))
    xs = [x for x, _ in by_x]
    violations = []
    for (u, v) in instance.edges:
        a, b = pts[u], pts[v]
        lo, hi = min(a, b), max(a, b)
        on_edge = []
        for _, k in by_x[bisect_left(xs, lo[0]):bisect_right(xs, hi[0])]:
            w = instance.nodes[k]
            q = pts[w]
            if (w != u and w != v and lo < q < hi
                    and (b[0] - a[0]) * (q[1] - a[1]) == (b[1] - a[1]) * (q[0] - a[0])):
                on_edge.append(k)
        violations.extend(PositionViolation("node-on-edge", (instance.nodes[k], (u, v)))
                          for k in sorted(on_edge))
    edges = instance.edges
    crossings = []
    point_to_edges: dict[Point, set] = {}
    for i, j, p in _pair_scan(instance, pts, den):
        if p is None:
            violations.append(PositionViolation("collinear-overlap", (edges[i], edges[j])))
        else:
            crossings.append(Crossing(edges[i], edges[j], p))
            point_to_edges.setdefault(p, set()).update((edges[i], edges[j]))
    for p, es in point_to_edges.items():
        if len(es) > 2:
            violations.append(PositionViolation("concurrent-edges", (p, tuple(sorted(es)))))
    return violations, crossings


def rational_sqrt_lower(value: Fraction) -> Fraction:
    """Rational lower bound on sqrt(value) to 32 fractional bits, positive for value > 0."""
    if value < 0:
        raise GeometryError("negative radicand")
    if value == 0:
        return Fraction(0)
    a, b = value.numerator, value.denominator
    shift = 1 << 32
    # sqrt(a/b) = sqrt(a*b)/b >= isqrt(a*b*shift^2) / (b*shift)
    return Fraction(isqrt(a * b * shift * shift), b * shift)


def free_radius(instance: EnergyInstance, d: Drawing, crossing: Crossing) -> Fraction:
    """A positive radius around a crossing's point, clear of every node, of
    every edge but the crossing's two, and of every other crossing.

    Returns a deterministic rational lower bound on half the exact minimum
    distance (the exact value is generally irrational).  Only nodes and
    edges are measured: two segments properly cross at most once, so every
    other crossing lies on a third edge, which is no farther from the point.

    The point and the nodes are scaled by one common denominator, and every
    squared distance is an integer ratio: |p - q|^2 to a node; to a segment
    ab, |p - a|^2 or |p - b|^2 past either end and cross^2 / |ab|^2 between
    them.  Candidates are compared by cross-multiplication, so only the
    minimum becomes a Fraction.  Raises GeometryError if the point lies on
    another edge (the first in edge order) or is a node.
    """
    p, own = crossing.point, (crossing.edge_a, crossing.edge_b)
    coords = d.coords
    den = lcm(p[0].denominator, p[1].denominator,
              *(c.denominator for u in instance.nodes for c in coords[u]))
    px, py = _scaled(p, den)
    pts = {u: _scaled(coords[u], den) for u in instance.nodes}
    # The minimum squared distance so far, best_num / best_den.
    best_num, best_den = min((px - qx) ** 2 + (py - qy) ** 2 for qx, qy in pts.values()), 1
    for e in instance.edges:
        if e in own:
            continue
        (ax, ay), (bx, by) = pts[e[0]], pts[e[1]]
        abx, aby, apx, apy = bx - ax, by - ay, px - ax, py - ay
        dot = apx * abx + apy * aby
        ab2 = abx * abx + aby * aby
        if dot <= 0:
            num, div = apx * apx + apy * apy, 1
        elif dot >= ab2:
            num, div = (px - bx) ** 2 + (py - by) ** 2, 1
        else:
            num, div = (apx * aby - apy * abx) ** 2, ab2
        if num == 0:
            raise GeometryError(f"point lies on non-excluded edge {e}")
        if num * best_den < best_num * div:
            best_num, best_den = num, div
    if best_num == 0:
        raise GeometryError("point coincides with a node or crossing")
    return rational_sqrt_lower(Fraction(best_num, best_den * den * den)) / 2
