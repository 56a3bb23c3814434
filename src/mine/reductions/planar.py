"""Crossing removal for 3-label instances drawn in the plane.

Each proper crossing of edges (u, v) and (s, t) is replaced by a planar
assembly: copy nodes v', v'' on the (u, v) line and t', t'' on the (s, t)
line, a SPLIT on each copy breaking its 3-label value into two Boolean
channels, and four UNCROSSCOPY crossovers letting the two horizontal
channel wires pass the two vertical ones.  The channel wires force
v' = v'' (likewise for t).

planarize works in one pass.  It lists the source drawing's crossings
once and takes each crossing's free radius against the nodes and the
other edges; that also clears every other crossing, so the disks the
templates live in are pairwise disjoint and clear of every other node and
edge.  Then it places all templates at once, each as the one template's
tables, built once per process, at an offset of ids.  An edge crossed k
times becomes a chain of k + 1 stubs through its copy nodes,
ordered by the exact parameter of each crossing along the edge: the
original interaction f_uv goes on the stub at u, and equality ties each
copy to the next one and the last copy to v.  Each template's scale is
rounded down to a power of two, so the gadget offsets are dyadic and the
output's coordinate denominators stay small.  The template's offsets are
integers, in 32nds of the crossing's (dA, dB) basis.  Per crossing, the
crossing point and the two edges' ends are brought over one common
denominator, so the edge parameters, the scale and each auxiliary
coordinate come from integer arithmetic, and each coordinate is one
Fraction.  "No crossings left" is checked once at the end and raises
PlanarizeError if it fails.

The trace holds one CrossingRecord per replaced crossing, in the order of
list_crossings on the source, and its edges are always source edges.

The assembly adds 24 auxiliary nodes per crossing: 4 copies, 8 channel
halves, 4 wire junctions, and 8 crossover internals.  (A tighter wiring
with two fewer nodes exists but shares channel nodes between gadgets in a
way the fixed template cannot draw without new crossings; the per-crossing
constant is exposed as AUX_PER_CROSSING and checked in tests.)
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ..geometry import (Crossing, Drawing, GeometryError, Point,
                        _position_and_crossings, _scaled, frac_str, free_radius,
                        list_crossings)
from ..instance import (LABEL_TYPES, EnergyInstance, InstanceError, Labeling, check_labeling,
                        evaluate, is_finite, make_instance, normalize_edge)
from .gadgets import EQUALITY3, merge_fragments, split_gadget, uncross_copy_gadget
from .trace import CrossingRecord, ReductionTrace


class PlanarizeError(ValueError):
    pass


# Local template, coordinates in 32nds of the (dA, dB) basis centered on the
# crossing: dA points along u -> v, dB along s -> t.  Channel wires for v run
# horizontally (D on top, F below), channel wires for t vertically (D left,
# F right); the four crossovers sit where they meet.  The insertion order is
# the id-allocation order: the trace records each crossing's auxiliaries in it.
_TEMPLATE = {
    "vp": (-32, 0), "vpp": (32, 0),
    "tp": (0, -32), "tpp": (0, 32),
    "D1": (-20, 8), "F1": (-20, -8),
    "D2": (20, 8), "F2": (20, -8),
    "D3": (-8, -20), "F3": (8, -20),
    "D4": (-8, 20), "F4": (8, 20),
    "Ja1": (0, 8), "Ja2": (0, -8),
    "Jb1": (-8, 0), "Jb2": (8, 0),
    # Crossover internals: x1 on the west side of each center, x2 east,
    # nudged off both axes so nothing is collinear.
    "G11x1": (-10, 9), "G11x2": (-6, 7),
    "G12x1": (6, 9), "G12x2": (10, 7),
    "G21x1": (-10, -7), "G21x2": (-6, -9),
    "G22x1": (6, -7), "G22x2": (10, -9),
}

AUX_PER_CROSSING = len(_TEMPLATE)


def _segment_param(offset: tuple[int, int], direction: tuple[int, int]) -> Fraction:
    """t with offset = t * direction, for offset on the line of a nonzero
    integer direction."""
    i = 0 if direction[0] else 1
    return Fraction(offset[i], direction[i])


def _dyadic_floor(num: int, den: int) -> int:
    """The k with 2^k <= num / den < 2^(k + 1), for num, den > 0."""
    k = num.bit_length() - den.bit_length()
    return k if num << max(-k, 0) >= den << max(k, 0) else k - 1


def _placement(p: Point, ends: tuple[Point, ...], r: Fraction
               ) -> tuple[Fraction, Fraction, list[Point]]:
    """A crossing's parameters t_p, t_q along its edges (u, v) and (s, t), and
    its template's points in _TEMPLATE order.

    ends is (u, v, s, t)'s points, and r the free radius at p.  The points are
    p + scale * (ga * dA + gb * dB) / 32, where scale is half the least of
    t_p, 1 - t_p, t_q, 1 - t_q and r / (2 * |dA, dB|_1), rounded down to a
    power of two.  That least is always the last: r is at most half of p's
    distance to u, v, s and t, e.g. t_p * |dA| / 2, and |dA, dB|_1 is at
    least |dA| and |dB|.  It all runs on integers, with p and the ends over
    one common denominator, and each coordinate is one Fraction.
    """
    den = lcm(*(c.denominator for q in (p, *ends) for c in q))
    (px, py), (ux, uy), (vx, vy), (sx, sy), (tx, ty) = (_scaled(q, den) for q in (p, *ends))
    d_a, d_b = (vx - ux, vy - uy), (tx - sx, ty - sy)
    t_p = _segment_param((px - ux, py - uy), d_a)
    t_q = _segment_param((px - sx, py - sy), d_b)
    # scale = r / (4 * |dA, dB|_1), whose L1 norm is l1 / den.  It is below
    # t_p / 8 < 1 / 8, so 2^k <= scale has k <= -4, and 2^k / 32 = 1 / 2^shift.
    l1 = abs(d_a[0]) + abs(d_a[1]) + abs(d_b[0]) + abs(d_b[1])
    shift = 5 - _dyadic_floor(r.numerator * den, 4 * l1 * r.denominator)
    px, py, den = px << shift, py << shift, den << shift
    return (t_p, t_q,
            [(Fraction(px + ga * d_a[0] + gb * d_b[0], den),
              Fraction(py + ga * d_a[1] + gb * d_b[1], den)) for ga, gb in _TEMPLATE.values()])


# Name -> position.  The template's tables are built once, over the
# positions 0..23; each crossing takes them with its first fresh id added to
# every position, so its ids ascend in _TEMPLATE order and every key stays
# normalized.
_AT = {name: i for i, name in enumerate(_TEMPLATE)}
_GADGET = merge_fragments(
    split_gadget(_AT["vp"], _AT["D1"], _AT["F1"]),
    split_gadget(_AT["vpp"], _AT["D2"], _AT["F2"]),
    split_gadget(_AT["tp"], _AT["D3"], _AT["F3"]),
    split_gadget(_AT["tpp"], _AT["D4"], _AT["F4"]),
    # Vertical wires are the "heavy" (tl/br) ports, horizontal the light
    # ones, so each crossover passes one v-channel over one t-channel.
    uncross_copy_gadget(tl=_AT["Jb1"], tr=_AT["D1"], bl=_AT["Ja1"],
                        br=_AT["D4"], x1=_AT["G11x1"], x2=_AT["G11x2"]),
    uncross_copy_gadget(tl=_AT["Jb2"], tr=_AT["Ja1"], bl=_AT["D2"],
                        br=_AT["F4"], x1=_AT["G12x1"], x2=_AT["G12x2"]),
    uncross_copy_gadget(tl=_AT["D3"], tr=_AT["F1"], bl=_AT["Ja2"],
                        br=_AT["Jb1"], x1=_AT["G21x1"], x2=_AT["G21x2"]),
    uncross_copy_gadget(tl=_AT["F3"], tr=_AT["Ja2"], bl=_AT["F2"],
                        br=_AT["Jb2"], x1=_AT["G22x1"], x2=_AT["G22x2"]),
)


def _replace_crossings(instance: EnergyInstance, d: Drawing, crossings: list[Crossing]
                       ) -> tuple[EnergyInstance, Drawing, ReductionTrace]:
    """Replace every crossing at once; returns the instance, drawing and trace.

    crossings is list_crossings(instance, d).  Each free radius is at most
    half the distance to every other crossing, so the templates' disks are
    pairwise disjoint.  Each crossed edge becomes a chain of stubs through
    its copy nodes, in the order of the crossings' parameters along it.
    Auxiliary ids start after the largest source id.
    """
    fresh = max(instance.nodes) + 1
    unary = dict(instance.unary)
    gadget_pairwise = {}
    coords = dict(d.coords)
    # crossed edge -> [(parameter along the edge, copy toward its first
    # node, copy toward its second node)]
    chains: dict[tuple[int, int], list[tuple[Fraction, int, int]]] = {}
    records = []
    for c in crossings:
        e1, e2, p = c.edge_a, c.edge_b, c.point
        t_p, t_q, points = _placement(p, tuple(d.coords[n] for n in e1 + e2),
                                      free_radius(instance, d, c))
        aux = tuple(range(fresh, fresh + AUX_PER_CROSSING))
        unary.update([(fresh + a, row) for a, row in _GADGET.unary.items()])
        gadget_pairwise.update([((fresh + a, fresh + b), table)
                                for (a, b), table in _GADGET.pairwise.items()])
        coords.update(zip(aux, points))
        chains.setdefault(e1, []).append((t_p, fresh + _AT["vp"], fresh + _AT["vpp"]))
        chains.setdefault(e2, []).append((t_q, fresh + _AT["tp"], fresh + _AT["tpp"]))
        fresh += AUX_PER_CROSSING
        records.append(CrossingRecord(edge_a=e1, edge_b=e2,
                                      point=(frac_str(p[0]), frac_str(p[1])),
                                      aux_nodes=aux))

    pairwise = {e: tbl for e, tbl in instance.pairwise.items() if e not in chains}
    pairwise.update(gadget_pairwise)
    # The original interaction moves to the first stub; equality ties the
    # copies along the chain and back to the far endpoint.
    for (u, v), chain in chains.items():
        chain.sort()
        pairwise[(u, chain[0][1])] = instance.pairwise[(u, v)]
        for (_, _, far), (_, near, _) in zip(chain, chain[1:]):
            pairwise[normalize_edge(far, near)] = EQUALITY3
        pairwise[(v, chain[-1][2])] = EQUALITY3

    aux_nodes = tuple(n for rec in records for n in rec.aux_nodes)
    out = EnergyInstance(nodes=instance.nodes + aux_nodes, unary=unary,
                         pairwise=pairwise, constant=instance.constant)
    out_trace = ReductionTrace(kind="planarize", original_nodes=instance.nodes,
                               aux_nodes=aux_nodes, next_fresh_id=fresh,
                               crossings=tuple(records))
    return out, Drawing(coords), out_trace


def planarize(instance: EnergyInstance, d: Drawing) -> tuple[EnergyInstance, Drawing, ReductionTrace]:
    """Replace every crossing in one pass; raises PlanarizeError if any remains."""
    if any(instance.labels[n] != 3 for n in instance.nodes):
        raise InstanceError("planarize requires every node to have 3 labels")
    violations, crossings = _position_and_crossings(instance, d)
    if violations:
        raise GeometryError(f"drawing not in general position: {violations}")
    if not crossings:
        return instance, d, ReductionTrace(
            kind="planarize", original_nodes=instance.nodes, aux_nodes=(),
            next_fresh_id=(max(instance.nodes) + 1 if instance.nodes else 0))
    out, out_d, out_trace = _replace_crossings(instance, d, crossings)
    left = list_crossings(out, out_d)
    if left:
        raise PlanarizeError(f"{len(left)} crossings left after planarization, "
                             f"first {left[0]}")
    return out, out_d, out_trace


def planar_sigma(original: EnergyInstance, trace: ReductionTrace, y: Labeling) -> Labeling:
    """Restriction of y to the original nodes when that is finite, else all-zeros.

    original must have exactly the trace's original nodes, and y must label
    exactly the planarized instance's nodes, each with an int in 0..2 (every
    planarized node has 3 labels).  The gadgets carry only 0/+INF
    costs, so any y whose restriction has finite original energy costs at
    least as much in the planarized instance (equal when the gadget
    relations hold, +INF otherwise).
    """
    if trace.kind != "planarize":
        raise InstanceError("trace kind mismatch")
    if original.nodes != trace.original_nodes:
        raise InstanceError("source instance's nodes are not the trace's original nodes")
    if set(y) != trace.target_nodes():
        raise InstanceError("solution does not label exactly the planarized instance's nodes")
    values = y.values()
    # check_labeling's conditions, each one C-level pass; on a bad label it
    # names the first bad node, over 3 labels per node.
    if not (LABEL_TYPES.issuperset(map(type, values)) and {0, 1, 2}.issuperset(values)):
        check_labeling(make_instance(dict.fromkeys(y, 3)), y)
    restriction = {n: y[n] for n in original.nodes}
    if is_finite(evaluate(original, restriction)):
        return restriction
    return {n: 0 for n in original.nodes}
