"""Zero-or-infinity gadgets used by the planarization reduction.

All gadget entries are 0 or +INF: drawn relations cost nothing, omitted
combinations are forbidden.  Simulated 2-label nodes are 3-label nodes
whose third unary entry is +INF, so the planarization pipeline only ever
handles one node arity.  Each gadget table is written from its first
named node to its second, and mine.instance.orient_edge keys it by the
sorted pair, transposing it when the first id is the larger.

SPLIT fans a 3-label value out into two Boolean channels:
    label 0 <-> (d, f),  label 1 <-> (d, g) or (e, g),  label 2 <-> (e, f)
where the first channel reads d=0/e=1 and the second f=0/g=1.

UNCROSSCOPY is a planar crossover for two Boolean channels: the value
entering at the top-left exits at the bottom-right and the one entering at
the top-right exits at the bottom-left.  Internally two 3-label nodes
jointly encode the channel pair: with channel values (a, b),
    x1 = a if b = 0 else 2,      x2 = a if b = 1 else 2,
so each internal alone reveals b, while a is readable from whichever
internal is not parked at 2.  The wiring is planar with the four boundary
nodes on the outer face, which is what lets two crossing channels trade
places.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..costs import INF, Cost
from ..instance import orient_edge

ZERO = 0

# Channel label conventions (simulated 2-label nodes).
SIM2_UNARY = (0, 0, INF)
TRI_UNARY = (0, 0, 0)


def relation_table(shape: tuple[int, int], allowed) -> tuple[tuple[Cost, ...], ...]:
    """k_u x k_v table: 0 on allowed pairs, +INF elsewhere."""
    allowed = set(allowed)
    return tuple(tuple(ZERO if (a, b) in allowed else INF for b in range(shape[1]))
                 for a in range(shape[0]))


# SPLIT relations: boundary B in {0,1,2}; channel D reads 0 for labels {0,1}
# side, channel F distinguishes label 1 from {0,2}.
SPLIT_B_D = relation_table((3, 3), [(0, 0), (1, 0), (1, 1), (2, 1)])
SPLIT_B_F = relation_table((3, 3), [(0, 0), (1, 1), (2, 0)])

# Ties each copy node along a crossed edge's stub chain to the next.
EQUALITY3 = relation_table((3, 3), [(a, a) for a in range(3)])

# Crossover relations (see module docstring for the internal encoding).
HEAVY_PORT = relation_table((3, 3), [(0, 0), (1, 1), (0, 2), (1, 2)])
LIGHT_PORT_X1 = relation_table((3, 3), [(0, 0), (0, 1), (1, 2)])
LIGHT_PORT_X2 = relation_table((3, 3), [(0, 2), (1, 0), (1, 1)])
CROSS_INTERNAL = relation_table((3, 3), [(0, 2), (1, 2), (2, 0), (2, 1)])


@dataclass
class GadgetFragment:
    """Instance fragment: its {0, INF} tables; a node's label count is its unary's length."""

    unary: dict[int, tuple[Cost, ...]] = field(default_factory=dict)
    pairwise: dict[tuple[int, int], tuple[tuple[Cost, ...], ...]] = field(default_factory=dict)


def split_gadget(boundary_id: int, d_id: int, f_id: int) -> GadgetFragment:
    """SPLIT: 3-label boundary node plus its two Boolean channel halves."""
    return GadgetFragment(
        unary={boundary_id: TRI_UNARY, d_id: SIM2_UNARY, f_id: SIM2_UNARY},
        pairwise=dict([
            orient_edge(boundary_id, d_id, SPLIT_B_D),
            orient_edge(boundary_id, f_id, SPLIT_B_F),
        ]))


def uncross_copy_gadget(tl: int, tr: int, bl: int, br: int,
                        x1: int, x2: int) -> GadgetFragment:
    """UNCROSSCOPY: planar crossover; br copies tl, bl copies tr.

    tl and br are the "heavy" ports (wired to both internals), tr and bl
    the "light" ones (one internal each).
    """
    return GadgetFragment(
        unary={tl: SIM2_UNARY, tr: SIM2_UNARY, bl: SIM2_UNARY, br: SIM2_UNARY,
               x1: TRI_UNARY, x2: TRI_UNARY},
        pairwise=dict([
            orient_edge(tl, x1, HEAVY_PORT),
            orient_edge(tl, x2, HEAVY_PORT),
            orient_edge(br, x1, HEAVY_PORT),
            orient_edge(br, x2, HEAVY_PORT),
            orient_edge(tr, x1, LIGHT_PORT_X1),
            orient_edge(bl, x2, LIGHT_PORT_X2),
            orient_edge(x1, x2, CROSS_INTERNAL),
        ]))


def merge_fragments(*frags: GadgetFragment) -> GadgetFragment:
    """Union of fragments; shared nodes must agree on their unary tables."""
    out = GadgetFragment()
    for f in frags:
        for n, t in f.unary.items():
            if out.unary.setdefault(n, t) != t:
                raise ValueError(f"node {n}: conflicting unary tables")
        for e, t in f.pairwise.items():
            if e in out.pairwise and out.pairwise[e] != t:
                raise ValueError(f"edge {e}: conflicting tables")
            out.pairwise[e] = t
    return out
