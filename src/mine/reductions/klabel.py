"""Embedding a binary instance into a larger label set via big-M padding.

New labels cost M in every unary table, and any pairwise configuration
touching a new label costs M, so optima never use them: the two problems
share their optimal value exactly.
"""

from __future__ import annotations

from ..instance import EnergyInstance, InstanceError, Labeling, big_m, check_labeling
from .trace import ReductionTrace


def qpbo_to_klabel(instance: EnergyInstance, k: int) -> tuple[EnergyInstance, ReductionTrace]:
    """Enlarge a binary, all-finite instance's label set to k >= 2."""
    if any(instance.labels[u] != 2 for u in instance.nodes):
        raise InstanceError("qpbo_to_klabel requires a binary instance")
    if k < 2:
        raise InstanceError("target label count must be at least 2")
    m = big_m(instance)
    pad = k - 2
    unary = {u: instance.unary[u] + (m,) * pad for u in instance.nodes}
    pairwise = {}
    for e in instance.edges:
        t = instance.pairwise[e]
        rows = [tuple(t[a]) + (m,) * pad for a in range(2)]
        rows += [(m,) * k] * pad
        pairwise[e] = tuple(rows)
    target = EnergyInstance(nodes=instance.nodes,
                            labels={u: k for u in instance.nodes},
                            unary=unary, edges=instance.edges, pairwise=pairwise,
                            constant=instance.constant)
    trace = ReductionTrace(kind="qpbo-to-klabel", original_nodes=instance.nodes,
                           aux_nodes=(), big_m=m)
    return target, trace


_last_big_m: tuple = (None, None)  # (instance, big_m(instance)) of the last call


def _big_m_of(original: EnergyInstance) -> int:
    global _last_big_m
    instance, m = _last_big_m
    if instance is not original:
        m = big_m(original)
        _last_big_m = (original, m)
    return m


def klabel_sigma(original: EnergyInstance, trace: ReductionTrace, y: Labeling) -> Labeling:
    """Reverse map: y itself below the M threshold, else the fixed all-zeros labeling.

    On labels 0 and 1 the padded instance costs what original costs, term by
    term, so such a y is always below M; a padding label maps to all zeros.
    big_m(original) is kept for the last instance, matched by identity (the
    memo holds the instance itself): the AP harness maps every labeling of
    one target in a row.  The trace's threshold is checked on every call.
    """
    if trace.kind != "qpbo-to-klabel":
        raise InstanceError("trace kind mismatch")
    if any(original.labels[u] != 2 for u in original.nodes):
        raise InstanceError("qpbo_to_klabel requires a binary instance")
    if trace.big_m != _big_m_of(original):
        raise InstanceError("trace threshold does not match the instance's big-M")
    if any(a >= 2 for a in y.values()):
        # Still reject a y with the wrong node set or a negative label.
        check_labeling(original, {u: min(a, 1) for u, a in y.items()})
        return {u: 0 for u in original.nodes}
    check_labeling(original, y)  # below M: big_m exceeds |energy| of every labeling
    return dict(y)
