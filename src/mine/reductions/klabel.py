"""Embedding a binary instance into a larger label set via big-M padding.

New labels cost M in every unary table, and any pairwise configuration
touching a new label costs M, so optima never use them: the two problems
share their optimal value exactly.
"""

from __future__ import annotations

from ..instance import (LABEL_TYPES, EnergyInstance, InstanceError, Labeling, big_m,
                        check_labeling)
from ..solvers import DEFAULT_BRUTE_LIMIT, is_binary
from .trace import ReductionTrace


def qpbo_to_klabel(instance: EnergyInstance, k: int) -> tuple[EnergyInstance, ReductionTrace]:
    """Enlarge a binary, all-finite instance's label set to k >= 2, within 2^24 entries."""
    if not is_binary(instance):
        raise InstanceError("qpbo_to_klabel requires a binary instance")
    if k < 2:
        raise InstanceError("target label count must be at least 2")
    entries = len(instance.nodes) * k + len(instance.edges) * k * k
    if entries > DEFAULT_BRUTE_LIMIT:
        raise InstanceError(f"target would have {entries} table entries, over {DEFAULT_BRUTE_LIMIT}")
    m = big_m(instance)
    pad = k - 2
    unary = {u: instance.unary[u] + (m,) * pad for u in instance.nodes}
    pairwise = {}
    for e in instance.edges:
        t = instance.pairwise[e]
        rows = [tuple(t[a]) + (m,) * pad for a in range(2)]
        rows += [(m,) * k] * pad
        pairwise[e] = tuple(rows)
    target = EnergyInstance(nodes=instance.nodes, unary=unary, pairwise=pairwise,
                            constant=instance.constant)
    trace = ReductionTrace(kind="qpbo-to-klabel", original_nodes=instance.nodes,
                           aux_nodes=(), big_m=m)
    return target, trace


def klabel_sigma(original: EnergyInstance, trace: ReductionTrace):
    """Reverse map of one padded instance: a copy of y when it uses labels 0
    and 1 only, else a copy of the all-zeros labeling, which binding builds
    once.

    Binding checks, once, the trace kind, that original has exactly the
    trace's original nodes, that original is binary, and that the trace's
    threshold is big_m(original) (read from the bound the instance recorded
    at construction).  The map it returns,
    reverse(y, value=None), checks that y labels exactly original's nodes
    with non-negative ints, each in one C-level pass; check_labeling runs
    only on a y that fails, to raise its error, with padding labels clamped
    to 1 so they are not the error it names.  On labels 0 and 1 the padded
    instance costs what original costs, term by term, so such a y is below
    M.  The labels decide, not the value, which the map ignores: with
    negative costs a padding labeling can cost less than M (unaries (0, 0)
    and (-5, -5) give M = 11, yet {0: 2, 1: 0} costs 6 when k = 3).
    """
    if trace.kind != "qpbo-to-klabel":
        raise InstanceError("trace kind mismatch")
    if trace.original_nodes != original.nodes:
        raise InstanceError("source instance's nodes are not the trace's original nodes")
    if not is_binary(original):
        raise InstanceError("qpbo_to_klabel requires a binary instance")
    if trace.big_m != big_m(original):
        raise InstanceError("trace threshold does not match the instance's big-M")
    keys, all_zeros = original.labels.keys(), dict.fromkeys(original.nodes, 0)

    def reverse(y: Labeling, value=None) -> Labeling:
        values = y.values()
        if not (y.keys() == keys and LABEL_TYPES.issuperset(map(type, values))
                and (not y or min(values) >= 0)):
            # Raises: a node missing or extra, a label not an int, or a negative label.
            check_labeling(original, {u: min(a, 1) if type(a) is int else a
                                      for u, a in y.items()})
        if y and max(values) >= 2:
            return dict(all_zeros)
        return dict(y)  # below M: big_m exceeds |energy| of every labeling

    return reverse
