"""Pairwise energy minimization instances over extended-integer costs.

An instance is a labeled graph: each node u carries a unary cost table of
length k_u, each undirected edge (u, v) a k_u x k_v pairwise table, plus a
finite constant offset.  Every table entry is INF or an int (never a bool)
in the signed 64-bit range; construction checks it.  Instances are
immutable after construction; every operation here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product

from .costs import I64_MAX, I64_MIN, INF, Cost, check_range, ext_add, is_finite

Labeling = dict[int, int]


class InstanceError(ValueError):
    """Malformed instance or labeling/instance mismatch."""


def normalize_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise InstanceError(f"self-loop on node {u}")
    return (u, v) if u < v else (v, u)


def _check_costs(entries: list) -> None:
    """Every entry is INF or an int (not a bool) in the signed 64-bit range."""
    kinds = set(map(type, entries))
    if not kinds <= {int, type(INF)}:
        raise InstanceError(f"cost entries must be ints or INF, got "
                            f"{sorted(k.__name__ for k in kinds - {int, type(INF)})}")
    if type(INF) in kinds:
        entries = [c for c in entries if c is not INF]
    if entries and not (I64_MIN <= min(entries) and max(entries) <= I64_MAX):
        raise InstanceError("cost entry outside signed 64-bit range")


@dataclass(frozen=True)
class EnergyInstance:
    nodes: tuple[int, ...]
    labels: dict[int, int]
    unary: dict[int, tuple[Cost, ...]]
    edges: tuple[tuple[int, int], ...]
    pairwise: dict[tuple[int, int], tuple[tuple[Cost, ...], ...]]
    constant: int = 0

    def __post_init__(self):
        seen = set(self.nodes)
        if len(seen) != len(self.nodes):
            raise InstanceError("duplicate node ids")
        if set(self.labels) != seen or set(self.unary) != seen:
            raise InstanceError("labels/unary tables must cover exactly the node set")
        for u in self.nodes:
            k = self.labels[u]
            if k < 1:
                raise InstanceError(f"node {u}: label count must be positive")
            if len(self.unary[u]) != k:
                raise InstanceError(f"node {u}: unary table has wrong length")
            if not any(is_finite(c) for c in self.unary[u]):
                raise InstanceError(f"node {u}: no label with finite unary cost")
        if len(set(self.edges)) != len(self.edges):
            raise InstanceError("duplicate edges")
        if set(self.pairwise) != set(self.edges):
            raise InstanceError("pairwise tables must cover exactly the edge set")
        for (u, v) in self.edges:
            if (u, v) != normalize_edge(u, v):
                raise InstanceError(f"edge {(u, v)} not normalized (u < v required)")
            if u not in seen or v not in seen:
                raise InstanceError(f"edge {(u, v)} references unknown node")
            table = self.pairwise[(u, v)]
            if len(table) != self.labels[u] or any(len(row) != self.labels[v] for row in table):
                raise InstanceError(f"edge {(u, v)}: pairwise table has wrong dimensions")
        _check_costs([*chain.from_iterable(self.unary.values()),
                      *chain.from_iterable(chain.from_iterable(self.pairwise.values()))])
        if type(self.constant) is not int:
            raise InstanceError("constant offset must be a finite integer")
        check_range(self.constant)


def make_instance(labels: dict[int, int],
                  unary: dict[int, tuple[Cost, ...]] | None = None,
                  pairwise: dict[tuple[int, int], tuple[tuple[Cost, ...], ...]] | None = None,
                  constant: int = 0) -> EnergyInstance:
    """Convenience constructor: nodes sorted, edges normalized and sorted."""
    nodes = tuple(sorted(labels))
    unary = dict(unary or {})
    for u in nodes:
        unary.setdefault(u, tuple([0] * labels[u]))
    pw = {}
    for (u, v), table in (pairwise or {}).items():
        key = normalize_edge(u, v)
        if key != (u, v):
            table = tuple(zip(*table))
        if key in pw:
            raise InstanceError(f"edge {key} given twice")
        pw[key] = tuple(tuple(row) for row in table)
    edges = tuple(sorted(pw))
    return EnergyInstance(nodes=nodes, labels=dict(labels), unary=unary,
                          edges=edges, pairwise=pw, constant=constant)


def check_labeling(instance: EnergyInstance, x: Labeling) -> None:
    if set(x) != set(instance.nodes):
        raise InstanceError("labeling does not cover exactly the instance's node set")
    for u, a in x.items():
        if not (0 <= a < instance.labels[u]):
            raise InstanceError(f"node {u}: label {a} out of range")


def all_labelings(instance: EnergyInstance):
    """Every labeling of the instance, lexicographically in instance node order."""
    nodes = instance.nodes
    for combo in product(*(range(instance.labels[u]) for u in nodes)):
        yield dict(zip(nodes, combo))


def evaluate(instance: EnergyInstance, x: Labeling) -> Cost:
    """Energy of labeling x: constant + sum of unary + sum of pairwise costs."""
    check_labeling(instance, x)
    total: Cost = instance.constant
    for u in instance.nodes:
        total = ext_add(total, instance.unary[u][x[u]])
    for (u, v) in instance.edges:
        total = ext_add(total, instance.pairwise[(u, v)][x[u]][x[v]])
    return total


def big_m(instance: EnergyInstance) -> int:
    """Bound strictly exceeding |energy| of every labeling of an all-finite instance."""
    total = 1 + abs(instance.constant)
    for u in instance.nodes:
        for c in instance.unary[u]:
            if not is_finite(c):
                raise InstanceError("big_m requires an all-finite instance")
            total = check_range(total + abs(c))
    for e in instance.edges:
        for row in instance.pairwise[e]:
            for c in row:
                if not is_finite(c):
                    raise InstanceError("big_m requires an all-finite instance")
                total = check_range(total + abs(c))
    return total

