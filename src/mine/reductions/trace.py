"""Reduction traces: the bookkeeping that makes every forward map reversible.

A trace partitions the target instance's nodes into originals and
auxiliaries, carries the big-M threshold used, and (for planarization)
records one entry per replaced crossing.  Traces serialize to JSON so the
reverse map can run in a separate process.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CrossingRecord:
    edge_a: tuple[int, int]
    edge_b: tuple[int, int]
    point: tuple[str, str]  # exact rationals, "num/den"
    aux_nodes: tuple[int, ...]


@dataclass(frozen=True)
class ReductionTrace:
    kind: str  # "w3sat-to-qpbo" | "qpbo-to-klabel" | "planarize"
    original_nodes: tuple[int, ...]
    aux_nodes: tuple[int, ...]
    big_m: int | None = None
    next_fresh_id: int | None = None
    crossings: tuple[CrossingRecord, ...] = ()

    def __post_init__(self):
        if set(self.original_nodes) & set(self.aux_nodes):
            raise ValueError("original and auxiliary node sets overlap")

    def target_nodes(self) -> set[int]:
        return set(self.original_nodes) | set(self.aux_nodes)

    def to_json(self) -> dict:
        """The fields as JSON-ready lists and dicts, in declaration order."""
        return {"kind": self.kind,
                "original_nodes": list(self.original_nodes),
                "aux_nodes": list(self.aux_nodes),
                "big_m": self.big_m,
                "next_fresh_id": self.next_fresh_id,
                "crossings": [{"edge_a": list(c.edge_a), "edge_b": list(c.edge_b),
                               "point": list(c.point), "aux_nodes": list(c.aux_nodes)}
                              for c in self.crossings]}


def trace_from_json(data: dict) -> ReductionTrace:
    crossings = tuple(
        CrossingRecord(edge_a=tuple(c["edge_a"]), edge_b=tuple(c["edge_b"]),
                       point=tuple(c["point"]), aux_nodes=tuple(c["aux_nodes"]))
        for c in data.get("crossings", ()))
    return ReductionTrace(kind=data["kind"],
                          original_nodes=tuple(data["original_nodes"]),
                          aux_nodes=tuple(data["aux_nodes"]),
                          big_m=data.get("big_m"),
                          next_fresh_id=data.get("next_fresh_id"),
                          crossings=crossings)
