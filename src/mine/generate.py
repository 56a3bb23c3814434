"""Seeded random corpora for tests and the CLI `gen` command.

Every generator is a pure function of its seed (random.Random with a
derived seed per attempt), so corpora are reproducible across runs and
platforms.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from .costs import INF
from .geometry import Drawing, _position_and_crossings
from .instance import EnergyInstance, make_instance
from .reductions.wsat import W3SatTriv


class GenerationError(RuntimeError):
    pass


def _rng(seed, attempt: int = 0) -> random.Random:
    return random.Random(f"{seed}:{attempt}")


def _random_edges(rng: random.Random, nodes, prob: float):
    return [e for e in combinations(sorted(nodes), 2) if rng.random() < prob]


def random_w3sat(seed, max_vars: int = 6, max_clauses: int = 4) -> W3SatTriv:
    rng = _rng(seed)
    n = rng.randint(3, max_vars)
    m = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    weights = tuple(rng.randint(0, 3) for _ in range(n))
    return W3SatTriv(num_vars=n, clauses=tuple(clauses), weights=weights)


def random_qpbo(seed, max_nodes: int = 8) -> EnergyInstance:
    """General binary instance with finite, possibly negative costs."""
    rng = _rng(seed)
    n = rng.randint(1, max_nodes)
    labels = {u: 2 for u in range(n)}
    unary = {u: (rng.randint(-9, 9), rng.randint(-9, 9)) for u in range(n)}
    pairwise = {e: tuple(tuple(rng.randint(-9, 9) for _ in range(2)) for _ in range(2))
                for e in _random_edges(rng, range(n), 0.5)}
    return make_instance(labels, unary, pairwise, constant=rng.randint(-5, 5))


def random_forest(seed, max_nodes: int = 10, k: int = 3) -> EnergyInstance:
    rng = _rng(seed)
    n = rng.randint(1, max_nodes)
    labels = {u: k for u in range(n)}
    unary = {u: tuple(rng.randint(0, 9) for _ in range(k)) for u in range(n)}
    pairwise = {}
    for v in range(1, n):
        if rng.random() < 0.8:  # else v starts a new tree in the forest
            u = rng.randrange(v)
            pairwise[(u, v)] = tuple(tuple(rng.randint(0, 9) for _ in range(k))
                                     for _ in range(k))
    return make_instance(labels, unary, pairwise)


def random_submodular(seed, max_nodes: int = 12) -> EnergyInstance:
    """Binary instance satisfying f(0,1) + f(1,0) >= f(0,0) + f(1,1) per edge."""
    rng = _rng(seed)
    n = rng.randint(2, max_nodes)
    labels = {u: 2 for u in range(n)}
    unary = {u: (rng.randint(-6, 6), rng.randint(-6, 6)) for u in range(n)}
    pairwise = {}
    for e in _random_edges(rng, range(n), 0.4):
        f00, f11 = rng.randint(-5, 5), rng.randint(-5, 5)
        f01, f10 = rng.randint(-5, 5), rng.randint(-5, 5)
        deficit = (f00 + f11) - (f01 + f10)
        if deficit > 0:
            f01 += deficit
        pairwise[e] = ((f00, f01), (f10, f11))
    return make_instance(labels, unary, pairwise)


def random_potts(seed, max_nodes: int = 10, k: int = 3) -> EnergyInstance:
    rng = _rng(seed)
    n = rng.randint(2, max_nodes)
    labels = {u: k for u in range(n)}
    unary = {u: tuple(rng.randint(0, 8) for _ in range(k)) for u in range(n)}
    pairwise = {}
    for e in _random_edges(rng, range(n), 0.5):
        c = rng.randint(1, 5)
        pairwise[e] = tuple(tuple(0 if a == b else c for b in range(k))
                            for a in range(k))
    return make_instance(labels, unary, pairwise)


def random_general(seed, max_nodes: int = 5, max_labels: int = 3,
                   inf_prob: float = 0.0) -> EnergyInstance:
    """Instance for I/O round trips; may contain +INF pairwise/unary entries."""
    rng = _rng(seed)
    n = rng.randint(1, max_nodes)
    labels = {u: rng.randint(1, max_labels) for u in range(n)}

    def cost():
        return INF if rng.random() < inf_prob else rng.randint(-9, 9)

    unary = {}
    for u in range(n):
        row = [cost() for _ in range(labels[u])]
        row[rng.randrange(labels[u])] = rng.randint(-9, 9)  # keep one finite label
        unary[u] = tuple(row)
    pairwise = {(u, v): tuple(tuple(cost() for _ in range(labels[v]))
                              for _ in range(labels[u]))
                for (u, v) in _random_edges(rng, range(n), 0.5)}
    return make_instance(labels, unary, pairwise, constant=rng.randint(-9, 9))


def random_drawing(seed, instance: EnergyInstance) -> Drawing:
    """Distinct rational coordinates for every node (no position guarantees)."""
    rng = _rng(seed)
    coords = {}
    used = set()
    for u in instance.nodes:
        while True:
            p = (Fraction(rng.randint(-99, 99), rng.randint(1, 9)),
                 Fraction(rng.randint(-99, 99), rng.randint(1, 9)))
            if p not in used:
                used.add(p)
                coords[u] = p
                break
    return Drawing(coords)


def random_crossed_3label(seed) -> tuple[EnergyInstance, Drawing]:
    """3-label instance of 4-6 nodes plus a general-position drawing with 1-3
    crossings (2000 tries)."""
    for attempt in range(2000):
        rng = _rng(seed, attempt)
        n = rng.randint(4, 6)
        labels = {u: 3 for u in range(n)}
        unary = {u: tuple(rng.randint(0, 6) for _ in range(3)) for u in range(n)}
        edges = _random_edges(rng, range(n), 0.6)
        if len(edges) < 2:
            continue
        pairwise = {e: tuple(tuple(rng.randint(0, 6) for _ in range(3))
                             for _ in range(3)) for e in edges}
        instance = make_instance(labels, unary, pairwise)
        points = rng.sample([(x, y) for x in range(-8, 9) for y in range(-8, 9)], n)
        d = Drawing({u: (Fraction(x), Fraction(y))
                     for u, (x, y) in zip(instance.nodes, points)})
        violations, crossings = _position_and_crossings(instance, d)
        if not violations and 1 <= len(crossings) <= 3:
            return instance, d
    raise GenerationError(f"no drawable instance found for seed {seed!r}")
