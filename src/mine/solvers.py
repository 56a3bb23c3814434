"""Exact and approximate solvers for pairwise energy minimization.

Brute force and variable elimination serve as oracles; tree DP, the
submodular min-cut route, and alpha-expansion cover the tractable and
approximable families.  All solvers are deterministic: brute force
returns the lexicographically smallest optimal labeling (in instance node
order); elimination, going back through its order, gives each node the
first label that attains its bucket's minimum under the labels already
chosen (label 0 when every label costs INF); tree DP is elimination
along a leaf-first order, each component rooted at its first node in
instance order, so it breaks ties the same way, and each node's bucket
adds its unary, then the edge to its parent, then its children's
messages in edge order, range-checking every partial sum; the flow-based
solver returns the canonical reachable-set cut.  One max-flow core, Dinic's
algorithm on flat residual arc lists, runs behind both `max_flow` and
the posiform min cut that submodular min-cut and every alpha-expansion
move share; those two solvers report its phase and augmenting-path
counts in ``SolveResult.stats``.

Costs stay exact everywhere, and a partial sum of finite costs that
leaves the signed 64-bit range raises CostOverflowError.  Elimination
keeps every factor as a flat row-major list of ints over its sorted
scope, with INF encoded as an int beyond any finite sum, and sums each
bucket with whole-list passes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from itertools import chain
from operator import add

from .costs import I64_MAX, I64_MIN, INF, Cost, check_range, ext_add, is_finite
from .instance import EnergyInstance, Labeling, evaluate, scored_labelings

DEFAULT_BRUTE_LIMIT = 2**24
DEFAULT_ELIM_LIMIT = 2**24
BRUTE_LIMIT_ENV = "MINE_BRUTE_LIMIT"


class SolverError(ValueError):
    pass


@dataclass(frozen=True)
class SolveResult:
    labeling: Labeling
    value: Cost
    method: str
    exact: bool
    move_values: tuple = ()  # alpha-expansion: energy after each accepted move
    stats: dict = field(default_factory=dict, compare=False)  # solver counters


def brute_force_limit() -> int:
    """The configuration bound from MINE_BRUTE_LIMIT, a positive integer, if set."""
    raw = os.environ.get(BRUTE_LIMIT_ENV)
    if not raw:
        return DEFAULT_BRUTE_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        limit = None
    if limit is None or limit < 1:
        raise SolverError(f"{BRUTE_LIMIT_ENV} must be a positive integer, got {raw!r}")
    return limit


def check_enumerable(instance: EnergyInstance) -> None:
    """SolverError unless the instance has at most brute_force_limit() labelings."""
    limit = brute_force_limit()
    total = 1
    for u in instance.nodes:
        total *= instance.labels[u]
        if total > limit:
            raise SolverError(f"configuration count exceeds brute-force bound {limit}")


def solve_brute_force(instance: EnergyInstance) -> SolveResult:
    """Global minimum by full enumeration, lexicographically smallest argmin."""
    check_enumerable(instance)
    best_x = None
    best: Cost = None
    for x, v in scored_labelings(instance):
        if best is None or v < best:
            best, best_x = v, x
    return SolveResult(best_x, best, "brute", True)


# ---------------------------------------------------------------------------
# Variable elimination


def min_degree_order(instance: EnergyInstance) -> list[int]:
    """Min-degree elimination order over the instance graph (ties: smallest id)."""
    adj = {u: set(nbrs) for u, nbrs in adjacency(instance).items()}
    remaining = set(instance.nodes)
    order = []
    while remaining:
        u = min(remaining, key=lambda w: (len(adj[w] & remaining), w))
        order.append(u)
        nbrs = adj[u] & remaining
        for a in nbrs:
            adj[a] |= nbrs - {a}
        remaining.discard(u)
    return order


def solve_elimination(instance: EnergyInstance, order=None,
                      width_limit: int | None = None) -> SolveResult:
    """Exact minimum via bucket elimination along the given (or min-degree) order.

    Every factor is a flat row-major list over its sorted scope.  The bucket
    of node u is summed over its joint scope (the sorted separator, then u
    last and fastest) one factor at a time, each factor broadcast to the
    joint scope by list repetition; each message entry is the minimum of one
    run of k_u joint entries, and its argmin the first label attaining it
    (label 0 when every label costs INF).  Internally INF is an int larger
    than any sum of finite entries could reach, read back as INF at the end.
    A partial bucket sum of finite entries outside the signed 64-bit range
    raises CostOverflowError, checked in bucket order: buckets whose
    factors' finite ranges cannot add up to such a sum skip the check.
    ``stats`` holds ``max_separator`` (the most nodes in one separator) and
    ``joint_entries`` (the joint entries summed over all buckets).
    """
    if order is None:
        order = min_degree_order(instance)
    if sorted(order) != sorted(instance.nodes):
        raise SolverError("elimination order must be a permutation of the nodes")
    if width_limit is None:
        width_limit = DEFAULT_ELIM_LIMIT
    labels = instance.labels

    scopes = [(u,) for u in instance.nodes] + list(instance.edges)
    tables = ([list(instance.unary[u]) for u in instance.nodes]
              + [[c for row in instance.pairwise[e] for c in row] for e in instance.edges])
    # Every value formed below is a sum of entries of distinct input factors,
    # so finite ones stay within +-finite_cap, and any sum holding an INF
    # (encoded as inf) exceeds finite_cap.
    finites = [[c for c in table if is_finite(c)] for table in tables]
    big = max([-I64_MIN] + [abs(c) for finite in finites for c in finite])
    finite_cap = len(tables) * big
    inf = 2 * finite_cap
    factors = []  # (scope, flat table, min and max finite entry or None)
    for scope, table, finite in zip(scopes, tables, finites):
        if len(finite) < len(table):
            table = [c if is_finite(c) else inf for c in table]
        factors.append((scope, table, min(finite, default=None), max(finite, default=None)))
    # Each node's unconsumed factors as positions in factors, so in creation
    # order; a bucket sets the slots it takes to None.
    pending = {u: [] for u in instance.nodes}
    for i, (scope, _, _, _) in enumerate(factors):
        for w in scope:
            pending[w].append(i)

    eliminated = []  # (node, separator, argmin per separator entry)
    max_separator = joint_entries = 0
    for u in order:
        taken = [i for i in pending.pop(u) if factors[i] is not None]
        bucket = [factors[i] for i in taken]
        for i in taken:
            factors[i] = None
        sep = sorted({w for f in bucket for w in f[0] if w != u})
        size = 1
        for w in sep:
            size *= labels[w]
        if size > width_limit:
            raise SolverError(f"separator size {size} exceeds elimination bound")
        k = labels[u]
        joint = sep + [u]
        max_separator = max(max_separator, len(sep))
        joint_entries += size * k

        # Partial sums need a range check only from the first factor whose
        # prefix of finite minima or maxima leaves int64; a factor with no
        # finite entry makes every later partial sum INF.
        check_from = len(bucket)
        lo = hi = 0
        for i, (_, _, f_lo, f_hi) in enumerate(bucket):
            if f_lo is None:
                break
            lo += f_lo
            hi += f_hi
            if lo < I64_MIN or hi > I64_MAX:
                check_from = i
                break
        acc = None
        for i, (scope, table, _, _) in enumerate(bucket):
            column = _broadcast(table, scope, joint, labels)
            acc = column if acc is None else list(map(add, acc, column))
            if i >= check_from:
                for v in acc:
                    if v < I64_MIN or I64_MAX < v <= finite_cap:
                        check_range(v)

        message = acc if k == 1 else list(map(min, *(acc[a::k] for a in range(k))))
        argmin = [0 if m > I64_MAX else acc.index(m, j, j + k) - j
                  for j, m in zip(range(0, len(acc), k), message)]
        if any(f[2] is None for f in bucket):
            m_lo = m_hi = None
        else:
            m_lo = max(I64_MIN, sum(f[2] for f in bucket))
            m_hi = min(I64_MAX, sum(f[3] for f in bucket))
        for w in sep:
            pending[w].append(len(factors))
        factors.append((tuple(sep), message, m_lo, m_hi))
        eliminated.append((u, sep, argmin))

    # Every node's bucket has run, so what is left is the empty-scope messages.
    value: Cost = instance.constant
    for f in factors:
        if f is not None:
            value = ext_add(value, INF if f[1][0] > I64_MAX else f[1][0])

    x: Labeling = {}
    for u, sep, argmin in reversed(eliminated):
        j = 0
        for w in sep:
            j = j * labels[w] + x[w]
        x[u] = argmin[j]
    return SolveResult(x, value, "elimination", True,
                       stats={"max_separator": max_separator,
                              "joint_entries": joint_entries})


def _broadcast(table: list, scope: tuple, joint: list, labels) -> list:
    """A factor's flat table repeated out to the joint scope's row-major order.

    scope is sorted and a subset of joint, which is sorted except for its
    last node; that node moves to the end of the table first.
    """
    last = joint[-1]
    p = scope.index(last)
    if p < len(scope) - 1:
        k = labels[last]
        inner = math.prod(labels[w] for w in scope[p + 1:])
        block = inner * k
        table = list(chain.from_iterable(chain.from_iterable(
            zip(*(table[b + a * inner:b + (a + 1) * inner] for a in range(k)))
            for b in range(0, len(table), block))))
    present = set(scope)
    out = table
    block = 1
    for w in reversed(joint):
        k = labels[w]
        if w not in present and k > 1:
            if block == 1:
                out = list(chain.from_iterable(zip(*[out] * k)))
            else:
                out = list(chain.from_iterable(out[i:i + block] * k
                                               for i in range(0, len(out), block)))
        block *= k
    return out


# ---------------------------------------------------------------------------
# Tree DP


def solve_tree_dp(instance: EnergyInstance) -> SolveResult:
    """Exact minimum on forests: elimination along a leaf-first order.

    Every separator is at most the one parent node; ``stats`` are elimination's.
    """
    order = _forest_order(instance)
    if order is None:
        raise SolverError("instance graph contains a cycle")
    return replace(solve_elimination(instance, order), method="tree-dp")


# ---------------------------------------------------------------------------
# Max flow / min cut


@dataclass
class FlowNetwork:
    """Directed network with integer capacities and designated source/sink."""

    source: int
    sink: int
    capacity: dict[tuple[int, int], int] = field(default_factory=dict)

    def add_arc(self, u: int, v: int, cap: int) -> None:
        if cap < 0:
            raise SolverError("negative capacity")
        if cap:
            self.capacity[(u, v)] = self.capacity.get((u, v), 0) + cap

    def nodes(self) -> set[int]:
        out = {self.source, self.sink}
        for (u, v) in self.capacity:
            out.update((u, v))
        return out


def max_flow(network: FlowNetwork) -> tuple[int, tuple[frozenset, frozenset]]:
    """Dinic max flow; returns flow value and the (source side, sink side) min cut.

    Neither depends on the order arcs are searched in: the flow value is
    unique, and the source side, the set reachable from the source in the
    final residual graph, is the same for every maximum flow.  Every
    capacity and the running flow are range-checked (CostOverflowError);
    a negative capacity or a sink equal to the source raises SolverError.
    An arc and its antiparallel arc share one residual pair.
    """
    s, t = network.source, network.sink
    if s == t:
        raise SolverError("source and sink must be different nodes")
    index = {s: 0, t: 1}  # internal ids: source 0, sink 1, the rest in arc order
    pairs = {}  # (i, j) with i <= j -> [capacity i->j, capacity j->i]
    for (u, v), c in network.capacity.items():
        i = index.setdefault(u, len(index))
        j = index.setdefault(v, len(index))
        if i <= j:
            pairs.setdefault((i, j), [0, 0])[0] = c
        else:
            pairs.setdefault((j, i), [0, 0])[1] = c
    flow, reachable = _dinic(len(index), 0, 1,
                             [(i, j, c, back) for (i, j), (c, back) in pairs.items()], {})
    source_side = frozenset(u for u, i in index.items() if reachable[i])
    return flow, (source_side, frozenset(index.keys() - source_side))


def _dinic(n: int, s: int, t: int, arcs, counters: dict) -> tuple[int, list[bool]]:
    """Dinic's max flow (1970) from s to t over nodes 0..n-1.

    Each of arcs is (i, j, capacity i->j, capacity j->i): one residual arc
    pair.  Arc a runs to head[a] with residual capacity cap[a], its reverse
    is arc a ^ 1, and adj[u] lists the arcs out of u.  Each phase builds
    the BFS level graph, stopping once the sink is labelled, then saturates
    it by an iterative DFS that keeps a current-arc pointer per node.
    Returns the flow value and, per node, whether the source reaches it in
    the final residual graph.  Adds the phases (level graphs built, the
    last one missing the sink) and augmenting paths to counters.
    """
    head: list[int] = []
    cap: list[int] = []
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j, c, back in arcs:
        if c < 0 or back < 0:
            raise SolverError("negative capacity")
        check_range(c)
        check_range(back)
        if c or back:
            adj[i].append(len(head))
            adj[j].append(len(head) + 1)
            head += (j, i)
            cap += (c, back)
    flow = phases = paths = 0
    while True:
        phases += 1
        level = [-1] * n
        level[s] = 0
        queue = [s]
        for u in queue:  # the queue grows while it is walked
            if level[t] >= 0:
                break
            d = level[u] + 1
            for a in adj[u]:
                v = head[a]
                if cap[a] and level[v] < 0:
                    level[v] = d
                    queue.append(v)
        if level[t] < 0:
            break
        current = [0] * n  # current-arc pointer per node
        path = []  # arcs from the source to u in the level graph
        u = s
        while True:
            if u == t:
                f = min([cap[a] for a in path])
                for a in path:
                    cap[a] -= f
                    cap[a ^ 1] += f
                flow = check_range(flow + f)
                paths += 1
                for i, a in enumerate(path):  # back to the first saturated arc
                    if not cap[a]:
                        break
                del path[i:]
                u = head[path[-1]] if path else s
                continue
            out = adj[u]
            i, m = current[u], len(out)
            d = level[u] + 1
            while i < m:
                a = out[i]
                if cap[a] and level[head[a]] == d:
                    break
                i += 1
            current[u] = i
            if i < m:
                path.append(a)
                u = head[a]
            elif u == s:
                break
            else:  # dead end: drop u from this level graph and step back
                level[u] = -1
                u = head[path.pop() ^ 1]
                current[u] += 1
    counters["phases"] = counters.get("phases", 0) + phases
    counters["augmenting_paths"] = counters.get("augmenting_paths", 0) + paths
    return flow, [d >= 0 for d in level]


# ---------------------------------------------------------------------------
# Graph structure and interaction-type checks (the classifier's too)


def adjacency(instance: EnergyInstance) -> dict[int, list[int]]:
    """Each node's neighbours, in the order of instance.edges."""
    adj = {u: [] for u in instance.nodes}
    for (u, v) in instance.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def is_forest(instance: EnergyInstance) -> bool:
    return _forest_order(instance) is not None


def _forest_order(instance: EnergyInstance) -> list[int] | None:
    """A leaf-first order of a forest's nodes, or None if the graph has a cycle.

    Component by component, each rooted at its first node in instance.nodes:
    the DFS preorder (neighbours pushed in adjacency order), reversed, so
    every node comes after all its descendants.
    """
    nodes = instance.nodes
    if nodes and len(instance.edges) >= len(nodes):  # a forest has E <= V - 1
        return None
    adj = adjacency(instance)
    parent = {}
    order = []
    for root in nodes:
        if root in parent:
            continue
        parent[root] = None
        preorder = []
        stack = [root]
        while stack:
            u = stack.pop()
            preorder.append(u)
            for w in adj[u]:
                if w != parent[u]:
                    if w in parent:
                        return None
                    parent[w] = u
                    stack.append(w)
        order += reversed(preorder)
    return order


def all_finite(instance: EnergyInstance) -> bool:
    return (all(is_finite(c) for u in instance.nodes for c in instance.unary[u])
            and all(is_finite(c) for e in instance.edges
                    for row in instance.pairwise[e] for c in row))


def is_binary(instance: EnergyInstance) -> bool:
    return all(instance.labels[u] == 2 for u in instance.nodes)


def is_submodular_binary(instance: EnergyInstance) -> bool:
    """f(0,1) + f(1,0) >= f(0,0) + f(1,1) on every edge of a binary instance."""
    if not is_binary(instance):
        raise SolverError("submodularity check requires a binary instance")
    return is_submodular_lattice(instance)  # at k = 2 the one lattice inequality


# The interaction-type checks below test each distinct pairwise table once.


def is_submodular_lattice(instance: EnergyInstance) -> bool:
    """f(i,j+1) + f(i+1,j) >= f(i,j) + f(i+1,j+1) for all adjacent index pairs."""
    for t in set(instance.pairwise.values()):
        for i in range(len(t) - 1):
            for j in range(len(t[0]) - 1):
                if t[i][j + 1] + t[i + 1][j] < t[i][j] + t[i + 1][j + 1]:
                    return False
    return True


def _uniform_label_count(instance: EnergyInstance) -> int:
    counts = {instance.labels[u] for u in instance.nodes}
    if len(counts) != 1:
        raise SolverError("uniform label count required")
    return counts.pop()


def is_potts(instance: EnergyInstance) -> bool:
    """Zero diagonal, single constant c_uv >= 0 off-diagonal, per edge."""
    k = _uniform_label_count(instance)
    for t in set(instance.pairwise.values()):
        off = {t[a][b] for a in range(k) for b in range(k) if a != b}
        diag = {t[a][a] for a in range(k)}
        if diag != {0}:
            return False
        if k > 1 and (len(off) != 1 or min(off) < 0):
            return False
    return True


def is_metric(instance: EnergyInstance) -> bool:
    """Zero diagonal, symmetric, non-negative, triangle inequality per edge."""
    k = _uniform_label_count(instance)
    for t in set(instance.pairwise.values()):
        for a in range(k):
            if t[a][a] != 0:
                return False
            for b in range(k):
                if t[a][b] != t[b][a] or t[a][b] < 0:
                    return False
        for a in range(k):
            for b in range(k):
                for c in range(k):
                    if t[a][c] > t[a][b] + t[b][c]:
                        return False
    return True


# ---------------------------------------------------------------------------
# Submodular QPBO via min cut


def _min_cut(nodes, unary, edges, pairwise, constant: int,
             counters: dict) -> tuple[Labeling, int]:
    """Minimum of a binary energy given as plain data, by the posiform min cut.

    unary[u] is a (label 0, label 1) pair and pairwise[e] a 2x2 table, all
    finite.  Returns the canonical cut's labeling and value; a table with
    f(0,1) + f(1,0) < f(0,0) + f(1,1) raises SolverError (negative capacity).
    The edges are distinct node pairs, so each arc goes to the flow core as
    its own residual pair; the core adds its counts to counters.
    """
    # Internal flow ids: 0..n-1 for nodes, n = source, n + 1 = sink.
    n = len(nodes)
    idx = {u: i for i, u in enumerate(nodes)}
    unary1 = {u: unary[u][1] - unary[u][0] for u in nodes}
    for u in nodes:
        constant = check_range(constant + unary[u][0])
    pair_arcs = []  # beta * [x_u = 0][x_v = 1]: arc u->v, cut when x_u = 0, x_v = 1
    for (u, v) in edges:
        (a, b), (c, d) = pairwise[(u, v)]
        # f_uv = a + (c - a)[x_u=1] + (d - c)[x_v=1] + (b + c - a - d)[x_u=0][x_v=1]
        constant = check_range(constant + a)
        unary1[u] = check_range(unary1[u] + c - a)
        unary1[v] = check_range(unary1[v] + d - c)
        pair_arcs.append((idx[u], idx[v], b + c - a - d, 0))
    arcs = []
    for i, u in enumerate(nodes):
        w = unary1[u]
        if w >= 0:
            arcs.append((n, i, w, 0))  # cut when x_u = 1
        else:
            constant = check_range(constant + w)
            arcs.append((i, n + 1, -w, 0))  # cut when x_u = 0
    flow, reachable = _dinic(n + 2, n, n + 1, arcs + pair_arcs, counters)
    # Arc s->u is cut exactly when u lands on the sink side, so sink side = label 1.
    x = {u: (0 if reachable[i] else 1) for i, u in enumerate(nodes)}
    return x, check_range(constant + flow)


def solve_submodular_qpbo(instance: EnergyInstance) -> SolveResult:
    """Exact minimum of a binary submodular instance via the posiform min-cut construction."""
    submodular = is_submodular_binary(instance)  # raises on a non-binary instance
    if not all_finite(instance):
        raise SolverError("infinite unary or pairwise entry")
    if not submodular:
        raise SolverError("instance is not binary submodular")
    counters: dict = {}
    x, value = _min_cut(instance.nodes, instance.unary, instance.edges,
                        instance.pairwise, instance.constant, counters)
    if evaluate(instance, x) != value:
        raise SolverError("min-cut labeling does not attain the cut value")
    return SolveResult(x, value, "mincut", True, stats=counters)


# ---------------------------------------------------------------------------
# Alpha expansion


def alpha_expansion(instance: EnergyInstance) -> SolveResult:
    """Move-making approximation for metric instances; 2-approximate on Potts.

    Starts from all zeros and sweeps labels in ascending order, accepting
    only strictly improving expansion moves, until a full sweep makes no
    progress.  Each move is a binary energy, label 0 keeping the current
    label and label 1 switching to alpha, read straight off the instance;
    on a metric instance it is submodular and solved exactly by min cut.
    """
    if not all_finite(instance):
        raise SolverError("infinite unary or pairwise entry")
    if not is_metric(instance):
        raise SolverError("alpha expansion requires a metric instance")
    k = _uniform_label_count(instance)
    nodes, unary, pairwise = instance.nodes, instance.unary, instance.pairwise
    x = {u: 0 for u in nodes}
    current = evaluate(instance, x)
    moves = [current]
    counters = {"phases": 0, "augmenting_paths": 0, "moves_tried": 0}
    improved = True
    while improved:
        improved = False
        for alpha in range(k):
            move_unary = {u: (unary[u][x[u]], unary[u][alpha]) for u in nodes}
            move_pairwise = {(u, v): ((t[x[u]][x[v]], t[x[u]][alpha]),
                                      (t[alpha][x[v]], t[alpha][alpha]))
                             for (u, v), t in pairwise.items()}
            cut, value = _min_cut(nodes, move_unary, instance.edges, move_pairwise,
                                  instance.constant, counters)
            counters["moves_tried"] += 1
            moved = {u: (alpha if cut[u] == 1 else x[u]) for u in nodes}
            # The move energy of the cut is the instance energy of moved,
            # term by term and in the same order.
            if evaluate(instance, moved) != value:
                raise SolverError("min-cut labeling does not attain the cut value")
            if value < current:
                x, current = moved, value
                moves.append(current)
                improved = True
    if evaluate(instance, x) != current:
        raise SolverError("alpha-expansion labeling does not attain its recorded energy")
    return SolveResult(x, current, "alpha-expansion", False, tuple(moves), counters)
