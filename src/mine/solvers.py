"""Exact and approximate solvers for pairwise energy minimization.

Brute force and variable elimination serve as oracles; tree DP, the
submodular min-cut route, and alpha-expansion cover the tractable and
approximable families.  All solvers are deterministic: brute force
returns the lexicographically smallest optimal labeling (in instance node
order); elimination, going back through its order, gives each node the
first label that attains its bucket's minimum under the labels already
chosen (label 0 when every label costs INF); tree DP is elimination
along a leaf-first order, each component rooted at its first node in
instance order, so it breaks ties the same way, and past the int64 bound
each node's bucket adds its unary, then the edge to its parent, then its
children's messages in edge order, range-checking every partial sum; the
flow-based solver returns the canonical reachable-set cut.  One max-flow
core, _bk_max_flow (Boykov and Kolmogorov's two-tree augmenting-path
algorithm; its docstring states the tree state, which lets one walk serve
both trees), has one caller: the posiform min cut that submodular min-cut
and every alpha-expansion move share, each building its node index once
per solve; both report the core's augmenting-path and orphan counts in
``SolveResult.stats``.  Alpha-expansion stops as soon as every label is
known not to improve its labeling.

Costs stay exact everywhere, and a partial sum of finite costs that
leaves the signed 64-bit range raises CostOverflowError.  Brute force
scores by instance._scored_blocks; solve_brute_force states its contract.
Elimination plans every separator first, fixes each bucket's joint axes
and the bucket its message joins in one pass back over the plan, and then
builds flat tables in one pass, each distinct unary row and table object
once; solve_elimination states its contract.
"""

from __future__ import annotations

import heapq
import math
import os
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import chain, cycle
from operator import add, itemgetter

from .costs import I64_MAX, I64_MIN, INF, Cost, check_range, ext_add
from .instance import EnergyInstance, Labeling, _scored_blocks, evaluate, scored_labelings

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


def check_enumerable(domain_sizes) -> None:
    """SolverError unless the domain sizes multiply to at most brute_force_limit()."""
    limit = brute_force_limit()
    total = 1
    for k in domain_sizes:
        total *= k
        if total > limit:
            raise SolverError(f"configuration count exceeds brute-force bound {limit}")


def solve_brute_force(instance: EnergyInstance) -> SolveResult:
    """Global minimum by full enumeration, lexicographically smallest argmin.

    While |constant| + finite_sum fits in int64, an instance of at least two
    nodes is scored by instance._scored_blocks: each block gives its
    minimum, and only a block whose minimum is below every earlier one has
    its first argmin copied out.  When every labeling costs INF the answer
    is the first, all zeros.  Otherwise the minimum is taken over
    scored_labelings, which past that bound raises CostOverflowError at the
    first labeling whose sum leaves int64.
    """
    check_enumerable(instance.labels.values())
    nodes = instance.nodes
    bound = abs(instance.constant) + instance.finite_sum
    if bound > I64_MAX or len(nodes) < 2:
        best_x, best = min(scored_labelings(instance), key=itemgetter(1))
        return SolveResult(best_x, best, "brute", True)
    s, t = nodes[-2:]
    k = instance.labels[t]
    best = best_x = None
    for x, block in _scored_blocks(instance, bound):
        low = min(block)
        if best is None or low < best:
            best = low
            x[s], x[t] = divmod(block.index(low), k)
            best_x = x.copy()
    if best > bound:
        return SolveResult(dict.fromkeys(nodes, 0), INF, "brute", True)
    return SolveResult(best_x, best, "brute", True)


# ---------------------------------------------------------------------------
# Variable elimination


def _elimination_plan(instance: EnergyInstance, order=None):
    """Yield (node, separator) along an elimination order, lazily.

    One symbolic pass over the elimination graph: a node's separator is its
    live neighbours when it goes, which then become a clique.  Along a given
    order the pass only records that.  With no order it picks the min-fill
    node at each step (Koller & Friedman 2009, section 9.4.3), the node whose
    elimination adds the fewest edges, ties going to fewer live neighbours,
    then the smallest id.  Fill counts are kept up to date by deltas: adding
    edge a-b raises a's fill by a's neighbours not adjacent to b (b's
    likewise) and lowers each common neighbour's by one; dropping u once its
    neighbours are a clique lowers each neighbour's fill by its neighbours
    outside that clique.  A separator is yielded before its clique is built,
    so a caller that stops at an over-wide one pays nothing for it.
    """
    adj = {u: set(nbrs) for u, nbrs in adjacency(instance).items()}
    fill = heap = None
    if order is None:
        # Pairs of neighbours that are not adjacent: d(d - 1)/2 less the
        # edges among them, each edge counted at its endpoints' common
        # neighbours.  The heap holds stale keys too; a popped key is used
        # only if it is still the node's current one.
        fill = {u: len(nbrs) * (len(nbrs) - 1) // 2 for u, nbrs in adj.items()}
        for a, b in instance.edges:
            for c in adj[a] & adj[b]:
                fill[c] -= 1
        heap = [(f, len(adj[u]), u) for u, f in fill.items()]
        heapq.heapify(heap)
    for step in range(len(adj)):
        if heap is None:
            u = order[step]
        else:
            while True:
                f, d, u = heapq.heappop(heap)
                if u in adj and f == fill[u] and d == len(adj[u]):
                    break
        nbrs = adj.pop(u)
        yield u, tuple(nbrs)
        touched = set(nbrs) if fill is not None else None
        for a in nbrs:  # the clique, with u still beside every neighbour
            adj_a = adj[a]
            for b in nbrs - adj_a:
                if b == a:
                    continue
                adj_b = adj[b]
                if fill is not None:
                    common = adj_a & adj_b
                    fill[a] += len(adj_a) - len(common)
                    fill[b] += len(adj_b) - len(common)
                    for c in common:
                        fill[c] -= 1
                    touched |= common
                adj_a.add(b)
                adj_b.add(a)
        for a in nbrs:
            adj[a].discard(u)
        if fill is not None:
            for a in nbrs:
                fill[a] -= len(adj[a]) - (len(nbrs) - 1)
            touched.discard(u)
            for a in touched:
                heapq.heappush(heap, (fill[a], len(adj[a]), a))


def solve_elimination(instance: EnergyInstance, order=None) -> SolveResult:
    """Exact minimum via bucket elimination along the given (or min-fill) order.

    The plan comes first: one symbolic pass gives every node's separator
    along the order, by default the min-fill order (fewest fill edges, then
    fewest live neighbours, then smallest id), and the first separator, in
    order, with more than DEFAULT_ELIM_LIMIT label combinations raises
    SolverError before any table is built.  The tables are then built once,
    over each node's domain: all its labels when finite_sum exceeds int64,
    so that every partial sum the overflow rule checks is formed, and when
    no entry is INF, where they are its finite-unary labels; otherwise its
    finite-unary labels (node consistency) and label 0.  INF is coded as
    2 * finite_sum + 1, so every value formed, a sum of entries
    of distinct input factors, is its number of INF terms times that code
    plus a finite part within +-finite_sum, and any value above finite_sum
    reads as INF.  A node's unary sits in its own bucket, so a kept label 0
    whose unary is INF never attains a finite minimum there: every
    finite/INF decision and every finite argmin is the one over all labels,
    and a bucket that is INF at every label takes label 0, as it would over
    all labels.

    Each factor sits in the bucket of its scope's first node along the order
    (Dechter 1999), in creation order, as a flat row-major list over its
    scope's domains in that bucket's axis order.  Each distinct unary row,
    and each table object per orientation and pair of domains, is
    restricted, oriented and coded once per call, and every bucket that
    reads it shares that list, since no factor is changed in place.  While
    finite_sum fits in int64, a unary that is zero on its node's domain
    gives no factor: an empty bucket is the zero table, whose message is
    the zero constant and whose node takes label 0.  One pass back over the
    plan fixes each bucket's consumer, the bucket of its separator's first
    node along the order, which its message joins, and its joint scope: its
    separator in the order of the consumer's joint, then u last and fastest.
    An edge's scope puts its bucket's node last, and a message's scope is
    its joint less u.  So every scope in a bucket is an ordered subsequence
    of the joint, and of any scope there that contains it, and broadcasting
    never moves an axis.  While finite_sum fits in int64, each factor of a
    bucket whose scope lies inside a larger factor's is first added into
    that factor, broadcast to its scope, and the folded tables replace the
    bucket's entries, so that fewer tables reach the joint and the backward
    pass slices fewer, with the same totals.  The bucket of node u is summed
    over its joint scope, each factor broadcast to it by list repetition;
    each message entry is the minimum of one run of u's domain in the joint,
    taken by k - 1 compare-select passes over the slices of the joint at
    each of u's k labels, and the empty-scope messages join the constant
    after the last bucket, so a bucket's overflow is raised before any of
    theirs.  Going back through the order each node gets the first label
    that attains the minimum of its bucket sum at its separator's chosen
    labels (label 0 when every label costs INF), each table giving one
    contiguous run since u is last in its scope.  A partial bucket sum of
    finite entries outside the signed 64-bit range raises CostOverflowError,
    checked in bucket order (every partial sum exactly when finite_sum
    exceeds int64, and then no factor folds; otherwise none can leave that
    range); the value named is the first out of range in the row order of
    the sorted separator with u last, whatever order the joint's separator
    has.  ``stats`` come from the plan over the instance's label counts,
    whatever the domains: they hold ``max_separator`` (the most nodes in one
    separator) and ``joint_entries`` (the joint entries summed over all
    buckets).
    """
    if order is not None and sorted(order) != sorted(instance.nodes):
        raise SolverError("elimination order must be a permutation of the nodes")
    labels = instance.labels
    plan = []  # (node, separator)
    position = {}  # each node's place in the plan
    max_separator = joint_entries = 0
    for u, sep in _elimination_plan(instance, order):
        size = math.prod(labels[w] for w in sep)
        if size > DEFAULT_ELIM_LIMIT:
            raise SolverError(f"separator size {size} exceeds elimination bound")
        position[u] = len(plan)
        plan.append((u, sep))
        max_separator = max(max_separator, len(sep))
        joint_entries += size * labels[u]
    stats = {"max_separator": max_separator, "joint_entries": joint_entries}

    # Back to front, each bucket's consumer and joint axes.
    joints = [None] * len(plan)
    consumers = [None] * len(plan)
    for i in reversed(range(len(plan))):
        u, sep = plan[i]
        if sep:
            consumers[i] = c = min(map(position.get, sep))
            if len(sep) > 1:
                sep = [w for w in joints[c] if w in sep]
        joints[i] = (*sep, u)

    # A value above bound holds an INF term, and a finite partial sum can
    # leave int64 only if finite_sum does.
    bound = instance.finite_sum
    inf = 2 * bound + 1
    check = bound > I64_MAX
    full = instance.all_finite or check  # every domain holds all its node's labels
    domains = {}  # when not full, each node's domain, a tuple
    sizes = labels if full else {}

    def coded(entries):  # a fresh list, INF as inf
        return list(entries) if instance.all_finite else [inf if c is INF else c
                                                          for c in entries]

    rows_made = {}  # id of a unary row: its domain and its coded factor, or None
    tables_made = {}  # (id of a table, orientation[, the two domains]): its coded factor
    buckets = [[] for _ in plan]  # (scope, flat table) per node along the plan
    for u in instance.nodes:
        row = instance.unary[u]
        made = rows_made.get(id(row))
        if made is None:
            dom = None if full else tuple([a for a, c in enumerate(row)
                                           if c is not INF or a == 0])
            flat = coded(row if full or len(dom) == len(row) else map(row.__getitem__, dom))
            # Off the overflow check, a unary zero on its domain gives no factor.
            made = rows_made[id(row)] = dom, (flat if check or any(flat) else None)
        dom, flat = made
        if not full:
            domains[u] = dom
            sizes[u] = len(dom)
        if flat is not None:
            buckets[position[u]].append(((u,), flat))
    for e in instance.edges:  # scope (other node, bucket node)
        u, v = e
        table = instance.pairwise[e]
        flip = position[u] < position[v]
        key = (id(table), flip) if full else (id(table), flip, domains[u], domains[v])
        flat = tables_made.get(key)
        if flat is None:
            rows = table
            if not full:
                if sizes[u] < labels[u]:
                    rows = list(map(rows.__getitem__, domains[u]))
                if sizes[v] < labels[v]:
                    rows = [list(map(row.__getitem__, domains[v])) for row in rows]
            flat = tables_made[key] = coded(chain.from_iterable(zip(*rows) if flip else rows))
        if flip:
            buckets[position[u]].append(((v, u), flat))
        else:
            buckets[position[v]].append((e, flat))

    constants = []  # each empty-separator message's one entry
    for i, joint in enumerate(joints):
        bucket = buckets[i]
        if not bucket:  # a node with no edge and a zero unary: a zero constant
            continue
        if not check and len(bucket) > 1:
            buckets[i] = bucket = _fold(bucket, sizes)
        k = sizes[joint[-1]]
        acc = None
        for scope, table in bucket:
            column = _broadcast(table, scope, joint, sizes)
            acc = column if acc is None else list(map(add, acc, column))
            if check:
                _check_partial_sums(acc, joint, sizes, bound)
        message = acc[::k] if k > 1 else acc
        for a in range(1, k):
            message = [m if m <= c else c for m, c in zip(message, acc[a::k])]
        if consumers[i] is None:
            constants.append(message[0])
        else:
            buckets[consumers[i]].append((joint[:-1], message))
    value: Cost = instance.constant
    for c in constants:
        value = ext_add(value, INF if c > bound else c)

    # u is the last node of every scope in its bucket, so each factor's
    # entries at the chosen labels of its other nodes, for every label of
    # u, are one run of its table, which starts where u's index is 0; their
    # sum is the joint run the message took its minimum from.
    x: Labeling = {}
    index = {}  # each decided node's position in its domain
    for joint, bucket in zip(reversed(joints), reversed(buckets)):
        u = joint[-1]
        k = sizes[u]
        index[u] = 0  # also the choice of an empty bucket, where every label costs 0
        if bucket:
            total = None
            for scope, table in bucket:
                base = 0
                for w in scope:
                    base = base * sizes[w] + index[w]
                column = table[base:base + k]
                total = column if total is None else list(map(add, total, column))
            best = min(total)
            if best <= bound:
                index[u] = total.index(best)
        x[u] = index[u] if full else domains[u][index[u]]
    return SolveResult(x, value, "elimination", True, stats=stats)


def _check_partial_sums(acc: list, joint: tuple, sizes, bound: int) -> None:
    """CostOverflowError on the first finite entry of acc outside int64.

    Entries above bound are coded INF.  "First" is in the row-major order
    of the sorted separator with the bucket's node last, whatever order
    joint's separator comes in, so the value named does not depend on the
    layout.
    """
    bad = [i for i, v in enumerate(acc) if v < I64_MIN or I64_MAX < v <= bound]
    if not bad:
        return
    order = (*sorted(joint[:-1]), joint[-1])

    def rank(i):  # i's position in that order
        digits = {}
        for w in reversed(joint):
            i, digits[w] = divmod(i, sizes[w])
        r = 0
        for w in order:
            r = r * sizes[w] + digits[w]
        return r

    check_range(acc[min(bad, key=rank)])


def _fold(bucket: list, sizes) -> list:
    """The bucket's factors, each summed into a larger one whose scope holds its own.

    Smallest table first, each factor is broadcast to the scope of the first
    factor after it whose scope contains its own, and added into that
    factor's table (a unary into an edge, an edge into a message over both
    its nodes); a factor with no such host is kept.  Every scope in a
    bucket holds its node, so a one-node scope fits any host.  The bucket
    list is sorted (stably) and rewritten in place, with no copy, and a
    bucket already in table-size order, such as a tree leaf's unary and
    edge, costs the sort one pass of comparisons; tables are replaced,
    never changed in place.
    """
    bucket.sort(key=lambda factor: len(factor[1]))
    kept = []
    for i, (scope, table) in enumerate(bucket, 1):
        for j in range(i, len(bucket)):
            host, into = bucket[j]
            if len(scope) == 1 or set(scope).issubset(host):
                bucket[j] = host, list(map(add, into, _broadcast(table, scope, host, sizes)))
                break
        else:
            kept.append((scope, table))
    return kept


def _broadcast(table: list, scope: tuple, joint: tuple, sizes) -> list:
    """A factor's flat table repeated out to the joint scope's row-major order.

    scope is an ordered subsequence of joint: its nodes come in joint's
    order, so no axis moves.  Every step runs at C level, over whole
    tables: each run of consecutive joint nodes missing from scope is one
    repetition of the table, of each entry, or of each group of entries
    that the axes after the run span.
    """
    if scope == joint:
        return table
    out = table
    block = k = 1  # entries one step of the axis at w spans; the pending run's repeats
    for w in reversed(joint):
        if w not in scope:
            k *= sizes[w]
            continue
        if k > 1:  # the run before w, repeated group by group
            if block == 1:
                out = list(chain.from_iterable(zip(*[out] * k)))
            else:
                groups = list(zip(*[iter(out)] * block))
                out = list(chain.from_iterable(chain.from_iterable(zip(*[groups] * k))))
            block *= k
            k = 1
        block *= sizes[w]
    return out * k if k > 1 else out  # a run at the front repeats the whole table


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


_ROOT = -1  # a tree root's parent: its own terminal
_FREE = -2  # the parent of a free node or of an orphan


def _bk_max_flow(terminal: list[int], arcs, counters: dict) -> tuple[int, list[bool]]:
    """Boykov-Kolmogorov max flow (PAMI 2004) over nodes 0..n-1, for `_min_cut`.

    terminal[i] is node i's signed terminal residual: positive, a capacity
    from the source to i; negative, a capacity from i to the sink.  Each of
    arcs is (i, j, capacity), a one-way arc between nodes whose reverse
    starts at 0; a negative capacity raises SolverError, and every capacity,
    every terminal residual's magnitude and the running flow are
    range-checked.  Arc a runs to head[a] with residual capacity cap[a], its
    reverse is arc a ^ 1, and adj[u] lists the arcs out of u.

    The one-arc paths (source, i, arc i->j, j, sink) are saturated first,
    in arc order.  Then a source tree and a sink tree grow from the nodes
    with a terminal residual left, breadth first from a queue of active
    nodes.  tree[u] is 1 in the source tree, -1 in the sink tree, 0 off
    both; parent[u] is u's parent node (_ROOT at a root, _FREE off the
    trees or while u is an orphan), and arc[u] the arc that flow crosses
    between them: parent to u in the source tree, u to parent in the sink
    tree.  residual[u] is then the magnitude of a root's terminal residual,
    toward the terminal that tree[u] names, so both halves of a path are
    walked alike: from each end up to its root, over arc[v] and then the
    root's residual.  An arc from the source tree into the sink tree closes
    an augmenting path; its bottleneck is pushed, and each node whose arc
    or terminal residual it saturates becomes an orphan, source half first.
    An orphan v takes the first neighbour w in its tree whose parents lead
    up to a root and whose arc a ^ 1 to v (source tree) or arc a from v
    (sink tree) has capacity; with none, it leaves the tree, its children
    become orphans and its tree neighbours so linked to it become active
    again.  The trees are kept across augmentations.  When no node is
    active, the source tree is the set of nodes that the source reaches in
    the final residual graph, the same after any maximum flow, whatever the
    arc order.  Returns the flow value and, per node, whether it is in that
    set; adds the augmenting paths and the orphans to counters.
    """
    n = len(terminal)
    for r in (max(terminal, default=0), -min(terminal, default=0)):
        check_range(r)
    head: list[int] = []
    cap: list[int] = []
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j, c in arcs:
        if c < 0:
            raise SolverError("negative capacity")
        check_range(c)
        if c and i != j:
            adj[i].append(len(head))
            adj[j].append(len(head) + 1)
            head += (j, i)
            cap += (c, 0)
    residual = list(terminal)
    flow = paths = orphaned = 0
    for a in range(0, len(head), 2):  # the one-arc paths first, in arc order
        i, j = head[a + 1], head[a]
        if residual[i] > 0 and residual[j] < 0:
            f = min(residual[i], -residual[j], cap[a])
            residual[i] -= f
            residual[j] += f
            cap[a] -= f
            cap[a + 1] += f
            flow = check_range(flow + f)
            paths += 1
    tree = [(r > 0) - (r < 0) for r in residual]  # 1 source tree, -1 sink tree, 0 free
    residual = [abs(r) for r in residual]
    parent = [_ROOT if r else _FREE for r in residual]
    arc = [-1] * n
    active = deque(u for u in range(n) if tree[u])
    orphans: list[int] = []
    while active:
        u = active[0]  # stays at the front while its arcs close paths
        side = tree[u]
        middle = -1  # the arc from the source tree into the sink tree
        if side > 0:
            for a in adj[u]:
                if cap[a]:
                    v = head[a]
                    tv = tree[v]
                    if not tv:
                        tree[v] = 1
                        parent[v] = u
                        arc[v] = a
                        active.append(v)
                    elif tv < 0:
                        middle = a
                        break
        elif side < 0:
            for a in adj[u]:
                b = a ^ 1
                if cap[b]:
                    v = head[a]
                    tv = tree[v]
                    if not tv:
                        tree[v] = -1
                        parent[v] = u
                        arc[v] = b
                        active.append(v)
                    elif tv > 0:
                        middle = b
                        break
        if middle < 0:
            active.popleft()
            continue

        # The path: source tree root ... x, arc middle, y ... sink tree root.
        ends = head[middle ^ 1], head[middle]
        f = cap[middle]
        for v in ends:
            while (p := parent[v]) >= 0:
                if cap[arc[v]] < f:
                    f = cap[arc[v]]
                v = p
            if residual[v] < f:
                f = residual[v]
        cap[middle] -= f
        cap[middle ^ 1] += f
        for v in ends:
            while (p := parent[v]) >= 0:
                a = arc[v]
                cap[a] -= f
                cap[a ^ 1] += f
                if not cap[a]:
                    parent[v] = _FREE
                    orphans.append(v)
                v = p
            residual[v] -= f
            if not residual[v]:
                parent[v] = _FREE
                orphans.append(v)
        flow = check_range(flow + f)
        paths += 1

        # Adoption: w may be v's parent if arc a ^ flip, the one that flow
        # would cross between them, has capacity.
        while orphans:
            v = orphans.pop()
            orphaned += 1
            side = tree[v]
            flip = side > 0
            for a in adj[v]:
                if cap[a ^ flip]:
                    w = r = head[a]
                    if tree[w] == side:
                        while (p := parent[r]) >= 0:
                            r = p
                        if p == _ROOT:
                            parent[v] = w
                            arc[v] = a ^ flip
                            break
            else:
                for a in adj[v]:
                    w = head[a]
                    if tree[w] == side:
                        if cap[a ^ flip]:
                            active.append(w)
                        if parent[w] == v:
                            parent[w] = _FREE
                            orphans.append(w)
                tree[v] = 0
    counters["augmenting_paths"] = counters.get("augmenting_paths", 0) + paths
    counters["orphans"] = counters.get("orphans", 0) + orphaned
    return flow, [side > 0 for side in tree]


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


def is_binary(instance: EnergyInstance) -> bool:
    return set(instance.labels.values()) <= {2}


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


def is_uniform(instance: EnergyInstance) -> bool:
    """Every node has the same label count; an instance with no nodes has."""
    return len(set(instance.labels.values())) <= 1


def _uniform_label_count(instance: EnergyInstance) -> int:
    """The label count that every node has, 0 with no nodes."""
    if not is_uniform(instance):
        raise SolverError("uniform label count required")
    return max(instance.labels.values(), default=0)


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


def _min_cut(unary, pairs, constant: int, magnitude: int,
             counters: dict) -> tuple[list[int], int]:
    """Minimum of a binary energy over nodes 0..n-1, by the posiform min cut.

    unary[i] is node i's (label 0, label 1) pair; pairs, read once, yields
    (i, j, 2x2 table), i != j, no node pair twice; all entries finite, and
    their magnitudes sum to at most magnitude.  Returns the canonical cut's
    labels by node index and its value; a table with
    f(0,1) + f(1,0) < f(0,0) + f(1,1) raises SolverError (negative
    capacity).  Each node's label-1 cost over its label-0 cost is its
    terminal residual in the flow core and each pairwise posiform term one
    one-way arc; the core adds its counts to counters.

    Every partial sum of the constant and of a terminal residual below is
    at most |constant| + 2 magnitude in size.  While that bound fits in
    int64 the terms are added unchecked; otherwise each partial sum is
    range-checked, and CostOverflowError is raised where one leaves int64.
    """
    checked = abs(constant) + 2 * magnitude > I64_MAX
    unary1 = [c1 - c0 for c0, c1 in unary]  # w[x_i = 1]: w >= 0 is cut from the source
    if checked:
        for c0, _ in unary:
            constant = check_range(constant + c0)
    else:
        constant += sum([c0 for c0, _ in unary])
    pair_arcs = []  # beta * [x_i = 0][x_j = 1]: arc i->j, cut when x_i = 0, x_j = 1
    for i, j, ((a, b), (c, d)) in pairs:
        # f_ij = a + (c - a)[x_i=1] + (d - c)[x_j=1] + (b + c - a - d)[x_i=0][x_j=1]
        constant += a
        unary1[i] += c - a
        unary1[j] += d - c
        if checked:
            check_range(constant)
            check_range(unary1[i])
            check_range(unary1[j])
        pair_arcs.append((i, j, b + c - a - d))
    # w[x_i = 1] = w + (-w)[x_i = 0] when w < 0, cut to the sink when x_i = 0
    negative = [w for w in unary1 if w < 0]
    if checked:
        for w in negative:
            constant = check_range(constant + w)
    else:
        constant += sum(negative)
    flow, source_side = _bk_max_flow(unary1, pair_arcs, counters)
    return [0 if r else 1 for r in source_side], check_range(constant + flow)


def _edge_indices(instance: EnergyInstance) -> list[tuple[int, int, tuple]]:
    """(i, j, table) per edge in instance.edges order, i and j node positions."""
    index = {u: i for i, u in enumerate(instance.nodes)}
    return [(index[u], index[v], instance.pairwise[(u, v)]) for (u, v) in instance.edges]


def solve_submodular_qpbo(instance: EnergyInstance) -> SolveResult:
    """Exact minimum of a binary submodular instance via the posiform min-cut construction."""
    submodular = is_submodular_binary(instance)  # raises on a non-binary instance
    if not instance.all_finite:
        raise SolverError("infinite unary or pairwise entry")
    if not submodular:
        raise SolverError("instance is not binary submodular")
    counters: dict = {}
    cut, value = _min_cut([instance.unary[u] for u in instance.nodes], _edge_indices(instance),
                          instance.constant, instance.finite_sum, counters)
    x = dict(zip(instance.nodes, cut))
    if evaluate(instance, x) != value:
        raise SolverError("min-cut labeling does not attain the cut value")
    return SolveResult(x, value, "mincut", True, stats=counters)


# ---------------------------------------------------------------------------
# Alpha expansion


def alpha_expansion(instance: EnergyInstance) -> SolveResult:
    """Move-making approximation for metric instances; 2-approximate on Potts.

    Starts from all zeros and tries labels in ascending order, cyclically,
    accepting only strictly improving expansion moves.  It stops as soon as
    every label is known not to improve the current labeling, where sweeps
    until one makes no progress would stop, after the same accepted moves:
    label 0 cannot move the all-zero start; a failed move fails again until
    the labeling changes; and the label of an accepted move cannot improve
    at once, since its expansions of the new labeling are among those of
    the old one that the cut minimized over.  So the failed labels reset to
    {alpha} on each accepted move, and the solve ends when all k have
    failed.  Each move is
    a binary energy, label 0 keeping the current label and label 1
    switching to alpha, read straight off the instance and the current
    labels by node index; on a metric instance it is submodular and solved
    exactly by min cut.  ``stats`` add the flow core's counts over every
    move tried to ``moves_tried``.
    """
    if not instance.all_finite:
        raise SolverError("infinite unary or pairwise entry")
    if not is_metric(instance):
        raise SolverError("alpha expansion requires a metric instance")
    k = _uniform_label_count(instance)
    nodes = instance.nodes
    rows = [instance.unary[u] for u in nodes]
    pairs = _edge_indices(instance)
    x = [0] * len(nodes)  # the current labels by node index
    current = evaluate(instance, dict.fromkeys(nodes, 0))
    moves = [current]
    counters = {"augmenting_paths": 0, "orphans": 0, "moves_tried": 0}
    failed = {0}  # the labels whose move cannot improve x
    # A move takes two entries of each unary row and four of each pairwise
    # table, so its magnitudes sum to at most four times the instance's.
    magnitude = 4 * instance.finite_sum
    for alpha in cycle(range(k)):
        if len(failed) == k:
            break
        if alpha in failed:
            continue
        # A generator: each move table is freed once read, sparing the GC.
        cut, value = _min_cut(
            [(row[a], row[alpha]) for row, a in zip(rows, x)],
            ((i, j, ((t[x[i]][x[j]], t[x[i]][alpha]), (t[alpha][x[j]], t[alpha][alpha])))
             for i, j, t in pairs),
            instance.constant, magnitude, counters)
        counters["moves_tried"] += 1
        moved = [alpha if c else a for a, c in zip(x, cut)]
        # The move energy of the cut is the instance energy of moved,
        # term by term and in the same order.
        if evaluate(instance, dict(zip(nodes, moved))) != value:
            raise SolverError("min-cut labeling does not attain the cut value")
        if value < current:
            x, current = moved, value
            moves.append(current)
            failed = {alpha}
        else:
            failed.add(alpha)
    labeling = dict(zip(nodes, x))
    if evaluate(instance, labeling) != current:
        raise SolverError("alpha-expansion labeling does not attain its recorded energy")
    return SolveResult(labeling, current, "alpha-expansion", False, tuple(moves), counters)
