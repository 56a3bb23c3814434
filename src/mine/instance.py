"""Pairwise energy minimization instances over extended-integer costs.

An instance is a labeled graph: each node u carries a unary cost table of
length k_u, each undirected edge (u, v) a k_u x k_v pairwise table, plus a
finite constant offset.  Construction derives the label counts k_u and
the edge tuple, always sorted, from the tables; checks that every entry is
INF or an int (never a bool) in the signed 64-bit range; and, in the same
pass, records finite_sum and all_finite, so no caller rescans the tables
to bound a sum.  Instances are immutable after construction; every
operation here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, product, repeat, starmap
from operator import add, itemgetter, lt

from .costs import I64_MAX, I64_MIN, INF, Cost, check_range, ext_add, is_finite

Labeling = dict[int, int]
LABEL_TYPES = frozenset({int, bool})  # the types a labeling's labels may have
# The entry types of a unary row with no finite entry: none, or only INF's.
_NO_FINITE_ROW = {frozenset(), frozenset({type(INF)})}


class InstanceError(ValueError):
    """Malformed instance or labeling/instance mismatch."""


def normalize_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise InstanceError(f"self-loop on node {u}")
    return (u, v) if u < v else (v, u)


def orient_edge(u: int, v: int, table):
    """Edge (u, v)'s normalized key and its k_u x k_v table, transposed when u > v."""
    key = normalize_edge(u, v)
    return key, (table if key[0] == u else tuple(zip(*table)))


def _check_costs(entries: list) -> tuple[int, bool]:
    """Every entry is INF or an int (not a bool) in the signed 64-bit range.

    Returns the sum of every finite entry's magnitude and whether no entry is INF.
    """
    kinds = set(map(type, entries))
    if not kinds <= {int, type(INF)}:
        raise InstanceError(f"cost entries must be ints or INF, got "
                            f"{sorted(k.__name__ for k in kinds - {int, type(INF)})}")
    all_finite = type(INF) not in kinds
    if not all_finite:
        entries = [c for c in entries if c is not INF]
    total = sum(map(abs, entries))
    # No entry's magnitude exceeds the total, so a total in range needs no min or max.
    if total > I64_MAX and not (I64_MIN <= min(entries) and max(entries) <= I64_MAX):
        raise InstanceError("cost entry outside signed 64-bit range")
    return total, all_finite


def _some_row_has_no_finite_entry(rows) -> bool:
    """Whether a unary row is empty or all INF, testing each row object once."""
    distinct = dict(zip(map(id, rows), rows)).values()
    return not _NO_FINITE_ROW.isdisjoint(map(frozenset, map(map, repeat(type), distinct)))


def _edges_fit(nodes: set, labels: dict[int, int], edges: tuple, tables: list) -> bool:
    """Whether every edge is a pair (u, v) of nodes with u < v whose table is
    labels[u] x labels[v]: the per-edge checks as whole-table passes."""
    try:
        if not (set(map(type, edges)) <= {tuple} and all(starmap(lt, edges))
                and nodes.issuperset(chain.from_iterable(edges))):
            return False
        counts = set(labels.values())
        rows = chain.from_iterable(tables)
        if len(counts) == 1:
            return set(map(len, tables)) <= counts and set(map(len, rows)) <= counts
        heights = list(map(len, tables))
        widths = chain.from_iterable(map(repeat, map(labels.__getitem__, map(itemgetter(1), edges)),
                                         heights))
        return (heights == list(map(labels.__getitem__, map(itemgetter(0), edges)))
                and list(map(len, rows)) == list(widths))
    except TypeError:  # a key or table of the wrong kind: the per-edge loop raises
        return False


@dataclass(frozen=True)
class EnergyInstance:
    nodes: tuple[int, ...]
    unary: dict[int, tuple[Cost, ...]]
    pairwise: dict[tuple[int, int], tuple[tuple[Cost, ...], ...]]
    constant: int = 0
    # Set by construction: label counts (unary lengths), the sorted pairwise
    # keys, the sum of every finite entry's magnitude (the constant
    # excluded), and whether no entry is INF.
    labels: dict[int, int] = field(init=False, repr=False, compare=False)
    edges: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    finite_sum: int = field(init=False, repr=False, compare=False)
    all_finite: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes, unary, pairwise = self.nodes, self.unary, self.pairwise
        seen = set(nodes)
        if len(seen) != len(nodes):
            raise InstanceError("duplicate node ids")
        if set(unary) != seen:
            raise InstanceError("unary tables must cover exactly the node set")
        labels = dict(zip(nodes, map(len, map(unary.__getitem__, nodes))))
        edges = tuple(sorted(pairwise))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "edges", edges)
        rows = unary.values()
        entries = list(chain.from_iterable(rows))
        # Whole-table checks first; the loops below only name the first
        # defect, in node and then edge order, when one of them fails.
        if ((min(labels.values(), default=1) < 1 or type(INF) in set(map(type, entries)))
                and _some_row_has_no_finite_entry(rows)):
            for u in nodes:
                if labels[u] < 1:
                    raise InstanceError(f"node {u}: label count must be positive")
                if not any(is_finite(c) for c in unary[u]):
                    raise InstanceError(f"node {u}: no label with finite unary cost")
        tables = list(map(pairwise.__getitem__, edges))
        if not _edges_fit(seen, labels, edges, tables):
            for (u, v), table in zip(edges, tables):
                if (u, v) != normalize_edge(u, v):
                    raise InstanceError(f"edge {(u, v)} not normalized (u < v required)")
                if u not in seen or v not in seen:
                    raise InstanceError(f"edge {(u, v)} references unknown node")
                if len(table) != labels[u] or any(len(row) != labels[v] for row in table):
                    raise InstanceError(f"edge {(u, v)}: pairwise table has wrong dimensions")
        entries += chain.from_iterable(chain.from_iterable(tables))
        finite_sum, all_finite = _check_costs(entries)
        object.__setattr__(self, "finite_sum", finite_sum)
        object.__setattr__(self, "all_finite", all_finite)
        if type(self.constant) is not int:
            raise InstanceError("constant offset must be a finite integer")
        check_range(self.constant)


def make_instance(labels: dict[int, int],
                  unary: dict[int, tuple[Cost, ...]] | None = None,
                  pairwise: dict[tuple[int, int], tuple[tuple[Cost, ...], ...]] | None = None,
                  constant: int = 0) -> EnergyInstance:
    """Convenience constructor: nodes sorted, edges normalized, unaries all-zero by default."""
    nodes = tuple(sorted(labels))
    unary = dict(unary or {})
    if unary.keys() != labels.keys() or (list(map(len, map(unary.__getitem__, nodes)))
                                         != list(map(labels.__getitem__, nodes))):
        for u in nodes:
            if u in unary and len(unary[u]) != labels[u]:
                raise InstanceError(f"node {u}: unary table has wrong length")
            unary.setdefault(u, tuple([0] * labels[u]))
    pairwise = pairwise or {}
    tables = pairwise.values()
    try:  # keys already normalized, so none repeats another, and tuple tables
        ready = (set(map(type, pairwise)) <= {tuple} and all(starmap(lt, pairwise))
                 and set(map(type, tables)) <= {tuple}
                 and set(map(type, chain.from_iterable(tables))) <= {tuple})
    except TypeError:  # a key or table of the wrong kind: the loop raises
        ready = False
    if ready:
        pw = dict(pairwise)
    else:
        # Each table object given for edges written v u is transposed once,
        # and only a table that is not yet a tuple of tuples is rebuilt (a
        # transposed one already is), so shared tables stay shared.
        pw = {}
        transposed = {}  # id of a table given: its transposition
        for (u, v), table in pairwise.items():
            key = normalize_edge(u, v)
            if key[0] != u:
                if id(table) not in transposed:
                    transposed[id(table)] = tuple(zip(*table))
                table = transposed[id(table)]
            if key in pw:
                raise InstanceError(f"edge {key} given twice")
            if not (type(table) is tuple and set(map(type, table)) <= {tuple}):
                table = tuple(map(tuple, table))
            pw[key] = table
    return EnergyInstance(nodes=nodes, unary=unary, pairwise=pw, constant=constant)


def check_labeling(instance: EnergyInstance, x: Labeling) -> None:
    """x labels exactly the instance's nodes, each with an int (a bool counts)
    below the node's label count; else InstanceError naming the first bad node."""
    labels = instance.labels
    if x.keys() != labels.keys():
        raise InstanceError("labeling does not cover exactly the instance's node set")
    for u, a in x.items():
        if type(a) not in LABEL_TYPES:
            raise InstanceError(f"node {u}: label {a!r} is not an int")
        if not 0 <= a < labels[u]:
            raise InstanceError(f"node {u}: label {a} out of range")


def all_labelings(instance: EnergyInstance):
    """Every labeling of the instance, lexicographically in instance node order."""
    nodes = instance.nodes
    for combo in product(*(range(instance.labels[u]) for u in nodes)):
        yield dict(zip(nodes, combo))


def scored_labelings(instance: EnergyInstance):
    """Every (labeling, evaluate(instance, labeling)) pair, in all_labelings order.

    When the bound |constant| + finite_sum fits in int64 and the instance
    has at least two nodes, the values come from _scored_blocks, and each
    labeling yielded is a copy of its running labeling with the last two
    nodes' labels written in.  Otherwise every labeling is scored by
    evaluate, which raises CostOverflowError where a partial sum overflows.
    """
    bound = abs(instance.constant) + instance.finite_sum
    nodes = instance.nodes
    if bound > I64_MAX or len(nodes) < 2:
        for x in all_labelings(instance):
            yield x, evaluate(instance, x)
        return
    s, t = nodes[-2:]
    firsts, seconds = zip(*product(range(instance.labels[s]), range(instance.labels[t])))
    for x, block in _scored_blocks(instance, bound):
        for x[s], x[t], v in zip(firsts, seconds, block):
            yield x.copy(), (INF if v > bound else v)


def _scored_blocks(instance: EnergyInstance, bound: int):
    """Yield (x, block) per labeling of every node but the last two, in
    all_labelings order, for an instance of at least two nodes.

    block lists the coded energies of x at each labeling of the last two
    nodes, the last node's label fastest, and x is one running labeling,
    only ever rewritten, whose last two labels are left as the caller wrote
    them.  bound is |constant| + finite_sum, at most I64_MAX, so no partial
    sum can leave int64 and energies are updated rather than recomputed.
    INF is encoded as an int above twice the bound, so a sum holds an INF
    term exactly when it exceeds the bound.  The odometer runs over the
    prefix, every node but the last two, and writes only the labels it
    changes.  On each step the changed positions, a suffix of the prefix,
    re-add their unary terms and the edges whose later endpoint lies among
    them to the running sum of the unchanged positions.  The block is that
    sum plus flat lists over the last two nodes' labels: their unary rows
    and their own edge, summed once, and for each prefix node joined to
    them, its edges' columns at its label, summed once per label.
    """
    nodes = instance.nodes
    inf = 2 * bound + 1

    def enc(table):
        return [inf if c is INF else c for c in table]

    n = len(nodes) - 2  # positions 0..n-1 form the prefix; n and n + 1 are the last two
    pos = {u: p for p, u in enumerate(nodes)}
    ks = [instance.labels[u] for u in nodes]
    unary = [enc(instance.unary[u]) for u in nodes]
    # later[q]: (p, rows) for each edge between position q and an earlier p,
    # its cost at labels a, b of q, p being rows[a][b].
    later = [[] for _ in nodes]
    for (u, v) in instance.edges:
        table = instance.pairwise[(u, v)]
        p, q = pos[u], pos[v]
        if p > q:
            p, q = q, p
        else:
            table = zip(*table)
        later[q].append((p, [enc(row) for row in table]))
    # The terms over the last two nodes as flat lists, n's label slowest:
    # base sums their unary rows and their own edge, and the edges to each
    # prefix node p come as columns, cols[b] being their sum at label b of p.
    k = ks[n + 1]

    def spread(column, q):  # a vector over position q's labels, as such a flat list
        return [c for c in column for _ in range(k)] if q == n else list(column) * ks[n]

    base = list(map(add, spread(unary[n], n), spread(unary[n + 1], n + 1)))
    columns = {}
    for q in (n, n + 1):
        for p, rows in later[q]:
            if p == n:  # rows[b][a] at label a of n, b of n + 1
                base = list(map(add, base, chain.from_iterable(zip(*rows))))
                continue
            cols = [spread(column, q) for column in zip(*rows)]
            if p in columns:
                cols = [list(map(add, a, b)) for a, b in zip(columns[p], cols)]
            columns[p] = cols
    edges = list(columns.items())

    x = dict.fromkeys(nodes, 0)
    combo = [0] * n
    acc = [instance.constant] + [0] * n  # acc[q]: constant + terms of positions < q
    i = 0
    while True:
        for q in range(i, n):
            a = combo[q]
            s = acc[q] + unary[q][a]
            for p, rows in later[q]:
                s += rows[a][combo[p]]
            acc[q + 1] = s
        block = base
        for p, cols in edges:
            block = map(add, block, cols[combo[p]])
        yield x, list(map(add, block, repeat(acc[n])))
        i = n - 1
        while i >= 0 and combo[i] + 1 == ks[i]:
            combo[i] = 0
            x[nodes[i]] = 0
            i -= 1
        if i < 0:
            return
        combo[i] += 1
        x[nodes[i]] = combo[i]


def evaluate(instance: EnergyInstance, x: Labeling) -> Cost:
    """Energy of labeling x: constant + sum of unary + sum of pairwise costs.

    When the bound |constant| + finite_sum fits in int64, no partial sum can
    leave that range, so the terms are added in one sum, INF absorbing
    through its __radd__.  Otherwise they are added in order, constant,
    unary terms along instance.nodes, then pairwise terms along
    instance.edges, and CostOverflowError is raised where a finite partial
    sum leaves int64, even if an INF term comes later.
    """
    check_labeling(instance, x)
    constant, unary, pairwise = instance.constant, instance.unary, instance.pairwise
    if abs(constant) + instance.finite_sum <= I64_MAX:
        return sum([pairwise[e][x[e[0]]][x[e[1]]] for e in instance.edges],
                   sum([unary[u][x[u]] for u in instance.nodes], constant))
    total: Cost = constant
    for u in instance.nodes:
        total = ext_add(total, unary[u][x[u]])
    for (u, v) in instance.edges:
        total = ext_add(total, pairwise[(u, v)][x[u]][x[v]])
    return total


def big_m(instance: EnergyInstance) -> int:
    """Bound strictly exceeding |energy| of every labeling of an all-finite instance.

    1 + |constant| + finite_sum, range-checked.
    """
    if not instance.all_finite:
        raise InstanceError("big_m requires an all-finite instance")
    return check_range(1 + abs(instance.constant) + instance.finite_sum)
