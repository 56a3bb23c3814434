import random
import time
from collections import deque
from dataclasses import replace
from itertools import product

import networkx as nx
import pytest

from mine.cli import run_cli
import mine.solvers
from mine.costs import (I64_MAX, I64_MIN, INF, CostOverflowError, check_range, ext_add,
                        is_finite)
from mine.fileformat import serialize_instance
from mine.generate import (random_forest, random_general, random_potts,
                           random_submodular)
from mine.instance import EnergyInstance, all_labelings, evaluate, make_instance
from mine.solvers import (SolveResult, SolverError, _bk_max_flow, _elimination_plan,
                          adjacency, alpha_expansion, is_forest, is_metric,
                          is_potts, is_submodular_binary, is_submodular_lattice,
                          solve_brute_force, solve_elimination,
                          solve_submodular_qpbo, solve_tree_dp)


def potts_table(k, c):
    return tuple(tuple(0 if a == b else c for b in range(k)) for a in range(k))


# --- brute force --------------------------------------------------------

def test_brute_single_node():
    r = solve_brute_force(make_instance({0: 2}, {0: (0, 5)}))
    assert r.labeling == {0: 0} and r.value == 0 and r.exact


def test_brute_lexicographic_tie_break():
    inst = make_instance({0: 2, 1: 2}, pairwise={(0, 1): ((0, 1), (1, 0))})
    r = solve_brute_force(inst)
    assert r.value == 0
    assert r.labeling == {0: 0, 1: 0}  # (1,1) ties but is lexicographically later


def test_brute_all_inf_still_returns():
    inst = make_instance({0: 2, 1: 2}, {0: (0, 0), 1: (0, 0)},
                         {(0, 1): ((INF, INF), (INF, INF))})
    r = solve_brute_force(inst)
    assert r.value is INF
    assert r.labeling == {0: 0, 1: 0}


def test_brute_returns_first_minimum_over_all_labelings():
    for seed in range(200):
        inst = random_general(seed, inf_prob=0.3)
        values = [(evaluate(inst, x), x) for x in all_labelings(inst)]
        best = min(v for v, _ in values)
        first = next(x for v, x in values if v == best)
        assert solve_brute_force(inst) == SolveResult(first, best, "brute", True)


def test_brute_zero_nodes():
    r = solve_brute_force(make_instance({}, constant=-4))
    assert r.labeling == {} and r.value == -4


def test_brute_limit(monkeypatch):
    inst = make_instance({u: 2 for u in range(5)})
    monkeypatch.setenv("MINE_BRUTE_LIMIT", "16")
    with pytest.raises(SolverError):
        solve_brute_force(inst)
    monkeypatch.delenv("MINE_BRUTE_LIMIT")
    assert solve_brute_force(inst).value == 0


# --- variable elimination ----------------------------------------------

def test_elimination_chain_matches_brute():
    rng = random.Random(1)
    inst = make_instance({0: 3, 1: 3, 2: 3},
                         {u: tuple(rng.randint(0, 9) for _ in range(3)) for u in range(3)},
                         {(0, 1): tuple(tuple(rng.randint(0, 9) for _ in range(3)) for _ in range(3)),
                          (1, 2): tuple(tuple(rng.randint(0, 9) for _ in range(3)) for _ in range(3))})
    assert solve_elimination(inst).value == solve_brute_force(inst).value


def test_elimination_separable():
    inst = make_instance({0: 2, 1: 3}, {0: (4, 1), 1: (2, 0, 7)})
    r = solve_elimination(inst)
    assert r.value == 1  # per-node unary minima: 1 + 0
    assert evaluate(inst, r.labeling) == 1


def test_elimination_respects_explicit_order():
    inst = random_general("elim-order", max_nodes=5)
    order = sorted(inst.nodes, reverse=True)
    assert solve_elimination(inst, order=order).value == solve_brute_force(inst).value


def test_min_fill_order_is_permutation():
    inst = random_general("order", max_nodes=6)
    assert sorted(u for u, _ in _elimination_plan(inst)) == sorted(inst.nodes)


# --- graph structure ----------------------------------------------------

def _structure_corpus():
    for seed in range(200):
        yield random_forest(seed)
        yield random_general(seed)
        yield random_potts(seed)


def test_structure_matches_networkx():
    cyclic_sparse = 0  # cyclic with fewer edges than nodes
    for inst in _structure_corpus():
        g = nx.Graph()
        g.add_nodes_from(inst.nodes)
        g.add_edges_from(inst.edges)
        assert is_forest(inst) == nx.is_forest(g)
        adj = adjacency(inst)
        assert list(adj) == list(g.adj)
        assert all(adj[u] == list(g.adj[u]) for u in inst.nodes)
        cyclic_sparse += not is_forest(inst) and len(inst.edges) < len(inst.nodes)
    assert cyclic_sparse > 0


def test_structure_of_the_empty_instance():
    empty = make_instance({})
    assert is_forest(empty)  # networkx rejects the null graph
    assert adjacency(empty) == {}
    assert empty.all_finite and empty.finite_sum == 0


def test_finite_sum_and_all_finite_match_a_direct_scan():
    verdicts = set()
    for seed in range(200):
        inst = random_general(seed, inf_prob=0.3)
        entries = [c for u in inst.nodes for c in inst.unary[u]]
        entries += [c for e in inst.edges for row in inst.pairwise[e] for c in row]
        expected = all(is_finite(c) for c in entries)
        assert inst.all_finite == expected
        assert inst.finite_sum == sum(abs(c) for c in entries if is_finite(c))
        verdicts.add(expected)
    assert verdicts == {True, False}


# --- tree DP ------------------------------------------------------------

def test_tree_dp_single_node():
    r = solve_tree_dp(make_instance({0: 3}, {0: (4, 1, 2)}))
    assert r.value == 1 and r.labeling == {0: 1}


def test_tree_dp_chain_and_star_match_brute():
    for seed in ("chain4", "star"):
        inst = random_forest(seed, max_nodes=6)
        assert solve_tree_dp(inst).value == solve_brute_force(inst).value


def test_tree_dp_adds_child_messages_in_edge_order():
    # Root 0 adds its children's messages in the order of its edges, and
    # every partial sum is range-checked: big then small overflows.
    zero = ((0,),)
    big, small = I64_MAX - 5, -20
    inst = make_instance({0: 1, 1: 1, 2: 1}, {0: (10,), 1: (big,), 2: (small,)},
                         {(0, 1): zero, (0, 2): zero})
    with pytest.raises(CostOverflowError):
        solve_tree_dp(inst)
    swapped = make_instance({0: 1, 1: 1, 2: 1}, {0: (10,), 1: (small,), 2: (big,)},
                            {(0, 1): zero, (0, 2): zero})
    assert solve_tree_dp(swapped).value == I64_MAX - 15


def test_tree_dp_rejects_cycle():
    t = ((0, 0), (0, 0))
    inst = make_instance({0: 2, 1: 2, 2: 2},
                         pairwise={(0, 1): t, (1, 2): t, (0, 2): t})
    with pytest.raises(SolverError):
        solve_tree_dp(inst)


def _reference_tree_dp(instance):
    """The leaf-to-root message passing that tree DP ran before it became
    elimination along a leaf-first order: each node adds every child's
    message plus edge cost to its unary, child by child in edge order."""
    adj = adjacency(instance)

    def edge_cost(u, w, a, b):
        return instance.pairwise[(u, w)][a][b] if u < w else instance.pairwise[(w, u)][b][a]

    value = instance.constant
    x = {}
    visited = set()
    for root in instance.nodes:
        if root in visited:
            continue
        order = []  # DFS preorder of the component
        stack = [(root, None)]
        parent = {root: None}
        while stack:
            u, par = stack.pop()
            visited.add(u)
            order.append(u)
            for w in adj[u]:
                if w != par:
                    if w in parent:
                        raise SolverError("instance graph contains a cycle")
                    parent[w] = u
                    stack.append((w, u))
        msg = {}
        pick = {}
        for u in reversed(order):
            table = list(instance.unary[u])
            for w in adj[u]:
                if parent.get(w) != u:
                    continue
                for a in range(instance.labels[u]):
                    best = None
                    best_b = None
                    for b in range(instance.labels[w]):
                        v = ext_add(msg[w][b], edge_cost(u, w, a, b))
                        if best is None or v < best:
                            best, best_b = v, b
                    table[a] = ext_add(table[a], best)
                    pick.setdefault(w, [0] * instance.labels[u])[a] = best_b
            msg[u] = table
        root_best = None
        for a in range(instance.labels[root]):
            if root_best is None or msg[root][a] < root_best:
                root_best, x[root] = msg[root][a], a
        value = ext_add(value, root_best)
        for u in order:
            for w in adj[u]:
                if parent.get(w) == u:
                    x[w] = pick[w][x[u]]
    return SolveResult(x, value, "tree-dp", True)


def _tie_heavy_forest(rng):
    """A random forest on 1-12 nodes with ids shuffled, so roots and edge
    orientations vary; about one node in four starts a new tree.  Costs in
    -2..2 tie often, and about one in seven is INF."""
    n = rng.randint(1, 12)
    ids = rng.sample(range(n), n)

    def cost():
        return INF if rng.random() < 0.15 else rng.randint(-2, 2)

    labels = {u: rng.randint(1, 3) for u in ids}
    unary = {}
    for u in ids:
        row = [cost() for _ in range(labels[u])]
        if not any(is_finite(c) for c in row):
            row[rng.randrange(len(row))] = 0
        unary[u] = tuple(row)
    pairwise = {}
    for i in range(1, n):
        if rng.random() < 0.75:
            u, v = ids[rng.randrange(i)], ids[i]
            pairwise[(u, v)] = tuple(tuple(cost() for _ in range(labels[v]))
                                     for _ in range(labels[u]))
    return make_instance(labels, unary, pairwise)


def test_tree_dp_equals_the_message_passing_reference():
    rng = random.Random(8)
    seen = {"inf_entry": 0, "inf_value": 0, "isolated": 0, "components": 0, "tied_unary": 0}
    label_counts = set()
    for _ in range(3000):
        inst = _tie_heavy_forest(rng)
        result = solve_tree_dp(inst)
        assert result == _reference_tree_dp(inst)
        seen["inf_entry"] += not inst.all_finite
        seen["inf_value"] += result.value is INF
        seen["isolated"] += len(inst.nodes) > 1 and not all(adjacency(inst).values())
        seen["components"] += len(inst.nodes) - len(inst.edges) > 1
        seen["tied_unary"] += any(len(set(inst.unary[u])) < inst.labels[u] for u in inst.nodes)
        label_counts |= set(inst.labels.values())
    assert all(seen.values()) and label_counts == {1, 2, 3}


def test_tree_dp_overflow_follows_the_bucket_order():
    # Chain 0 - 1 - 2 rooted at 0, one label each.  Node 1's bucket adds its
    # unary, then the edge to its parent 0, then child 2's message; the
    # message passing added the child's message before the parent edge.
    big = I64_MAX - 5

    def chain(parent_edge, child_message):
        return make_instance({0: 1, 1: 1, 2: 1}, {0: (0,), 1: (big,), 2: (child_message,)},
                             {(0, 1): ((parent_edge,),), (1, 2): ((0,),)})

    raises_now = chain(10, -20)  # big + 10 leaves int64; big - 20 + 10 did not
    with pytest.raises(CostOverflowError):
        solve_tree_dp(raises_now)
    assert _reference_tree_dp(raises_now).value == I64_MAX - 15
    raised_before = chain(-20, 10)
    assert solve_tree_dp(raised_before).value == I64_MAX - 15
    with pytest.raises(CostOverflowError):
        _reference_tree_dp(raised_before)


@pytest.mark.parametrize("shape", ["random", "star", "path"])
def test_tree_dp_on_twenty_thousand_nodes(shape):
    n = 20_000
    rng = random.Random(shape)
    parent = {"random": lambda v: rng.randrange(v), "star": lambda v: 0,
              "path": lambda v: v - 1}[shape]
    inst = make_instance({u: 3 for u in range(n)},
                         {u: tuple(rng.randint(0, 9) for _ in range(3)) for u in range(n)},
                         {(parent(v), v): tuple(tuple(rng.randint(0, 9) for _ in range(3))
                                                for _ in range(3))
                          for v in range(1, n)})
    start = time.perf_counter()
    result = solve_tree_dp(inst)
    elapsed = time.perf_counter() - start
    assert elapsed < 10, f"{shape}: {elapsed:.2f}s against a 10s budget"
    assert result == _reference_tree_dp(inst)


# --- max flow -----------------------------------------------------------

def _terminal_form(n, s, t, arcs):
    """A general s-t network in the flow core's form.

    Returns (inner nodes, terminal residuals, inner arcs, flow moved
    directly), the inner nodes (all but s and t) renumbered in order.  An
    arc s->t moves its capacity directly; an arc into s or out of t carries
    no s-t flow and is dropped; a node with arcs from s and to t moves the
    smaller total directly and keeps the difference, which changes neither
    the max flow nor the nodes the source reaches after it."""
    inner = [u for u in range(n) if u not in (s, t)]
    index = {u: i for i, u in enumerate(inner)}
    from_s, to_t = [0] * len(inner), [0] * len(inner)
    direct = 0
    inner_arcs = []
    for u, v, cap in arcs:
        if (u, v) == (s, t):
            direct += cap
        elif u == t or v == s:
            continue
        elif u == s:
            from_s[index[v]] += cap
        elif v == t:
            to_t[index[u]] += cap
        else:
            inner_arcs.append((index[u], index[v], cap))
    direct += sum(map(min, from_s, to_t))
    return inner, [a - b for a, b in zip(from_s, to_t)], inner_arcs, direct


def _core(n, s, t, arcs):
    """The flow core on a general network: (flow, whether s reaches each node)."""
    inner, terminal, inner_arcs, direct = _terminal_form(n, s, t, arcs)
    flow, side = _bk_max_flow(terminal, inner_arcs, {})
    reachable = [u == s for u in range(n)]
    for u, r in zip(inner, side):
        reachable[u] = r
    return flow + direct, reachable


def _general_form(terminal, arcs):
    """The flow core's input as a general network: (node count, s, t, arcs),
    the source and sink after the nodes."""
    n = len(terminal)
    return n + 2, n, n + 1, [*((n, i, w) for i, w in enumerate(terminal) if w > 0),
                             *((i, n + 1, -w) for i, w in enumerate(terminal) if w < 0),
                             *arcs]


def test_max_flow_single_arc():
    assert _core(2, 0, 1, [(0, 1, 5)]) == (5, [True, False])
    # The sink arc saturates first: the source still reaches both nodes.
    assert _bk_max_flow([5, -3], [(0, 1, 4)], {}) == (3, [True, True])


def test_max_flow_diamond():
    arcs = [(u, v, 1) for u, v in ((0, 1), (0, 2), (1, 3), (2, 3))]
    assert _core(4, 0, 3, arcs)[0] == 2


def test_max_flow_disconnected():
    assert _core(10, 0, 9, [(0, 1, 4)]) == (0, [True, True] + [False] * 8)


def test_max_flow_folds_terminal_arcs_of_a_general_network():
    # s = 0, t = 3: an arc s->t, arcs into s and out of t, node 1 with arcs
    # from s and to t, node 2 with two repeated arcs from s.
    arcs = [(0, 3, 2), (1, 0, 9), (3, 2, 9), (0, 1, 5), (1, 3, 3), (0, 2, 1), (0, 2, 1),
            (2, 3, 7), (1, 2, 4)]
    assert _terminal_form(4, 0, 3, arcs) == ([1, 2], [2, -5], [(0, 1, 4)], 7)
    assert _core(4, 0, 3, arcs) == (9, [True, False, False, False])
    assert _reference_core_general(4, 0, 3, arcs) == (9, [True, False, False, False])


def cut_value(arcs, src_side):
    return sum(cap for u, v, cap in arcs if u in src_side and v not in src_side)


def _random_networks():
    """20 seeded networks of 3-6 nodes, source 0 and sink the last node:
    (node count, arcs)."""
    rng = random.Random(77)
    for _ in range(20):
        n_nodes = rng.randint(3, 6)
        arcs = [(u, v, rng.randint(0, 6)) for u in range(n_nodes) for v in range(n_nodes)
                if u != v and rng.random() < 0.5]
        yield n_nodes, arcs


def _source_sides(n_nodes):
    """Every source side of an s-t cut, by enumeration of the inner nodes."""
    inner = range(1, n_nodes - 1)
    for picks in product((0, 1), repeat=len(inner)):
        yield {0} | {u for u, p in zip(inner, picks) if p}


def test_max_flow_equals_min_enumerated_cut():
    for n_nodes, arcs in _random_networks():
        flow, reachable = _core(n_nodes, 0, n_nodes - 1, arcs)
        best = min(cut_value(arcs, side) for side in _source_sides(n_nodes))
        assert flow == best
        assert cut_value(arcs, {u for u in range(n_nodes) if reachable[u]}) == flow


def test_max_flow_cut_is_the_smallest_min_cut_in_any_arc_order():
    # Every minimum cut's source side contains the one the core returns,
    # whatever order the arcs are given (and so searched) in.
    for n_nodes, arcs in _random_networks():
        flow, reachable = _core(n_nodes, 0, n_nodes - 1, arcs)
        minimum = [side for side in _source_sides(n_nodes) if cut_value(arcs, side) == flow]
        assert {u for u in range(n_nodes) if reachable[u]} == set.intersection(*minimum)
        assert _dinic(n_nodes, 0, n_nodes - 1, arcs) == (flow, reachable)
        for seed in range(5):
            shuffled = list(arcs)
            random.Random(seed).shuffle(shuffled)
            assert _core(n_nodes, 0, n_nodes - 1, shuffled) == (flow, reachable)


def test_max_flow_rejects_a_negative_capacity_set_directly():
    with pytest.raises(SolverError, match="negative capacity"):
        _bk_max_flow([1, -1], [(0, 1, 1), (0, 1, -1)], {})


def test_max_flow_range_checks_every_capacity():
    # The arc u->v is out of range, but at most 1 unit flows through it;
    # 1->0 points against the flow.
    for u, v in ((0, 1), (1, 0)):
        with pytest.raises(CostOverflowError):
            _bk_max_flow([1, 0, -1], [(0, 1, 1), (1, 2, 1), (u, v, I64_MAX + 1)], {})


def test_max_flow_range_checks_every_terminal_residual():
    # At most 1 unit flows; each residual's magnitude is a capacity, so
    # I64_MIN is out of range too.
    assert _bk_max_flow([I64_MAX, -I64_MAX], [(0, 1, 1)], {})[0] == 1
    for terminal in ([I64_MAX + 1, -1], [1, I64_MIN], [1, I64_MIN - 1]):
        with pytest.raises(CostOverflowError):
            _bk_max_flow(terminal, [(0, 1, 1)], {})


def test_max_flow_range_checks_the_running_flow():
    # Two disjoint paths, each in range, whose flows add up past I64_MAX.
    terminal = [I64_MAX, I64_MAX, -I64_MAX, -I64_MAX]
    with pytest.raises(CostOverflowError):
        _bk_max_flow(terminal, [(0, 2, I64_MAX), (1, 3, I64_MAX)], {})


def test_min_cut_checks_partial_sums_when_its_bound_leaves_int64():
    # |constant| + 2 finite_sum passes I64_MAX, so every partial sum is
    # checked: the pair's f(0, 0) = 2 takes the constant past I64_MAX
    # before x_0's label-1 cost of -5 would bring it back.  The optimum,
    # x_0 = 1, is I64_MAX - 6; brute force overflows on x_0 = 0.
    inst = make_instance({0: 2, 1: 2}, {0: (0, -5)}, {(0, 1): ((2, 2), (0, 0))},
                         constant=I64_MAX - 1)
    assert evaluate(inst, {0: 1, 1: 0}) == I64_MAX - 6
    with pytest.raises(CostOverflowError, match=f"cost {2**63} outside"):
        solve_submodular_qpbo(inst)
    with pytest.raises(CostOverflowError):
        solve_brute_force(inst)


def test_min_cut_unchecked_sums_give_the_checked_cut():
    # While |constant| + 2 magnitude fits in int64 the terms are added
    # unchecked; a magnitude that does not fit forces every check, and
    # both give the same cut, value and counts.
    for seed in range(40):
        inst = random_submodular(seed, max_nodes=8)
        unary = [inst.unary[u] for u in inst.nodes]
        pairs = mine.solvers._edge_indices(inst)
        runs = [(mine.solvers._min_cut(unary, pairs, inst.constant, magnitude, counters),
                 counters)
                for magnitude, counters in ((inst.finite_sum, {}), (I64_MAX, {}))]
        assert runs[0] == runs[1]
        assert runs[0][0][1] == solve_brute_force(inst).value


def test_alpha_expansion_near_int64_takes_the_checked_sums():
    # A constant near I64_MAX leaves the bound out of range, so each move's
    # partial sums are checked; every energy still fits, and the moves are
    # those of the unshifted grid.
    grid = potts_grid(3, 6, 6, 3)
    shift = I64_MAX - grid.finite_sum
    shifted = replace(grid, constant=shift)
    assert abs(shift) + 8 * grid.finite_sum > I64_MAX
    got, expected = alpha_expansion(shifted), alpha_expansion(grid)
    assert got.labeling == expected.labeling and got.stats == expected.stats
    assert got.move_values == tuple(v + shift for v in expected.move_values)


def _reference_max_flow(s, t, arcs):
    """Edmonds-Karp as it was: one BFS from the source per augmenting path.

    Repeated arcs add up.  Returns the flow value and the set of nodes the
    source reaches in the final residual graph."""
    residual = {s: {}, t: {}}
    for u, v, cap in arcs:
        out = residual.setdefault(u, {})
        out[v] = check_range(out.get(v, 0) + cap)
        residual.setdefault(v, {}).setdefault(u, 0)
    flow = 0
    while True:
        prev = {s: None}
        queue = deque([s])
        while queue and t not in prev:
            u = queue.popleft()
            for v, r in residual[u].items():
                if r > 0 and v not in prev:
                    prev[v] = u
                    queue.append(v)
        if t not in prev:
            break
        path = []
        v = t
        while prev[v] is not None:
            path.append((prev[v], v))
            v = prev[v]
        bottleneck = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= bottleneck
            residual[v][u] += bottleneck
        flow = check_range(flow + bottleneck)
    reachable = {s}
    stack = [s]
    while stack:
        u = stack.pop()
        for v, r in residual[u].items():
            if r > 0 and v not in reachable:
                reachable.add(v)
                stack.append(v)
    return flow, reachable


def _reference_core_general(n, s, t, arcs):
    """_reference_max_flow with the core's result shape on a general network."""
    flow, source_side = _reference_max_flow(s, t, arcs)
    return flow, [u in source_side for u in range(n)]


def _reference_core(terminal, arcs, counters):
    """A stand-in for the flow core that runs _reference_max_flow instead."""
    flow, reachable = _reference_core_general(*_general_form(terminal, arcs))
    return flow, reachable[:len(terminal)]


def _dinic(n, s, t, arcs):
    """Dinic's max flow (1970) from s to t over nodes 0..n-1, the flow core
    before Boykov-Kolmogorov.

    Each of arcs is (i, j, capacity), a one-way arc whose reverse starts at
    0; every capacity and the running flow are range-checked.  Arc a runs
    to head[a] with residual capacity cap[a], its reverse is arc a ^ 1, and
    adj[u] lists the arcs out of u.  Each phase builds the BFS level graph,
    stopping once the sink is labelled, then saturates it by an iterative
    DFS with a current-arc pointer per node.  Returns the flow value and,
    per node, whether the source reaches it in the final residual graph.
    """
    head, cap = [], []
    adj = [[] for _ in range(n)]
    for i, j, c in arcs:
        if c < 0:
            raise SolverError("negative capacity")
        check_range(c)
        if c:
            adj[i].append(len(head))
            adj[j].append(len(head) + 1)
            head += (j, i)
            cap += (c, 0)
    flow = 0
    while True:
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
    return flow, [d >= 0 for d in level]


def _awkward_networks():
    """40 seeded arc lists over 20-200 nodes, with their features."""
    rng = random.Random(2016)
    for k in range(40):
        n_nodes = rng.randint(20, 200)
        s, t = rng.sample(range(n_nodes), 2)
        arcs = []
        features = set()
        for i in range(rng.randint(3 * n_nodes, 6 * n_nodes)):
            u, v = rng.randrange(n_nodes), rng.randrange(n_nodes)
            if i < 6:  # a few arcs out of the source and into the sink
                u, v = (s, u) if i % 2 else (v, t)
            if k % 10 == 9 and v == t:
                continue  # no arc into the sink: the sink is unreachable
            cap = rng.choice((0, rng.randint(1, 9), rng.randint(1, 10**12)))
            features.add("self-loop" if u == v else "zero" if cap == 0 else "arc")
            if any((a, b) == (v, u) for a, b, _ in arcs) and u != v:
                features.add("antiparallel")
            if any((a, b) == (u, v) for a, b, _ in arcs):
                features.add("repeated")
            arcs.append((u, v, cap))
        yield n_nodes, s, t, arcs, features


def test_max_flow_matches_edmonds_karp_on_awkward_networks():
    features = set()
    flows = []
    for n_nodes, s, t, arcs, found in _awkward_networks():
        features |= found
        result = _core(n_nodes, s, t, arcs)
        assert result == _reference_core_general(n_nodes, s, t, arcs)
        assert result == _dinic(n_nodes, s, t, arcs)
        flows.append(result[0])
    assert features == {"arc", "self-loop", "zero", "antiparallel", "repeated"}
    assert 0 in flows and sum(f > 0 for f in flows) > 30


def _grid_cut_networks(monkeypatch):
    """Every network the min-cut routine hands the flow core on seeded
    20x20 binary and 12x12 4-label Potts grids, as (terminal residuals,
    arcs, the core's result)."""
    core = mine.solvers._bk_max_flow
    seen = []

    def recording(terminal, arcs, counters):
        result = core(terminal, arcs, counters)
        seen.append((list(terminal), list(arcs), result))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(mine.solvers, "_bk_max_flow", recording)
        for seed in range(3):
            solve_submodular_qpbo(potts_grid(seed, 20, 20, 2))
            alpha_expansion(potts_grid(seed, 12, 12, 4))
    return seen


def test_min_cut_networks_match_edmonds_karp_and_networkx(monkeypatch):
    networks = _grid_cut_networks(monkeypatch)
    assert len(networks) > 3 + 3 * 3
    for terminal, arcs, result in networks:
        assert result == _reference_core(terminal, arcs, {})
        assert _bk_max_flow(terminal, arcs, {}) == result
        n, s, t, general = _general_form(terminal, arcs)
        flow, reachable = _dinic(n, s, t, general)
        assert (flow, reachable[:len(terminal)]) == result
        capacity = {}
        for u, v, c in general:
            capacity[(u, v)] = capacity.get((u, v), 0) + c
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_weighted_edges_from(((u, v, c) for (u, v), c in capacity.items()),
                                  weight="capacity")
        assert nx.minimum_cut_value(g, s, t) == flow


def test_max_flow_treats_its_two_trees_alike(monkeypatch):
    # Reversing every arc and swapping the terminals makes the source tree
    # grow where the sink tree grew, so a slip on one side of a walk moves
    # the counts.
    networks = [(terminal, arcs) for terminal, arcs, _ in _grid_cut_networks(monkeypatch)]
    rng = random.Random(3401)
    for _ in range(300):
        n = rng.randint(2, 7)
        arcs = [(*rng.sample(range(n), 2), rng.choice((0, rng.randint(1, 9))))
                for _ in range(rng.randint(1, 3 * n))]
        networks.append(([rng.randint(-9, 9) for _ in range(n)], arcs))
    orphaned = 0
    for terminal, arcs in networks:
        counts, mirror_counts = {}, {}
        flow = _bk_max_flow(terminal, arcs, counts)[0]
        mirrored = [-r for r in terminal], [(j, i, c) for i, j, c in arcs]
        assert _bk_max_flow(*mirrored, mirror_counts)[0] == flow
        assert mirror_counts == counts
        orphaned += counts["orphans"] > 0
    assert orphaned > 50  # adoption runs on over 50 of the networks


# --- interaction checks -------------------------------------------------

def test_is_submodular_binary_tables():
    sub = make_instance({0: 2, 1: 2}, pairwise={(0, 1): ((0, 1), (1, 0))})
    assert is_submodular_binary(sub)
    notsub = make_instance({0: 2, 1: 2}, pairwise={(0, 1): ((1, 0), (0, 1))})
    assert not is_submodular_binary(notsub)
    zero = make_instance({0: 2, 1: 2}, pairwise={(0, 1): ((0, 0), (0, 0))})
    assert is_submodular_binary(zero)


def test_submodular_binary_preconditions():
    with pytest.raises(SolverError):
        is_submodular_binary(make_instance({0: 3}, {0: (0, 0, 0)}))


def test_interaction_checks_compare_inf_in_the_extended_order():
    pair = {0: 2, 1: 2}
    assert is_submodular_binary(make_instance(pair, pairwise={(0, 1): ((0, INF), (0, 0))}))
    assert not is_submodular_binary(make_instance(pair, pairwise={(0, 1): ((INF, 0), (0, 0))}))
    assert not is_submodular_lattice(make_instance(pair, pairwise={(0, 1): ((0, 0), (0, INF))}))
    far = make_instance(pair, pairwise={(0, 1): ((0, INF), (INF, 0))})
    assert is_potts(far) and is_metric(far)
    assert not is_metric(make_instance(pair, pairwise={(0, 1): ((0, INF), (1, 0))}))


INF_CASES = [  # method, an instance with an INF entry, the stderr the CLI prints
    ("mincut", make_instance({0: 2, 1: 2}, pairwise={(0, 1): ((0, INF), (0, 0))}),
     "error: infinite unary or pairwise entry\n"),
    ("mincut", make_instance({0: 2, 1: 2}, pairwise={(0, 1): ((INF, 0), (0, 0))}),
     "error: infinite unary or pairwise entry\n"),
    ("mincut", make_instance({0: 3, 1: 2}, {0: (0, 0, INF)}),
     "error: submodularity check requires a binary instance\n"),
    ("alphaexp", make_instance({0: 3, 1: 3}, pairwise={(0, 1): potts_table(3, INF)}),
     "error: infinite unary or pairwise entry\n"),
    ("alphaexp", make_instance({0: 3, 1: 2}, {0: (0, 0, INF)}),
     "error: infinite unary or pairwise entry\n"),
    ("alphaexp", make_instance({0: 2, 1: 2}, {0: (0, INF)}, {(0, 1): ((0, 2), (1, 0))}),
     "error: infinite unary or pairwise entry\n"),
]


@pytest.mark.parametrize("method, inst, err", INF_CASES)
def test_cut_solvers_reject_inf_entries(tmp_path, capsys, method, inst, err):
    path = tmp_path / "inf.mine"
    path.write_text(serialize_instance(inst))
    assert run_cli(["solve", str(path), "--method", method]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_lattice_submodular_absolute_difference():
    t = tuple(tuple(abs(a - b) for b in range(3)) for a in range(3))
    inst = make_instance({0: 3, 1: 3}, pairwise={(0, 1): t})
    assert is_submodular_lattice(inst)


def test_lattice_submodular_potts_fails_on_3_labels():
    inst = make_instance({0: 3, 1: 3}, pairwise={(0, 1): potts_table(3, 1)})
    # check (0,1): f(0,2)+f(1,1) = 1 < f(0,1)+f(1,2) is fine; the violation is
    # at (i,j)=(0,1): f(0,2)+f(1,1)=1+0 < f(0,1)+f(1,2)=2 -- exhaustive check decides
    assert not is_submodular_lattice(inst)


def test_lattice_restricted_to_binary_agrees():
    for seed in range(20):
        inst = random_submodular(seed, max_nodes=5)
        assert is_submodular_lattice(inst) == is_submodular_binary(inst)


def test_is_potts_and_metric():
    potts = make_instance({0: 3, 1: 3}, pairwise={(0, 1): potts_table(3, 2)})
    assert is_potts(potts) and is_metric(potts)

    t = ((0, 1, 5), (1, 0, 1), (5, 1, 0))  # violates triangle: 5 > 1 + 1
    tri = make_instance({0: 3, 1: 3}, pairwise={(0, 1): t})
    assert not is_metric(tri) and not is_potts(tri)

    asym = make_instance({0: 2, 1: 2}, pairwise={(0, 1): ((0, 2), (1, 0))})
    assert not is_metric(asym) and not is_potts(asym)


def test_random_potts_is_metric():
    for seed in range(10):
        inst = random_potts(seed, max_nodes=6)
        assert is_potts(inst) and is_metric(inst)


# --- min-cut solver -----------------------------------------------------

def test_submodular_qpbo_hand_instance():
    inst = make_instance({0: 2, 1: 2}, {0: (0, 1), 1: (1, 0)},
                         {(0, 1): ((0, 2), (2, 0))})
    assert solve_submodular_qpbo(inst).value == solve_brute_force(inst).value


def test_submodular_qpbo_separable():
    inst = make_instance({0: 2, 1: 2}, {0: (3, -1), 1: (-2, 5)})
    r = solve_submodular_qpbo(inst)
    assert r.value == -3
    assert r.labeling == {0: 1, 1: 0}


def test_submodular_qpbo_rejects_nonsubmodular():
    inst = make_instance({0: 2, 1: 2}, pairwise={(0, 1): ((1, 0), (0, 1))})
    with pytest.raises(SolverError):
        solve_submodular_qpbo(inst)


def test_submodular_qpbo_random_batch():
    for seed in range(60):
        inst = random_submodular(seed, max_nodes=7)
        assert solve_submodular_qpbo(inst).value == solve_brute_force(inst).value, seed


def test_submodular_qpbo_checks_its_labeling(monkeypatch):
    import mine.solvers
    monkeypatch.setattr(mine.solvers, "evaluate", lambda inst, x: evaluate(inst, x) + 1)
    with pytest.raises(SolverError):
        solve_submodular_qpbo(random_submodular(3, max_nodes=5))


# --- alpha expansion ----------------------------------------------------

def test_alpha_expansion_at_optimum_is_stable():
    inst = make_instance({0: 3, 1: 3}, {0: (0, 5, 5), 1: (0, 5, 5)},
                         {(0, 1): potts_table(3, 1)})
    r = alpha_expansion(inst)
    assert r.value == 0
    assert r.labeling == {0: 0, 1: 0}
    assert not r.exact


def test_alpha_expansion_on_the_empty_instance():
    # No nodes is a uniform label count of 0: no move is tried.
    r = alpha_expansion(make_instance({}, constant=4))
    assert (r.labeling, r.value, r.move_values) == ({}, 4, (4,))
    assert r.stats == {"augmenting_paths": 0, "orphans": 0, "moves_tried": 0}
    assert is_potts(make_instance({})) and is_metric(make_instance({}))


def test_alpha_expansion_requires_metric():
    inst = make_instance({0: 2, 1: 2}, pairwise={(0, 1): ((0, 2), (1, 0))})
    with pytest.raises(SolverError):
        alpha_expansion(inst)


def test_alpha_expansion_checks_its_final_energy(monkeypatch):
    # A cut routine that reports one less than its labeling costs makes the
    # move energy disagree with the labeling.
    import mine.solvers
    exact = mine.solvers._min_cut

    def optimistic(*args):
        x, value = exact(*args)
        return x, value - 1

    monkeypatch.setattr(mine.solvers, "_min_cut", optimistic)
    with pytest.raises(SolverError, match="does not attain"):
        alpha_expansion(random_potts(1, max_nodes=5))


def test_alpha_expansion_checks_every_move(monkeypatch):
    # A cut routine that reports one more than its labeling costs only makes
    # moves look worse: the final energy still agrees, each move's does not.
    import mine.solvers
    exact = mine.solvers._min_cut

    def pessimistic(*args):
        x, value = exact(*args)
        return x, value + 1

    monkeypatch.setattr(mine.solvers, "_min_cut", pessimistic)
    with pytest.raises(SolverError, match="does not attain the cut value"):
        alpha_expansion(random_potts(1, max_nodes=5))


def test_alpha_expansion_ratio_and_monotone_moves():
    for seed in range(30):
        inst = random_potts(seed, max_nodes=7)
        r = alpha_expansion(inst)
        opt = solve_brute_force(inst).value
        if opt > 0:
            assert r.value <= 2 * opt, seed
        assert all(b <= a for a, b in zip(r.move_values, r.move_values[1:])), seed
        assert evaluate(inst, r.labeling) == r.value


def _expansion_move_instance(instance, x, alpha):
    """Binary instance for the move: label 0 keeps x, label 1 switches to alpha."""
    unary = {u: (instance.unary[u][x[u]], instance.unary[u][alpha]) for u in instance.nodes}
    pairwise = {}
    for (u, v) in instance.edges:
        t = instance.pairwise[(u, v)]
        pairwise[(u, v)] = ((t[x[u]][x[v]], t[x[u]][alpha]),
                            (t[alpha][x[v]], t[alpha][alpha]))
    return EnergyInstance(nodes=instance.nodes, unary=unary, pairwise=pairwise,
                          constant=instance.constant)


def _reference_alpha_expansion(instance):
    """Alpha-expansion as it was: each move a validated instance for the
    min-cut solver, in full sweeps until one improves nothing; ``stats``
    count the moves tried."""
    if not is_metric(instance):
        raise SolverError("alpha expansion requires a metric instance")
    k = instance.labels[instance.nodes[0]]
    x = {u: 0 for u in instance.nodes}
    current = evaluate(instance, x)
    moves = [current]
    tried = 0
    improved = True
    while improved:
        improved = False
        for alpha in range(k):
            res = solve_submodular_qpbo(_expansion_move_instance(instance, x, alpha))
            tried += 1
            if res.value < current:
                x = {u: (alpha if res.labeling[u] == 1 else x[u]) for u in instance.nodes}
                current = res.value
                moves.append(current)
                improved = True
    return SolveResult(x, current, "alpha-expansion", False, tuple(moves),
                       {"moves_tried": tried})


def potts_grid(seed, rows, cols, k):
    """rows x cols 4-neighbour Potts grid: unary costs 0-20, edge weights 1-10."""
    rng = random.Random(f"grid:{seed}")
    node = {(r, c): r * cols + c for r in range(rows) for c in range(cols)}
    unary = {u: tuple(rng.randint(0, 20) for _ in range(k)) for u in node.values()}
    pairwise = {}
    for (r, c), u in node.items():
        for nb in ((r + 1, c), (r, c + 1)):
            if nb in node:
                pairwise[(u, node[nb])] = potts_table(k, rng.randint(1, 10))
    return make_instance({u: k for u in node.values()}, unary, pairwise)


def test_alpha_expansion_matches_the_move_instance_route():
    # The early stop skips only moves that must fail: the same moves are
    # accepted as in full sweeps, and no more moves are tried.
    corpus = [random_potts(seed) for seed in range(100)]
    corpus += [potts_grid(seed, n, n, 3) for n in (5, 8) for seed in range(3)]
    corpus += [potts_grid(seed, 20, 20, 4) for seed in range(3)]
    moves = tried = swept = 0
    for inst in corpus:
        r = alpha_expansion(inst)
        reference = _reference_alpha_expansion(inst)
        assert r == reference  # move_values included
        assert r.stats["moves_tried"] <= reference.stats["moves_tried"]
        moves += len(r.move_values) - 1
        tried += r.stats["moves_tried"]
        swept += reference.stats["moves_tried"]
    assert moves > len(corpus)
    assert tried < swept


def test_cut_solvers_count_paths_orphans_and_moves(monkeypatch):
    cut = solve_submodular_qpbo(potts_grid(0, 3, 3, 2))
    assert cut.stats == {"augmenting_paths": 7, "orphans": 6}
    assert replace(cut, stats={}) == cut  # the counters stay out of ==
    # Alpha-expansion sums the core's counts over every move it tries.
    core = mine.solvers._bk_max_flow
    per_move = []

    def recording(terminal, arcs, counters):
        own = {}
        result = core(terminal, arcs, own)
        per_move.append(own)
        for key, count in own.items():
            counters[key] += count
        return result

    monkeypatch.setattr(mine.solvers, "_bk_max_flow", recording)
    moves = alpha_expansion(potts_grid(0, 4, 4, 3))
    assert moves.move_values == (137, 110, 102)
    assert moves.stats == {"augmenting_paths": 28, "orphans": 16, "moves_tried": 4}
    assert len(per_move) == 4
    assert sum(c["augmenting_paths"] for c in per_move) == 28
    assert sum(c["orphans"] for c in per_move) == 16


def _grid_labels(instance, labeling):
    """The labels in node order, one string per 20 (binary) or 12 nodes."""
    text = "".join(str(labeling[u]) for u in instance.nodes)
    cols = 20 if len(text) == 400 else 12
    return [text[i:i + cols] for i in range(0, len(text), cols)]


def test_cut_solvers_are_pinned_on_seeded_grids():
    binary = potts_grid(0, 20, 20, 2)
    cut = solve_submodular_qpbo(binary)
    assert (cut.value, cut.method, cut.exact, cut.move_values) == (3584, "mincut", True, ())
    assert cut.stats == {"augmenting_paths": 372, "orphans": 414}
    assert _grid_labels(binary, cut.labeling) == [
        "11111101000000000111", "11111111000000001111", "11111110000000001111",
        "11111110000000000011", "11111111000000100111", "11111111000011100011",
        "11111111100001100011", "11111111110000100011", "11111111110000000011",
        "11111111000000000001", "11110111000000000000", "11110111000111000000",
        "11110111000001000000", "11111110000000000000", "11111110000000000000",
        "11111110000000000000", "11111000000000000000", "11111110000000000000",
        "11111110000000000000", "11111110000000000000"]
    potts = potts_grid(0, 12, 12, 4)
    moves = alpha_expansion(potts)
    assert (moves.value, moves.method, moves.exact) == (1155, "alpha-expansion", False)
    assert moves.move_values == (1419, 1326, 1218, 1160, 1158, 1155)
    assert moves.stats == {"augmenting_paths": 815, "orphans": 686, "moves_tried": 8}
    assert _grid_labels(potts, moves.labeling) == [
        "333002223222", "131111113222", "111111112222", "111111112222",
        "111110011122", "111110003111", "111111133313", "111111133333",
        "033333333333", "033333033113", "200330033222", "220000033112"]


def test_alpha_expansion_builds_no_instance(instance_constructions):
    inst = potts_grid(0, 5, 5, 3)
    assert instance_constructions == [1]  # the counter counts
    alpha_expansion(inst)
    assert instance_constructions == [1]


# --- oracle agreement ---------------------------------------------------

def test_oracle_agreement_all_solvers():
    for seed in range(40):
        forest = random_forest(seed, max_nodes=7)
        assert solve_tree_dp(forest).value == solve_brute_force(forest).value
        gen = random_general(seed, max_nodes=5, inf_prob=0.1)
        assert solve_elimination(gen).value == solve_brute_force(gen).value
        sub = random_submodular(seed, max_nodes=6)
        assert solve_submodular_qpbo(sub).value == solve_brute_force(sub).value
