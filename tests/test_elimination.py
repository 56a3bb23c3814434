"""Flat-table bucket elimination against the dict-based loop it replaced.

_reference_elimination is the earlier implementation, kept as an oracle:
every joint entry builds a dict context and pays one tuple key, one dict
lookup and one ext_add per factor, and each separator is read off the
bucket's scopes.  The solver must return an equal SolveResult (labeling,
value, method, exact) with equal stats on every input and raise the same
errors, with the same message.  _reference_min_fill_order is the oracle
for the order: it recomputes every live node's fill at every step.
"""

import math
import random
import time
from itertools import permutations, product

import networkx as nx
import pytest
from networkx.algorithms.approximation import treewidth_min_fill_in

from mine import solvers
from mine.costs import I64_MAX, I64_MIN, INF, CostOverflowError, ext_add
from mine.generate import random_general
from mine.instance import InstanceError, evaluate, make_instance
from mine.solvers import (DEFAULT_ELIM_LIMIT, SolveResult, SolverError, _broadcast,
                          _elimination_plan, adjacency, solve_brute_force, solve_elimination,
                          solve_tree_dp)


def _reference_elimination(instance, order=None):
    if order is None:
        order = _reference_min_fill_order(instance)
    if sorted(order) != sorted(instance.nodes):
        raise SolverError("elimination order must be a permutation of the nodes")
    width_limit = solvers.DEFAULT_ELIM_LIMIT  # read per call, as tests patch it

    # Factors: (scope tuple, table dict scope-assignment -> Cost).
    factors = []
    for u in instance.nodes:
        factors.append(((u,), {(a,): instance.unary[u][a]
                               for a in range(instance.labels[u])}))
    for (u, v) in instance.edges:
        table = instance.pairwise[(u, v)]
        factors.append(((u, v), {(a, b): table[a][b]
                                 for a in range(instance.labels[u])
                                 for b in range(instance.labels[v])}))

    eliminated = []  # (node, separator scope, argmin table)
    max_separator = joint_entries = 0
    for u in order:
        bucket = [f for f in factors if u in f[0]]
        factors = [f for f in factors if u not in f[0]]
        sep = sorted({w for scope, _ in bucket for w in scope if w != u})
        size = 1
        for w in sep:
            size *= instance.labels[w]
        if size > width_limit:
            raise SolverError(f"separator size {size} exceeds elimination bound")
        max_separator = max(max_separator, len(sep))
        joint_entries += size * instance.labels[u]
        # The bucket sum over every joint entry, in the row order of the
        # sorted separator with u last, taken factor by factor across all
        # entries: an overflow names the first entry out of range at the
        # first factor that takes one out.
        k = instance.labels[u]
        joint = (*sep, u)
        contexts = [dict(zip(joint, assign))
                    for assign in product(*(range(instance.labels[w]) for w in joint))]
        sums = [0] * len(contexts)
        for scope, table in bucket:
            sums = [ext_add(v, table[tuple(ctx[w] for w in scope)])
                    for v, ctx in zip(sums, contexts)]
        message = {}
        argmin = {}
        for i, sep_assign in enumerate(product(*(range(instance.labels[w]) for w in sep))):
            run = sums[i * k:(i + 1) * k]
            message[sep_assign] = min(run)
            argmin[sep_assign] = run.index(message[sep_assign])  # the first minimum
        factors.append((tuple(sep), message))
        eliminated.append((u, tuple(sep), argmin))

    value = instance.constant
    for scope, table in factors:
        if scope != ():
            raise SolverError(f"elimination left a factor over {scope}")
        value = ext_add(value, table[()])

    x = {}
    for u, sep, argmin in reversed(eliminated):
        x[u] = argmin[tuple(x[w] for w in sep)]
    return SolveResult(x, value, "elimination", True,
                       stats={"max_separator": max_separator,
                              "joint_entries": joint_entries})


def _eliminate(adj, u):
    """Drop u from the elimination graph adj, its neighbours made a clique."""
    nbrs = adj.pop(u)
    for a in nbrs:
        adj[a] |= nbrs - {a}
        adj[a].discard(u)
    return nbrs


def _reference_min_fill_order(instance):
    """Fewest fill edges first, then fewest live neighbours, then smallest id."""
    adj = {u: set(nbrs) for u, nbrs in adjacency(instance).items()}

    def key(w):
        nbrs = adj[w]
        fill = sum(1 for a in nbrs for b in nbrs if a < b and b not in adj[a])
        return fill, len(nbrs), w

    order = []
    while adj:
        order.append(min(adj, key=key))
        _eliminate(adj, order[-1])
    return order


def _separators(instance, order):
    adj = {u: set(nbrs) for u, nbrs in adjacency(instance).items()}
    return [sorted(_eliminate(adj, u)) for u in order]


def _outcome(solve, instance, order=None):
    """The SolveResult, or the error's type, and the error's message."""
    try:
        return solve(instance, order), None
    except (SolverError, CostOverflowError) as exc:
        return type(exc), str(exc)


def assert_same(instance, order=None):
    expected, message = _outcome(_reference_elimination, instance, order)
    got, got_message = _outcome(solve_elimination, instance, order)
    assert (got, got_message) == (expected, message)
    if isinstance(expected, SolveResult):
        assert got.stats == expected.stats
    return expected


def potts_grid(side, k, seed):
    rng = random.Random(seed)
    n = side * side
    unary = {u: tuple(rng.randint(0, 20) for _ in range(k)) for u in range(n)}
    pairwise = {}
    for u in range(n):
        for v in ([u + 1] if (u + 1) % side else []) + ([u + side] if u + side < n else []):
            w = rng.randint(1, 10)
            pairwise[(u, v)] = tuple(tuple(0 if a == b else w for b in range(k))
                                     for a in range(k))
    return make_instance({u: k for u in range(n)}, unary, pairwise)


# --- equal results ------------------------------------------------------

def test_random_general_with_infinities_and_mixed_labels():
    for seed in range(200):
        inst = random_general(seed, max_nodes=7, max_labels=4, inf_prob=0.3)
        assert isinstance(assert_same(inst), SolveResult), seed


def test_reversed_and_shuffled_orders():
    for seed in range(100):
        inst = random_general(f"order-{seed}", max_nodes=7, max_labels=4, inf_prob=0.3)
        order = list(inst.nodes)
        assert_same(inst, order[::-1])
        random.Random(seed).shuffle(order)
        assert_same(inst, order)


def test_criterion5_planarized_outputs(criterion5_outputs):
    for out, _, _ in criterion5_outputs:
        assert_same(out)


@pytest.mark.parametrize("side", [4, 5, 6])
def test_three_label_potts_grids(side):
    for seed in range(3):
        result = assert_same(potts_grid(side, 3, seed))
        assert evaluate(potts_grid(side, 3, seed), result.labeling) == result.value


def test_zero_and_one_node_instances():
    empty = make_instance({})
    assert solve_elimination(empty) == SolveResult({}, 0, "elimination", True)
    assert_same(make_instance({}, constant=-7))
    one = make_instance({5: 3}, {5: (4, INF, 1)}, constant=2)
    assert assert_same(one) == SolveResult({5: 2}, 3, "elimination", True)
    assert_same(make_instance({0: 1}, {0: (-3,)}))


def test_all_inf_run_takes_label_zero():
    # Every pair of labels is forbidden, so each run of the first message
    # is all INF; INF sums must not be told apart by the finite unary costs
    # riding on them, and the first label wins as in the reference.
    inst = make_instance({0: 3, 1: 2}, {0: (5, 0, 3), 1: (2, 0)},
                         {(0, 1): ((INF, INF), (INF, INF), (INF, INF))})
    result = assert_same(inst, [0, 1])
    assert result == SolveResult({0: 0, 1: 0}, INF, "elimination", True)
    brute = solve_brute_force(inst)
    assert (brute.labeling, brute.value) == (result.labeling, result.value)


def test_partial_inf_run_takes_first_finite_minimum():
    inst = make_instance({0: 3, 1: 2}, {0: (0, 4, 4), 1: (0, 0)},
                         {(0, 1): ((INF, 0), (INF, 0), (INF, INF))})
    assert assert_same(inst, [0, 1]) == SolveResult({0: 0, 1: 1}, 0, "elimination", True)


def test_over_wide_separator_raises_same_error(monkeypatch):
    inst = make_instance({u: 3 for u in range(4)},
                         pairwise={(u, v): ((0,) * 3,) * 3
                                   for u in range(4) for v in range(u + 1, 4)})
    monkeypatch.setattr(solvers, "DEFAULT_ELIM_LIMIT", 26)
    with pytest.raises(SolverError) as expected:
        _reference_elimination(inst)
    with pytest.raises(SolverError) as got:
        solve_elimination(inst)
    assert str(got.value) == str(expected.value) == "separator size 27 exceeds elimination bound"
    monkeypatch.setattr(solvers, "DEFAULT_ELIM_LIMIT", 27)
    assert isinstance(assert_same(inst), SolveResult)


def test_bad_order_raises():
    inst = random_general("bad-order", max_nodes=4)
    with pytest.raises(SolverError):
        solve_elimination(inst, order=list(inst.nodes) + [max(inst.nodes) + 1])


# --- shared tables and zero unaries --------------------------------------

def _shared_table_instance(rng, n, k, inf):
    """A chain with random chords whose edges all hold one table object, over
    unary rows that are often zero on their node's domain: all zeros (one
    shared row), or 0 and INF entries with one 0; node n has no edge and a
    zero unary.  With inf false no entry is INF."""
    def cost(high):
        return INF if inf and rng.random() < 0.25 else rng.randint(0, high)

    table = tuple(tuple(cost(5) for _ in range(k)) for _ in range(k))
    zero = (0,) * k
    unary = {}
    for u in range(n):
        kind = rng.randrange(3)
        if kind == 0:
            unary[u] = zero
        else:
            row = [0 if kind == 1 and c is not INF else c for c in (cost(4) for _ in range(k))]
            row[rng.randrange(k)] = 0
            unary[u] = tuple(row)
    unary[n] = zero
    pairwise = {(u, v): table for u in range(n) for v in range(u + 1, n)
                if v == u + 1 or rng.random() < 0.3}
    return make_instance({u: k for u in range(n + 1)}, unary, pairwise)


def test_one_table_object_shared_both_ways_round_over_restricted_domains():
    # Along a shuffled order an edge's bucket node comes first or second in
    # its stored key, so one table object is read both ways round, over
    # domains that INF unary entries cut down; zero unaries sit beside INF
    # entries, and an isolated node's zero unary leaves its bucket empty.
    rng = random.Random(31)
    both_ways = restricted = zero_on_domain = 0
    for i in range(300):
        inst = _shared_table_instance(rng, rng.randint(2, 7), rng.randint(2, 3), i % 3 != 0)
        assert len({id(t) for t in inst.pairwise.values()}) == 1
        order = list(inst.nodes)
        rng.shuffle(order)
        assert isinstance(assert_same(inst, order), SolveResult)
        assert isinstance(assert_same(inst), SolveResult)
        position = {u: p for p, u in enumerate(order)}
        both_ways += len({position[u] < position[v] for u, v in inst.edges}) == 2
        rows = [row for u, row in inst.unary.items() if u != len(inst.nodes) - 1]
        restricted += any(INF in row[1:] for row in rows)
        zero_on_domain += any(INF in row and all(c is INF or c == 0 for c in row) for row in rows)
    assert both_ways > 100 and restricted > 60 and zero_on_domain > 50, (
        both_ways, restricted, zero_on_domain)


def test_a_solve_leaves_the_tables_as_they_were_and_repeats(criterion5_outputs):
    rng = random.Random(37)
    instances = [out for out, _, _ in criterion5_outputs[:20]]
    instances += [_shared_table_instance(rng, 6, 3, True) for _ in range(20)]

    def entries(inst):
        return ({u: list(row) for u, row in inst.unary.items()},
                {e: [list(row) for row in table] for e, table in inst.pairwise.items()})

    for inst in instances:
        before = entries(inst)
        first = solve_elimination(inst)
        second = solve_elimination(inst)
        assert (first, first.stats) == (second, second.stats)
        assert entries(inst) == before


# --- label domains: each node's finite-unary labels ----------------------

def _sparse_unary_instance(rng, n, k):
    """A chain with random chords whose unary rows hold INF at random
    positions, so a node's finite labels are often not a prefix; each row
    keeps one finite label."""
    unary = {}
    for u in range(n):
        row = [INF if rng.random() < 0.5 else rng.randint(-5, 5) for _ in range(k)]
        row[rng.randrange(k)] = rng.randint(-5, 5)
        unary[u] = tuple(row)
    pairwise = {}
    for u in range(n):
        for v in range(u + 1, n):
            if v == u + 1 or rng.random() < 0.3:
                pairwise[(u, v)] = tuple(tuple(INF if rng.random() < 0.2 else rng.randint(0, 6)
                                               for _ in range(k)) for _ in range(k))
    return make_instance({u: k for u in range(n)}, unary, pairwise)


def test_finite_unary_labels_that_are_not_a_prefix():
    inst = make_instance({0: 3, 1: 3, 2: 2},
                         {0: (INF, 0, 5), 1: (2, INF, 0), 2: (INF, 1)},
                         {(0, 1): ((0, 1, 2), (3, 0, 1), (INF, 2, 0)),
                          (1, 2): ((0, 4), (1, 1), (2, 0)),
                          (0, 2): ((0, 0), (2, INF), (0, 3))})
    brute = solve_brute_force(inst)
    assert (brute.labeling, brute.value) == ({0: 2, 1: 2, 2: 1}, 9)
    for order in permutations(inst.nodes):
        result = assert_same(inst, list(order))
        assert (result.labeling, result.value) == (brute.labeling, brute.value)
    rng = random.Random(11)
    for _ in range(150):
        inst = _sparse_unary_instance(rng, rng.randint(2, 6), rng.randint(2, 4))
        order = list(inst.nodes)
        rng.shuffle(order)
        assert isinstance(assert_same(inst, order), SolveResult)
        assert isinstance(assert_same(inst), SolveResult)


def test_inf_optimum_keeps_a_dropped_label_zero():
    # Label 0 of node 0 has an INF unary entry, and every pair is forbidden,
    # so the value is INF and the tie-break gives every node label 0.
    inst = make_instance({0: 3, 1: 2}, {0: (INF, 0, 4), 1: (1, INF)},
                         {(0, 1): ((0, INF), (INF, INF), (INF, INF))})
    for order in ([0, 1], [1, 0]):
        assert assert_same(inst, order) == SolveResult({0: 0, 1: 0}, INF, "elimination", True)
    # A forbidden component beside a finite one: the finite component's
    # labels also follow the tie-break over every label.
    inst = make_instance({0: 3, 1: 3, 2: 3},
                         {0: (INF, 3, 1), 1: (INF, 0, 0), 2: (INF, INF, 2)},
                         {(0, 1): ((0,) * 3, (0, 0, 0), (0, 0, 0)),
                          (1, 2): ((INF,) * 3, (0, 0, INF), (0, INF, INF))})
    for order in permutations(inst.nodes):
        result = assert_same(inst, list(order))
        assert result.value is INF and result.labeling[2] == 0


def test_inf_valued_instances_whose_label_zero_unary_is_inf():
    # Label 0 of about half the nodes has an INF unary entry, and the value
    # is INF, in shuffled orders.  Label 0 stays in every domain, so each
    # node whose bucket is INF at every label takes it, as over all labels;
    # over the finite-unary labels alone such a node would take its first
    # finite label.
    rng = random.Random(29)
    solved = zeros = 0
    for seed in range(1200):
        inst = random_general(f"inf-zero-{seed}", max_nodes=7, max_labels=4, inf_prob=0.4)
        unary = {u: (INF, *row[1:]) if rng.random() < 0.5 and any(
                     c is not INF for c in row[1:]) else row for u, row in inst.unary.items()}
        inst = make_instance(inst.labels, unary, inst.pairwise, inst.constant)
        order = list(inst.nodes)
        rng.shuffle(order)
        result = assert_same(inst, order)
        if result.value is INF:
            solved += 1
            zeros += any(inst.unary[u][0] is INF and a == 0 for u, a in result.labeling.items())
    assert solved > 300 and zeros > 100, (solved, zeros)


def test_past_int64_every_label_stays_in_the_overflow_rule():
    # finite_sum exceeds int64.  Along [1, 0] node 1's bucket sums its unary
    # and the edge over both labels of node 0, and at node 0's label 0,
    # whose unary is INF, the partial sum I64_MAX + 1 leaves int64; node
    # 0's own bucket would drop that label, but the rule still sees it.
    inst = make_instance({0: 2, 1: 2}, {0: (INF, 0), 1: (I64_MAX, 0)},
                         {(0, 1): ((1, 0), (0, 0))})
    assert inst.finite_sum == I64_MAX + 1
    assert assert_same(inst, [1, 0]) is CostOverflowError
    assert assert_same(inst, [0, 1]) == SolveResult({0: 1, 1: 1}, 0, "elimination", True)
    rng = random.Random(12)
    for _ in range(100):
        inst = _sparse_unary_instance(rng, rng.randint(2, 5), rng.randint(2, 3))
        big = {u: tuple(c if c is INF else c * 2**60 for c in row)
               for u, row in inst.unary.items()}
        inst = make_instance(inst.labels, big, inst.pairwise)
        assert_same(inst, list(inst.nodes))
        assert_same(inst, list(inst.nodes)[::-1])


def test_width_bound_reads_the_instance_label_counts(monkeypatch):
    # Every node keeps two finite labels of three, so the separator of 3
    # nodes spans 8 combinations over the domains, but 27 over the labels.
    inst = make_instance({u: 3 for u in range(4)}, {u: (0, INF, 0) for u in range(4)},
                         {(u, v): ((0,) * 3,) * 3 for u in range(4) for v in range(u + 1, 4)})
    monkeypatch.setattr(solvers, "DEFAULT_ELIM_LIMIT", 26)
    with pytest.raises(SolverError, match="separator size 27 exceeds elimination bound"):
        solve_elimination(inst)
    assert assert_same(inst) is SolverError
    monkeypatch.setattr(solvers, "DEFAULT_ELIM_LIMIT", 27)
    result = assert_same(inst)
    assert result.stats == {"max_separator": 3, "joint_entries": 81 + 27 + 9 + 3}


# --- the broadcast ------------------------------------------------------

def test_broadcast_matches_index_arithmetic():
    # Random (table, scope, joint, sizes) as a bucket meets them: joint in
    # any order, and scope an ordered subsequence of it, as every factor of
    # a bucket is of its joint and every folded factor of its host.
    rng = random.Random(21)
    unsorted = ones = missing = 0
    for _ in range(900):
        joint = rng.sample(range(30), rng.randint(1, 6))
        sizes = {w: rng.randint(1, 3) for w in joint}
        scope = tuple(w for w in joint if rng.random() < 0.6) or (joint[-1],)
        table = list(range(100, 100 + math.prod(sizes[w] for w in scope)))
        at = [joint.index(w) for w in scope]
        expected = []
        for x in product(*(range(sizes[w]) for w in joint)):
            i = 0
            for w, a in zip(scope, at):
                i = i * sizes[w] + x[a]
            expected.append(table[i])
        before = list(table)
        assert _broadcast(table, scope, joint, sizes) == expected, (scope, joint, sizes)
        assert table == before
        unsorted += list(scope) != sorted(scope)
        missing += any(sizes[w] > 1 for w in joint if w not in scope)
        ones += 1 in sizes.values()
    assert unsorted > 100 and missing > 300 and ones > 300


def test_broadcast_keeps_the_scope_axis_order():
    # scope (7, 5, 1) over 2, 2 and 3 labels, the table row-major over it in
    # that order: no axis moves, and node 2 (2 labels) in front repeats the
    # whole table.
    sizes = {1: 3, 2: 2, 5: 2, 7: 2}
    table = list(range(12))
    assert _broadcast(table, (7, 5, 1), (2, 7, 5, 1), sizes) == table * 2
    # A 1-label node missing from the scope changes nothing.
    assert _broadcast(table, (7, 5, 1), (7, 6, 5, 1), {**sizes, 6: 1}) == table
    # Node 9 over 2 labels, missing before the last node: each run of
    # node 1's three entries repeats; missing at the end: each entry does.
    assert _broadcast(table, (7, 5, 1), (7, 5, 9, 1), {**sizes, 9: 2}) == [
        v for i in range(0, 12, 3) for _ in range(2) for v in table[i:i + 3]]
    assert _broadcast(table, (7, 5, 1), (7, 5, 1, 9), {**sizes, 9: 2}) == [
        v for v in table for _ in range(2)]


def test_every_broadcast_meets_an_ordered_subsequence_of_its_target(monkeypatch,
                                                                    criterion5_outputs):
    # Each bucket's joint lists its separator in the order of the joint its
    # message goes to, then its node; edges go in with the bucket's node
    # last.  So every factor, message and fold host of a bucket comes in its
    # joint's order, and none is transposed.  A message laid out over its
    # sorted separator would break this wherever that order is not sorted.
    broadcast = solvers._broadcast
    calls = unsorted = 0

    def spy(table, scope, joint, sizes):
        nonlocal calls, unsorted
        assert tuple(w for w in joint if w in scope) == tuple(scope), (scope, joint)
        calls += 1
        unsorted += len(scope) > 2 and list(scope[:-1]) != sorted(scope[:-1])
        return broadcast(table, scope, joint, sizes)

    monkeypatch.setattr(solvers, "_broadcast", spy)
    rng = random.Random(28)
    corpus = [(out, None) for out, _, _ in criterion5_outputs]
    corpus += [(potts_grid(side, 3, seed), None) for side in (4, 5, 6) for seed in range(2)]
    for seed in range(300):
        inst = random_general(f"layout-{seed}", max_nodes=8, max_labels=3, inf_prob=0.3)
        order = list(inst.nodes)
        rng.shuffle(order)
        corpus.append((inst, order))
    for inst, order in corpus:
        result = solve_elimination(inst, order)
        assert evaluate(inst, result.labeling) == result.value
    assert calls > 10000 and unsorted > 1000, (calls, unsorted)


# --- folding a bucket's factors into the ones containing them ----------

def _fold_instance(rng, label_counts):
    """Two hubs 0 and 1, joined, each other node tied to one or both of them
    or to a random earlier node, with random chords; INF entries at random.
    Along a spokes-first order the hubs' buckets get several messages over
    one scope, edges inside messages and edges no other factor contains."""
    n = rng.randint(3, 7)
    labels = {u: rng.choice(label_counts) for u in range(n)}

    def entry():
        return INF if rng.random() < 0.15 else rng.randint(-4, 6)

    edges = {(0, 1)}
    for w in range(2, n):
        ends = rng.choice([(0,), (1,), (0, 1), (rng.randrange(w),)])
        edges |= {(a, w) for a in ends}
        if rng.random() < 0.3:
            edges.add((rng.randrange(w), w))
    unary = {}
    for u in range(n):
        row = [entry() for _ in range(labels[u])]
        row[rng.randrange(labels[u])] = rng.randint(-4, 6)
        unary[u] = tuple(row)
    pairwise = {(u, v): tuple(tuple(entry() for _ in range(labels[v]))
                              for _ in range(labels[u])) for u, v in edges}
    return make_instance(labels, unary, pairwise)


@pytest.mark.parametrize("label_counts", [(1,), (2,), (1, 2), (1, 2, 3)])
def test_folded_buckets_match_the_reference(monkeypatch, label_counts):
    fold = solvers._fold
    seen = dict.fromkeys(["one scope", "nested", "kept apart"], 0)

    def spy(bucket, sizes):
        scopes = [scope for scope, _ in bucket]
        kept = fold(bucket, sizes)
        seen["one scope"] += len(set(scopes)) < len(scopes)
        seen["nested"] += any(1 < len(a) < len(b) and set(a) < set(b)
                              for a in scopes for b in scopes)
        seen["kept apart"] += len(kept) > 1
        return kept

    monkeypatch.setattr(solvers, "_fold", spy)
    rng = random.Random(f"fold-{label_counts}")
    for _ in range(150):
        inst = _fold_instance(rng, label_counts)
        spokes = list(inst.nodes)[2:]
        rng.shuffle(spokes)
        for order in (spokes + [0, 1], spokes + [1, 0], None):
            assert isinstance(assert_same(inst, order), SolveResult)
    assert min(seen.values()) > 20, seen


# --- the plan: min-fill order and separators ----------------------------

def _grids():
    for side in range(3, 9):
        yield potts_grid(side, 2, side)


def test_min_fill_order_equals_the_naive_reference(criterion5_outputs):
    # The plan's order, and each separator as a set: the plan yields it in
    # no particular order.
    corpus = [random_general(f"fill-{seed}", max_nodes=10, max_labels=3)
              for seed in range(300)]
    corpus += [out for out, _, _ in criterion5_outputs] + list(_grids())
    for inst in corpus:
        plan = list(_elimination_plan(inst))
        order = _reference_min_fill_order(inst)
        assert [u for u, _ in plan] == order
        assert [sorted(sep) for _, sep in plan] == _separators(inst, order)


def test_max_separator_equals_networkx_min_fill_width(criterion5_outputs):
    for inst in [out for out, _, _ in criterion5_outputs] + list(_grids()):
        graph = nx.Graph()
        graph.add_nodes_from(inst.nodes)
        graph.add_edges_from(inst.edges)
        width, _ = treewidth_min_fill_in(graph)
        assert solve_elimination(inst).stats["max_separator"] == width


def test_over_wide_separator_fails_before_any_table():
    # A 16x16 3-label grid: along the min-fill order the first separator over
    # the bound has 17 nodes, along the row-major order 16.  The width check
    # runs on the whole plan before any table, so neither builds one.
    inst = potts_grid(16, 3, 0)
    for order in [None, list(inst.nodes)]:
        seps = _separators(inst, order or [u for u, _ in _elimination_plan(inst)])
        first = next(3 ** len(sep) for sep in seps if 3 ** len(sep) > DEFAULT_ELIM_LIMIT)
        start = time.perf_counter()
        with pytest.raises(SolverError) as got:
            solve_elimination(inst, order)
        assert time.perf_counter() - start < 1.0
        assert str(got.value) == f"separator size {first} exceeds elimination bound"


# --- overflow -----------------------------------------------------------

def test_partial_bucket_sum_leaving_int64_raises():
    # I64_MAX + 1 - 1 fits, but the partial sum I64_MAX + 1 does not.
    inst = make_instance({0: 1, 1: 1}, {0: (I64_MAX,), 1: (-1,)}, {(0, 1): ((1,),)})
    with pytest.raises(CostOverflowError):
        _reference_elimination(inst)
    with pytest.raises(CostOverflowError):
        solve_elimination(inst)


def test_past_int64_a_bucket_sums_in_bucket_order_without_folding():
    # finite_sum is I64_MAX + 2.  Node 2 goes first, and node 0's bucket
    # holds its unary I64_MAX, the edge (0, 1) at 1 for label 0 of node 1,
    # and node 2's message -1, in that order: the partial sum I64_MAX + 1
    # leaves int64 and raises, as in the reference.  Folding would add the
    # message to the unary first, and then the edge, and stay in range.
    inst = make_instance({0: 1, 1: 2, 2: 1}, {0: (I64_MAX,), 2: (-1,)},
                         {(0, 1): ((1, 0),), (0, 2): ((0,),)})
    assert inst.finite_sum == I64_MAX + 2
    assert assert_same(inst, [2, 0, 1]) is CostOverflowError
    assert assert_same(inst, [2, 1, 0]) == SolveResult({0: 0, 1: 1, 2: 0}, I64_MAX - 1,
                                                       "elimination", True)


def test_sum_landing_on_int64_max_does_not_raise():
    inst = make_instance({0: 1, 1: 1}, {0: (I64_MAX - 1,), 1: (0,)}, {(0, 1): ((1,),)})
    assert assert_same(inst).value == I64_MAX
    low = make_instance({0: 2}, {0: (I64_MIN, 0)})
    assert assert_same(low) == SolveResult({0: 0}, I64_MIN, "elimination", True)


def test_overflow_rule_near_the_int64_boundary():
    # Entries at and beyond the int64 ends, mixed with INF: an instance with
    # an entry beyond the ends is rejected at construction; on the others the
    # solver must raise exactly when the reference does and agree otherwise.
    rng = random.Random(5)

    def cost():
        return rng.choice([rng.randint(-3, 3), I64_MAX - rng.randint(0, 3),
                           I64_MIN + rng.randint(0, 3), I64_MAX // 2, I64_MIN // 2,
                           2**64 + 5, -(2**64), INF])

    raised = solved = rejected = 0
    while solved < 600:
        n = rng.randint(1, 4)
        labels = {u: rng.randint(1, 3) for u in range(n)}
        unary = {}
        for u in range(n):
            row = [cost() for _ in range(labels[u])]
            row[rng.randrange(labels[u])] = rng.randint(-3, 3)
            unary[u] = tuple(row)
        pairwise = {(u, v): tuple(tuple(cost() for _ in range(labels[v]))
                                  for _ in range(labels[u]))
                    for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6}
        entries = [c for row in unary.values() for c in row]
        entries += [c for table in pairwise.values() for row in table for c in row]
        beyond = any(c in (2**64 + 5, -(2**64)) for c in entries)
        try:
            inst = make_instance(labels, unary, pairwise,
                                 constant=rng.choice([0, I64_MAX, I64_MIN]))
        except InstanceError:
            assert beyond
            rejected += 1
            continue
        assert not beyond
        order = list(inst.nodes)
        rng.shuffle(order)
        raised += assert_same(inst, order) is CostOverflowError
        solved += 1
    assert 100 < raised < 500  # both outcomes are well represented
    assert rejected > 100


def test_a_bucket_overflow_is_raised_before_the_constant_chain_overflows():
    # Node 2 goes first; its message, -1, would take the constant I64_MIN
    # below int64.  Node 0's bucket then sums 2^62 + 2^62 out of range.  The
    # bucket's error is the one raised: the empty-scope messages join the
    # constant only after the last bucket.
    inst = make_instance({0: 2, 1: 2, 2: 1}, {0: (2**62, 0), 2: (-1,)},
                         {(0, 1): ((2**62, 0), (0, 0))}, constant=I64_MIN)
    # With the constant 0, nodes 2 and 3 go first and their messages alone,
    # I64_MAX and 5, sum to 2^63 + 4, before node 0's bucket reaches 2^63.
    constants = make_instance({0: 2, 1: 2, 2: 1, 3: 1}, {0: (2**62, 0), 2: (I64_MAX,), 3: (5,)},
                              {(0, 1): ((2**62, 0), (0, 0))})
    message = "cost 9223372036854775808 outside signed 64-bit range"
    for inst, order in ((inst, [2, 0, 1]), (constants, [2, 3, 0, 1])):
        for solve in (_reference_elimination, solve_elimination):
            with pytest.raises(CostOverflowError, match=message):
                solve(inst, order)


def test_overflow_names_the_first_entry_in_sorted_separator_order():
    # A triangle along 0, 1, 2: node 0's joint is (2, 1, 0), its separator
    # in node 1's joint order.  The bucket's third factor, the edge (0, 2),
    # takes the sum out of int64 at (x1, x2) = (0, 1), 2^63 + 5, and at
    # (1, 0), 2^63.  The error names the first in the row order of the
    # sorted separator, (0, 1), although the joint's own order meets (1, 0)
    # first; tests/golden/inputs/overflow/0.mine holds the same instance.
    inst = make_instance({0: 1, 1: 2, 2: 2}, {0: (2**62,)},
                         {(0, 1): ((0, 2**62 - 1),), (0, 2): ((1, 2**62 + 5),),
                          (1, 2): ((0, 0), (0, 0))})
    with pytest.raises(CostOverflowError) as got:
        solve_elimination(inst)
    assert str(got.value) == f"cost {2**63 + 5} outside signed 64-bit range"
    # A seeded instance past int64 whose first out-of-range entries differ
    # in the two orders.
    inst = random_general("wide-688", max_nodes=8, max_labels=3, inf_prob=0.2)
    inst = make_instance(inst.labels, {u: tuple(c if c is INF else c * 2**59 for c in row)
                                       for u, row in inst.unary.items()},
                         {e: tuple(tuple(c if c is INF else c * 2**59 for c in row)
                                   for row in table) for e, table in inst.pairwise.items()},
                         inst.constant)
    with pytest.raises(CostOverflowError) as got:
        solve_elimination(inst, [3, 1, 0, 2])
    assert str(got.value) == "cost 13835058055282163712 outside signed 64-bit range"


def test_inf_coding_at_its_tightest():
    # INF is coded as 2 * finite_sum + 1.  Here every finite entry is
    # negative and meets the INF in one bucket sum, which is then exactly
    # finite_sum + 1 (6, at label 1 of the second node in either order):
    # it must read as INF, and label 0 must be chosen.
    inst = make_instance({0: 2, 1: 2}, {0: (0, -2), 1: (0, -3)},
                         {(0, 1): ((INF, INF), (INF, INF))})
    assert inst.finite_sum == 5
    for order in ([0, 1], [1, 0]):
        assert assert_same(inst, order) == SolveResult({0: 0, 1: 0}, INF, "elimination", True)


@pytest.mark.parametrize("unary, pair, constant, finite_sum, expected", [
    # finite_sum == I64_MAX: no partial sum is range-checked
    ({0: (0, -(I64_MAX - 3)), 1: (0, -3)}, ((INF, INF), (INF, INF)), 0, I64_MAX,
     {(0, 1): ({0: 0, 1: 0}, INF), (1, 0): ({0: 0, 1: 0}, INF)}),
    ({0: (-(I64_MAX - 3), 0), 1: (0, -3)}, ((INF, 0), (INF, INF)), -1, I64_MAX,
     {(0, 1): ({0: 0, 1: 1}, I64_MIN), (1, 0): ({0: 0, 1: 1}, I64_MIN)}),
    ({0: (-(I64_MAX - 3), 0), 1: (0, -3)}, ((INF, 0), (INF, INF)), -2, I64_MAX,
     {(0, 1): CostOverflowError, (1, 0): CostOverflowError}),
    ({0: (I64_MAX - 3, INF), 1: (3, INF)}, ((0, 0), (0, 0)), 0, I64_MAX,
     {(0, 1): ({0: 0, 1: 0}, I64_MAX), (1, 0): ({0: 0, 1: 0}, I64_MAX)}),
    # finite_sum == I64_MAX + 1: every partial bucket sum is range-checked
    ({0: (0, -(I64_MAX - 2)), 1: (0, -3)}, ((INF, INF), (INF, INF)), 0, I64_MAX + 1,
     {(0, 1): ({0: 0, 1: 0}, INF), (1, 0): ({0: 0, 1: 0}, INF)}),
    ({0: (I64_MAX - 2, INF), 1: (0, 0)}, ((3, 0), (0, 0)), 0, I64_MAX + 1,
     {(0, 1): CostOverflowError, (1, 0): ({0: 0, 1: 1}, I64_MAX - 2)}),
    ({0: (I64_MAX - 1, INF), 1: (1, -1)}, ((0, 0), (0, 0)), 0, I64_MAX + 1,
     {(0, 1): ({0: 0, 1: 1}, I64_MAX - 2), (1, 0): ({0: 0, 1: 1}, I64_MAX - 2)}),
])
def test_inf_coding_either_side_of_the_range_check(unary, pair, constant, finite_sum,
                                                   expected):
    inst = make_instance({0: 2, 1: 2}, unary, {(0, 1): pair}, constant)
    assert inst.finite_sum == finite_sum
    for order, outcome in expected.items():
        if isinstance(outcome, tuple):
            outcome = SolveResult(*outcome, "elimination", True)
        assert assert_same(inst, list(order)) == outcome


# --- counters -----------------------------------------------------------

def test_stats_on_a_chain():
    # Order 0, 1, 2: separators {1}, {2}, {} over 2 labels each.
    inst = make_instance({0: 2, 1: 2, 2: 2},
                         pairwise={(0, 1): ((0, 1), (1, 0)), (1, 2): ((0, 1), (1, 0))})
    result = solve_elimination(inst)
    assert result.stats == {"max_separator": 1, "joint_entries": 4 + 4 + 2}


def test_stats_on_a_three_by_three_grid():
    # Min-fill order: the corners 0, 2, 6, 8 (one fill edge each, separators
    # of 2), then 1 (one fill edge) and 3 (none left by then), separators of
    # 3, then 4, 5, 7 (2, 1, 0): 4 * 2**3 + 2 * 2**4 + 2**3 + 2**2 + 2**1
    # entries.
    inst = potts_grid(3, 2, 0)
    assert [u for u, _ in _elimination_plan(inst)] == [0, 2, 6, 8, 1, 3, 4, 5, 7]
    result = solve_elimination(inst)
    assert result.stats == {"max_separator": 3, "joint_entries": 78}


def test_stats_do_not_take_part_in_equality():
    inst = potts_grid(3, 2, 1)
    result = solve_elimination(inst)
    assert result.stats
    assert result == SolveResult(result.labeling, result.value, "elimination", True)
    assert solve_brute_force(make_instance({0: 2})).stats == {}
    assert solve_tree_dp(make_instance({0: 2})).stats == {"max_separator": 0,
                                                          "joint_entries": 2}
