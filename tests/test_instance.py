"""An instance's label counts and edge order come from its tables.

A node's label count is its unary table's length and the edges are the
pairwise keys, sorted; construction derives both, so no constructor
passes them and no two copies can disagree.  A labeling gives each node
an int below its label count.
"""

import random

import pytest
from test_gadgets import fragment_instance

from mine.costs import INF
from mine.fileformat import serialize_instance
from mine.generate import random_general, random_qpbo
from mine.instance import (EnergyInstance, InstanceError, _edges_fit, all_labelings,
                           check_labeling, evaluate, make_instance)
from mine.reductions.gadgets import split_gadget, uncross_copy_gadget
from mine.reductions.klabel import qpbo_to_klabel
from mine.solvers import solve_elimination


def assert_derived(inst):
    assert inst.labels == {u: len(inst.unary[u]) for u in inst.nodes}
    assert inst.edges == tuple(sorted(inst.pairwise))


def test_label_counts_and_edges_are_read_off_the_tables(criterion5_outputs):
    with_inf = 0
    for seed in range(100):
        inst = random_general(seed, max_nodes=7, max_labels=4, inf_prob=0.3)
        assert_derived(inst)
        with_inf += not inst.all_finite
    assert with_inf > 50
    for out, _, _ in criterion5_outputs:
        assert_derived(out)
    for seed in range(30):
        k = 3 + seed % 3
        target, _ = qpbo_to_klabel(random_qpbo(seed, max_nodes=5), k)
        assert_derived(target)
        assert set(target.labels.values()) == {k}
    for frag in (split_gadget(0, 1, 2), uncross_copy_gadget(0, 1, 2, 3, 4, 5)):
        inst = fragment_instance(frag)
        assert_derived(inst)
        assert set(inst.labels.values()) == {3}


def test_pairwise_keys_in_reverse_order_give_the_same_instance():
    reordered = 0
    for seed in range(60):
        inst = random_general(seed, max_nodes=6, max_labels=3, inf_prob=0.2)
        backward = EnergyInstance(nodes=inst.nodes, unary=inst.unary,
                                  pairwise=dict(reversed(inst.pairwise.items())),
                                  constant=inst.constant)
        reordered += list(backward.pairwise) != sorted(backward.pairwise)
        assert backward.edges == inst.edges == tuple(sorted(inst.pairwise))
        assert serialize_instance(backward) == serialize_instance(inst)
        got, expected = solve_elimination(backward), solve_elimination(inst)
        assert (got, got.stats) == (expected, expected.stats)
        for x in all_labelings(inst):
            assert evaluate(backward, x) == evaluate(inst, x)
    assert reordered > 20


def test_make_instance_checks_a_given_unary_against_its_label_count():
    with pytest.raises(InstanceError, match="node 0: unary table has wrong length"):
        make_instance({0: 2}, {0: (0, 0, 0)})
    with pytest.raises(InstanceError, match="node 0: unary table has wrong length"):
        make_instance({0: 0}, {0: (0,)})
    with pytest.raises(InstanceError, match="node 0: label count must be positive"):
        make_instance({0: 0})


@pytest.mark.parametrize("nodes, unary, pairwise, fragment", [
    ((0, 1), {0: (0,)}, {}, "unary tables must cover exactly the node set"),
    ((0, 1), {0: (0,), 1: (0,)}, {(1, 0): ((0,),)}, "not normalized"),
    ((0,), {0: (0,)}, {(0, 2): ((0,),)}, "references unknown node"),
    ((0, 1), {0: (0,), 1: (0, 0)}, {(0, 1): ((0,),)}, "wrong dimensions"),
])
def test_tables_that_disagree_are_rejected(nodes, unary, pairwise, fragment):
    with pytest.raises(InstanceError, match=fragment):
        EnergyInstance(nodes=nodes, unary=unary, pairwise=pairwise)


# --- a labeling's labels are ints --------------------------------------------

@pytest.mark.parametrize("label", [1.0, 0.0, None, "1", 1 + 0j, (1,)])
def test_a_label_that_is_not_an_int_is_an_instance_error(label):
    inst = make_instance({0: 2, 1: 2}, {0: (3, 4)}, {(0, 1): ((0, 1), (2, 0))})
    for check in (check_labeling, evaluate):
        with pytest.raises(InstanceError, match=r"^node 0: label .* is not an int$"):
            check(inst, {0: label, 1: 0})
        with pytest.raises(InstanceError, match=r"^node 1: label .* is not an int$"):
            check(inst, {0: 0, 1: label})


def test_int_and_bool_labels_score_alike():
    inst = make_instance({0: 2, 1: 2}, {0: (3, 4)}, {(0, 1): ((0, 1), (2, 0))})
    for x in all_labelings(inst):
        as_bools = {u: bool(a) for u, a in x.items()}
        check_labeling(inst, as_bools)
        assert evaluate(inst, as_bools) == evaluate(inst, x)


# --- the first of two defects is the one reported ----------------------------

_ONE, _TWO = (0,), (0, 0)


@pytest.mark.parametrize("nodes, unary, pairwise, constant, message", [
    ((0, 1, 2), {0: _ONE, 1: _TWO, 2: _ONE}, {(2, 1): (_TWO,), (0, 1): (_ONE,)}, 0,
     "edge (0, 1): pairwise table has wrong dimensions"),
    ((0, 1, 2), {0: _ONE, 1: _TWO, 2: _TWO}, {(1, 2): (_ONE,), (1, 0): (_ONE, _ONE)}, 0,
     "edge (1, 0) not normalized (u < v required)"),
    ((0, 1), {0: _ONE, 1: _ONE}, {(0, 5): (_ONE,), (0, 0): (_ONE,)}, 0,
     "self-loop on node 0"),
    ((0, 1, 2), {0: _ONE, 1: _ONE, 2: _TWO}, {(1, 2): (_ONE,), (0, 5): (_ONE,)}, 0,
     "edge (0, 5) references unknown node"),
    ((0, 1), {0: (INF, INF), 1: ()}, {}, 0, "node 0: no label with finite unary cost"),
    ((0, 1), {0: (), 1: (INF,)}, {}, 0, "node 0: label count must be positive"),
    ((0, 1), {0: (INF,), 1: _ONE}, {(0, 1): (_TWO,)}, 0,
     "node 0: no label with finite unary cost"),
    ((0, 1, 2), {0: _ONE, 1: _ONE, 2: _ONE}, {(0, 1): ((1.5,),), (0, 2): (_TWO,)}, 0,
     "edge (0, 2): pairwise table has wrong dimensions"),
    ((0,), {0: (2**63, 1.5)}, {}, 0, "cost entries must be ints or INF, got ['float']"),
    ((0, 1), {0: (2**63,), 1: _ONE}, {}, 1.5, "cost entry outside signed 64-bit range"),
], ids=["dims-before-unnormalized", "unnormalized-before-dims", "self-loop-before-unknown",
        "unknown-before-dims", "all-inf-before-no-labels", "no-labels-before-all-inf",
        "node-before-edge", "dims-before-entry-type", "type-before-range",
        "entry-before-constant"])
def test_the_first_of_two_defects_is_reported(nodes, unary, pairwise, constant, message):
    # Nodes are checked in node order, then edges in sorted order, then the
    # entries, then the constant; each error names the first defect so found.
    with pytest.raises(InstanceError) as exc:
        EnergyInstance(nodes=nodes, unary=unary, pairwise=pairwise, constant=constant)
    assert str(exc.value) == message


def test_unary_rows_with_no_finite_entry():
    # Rows are tested once per row object; the loop then names the first node.
    shared = (INF, INF)
    with pytest.raises(InstanceError, match="^node 1: no label with finite unary cost$"):
        EnergyInstance(nodes=(0, 1, 2), unary={0: (0, INF), 1: shared, 2: shared}, pairwise={})
    # Any entry but INF counts as finite here; the entry type check comes later.
    for row, kind in (((INF, 1.5), "float"), ((INF, [1]), "list")):
        with pytest.raises(InstanceError, match=rf"got \['{kind}'\]"):
            EnergyInstance(nodes=(0,), unary={0: row}, pairwise={})
    row = (INF, 3)
    inst = EnergyInstance(nodes=(0, 1), unary={0: row, 1: row}, pairwise={})
    assert not inst.all_finite and inst.finite_sum == 6


@pytest.mark.parametrize("labels, unary, pairwise, message", [
    ({0: 2, 1: 2}, {0: _ONE}, {(0, 1): (_TWO, _TWO), (1, 0): (_TWO, _TWO)},
     "node 0: unary table has wrong length"),
    ({0: 2, 1: 2, 2: 2}, {}, {(0, 1): (_TWO, _TWO), (1, 0): (_TWO, _TWO), (2, 2): (_TWO, _TWO)},
     "edge (0, 1) given twice"),
    ({0: 2, 1: 2, 2: 2}, {}, {(2, 2): (_TWO, _TWO), (0, 1): (_TWO, _TWO), (1, 0): (_TWO, _TWO)},
     "self-loop on node 2"),
], ids=["unary-before-twice", "twice-before-self-loop", "self-loop-before-twice"])
def test_make_instance_reports_the_first_of_two_defects(labels, unary, pairwise, message):
    with pytest.raises(InstanceError) as exc:
        make_instance(labels, unary, pairwise)
    assert str(exc.value) == message


def test_whole_table_checks_accept_what_the_loops_accept():
    # Mixed label counts and INF entries take the general whole-table
    # passes; the result is the instance the tables describe.
    inst = make_instance({0: 1, 1: 2, 2: 3}, {1: (INF, 4), 2: (0, INF, 1)},
                         {(2, 1): ((1, 2), (INF, 3), (4, 5)), (0, 1): ((6, 7),)})
    assert inst.labels == {0: 1, 1: 2, 2: 3}
    assert inst.pairwise == {(0, 1): ((6, 7),), (1, 2): ((1, INF, 4), (2, 3, 5))}
    assert inst.edges == ((0, 1), (1, 2))
    assert (inst.finite_sum, inst.all_finite) == (4 + 1 + 6 + 7 + 1 + 4 + 2 + 3 + 5, False)
    assert EnergyInstance(inst.nodes, inst.unary, inst.pairwise) == inst


def _reference_edges_fit(nodes, labels, edges, tables):
    """The per-edge checks one edge at a time."""
    for (u, v), table in zip(edges, tables):
        if not u < v or u not in nodes or v not in nodes:
            return False
        if len(table) != labels[u] or any(len(row) != labels[v] for row in table):
            return False
    return True


def test_whole_table_edge_checks_agree_with_the_per_edge_loop():
    rng = random.Random(18)
    fits = 0
    for trial in range(4000):
        uniform = trial % 2
        labels = {u: 2 if uniform else rng.randint(1, 3) for u in range(rng.randint(1, 5))}
        edges = tuple(sorted({(rng.randint(0, 5), rng.randint(0, 5))
                              for _ in range(rng.randint(0, 6))}))
        tables = []
        for u, v in edges:
            ku, kv = labels.get(u, 2), labels.get(v, 2)
            if rng.random() < 0.1:
                ku += rng.choice((-1, 1))
            rows = [(0,) * kv for _ in range(max(ku, 0))]
            if rows and rng.random() < 0.1:
                rows[rng.randrange(len(rows))] = (0,) * (kv + rng.choice((-1, 1)))
            tables.append(tuple(rows))
        want = _reference_edges_fit(set(labels), labels, edges, tables)
        assert _edges_fit(set(labels), labels, edges, tables) == want
        fits += want
    assert 500 < fits < 3500
