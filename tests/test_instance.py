"""An instance's label counts and edge order come from its tables.

A node's label count is its unary table's length and the edges are the
pairwise keys, sorted; construction derives both, so no constructor
passes them and no two copies can disagree.  A labeling gives each node
an int below its label count.
"""

import pytest

from mine.fileformat import serialize_instance
from mine.generate import random_general, random_qpbo
from mine.instance import (EnergyInstance, InstanceError, all_labelings, check_labeling,
                           evaluate, make_instance)
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
        inst = frag.to_instance()
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
