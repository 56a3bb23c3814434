from itertools import product

import pytest

from mine.costs import INF, is_finite
from mine.instance import EnergyInstance, evaluate
from mine.reductions.gadgets import (merge_fragments, relation_table,
                                     split_gadget, uncross_copy_gadget)

# Channel conventions: first channel reads d=0/e=1, second f=0/g=1.
SPLIT_RELATION = {
    (0, 0, 0),  # a <-> (d, f)
    (1, 0, 1),  # b <-> (d, g)
    (1, 1, 1),  # b <-> (e, g)
    (2, 1, 0),  # c <-> (e, f)
}


def fragment_instance(frag):
    """The fragment's tables as an instance of their own."""
    return EnergyInstance(tuple(sorted(frag.unary)), dict(frag.unary), dict(frag.pairwise))


def finite_states(inst, nodes):
    out = {}
    for combo in product(*(range(inst.labels[n]) for n in nodes)):
        e = evaluate(inst, dict(zip(nodes, combo)))
        if is_finite(e):
            out[combo] = e
    return out


def test_relation_table_shape():
    t = relation_table((2, 3), [(0, 0), (1, 2)])
    assert t == ((0, INF, INF), (INF, INF, 0))


def test_split_enumeration_exact_relation():
    frag = split_gadget(0, 1, 2)
    states = finite_states(fragment_instance(frag), (0, 1, 2))
    assert set(states) == SPLIT_RELATION
    assert set(states.values()) == {0}


def test_split_boundary_a_forces_channels():
    frag = split_gadget(0, 1, 2)
    inst = fragment_instance(frag)
    allowed = [(d, f) for d, f in product(range(3), repeat=2)
               if is_finite(evaluate(inst, {0: 0, 1: d, 2: f}))]
    assert allowed == [(0, 0)]


def test_split_channels_determine_boundary():
    frag = split_gadget(0, 1, 2)
    inst = fragment_instance(frag)
    for d, f in product(range(2), repeat=2):
        bs = [b for b in range(3) if is_finite(evaluate(inst, {0: b, 1: d, 2: f}))]
        assert len(bs) == 1, (d, f, bs)


def test_uncross_copy_diagonal_relation():
    frag = uncross_copy_gadget(0, 1, 2, 3, 4, 5)
    inst = fragment_instance(frag)
    port_states = set()
    for tl, tr, bl, br in product(range(3), repeat=4):
        finite = [
            (x1, x2) for x1, x2 in product(range(3), repeat=2)
            if is_finite(evaluate(inst, {0: tl, 1: tr, 2: bl, 3: br, 4: x1, 5: x2}))
        ]
        if finite:
            port_states.add((tl, tr, bl, br))
    # bottom-right copies top-left, bottom-left copies top-right; nothing else
    assert port_states == {(tl, tr, tr, tl) for tl in range(2) for tr in range(2)}


def test_uncross_copy_worked_example():
    # top pair (1, 0) comes out as bottom-left 0, bottom-right 1
    frag = uncross_copy_gadget(0, 1, 2, 3, 4, 5)
    inst = fragment_instance(frag)
    ok = [(bl, br) for bl, br, x1, x2 in product(range(2), range(2), range(3), range(3))
          if is_finite(evaluate(inst, {0: 1, 1: 0, 2: bl, 3: br, 4: x1, 5: x2}))]
    assert set(ok) == {(0, 1)}


def test_uncross_copy_all_finite_configurations_cost_zero():
    frag = uncross_copy_gadget(0, 1, 2, 3, 4, 5)
    states = finite_states(fragment_instance(frag), (0, 1, 2, 3, 4, 5))
    assert states
    assert set(states.values()) == {0}


def test_violating_configuration_is_infinite():
    frag = uncross_copy_gadget(0, 1, 2, 3, 4, 5)
    inst = fragment_instance(frag)
    # br != tl violates the copy relation under every internal assignment
    for x1, x2 in product(range(3), repeat=2):
        e = evaluate(inst, {0: 0, 1: 0, 2: 0, 3: 1, 4: x1, 5: x2})
        assert not is_finite(e)


def test_merge_rejects_conflicting_tables():
    a = split_gadget(0, 1, 2)
    b = uncross_copy_gadget(0, 5, 6, 7, 8, 9)  # reuses node 0 with a 2-label unary
    with pytest.raises(ValueError):
        merge_fragments(a, b)


def test_merge_shares_consistent_nodes():
    a = split_gadget(0, 1, 2)
    b = split_gadget(3, 4, 5)
    merged = merge_fragments(a, b)
    assert set(merged.unary) == set(range(6))
    assert len(merged.pairwise) == 4


# --- node ids in any order --------------------------------------------------
# A gadget's tables are written from their first named node to their second;
# ids that descend along that pair store the table transposed.

def test_split_with_descending_ids_has_the_same_finite_states():
    ascending = finite_states(fragment_instance(split_gadget(0, 1, 2)), (0, 1, 2))
    frag = split_gadget(2, 1, 0)
    assert set(frag.pairwise) == {(1, 2), (0, 2)}
    assert finite_states(fragment_instance(frag), (2, 1, 0)) == ascending


@pytest.mark.parametrize("ids", [(5, 4, 3, 2, 1, 0), (3, 0, 5, 1, 4, 2), (1, 2, 0, 4, 5, 3)])
def test_uncross_copy_with_reordered_ids_has_the_same_finite_states(ids):
    ascending = finite_states(fragment_instance(uncross_copy_gadget(0, 1, 2, 3, 4, 5)),
                              range(6))
    frag = uncross_copy_gadget(*ids)
    assert all(u < v for u, v in frag.pairwise)
    assert finite_states(fragment_instance(frag), ids) == ascending
