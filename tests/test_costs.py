import copy
import operator
import pickle

import pytest

from mine.costs import (INF, CostOverflowError, I64_MAX, I64_MIN, check_range,
                        ext_add, is_finite)
from mine.instance import InstanceError, big_m, evaluate, make_instance


def test_inf_absorbs_addition():
    assert ext_add(INF, 5) is INF
    assert ext_add(-3, INF) is INF
    assert ext_add(INF, INF) is INF
    assert ext_add(2, 3) == 5


def test_inf_total_order():
    assert 10**30 < INF
    assert INF > -(10**30)
    assert not (INF < INF)
    assert INF <= INF
    assert not is_finite(INF)
    assert is_finite(0)


def test_inf_order_against_every_operand_kind():
    # INF sits above every int (bools included) and equals only itself, under
    # all six operators in both operand orders; ranking INF as (1, 0) and an
    # int x as (0, x) gives the expected result.
    def rank(c):
        return (1, 0) if c is INF else (0, c)

    operators = (operator.lt, operator.le, operator.eq, operator.ne, operator.gt, operator.ge)
    for other in (0, 1, -1, 2, -2, 2**70, -(2**70), True, False, INF):
        for op in operators:
            assert op(INF, other) is op(rank(INF), rank(other)), (op, other)
            assert op(other, INF) is op(rank(other), rank(INF)), (op, other)
    # Any other operand is unordered against INF and unequal to it.
    for other in (1.5, float("inf"), None, "INF"):
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                op(INF, other)
            with pytest.raises(TypeError):
                op(other, INF)
        assert INF != other and other != INF
        assert not (INF == other or other == INF)
    # INF stays the singleton through pickling and copying.
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(INF, protocol)) is INF
    assert copy.deepcopy(INF) is INF
    nested = copy.deepcopy([INF, {0: INF}])
    assert nested[0] is INF and nested[1][0] is INF
    assert copy.copy(INF) is INF


def test_finite_overflow_rejected():
    with pytest.raises(CostOverflowError):
        ext_add(I64_MAX, 1)
    with pytest.raises(CostOverflowError):
        check_range(I64_MAX + 1)
    assert check_range(I64_MAX) == I64_MAX


def test_ext_add_commutative_associative():
    triples = [(1, 2, 3), (INF, 4, -4), (0, INF, INF), (-7, 7, INF)]
    for a, b, c in triples:
        assert ext_add(a, b) == ext_add(b, a)
        assert ext_add(ext_add(a, b), c) == ext_add(a, ext_add(b, c))


def test_evaluate_single_node():
    inst = make_instance({0: 2}, {0: (0, 5)})
    assert evaluate(inst, {0: 0}) == 0
    assert evaluate(inst, {0: 1}) == 5


def test_evaluate_pairwise_hand_sum():
    inst = make_instance({0: 2, 1: 2}, pairwise={(0, 1): ((0, 1), (1, 0))})
    assert evaluate(inst, {0: 0, 1: 1}) == 1
    assert evaluate(inst, {0: 1, 1: 1}) == 0


def test_evaluate_inf_entry_absorbs():
    inst = make_instance({0: 2, 1: 2}, pairwise={(0, 1): ((0, INF), (0, 0))})
    assert evaluate(inst, {0: 0, 1: 1}) is INF
    assert evaluate(inst, {0: 1, 1: 1}) == 0


def test_evaluate_rejects_bad_labeling():
    inst = make_instance({0: 2}, {0: (0, 5)})
    with pytest.raises(InstanceError):
        evaluate(inst, {0: 2})
    with pytest.raises(InstanceError):
        evaluate(inst, {0: 0, 1: 0})


def test_big_m_empty_instance():
    assert big_m(make_instance({})) == 1


def test_big_m_single_node():
    assert big_m(make_instance({0: 2}, {0: (0, 5)})) == 6


def test_big_m_unary_plus_pairwise():
    inst = make_instance({0: 2, 1: 2}, {0: (1, 2), 1: (0, 0)},
                         {(0, 1): ((0, -1), (3, 0))})
    # |unary| sums to 3, |pairwise| to 4
    assert big_m(inst) == 8


def test_big_m_bounds_every_labeling():
    inst = make_instance({0: 2, 1: 3}, {0: (-4, 2), 1: (0, 7, -1)},
                         {(0, 1): ((1, -2, 0), (5, 0, -3))}, constant=-2)
    m = big_m(inst)
    for a in range(2):
        for b in range(3):
            assert abs(evaluate(inst, {0: a, 1: b})) < m


def test_big_m_rejects_inf():
    inst = make_instance({0: 2}, {0: (0, INF)})
    with pytest.raises(InstanceError):
        big_m(inst)


def test_big_m_range_checks_the_constant_term():
    # 1 + |I64_MIN| = 2**63 is past int64 even with no table entry at all.
    assert big_m(make_instance({}, constant=I64_MAX - 1)) == I64_MAX
    with pytest.raises(CostOverflowError):
        big_m(make_instance({}, constant=I64_MIN))
    with pytest.raises(CostOverflowError):
        big_m(make_instance({}, constant=I64_MAX))
    with pytest.raises(CostOverflowError):
        big_m(make_instance({0: 1}, {0: (1,)}, constant=I64_MAX - 1))


def test_big_m_reports_inf_before_an_entry_sum_past_int64():
    # Both faults at once: the INF wins wherever it sits in table order.
    for unary in ({0: (I64_MAX, 0), 1: (I64_MAX, INF)},
                  {0: (0, INF), 1: (I64_MAX, I64_MAX)}):
        with pytest.raises(InstanceError):
            big_m(make_instance({0: 2, 1: 2}, unary))


def test_instance_validation():
    with pytest.raises(InstanceError):
        make_instance({0: 2}, {0: (INF, INF)})  # no finite label
    with pytest.raises(InstanceError):
        make_instance({0: 2, 1: 2}, pairwise={(0, 0): ((0, 0), (0, 0))})
    with pytest.raises(InstanceError):
        make_instance({0: 2, 1: 2}, pairwise={(0, 1): ((0, 0),)})  # wrong dims
