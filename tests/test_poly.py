import random
from itertools import product

import pytest

from mine.instance import evaluate
from mine.poly import (MultilinearPoly, PolyError, _from_owned, poly, poly_add,
                       poly_evaluate, poly_scale, quadratic_poly_to_instance)
from mine.reductions.wsat import quadratize


def bits(n):
    return product((0, 1), repeat=n)


def test_poly_drops_zero_and_merges():
    p = poly({(1,): 2, (1, 2): 0, (2, 1): 3})
    assert p.coefficient((1,)) == 2
    assert p.coefficient((1, 2)) == 3
    assert p.coefficient((9,)) == 0


def test_degree_cap():
    with pytest.raises(PolyError):
        MultilinearPoly({frozenset({1, 2, 3, 4}): 1})
    with pytest.raises(PolyError):
        poly({(1, 1): 1})  # repeated variable


def test_terms_are_read_only():
    source = {frozenset({1, 2, 3}): 2, frozenset({1}): 1, frozenset({2, 4}): -3,
              frozenset(): 5}
    p = MultilinearPoly(source)
    source[frozenset({5})] = 1  # the polynomial keeps its own copy
    with pytest.raises(TypeError):
        p.terms[frozenset({1, 2, 3, 4})] = 5  # would skip the degree check
    with pytest.raises(TypeError):
        p.terms[frozenset({1})] = 0  # would skip the zero check
    with pytest.raises(TypeError):
        del p.terms[frozenset({1})]
    assert p == poly({(1, 2, 3): 2, (1,): 1, (2, 4): -3, (): 5}) != poly({(1,): 1})
    assert repr(p) == "Poly(+5*1 +1*x1 -3*x2*x4 +2*x1*x2*x3)"
    assert quadratize(p, 10) == (poly({(): 7, (1,): -1, (2,): -2, (3,): -2, (10,): -2,
                                       (1, 2): 2, (1, 3): 2, (1, 10): 2, (2, 3): 2,
                                       (2, 4): -3, (2, 10): 2, (3, 10): 2}), (10,))


def test_wrapped_results_are_checked_and_read_only():
    with pytest.raises(PolyError, match="exceeds degree"):
        _from_owned({frozenset({1, 2, 3, 4}): 1})
    with pytest.raises(PolyError, match="zero coefficients"):
        _from_owned({frozenset({1}): 0})
    p = poly({(1, 2, 3): 2, (1,): 1})
    for q in (poly_add(p, poly({(2,): 1})), poly_scale(p, 3), poly_scale(p, 0),
              quadratize(p, 10)[0]):
        assert type(q) is MultilinearPoly
        with pytest.raises(TypeError):
            q.terms[frozenset({1, 2, 3, 4})] = 5
    assert poly_scale(p, 3) == MultilinearPoly({frozenset({1, 2, 3}): 6, frozenset({1}): 3})
    assert poly_scale(p, 0) == MultilinearPoly()


def test_poly_evaluate_examples():
    p = poly({(1, 2, 3): 1, (2, 3): -1, (): 1})  # x1 v -x2 v -x3 as a polynomial
    assert poly_evaluate(p, {1: 0, 2: 1, 3: 1}) == 0
    assert poly_evaluate(poly({}), {}) == 0
    assert poly_evaluate(poly({(1,): 1}), {1: 1}) == 1


def test_poly_evaluate_missing_variable():
    with pytest.raises(PolyError):
        poly_evaluate(poly({(4,): 1}), {1: 0})


def test_add_scale():
    p = poly_add(poly({(1,): 2}), poly({(1,): -2, (): 5}))
    assert p == poly({(): 5})
    assert poly_scale(p, 0) == poly({})
    assert poly_scale(p, -2) == poly({(): -10})


def test_quadratic_to_instance_linear():
    inst = quadratic_poly_to_instance(poly({(1,): 3}))
    assert inst.nodes == (1,)
    assert inst.unary[1] == (0, 3)


def test_quadratic_to_instance_product_plus_constant():
    inst = quadratic_poly_to_instance(poly({(1, 2): 1, (): 1}))
    assert inst.constant == 1
    assert inst.pairwise[(1, 2)] == ((0, 0), (0, 1))
    p = poly({(1, 2): 1, (): 1})
    for a, b in bits(2):
        assert evaluate(inst, {1: a, 2: b}) == poly_evaluate(p, {1: a, 2: b})


def test_quadratic_to_instance_rejects_cubic():
    with pytest.raises(PolyError):
        quadratic_poly_to_instance(poly({(1, 2, 3): 1}))


def test_quadratic_to_instance_pointwise_random():
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randint(1, 6)
        terms = {}
        for _ in range(rng.randint(0, 10)):
            size = rng.randint(0, min(2, n))
            mono = tuple(rng.sample(range(1, n + 1), size))
            terms[mono] = terms.get(mono, 0) + rng.randint(-5, 5)
        p = poly(terms)
        inst = quadratic_poly_to_instance(p, variables=range(1, n + 1))
        for assign in bits(n):
            x = dict(enumerate(assign, start=1))
            assert evaluate(inst, x) == poly_evaluate(p, x)
