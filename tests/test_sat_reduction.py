import random
from itertools import product

import pytest

from mine.cli import run_cli
from mine.fileformat import serialize_instance, serialize_solution, serialize_wcnf3, write_trace
from mine.generate import random_w3sat
from mine.instance import InstanceError, all_labelings, evaluate, scored_labelings
from mine.poly import (MultilinearPoly, poly, poly_evaluate, poly_scale,
                       quadratic_poly_to_instance)
from mine.reductions.harness import SAT_SOURCE, SourceAdapter, verify_ap_reduction
from mine.reductions.trace import ReductionTrace
from mine.reductions.wsat import (SatError, W3SatTriv, clause_penalty,
                                  clause_to_poly, clause_value, quadratize,
                                  validate_clause, w3sat_sigma, w3sat_to_qpbo)


def bits(n):
    return product((0, 1), repeat=n)


def assignment(vals):
    return {i: bool(v) for i, v in enumerate(vals, start=1)}


# --- clause polynomials -------------------------------------------------

def test_clause_to_poly_mixed_signs():
    # x1 v -x2 v -x3  ->  x1x2x3 - x2x3 + 1
    p = clause_to_poly((1, -2, -3))
    assert p == poly({(1, 2, 3): 1, (2, 3): -1, (): 1})


def test_clause_to_poly_all_negative():
    assert clause_to_poly((-1, -2, -3)) == poly({(): 1, (1, 2, 3): -1})


def test_clause_to_poly_all_positive():
    p = clause_to_poly((1, 2, 3))
    expected = poly({(1,): 1, (2,): 1, (3,): 1,
                     (1, 2): -1, (1, 3): -1, (2, 3): -1, (1, 2, 3): 1})
    assert p == expected


def test_clause_poly_matches_truth_value_on_all_assignments():
    rng = random.Random(3)
    for _ in range(40):
        vs = rng.sample(range(1, 6), 3)
        clause = tuple(v if rng.random() < 0.5 else -v for v in vs)
        p = clause_to_poly(clause)
        for vals in bits(5):
            a = dict(enumerate(vals, start=1))
            truth = clause_value(clause, {k: bool(v) for k, v in a.items()})
            assert poly_evaluate(p, a) == int(truth)


def test_validate_clause_rejects_malformed():
    with pytest.raises(SatError):
        validate_clause((1, 2))
    with pytest.raises(SatError):
        validate_clause((1, -1, 2))
    with pytest.raises(SatError):
        validate_clause((1, 0, 2))


def test_clause_penalty_values():
    clause = (1, -2, -3)
    p = clause_penalty(clause, 7)
    assert poly_evaluate(p, {1: 0, 2: 1, 3: 1}) == 7
    for vals in bits(3):
        a = dict(enumerate(vals, start=1))
        expected = 0 if clause_value(clause, {k: bool(v) for k, v in a.items()}) else 7
        assert poly_evaluate(p, a) == expected
    with pytest.raises(SatError):
        clause_penalty(clause, 0)


# --- quadratization -----------------------------------------------------

def test_quadratize_negative_identity():
    q, aux = quadratize(poly({(1, 2, 3): -1}), fresh_start=10)
    assert aux == (10,)
    assert q == poly({(10, 1): -1, (10, 2): -1, (10, 3): -1, (10,): 2})


def test_quadratize_positive_identity():
    q, aux = quadratize(poly({(1, 2, 3): 1}), fresh_start=10)
    assert aux == (10,)
    expected = poly({(10, 1): 1, (10, 2): 1, (10, 3): 1, (10,): -1,
                     (1,): -1, (2,): -1, (3,): -1, (): 1,
                     (1, 2): 1, (1, 3): 1, (2, 3): 1})
    assert q == expected


def min_over_aux(q, aux, base_assignment):
    best = None
    for vals in bits(len(aux)):
        a = dict(base_assignment)
        a.update(dict(zip(aux, vals)))
        v = poly_evaluate(q, a)
        best = v if best is None else min(best, v)
    return best


def test_quadratize_min_equals_cubic_random():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(3, 5)
        terms = {}
        for _ in range(rng.randint(1, 8)):
            size = rng.randint(0, 3)
            mono = tuple(rng.sample(range(1, n + 1), size))
            terms[mono] = terms.get(mono, 0) + rng.randint(-4, 4)
        p = poly(terms)
        q, aux = quadratize(p, fresh_start=100)
        assert q.degree <= 2
        for vals in bits(n):
            base = dict(enumerate(vals, start=1))
            assert min_over_aux(q, aux, base) == poly_evaluate(p, base)


def test_quadratized_clause_penalty_nonnegative_under_all_assignments():
    # the key property: psi >= 0 even for suboptimal auxiliary values
    rng = random.Random(23)
    for _ in range(30):
        vs = rng.sample(range(1, 5), 3)
        clause = tuple(v if rng.random() < 0.5 else -v for v in vs)
        m = rng.randint(1, 9)
        q, aux = quadratize(clause_penalty(clause, m), fresh_start=50)
        for vals in bits(4 + len(aux)):
            a = dict(enumerate(vals[:4], start=1))
            a.update(dict(zip(aux, vals[4:])))
            assert poly_evaluate(q, a) >= 0


# --- the reduction ------------------------------------------------------

def simple_sat():
    return W3SatTriv(num_vars=3, clauses=((1, -2, -3),), weights=(1, 1, 1))


def test_w3sat_to_qpbo_node_count():
    inst, trace = w3sat_to_qpbo(simple_sat())
    assert len(inst.nodes) == 4  # 3 variables + 1 auxiliary per clause
    assert trace.original_nodes == (1, 2, 3)
    assert len(trace.aux_nodes) == 1
    assert trace.big_m == 3


def sat_optimum(sat):
    return min(sat.measure(a) for a in sat.feasible_solutions())


def qpbo_optimum(inst):
    return min(evaluate(inst, y) for y in all_labelings(inst))


_I64_MAX = 2**63 - 1
_TWO_CLAUSES = "1 -2 3 0\n-1 2 -3 0\n"


@pytest.mark.parametrize("weights", [f"{_I64_MAX - 1} 1 0", f"{2**62} {2**62 - 1} 0"],
                         ids=["sum-at-int64-max", "halves"])
def test_w3sat_to_qpbo_names_m_when_its_penalties_leave_int64(tmp_path, capsys, weights):
    # Both weight lines sum to M = 2^63 - 1, which the parser accepts; the
    # second clause's auxiliary takes a linear coefficient of 2M, so the
    # reduction stops before it builds a table.
    path, out = tmp_path / "f.wcnf3", tmp_path / "f.mine"
    path.write_text(f"p wcnf3 3 2\nw {weights}\n{_TWO_CLAUSES}")
    assert run_cli(["reduce", "w3sat-to-qpbo", str(path), str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: M = {_I64_MAX}, the weight sum, scales the quadratized "
                            f"clause penalties to a coefficient of {2 * _I64_MAX}; every "
                            f"coefficient must lie in signed 64-bit range\n")
    assert not out.exists()


def test_w3sat_to_qpbo_builds_up_to_the_penalty_bound(tmp_path):
    # For these two clauses the largest coefficient is 2M: M = 2^62 - 1 is
    # the last that fits, and M = 2^62 is refused.
    clauses = ((1, -2, 3), (-1, 2, -3))
    target, _ = w3sat_to_qpbo(W3SatTriv(3, clauses, (2**62 - 1, 0, 0)))
    assert max(max(row) for row in target.unary.values()) == 2**63 - 2
    with pytest.raises(SatError, match=f"M = {2**62}, the weight sum"):
        w3sat_to_qpbo(W3SatTriv(3, clauses, (2**62, 0, 0)))
    path = tmp_path / "f.wcnf3"
    path.write_text(f"p wcnf3 3 2\nw {2**62 - 1} 0 0\n{_TWO_CLAUSES}")
    assert run_cli(["reduce", "w3sat-to-qpbo", str(path), str(tmp_path / "f.mine")]) == 0


def test_satisfiable_formula_same_optimum():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(3, 5)
        clauses = []
        for _ in range(rng.randint(1, 3)):
            vs = rng.sample(range(1, n + 1), 3)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        sat = W3SatTriv(n, tuple(clauses), tuple(rng.randint(0, 3) for _ in range(n)))
        inst, trace = w3sat_to_qpbo(sat)
        m1 = sat_optimum(sat)
        m2 = qpbo_optimum(inst)
        if any(sat.satisfies(a) for a in sat.feasible_solutions()):
            assert m1 == m2
        else:
            assert m1 == trace.big_m <= m2


def test_unsatisfiable_formula_optimum_at_least_m():
    # all 8 sign patterns on the same 3 variables: unsatisfiable
    clauses = tuple((s1 * 1, s2 * 2, s3 * 3)
                    for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1))
    sat = W3SatTriv(3, clauses, (1, 1, 1))
    inst, trace = w3sat_to_qpbo(sat)
    assert sat_optimum(sat) == trace.big_m == 3
    assert qpbo_optimum(inst) >= trace.big_m


def test_sigma_thresholds_and_measure_transfer():
    sat = simple_sat()
    inst, trace = w3sat_to_qpbo(sat)
    reverse = w3sat_sigma(sat, trace)
    for y in all_labelings(inst):
        x = reverse(y)
        assert sat.is_feasible(x)
        assert sat.measure(x) <= evaluate(inst, y)
        if evaluate(inst, y) >= trace.big_m:
            assert x == sat.all_true()
        else:
            assert sat.satisfies(x)


def test_ap_harness_single_clause_enumeration():
    instances = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                for w in product((0, 1, 2), repeat=3):
                    instances.append(W3SatTriv(3, ((s1 * 1, s2 * 2, s3 * 3),), w))
    report = verify_ap_reduction(w3sat_to_qpbo, w3sat_sigma, 1, instances,
                                 source=SAT_SOURCE)
    assert report.ok, report.counterexamples[:3]
    assert report.checked == len(instances)


def test_ap_harness_catches_broken_sigma():
    # drop the M branch: restriction of an M-level labeling is infeasible
    def bad_sigma(sat, trace):
        return lambda y, value: {i: bool(y[i]) for i in range(1, sat.num_vars + 1)}

    clauses = tuple((s1 * 1, s2 * 2, s3 * 3)
                    for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1))
    sat = W3SatTriv(3, clauses, (1, 1, 1))  # unsatisfiable
    report = verify_ap_reduction(w3sat_to_qpbo, bad_sigma, 1, [sat],
                                 source=SAT_SOURCE)
    assert not report.ok
    assert any(ce.check == "sigma-feasible" for ce in report.counterexamples)


# --- one binding per reduced formula --------------------------------------

def test_one_binding_builds_once_and_compares_the_trace_once(monkeypatch):
    from mine.reductions import wsat
    from mine.reductions.trace import ReductionTrace
    sat = random_w3sat(3, max_vars=6, max_clauses=4)
    target, trace = w3sat_to_qpbo(sat)
    builds, compared = [], []
    build, equal = wsat.w3sat_to_qpbo, ReductionTrace.__eq__
    monkeypatch.setattr(wsat, "w3sat_to_qpbo", lambda s: builds.append(s) or build(s))
    monkeypatch.setattr(ReductionTrace, "__eq__",
                        lambda a, b: compared.append(1) or equal(a, b))
    reverse = w3sat_sigma(sat, trace)
    assert builds == [sat] and len(compared) == 1
    pairs = list(scored_labelings(target))
    assert len(pairs) >= 16
    for y, value in pairs:
        assert reverse(y, value) == reverse(y)
    assert builds == [sat] and len(compared) == 1


def test_the_harness_binds_once_per_formula(monkeypatch):
    from mine.reductions import wsat
    sats = [random_w3sat(seed, max_vars=5, max_clauses=3) for seed in range(5)]
    builds = []
    build = wsat.w3sat_to_qpbo
    monkeypatch.setattr(wsat, "w3sat_to_qpbo", lambda s: builds.append(s) or build(s))
    report = verify_ap_reduction(wsat.w3sat_to_qpbo, w3sat_sigma, 1, sats, source=SAT_SOURCE)
    assert report.ok and report.checked == len(sats)
    # one build for the forward map and one for the binding, per formula
    assert builds == [s for s in sats for _ in range(2)]
    assert report.stats["sigma_calls"] == report.stats["labelings"] > len(builds)


def test_the_map_given_a_value_equals_the_map_without_one():
    fallbacks = restrictions = 0
    for seed in range(50):
        sat = random_w3sat(seed)
        target, trace = w3sat_to_qpbo(sat)
        reverse = w3sat_sigma(sat, trace)
        for y, value in scored_labelings(target):
            x = reverse(y, value)
            assert x == reverse(y) == reverse(y, None), (seed, y)
            if value >= trace.big_m:
                assert x == sat.all_true()
                fallbacks += 1
            else:
                assert x == {i: bool(y[i]) for i in trace.original_nodes}
                restrictions += 1
    assert fallbacks and restrictions


def test_the_map_trusts_the_value_it_is_given():
    # The harness hands over the oracle's value; the map does not re-score y.
    sat = simple_sat()
    target, trace = w3sat_to_qpbo(sat)
    low, high = {1: 1, 2: 0, 3: 0, 4: 0}, {1: 0, 2: 1, 3: 1, 4: 0}
    assert evaluate(target, low) < trace.big_m <= evaluate(target, high)
    reverse = w3sat_sigma(sat, trace)
    assert reverse(low) == {1: True, 2: False, 3: False}
    assert reverse(high) == reverse(low, trace.big_m) == sat.all_true()
    assert reverse(high, 0) == {1: False, 2: True, 3: True}


def test_sigma_rejects_a_trace_of_another_formula():
    sat = random_w3sat(1)
    heavy = W3SatTriv(sat.num_vars, sat.clauses, tuple(9 for _ in sat.weights))
    _, trace = w3sat_to_qpbo(sat)
    y = {u: 0 for u in trace.target_nodes()}
    assert sat.is_feasible(w3sat_sigma(sat, trace)(y))
    # a wrong trace raises at binding, before any labeling is mapped
    with pytest.raises(SatError, match="^trace was not made from this formula$"):
        w3sat_sigma(heavy, trace)
    from mine.reductions.trace import ReductionTrace
    other_kind = ReductionTrace(kind="qpbo-to-klabel", original_nodes=trace.original_nodes,
                                aux_nodes=trace.aux_nodes, big_m=trace.big_m)
    with pytest.raises(SatError, match="^trace kind mismatch$"):
        w3sat_sigma(sat, other_kind)


def _evaluate_error(target, y):
    """The error evaluate raises on a bad y, the map's route before it was bound."""
    with pytest.raises(InstanceError) as caught:
        evaluate(target, y)
    return str(caught.value)


@pytest.mark.parametrize("y", [
    {1: 0, 2: 0, 3: 0},  # a node missing
    {1: 0, 2: 0, 3: 0, 4: 0, 5: 0},  # a node too many
    {1: 0, 2: 2, 3: 0, 4: 0},
    {1: 0, 2: 0, 3: -1, 4: 0},
    {1: 1.0, 2: 0, 3: 0, 4: 0},  # equal to a valid label, but not an int
    {1: 0, 2: "1", 3: 0, 4: 0},
    {1: 0, 2: 0, 3: None, 4: 0},
    {1: 0, 2: 5, 3: 0.5, 4: 0},
], ids=["missing", "extra", "label-2", "negative", "float", "str", "none", "two-defects"])
def test_a_bad_labeling_gives_evaluates_error(y):
    sat = simple_sat()
    target, trace = w3sat_to_qpbo(sat)
    reverse = w3sat_sigma(sat, trace)
    message = _evaluate_error(target, y)
    for args in ((y,), (y, None), (y, 0), (y, trace.big_m)):
        with pytest.raises(InstanceError) as caught:
            reverse(*args)
        assert str(caught.value) == message
    # bools are labels, as check_labeling allows
    assert reverse({1: True, 2: False, 3: False, 4: False}, 1) == {1: True, 2: False, 3: False}


def test_the_reverse_map_receives_the_oracles_pairs_in_order():
    from mine.reductions.harness import default_oracle
    sats = [random_w3sat(seed, max_vars=4, max_clauses=2) for seed in range(6)]
    given, received, bound = [], [], []

    def oracle(target):
        pairs = default_oracle(target)
        given.extend((dict(y), v) for y, v in pairs)
        return pairs

    def recording(sat, trace):
        bound.append(sat)
        reverse = w3sat_sigma(sat, trace)

        def record(y, value):
            received.append((dict(y), value))
            return reverse(y, value)
        return record

    report = verify_ap_reduction(w3sat_to_qpbo, recording, 1, sats, oracle=oracle,
                                 source=SAT_SOURCE)
    assert report.ok and bound == sats
    assert received == given and len(given) == report.stats["sigma_calls"]
    # an instance with no target labeling to map is never bound
    bound.clear()
    empty = W3SatTriv(3, (), (0, 0, 0))
    report = verify_ap_reduction(w3sat_to_qpbo, recording, 1, [empty],
                                 oracle=lambda target: [], source=SAT_SOURCE)
    assert [ce.check for ce in report.counterexamples] == ["feasibility"]
    nothing_feasible = SourceAdapter(lambda sat: [], SAT_SOURCE.is_feasible, SAT_SOURCE.measure)
    report = verify_ap_reduction(w3sat_to_qpbo, recording, 1, [empty],
                                 oracle=lambda target: [], source=nothing_feasible)
    assert report.ok and report.ratio_undefined == [0]
    assert bound == []


def test_cli_sigma_rejects_a_trace_of_another_formula(tmp_path, capsys):
    sat = random_w3sat(1)
    heavy = W3SatTriv(sat.num_vars, sat.clauses, tuple(9 for _ in sat.weights))
    _, trace = w3sat_to_qpbo(sat)
    paths = {name: tmp_path / name for name in ("f.wcnf3", "heavy.wcnf3", "t.json", "y.sol")}
    paths["f.wcnf3"].write_text(serialize_wcnf3(sat))
    paths["heavy.wcnf3"].write_text(serialize_wcnf3(heavy))
    paths["t.json"].write_text(write_trace(trace))
    paths["y.sol"].write_text(serialize_solution({u: 0 for u in trace.target_nodes()}))
    args = ["--trace", str(paths["t.json"]), "--solution", str(paths["y.sol"])]
    assert run_cli(["sigma", str(paths["f.wcnf3"])] + args) == 0
    capsys.readouterr()
    assert run_cli(["sigma", str(paths["heavy.wcnf3"])] + args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# --- the construction as a product of polynomials ------------------------
# The reduction as it was first written: each clause's truth polynomial by
# multiplying out its falsity factors, the penalty M * (1 - truth), and
# every sum accumulated term by term.  The forward map must build the
# same target and trace, byte for byte.

def _sum(*polys):
    acc = {}
    for p in polys:
        for mono, coef in p.terms.items():
            acc[mono] = acc.get(mono, 0) + coef
            if acc[mono] == 0:
                del acc[mono]
    return MultilinearPoly(acc)


def _product(a, b):
    acc = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            mono = ma | mb  # multilinear: x^2 = x
            acc[mono] = acc.get(mono, 0) + ca * cb
            if acc[mono] == 0:
                del acc[mono]
    return MultilinearPoly(acc)


def _product_truth(clause):
    falsity = poly({(): 1})
    for lit in clause:
        v = abs(lit)
        falsity = _product(falsity, poly({(): 1, (v,): -1}) if lit > 0 else poly({(v,): 1}))
    return _sum(poly({(): 1}), poly_scale(falsity, -1))


def _product_penalty(clause, m):
    return poly_scale(_sum(poly({(): 1}), poly_scale(_product_truth(clause), -1)), m)


def _product_quadratize(p, fresh):
    out = MultilinearPoly({m: c for m, c in p.terms.items() if len(m) < 3})
    aux = []
    for mono in sorted((m for m in p.terms if len(m) == 3), key=sorted):
        a, (i, j, k), w = p.terms[mono], sorted(mono), fresh + len(aux)
        aux.append(w)
        if a < 0:
            gadget = poly({(w, i): 1, (w, j): 1, (w, k): 1, (w,): -2})
        else:
            gadget = poly({(w, i): 1, (w, j): 1, (w, k): 1, (w,): -1,
                           (i,): -1, (j,): -1, (k,): -1, (): 1,
                           (i, j): 1, (i, k): 1, (j, k): 1})
        out = _sum(out, poly_scale(gadget, a))
    return out, tuple(aux)


def _product_w3sat_to_qpbo(sat):
    m = sum(sat.weights)
    parts = [poly({(i,): w for i, w in enumerate(sat.weights, start=1) if w})]
    aux_nodes = []
    fresh = sat.num_vars + 1
    for clause in sat.clauses:
        quad, aux = _product_quadratize(_product_penalty(clause, max(m, 1)), fresh)
        parts.append(quad)
        aux_nodes.extend(aux)
        fresh += len(aux)
    originals = tuple(range(1, sat.num_vars + 1))
    instance = quadratic_poly_to_instance(_sum(*parts), variables=originals + tuple(aux_nodes))
    trace = ReductionTrace(kind="w3sat-to-qpbo", original_nodes=originals,
                           aux_nodes=tuple(aux_nodes), big_m=m, next_fresh_id=fresh)
    return instance, trace


@pytest.mark.parametrize("variables", [(1, 2, 3), (7, 2, 5)])
def test_clause_polynomials_equal_the_multiplied_out_product(variables):
    for signs in product((1, -1), repeat=3):
        clause = tuple(s * v for s, v in zip(signs, variables))
        assert clause_to_poly(clause) == _product_truth(clause)
        for m in (1, 2, 7, 2**62, 2**70):
            assert clause_penalty(clause, m) == _product_penalty(clause, m), (clause, m)


def test_w3sat_to_qpbo_writes_what_the_multiplied_out_product_writes():
    for seed in range(200):
        sat = random_w3sat(seed)
        got, want = w3sat_to_qpbo(sat), _product_w3sat_to_qpbo(sat)
        assert (serialize_instance(got[0]) + write_trace(got[1])
                == serialize_instance(want[0]) + write_trace(want[1])), seed


def test_formula_rejects_a_wrong_weight_count_and_a_negative_weight():
    with pytest.raises(SatError, match="one weight per variable required"):
        W3SatTriv(3, ((1, 2, 3),), (1, 1))
    with pytest.raises(SatError, match="one weight per variable required"):
        W3SatTriv(3, ((1, 2, 3),), (1, 1, 1, 1))
    with pytest.raises(SatError, match="weights must be non-negative"):
        W3SatTriv(3, ((1, 2, 3),), (1, -1, 1))
