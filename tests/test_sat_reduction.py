import random
from itertools import product

import pytest

from mine.cli import run_cli
from mine.fileformat import serialize_solution, serialize_wcnf3, write_trace
from mine.generate import random_w3sat
from mine.instance import all_labelings, evaluate
from mine.poly import poly, poly_evaluate
from mine.reductions.harness import SAT_SOURCE, verify_ap_reduction
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
    for y in all_labelings(inst):
        x = w3sat_sigma(sat, trace, y)
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
    def bad_sigma(sat, trace, y):
        return {i: bool(y[i]) for i in range(1, sat.num_vars + 1)}

    clauses = tuple((s1 * 1, s2 * 2, s3 * 3)
                    for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1))
    sat = W3SatTriv(3, clauses, (1, 1, 1))  # unsatisfiable
    report = verify_ap_reduction(w3sat_to_qpbo, bad_sigma, 1, [sat],
                                 source=SAT_SOURCE)
    assert not report.ok
    assert any(ce.check == "sigma-feasible" for ce in report.counterexamples)


# --- one target per formula ---------------------------------------------

@pytest.fixture
def counted_builds(monkeypatch):
    """A list that grows by one per w3sat_to_qpbo build, the reverse map's included."""
    from mine.reductions import wsat
    builds = []
    build = wsat.w3sat_to_qpbo

    def counting(sat):
        builds.append(sat)
        return build(sat)

    # The reverse map memoizes the last build; a patched forward map must
    # start and leave an empty memo.
    wsat._memo = (None,) * 4
    monkeypatch.setattr(wsat, "w3sat_to_qpbo", counting)
    yield builds
    wsat._memo = (None,) * 4


def test_harness_builds_the_target_at_most_twice_per_formula(counted_builds):
    from mine.reductions import wsat
    sat = random_w3sat(3, max_vars=6, max_clauses=4)
    report = verify_ap_reduction(wsat.w3sat_to_qpbo, w3sat_sigma, 1, [sat],
                                 source=SAT_SOURCE)
    assert report.ok and report.checked == 1
    target, _ = w3sat_to_qpbo(sat)
    assert 2 ** len(target.nodes) >= 16  # the map ran once per target labeling
    assert 1 <= len(counted_builds) <= 2
    assert all(s == sat for s in counted_builds)


def test_equal_formulas_share_one_build(counted_builds):
    sat = simple_sat()
    _, trace = w3sat_to_qpbo(sat)
    y = {1: 1, 2: 0, 3: 0, 4: 0}
    w3sat_sigma(sat, trace, y)
    w3sat_sigma(simple_sat(), trace, y)
    assert counted_builds == [sat]


def test_sigma_rejects_a_trace_of_another_formula():
    sat = random_w3sat(1)
    heavy = W3SatTriv(sat.num_vars, sat.clauses, tuple(9 for _ in sat.weights))
    _, trace = w3sat_to_qpbo(sat)
    y = {u: 0 for u in trace.target_nodes()}
    assert sat.is_feasible(w3sat_sigma(sat, trace, y))
    with pytest.raises(SatError):
        w3sat_sigma(heavy, trace, y)


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


def test_sigma_compares_a_trace_with_its_formula_once_per_run(monkeypatch):
    from mine.reductions.trace import ReductionTrace
    sat = random_w3sat(1)
    heavy = W3SatTriv(sat.num_vars, sat.clauses, tuple(9 for _ in sat.weights))
    target, trace = w3sat_to_qpbo(sat)
    compared = []
    equal = ReductionTrace.__eq__
    monkeypatch.setattr(ReductionTrace, "__eq__",
                        lambda a, b: compared.append(1) or equal(a, b))
    labelings = list(all_labelings(target))
    outputs = [w3sat_sigma(sat, trace, y) for y in labelings]
    assert len(compared) == 1
    # the same trace object on another formula is still compared, and rejected
    with pytest.raises(SatError):
        w3sat_sigma(heavy, trace, labelings[0])
    assert w3sat_sigma(sat, trace, labelings[0]) == outputs[0]
    # an equal trace that is another object is compared once, then accepted
    _, again = w3sat_to_qpbo(sat)
    assert again is not trace
    assert [w3sat_sigma(sat, again, y) for y in labelings] == outputs
    assert len(compared) == 4
