"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single pass/fail
line (run with -s to see them).  All comparisons are exact; each
criterion also has a wall-clock budget.
"""

import random
import time
from contextlib import contextmanager
from itertools import product

from test_classifier import corpus as classifier_corpus
from test_solvers import _reference_core, potts_grid

from mine.classify import classify
import mine.solvers
from mine.costs import is_finite
from mine.fileformat import parse_instance, serialize_instance
from mine.generate import (random_crossed_3label, random_forest,
                           random_general, random_potts, random_qpbo,
                           random_submodular, random_w3sat)
from mine.geometry import list_crossings
from mine.instance import all_labelings, evaluate, make_instance
from mine.poly import poly, poly_evaluate
from mine.reductions.gadgets import split_gadget, uncross_copy_gadget
from mine.reductions.harness import SAT_SOURCE, verify_ap_reduction
from mine.reductions.klabel import qpbo_to_klabel
from mine.reductions.planar import AUX_PER_CROSSING, planarize
from mine.reductions.wsat import (W3SatTriv, clause_penalty, quadratize,
                                  w3sat_sigma, w3sat_to_qpbo)
from mine.solvers import (alpha_expansion, solve_brute_force,
                          solve_elimination, solve_submodular_qpbo,
                          solve_tree_dp)


@contextmanager
def criterion(number, name, limit_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < limit_s
    verdict = "PASS" if ok else "FAIL (over time budget)"
    print(f"criterion {number} ({name}): {verdict} "
          f"in {elapsed:.2f}s [budget {limit_s:.0f}s]")
    assert ok, f"criterion {number} took {elapsed:.2f}s, budget {limit_s}s"


def min_over_aux(quad, original_vars, aux_vars, assignment):
    best = None
    for bits in product((0, 1), repeat=len(aux_vars)):
        full = dict(assignment)
        full.update(zip(aux_vars, bits))
        v = poly_evaluate(quad, full)
        best = v if best is None else min(best, v)
    return best


def random_cubic(rng, num_vars):
    terms = {}
    for size in range(min(num_vars, 3) + 1):
        for mono in [frozenset(rng.sample(range(1, num_vars + 1), size))
                     for _ in range(rng.randint(0, 3))]:
            terms[tuple(sorted(mono))] = rng.randint(-5, 5)
    return poly(terms)


def test_criterion_1_quadratization_exactness():
    with criterion(1, "quadratization exactness", 5):
        for seed in range(200):
            rng = random.Random(f"cubic:{seed}")
            n = rng.randint(1, 5)
            cubic = random_cubic(rng, n)
            quad, aux = quadratize(cubic, fresh_start=n + 1)
            assert quad.degree <= 2
            for bits in product((0, 1), repeat=n):
                x = dict(enumerate(bits, start=1))
                assert min_over_aux(quad, range(1, n + 1), aux, x) == \
                    poly_evaluate(cubic, x), (seed, bits)
        # clause penalties stay non-negative under every assignment,
        # auxiliaries included
        for signs in product((1, -1), repeat=3):
            cl = tuple(s * v for s, v in zip(signs, (1, 2, 3)))
            psi, aux = quadratize(clause_penalty(cl, 7), fresh_start=4)
            for bits in product((0, 1), repeat=3 + len(aux)):
                full = dict(zip(list(range(1, 4)) + list(aux), bits))
                assert poly_evaluate(psi, full) >= 0, (cl, bits)


def _sat_corpus():
    sats = []
    for signs in product((1, -1), repeat=3):
        cl = tuple(s * v for s, v in zip(signs, (1, 2, 3)))
        for weights in product((0, 1, 2), repeat=3):
            sats.append(W3SatTriv(3, (cl,), weights))
    sats.extend(random_w3sat(seed, max_vars=6, max_clauses=4)
                for seed in range(100))
    return sats


def test_criterion_2_w3sat_ap_reduction():
    with criterion(2, "weighted-3-SAT AP-reduction", 60):
        sats = _sat_corpus()
        for sat in sats:
            target, trace = w3sat_to_qpbo(sat)
            m2_star = None
            for y in all_labelings(target):
                m2 = evaluate(target, y)
                x = w3sat_sigma(sat, trace, y)
                assert sat.is_feasible(x)
                assert sat.measure(x) <= m2
                m2_star = m2 if m2_star is None else min(m2_star, m2)
            m1_star = min(sat.measure(x) for x in sat.feasible_solutions())
            if any(sat.satisfies(x) for x in sat.feasible_solutions()):
                assert m1_star == m2_star
            else:
                assert m1_star == sum(sat.weights)
                assert m1_star <= m2_star
        report = verify_ap_reduction(w3sat_to_qpbo, w3sat_sigma, 1, sats,
                                     source=SAT_SOURCE)
        assert report.ok, report.counterexamples[:3]
        assert report.checked == len(sats)


def test_criterion_3_klabel_embedding():
    with criterion(3, "binary-to-3-label embedding", 30):
        for seed in range(100):
            inst = random_qpbo(seed, max_nodes=8)
            target, _ = qpbo_to_klabel(inst, 3)
            assert solve_brute_force(inst).value == \
                solve_brute_force(target).value, seed


def test_criterion_4_gadget_semantics():
    with criterion(4, "gadget relation tables", 1):
        split = split_gadget(0, 1, 2).to_instance()
        states = {}
        for combo in product(range(3), range(2), range(2)):
            e = evaluate(split, dict(zip((0, 1, 2), combo)))
            if is_finite(e):
                states[combo] = e
        assert set(states) == {(0, 0, 0), (1, 0, 1), (1, 1, 1), (2, 1, 0)}
        assert set(states.values()) == {0}

        cross = uncross_copy_gadget(0, 1, 2, 3, 4, 5).to_instance()
        ports = {}
        for combo in product(range(3), repeat=6):
            e = evaluate(cross, dict(zip(range(6), combo)))
            if is_finite(e):
                ports.setdefault(combo[:4], set()).add(e)
        assert set(ports) == {(a, b, b, a) for a in range(2) for b in range(2)}
        assert all(vals == {0} for vals in ports.values())


def test_criterion_5_planarization():
    with criterion(5, "planarization", 120):
        for seed in range(50):
            inst, d = random_crossed_3label(seed)
            n_cross = len(list_crossings(inst, d))
            assert 1 <= n_cross <= 3
            out, od, trace = planarize(inst, d)
            assert list_crossings(out, od) == []
            assert len(trace.aux_nodes) == AUX_PER_CROSSING * n_cross
            assert solve_brute_force(inst).value == \
                solve_elimination(out).value, seed


def test_criterion_6_solver_oracle_agreement():
    with criterion(6, "solver oracle agreement", 60):
        for seed in range(200):
            forest = random_forest(seed, max_nodes=7)
            assert solve_tree_dp(forest).value == \
                solve_brute_force(forest).value, seed
            gen = random_general(seed, max_nodes=5, inf_prob=0.1)
            assert solve_elimination(gen).value == \
                solve_brute_force(gen).value, seed
            sub = random_submodular(seed, max_nodes=7)
            assert solve_submodular_qpbo(sub).value == \
                solve_brute_force(sub).value, seed


def test_criterion_7_alpha_expansion_ratio():
    with criterion(7, "alpha-expansion 2-approximation", 60):
        for seed in range(100):
            inst = random_potts(seed, max_nodes=7, k=3)
            r = alpha_expansion(inst)
            opt = solve_brute_force(inst).value
            assert r.value <= 2 * opt, seed
            assert all(b <= a for a, b in zip(r.move_values,
                                             r.move_values[1:])), seed
            assert evaluate(inst, r.labeling) == r.value, seed


def test_criterion_8_classifier_decision_table():
    with criterion(8, "classifier decision table", 1):
        rows = classifier_corpus()
        assert len(rows) == 12
        for name, inst, d, verdict, solver in rows:
            report = classify(inst, d)
            assert report.verdict == verdict, (name, report.verdict)
            assert report.solver == solver, (name, report.solver)


def test_criterion_9_round_trip_io():
    with criterion(9, "round-trip serialization", 10):
        from mine.generate import random_drawing
        for seed in range(500):
            inst = random_general(seed, max_nodes=6, inf_prob=0.2)
            d = random_drawing(seed, inst) if seed % 2 == 0 else None
            text = serialize_instance(inst, d)
            back, bd = parse_instance(text)
            assert back == inst
            assert (bd.coords if bd else None) == (d.coords if d else None)
            assert serialize_instance(back, bd) == text


def test_criterion_10_max_flow_at_scale(monkeypatch):
    # Edmonds-Karp took 10-12 s for a 50x50 4-label alpha-expansion; the
    # budget is a third of that.  The budget times the flow core in use;
    # the Edmonds-Karp oracle's solve runs after it, untimed.
    with criterion(10, "max flow on 50x50 grids", 4):
        potts = potts_grid(0, 50, 50, 4)
        r = alpha_expansion(potts)
        assert evaluate(potts, r.labeling) == r.value
        assert all(b < a for a, b in zip(r.move_values, r.move_values[1:]))
        assert len(r.move_values) > 1
        binary = potts_grid(0, 50, 50, 2)
        cut = solve_submodular_qpbo(binary)
    monkeypatch.setattr(mine.solvers, "_dinic", _reference_core)
    reference = solve_submodular_qpbo(binary)
    assert cut == reference
