"""Scored enumeration and the AP harness against their per-labeling oracles."""

import random
from fractions import Fraction
from itertools import product

import pytest

from mine.costs import I64_MAX, INF, CostOverflowError, is_finite
from mine.generate import random_general, random_qpbo, random_w3sat
from mine.instance import (EnergyInstance, all_labelings, evaluate, make_instance,
                           scored_labelings)
from mine.reductions.harness import (ENERGY_SOURCE, SAT_SOURCE, APReport,
                                     Counterexample, SourceAdapter,
                                     default_oracle, verify_ap_reduction)
from mine.reductions.klabel import klabel_sigma, qpbo_to_klabel
from mine.reductions.wsat import W3SatTriv, w3sat_sigma, w3sat_to_qpbo
from mine.solvers import SolverError, solve_brute_force


def _outcomes(pairs):
    """The pairs an enumeration yields, then the overflow that ended it, if one did."""
    out = []
    try:
        for x, value in pairs:
            out.append((x, value))
    except CostOverflowError as exc:
        out.append(("raised", str(exc)))
    return out


def _reference(instance):
    return ((x, evaluate(instance, x)) for x in all_labelings(instance))


# --- scored_labelings ---------------------------------------------------

def test_scored_labelings_equal_evaluate_on_random_instances_with_inf():
    seen_inf = seen_finite = 0
    for seed in range(400):
        inst = random_general(seed, max_nodes=6, max_labels=3, inf_prob=0.3)
        got = list(scored_labelings(inst))
        assert got == list(_reference(inst)), seed
        seen_inf += sum(v is INF for _, v in got)
        seen_finite += sum(is_finite(v) for _, v in got)
    assert seen_inf > 1000 and seen_finite > 1000


def test_scored_labelings_on_shuffled_node_orders():
    # Edge endpoints come in either order along instance.nodes.
    rng = random.Random(5)
    for seed in range(100):
        inst = random_general(seed, max_nodes=6, max_labels=3, inf_prob=0.2)
        nodes = list(inst.nodes)
        rng.shuffle(nodes)
        shuffled = type(inst)(nodes=tuple(nodes), labels=inst.labels, unary=inst.unary,
                              edges=inst.edges, pairwise=inst.pairwise,
                              constant=inst.constant)
        assert list(scored_labelings(shuffled)) == list(_reference(shuffled))


def test_scored_labelings_with_one_label_nodes():
    inst = make_instance({0: 1, 1: 3, 2: 1, 3: 2},
                         {0: (4,), 1: (0, INF, 2), 2: (-3,), 3: (1, 0)},
                         {(0, 1): ((1, 2, 3),), (1, 2): ((0,), (5,), (INF,)),
                          (2, 3): ((7, -7),), (0, 3): ((2, INF),)},
                         constant=-2)
    got = list(scored_labelings(inst))
    assert len(got) == 6
    assert got == list(_reference(inst))
    single = make_instance({7: 1}, {7: (5,)}, constant=3)
    assert list(scored_labelings(single)) == [({7: 0}, 8)]


def test_scored_labelings_of_the_empty_instance():
    inst = make_instance({}, constant=-4)
    assert list(scored_labelings(inst)) == [({}, -4)]
    assert list(scored_labelings(inst)) == list(_reference(inst))


def test_scored_labelings_yield_fresh_dicts():
    inst = random_general(3, max_nodes=4, max_labels=2)
    pairs = list(scored_labelings(inst))
    assert len({id(x) for x, _ in pairs}) == len(pairs)
    pairs[0][0][inst.nodes[0]] = 99
    assert list(scored_labelings(inst))[0] == list(_reference(inst))[0]


def test_scored_labelings_overflow_where_evaluate_overflows():
    # Entries of +-2^62 push |constant| + sum |entries| past int64, so every
    # labeling is scored by evaluate, which raises where a partial sum does.
    big = 2**62
    raised = finished = 0
    for seed in range(300):
        rng = random.Random(seed)
        base = random_general(seed, max_nodes=5, max_labels=3, inf_prob=0.2)

        def pick(c):
            if c is INF or rng.random() < 0.5:
                return c
            return rng.choice((big, -big, big - 1, -big + 3))

        inst = make_instance(base.labels,
                             {u: tuple(map(pick, base.unary[u])) for u in base.nodes},
                             {e: tuple(tuple(map(pick, row)) for row in base.pairwise[e])
                              for e in base.edges},
                             base.constant)
        got = _outcomes(scored_labelings(inst))
        assert got == _outcomes(_reference(inst)), seed
        if got and got[-1][0] == "raised":
            raised += 1
        else:
            finished += 1
    assert raised > 30 and finished > 30


def test_scored_labelings_at_the_int64_edge(monkeypatch):
    # |constant| + sum |entries| == I64_MAX: updated in place, evaluate never
    # runs; one more and evaluate scores every labeling, with the same values.
    import mine.instance

    scored = []
    monkeypatch.setattr(mine.instance, "evaluate",
                        lambda inst, x: scored.append(x) or evaluate(inst, x))
    c = 2**61
    for extra, evaluated in ((0, 0), (1, 4)):
        inst = make_instance({0: 2, 1: 2},
                             {0: (c, -c), 1: (0, INF)},
                             {(0, 1): ((2 * c - 6 + extra, 0), (0, 0))},
                             constant=5)
        del scored[:]
        assert list(scored_labelings(inst)) == list(_reference(inst))
        assert len(scored) == evaluated


def test_brute_force_keeps_the_smallest_argmin():
    inst = make_instance({0: 2, 1: 2}, {0: (1, 0), 1: (0, 1)},
                         {(0, 1): ((0, 1), (1, 0))})
    r = solve_brute_force(inst)
    assert (r.labeling, r.value) == ({0: 0, 1: 0}, 1)
    for seed in range(200):
        inst = random_general(seed, max_nodes=5, max_labels=3, inf_prob=0.3)
        best = min(_reference(inst), key=lambda p: p[1])  # first minimum
        r = solve_brute_force(inst)
        assert (r.labeling, r.value) == best


# --- the enumeration bound ---------------------------------------------

def test_harness_enumeration_is_bounded(monkeypatch):
    inst = make_instance({0: 3, 1: 3})  # 9 labelings
    monkeypatch.setenv("MINE_BRUTE_LIMIT", "9")
    assert len(default_oracle(inst)) == 9
    assert len(list(ENERGY_SOURCE.feasible_solutions(inst))) == 9
    monkeypatch.setenv("MINE_BRUTE_LIMIT", "8")
    for enumerate_all in (default_oracle, ENERGY_SOURCE.feasible_solutions,
                          solve_brute_force):
        with pytest.raises(SolverError, match="bound 8"):
            enumerate_all(inst)


# --- verify_ap_reduction against the per-labeling loop --------------------

def _reference_energy_feasible(instance):
    return [x for x in all_labelings(instance) if is_finite(evaluate(instance, x))]


_REFERENCE_ENERGY_SOURCE = SourceAdapter(
    feasible_solutions=_reference_energy_feasible,
    is_feasible=lambda inst, x: is_finite(evaluate(inst, x)),
    measure=evaluate,
)


def _reference_verify(pi, sigma, alpha, instances, source=ENERGY_SOURCE):
    """The harness as it was: every labeling evaluated, every sigma output scored."""
    if source is ENERGY_SOURCE:
        source = _REFERENCE_ENERGY_SOURCE
    report = APReport(alpha=Fraction(alpha))
    for idx, src in enumerate(instances):
        report.checked += 1
        try:
            target, trace = pi(src)
        except Exception as exc:  # noqa: BLE001
            report.counterexamples.append(Counterexample(idx, "well-formed", None,
                                                         f"pi raised {exc!r}"))
            continue
        if not isinstance(target, EnergyInstance):
            report.counterexamples.append(Counterexample(idx, "well-formed", None,
                                                         "pi did not return an EnergyInstance"))
            continue
        if trace.target_nodes() != set(target.nodes):
            report.counterexamples.append(Counterexample(idx, "well-formed", None,
                                                         "trace does not partition the target nodes"))
            continue
        feasible = list(source.feasible_solutions(src))
        solutions = [(y, evaluate(target, y)) for y in all_labelings(target)]
        if feasible and not solutions:
            report.counterexamples.append(Counterexample(idx, "feasibility", None,
                                                         "feasible source but empty target"))
            continue
        opt1 = min(source.measure(src, x) for x in feasible) if feasible else None
        finite_values = [val for _, val in solutions if is_finite(val)]
        opt2 = min(finite_values) if finite_values else None
        ratios_ok = opt1 is not None and opt2 is not None and opt1 > 0 and opt2 > 0
        if not ratios_ok:
            report.ratio_undefined.append(idx)
        for y, val in solutions:
            x = sigma(src, trace, y)
            if not source.is_feasible(src, x):
                report.counterexamples.append(Counterexample(idx, "sigma-feasible", dict(y),
                                                             f"sigma output {x} infeasible"))
                continue
            if ratios_ok and is_finite(val):
                r2 = Fraction(val, opt2)
                r1 = Fraction(source.measure(src, x), opt1)
                if r1 > 1 + report.alpha * (r2 - 1):
                    report.counterexamples.append(Counterexample(
                        idx, "ratio-transfer", dict(y),
                        f"R1={r1} > 1 + {report.alpha}*(R2-1) with R2={r2}"))
    return report


def _both(pi, sigma, alpha, instances, source=ENERGY_SOURCE):
    got = verify_ap_reduction(pi, sigma, alpha, instances, source=source)
    want = _reference_verify(pi, sigma, alpha, instances, source=source)
    assert got == want
    assert got.counterexamples == want.counterexamples  # the same order
    return got


def _unsat_formula():
    clauses = tuple((s1 * 1, s2 * 2, s3 * 3)
                    for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1))
    return W3SatTriv(3, clauses, (1, 1, 1))


def _restriction_only(sat, trace, y):  # drops the all-true fallback
    return {i: bool(y[i]) for i in range(1, sat.num_vars + 1)}


def test_harness_equals_the_reference_on_w3sat_formulas():
    sats = [random_w3sat(seed, max_vars=5, max_clauses=3) for seed in range(40)]
    sats += [W3SatTriv(3, ((1, -2, 3),), w) for w in product((0, 1, 3), repeat=3)]
    report = _both(w3sat_to_qpbo, w3sat_sigma, 1, sats, source=SAT_SOURCE)
    assert report.ok and len(report.ratio_undefined) < len(sats)


def test_harness_equals_the_reference_on_klabel_targets():
    instances = [random_qpbo(seed, max_nodes=5) for seed in range(40)]
    for k in (3, 4):
        report = _both(lambda s: qpbo_to_klabel(s, k), klabel_sigma, 1, instances)
        assert report.ok and len(report.ratio_undefined) < len(instances)


def test_harness_equals_the_reference_on_broken_maps():
    sats = [_unsat_formula()] + [random_w3sat(seed, max_vars=4) for seed in range(10)]
    report = _both(w3sat_to_qpbo, _restriction_only, 1, sats, source=SAT_SOURCE)
    assert any(ce.check == "sigma-feasible" for ce in report.counterexamples)

    def all_zeros(src, trace, y):
        return {u: 0 for u in src.nodes}

    instances = [random_qpbo(seed, max_nodes=4) for seed in range(30)]
    report = _both(lambda s: qpbo_to_klabel(s, 3), all_zeros, 1, instances)
    assert any(ce.check == "ratio-transfer" for ce in report.counterexamples)

    def first_label_infinite(src, trace, y):  # an infeasible source labeling
        return dict(y)

    with_inf = make_instance({0: 2, 1: 2}, {0: (1, INF), 1: (2, 1)})
    report = _both(lambda s: (s, qpbo_to_klabel(make_instance({0: 2, 1: 2}), 2)[1]),
                   first_label_infinite, 1, [with_inf])
    assert [ce.check for ce in report.counterexamples] == ["sigma-feasible"] * 2

    def bad_pi(src):
        raise ValueError("no target")

    report = _both(bad_pi, klabel_sigma, 1, instances[:2])
    assert [ce.check for ce in report.counterexamples] == ["well-formed"] * 2


def test_source_scores_each_distinct_sigma_output_once():
    calls = {"is_feasible": [], "measure": []}

    def counted(name, fn):
        def wrapper(src, x):
            calls[name].append(dict(x))
            return fn(src, x)
        return wrapper

    source = SourceAdapter(feasible_solutions=SAT_SOURCE.feasible_solutions,
                           is_feasible=counted("is_feasible", SAT_SOURCE.is_feasible),
                           measure=counted("measure", SAT_SOURCE.measure))
    sats = [W3SatTriv(3, ((1, 2, 3),), (1, 2, 3)), W3SatTriv(3, ((1, 2, -3),), (2, 1, 1))]
    report = verify_ap_reduction(w3sat_to_qpbo, w3sat_sigma, 1, sats, source=source)
    assert report.ok and report.ratio_undefined == [1]
    distinct = []  # per formula, its distinct sigma outputs in first-seen order
    for sat in sats:
        target, trace = w3sat_to_qpbo(sat)
        outputs = []
        for y in all_labelings(target):
            x = w3sat_sigma(sat, trace, y)
            if x not in outputs:
                outputs.append(x)
        distinct += outputs
    assert calls["is_feasible"] == distinct
    assert report.stats == {"labelings": 32, "sigma_calls": 32,
                            "source_scored": len(distinct)}
    assert len(distinct) < 32
    # measure: once per feasible assignment for the optimum, then at most
    # once per distinct output the ratio check reaches
    optimum_calls = sum(len(list(sat.feasible_solutions())) for sat in sats)
    assert optimum_calls < len(calls["measure"]) <= optimum_calls + len(distinct)


# --- report counters -------------------------------------------------------

def test_report_stats_on_a_tiny_w3sat_formula():
    sat = W3SatTriv(3, ((1, 2, 3),), (1, 1, 1))  # 3 variables + 1 auxiliary
    report = verify_ap_reduction(w3sat_to_qpbo, w3sat_sigma, 1, [sat], source=SAT_SOURCE)
    # 7 satisfying assignments; all-true is one of them
    assert report.stats == {"labelings": 16, "sigma_calls": 16, "source_scored": 7}


def test_report_stats_on_a_tiny_klabel_instance():
    inst = make_instance({0: 2, 1: 2}, {0: (0, 1), 1: (2, 0)}, {(0, 1): ((1, 0), (0, 3))})
    report = verify_ap_reduction(lambda s: qpbo_to_klabel(s, 3), klabel_sigma, 1, [inst])
    # 9 labelings; a padding label maps to all zeros, one of the 4 binary ones
    assert report.stats == {"labelings": 9, "sigma_calls": 9, "source_scored": 4}


def test_report_stats_take_no_part_in_equality():
    a = APReport(alpha=Fraction(1))
    b = APReport(alpha=Fraction(1))
    b.stats["labelings"] = 5
    assert a == b


def test_bound_limits_the_sum_not_each_entry():
    # Every entry fits in int64 but their absolute sum does not.
    assert 3 * (2**62) > I64_MAX
    inst = make_instance({0: 2, 1: 2, 2: 2},
                         {0: (2**62, 0), 1: (2**62, 0), 2: (-(2**62), 0)})
    assert _outcomes(scored_labelings(inst)) == _outcomes(_reference(inst))
    assert any(o[0] == "raised" for o in _outcomes(scored_labelings(inst)))
