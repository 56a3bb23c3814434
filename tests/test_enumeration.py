"""Scored enumeration, the AP harness and evaluate against their per-labeling oracles."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import product
from operator import itemgetter

import pytest

from mine.costs import I64_MAX, INF, CostOverflowError, ext_add, is_finite
from mine.generate import random_general, random_qpbo, random_w3sat
from mine.instance import (EnergyInstance, InstanceError, all_labelings, check_labeling,
                           evaluate, make_instance, normalize_edge, scored_labelings)
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


def _reference_evaluate(instance, x):
    """evaluate as an ordered ext_add loop: constant, unary terms along the
    nodes, pairwise terms along the edges, each partial sum range-checked."""
    check_labeling(instance, x)
    total = instance.constant
    for u in instance.nodes:
        total = ext_add(total, instance.unary[u][x[u]])
    for (u, v) in instance.edges:
        total = ext_add(total, instance.pairwise[(u, v)][x[u]][x[v]])
    return total


def _reference(instance):
    return ((x, _reference_evaluate(instance, x)) for x in all_labelings(instance))


def _scored(evaluate_fn, instance, x):
    """evaluate_fn's value, or the type and message of what it raised."""
    try:
        return evaluate_fn(instance, x)
    except (InstanceError, CostOverflowError) as exc:
        return type(exc), str(exc)


def _with_big_entries(seed, inst):
    """inst with about half its finite entries replaced by +-2^62 or near it,
    so |constant| + finite_sum leaves int64."""
    rng = random.Random(seed)
    big = 2**62

    def pick(c):
        if c is INF or rng.random() < 0.5:
            return c
        return rng.choice((big, -big, big - 1, -big + 3))

    return make_instance(inst.labels,
                         {u: tuple(map(pick, inst.unary[u])) for u in inst.nodes},
                         {e: tuple(tuple(map(pick, row)) for row in inst.pairwise[e])
                          for e in inst.edges},
                         inst.constant)


# --- evaluate against the ordered loop -------------------------------------

def test_evaluate_equals_the_ordered_loop_on_random_instances_with_inf():
    seen = {"inf": 0, "finite": 0, "overflow": 0}
    for seed in range(300):
        base = random_general(seed, max_nodes=5, max_labels=3, inf_prob=0.3)
        for inst in (base, _with_big_entries(seed, base)):
            for x in all_labelings(inst):
                got = _scored(evaluate, inst, x)
                assert got == _scored(_reference_evaluate, inst, x), (seed, x)
                kind = ("inf" if got is INF else "overflow" if isinstance(got, tuple)
                        else "finite")
                seen[kind] += 1
    assert min(seen.values()) > 500, seen


def test_evaluate_rejects_what_the_ordered_loop_rejects():
    inst = random_general(4, max_nodes=4, max_labels=3, inf_prob=0.3)
    first = inst.nodes[0]
    bad = [{}, {u: 0 for u in inst.nodes if u != first},
           {**dict.fromkeys(inst.nodes, 0), 99: 0},
           {**dict.fromkeys(inst.nodes, 0), first: inst.labels[first]},
           {**dict.fromkeys(inst.nodes, 0), first: -1}]
    for x in bad:
        got = _scored(evaluate, inst, x)
        assert got[0] is InstanceError
        assert got == _scored(_reference_evaluate, inst, x)


def _at_the_bound(extra):
    """A 2-node instance whose |constant| + finite_sum is I64_MAX + extra."""
    c = 2**61
    return make_instance({0: 2, 1: 2}, {0: (c, -c), 1: (0, INF)},
                         {(0, 1): ((2 * c - 6 + extra, 0), (0, 0))}, constant=5)


def test_evaluate_at_the_int64_edge():
    for extra in (0, 1):
        inst = _at_the_bound(extra)
        assert abs(inst.constant) + inst.finite_sum == I64_MAX + extra
        for x in all_labelings(inst):
            assert _scored(evaluate, inst, x) == _scored(_reference_evaluate, inst, x)
        assert evaluate(inst, {0: 0, 1: 1}) is INF
        assert evaluate(inst, {0: 0, 1: 0}) == 2**62 + 2**61 - 1 + extra


def test_evaluate_raises_on_an_overflow_before_an_inf_term():
    # Past the bound the terms are added in order: the first two unary terms
    # leave int64 before node 2's INF label is reached, which must not absorb it.
    big = 2**62
    inst = make_instance({0: 1, 1: 1, 2: 2}, {0: (big,), 1: (big,), 2: (INF, 0)})
    x = {0: 0, 1: 0, 2: 0}
    with pytest.raises(CostOverflowError) as exc:
        evaluate(inst, x)
    assert _scored(_reference_evaluate, inst, x) == (CostOverflowError, str(exc.value))
    # and a finite sum that ends in range still raises where a partial sum left it
    inst = make_instance({0: 1, 1: 1, 2: 1}, {0: (big,), 1: (big,), 2: (-big,)})
    with pytest.raises(CostOverflowError):
        evaluate(inst, {0: 0, 1: 0, 2: 0})


def test_evaluate_sums_in_one_pass_while_the_bound_fits(monkeypatch):
    import mine.instance

    calls = [0]

    def counted(a, b):
        calls[0] += 1
        return ext_add(a, b)

    monkeypatch.setattr(mine.instance, "ext_add", counted)
    for extra, per_labeling in ((0, 0), (1, 2 + 1)):  # nodes + edges
        inst = _at_the_bound(extra)
        for x in all_labelings(inst):
            calls[0] = 0
            evaluate(inst, x)
            assert calls[0] == per_labeling, (extra, x)
    inst = random_general(9, max_nodes=5, max_labels=3, inf_prob=0.3)
    calls[0] = 0
    for x in all_labelings(inst):
        evaluate(inst, x)
    assert calls[0] == 0


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
        shuffled = type(inst)(nodes=tuple(nodes), unary=inst.unary,
                              pairwise=inst.pairwise, constant=inst.constant)
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


def _shuffled(inst, rng):
    """inst with its node order shuffled, so edges run either way along it."""
    nodes = list(inst.nodes)
    rng.shuffle(nodes)
    return replace(inst, nodes=tuple(nodes))


def test_scored_labelings_survive_a_consumer_that_mutates_each_labeling():
    # Each yielded dict is the consumer's: relabeling, deleting or adding keys
    # before the next step changes nothing that comes after.
    rng = random.Random(7)
    for seed in range(150):
        inst = random_general(seed, max_nodes=5, max_labels=3, inf_prob=0.3)
        got = []
        for x, value in scored_labelings(inst):
            got.append((dict(x), value))
            change = rng.randrange(3)
            if change == 0:
                for u in x:
                    x[u] += 1
            elif change == 1:
                del x[rng.choice(inst.nodes)]
            else:
                x[-1] = 0
        assert got == list(_reference(inst)), seed


def test_scored_labelings_keep_the_instance_node_order_in_each_labeling():
    rng = random.Random(11)
    for seed in range(200):
        base = random_general(seed, max_nodes=6, max_labels=3, inf_prob=0.3)
        for inst in (base, _shuffled(base, rng)):
            nodes = list(inst.nodes)
            pairs = list(scored_labelings(inst))
            assert pairs == list(_reference(inst)), seed
            assert all(list(x) == nodes for x, _ in pairs), seed


def _random_instance(rng, nodes, labels, edges, inf_prob=0.3):
    """An instance over nodes in the given order, with random tables on the
    given normalized edges, INF entries included and one finite label kept
    in each unary row."""
    def cost():
        return INF if rng.random() < inf_prob else rng.randint(-9, 9)

    unary = {}
    for u in nodes:
        row = [cost() for _ in range(labels[u])]
        row[rng.randrange(labels[u])] = rng.randint(-9, 9)
        unary[u] = tuple(row)
    pairwise = {(u, v): tuple(tuple(cost() for _ in range(labels[v])) for _ in range(labels[u]))
                for (u, v) in edges}
    return EnergyInstance(nodes=tuple(nodes), unary=unary, pairwise=pairwise,
                          constant=rng.randint(-9, 9))


def test_scored_labelings_with_a_one_label_last_node():
    rng = random.Random(3)
    seen_inf = 0
    for _ in range(100):
        nodes = rng.sample(range(10), rng.randint(1, 5))
        labels = {u: rng.randint(1, 3) for u in nodes}
        labels[nodes[-1]] = 1
        edges = [normalize_edge(u, v) for i, u in enumerate(nodes) for v in nodes[:i]
                 if rng.random() < 0.6]
        inst = _random_instance(rng, nodes, labels, edges)
        got = list(scored_labelings(inst))
        assert got == list(_reference(inst))
        assert all(list(x) == nodes for x, _ in got)
        seen_inf += sum(v is INF for _, v in got)
    assert seen_inf > 50


def test_scored_labelings_with_a_last_node_joined_to_every_earlier_node():
    # The last node's id is below some earlier ids and above others, so its
    # tables are stored both ways round; INF sits in its unary and edge tables.
    rng = random.Random(5)
    orientations = {"last first": 0, "last second": 0}
    seen_inf = seen_finite = 0
    for _ in range(150):
        nodes = rng.sample(range(10), rng.randint(2, 6))
        last = nodes[-1]
        labels = {u: rng.randint(1, 3) for u in nodes}
        edges = [normalize_edge(u, last) for u in nodes[:-1]]
        edges += [normalize_edge(u, v) for i, u in enumerate(nodes[:-1]) for v in nodes[:i]
                  if rng.random() < 0.4]
        inst = _random_instance(rng, nodes, labels, edges, inf_prob=0.1)
        got = list(scored_labelings(inst))
        assert got == list(_reference(inst))
        assert all(list(x) == nodes for x, _ in got)
        for u in nodes[:-1]:
            orientations["last first" if last < u else "last second"] += 1
        seen_inf += sum(v is INF for _, v in got)
        seen_finite += sum(v is not INF for _, v in got)
    assert min(orientations.values()) > 100, orientations
    assert seen_inf > 500 and seen_finite > 500, (seen_inf, seen_finite)


def test_scored_labelings_overflow_where_evaluate_overflows():
    # Entries of +-2^62 push |constant| + sum |entries| past int64, so every
    # labeling is scored by evaluate, which raises where a partial sum does.
    raised = finished = 0
    for seed in range(300):
        base = random_general(seed, max_nodes=5, max_labels=3, inf_prob=0.2)
        inst = _with_big_entries(seed, base)
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
    for extra, evaluated in ((0, 0), (1, 4)):
        inst = _at_the_bound(extra)
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


# --- two-node blocks: every node but the last two runs the odometer ------

def _first_minimum(pairs):
    return min(pairs, key=itemgetter(1))


def test_two_node_blocks_with_the_last_two_joined_to_each_other_and_every_earlier_node():
    # The last two nodes share an edge and each has an edge to every earlier
    # node.  Node ids run in random order along instance.nodes, so each of
    # these tables is stored both ways round; one-label nodes and INF occur.
    rng = random.Random(13)
    stored = {"first": 0, "second": 0}
    between = set()  # whether the second-to-last node's id is below the last's
    one_label = inf_optima = 0
    for _ in range(250):
        nodes = rng.sample(range(10), rng.randint(2, 6))
        labels = {u: rng.randint(1, 3) for u in nodes}
        s, t = nodes[-2:]
        edges = {normalize_edge(s, t)} | {normalize_edge(u, w) for u in nodes[:-2]
                                          for w in (s, t)}
        edges |= {normalize_edge(u, v) for i, u in enumerate(nodes[:-2]) for v in nodes[:i]
                  if rng.random() < 0.4}
        inst = _random_instance(rng, nodes, labels, sorted(edges), inf_prob=0.15)
        expected = list(_reference(inst))
        assert list(scored_labelings(inst)) == expected
        r = solve_brute_force(inst)
        assert (r.labeling, r.value) == _first_minimum(expected)
        for u in nodes[:-2]:
            for w in (s, t):
                stored["first" if w < u else "second"] += 1
        between.add(s < t)
        one_label += 1 in (labels[s], labels[t])
        inf_optima += r.value is INF
    assert min(stored.values()) > 200 and between == {True, False}, stored
    assert one_label > 50 and inf_optima > 5, (one_label, inf_optima)


def test_one_and_two_node_instances():
    rng = random.Random(17)
    sizes = set()
    for _ in range(150):
        nodes = rng.sample(range(5), rng.randint(1, 2))
        labels = {u: rng.randint(1, 4) for u in nodes}
        edges = [normalize_edge(*nodes)] if len(nodes) == 2 and rng.random() < 0.7 else []
        inst = _random_instance(rng, nodes, labels, edges)
        expected = list(_reference(inst))
        assert list(scored_labelings(inst)) == expected
        r = solve_brute_force(inst)
        assert (r.labeling, r.value) == _first_minimum(expected)
        sizes.add((len(nodes), len(edges)))
    assert sizes == {(1, 0), (2, 0), (2, 1)}


def test_brute_force_when_every_labeling_costs_inf():
    # The finite parts riding on the INF terms differ, smallest away from
    # label 0, yet every value is INF: the first labeling, all zeros, wins.
    inst = make_instance({0: 2, 1: 3, 2: 2, 3: 2},
                         {0: (4, -1), 1: (0, 2, -5), 2: (3, 0), 3: (0, -5)},
                         {(0, 1): ((1, 0, 2), (0, 3, 1)), (2, 3): ((INF, INF), (INF, INF)),
                          (1, 3): ((0, INF), (INF, 0), (2, -9))})
    r = solve_brute_force(inst)
    assert (r.labeling, r.value) == ({0: 0, 1: 0, 2: 0, 3: 0}, INF)
    assert (r.labeling, r.value) == _first_minimum(_reference(inst))
    assert all(value is INF for _, value in scored_labelings(inst))


def test_brute_force_past_int64_raises_the_reference_overflow():
    raised = solved = 0
    for seed in range(300):
        base = random_general(seed, max_nodes=5, max_labels=3, inf_prob=0.2)
        inst = _with_big_entries(seed, base)
        expected = _outcomes(_reference(inst))
        try:
            r = solve_brute_force(inst)
        except CostOverflowError as exc:
            assert expected[-1] == ("raised", str(exc)), seed
            raised += 1
        else:
            assert expected[-1][0] != "raised", seed
            assert (r.labeling, r.value) == _first_minimum(expected), seed
            solved += 1
    assert raised > 30 and solved > 30, (raised, solved)


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


def test_sat_source_enumeration_is_bounded(monkeypatch):
    sat = W3SatTriv(3, ((1, 2, 3),), (1, 1, 1))  # 8 assignments, 7 satisfying
    monkeypatch.setenv("MINE_BRUTE_LIMIT", "8")
    assert len(list(SAT_SOURCE.feasible_solutions(sat))) == 7
    monkeypatch.setenv("MINE_BRUTE_LIMIT", "7")
    with pytest.raises(SolverError, match="bound 7"):
        SAT_SOURCE.feasible_solutions(sat)


# --- verify_ap_reduction against the per-labeling loop --------------------

def _reference_energy_feasible(instance):
    return [x for x in all_labelings(instance) if is_finite(_reference_evaluate(instance, x))]


_REFERENCE_ENERGY_SOURCE = SourceAdapter(
    feasible_solutions=_reference_energy_feasible,
    is_feasible=lambda inst, x: is_finite(_reference_evaluate(inst, x)),
    measure=_reference_evaluate,
)


def _reference_verify(pi, sigma, alpha, instances, source=ENERGY_SOURCE, oracle=None):
    """The harness as it was: every labeling evaluated, every sigma output
    scored, the ratio transfer in Fractions; the reverse map bound once per
    instance and handed each labeling's value.  An oracle, when given,
    replaces the enumeration of the target's (labeling, value) pairs."""
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
        solutions = oracle(target) if oracle else [(y, _reference_evaluate(target, y))
                                                   for y in all_labelings(target)]
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
        reverse = sigma(src, trace)
        for y, val in solutions:
            x = reverse(y, val)
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


def _both(pi, sigma, alpha, instances, source=ENERGY_SOURCE, oracle=None):
    got = verify_ap_reduction(pi, sigma, alpha, instances, oracle=oracle, source=source)
    want = _reference_verify(pi, sigma, alpha, instances, source=source, oracle=oracle)
    assert got == want
    assert got.counterexamples == want.counterexamples  # the same order
    return got


def _unsat_formula():
    clauses = tuple((s1 * 1, s2 * 2, s3 * 3)
                    for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1))
    return W3SatTriv(3, clauses, (1, 1, 1))


def _restriction_only(sat, trace):  # drops the all-true fallback
    return lambda y, value: {i: bool(y[i]) for i in range(1, sat.num_vars + 1)}


def _all_zeros(src, trace):
    return lambda y, value: {u: 0 for u in src.nodes}


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

    instances = [random_qpbo(seed, max_nodes=4) for seed in range(30)]
    report = _both(lambda s: qpbo_to_klabel(s, 3), _all_zeros, 1, instances)
    assert any(ce.check == "ratio-transfer" for ce in report.counterexamples)

    def first_label_infinite(src, trace):  # an infeasible source labeling
        return lambda y, value: dict(y)

    with_inf = make_instance({0: 2, 1: 2}, {0: (1, INF), 1: (2, 1)})
    report = _both(lambda s: (s, qpbo_to_klabel(make_instance({0: 2, 1: 2}), 2)[1]),
                   first_label_infinite, 1, [with_inf])
    assert [ce.check for ce in report.counterexamples] == ["sigma-feasible"] * 2

    def bad_pi(src):
        raise ValueError("no target")

    report = _both(bad_pi, klabel_sigma, 1, instances[:2])
    assert [ce.check for ce in report.counterexamples] == ["well-formed"] * 2


def test_harness_reports_a_malformed_target_as_the_reference_does():
    sats = [random_w3sat(seed) for seed in range(3)]

    def not_an_instance(sat):
        target, trace = w3sat_to_qpbo(sat)
        return target.pairwise, trace

    def trace_short_of_the_target(sat):
        target, trace = w3sat_to_qpbo(sat)
        return target, replace(trace, aux_nodes=trace.aux_nodes[1:])

    for pi, detail in [(not_an_instance, "pi did not return an EnergyInstance"),
                       (trace_short_of_the_target, "trace does not partition the target nodes")]:
        report = _both(pi, w3sat_sigma, 1, sats, source=SAT_SOURCE)
        assert report.checked == 3 and report.ratio_undefined == []
        assert report.counterexamples == [Counterexample(i, "well-formed", None, detail)
                                          for i in range(3)]
        assert report.stats == {"labelings": 0, "sigma_calls": 0, "source_scored": 0}


@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(3, 2), 0, 2, Fraction(-1, 3),
                                   Fraction(7, 5)])
def test_harness_equals_the_reference_at_any_alpha(alpha):
    # klabel_sigma keeps a binary y's energy, so R1 = R2 and alpha < 1 fails
    # on every labeling above the optimum; all_zeros fails at larger alpha.
    instances = [random_qpbo(seed, max_nodes=4) for seed in range(30)]
    report = _both(lambda s: qpbo_to_klabel(s, 3), klabel_sigma, alpha, instances)
    if alpha < 1:
        assert any(ce.check == "ratio-transfer" for ce in report.counterexamples)

    _both(lambda s: qpbo_to_klabel(s, 3), _all_zeros, alpha, instances)
    sats = [random_w3sat(seed, max_vars=4, max_clauses=3) for seed in range(20)]
    _both(w3sat_to_qpbo, w3sat_sigma, alpha, sats, source=SAT_SOURCE)


def _shared_output(bind):
    """The reverse map bind gives, changed to write each output into one
    dict, which it returns on every call."""
    def sigma(src, trace):
        reverse, shared = bind(src, trace), {}

        def reuse(y, value):
            x = reverse(y, value)
            shared.clear()
            shared.update(x)
            return shared
        return reuse
    return sigma


def test_harness_rescores_a_reverse_map_that_reuses_its_output_dict():
    instances = [random_qpbo(seed, max_nodes=4) for seed in range(30)]
    for alpha in (Fraction(1, 2), 1):
        report = _both(lambda s: qpbo_to_klabel(s, 3), _shared_output(klabel_sigma), alpha,
                       instances)
        fresh = verify_ap_reduction(lambda s: qpbo_to_klabel(s, 3), klabel_sigma, alpha,
                                    instances)
        assert report.stats == fresh.stats
        assert any(ce.check == "ratio-transfer" for ce in report.counterexamples) == (alpha < 1)
    # Some outputs are infeasible and some are not, within one instance.
    with_inf = make_instance({0: 2, 1: 2}, {0: (1, INF), 1: (2, 1)}, {(0, 1): ((0, 1), (1, 0))})
    report = _both(lambda s: (s, qpbo_to_klabel(make_instance({0: 2, 1: 2}), 2)[1]),
                   _shared_output(lambda src, trace: lambda y, value: dict(y)), 1, [with_inf])
    assert [ce.check for ce in report.counterexamples] == ["sigma-feasible"] * 2
    assert report.stats == {"labelings": 4, "sigma_calls": 4, "source_scored": 4}


@pytest.mark.parametrize("seed", range(3))
def test_harness_equals_the_reference_on_a_shuffled_oracle(seed):
    def shuffled(target):
        pairs = [(y, _reference_evaluate(target, y)) for y in all_labelings(target)]
        random.Random(seed).shuffle(pairs)
        return pairs

    def ordered(report):
        return sorted(map(repr, report.counterexamples))

    instances = [random_qpbo(s, max_nodes=4) for s in range(20)]
    sats = [random_w3sat(s, max_vars=4, max_clauses=3) for s in range(20)]
    cases = [(lambda s: qpbo_to_klabel(s, 3), klabel_sigma, Fraction(1, 2), instances,
              ENERGY_SOURCE),
             (lambda s: qpbo_to_klabel(s, 4), _all_zeros, 1, instances, ENERGY_SOURCE),
             (w3sat_to_qpbo, w3sat_sigma, 1, sats, SAT_SOURCE),
             (w3sat_to_qpbo, _restriction_only, 1, sats, SAT_SOURCE)]
    for pi, sigma, alpha, corpus, source in cases:
        report = _both(pi, sigma, alpha, corpus, source=source, oracle=shuffled)
        in_order = verify_ap_reduction(pi, sigma, alpha, corpus, source=source)
        assert report.stats == in_order.stats
        assert report.ratio_undefined == in_order.ratio_undefined
        assert ordered(report) == ordered(in_order)


@pytest.mark.parametrize("alpha", [Fraction(1, 2), 1])
def test_harness_equals_the_reference_on_long_runs_at_four_labels(alpha):
    # all_zeros gives one output per instance, so every ratio-transfer
    # counterexample after an instance's first labeling falls inside a run.
    instances = [random_qpbo(seed, max_nodes=4) for seed in range(30)]
    report = _both(lambda s: qpbo_to_klabel(s, 4), _all_zeros, alpha, instances)
    first = {idx: {u: 0 for u in instances[idx].nodes} for idx in range(len(instances))}
    inside = [ce for ce in report.counterexamples
              if ce.check == "ratio-transfer" and ce.solution != first[ce.instance_index]]
    assert len({ce.instance_index for ce in inside}) > 1
    assert report.stats["source_scored"] == len(instances)
    klabel = _both(lambda s: qpbo_to_klabel(s, 4), klabel_sigma, alpha, instances)
    assert klabel.ok == (alpha == 1)


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
        reverse = w3sat_sigma(sat, trace)
        for y in all_labelings(target):
            x = reverse(y)
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

    # k-label: every padding labeling maps to all zeros, in runs and apart.
    calls = {"is_feasible": [], "measure": []}
    source = SourceAdapter(feasible_solutions=ENERGY_SOURCE.feasible_solutions,
                           is_feasible=counted("is_feasible", ENERGY_SOURCE.is_feasible),
                           measure=counted("measure", ENERGY_SOURCE.measure))
    inst = make_instance({0: 2, 1: 2}, {0: (3, 1), 1: (2, 4)}, {(0, 1): ((1, 0), (0, 3))})
    target, trace = qpbo_to_klabel(inst, 4)
    report = verify_ap_reduction(lambda s: qpbo_to_klabel(s, 4), klabel_sigma, 1, [inst],
                                 source=source)
    assert report.ok and report.ratio_undefined == []
    outputs = []
    reverse = klabel_sigma(inst, trace)
    for y in all_labelings(target):
        if reverse(y) not in outputs:
            outputs.append(reverse(y))
    assert calls["is_feasible"] == outputs == [{0: 0, 1: 0}, {0: 0, 1: 1},
                                               {0: 1, 1: 0}, {0: 1, 1: 1}]
    assert report.stats == {"labelings": 16, "sigma_calls": 16, "source_scored": 4}
    # 4 feasible labelings for the optimum, then each output's measure once
    assert len(calls["measure"]) == 4 + len(outputs)


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
