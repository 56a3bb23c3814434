import random
from fractions import Fraction as F
from itertools import product

import networkx as nx
import pytest

from mine.costs import INF, is_finite
from mine.fileformat import serialize_instance, write_trace
from mine.generate import random_crossed_3label
from mine.geometry import Drawing, GeometryError, list_crossings
from mine.instance import InstanceError, evaluate, make_instance
from mine.reductions import planar
from mine.reductions.gadgets import EQUALITY3
from mine.reductions.planar import (AUX_PER_CROSSING, PlanarizeError, planar_sigma,
                                    planarize)
from mine.reductions.trace import ReductionTrace, trace_from_json
from mine.solvers import solve_brute_force, solve_elimination


def rand_table(rng, k=3):
    return tuple(tuple(rng.randint(0, 6) for _ in range(k)) for _ in range(k))


def x_instance(seed=0):
    rng = random.Random(seed)
    inst = make_instance({u: 3 for u in range(4)},
                         {u: tuple(rng.randint(0, 6) for _ in range(3)) for u in range(4)},
                         {(0, 1): rand_table(rng), (2, 3): rand_table(rng)})
    d = Drawing({0: (F(-2), F(0)), 1: (F(2), F(0)),
                 2: (F(0), F(-2)), 3: (F(0), F(2))})
    return inst, d


def two_x_instance(seed=1):
    rng = random.Random(seed)
    pw = {(0, 1): rand_table(rng), (2, 3): rand_table(rng),
          (4, 5): rand_table(rng), (6, 7): rand_table(rng)}
    inst = make_instance({u: 3 for u in range(8)},
                         {u: tuple(rng.randint(0, 6) for _ in range(3)) for u in range(8)},
                         pw)
    d = Drawing({0: (F(-2), F(0)), 1: (F(2), F(0)), 2: (F(0), F(-2)), 3: (F(0), F(2)),
                 4: (F(8), F(0)), 5: (F(12), F(0)), 6: (F(10), F(-2)), 7: (F(10), F(2))})
    return inst, d


def test_one_crossing_node_count_and_planarity():
    inst, d = x_instance()
    out, od, trace = planarize(inst, d)
    assert len(out.nodes) == 4 + AUX_PER_CROSSING
    assert list_crossings(out, od) == []
    assert len(trace.crossings) == 1
    assert set(trace.original_nodes) | set(trace.aux_nodes) == set(out.nodes)


def test_one_crossing_optimum_preserved():
    inst, d = x_instance()
    out, od, trace = planarize(inst, d)
    b = solve_brute_force(inst)
    e = solve_elimination(out)
    assert b.value == e.value
    restriction = planar_sigma(inst, trace, e.labeling)
    assert evaluate(inst, restriction) == b.value


def test_two_disjoint_crossings():
    inst, d = two_x_instance()
    out, od, trace = planarize(inst, d)
    assert len(trace.aux_nodes) == 2 * AUX_PER_CROSSING
    assert list_crossings(out, od) == []
    assert solve_brute_force(inst).value == solve_elimination(out).value


def test_already_planar_is_identity():
    rng = random.Random(9)
    inst = make_instance({0: 3, 1: 3}, pairwise={(0, 1): rand_table(rng)})
    d = Drawing({0: (F(0), F(0)), 1: (F(1), F(0))})
    out, od, trace = planarize(inst, d)
    assert out is inst
    assert od is d
    assert trace.aux_nodes == ()


def test_planarize_rejects_non_3label():
    inst = make_instance({0: 2, 1: 2}, pairwise={(0, 1): ((0, 0), (0, 0))})
    d = Drawing({0: (F(0), F(0)), 1: (F(1), F(0))})
    with pytest.raises(InstanceError):
        planarize(inst, d)


def test_planarize_rejects_degenerate_drawing():
    inst = make_instance({u: 3 for u in range(3)},
                         pairwise={(0, 1): rand_table(random.Random(0))})
    d = Drawing({0: (F(0), F(0)), 1: (F(2), F(0)), 2: (F(1), F(0))})  # node on edge
    with pytest.raises(GeometryError):
        planarize(inst, d)


def test_gadget_region_preserves_labeling_energies():
    # every labeling of the original nodes keeps its energy once the
    # auxiliaries are minimized over
    inst, d = x_instance(seed=4)
    out, od, trace = planarize(inst, d)
    for a in range(3):
        for b in range(3):
            x = {0: a, 1: b, 2: 1, 3: 2}
            pinned = _pin(out, x)
            assert solve_elimination(pinned).value == evaluate(inst, x)


def test_the_template_is_an_exact_two_wire_crossover():
    # The template lemma: with its four stubs pinned, the other 20 nodes can
    # cost 0 exactly when vp == vpp and tp == tpp, and INF otherwise.
    unary, pairwise = planar._GADGET.unary, planar._GADGET.pairwise
    assert sorted(unary) == list(range(AUX_PER_CROSSING)) and len(pairwise) == 36
    template = make_instance({u: len(row) for u, row in unary.items()}, unary, pairwise)
    stubs = [planar._AT[name] for name in ("vp", "vpp", "tp", "tpp")]
    values = {x: solve_elimination(_pin(template, dict(zip(stubs, x)))).value
              for x in product(range(3), repeat=4)}
    assert {x for x, value in values.items() if value == 0} == \
        {(a, a, b, b) for a in range(3) for b in range(3)}
    assert sum(value is INF for value in values.values()) == 72


def test_planarize_builds_no_gadget_per_crossing(monkeypatch):
    from mine.reductions import gadgets
    calls = []
    for module in (planar, gadgets):
        for name in ("merge_fragments", "split_gadget", "uncross_copy_gadget"):
            monkeypatch.setattr(module, name, lambda *a, name=name, **k: calls.append(name))
    inst, d = random_crossed_3label(1)
    assert len(list_crossings(inst, d)) == 3
    out, _, trace = planarize(inst, d)
    assert calls == [] and len(trace.aux_nodes) == 3 * AUX_PER_CROSSING


def _pin(instance, partial):
    """Clamp the original nodes by +INF unary entries on other labels."""
    unary = dict(instance.unary)
    for u, lab in partial.items():
        unary[u] = tuple(c if i == lab else INF
                         for i, c in enumerate(instance.unary[u]))
    return make_instance(dict(instance.labels), unary,
                         {e: instance.pairwise[e] for e in instance.edges},
                         instance.constant)


def test_sigma_infinite_restriction_falls_back():
    inst = make_instance({0: 3, 1: 3}, {0: (0, INF, 0), 1: (0, 0, 0)},
                         {(0, 1): rand_table(random.Random(2))})
    trace = ReductionTrace(kind="planarize", original_nodes=(0, 1), aux_nodes=())
    assert planar_sigma(inst, trace, {0: 1, 1: 0}) == {0: 0, 1: 0}
    assert planar_sigma(inst, trace, {0: 2, 1: 1}) == {0: 2, 1: 1}


@pytest.mark.parametrize("bad, message", [
    (7, "label 7 out of range"), (-4, "label -4 out of range"), (3, "label 3 out of range"),
    ("zz", "label 'zz' is not an int"), (1.0, "label 1.0 is not an int"),
    ([1], r"label \[1\] is not an int")])
def test_sigma_rejects_a_label_outside_three_on_any_node(bad, message):
    # Every planarized node has 3 labels: an auxiliary node's bad label is
    # rejected as an original node's is, naming the first bad node of y.
    inst, d = x_instance()
    _, _, trace = planarize(inst, d)
    aux = trace.aux_nodes[-1]
    y = dict.fromkeys(sorted(trace.target_nodes()), 1)
    for node in (aux, inst.nodes[0]):
        with pytest.raises(InstanceError, match=f"^node {node}: {message}$"):
            planar_sigma(inst, trace, {**y, node: bad})
    y[aux] = 9
    with pytest.raises(InstanceError, match=f"^node {inst.nodes[0]}: {message}$"):
        planar_sigma(inst, trace, {**y, inst.nodes[0]: bad})
    assert planar_sigma(inst, trace, {**y, aux: True}) == {u: 1 for u in inst.nodes}


def test_trace_round_trips_through_json():
    inst, d = x_instance()
    _, _, trace = planarize(inst, d)
    back = trace_from_json(trace.to_json())
    assert back == trace


# ---------------------------------------------------------------------------
# Edges crossed more than once become chains of stubs


def segments_instance(segments, seed=3):
    """One edge per segment ((x1, y1), (x2, y2)), nodes numbered in order."""
    rng = random.Random(seed)
    coords = {}
    pairwise = {}
    for i, (a, b) in enumerate(segments):
        coords[2 * i], coords[2 * i + 1] = (F(a[0]), F(a[1])), (F(b[0]), F(b[1]))
        pairwise[(2 * i, 2 * i + 1)] = rand_table(rng)
    inst = make_instance({u: 3 for u in coords},
                         {u: tuple(rng.randint(0, 6) for _ in range(3)) for u in coords},
                         pairwise)
    return inst, Drawing(coords)


def grid_instance(n):
    """n horizontal and n vertical segments: n * n crossings, n per edge."""
    horizontal = [((0, y), (n + 1, y)) for y in range(1, n + 1)]
    vertical = [((x, 0), (x, n + 1)) for x in range(1, n + 1)]
    return segments_instance(horizontal + vertical)


def test_edge_crossed_twice_keeps_optimum():
    inst, d = segments_instance([((-4, 0), (4, 0)), ((-2, -1), (-1, 2)), ((2, -2), (3, 1))])
    assert len(list_crossings(inst, d)) == 2
    out, od, trace = planarize(inst, d)
    assert list_crossings(out, od) == []
    assert len(trace.aux_nodes) == 2 * AUX_PER_CROSSING
    assert solve_elimination(out).value == solve_brute_force(inst).value
    # f_01 sits on the stub from node 0 to the copy at the crossing nearest
    # to it; the stub from node 1 carries equality.
    near_0, near_1 = trace.crossings
    assert F(near_0.point[0]) < 0 < F(near_1.point[0])
    assert out.pairwise[(0, near_0.aux_nodes[0])] == inst.pairwise[(0, 1)]
    assert out.pairwise[(1, near_1.aux_nodes[1])] == EQUALITY3
    # Each labeling of the original nodes keeps its energy once the
    # auxiliaries are minimized over.
    rng = random.Random(5)
    for _ in range(8):
        x = {u: rng.randrange(3) for u in inst.nodes}
        assert solve_elimination(_pin(out, x)).value == evaluate(inst, x)


def test_two_by_two_crossings_keep_optimum():
    inst, d = grid_instance(2)
    assert len(list_crossings(inst, d)) == 4
    out, od, trace = planarize(inst, d)
    assert list_crossings(out, od) == []
    e = solve_elimination(out)
    assert e.value == solve_brute_force(inst).value
    assert evaluate(inst, planar_sigma(inst, trace, e.labeling)) == e.value


def test_five_by_five_grid_planarizes():
    inst, d = grid_instance(5)
    assert (len(inst.nodes), len(inst.edges)) == (20, 10)
    crossings = list_crossings(inst, d)
    assert len(crossings) == 25
    assert all(sum(e in (c.edge_a, c.edge_b) for c in crossings) == 5 for e in inst.edges)
    out, od, trace = planarize(inst, d)
    assert list_crossings(out, od) == []
    assert len(trace.aux_nodes) == 600
    assert {(c.edge_a, c.edge_b) for c in trace.crossings} == \
        {(c.edge_a, c.edge_b) for c in crossings}
    assert nx.check_planarity(_nx_graph(out))[0]


def test_leftover_crossing_raises(monkeypatch):
    from mine.reductions import planar
    monkeypatch.setattr(planar, "_replace_crossings",
                        lambda instance, d, crossings: (instance, d, None))
    inst, d = x_instance()
    with pytest.raises(PlanarizeError):
        planarize(inst, d)


# ---------------------------------------------------------------------------
# Criterion 5's corpus: planar graphs, small coordinates


def _nx_graph(instance):
    g = nx.Graph()
    g.add_nodes_from(instance.nodes)
    g.add_edges_from(instance.edges)
    return g


def test_planarize_scans_the_source_once(monkeypatch):
    import mine.geometry as geometry
    calls = []
    scan = geometry._pair_scan

    def counted(instance, pts, den):
        calls.append(len(instance.nodes))
        return scan(instance, pts, den)

    monkeypatch.setattr(geometry, "_pair_scan", counted)
    inst, d = two_x_instance()
    out, _, _ = planarize(inst, d)
    # the source drawing, then the "no crossings left" check on the output
    assert calls == [len(inst.nodes), len(out.nodes)]


def test_criterion5_outputs_are_planar_graphs(criterion5_outputs):
    for out, _, _ in criterion5_outputs:
        assert nx.check_planarity(_nx_graph(out))[0]


def test_criterion5_output_denominators_fit_64_bits(criterion5_outputs):
    for _, od, _ in criterion5_outputs:
        for x, y in od.coords.values():
            assert x.denominator.bit_length() <= 64
            assert y.denominator.bit_length() <= 64


# ---------------------------------------------------------------------------
# Template placement on integers against the Fraction formula


def _reference_placement(p, ends, r):
    """_placement term by term in Fractions: the parameters along both edges,
    then the template points p + scale * (ga * d_a + gb * d_b) / 32."""
    pu, pv, ps, pt = ends
    d_a = (pv[0] - pu[0], pv[1] - pu[1])
    d_b = (pt[0] - ps[0], pt[1] - ps[1])
    t_p = (p[0] - pu[0]) / d_a[0] if d_a[0] else (p[1] - pu[1]) / d_a[1]
    t_q = (p[0] - ps[0]) / d_b[0] if d_b[0] else (p[1] - ps[1]) / d_b[1]
    basis_l1 = abs(d_a[0]) + abs(d_a[1]) + abs(d_b[0]) + abs(d_b[1])
    scale = F(1, 2) * min(t_p, 1 - t_p, t_q, 1 - t_q, r / (2 * basis_l1))
    assert scale > 0
    power = F(2) ** (scale.numerator.bit_length() - scale.denominator.bit_length())
    scale = power / 2 if power > scale else power
    return t_p, t_q, [(p[0] + scale * (F(ga, 32) * d_a[0] + F(gb, 32) * d_b[0]),
                       p[1] + scale * (F(ga, 32) * d_a[1] + F(gb, 32) * d_b[1]))
                      for ga, gb in planar._TEMPLATE.values()]


def test_dyadic_floor_brackets_the_ratio():
    for num in range(1, 70):
        for den in range(1, 70):
            k = planar._dyadic_floor(num, den)
            assert F(2) ** k <= F(num, den) < F(2) ** (k + 1), (num, den)


def _rational_drawings(count):
    """Seeded drawings with 2-3 crossings and non-integer coordinates: each
    generated drawing goes through a random invertible rational affine map,
    which keeps every crossing and the general position."""
    found = []
    seed = 0
    while len(found) < count:
        inst, d = random_crossed_3label(f"rational-{seed}")
        rng = random.Random(seed)
        seed += 1
        if len(list_crossings(inst, d)) < 2:
            continue
        while True:
            a, b, c, e = (F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(4))
            if a * e != b * c:
                break
        shift = (F(rng.randint(-50, 50), rng.randint(2, 30)),
                 F(rng.randint(-50, 50), rng.randint(2, 30)))
        found.append((inst, Drawing({u: (a * x + b * y + shift[0], c * x + e * y + shift[1])
                                     for u, (x, y) in d.coords.items()})))
    return found


def _planarized_text(inst, d):
    out, out_d, trace = planarize(inst, d)
    return serialize_instance(out, out_d) + write_trace(trace)


def test_template_coordinates_match_the_fraction_formula(monkeypatch):
    drawings = _rational_drawings(12)
    assert all(2 <= len(list_crossings(inst, d)) <= 3 for inst, d in drawings)
    assert all(any(x.denominator > 1 for x, _ in d.coords.values()) for _, d in drawings)
    drawings += [random_crossed_3label(seed) for seed in range(30)]
    got = [_planarized_text(inst, d) for inst, d in drawings]
    monkeypatch.setattr(planar, "_placement", _reference_placement)
    want = [_planarized_text(inst, d) for inst, d in drawings]
    assert got == want
