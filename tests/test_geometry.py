import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mine.fileformat import serialize_instance, write_trace
from mine.generate import random_crossed_3label, random_drawing
from mine.geometry import (Crossing, Drawing, GeneralPositionError, GeometryError,
                           PositionViolation, circle_layout, free_radius,
                           list_crossings, rational_sqrt_lower,
                           validate_general_position)
from mine.instance import make_instance
from mine.reductions.planar import planarize


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _bbox_disjoint(p1, p2, p3, p4):
    for axis in (0, 1):
        lo1, hi1 = sorted((p1[axis], p2[axis]))
        lo2, hi2 = sorted((p3[axis], p4[axis]))
        if hi1 < lo2 or hi2 < lo1:
            return True
    return False


def segment_intersection(p1, p2, p3, p4):
    """Proper interior intersection of open segments (p1,p2) and (p3,p4), or None.

    The oracle for the package's integer pair scan, on Fractions.  Touching
    at an endpoint is not proper; collinear overlap raises
    GeneralPositionError.
    """
    if p1 == p2 or p3 == p4:
        raise GeometryError("degenerate segment")
    d1 = _cross(p3, p4, p1)
    d2 = _cross(p3, p4, p2)
    d3 = _cross(p1, p2, p3)
    d4 = _cross(p1, p2, p4)
    if d1 == 0 and d2 == 0:
        # Collinear: disjoint or touching is fine, overlap violates general position.
        if _bbox_disjoint(p1, p2, p3, p4):
            return None
        lo1, hi1 = sorted((p1, p2))
        lo2, hi2 = sorted((p3, p4))
        if hi1 == lo2 or hi2 == lo1:
            return None  # touch at a single shared point
        raise GeneralPositionError("collinear overlapping segments")
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        # d1, d2 are the signed areas of p1, p2 against line (p3, p4), so
        # they interpolate to zero exactly at the intersection.
        t = d1 / (d1 - d2)
        return (p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1]))
    return None


def pt(x, y):
    return (F(x), F(y))


def _table(k1, k2):
    return tuple(tuple(0 for _ in range(k2)) for _ in range(k1))


def x_instance():
    inst = make_instance({1: 2, 2: 2, 3: 2, 4: 2},
                         pairwise={(1, 3): _table(2, 2), (2, 4): _table(2, 2)})
    d = Drawing({1: pt(0, 0), 2: pt(1, 0), 3: pt(1, 1), 4: pt(0, 1)})
    return inst, d


def test_symmetric_x():
    p = segment_intersection(pt(0, 0), pt(1, 1), pt(0, 1), pt(1, 0))
    assert p == (F(1, 2), F(1, 2))


def test_disjoint_collinear_none():
    assert segment_intersection(pt(0, 0), pt(1, 0), pt(2, 0), pt(3, 0)) is None


def test_endpoint_touch_not_proper():
    assert segment_intersection(pt(0, 0), pt(2, 2), pt(1, 1), pt(3, 0)) is None


def test_collinear_overlap_rejected():
    with pytest.raises(GeneralPositionError):
        segment_intersection(pt(0, 0), pt(2, 0), pt(1, 0), pt(3, 0))


def test_intersection_symmetric_in_arguments():
    args = (pt(0, 0), pt(3, 1), pt(0, 1), pt(3, 0))
    assert segment_intersection(*args) == segment_intersection(args[2], args[3], args[0], args[1])


def test_intersection_point_lies_on_both_segments():
    # asymmetric crossing: the point must interpolate both segments exactly
    p1, p2 = pt(0, 0), pt(7, 3)
    p3, p4 = pt(1, 4), pt(5, -2)
    q = segment_intersection(p1, p2, p3, p4)
    assert q is not None
    (x, y) = q
    assert (x - p1[0]) * (p2[1] - p1[1]) == (y - p1[1]) * (p2[0] - p1[0])
    assert (x - p3[0]) * (p4[1] - p3[1]) == (y - p3[1]) * (p4[0] - p3[0])
    assert min(p1[0], p2[0]) < x < max(p1[0], p2[0])
    assert min(p3[0], p4[0]) < x < max(p3[0], p4[0])


def test_x_drawing_one_crossing():
    inst, d = x_instance()
    cs = list_crossings(inst, d)
    assert len(cs) == 1
    assert cs[0].point == (F(1, 2), F(1, 2))


def test_path_has_no_crossings():
    inst = make_instance({0: 2, 1: 2, 2: 2},
                         pairwise={(0, 1): _table(2, 2), (1, 2): _table(2, 2)})
    d = Drawing({0: pt(0, 0), 1: pt(1, 0), 2: pt(2, 1)})
    assert list_crossings(inst, d) == []


def test_k4_one_crossing_pair():
    pw = {(a, b): _table(2, 2) for a in range(4) for b in range(a + 1, 4)}
    inst = make_instance({u: 2 for u in range(4)}, pairwise=pw)
    d = Drawing({0: pt(0, 0), 1: pt(2, 0), 2: pt(2, 2), 3: pt(0, 2)})
    cs = list_crossings(inst, d)
    assert len(cs) == 1
    assert {cs[0].edge_a, cs[0].edge_b} == {(0, 2), (1, 3)}


def test_crossings_invariant_under_translation_scaling():
    inst, d = x_instance()
    moved = Drawing({u: (3 * p[0] + 7, 3 * p[1] - 2) for u, p in d.coords.items()})
    assert len(list_crossings(inst, moved)) == len(list_crossings(inst, d))


def test_general_position_ok_for_x():
    inst, d = x_instance()
    assert validate_general_position(inst, d) == []


def test_three_concurrent_diagonals():
    pw = {(0, 1): _table(2, 2), (2, 3): _table(2, 2), (4, 5): _table(2, 2)}
    inst = make_instance({u: 2 for u in range(6)}, pairwise=pw)
    d = Drawing({0: pt(-1, 0), 1: pt(1, 0), 2: pt(0, -1), 3: pt(0, 1),
                 4: pt(-1, -1), 5: pt(1, 1)})
    kinds = [v.kind for v in validate_general_position(inst, d)]
    assert "concurrent-edges" in kinds


def test_node_on_edge_violation():
    inst = make_instance({0: 2, 1: 2, 2: 2}, pairwise={(0, 1): _table(2, 2)})
    d = Drawing({0: pt(0, 0), 1: pt(2, 0), 2: pt(1, 0)})
    kinds = [v.kind for v in validate_general_position(inst, d)]
    assert kinds == ["node-on-edge"]


@pytest.mark.parametrize("a, b", [
    ((1, 2), (1, 2)),
    ((F(1, 2), F(-3)), (F(1, 2), F(-3))),
    ((0.5, -3.0), (0.5, -3.0)),
    ((1, 2), (F(1), F(2))),
    ((1, 2), (1.0, 2.0)),
    ((F(1, 2), 2), (0.5, F(2))),
    ((F(1, 4), 7), (0.25, 7.0)),
    ((-0.0, 0), (0, F(0))),
])
def test_drawing_finds_a_shared_point_across_int_fraction_and_float(a, b):
    with pytest.raises(GeometryError, match="two nodes share a point"):
        Drawing({0: a, 1: (5, 5), 2: b})


def test_drawing_tells_apart_points_that_differ_in_exact_value():
    # 0.1 is not 1/10 in binary, and (1, 2) is not (2, 1).
    Drawing({0: (0.1, 0), 1: (F(1, 10), 0), 2: (1, 2), 3: (2.0, F(1))})
    Drawing({0: (1, 2), 1: (F(2), F(1)), 2: (F(1, 2), 0), 3: (F(1, 3), 0.5)})


def test_a_float_drawing_scans_and_planarizes_like_its_fraction_twin():
    # A float coordinate is stored as its exact Fraction, so the integer
    # scans and planarize see the same rationals as in the twin built from
    # Fraction(float) by hand, and write the same bytes.
    for seed in range(20):
        inst, d = random_crossed_3label(seed)
        floats = {u: (float(x), float(y)) for u, (x, y) in d.coords.items()}
        drawing = Drawing(floats)
        twin = Drawing({u: (F(x), F(y)) for u, (x, y) in floats.items()})
        assert drawing.coords == twin.coords
        assert all(type(c) is F for point in drawing.coords.values() for c in point)
        assert list_crossings(inst, drawing) == list_crossings(inst, twin)
        assert (validate_general_position(inst, drawing)
                == validate_general_position(inst, twin))
        got, want = planarize(inst, drawing), planarize(inst, twin)
        assert serialize_instance(*got[:2]) == serialize_instance(*want[:2])
        assert write_trace(got[2]) == write_trace(want[2])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_a_coordinate_with_no_exact_value_is_a_geometry_error(bad):
    with pytest.raises(GeometryError, match=r"node 1: coordinate \(0\.5, .*\) is not a finite"):
        Drawing({0: (0, 0), 1: (0.5, bad), 2: (1, 1)})


def test_free_radius_x_center():
    inst, d = x_instance()
    [c] = list_crossings(inst, d)
    r = free_radius(inst, d, c)
    assert r >= F(1, 4)
    # half the true nearest-node distance sqrt(1/2) is an upper bound
    assert r * r <= F(1, 2) / 4


def test_free_radius_midpoint_of_excluded_edge():
    # The crossing is the midpoint of both its edges, which are not measured.
    inst = make_instance({u: 2 for u in range(4)},
                         pairwise={(0, 1): _table(2, 2), (2, 3): _table(2, 2)})
    d = Drawing({0: pt(0, 0), 1: pt(2, 0), 2: pt(1, -1), 3: pt(1, 1)})
    [c] = list_crossings(inst, d)
    assert c.point == pt(1, 0)
    assert free_radius(inst, d, c) == F(1, 2)


# ---------------------------------------------------------------------------
# free_radius on integers against the Fraction version it replaced


def _dist2_point(p, q):
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


def _dist2_segment(p, a, b):
    ab2 = _dist2_point(a, b)
    t = ((p[0] - a[0]) * (b[0] - a[0]) + (p[1] - a[1]) * (b[1] - a[1])) / ab2
    t = max(F(0), min(F(1), t))
    foot = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
    return _dist2_point(p, foot)


def _reference_free_radius(instance, d, p, exclude=frozenset(), *, crossings):
    """free_radius as it was on Fractions: every distance taken, then the minimum."""
    exclude = {tuple(sorted(e)) for e in exclude}
    d2s = [_dist2_point(p, d.coords[u]) for u in instance.nodes]
    for e in instance.edges:
        if e in exclude:
            continue
        d2 = _dist2_segment(p, d.coords[e[0]], d.coords[e[1]])
        if d2 == 0:
            raise GeometryError(f"point lies on non-excluded edge {e}")
        d2s.append(d2)
    d2s += [_dist2_point(p, c.point) for c in crossings if c.point != p]
    if not d2s:
        raise GeometryError("empty drawing: free radius undefined")
    min_d2 = min(d2s)
    if min_d2 == 0:
        raise GeometryError("point coincides with a node or crossing")
    return rational_sqrt_lower(min_d2) / 2


def _radius_outcome(radius, *args, **kwargs):
    """("ok", the radius), or the error's type and message."""
    try:
        return "ok", radius(*args, **kwargs)
    except GeometryError as exc:
        return type(exc), str(exc)


def _check_free_radius_agrees(inst, d, counts):
    """free_radius at every crossing of the drawing against the reference,
    which measures the other crossings as well."""
    crossings = list_crossings(inst, d)
    for c in crossings:
        want = _radius_outcome(_reference_free_radius, inst, d, c.point,
                               {c.edge_a, c.edge_b}, crossings=crossings)
        assert _radius_outcome(free_radius, inst, d, c) == want, c
        counts[want[0] == "ok"] += 1


def test_free_radius_matches_the_fraction_reference_on_random_drawings():
    counts = [0, 0]
    for seed in range(300):
        _check_free_radius_agrees(*random_crossed_3label(seed), counts)
    # Crowded drawings on a 5 x 5 grid: a third edge or a node often meets a
    # crossing there.
    for seed in range(300):
        rng = random.Random(seed)
        points = rng.sample([(x, y) for x in range(5) for y in range(5)], rng.randint(4, 9))
        pairs = [(u, v) for u in range(len(points)) for v in range(u + 1, len(points))]
        inst, d = _graph(points, rng.sample(pairs, min(len(pairs), rng.randint(3, 12))))
        try:
            _check_free_radius_agrees(inst, d, counts)
        except GeneralPositionError:  # collinear overlap: no crossing list
            pass
    assert counts[0] > 50 and counts[1] > 1000  # both the error and the radius paths ran


@pytest.mark.parametrize("extra, message", [
    ({}, "point coincides with a node or crossing"),  # node 4 alone
    ({(4, 5): _table(2, 2)}, r"point lies on non-excluded edge \(4, 5\)"),
    ({(5, 6): _table(2, 2)}, r"point lies on non-excluded edge \(5, 6\)"),  # concurrent
])
def test_free_radius_rejects_a_crossing_on_a_node_or_a_third_edge(extra, message):
    inst = make_instance({u: 2 for u in range(7)},
                         pairwise={(0, 1): _table(2, 2), (2, 3): _table(2, 2), **extra})
    d = Drawing({0: pt(-1, 0), 1: pt(1, 0), 2: pt(0, -1), 3: pt(0, 1), 4: pt(0, 0),
                 5: pt(-1, -1), 6: pt(1, 1)})
    crossings = list_crossings(inst, d)
    c = next(c for c in crossings if c.edge_a == (0, 1) and c.edge_b == (2, 3))
    with pytest.raises(GeometryError, match=message):
        free_radius(inst, d, c)
    with pytest.raises(GeometryError, match=message):
        _reference_free_radius(inst, d, c.point, {c.edge_a, c.edge_b}, crossings=crossings)


def test_free_radius_matches_the_fraction_reference_on_fractional_drawings():
    # random_drawing's coordinates have denominators up to 9, so the nodes'
    # common denominator is often more than the crossing point's own.
    counts, wider = [0, 0], 0
    for seed in range(150):
        inst, _ = random_crossed_3label(seed)
        d = random_drawing(seed, inst)
        try:
            crossings = list_crossings(inst, d)
        except GeneralPositionError:
            continue
        nodes = lcm(*(c.denominator for q in d.coords.values() for c in q))
        wider += sum(nodes % lcm(c.point[0].denominator, c.point[1].denominator) != 0
                     for c in crossings)
        _check_free_radius_agrees(inst, d, counts)
    assert wider > 100 and counts[1] > 100


def test_rational_sqrt_lower_bounds():
    for v in (F(2), F(1, 2), F(9), F(7, 5)):
        r = rational_sqrt_lower(v)
        assert r > 0
        assert r * r <= v
        assert (r + F(1, 2**20)) ** 2 > v  # tight to ~2^-20
    assert rational_sqrt_lower(F(0)) == 0


def test_circle_layout_distinct_points_on_circle():
    d = circle_layout(range(6))
    assert len(set(d.coords.values())) == 6
    for (x, y) in d.coords.values():
        assert x * x + y * y == 1


# ---------------------------------------------------------------------------
# The integer scan against an all-pairs loop over segment_intersection


def _reference_crossings(inst, d):
    out = []
    for i, ea in enumerate(inst.edges):
        for eb in inst.edges[i + 1:]:
            if set(ea) & set(eb):
                continue
            p = segment_intersection(d.coords[ea[0]], d.coords[ea[1]],
                                     d.coords[eb[0]], d.coords[eb[1]])
            if p is not None:
                out.append(Crossing(ea, eb, p))
    return out


def _on_open_segment(q, a, b):
    cross = (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0])
    return cross == 0 and min(a, b) < q < max(a, b)


def _reference_violations(inst, d):
    violations = []
    for (u, v) in inst.edges:
        for w in inst.nodes:
            if w not in (u, v) and _on_open_segment(d.coords[w], d.coords[u], d.coords[v]):
                violations.append(PositionViolation("node-on-edge", (w, (u, v))))
    point_to_edges = {}
    for i, ea in enumerate(inst.edges):
        for eb in inst.edges[i + 1:]:
            if set(ea) & set(eb):
                continue
            try:
                p = segment_intersection(d.coords[ea[0]], d.coords[ea[1]],
                                         d.coords[eb[0]], d.coords[eb[1]])
            except GeneralPositionError:
                violations.append(PositionViolation("collinear-overlap", (ea, eb)))
                continue
            if p is not None:
                point_to_edges.setdefault(p, set()).update((ea, eb))
    for p, es in point_to_edges.items():
        if len(es) > 2:
            violations.append(PositionViolation("concurrent-edges", (p, tuple(sorted(es)))))
    return violations


def _graph(points, edges):
    inst = make_instance({u: 2 for u in range(len(points))},
                         pairwise={e: _table(2, 2) for e in edges})
    return inst, Drawing({u: pt(*p) for u, p in enumerate(points)})


# Hand-made drawings with every degeneracy the scan must classify like the
# reference: collinear edges that touch at a node or lie apart on one line,
# collinear overlaps, shared endpoints, a node inside an edge (whose boxes
# touch without overlapping), three edges through one point.
DEGENERATE = {
    "collinear-touch": ([(0, 0), (1, 0), (2, 0), (3, 0), (1, 1)],
                        [(0, 1), (1, 2), (2, 3), (1, 4), (0, 4)]),
    "collinear-overlap": ([(0, 0), (2, 0), (1, 0), (3, 0), (1, 1)], [(0, 1), (2, 3), (1, 4)]),
    "shared-endpoint": ([(0, 0), (2, 2), (2, 0), (0, 2)], [(0, 1), (0, 2), (0, 3), (2, 3)]),
    "node-on-edge": ([(0, 0), (2, 0), (1, 0), (1, 2), (3, 1)], [(0, 1), (2, 3), (3, 4)]),
    "three-concurrent": ([(-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (1, 1)],
                         [(0, 1), (2, 3), (4, 5)]),
}


def _dyadic(value):
    return F(value).limit_denominator(64)


@st.composite
def small_drawings(draw):
    # Few distinct values on a small grid make collinear, touching and
    # concurrent configurations common; halves and quarters keep it dyadic.
    coord = st.sampled_from([F(n, 2) for n in range(-3, 4)] + [F(1, 4), F(-3, 4)])
    points = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=9, unique=True))
    n = len(points)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=14, unique=True))
    inst = make_instance({u: 2 for u in range(n)},
                         pairwise={e: _table(2, 2) for e in edges})
    return inst, Drawing(dict(enumerate(points)))


def _assert_scan_matches_reference(inst, d):
    assert validate_general_position(inst, d) == _reference_violations(inst, d)
    try:
        expected = _reference_crossings(inst, d)
    except GeneralPositionError:
        with pytest.raises(GeneralPositionError):
            list_crossings(inst, d)
        return
    assert list_crossings(inst, d) == expected


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_scan_matches_reference_on_degenerate_drawings(name):
    points, edges = DEGENERATE[name]
    inst, d = _graph([(_dyadic(x), _dyadic(y)) for x, y in points], edges)
    _assert_scan_matches_reference(inst, d)


def test_degenerate_drawings_show_each_case():
    kinds = {}
    for name, (points, edges) in DEGENERATE.items():
        inst, d = _graph([(_dyadic(x), _dyadic(y)) for x, y in points], edges)
        kinds[name] = {v.kind for v in _reference_violations(inst, d)}
    assert kinds["collinear-touch"] == set()
    assert "collinear-overlap" in kinds["collinear-overlap"]
    assert kinds["shared-endpoint"] == set()
    assert kinds["node-on-edge"] == {"node-on-edge"}
    assert kinds["three-concurrent"] == {"concurrent-edges"}


@settings(max_examples=400, deadline=None)
@given(small_drawings())
def test_scan_matches_reference_on_random_drawings(drawing):
    _assert_scan_matches_reference(*drawing)


@settings(max_examples=100, deadline=None)
@given(small_drawings(), st.integers(-5, 5), st.integers(1, 7))
def test_scan_matches_reference_after_rational_map(drawing, shift, den):
    # Non-dyadic denominators exercise the common-denominator scaling.
    inst, d = drawing
    moved = Drawing({u: (x / den + shift, y / (den + 1) - shift)
                     for u, (x, y) in d.coords.items()})
    _assert_scan_matches_reference(inst, moved)


def test_scan_matches_reference_on_crowded_grid_drawings():
    # Dense drawings on a 5x5 grid: most have collinear pairs, nodes on
    # edges or concurrent crossings.
    kinds = set()
    for seed in range(300):
        rng = random.Random(seed)
        points = rng.sample([(x, y) for x in range(5) for y in range(5)], rng.randint(4, 9))
        pairs = [(u, v) for u in range(len(points)) for v in range(u + 1, len(points))]
        inst, d = _graph(points, rng.sample(pairs, min(len(pairs), rng.randint(3, 12))))
        kinds.update(v.kind for v in _reference_violations(inst, d))
        _assert_scan_matches_reference(inst, d)
    assert kinds == {"node-on-edge", "collinear-overlap", "concurrent-edges"}


def _two_scans(instance, d):
    violations = validate_general_position(instance, d)
    return violations, ([] if violations else list_crossings(instance, d))


def test_generator_single_scan_matches_two_call_route(monkeypatch):
    import mine.generate
    from mine.fileformat import serialize_instance
    one = [serialize_instance(*mine.generate.random_crossed_3label(seed)) for seed in range(50)]
    monkeypatch.setattr(mine.generate, "_position_and_crossings", _two_scans)
    two = [serialize_instance(*mine.generate.random_crossed_3label(seed)) for seed in range(50)]
    assert one == two


def test_position_and_crossings_agree_with_the_public_scans():
    # Points on a 4 x 4 grid: both degenerate and general-position drawings.
    from mine.generate import random_general
    from mine.geometry import _position_and_crossings
    rng = random.Random(8)
    kinds = set()
    for seed in range(80):
        inst = random_general(seed, max_nodes=7)
        points = rng.sample([(x, y) for x in range(4) for y in range(4)], len(inst.nodes))
        d = Drawing({u: pt(x, y) for u, (x, y) in zip(inst.nodes, points)})
        violations, crossings = _position_and_crossings(inst, d)
        assert violations == validate_general_position(inst, d)
        if not violations:
            assert crossings == list_crossings(inst, d)
        kinds.add((bool(violations), bool(crossings)))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}
