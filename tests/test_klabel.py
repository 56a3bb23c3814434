import pytest

from mine.cli import run_cli
from mine.costs import INF, CostOverflowError
from mine.fileformat import serialize_instance, serialize_solution, write_trace
from mine.generate import random_qpbo
from mine.instance import InstanceError, all_labelings, big_m, evaluate, make_instance
from mine.reductions.harness import ENERGY_SOURCE, verify_ap_reduction
from mine.reductions.klabel import klabel_sigma, qpbo_to_klabel
from mine.reductions.trace import ReductionTrace


def optimum(inst):
    return min(evaluate(inst, y) for y in all_labelings(inst))


def test_k2_is_identity_up_to_padding_absence():
    inst = make_instance({0: 2}, {0: (0, 5)})
    target, trace = qpbo_to_klabel(inst, 2)
    assert target.unary[0] == (0, 5)
    assert target.labels == {0: 2}
    assert trace.aux_nodes == ()


def test_single_node_k3_padding():
    inst = make_instance({0: 2}, {0: (0, 5)})
    target, _ = qpbo_to_klabel(inst, 3)
    assert big_m(inst) == 6
    assert target.unary[0] == (0, 5, 6)


def test_pairwise_padding_shape():
    inst = make_instance({0: 2, 1: 2}, pairwise={(0, 1): ((0, 1), (2, 3))})
    target, trace = qpbo_to_klabel(inst, 4)
    m = trace.big_m
    assert target.pairwise[(0, 1)] == ((0, 1, m, m), (2, 3, m, m),
                                       (m, m, m, m), (m, m, m, m))


def test_rejects_nonbinary_and_k1():
    inst3 = make_instance({0: 3}, {0: (0, 1, 2)})
    with pytest.raises(InstanceError):
        qpbo_to_klabel(inst3, 3)
    inst2 = make_instance({0: 2}, {0: (0, 1)})
    with pytest.raises(InstanceError):
        qpbo_to_klabel(inst2, 1)


def test_optimum_preserved_random():
    for seed in range(40):
        inst = random_qpbo(seed, max_nodes=5)
        target, _ = qpbo_to_klabel(inst, 3)
        assert optimum(inst) == optimum(target), seed


def test_sigma_identity_below_threshold():
    inst = make_instance({0: 2, 1: 2}, {0: (0, 1), 1: (2, 0)})
    _, trace = qpbo_to_klabel(inst, 3)
    y = {0: 0, 1: 1}
    assert klabel_sigma(inst, trace, y) == y


def test_sigma_padded_label_maps_to_all_zeros():
    inst = make_instance({0: 2}, {0: (0, 5)})
    _, trace = qpbo_to_klabel(inst, 3)
    assert klabel_sigma(inst, trace, {0: 2}) == {0: 0}


def test_sigma_measure_transfer_exhaustive():
    for seed in range(15):
        inst = random_qpbo(seed, max_nodes=3)
        target, trace = qpbo_to_klabel(inst, 3)
        for y in all_labelings(target):
            x = klabel_sigma(inst, trace, y)
            assert evaluate(inst, x) <= evaluate(target, y), (seed, y)


def test_ratio_transfer_via_harness():
    instances = [random_qpbo(seed, max_nodes=4) for seed in range(25)]
    report = verify_ap_reduction(lambda s: qpbo_to_klabel(s, 3), klabel_sigma,
                                 1, instances, source=ENERGY_SOURCE)
    assert report.ok, report.counterexamples[:3]
    # negative-optimum instances are flagged, not failed
    assert all(0 <= i < len(instances) for i in report.ratio_undefined)


# --- the reverse map against the padded instance it no longer builds ----

def _reference_klabel_sigma(original, trace, y):
    """The reverse map as it was: rebuild the padded instance, score y on it."""
    if trace.kind != "qpbo-to-klabel":
        raise InstanceError("trace kind mismatch")
    k = max((max(y.values()) + 1 if y else 2), 2)
    target, _ = qpbo_to_klabel(original, k)
    if evaluate(target, y) < trace.big_m and all(y[u] < 2 for u in original.nodes):
        return dict(y)
    return {u: 0 for u in original.nodes}


def _outcome(sigma, *args):
    try:
        return sigma(*args)
    except (InstanceError, CostOverflowError) as exc:
        return type(exc), str(exc)


def test_sigma_matches_the_padded_instance_on_every_labeling():
    checked = 0
    for seed in range(60):
        inst = random_qpbo(seed, max_nodes=5)
        for k in (3, 4, 5):
            target, trace = qpbo_to_klabel(inst, k)
            for y in all_labelings(target):
                assert klabel_sigma(inst, trace, y) == _reference_klabel_sigma(inst, trace, y)
                checked += 1
    assert checked > 50_000


def test_sigma_keeps_every_rejection_of_the_padded_instance():
    inst = make_instance({0: 2, 1: 2}, {0: (0, 1), 1: (2, 0)},
                         {(0, 1): ((1, 0), (0, 3))})
    _, trace = qpbo_to_klabel(inst, 3)
    nonbinary = make_instance({0: 3, 1: 2})
    with_inf = make_instance({0: 2, 1: 2}, {0: (0, INF)})
    cases = [
        (inst, ReductionTrace(kind="planarize", original_nodes=(0, 1), aux_nodes=()),
         {0: 0, 1: 0}),
        (nonbinary, trace, {0: 0, 1: 0}),
        (with_inf, trace, {0: 0, 1: 0}),
        (inst, trace, {0: 0}),  # a node missing
        (inst, trace, {0: 2}),
        (inst, trace, {0: 0, 1: 0, 2: 0}),  # a node too many
        (inst, trace, {0: 2, 1: 0, 2: 0}),
        (inst, trace, {0: -1, 1: 0}),  # a negative label
        (inst, trace, {0: 2, 1: -1}),
    ]
    for original, tr, y in cases:
        expected = _outcome(_reference_klabel_sigma, original, tr, y)
        assert expected[0] is InstanceError, (original, y)
        assert _outcome(klabel_sigma, original, tr, y) == expected, (original, y)


def test_sigma_maps_a_padding_label_to_zeros_without_summing_its_cost():
    # The padded energy of y is 2M > I64_MAX, which the rebuild route summed
    # and raised on; y uses a padding label, so it maps to all zeros.
    c = 2**61
    inst = make_instance({0: 2, 1: 2}, {0: (0, c), 1: (0, c)})
    _, trace = qpbo_to_klabel(inst, 3)
    y = {0: 2, 1: 2}
    with pytest.raises(CostOverflowError):
        _reference_klabel_sigma(inst, trace, y)
    assert klabel_sigma(inst, trace, y) == {0: 0, 1: 0}


def test_sigma_rejects_a_trace_of_another_instance(tmp_path, capsys):
    inst = make_instance({0: 2, 1: 2}, {0: (0, 1), 1: (2, 0)},
                         {(0, 1): ((1, 0), (0, 3))})
    other = make_instance({0: 2, 1: 2}, {0: (0, 9), 1: (2, 0)},
                          {(0, 1): ((1, 0), (0, 3))})
    assert big_m(other) != big_m(inst)
    _, trace = qpbo_to_klabel(inst, 3)
    with pytest.raises(InstanceError):
        klabel_sigma(other, trace, {0: 0, 1: 0})

    paths = {name: tmp_path / name for name in ("inst.mine", "other.mine", "t.json", "y.sol")}
    paths["inst.mine"].write_text(serialize_instance(inst))
    paths["other.mine"].write_text(serialize_instance(other))
    paths["t.json"].write_text(write_trace(trace))
    paths["y.sol"].write_text(serialize_solution({0: 0, 1: 1}))
    args = ["--trace", str(paths["t.json"]), "--solution", str(paths["y.sol"])]
    assert run_cli(["sigma", str(paths["inst.mine"])] + args) == 0
    capsys.readouterr()
    assert run_cli(["sigma", str(paths["other.mine"])] + args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_sigma_builds_no_instance(instance_constructions):
    inst = random_qpbo(7, max_nodes=5)
    target, trace = qpbo_to_klabel(inst, 4)
    assert instance_constructions == [2]  # the counter counts
    for y in all_labelings(target):
        klabel_sigma(inst, trace, y)
    assert instance_constructions == [2]


def test_sigma_keeps_big_m_of_the_last_instance(monkeypatch):
    from mine.reductions import klabel
    computed = []
    monkeypatch.setattr(klabel, "_last_big_m", (None, None))
    monkeypatch.setattr(klabel, "big_m", lambda inst: computed.append(inst) or big_m(inst))
    a = make_instance({0: 2, 1: 2}, {0: (0, 1), 1: (2, 0)}, {(0, 1): ((1, 0), (0, 3))})
    b = make_instance({0: 2, 1: 2}, {0: (0, 9), 1: (2, 0)}, {(0, 1): ((1, 0), (0, 3))})
    target, trace = qpbo_to_klabel(a, 3)
    del computed[:]
    for y in all_labelings(target):
        klabel_sigma(a, trace, y)
    assert computed == [a] and klabel._last_big_m[0] is a
    # a's trace on b: the memo is keyed by identity, so b's own big-M is
    # computed and the threshold check still rejects the trace
    with pytest.raises(InstanceError):
        klabel_sigma(b, trace, {0: 0, 1: 0})
    assert klabel._last_big_m == (b, big_m(b))
    y = {0: 1, 1: 0}
    assert klabel_sigma(a, trace, y) == y
    # an equal instance that is another object is not taken for a
    a2 = make_instance({0: 2, 1: 2}, {0: (0, 1), 1: (2, 0)}, {(0, 1): ((1, 0), (0, 3))})
    assert klabel_sigma(a2, trace, y) == y
    assert [inst is a2 for inst in computed] == [False, False, False, True]
