import pytest

from mine.cli import run_cli
from mine.costs import INF, CostOverflowError
from mine.fileformat import serialize_instance, serialize_solution, write_trace
from mine.generate import random_qpbo
from mine.instance import (InstanceError, all_labelings, big_m, check_labeling, evaluate,
                           make_instance, scored_labelings)
from mine.reductions import klabel
from mine.reductions.harness import ENERGY_SOURCE, verify_ap_reduction
from mine.reductions.klabel import klabel_sigma, qpbo_to_klabel
from mine.reductions.trace import ReductionTrace
from mine.solvers import DEFAULT_BRUTE_LIMIT


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
    assert klabel_sigma(inst, trace)(y) == y


def test_sigma_padded_label_maps_to_all_zeros():
    inst = make_instance({0: 2}, {0: (0, 5)})
    _, trace = qpbo_to_klabel(inst, 3)
    assert klabel_sigma(inst, trace)({0: 2}) == {0: 0}


def test_sigma_measure_transfer_exhaustive():
    for seed in range(15):
        inst = random_qpbo(seed, max_nodes=3)
        target, trace = qpbo_to_klabel(inst, 3)
        reverse = klabel_sigma(inst, trace)
        for y in all_labelings(target):
            x = reverse(y)
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


def _mapped(original, trace, y):
    """Bind the reverse map, then map y: each step's error, as one call."""
    return klabel_sigma(original, trace)(y)


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
            reverse = klabel_sigma(inst, trace)
            for y, value in scored_labelings(target):
                expected = _reference_klabel_sigma(inst, trace, y)
                assert reverse(y, value) == reverse(y) == expected
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
        assert _outcome(_mapped, original, tr, y) == expected, (original, y)


def test_sigma_maps_a_padding_label_to_zeros_without_summing_its_cost():
    # The padded energy of y is 2M > I64_MAX, which the rebuild route summed
    # and raised on; y uses a padding label, so it maps to all zeros.
    c = 2**61
    inst = make_instance({0: 2, 1: 2}, {0: (0, c), 1: (0, c)})
    _, trace = qpbo_to_klabel(inst, 3)
    y = {0: 2, 1: 2}
    with pytest.raises(CostOverflowError):
        _reference_klabel_sigma(inst, trace, y)
    assert klabel_sigma(inst, trace)(y) == {0: 0, 1: 0}


def test_sigma_rejects_a_trace_of_another_instance(tmp_path, capsys):
    inst = make_instance({0: 2, 1: 2}, {0: (0, 1), 1: (2, 0)},
                         {(0, 1): ((1, 0), (0, 3))})
    other = make_instance({0: 2, 1: 2}, {0: (0, 9), 1: (2, 0)},
                          {(0, 1): ((1, 0), (0, 3))})
    assert big_m(other) != big_m(inst)
    _, trace = qpbo_to_klabel(inst, 3)
    with pytest.raises(InstanceError, match="^trace threshold does not match"):
        klabel_sigma(other, trace)  # at binding, before any labeling is mapped

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
    reverse = klabel_sigma(inst, trace)
    for y, value in scored_labelings(target):
        reverse(y, value)
    assert instance_constructions == [2]


def test_sigma_checks_the_threshold_on_every_call():
    a = make_instance({0: 2, 1: 2}, {0: (0, 1), 1: (2, 0)}, {(0, 1): ((1, 0), (0, 3))})
    b = make_instance({0: 2, 1: 2}, {0: (0, 9), 1: (2, 0)}, {(0, 1): ((1, 0), (0, 3))})
    target, trace = qpbo_to_klabel(a, 3)
    reverse = klabel_sigma(a, trace)
    for y in all_labelings(target):
        reverse(y)
    # a's trace on b, right after a run on a, still fails the threshold check
    with pytest.raises(InstanceError):
        klabel_sigma(b, trace)
    y = {0: 1, 1: 0}
    assert klabel_sigma(a, trace)(y) == y
    # an equal instance that is another object is accepted
    a2 = make_instance({0: 2, 1: 2}, {0: (0, 1), 1: (2, 0)}, {(0, 1): ((1, 0), (0, 3))})
    assert a2 is not a
    assert klabel_sigma(a2, trace)(y) == y


def test_the_labels_decide_not_the_value():
    # With negative costs a padding labeling can cost less than M: thresholding
    # its value would hand back a labeling with a padding label.
    inst = make_instance({0: 2, 1: 2}, {0: (0, 0), 1: (-5, -5)})
    target, trace = qpbo_to_klabel(inst, 3)
    y = {0: 2, 1: 0}
    assert trace.big_m == 11 and evaluate(target, y) == 6
    reverse = klabel_sigma(inst, trace)
    for value in (None, 6, trace.big_m, -(2**70)):
        assert reverse(y, value) == {0: 0, 1: 0}
        assert reverse({0: 1, 1: 0}, value) == {0: 1, 1: 0}


# --- the target's size is bounded before any table is built ----------------

def test_cli_rejects_a_label_count_too_large_to_build(tmp_path, capsys):
    # 2 * 100000 + 100000^2 entries, far past 2^24: the reduction refuses
    # before building a table, which would exhaust memory.
    src, out = tmp_path / "in.mine", tmp_path / "out.mine"
    src.write_text("MINE 1\nnodes 2\nlabels 2 2\nedge 0 1 0 1 1 0\n")
    assert run_cli(["reduce", "qpbo-to-klabel", str(src), str(out), "--k", "100000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.exists()


def test_target_entry_bound_is_n_k_plus_e_k_squared(monkeypatch):
    inst = make_instance({0: 2, 1: 2}, pairwise={(0, 1): ((0, 1), (1, 0))})
    monkeypatch.setattr(klabel, "DEFAULT_BRUTE_LIMIT", 2 * 3 + 3 * 3)
    target, _ = qpbo_to_klabel(inst, 3)
    assert len(target.pairwise[(0, 1)]) == 3
    monkeypatch.setattr(klabel, "DEFAULT_BRUTE_LIMIT", 2 * 3 + 3 * 3 - 1)
    with pytest.raises(InstanceError, match="15 table entries"):
        qpbo_to_klabel(inst, 3)
    monkeypatch.undo()
    assert klabel.DEFAULT_BRUTE_LIMIT == DEFAULT_BRUTE_LIMIT == 2**24
    with pytest.raises(InstanceError, match=f"{2**24 + 1} table entries"):
        qpbo_to_klabel(make_instance({0: 2}), 2**24 + 1)


# --- the reverse map's checks run at C level -----------------------------------

def test_sigma_calls_check_labeling_only_on_a_y_it_rejects(monkeypatch):
    checked = []

    def counted(instance, x):
        checked.append(dict(x))
        return check_labeling(instance, x)

    monkeypatch.setattr(klabel, "check_labeling", counted)
    for seed in range(20):
        inst = random_qpbo(seed, max_nodes=4)
        target, trace = qpbo_to_klabel(inst, 4)
        reverse = klabel_sigma(inst, trace)
        for y in all_labelings(target):
            assert reverse(y) == _reference_klabel_sigma(inst, trace, y)
    assert checked == []
    inst = make_instance({0: 2, 1: 2}, {0: (0, 1), 1: (2, 0)}, {(0, 1): ((1, 0), (0, 3))})
    _, trace = qpbo_to_klabel(inst, 3)
    reverse = klabel_sigma(inst, trace)
    rejected = [{0: 0}, {0: 2, 1: 0, 2: 0}, {0: -1, 1: 0}, {0: 2, 1: -1}, {0: 1.0, 1: 0}]
    for y in rejected:
        with pytest.raises(InstanceError):
            reverse(y)
    assert len(checked) == len(rejected)


@pytest.mark.parametrize("label", [1.0, 2.0, None, "1", -0.5])
def test_sigma_rejects_a_label_that_is_not_an_int(label):
    inst = make_instance({0: 2, 1: 2}, {0: (0, 1), 1: (2, 0)}, {(0, 1): ((1, 0), (0, 3))})
    _, trace = qpbo_to_klabel(inst, 3)
    reverse = klabel_sigma(inst, trace)
    # a float equal to a valid label (1.0 == 1) is rejected too
    for y in ({0: label, 1: 0}, {0: 2, 1: label}, {0: 1, 1: label}):
        with pytest.raises(InstanceError, match=r"^node \d: label .* is not an int$"):
            reverse(y)
    assert reverse({0: True, 1: False}) == {0: True, 1: False}
    assert reverse({0: True, 1: 2}) == {0: 0, 1: 0}
