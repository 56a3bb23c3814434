import json
import random
import time
from pathlib import Path

import pytest

from mine.cli import run_cli
from mine.costs import I64_MAX, I64_MIN, INF
from mine.fileformat import (ParseError, parse_instance, parse_solution,
                             parse_wcnf3, read_trace, serialize_instance,
                             serialize_solution, serialize_wcnf3, write_trace)
from mine.generate import (random_crossed_3label, random_drawing,
                           random_general, random_potts, random_qpbo,
                           random_submodular, random_w3sat)
from mine.geometry import Drawing, circle_layout, list_crossings
from mine.instance import InstanceError, evaluate, make_instance
from mine.reductions.harness import SAT_SOURCE, verify_ap_reduction
from mine.reductions.klabel import klabel_sigma, qpbo_to_klabel
from mine.reductions.planar import planar_sigma, planarize
from mine.reductions.wsat import W3SatTriv, w3sat_sigma, w3sat_to_qpbo
from mine.solvers import (alpha_expansion, solve_brute_force, solve_elimination,
                          solve_submodular_qpbo)


# --- instance format ----------------------------------------------------

MINIMAL = "MINE 1\nnodes 1\nlabels 2\nunary 0 0 5\n"


def test_parse_minimal_instance():
    inst, d = parse_instance(MINIMAL)
    assert inst.labels == {0: 2}
    assert inst.unary[0] == (0, 5)
    assert inst.edges == ()
    assert d is None


def test_comments_and_blank_lines_ignored():
    text = "# banner\n\nMINE 1\n# note\nnodes 1\nlabels 3\n\nunary 0 1 2 3\n"
    inst, _ = parse_instance(text)
    assert inst.unary[0] == (1, 2, 3)


def test_inf_entries_round_trip():
    inst = make_instance({0: 2, 1: 2}, {0: (0, INF)},
                         {(0, 1): ((0, INF), (1, 0))}, constant=-3)
    text = serialize_instance(inst)
    back, _ = parse_instance(text)
    assert back == inst
    assert serialize_instance(back) == text


def test_canonical_round_trip_random_instances():
    for seed in range(30):
        inst = random_general(seed, max_nodes=6, inf_prob=0.15)
        d = random_drawing(seed, inst)
        text = serialize_instance(inst, d)
        back, bd = parse_instance(text)
        assert back == inst
        assert bd.coords == d.coords
        assert serialize_instance(back, bd) == text


def test_noncontiguous_ids_round_trip():
    inst = make_instance({7: 2, 3: 3}, {7: (0, 1), 3: (2, 0, 1)},
                         {(3, 7): ((0, 1), (1, 0), (2, 2))})
    text = serialize_instance(inst)
    assert "ids 3 7" in text
    back, _ = parse_instance(text)
    assert back == inst


@pytest.mark.parametrize("text, fragment", [
    ("nodes 1\nlabels 2\n", "header"),
    ("MINE 1\nlabels 2\n", "nodes"),
    ("MINE 1\nnodes 2\nlabels 2\n", "labels"),
    ("MINE 1\nnodes 1\nlabels 2\nunary 0 1\n", "entries"),
    ("MINE 1\nnodes 1\nlabels 2\nunary 0 0 1\nunary 0 0 1\n", "duplicate"),
    ("MINE 1\nnodes 1\nlabels 2\nedge 0 1 0 0 0 0\n", "unknown node"),
    ("MINE 1\nnodes 2\nlabels 2 2\nedge 0 1 0 0 0\n", "expected 4"),
    ("MINE 1\nnodes 2\nlabels 2 2\nedge 0 1 0 0 0 0\nedge 1 0 0 0 0 0\n",
     "duplicate edge"),
    ("MINE 1\nnodes 1\nlabels 2\nunary 0 0 x\n", "integer"),
    ("MINE 1\nnodes 2\nlabels 2 2\ncoord 0 1/2 0/1\n", "coords must cover"),
    ("MINE 1\nnodes 1\nlabels 2\nbogus 1\n", "unknown record"),
])
def test_parse_errors_carry_messages(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_instance(text)
    assert fragment in str(exc.value)


# Each integer position of the three formats, with a token int() reads but
# the formats do not: {} is filled with the loose token, then its ASCII form.
@pytest.mark.parametrize("parse, template, loose, plain, message", [
    (parse_instance, "MINE 1\nnodes {}\nlabels 2\n", "\uff11", "1",
     "line 2: expected integers, got ['\uff11']"),
    (parse_instance, "MINE 1\nnodes 2\nids 0 {}\nlabels 2 2\n", "1_0", "10",
     "line 3: expected integers, got ['0', '1_0']"),
    (parse_instance, "MINE 1\nnodes 2\nlabels 2 {}\n", "\u0662", "2",
     "line 3: expected integers, got ['2', '\u0662']"),
    (parse_instance, "MINE 1\nnodes 1\nlabels 2\nunary 0 {} 5\n", "1_0", "10",
     "line 4: expected integer or INF, got '1_0'"),
    (parse_instance, "MINE 1\nnodes 1\nlabels 2\nunary 0 1 {}\n", "\uff15", "5",
     "line 4: expected integer or INF, got '\uff15'"),
    (parse_instance, "MINE 1\nnodes 1\nlabels 2\nunary {} 1 5\n", "\u0660", "0",
     "line 4: expected integers, got ['\u0660']"),
    (parse_instance, "MINE 1\nnodes 2\nlabels 2 2\nedge 0 1 0 INF 0 {}\n", "-1_2", "-12",
     "line 4: expected integer or INF, got '-1_2'"),
    (parse_instance, "MINE 1\nnodes 2\nlabels 2 2\nedge 0 {} 0 0 0 0\n", "\u0661", "1",
     "line 4: expected integers, got ['0', '\u0661']"),
    (parse_instance, "MINE 1\nnodes 1\nlabels 2\nconstant {}\n", "1_000", "1000",
     "line 4: expected integers, got ['1_000']"),
    (parse_wcnf3, "p wcnf3 {} 1\nw 1 2 3\n1 -2 3 0\n", "\uff13", "3",
     "line 1: expected integers, got ['\uff13', '1']"),
    (parse_wcnf3, "p wcnf3 3 1\nw 1 2 {}\n1 -2 3 0\n", "\uff13", "3",
     "line 2: expected integers, got ['1', '2', '\uff13']"),
    (parse_wcnf3, "p wcnf3 3 1\nw 1 2 3\n1 -2 {} 0\n", "+3_0", "+3",
     "line 3: expected integers, got ['1', '-2', '+3_0', '0']"),
    (parse_solution, "0 {}\n1 1\n", "1_0", "10",
     "line 1: expected integers, got ['0', '1_0']"),
    (parse_solution, "0 1\n1 {}\n", "\u0663", "3",
     "line 2: expected integers, got ['1', '\u0663']"),
    (parse_solution, "0 1\nenergy {}\n", "1_000", "1000",
     "line 2: expected integer or INF, got '1_000'"),
], ids=["nodes", "ids", "labels", "unary-entry", "unary-entry-last", "unary-node", "edge-entry",
        "edge-node", "constant", "wcnf3-p", "wcnf3-w", "wcnf3-clause", "solution-label",
        "solution-node-line-2", "solution-energy"])
def test_integer_tokens_are_ascii_digits_only(parse, template, loose, plain, message):
    with pytest.raises(ParseError) as exc:
        parse(template.format(loose))
    assert str(exc.value) == message
    parse(template.format(plain))


# --- weighted 3-CNF format ----------------------------------------------

def test_wcnf3_round_trip():
    for seed in range(20):
        sat = random_w3sat(seed)
        text = serialize_wcnf3(sat)
        assert parse_wcnf3(text) == sat
        assert serialize_wcnf3(parse_wcnf3(text)) == text


def test_wcnf3_comments_ignored():
    text = "c preamble\np wcnf3 3 1\nc mid\nw 1 2 3\n1 -2 3 0\n"
    sat = parse_wcnf3(text)
    assert sat.num_vars == 3
    assert sat.clauses == ((1, -2, 3),)


@pytest.mark.parametrize("text", [
    "p wcnf3 3 1\nw 1 2 3\n1 -2 0\n",         # two-literal clause
    "p wcnf3 3 1\nw 1 -2 3\n1 -2 3 0\n",      # negative weight
    "p wcnf3 3 1\nw 1 2 3\n1 -1 2 0\n",       # repeated variable in clause
    "p wcnf3 3 2\nw 1 2 3\n1 -2 3 0\n",       # clause count mismatch
    "p wcnf3 3 1\nw 1 2\n1 -2 3 0\n",         # wrong weight count
    "w 1 2 3\n1 -2 3 0\n",                    # weights before problem line
])
def test_wcnf3_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_wcnf3(text)


# --- solutions and traces -----------------------------------------------

def test_solution_round_trip():
    text = serialize_solution({2: 1, 0: 0}, 7)
    assert text == "0 0\n2 1\nenergy 7\n"
    labeling, energy = parse_solution(text)
    assert labeling == {0: 0, 2: 1}
    assert energy == 7


def test_solution_inf_energy_and_no_energy():
    lab, energy = parse_solution("0 1\nenergy INF\n")
    assert lab == {0: 1} and energy is INF
    lab, energy = parse_solution("0 1\n")
    assert energy is None


def test_solution_rejects_duplicates():
    with pytest.raises(ParseError):
        parse_solution("0 1\n0 0\n")


def test_trace_text_round_trip():
    inst = random_qpbo("trace-io", max_nodes=4)
    _, trace = qpbo_to_klabel(inst, 3)
    assert read_trace(write_trace(trace)) == trace


def test_trace_rejects_garbage():
    with pytest.raises(ParseError):
        read_trace("not json")
    with pytest.raises(ParseError):
        read_trace('{"kind": "unheard-of"}')


@pytest.mark.parametrize("text", ["[]", "null", "5", '"x"'])
def test_cli_sigma_rejects_trace_json_that_is_not_an_object(tmp_path, capsys, text):
    sat = random_w3sat("cli-sat")
    src = _write(tmp_path, "f.wcnf3", serialize_wcnf3(sat))
    target, _ = w3sat_to_qpbo(sat)
    sol = _write(tmp_path, "y.sol", serialize_solution({u: 0 for u in target.nodes}))
    bad = _write(tmp_path, "bad.json", text + "\n")
    with pytest.raises(ParseError, match="bad trace JSON"):
        read_trace(text)
    assert run_cli(["sigma", src, "--trace", bad, "--solution", sol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: line 1: bad trace JSON: ")
    assert captured.err.count("\n") == 1


# --- command line -------------------------------------------------------

def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_solve_prints_labeling_and_value(tmp_path, capsys):
    path = _write(tmp_path, "a.mine", MINIMAL)
    assert run_cli(["solve", path, "--method", "brute"]) == 0
    out = capsys.readouterr().out
    assert out == "0 0\nvalue 0\n"


@pytest.mark.parametrize("method, instance, solve", [
    ("mincut", random_submodular(5), solve_submodular_qpbo),
    ("alphaexp", random_potts(5), alpha_expansion),
    ("elim", random_general(5, inf_prob=0.2), solve_elimination),
])
def test_cli_solve_stats_are_the_library_stats_on_stderr(tmp_path, capsys, method,
                                                         instance, solve):
    path = _write(tmp_path, "a.mine", serialize_instance(instance))
    assert run_cli(["solve", path, "--method", method]) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    assert run_cli(["solve", path, "--method", method, "--stats"]) == 0
    with_stats = capsys.readouterr()
    assert with_stats.out == plain.out
    assert with_stats.err.count("\n") == 1
    stats = json.loads(with_stats.err)
    assert stats and stats == solve(parse_instance(Path(path).read_text())[0]).stats


@pytest.mark.parametrize("text, method, code", [
    ("MINE 1\nnodes 1\nlabels 2\nunary 0 0 x\n", "elim", 2),
    ("MINE 1\nnodes 2\nlabels 2 2\nedge 0 1 1 0 0 1\n", "mincut", 3),
])
def test_cli_solve_stats_leave_failures_as_they_are(tmp_path, capsys, text, method, code):
    path = _write(tmp_path, "a.mine", text)
    runs = []
    for flag in ([], ["--stats"]):
        runs.append((run_cli(["solve", path, "--method", method, *flag]),
                     capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] == code and runs[0][1].out == ""


def test_cli_reduce_then_sigma_round_trip(tmp_path, capsys):
    sat = random_w3sat("cli-sat")
    src = _write(tmp_path, "f.wcnf3", serialize_wcnf3(sat))
    out = str(tmp_path / "f.mine")
    tr = str(tmp_path / "f.trace.json")
    assert run_cli(["reduce", "w3sat-to-qpbo", src, out, "--trace", tr]) == 0
    capsys.readouterr()

    target, _ = parse_instance(Path(out).read_text())
    best = solve_brute_force(target)
    sol = _write(tmp_path, "f.sol", serialize_solution(best.labeling, best.value))
    assert run_cli(["sigma", src, "--trace", tr, "--solution", sol]) == 0
    printed = capsys.readouterr().out
    assert "measure" in printed


def test_cli_planarize_preserves_optimum(tmp_path, capsys):
    inst, d = random_crossed_3label("cli-planar")
    src = _write(tmp_path, "x.mine", serialize_instance(inst, d))
    out = str(tmp_path / "x.planar.mine")
    assert run_cli(["reduce", "planarize", src, out]) == 0
    capsys.readouterr()
    assert run_cli(["solve", out, "--method", "elim"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == f"value {solve_brute_force(inst).value}"


@pytest.mark.parametrize("dropped", [0, -1])  # an original node, an auxiliary node
def test_cli_planar_sigma_rejects_an_incomplete_solution(tmp_path, capsys, dropped):
    inst, d = random_crossed_3label("cli-planar")
    src = _write(tmp_path, "x.mine", serialize_instance(inst, d))
    out = str(tmp_path / "x.planar.mine")
    tr = str(tmp_path / "x.trace.json")
    assert run_cli(["reduce", "planarize", src, out, "--trace", tr]) == 0
    target, _ = parse_instance(Path(out).read_text())
    y = {u: 0 for u in target.nodes}
    full = _write(tmp_path, "full.sol", serialize_solution(y))
    del y[target.nodes[dropped]]
    short = _write(tmp_path, "short.sol", serialize_solution(y))
    capsys.readouterr()
    assert run_cli(["sigma", src, "--trace", tr, "--solution", full]) == 0
    capsys.readouterr()
    assert run_cli(["sigma", src, "--trace", tr, "--solution", short]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_classify_renders_report(tmp_path, capsys):
    path = _write(tmp_path, "a.mine", MINIMAL)
    assert run_cli(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "verdict: PO" in out
    assert "undetected families:" in out


def test_cli_gen_is_deterministic(tmp_path, capsys):
    for family in ("w3sat", "potts", "submodular", "random3label"):
        a = str(tmp_path / f"{family}-a")
        b = str(tmp_path / f"{family}-b")
        assert run_cli(["gen", "--family", family, "--seed", "s1", "--out", a]) == 0
        assert run_cli(["gen", "--family", family, "--seed", "s1", "--out", b]) == 0
        assert Path(a).read_text() == Path(b).read_text()


def test_cli_verify_ap_passes_on_generated_corpus(tmp_path, capsys):
    for seed in range(4):
        inst = random_qpbo(seed, max_nodes=4)
        _write(tmp_path, f"{seed}.mine", serialize_instance(inst))
    assert run_cli(["verify-ap", "--reduction", "qpbo-to-klabel",
                    "--corpus", str(tmp_path)]) == 0
    assert "0 counterexamples" in capsys.readouterr().out


def test_cli_plot_writes_svg(tmp_path, capsys):
    inst, d = random_crossed_3label("plot-seed")
    src = _write(tmp_path, "p.mine", serialize_instance(inst, d))
    out = str(tmp_path / "p.svg")
    assert run_cli(["plot", src, "--out", out]) == 0
    assert Path(out).read_text().startswith("<svg")


def test_cli_plot_rejects_a_coordinate_beyond_float_range(tmp_path, capsys):
    src = _write(tmp_path, "far.mine", "MINE 1\nnodes 2\nlabels 2 2\ncoord 0 0 0\n"
                 f"coord 1 {'9' * 400} 1\nedge 0 1 0 1 1 0\n")
    out = tmp_path / "far.svg"
    assert run_cli(["plot", src, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == ("error: a coordinate is beyond float range, "
                            "so the drawing cannot be rendered\n")


def test_cli_exit_codes(tmp_path, capsys):
    assert run_cli(["solve", "x", "--method", "warp"]) == 1      # usage
    bad = _write(tmp_path, "bad.mine", "MINE 2\n")
    assert run_cli(["solve", bad, "--method", "brute"]) == 2     # parse
    three = _write(tmp_path, "three.mine",
                   "MINE 1\nnodes 1\nlabels 3\nunary 0 0 1 2\n")
    assert run_cli(["reduce", "qpbo-to-klabel", three, str(tmp_path / "o"),
                    "--k", "3"]) == 3                            # precondition
    capsys.readouterr()


@pytest.mark.parametrize("raw", ["abc", "-5", "0", "1.5"])
def test_cli_bad_brute_limit_is_a_precondition_error(tmp_path, capsys, monkeypatch, raw):
    path = _write(tmp_path, "a.mine", MINIMAL)
    monkeypatch.setenv("MINE_BRUTE_LIMIT", raw)
    assert run_cli(["solve", path, "--method", "brute"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: MINE_BRUTE_LIMIT must be a positive integer, got {raw!r}\n"


def test_cli_brute_limit_is_applied(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "a.mine", MINIMAL)
    monkeypatch.setenv("MINE_BRUTE_LIMIT", "1")
    assert run_cli(["solve", path, "--method", "brute"]) == 3
    assert "bound 1" in capsys.readouterr().err
    monkeypatch.setenv("MINE_BRUTE_LIMIT", "2")
    assert run_cli(["solve", path, "--method", "brute"]) == 0
    assert capsys.readouterr().out == "0 0\nvalue 0\n"


# --- cost range ---------------------------------------------------------

@pytest.mark.parametrize("record", [
    "unary 0 0 9223372036854775808",
    "unary 0 -9223372036854775809 0",
    "unary 0 0 99999999999999999999999",
    "constant 9223372036854775808",
    "constant -9223372036854775809",
])
def test_parse_rejects_costs_outside_int64_with_the_line(record):
    text = f"MINE 1\nnodes 1\nlabels 2\n{record}\n"
    with pytest.raises(ParseError) as exc:
        parse_instance(text)
    assert exc.value.line_no == 4
    assert "outside signed 64-bit range" in str(exc.value)


def test_int64_ends_round_trip():
    text = ("MINE 1\nnodes 2\nids 0 1\nlabels 2 2\nconstant -9223372036854775808\n"
            "unary 0 9223372036854775807 -9223372036854775808\nunary 1 0 INF\n"
            "edge 0 1 9223372036854775807 INF -9223372036854775808 0\n")
    inst, _ = parse_instance(text)
    assert inst.unary[0] == (I64_MAX, I64_MIN)
    assert inst.constant == I64_MIN
    assert serialize_instance(inst) == text


@pytest.mark.parametrize("unary", [
    (True, False), (0, True), (0, 1.0), (0, "1"), (0, I64_MAX + 1), (I64_MIN - 1, 0),
])
def test_instance_rejects_entries_that_are_not_int64_or_inf(unary):
    with pytest.raises(InstanceError):
        make_instance({0: 2}, {0: unary})
    with pytest.raises(InstanceError):
        make_instance({0: 2, 1: 2}, pairwise={(0, 1): ((0, 0), unary)})


def test_instance_rejects_a_bool_constant():
    with pytest.raises(InstanceError):
        make_instance({0: 2}, constant=True)


def test_cli_out_of_range_cost_is_a_parse_error(tmp_path, capsys):
    path = _write(tmp_path, "big.mine",
                  "MINE 1\nnodes 1\nlabels 3\nunary 0 0 99999999999999999999999 0\n")
    for argv in (["classify", path], ["solve", path, "--method", "brute"]):
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: line 4: ")


@pytest.mark.parametrize("weights, message", [
    ("1 99999999999999999999 2", "weight 99999999999999999999 outside signed 64-bit range"),
    (f"{2**63} {2**64} 0", f"weight {2**63} outside signed 64-bit range"),
    (f"{I64_MAX} 1 0", f"weights sum to {2**63}, outside signed 64-bit range"),
], ids=["beyond", "first-of-two", "sum"])
def test_wcnf3_weight_outside_int64_is_a_parse_error_at_its_line(tmp_path, capsys,
                                                                  weights, message):
    text = f"c weights next\np wcnf3 3 1\n\nw {weights}\n1 -2 3 0\nc end\n"
    path = _write(tmp_path, "w.wcnf3", text)
    out = str(tmp_path / "w.mine")
    with pytest.raises(ParseError) as exc:
        parse_wcnf3(text)
    assert str(exc.value) == f"line 4: {message}"
    assert run_cli(["reduce", "w3sat-to-qpbo", path, out]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"parse error: line 4: {message}\n"
    assert not Path(out).exists()


def test_wcnf3_weight_at_int64_max_parses():
    assert parse_wcnf3(f"p wcnf3 3 1\nw {I64_MAX} 0 0\n1 -2 3 0\n").weights[0] == I64_MAX


@pytest.mark.parametrize("parse, text, last", [
    (parse_instance, "MINE 1\n# no nodes\n\n# trailing comment\n", 4),
    (parse_instance, "MINE 1\nnodes 2\nlabels 2\n", 3),
    (parse_wcnf3, "c only\np wcnf3 3 1\nw 1 2 3\n\nc end", 5),
    (parse_wcnf3, "p wcnf3 3 2\nw 1 2 3\n1 -2 3 0\n\n\n", 5),
])
def test_errors_after_the_last_record_name_the_last_line(parse, text, last):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line_no == last == len(text.splitlines())


# --- every reduction through the command line ---------------------------

def _crossing_free_3label(seed):
    """A 3-label path on 4 nodes, drawn in its order on a circle: no crossings."""
    rng = random.Random(seed)
    nodes = range(4)
    inst = make_instance({u: 3 for u in nodes},
                         {u: tuple(rng.randint(0, 5) for _ in range(3)) for u in nodes},
                         {(u, u + 1): tuple(tuple(rng.randint(0, 5) for _ in range(3))
                                            for _ in range(3)) for u in range(3)})
    return inst, circle_layout(nodes)


def test_cli_verify_ap_w3sat_to_qpbo(tmp_path, capsys):
    for seed in range(4):
        _write(tmp_path, f"{seed}.wcnf3", serialize_wcnf3(random_w3sat(seed)))
    assert run_cli(["verify-ap", "--reduction", "w3sat-to-qpbo",
                    "--corpus", str(tmp_path)]) == 0
    # every one of these formulas has optimum 0, where the ratio is undefined
    assert capsys.readouterr().out == \
        "checked 4 instances, 0 counterexamples, 4 ratio-undefined\n"


def test_cli_verify_ap_planarize_on_crossing_free_drawings(tmp_path, capsys):
    for seed in range(3):
        inst, d = _crossing_free_3label(seed)
        assert list_crossings(inst, d) == []
        _write(tmp_path, f"{seed}.mine", serialize_instance(inst, d))
    assert run_cli(["verify-ap", "--reduction", "planarize",
                    "--corpus", str(tmp_path)]) == 0
    assert capsys.readouterr().out == \
        "checked 3 instances, 0 counterexamples, 0 ratio-undefined\n"


def test_cli_verify_ap_planarize_needs_coordinates(tmp_path, capsys):
    inst, d = _crossing_free_3label(0)
    _write(tmp_path, "0.mine", serialize_instance(inst, d))
    _write(tmp_path, "1.mine", serialize_instance(inst))
    assert run_cli(["verify-ap", "--reduction", "planarize",
                    "--corpus", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_verify_ap_planarize_stops_at_the_enumeration_bound(tmp_path, capsys):
    # One crossing: the target has 29 3-label nodes, 3^29 labelings, far
    # above the 2^24 default bound; the harness used to enumerate them all.
    assert run_cli(["gen", "--family", "random3label", "--seed", "0",
                    "--out", str(tmp_path / "0.mine")]) == 0
    start = time.perf_counter()
    assert run_cli(["verify-ap", "--reduction", "planarize",
                    "--corpus", str(tmp_path)]) == 3
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: configuration count exceeds brute-force bound {2**24}\n"


def test_cli_verify_ap_w3sat_stops_at_the_enumeration_bound(tmp_path, capsys, monkeypatch):
    # 40 variables: 2^40 source assignments, which the harness used to list
    # before any bound was checked, with or without MINE_BRUTE_LIMIT.
    sat = W3SatTriv(40, ((1, 2, 3),), (1,) * 40)
    _write(tmp_path, "big.wcnf3", serialize_wcnf3(sat))
    for limit in (None, 4):
        if limit is not None:
            monkeypatch.setenv("MINE_BRUTE_LIMIT", str(limit))
        start = time.perf_counter()
        assert run_cli(["verify-ap", "--reduction", "w3sat-to-qpbo",
                        "--corpus", str(tmp_path)]) == 3
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: configuration count exceeds brute-force "
                                f"bound {limit or 2**24}\n")


def test_cli_verify_ap_exits_4_on_a_broken_reverse_map(tmp_path, capsys, monkeypatch):
    import mine.cli as cli

    def restriction_only(sat, trace):  # drops the all-true fallback
        return lambda y, value=None: {i: bool(y[i]) for i in range(1, sat.num_vars + 1)}

    monkeypatch.setattr(cli, "w3sat_sigma", restriction_only)
    clauses = tuple((s1 * 1, s2 * 2, s3 * 3)
                    for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1))
    _write(tmp_path, "unsat.wcnf3", serialize_wcnf3(W3SatTriv(3, clauses, (1, 1, 1))))
    assert run_cli(["verify-ap", "--reduction", "w3sat-to-qpbo",
                    "--corpus", str(tmp_path)]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("checked 1 instances, ")
    assert len(lines) > 1
    assert all(line.startswith("counterexample: instance 0 check ") for line in lines[1:])


def _verify_ap_corpus(tmp_path, reduction):
    """A small corpus for one reduction and the library report on it."""
    if reduction == "w3sat-to-qpbo":
        sats = [random_w3sat(seed, max_vars=5, max_clauses=3) for seed in range(4)]
        for i, sat in enumerate(sats):
            _write(tmp_path, f"{i}.wcnf3", serialize_wcnf3(sat))
        return verify_ap_reduction(w3sat_to_qpbo, w3sat_sigma, 1, sats, source=SAT_SOURCE)
    if reduction == "qpbo-to-klabel":
        instances = [random_qpbo(seed, max_nodes=4) for seed in range(4)]
        for i, inst in enumerate(instances):
            _write(tmp_path, f"{i}.mine", serialize_instance(inst))
        return verify_ap_reduction(lambda s: qpbo_to_klabel(s, 3), klabel_sigma, 1, instances)
    pairs = [_crossing_free_3label(seed) for seed in range(2)]
    instances = [inst for inst, _ in pairs]
    drawing = {id(inst): d for inst, d in pairs}
    for i, (inst, d) in enumerate(pairs):
        _write(tmp_path, f"{i}.mine", serialize_instance(inst, d))

    def pi(inst):
        target, _, trace = planarize(inst, drawing[id(inst)])
        return target, trace

    def sigma(inst, trace):
        return lambda y, value: planar_sigma(inst, trace, y)

    return verify_ap_reduction(pi, sigma, 1, instances)


@pytest.mark.parametrize("reduction", ["w3sat-to-qpbo", "qpbo-to-klabel", "planarize"])
def test_cli_verify_ap_stats_are_the_harness_stats_on_stderr(tmp_path, capsys, reduction):
    report = _verify_ap_corpus(tmp_path, reduction)
    args = ["verify-ap", "--reduction", reduction, "--corpus", str(tmp_path)]
    assert run_cli(args) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    assert run_cli(args + ["--stats"]) == 0
    with_stats = capsys.readouterr()
    assert with_stats.out == plain.out
    assert with_stats.err.count("\n") == 1 and with_stats.err.endswith("\n")
    assert with_stats.err == json.dumps(report.stats, sort_keys=True) + "\n"
    assert report.stats["labelings"] > 0


def test_cli_verify_ap_stats_follow_a_counterexample_report(tmp_path, capsys, monkeypatch):
    import mine.cli as cli

    def restriction_only(sat, trace):  # drops the all-true fallback
        return lambda y, value=None: {i: bool(y[i]) for i in range(1, sat.num_vars + 1)}

    monkeypatch.setattr(cli, "w3sat_sigma", restriction_only)
    clauses = tuple((s1 * 1, s2 * 2, s3 * 3)
                    for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1))
    sat = W3SatTriv(3, clauses, (1, 1, 1))
    _write(tmp_path, "unsat.wcnf3", serialize_wcnf3(sat))
    args = ["verify-ap", "--reduction", "w3sat-to-qpbo", "--corpus", str(tmp_path)]
    assert run_cli(args) == 4
    plain = capsys.readouterr()
    assert run_cli(args + ["--stats"]) == 4
    with_stats = capsys.readouterr()
    assert with_stats.out == plain.out and plain.err == ""
    report = verify_ap_reduction(w3sat_to_qpbo, restriction_only, 1, [sat], source=SAT_SOURCE)
    assert not report.ok
    assert with_stats.err == json.dumps(report.stats, sort_keys=True) + "\n"


@pytest.mark.parametrize("name, text, reduction, extra, code", [
    ("a.mine", "MINE 1\nnodes 1\nlabels 2\nunary 0 0 x\n", "qpbo-to-klabel", [], 2),
    ("a.wcnf3", "p wcnf3 3 1\nw 1 1\n1 2 3 0\n", "w3sat-to-qpbo", [], 2),
    ("a.mine", serialize_instance(make_instance({0: 2}, {0: (0, 3)})), "qpbo-to-klabel",
     ["--k", "1"], 3),
    ("a.wcnf3", serialize_wcnf3(W3SatTriv(40, ((1, 2, 3),), (1,) * 40)), "w3sat-to-qpbo",
     [], 3),
], ids=["parse-instance", "parse-wcnf3", "k-below-2", "enumeration-bound"])
def test_cli_verify_ap_stats_leave_failures_as_they_are(tmp_path, capsys, name, text,
                                                        reduction, extra, code):
    _write(tmp_path, name, text)
    runs = []
    for flag in ([], ["--stats"]):
        runs.append((run_cli(["verify-ap", "--reduction", reduction, "--corpus", str(tmp_path),
                              *extra, *flag]),
                     capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] == code and runs[0][1].out == ""
    assert runs[0][1].err.count("\n") == 1


_BINARY = make_instance({0: 2, 1: 2}, {0: (0, 3)}, {(0, 1): ((0, 1), (1, 0))})


@pytest.mark.parametrize("reduction, k, text", [
    ("qpbo-to-klabel", "1", serialize_instance(_BINARY)),
    ("qpbo-to-klabel", "3", serialize_instance(_crossing_free_3label(0)[0])),
    ("qpbo-to-klabel", "3", serialize_instance(
        make_instance({0: 2, 1: 2}, {0: (0, INF)}, {(0, 1): ((0, 1), (1, 0))}))),
    ("planarize", "3", serialize_instance(_BINARY, circle_layout(_BINARY.nodes))),
    ("planarize", "3", serialize_instance(_crossing_free_3label(0)[0])),
], ids=["k-below-2", "three-labels", "inf-entry", "planarize-two-labels",
        "planarize-no-coordinates"])
def test_cli_verify_ap_exits_3_on_a_file_reduce_rejects(tmp_path, capsys, reduction, k, text):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    src = _write(corpus, "0.mine", text)
    assert run_cli(["reduce", reduction, src, str(tmp_path / "out.mine"), "--k", k]) == 3
    rejected = capsys.readouterr()
    assert rejected.err.startswith("error: ") and rejected.err.count("\n") == 1
    assert run_cli(["verify-ap", "--reduction", reduction, "--corpus", str(corpus),
                    "--k", k]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == rejected.err


def _reduce_then_sigma(tmp_path, capsys, reduction, src_name, src_text, solve):
    """`mine reduce`, a library solve of the target, `mine sigma`: (stdout, trace, y)."""
    src = _write(tmp_path, src_name, src_text)
    out, tr = str(tmp_path / "target.mine"), str(tmp_path / "t.json")
    assert run_cli(["reduce", reduction, src, out, "--trace", tr]) == 0
    y = solve(parse_instance(Path(out).read_text())[0]).labeling
    sol = _write(tmp_path, "y.sol", serialize_solution(y))
    capsys.readouterr()
    assert run_cli(["sigma", src, "--trace", tr, "--solution", sol]) == 0
    return capsys.readouterr().out, read_trace(Path(tr).read_text()), y


def test_cli_sigma_prints_the_library_map_for_every_trace_kind(tmp_path, capsys):
    sat = random_w3sat(2)
    printed, trace, y = _reduce_then_sigma(tmp_path, capsys, "w3sat-to-qpbo", "f.wcnf3",
                                           serialize_wcnf3(sat), solve_brute_force)
    x = w3sat_sigma(sat, trace)(y)
    assert printed == serialize_solution({i: int(v) for i, v in x.items()}) + \
        f"measure {sat.measure(x)}\n"

    inst = random_qpbo(3, max_nodes=5)
    printed, trace, y = _reduce_then_sigma(tmp_path, capsys, "qpbo-to-klabel", "q.mine",
                                           serialize_instance(inst), solve_brute_force)
    x = klabel_sigma(inst, trace)(y)
    assert printed == serialize_solution(x, evaluate(inst, x))

    inst, d = random_crossed_3label(4)
    printed, trace, y = _reduce_then_sigma(tmp_path, capsys, "planarize", "p.mine",
                                           serialize_instance(inst, d), solve_elimination)
    x = planar_sigma(inst, trace, y)
    assert printed == serialize_solution(x, evaluate(inst, x))


def test_cli_planar_sigma_rejects_a_source_with_other_node_ids(tmp_path, capsys):
    inst, d = random_crossed_3label(0)
    src = _write(tmp_path, "x.mine", serialize_instance(inst, d))
    out, tr = str(tmp_path / "x.planar.mine"), str(tmp_path / "t.json")
    assert run_cli(["reduce", "planarize", src, out, "--trace", tr]) == 0
    target, _ = parse_instance(Path(out).read_text())
    sol = _write(tmp_path, "y.sol", serialize_solution(solve_elimination(target).labeling))
    shift = {u: u + 1000 for u in inst.nodes}
    moved = make_instance({shift[u]: k for u, k in inst.labels.items()},
                          {shift[u]: t for u, t in inst.unary.items()},
                          {(shift[u], shift[v]): t for (u, v), t in inst.pairwise.items()},
                          inst.constant)
    other = _write(tmp_path, "moved.mine",
                   serialize_instance(moved, Drawing({shift[u]: p for u, p in d.coords.items()})))
    capsys.readouterr()
    assert run_cli(["sigma", src, "--trace", tr, "--solution", sol]) == 0
    capsys.readouterr()
    assert run_cli(["sigma", other, "--trace", tr, "--solution", sol]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_klabel_sigma_rejects_a_source_with_other_node_ids(tmp_path, capsys):
    inst = make_instance({0: 2, 1: 2}, {0: (0, 3), 1: (2, 1)}, {(0, 1): ((0, 1), (1, 0))})
    moved = make_instance({5: 2, 6: 2}, {5: (0, 3), 6: (2, 1)}, {(5, 6): ((0, 1), (1, 0))})
    src = _write(tmp_path, "a.mine", serialize_instance(inst))
    other = _write(tmp_path, "b.mine", serialize_instance(moved))
    out, tr = str(tmp_path / "a.k.mine"), str(tmp_path / "t.json")
    assert run_cli(["reduce", "qpbo-to-klabel", src, out, "--trace", tr]) == 0
    y = solve_elimination(parse_instance(Path(out).read_text())[0]).labeling
    sol = _write(tmp_path, "y.sol", serialize_solution(y))
    moved_sol = _write(tmp_path, "moved.sol", serialize_solution({u + 5: a for u, a in y.items()}))
    capsys.readouterr()
    assert run_cli(["sigma", src, "--trace", tr, "--solution", sol]) == 0
    capsys.readouterr()
    # b.mine's big-M equals a.mine's, and the solution labels b.mine's nodes.
    assert run_cli(["sigma", other, "--trace", tr, "--solution", moved_sol]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: source instance's nodes are not the trace's original nodes\n"
