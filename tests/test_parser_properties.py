"""Property tests for the instance parser and the CLI on fuzzed files.

Three properties, each over text hypothesis generates:

- parse_instance is total: any text gives an instance or one of the typed
  errors the CLI maps to a documented exit code (ParseError: exit 2;
  InstanceError and GeometryError, for example a self-loop, an all-INF
  unary row or two nodes on one point: exit 3);
- serialize_instance after parse_instance is the identity on the text of
  generated instances, and parsing that text gives the instance back;
- ``mine classify`` on a fuzzed file, text or raw bytes, exits 0, 2 or 3
  and lets no exception escape;
- each of the three text parsers gives what a reference copy of its
  earlier per-token version gives, result or exception type and message,
  except that an integer token int() reads but that is not ASCII
  [-+]?[0-9]+, or that has more than 640 digits, is now a ParseError.
"""

import io
import random
import re
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_solvers import potts_grid

from mine.cli import run_cli
from mine.costs import I64_MAX, I64_MIN, INF, CostOverflowError, check_range
from mine.fileformat import (ParseError, parse_instance, parse_solution, parse_wcnf3,
                             serialize_instance, serialize_solution, serialize_wcnf3)
from mine.generate import random_w3sat
from mine.geometry import Drawing, GeometryError
from mine.instance import EnergyInstance, InstanceError, make_instance
from mine.reductions.wsat import W3SatTriv
from mine.solvers import DEFAULT_BRUTE_LIMIT

TYPED_ERRORS = (ParseError, InstanceError, GeometryError)

_costs = st.one_of(st.integers(-3, 3), st.sampled_from([I64_MIN, I64_MAX, INF]),
                   st.integers(I64_MIN, I64_MAX))
_small = st.integers(-2, 6).map(str)
_tokens = st.one_of(
    _small, _small, _small,
    st.sampled_from(["INF", "inf", "1/2", "-3/4", "0/1", "1/0", "x", "MINE", "#",
                     "nodes", "9223372036854775808", "-9223372036854775809",
                     "1e3", "0.5", "+1", "--1"]),
    st.text(max_size=4))
_keywords = st.sampled_from(["nodes", "ids", "labels", "constant", "unary", "coord",
                             "edge", "edge", "unary", "#", "bogus", "MINE"])
_lines = st.builds(lambda kw, rest: " ".join([kw, *rest]),
                   _keywords, st.lists(_tokens, max_size=7))


@st.composite
def mine_texts(draw):
    """Text shaped like a MINE 1 file: usually its header, then records of
    the format's keywords over small numbers, INF, rationals and junk; or,
    a quarter of the time, a generated instance's text with a second copy
    of a record a file holds at most once, at a later line."""
    if draw(st.integers(0, 3)) == 0:
        lines = serialize_instance(*draw(instances())).splitlines()
        i = draw(st.sampled_from([i for i, line in enumerate(lines)
                                  if line.split()[0] in ("nodes", "ids", "labels", "constant")]))
        copy = draw(st.sampled_from([lines[i], lines[i].split()[0] + " 2"]))
        lines.insert(draw(st.integers(i + 1, len(lines))), copy)
        return "\n".join(lines) + "\n"
    header = draw(st.sampled_from(["MINE 1", "MINE 1", "MINE 1", "MINE 2", ""]))
    lines = draw(st.lists(_lines, max_size=12))
    return "\n".join([header, *lines]) + draw(st.sampled_from(["\n", "", "\r\n"]))


@st.composite
def instances(draw):
    """A valid instance with 0-5 nodes of 1-3 labels, sometimes with a drawing."""
    ids = draw(st.lists(st.integers(0, 30), max_size=5, unique=True))
    labels = {u: draw(st.integers(1, 3)) for u in ids}
    unary = {}
    for u in ids:
        row = draw(st.lists(_costs, min_size=labels[u], max_size=labels[u]))
        row[draw(st.integers(0, labels[u] - 1))] = draw(st.integers(-3, 3))
        unary[u] = tuple(row)
    pairs = [(u, v) for u in ids for v in ids if u < v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    pairwise = {e: tuple(tuple(draw(_costs) for _ in range(labels[e[1]]))
                         for _ in range(labels[e[0]]))
                for e in edges}
    instance = make_instance(labels, unary, pairwise,
                             draw(st.integers(I64_MIN, I64_MAX)))
    drawing = None
    if ids and draw(st.booleans()):
        coords = st.fractions(-5, 5, max_denominator=7)
        points = draw(st.lists(st.tuples(coords, coords), min_size=len(ids),
                               max_size=len(ids), unique=True))
        drawing = Drawing(dict(zip(ids, points)))
    return instance, drawing


def _parse_outcome(text):
    try:
        return parse_instance(text)
    except TYPED_ERRORS as exc:
        return exc


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), mine_texts()))
def test_parser_is_total(text):
    outcome = _parse_outcome(text)
    if not isinstance(outcome, Exception):
        instance, drawing = outcome
        assert drawing is None or set(drawing.coords) == set(instance.nodes)


def test_self_loop_and_all_inf_row_are_instance_errors(tmp_path, capsys):
    for body in ["nodes 1\nlabels 2\nedge 0 0 0 0 0 0\n",
                 "nodes 1\nlabels 2\nunary 0 INF INF\n"]:
        path = tmp_path / "bad.mine"
        path.write_text("MINE 1\n" + body)
        with pytest.raises(InstanceError):
            parse_instance(path.read_text())
        assert run_cli(["solve", str(path), "--method", "brute"]) == 3
        assert capsys.readouterr().err.startswith("error: ")


@settings(max_examples=200, deadline=None)
@given(instances())
def test_serialize_after_parse_is_the_identity(pair):
    instance, drawing = pair
    text = serialize_instance(instance, drawing)
    back, back_drawing = parse_instance(text)
    assert back == instance
    assert (back_drawing is None) == (drawing is None)
    if drawing is not None:
        assert back_drawing.coords == {u: (Fraction(x), Fraction(y))
                                       for u, (x, y) in drawing.coords.items()}
    assert serialize_instance(back, back_drawing) == text


_texts_as_bytes = st.one_of(mine_texts(), instances().map(lambda p: serialize_instance(*p)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_texts_as_bytes.map(str.encode), st.binary(max_size=64)))
def test_cli_classify_on_fuzzed_files_exits_0_2_or_3(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "input.mine"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(["classify", str(path)])
    assert code in (0, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code:
        assert err.getvalue().startswith(("parse error: ", "error: "))


def test_cli_unreadable_input_is_a_precondition_error(tmp_path, capsys):
    assert run_cli(["classify", str(tmp_path)]) == 3  # a directory
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_reports_bytes_that_are_not_utf8_as_a_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.mine"
    path.write_bytes(b"MINE 1\nnodes 1\n# caf\xe9\nlabels 2\n")
    assert run_cli(["classify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("parse error: line 3: not UTF-8 text")


@pytest.mark.parametrize("text, message", [
    # The labels record is checked before the default ids are built.
    ("MINE 1\nnodes 9223372036854775807\nlabels 2\n",
     "line 3: labels must give one count per node"),
    ("MINE 1\nnodes 1\nlabels 9223372036854775808\n",
     "line 3: label count outside signed 64-bit range")])
def test_parser_rejects_huge_counts_before_building_anything(text, message):
    with pytest.raises(ParseError) as got:
        parse_instance(text)
    assert str(got.value) == message


@pytest.mark.parametrize("labels", ["3000000000", "8388608 8388609", "3000000000 -2999999999"])
def test_parser_caps_the_sum_of_label_counts_at_the_labels_line(labels):
    # Each count alone may stay below 2^24; a negative one offsets nothing.
    nodes = len(labels.split())
    with pytest.raises(ParseError) as got:
        parse_instance(f"MINE 1\nnodes {nodes}\nlabels {labels}\n")
    assert str(got.value) == "line 3: label counts add up to more than 16777216"


@pytest.mark.parametrize("token", ["1e3", "0.5", "1e4000000", "1E1000000", ".5", "1_000"])
def test_coordinates_are_int_or_int_over_int(tmp_path, capsys, token):
    text = f"MINE 1\nnodes 1\nlabels 1\ncoord 0 {token} 0\n"
    with pytest.raises(ParseError, match=f"line 4: expected int or int/int, got '{token}'"):
        parse_instance(text)
    path = tmp_path / "exp.mine"
    path.write_text(text)
    start = time.perf_counter()
    assert run_cli(["classify", str(path)]) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err.startswith("parse error: line 4: ")
    back, drawing = parse_instance(text.replace(token, "-3/4"))
    assert drawing.coords[0] == (Fraction(-3, 4), 0)


# --- the earlier per-token reader, kept as the oracle ------------------------

_REFERENCE_RATIONAL = re.compile(r"[-+]?[0-9]+(/[0-9]+)?")


def _reference_cost_token(tok, line_no):
    if tok == "INF":
        return INF
    try:
        v = int(tok)
    except ValueError:
        raise ParseError(line_no, f"expected integer or INF, got {tok!r}") from None
    return _reference_in_range(v, line_no)


def _reference_in_range(v, line_no):
    try:
        return check_range(v)
    except CostOverflowError as exc:
        raise ParseError(line_no, str(exc)) from None


def _reference_frac_token(tok, line_no):
    try:
        if _REFERENCE_RATIONAL.fullmatch(tok):
            return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        pass
    raise ParseError(line_no, f"expected int or int/int, got {tok!r}")


def _reference_ints(tokens, line_no):
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise ParseError(line_no, f"expected integers, got {tokens}") from None


def _reference_normalize(u, v):
    if u == v:
        raise InstanceError(f"self-loop on node {u}")
    return (u, v) if u < v else (v, u)


def _reference_instance(labels, unary, pairwise, constant):
    """make_instance and EnergyInstance construction as they were, per-node
    and per-edge loops, with labels, edges, finite_sum and all_finite
    derived here: the instance is built without the live construction."""
    nodes = tuple(sorted(labels))
    unary = dict(unary)
    for u in nodes:
        if u in unary and len(unary[u]) != labels[u]:
            raise InstanceError(f"node {u}: unary table has wrong length")
        unary.setdefault(u, tuple([0] * labels[u]))
    pw = {}
    for (u, v), table in pairwise.items():
        key = _reference_normalize(u, v)
        if key != (u, v):
            table = tuple(zip(*table))
        if key in pw:
            raise InstanceError(f"edge {key} given twice")
        pw[key] = tuple(tuple(row) for row in table)

    seen = set(nodes)
    if set(unary) != seen:
        raise InstanceError("unary tables must cover exactly the node set")
    counts = {u: len(unary[u]) for u in nodes}
    edges = tuple(sorted(pw))
    for u in nodes:
        if counts[u] < 1:
            raise InstanceError(f"node {u}: label count must be positive")
        if not any(c is not INF for c in unary[u]):
            raise InstanceError(f"node {u}: no label with finite unary cost")
    for (u, v) in edges:
        if (u, v) != _reference_normalize(u, v):
            raise InstanceError(f"edge {(u, v)} not normalized (u < v required)")
        if u not in seen or v not in seen:
            raise InstanceError(f"edge {(u, v)} references unknown node")
        table = pw[(u, v)]
        if len(table) != counts[u] or any(len(row) != counts[v] for row in table):
            raise InstanceError(f"edge {(u, v)}: pairwise table has wrong dimensions")
    entries = [c for t in unary.values() for c in t] + \
        [c for table in pw.values() for row in table for c in row]
    kinds = {type(c) for c in entries} - {int, type(INF)}
    if kinds:
        raise InstanceError(f"cost entries must be ints or INF, got "
                            f"{sorted(k.__name__ for k in kinds)}")
    finite = [c for c in entries if c is not INF]
    if any(not I64_MIN <= c <= I64_MAX for c in finite):
        raise InstanceError("cost entry outside signed 64-bit range")
    if type(constant) is not int:
        raise InstanceError("constant offset must be a finite integer")
    check_range(constant)

    instance = object.__new__(EnergyInstance)
    for name, value in (("nodes", nodes), ("unary", unary), ("pairwise", pw),
                        ("constant", constant), ("labels", counts), ("edges", edges),
                        ("finite_sum", sum(abs(c) for c in finite)),
                        ("all_finite", len(finite) == len(entries))):
        object.__setattr__(instance, name, value)
    return instance


def _reference_parse_instance(text):
    lines = text.splitlines()
    n = None
    ids = None
    label_counts = None
    constant = 0
    unary = {}
    coords = {}
    edges = []
    singletons = set()
    header_seen = False

    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if not header_seen:
            if tokens != ["MINE", "1"]:
                raise ParseError(line_no, "expected header 'MINE 1'")
            header_seen = True
            continue
        kw, rest = tokens[0], tokens[1:]
        if kw in ("nodes", "ids", "labels", "constant"):
            if kw in singletons:
                raise ParseError(line_no, f"duplicate {kw} record")
            singletons.add(kw)
        if kw == "nodes":
            if len(rest) != 1:
                raise ParseError(line_no, "nodes takes one count")
            n = _reference_ints(rest, line_no)[0]
        elif kw == "ids":
            ids = _reference_ints(rest, line_no)
        elif kw == "labels":
            label_counts = _reference_ints(rest, line_no)
            if any(not I64_MIN <= k <= I64_MAX for k in label_counts):
                raise ParseError(line_no, "label count outside signed 64-bit range")
            if sum(k for k in label_counts if k > 0) > DEFAULT_BRUTE_LIMIT:
                raise ParseError(line_no, f"label counts add up to more than {DEFAULT_BRUTE_LIMIT}")
        elif kw == "constant":
            if len(rest) != 1:
                raise ParseError(line_no, "constant takes one integer")
            constant = _reference_in_range(_reference_ints(rest, line_no)[0], line_no)
        elif kw == "unary":
            if len(rest) < 2:
                raise ParseError(line_no, "unary needs a node id and entries")
            u = _reference_ints(rest[:1], line_no)[0]
            if u in unary:
                raise ParseError(line_no, f"duplicate unary record for node {u}")
            unary[u] = tuple(_reference_cost_token(t, line_no) for t in rest[1:])
        elif kw == "coord":
            if len(rest) != 3:
                raise ParseError(line_no, "coord needs a node id and two rationals")
            u = _reference_ints(rest[:1], line_no)[0]
            if u in coords:
                raise ParseError(line_no, f"duplicate coord record for node {u}")
            coords[u] = (_reference_frac_token(rest[1], line_no),
                         _reference_frac_token(rest[2], line_no))
        elif kw == "edge":
            if len(rest) < 3:
                raise ParseError(line_no, "edge needs two node ids and entries")
            u, v = _reference_ints(rest[:2], line_no)
            edges.append((u, v, [_reference_cost_token(t, line_no) for t in rest[2:]],))
        else:
            raise ParseError(line_no, f"unknown record {kw!r}")

    last = len(lines)
    if not header_seen:
        raise ParseError(1, "missing header 'MINE 1'")
    if n is None:
        raise ParseError(last, "missing 'nodes' record")
    if label_counts is None or len(label_counts) != n:
        raise ParseError(last, "labels must give one count per node")
    if ids is None:
        ids = list(range(n))
    if len(ids) != n or len(set(ids)) != n:
        raise ParseError(last, "ids must list exactly the declared node count, no repeats")

    labels = dict(zip(ids, label_counts))
    for u, tbl in unary.items():
        if u not in labels:
            raise ParseError(last, f"unary record for unknown node {u}")
        if len(tbl) != labels[u]:
            raise ParseError(last, f"node {u}: unary has {len(tbl)} entries, expected {labels[u]}")
    for u in coords:
        if u not in labels:
            raise ParseError(last, f"coord record for unknown node {u}")

    pairwise = {}
    for (u, v, flat) in edges:
        if u not in labels or v not in labels:
            raise ParseError(last, f"edge ({u}, {v}) references unknown node")
        ku, kv = labels[u], labels[v]
        if len(flat) != ku * kv:
            raise ParseError(last, f"edge ({u}, {v}): expected {ku * kv} entries, got {len(flat)}")
        table = tuple(tuple(flat[a * kv + b] for b in range(kv)) for a in range(ku))
        if (u, v) in pairwise or (v, u) in pairwise:
            raise ParseError(last, f"duplicate edge ({u}, {v})")
        pairwise[(u, v)] = table

    instance = _reference_instance(labels, unary, pairwise, constant)
    drawing = None
    if coords:
        if set(coords) != set(labels):
            raise ParseError(last, "coords must cover all nodes or none")
        drawing = Drawing(coords)
    return instance, drawing


def _reference_parse_wcnf3(text):
    n = m = None
    weights = None
    clauses = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if n is not None:
                raise ParseError(line_no, "duplicate problem line")
            if len(tokens) != 4 or tokens[1] != "wcnf3":
                raise ParseError(line_no, "expected 'p wcnf3 <vars> <clauses>'")
            n, m = _reference_ints(tokens[2:], line_no)
        elif tokens[0] == "w":
            if n is None:
                raise ParseError(line_no, "weight line before problem line")
            if weights is not None:
                raise ParseError(line_no, "duplicate weight line")
            weights = _reference_ints(tokens[1:], line_no)
            if len(weights) != n:
                raise ParseError(line_no, f"expected {n} weights, got {len(weights)}")
            if any(w < 0 for w in weights):
                raise ParseError(line_no, "weights must be non-negative")
            for w in weights:
                if w > I64_MAX:
                    raise ParseError(line_no, f"weight {w} outside signed 64-bit range")
            if sum(weights) > I64_MAX:
                raise ParseError(line_no,
                                 f"weights sum to {sum(weights)}, outside signed 64-bit range")
        else:
            lits = _reference_ints(tokens, line_no)
            if len(lits) != 4 or lits[-1] != 0:
                raise ParseError(line_no, "clause must be 3 literals plus terminating 0")
            clauses.append(tuple(lits[:3]))
    if n is None or weights is None:
        raise ParseError(len(text.splitlines()), "missing problem or weight line")
    if len(clauses) != m:
        raise ParseError(len(text.splitlines()),
                         f"declared {m} clauses, found {len(clauses)}")
    try:
        return W3SatTriv(num_vars=n, clauses=tuple(clauses), weights=tuple(weights))
    except ValueError as exc:
        raise ParseError(len(text.splitlines()), str(exc)) from None


def _reference_parse_solution(text):
    labeling = {}
    energy = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] in ("energy", "value"):
            if energy is not None:
                raise ParseError(line_no, "duplicate energy or value record")
            if len(tokens) != 2:
                raise ParseError(line_no, f"{tokens[0]} takes one value")
            energy = _reference_cost_token(tokens[1], line_no)
        else:
            if len(tokens) != 2:
                raise ParseError(line_no, "expected '<node> <label>'")
            u, a = _reference_ints(tokens, line_no)
            if u in labeling:
                raise ParseError(line_no, f"duplicate assignment for node {u}")
            labeling[u] = a
    return labeling, energy


# --- the parsers against the reference ---------------------------------------

_short_tokens = st.one_of(
    st.integers(-4, 4).map(str), st.integers(-4, 4).map(str),
    st.sampled_from(["p", "w", "c", "wcnf3", "0", "x", "INF", "99999999999999999999999"]),
    st.text(max_size=3))


@st.composite
def wcnf3_texts(draw):
    """Text shaped like a wcnf3 formula: a generated formula, half the time
    with a second copy of its problem or weight line at a later line, or
    problem, weight and clause lines over small numbers, comments and junk."""
    if draw(st.booleans()):
        lines = serialize_wcnf3(random_w3sat(draw(st.integers(0, 10**6)))).splitlines()
        if draw(st.booleans()):
            i = draw(st.sampled_from([0, 1]))  # the p line, then the w line
            lines.insert(draw(st.integers(i + 1, len(lines))), lines[i])
        return "\n".join(lines) + "\n"
    lines = draw(st.lists(st.builds(
        lambda head, rest: " ".join([*head, *rest]),
        st.sampled_from([["p", "wcnf3"], ["p", "wcnf3"], ["w"], ["w"], [], [], ["c"]]),
        st.lists(_short_tokens, max_size=5)), max_size=6))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@st.composite
def solution_texts(draw):
    """Text shaped like a solution: a serialized labeling and energy, or
    label and energy lines over small numbers, INF, comments and junk."""
    if draw(st.booleans()):
        labeling = draw(st.dictionaries(st.integers(-3, 30), st.integers(-2, 5), max_size=5))
        return serialize_solution(labeling, draw(st.one_of(st.none(), _costs)))
    lines = draw(st.lists(st.builds(
        lambda head, rest: " ".join([*head, *rest]),
        st.sampled_from([["energy"], ["value"], [], [], ["#"]]),
        st.lists(_short_tokens, max_size=3)), max_size=6))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@st.composite
def loosened(draw, texts):
    """A drawn text with, half the time, one ASCII digit written in a form
    int() also reads: doubled around an underscore, Arabic-Indic or full-width."""
    text = draw(texts)
    digits = [i for i, ch in enumerate(text) if ch in "0123456789"]
    if not digits or draw(st.booleans()):
        return text
    i = draw(st.sampled_from(digits))
    d = int(text[i])
    form = draw(st.sampled_from([f"{d}_{d}", chr(0x660 + d), chr(0xFF10 + d)]))
    return text[:i] + form + text[i + 1:]


def _newly_rejected(token):
    """A token int() reads that is not ASCII [-+]?[0-9]+."""
    try:
        int(token)
    except ValueError:
        return False
    return not re.fullmatch(r"[-+]?[0-9]+", token)


def _outcome(parse, text):
    try:
        result = parse(text)
    except Exception as exc:  # noqa: BLE001 - compared by type and message
        return type(exc), str(exc)
    if isinstance(result, tuple) and isinstance(result[0], EnergyInstance):
        # What construction derives takes no part in instance equality.
        instance = result[0]
        result += ((list(instance.labels.items()), instance.edges, instance.finite_sum,
                    instance.all_finite),)
    return "ok", result


_PARSERS = {
    "instance": (parse_instance, _reference_parse_instance,
                 st.one_of(mine_texts(), st.text(),
                           instances().map(lambda p: serialize_instance(*p)))),
    "wcnf3": (parse_wcnf3, _reference_parse_wcnf3, st.one_of(wcnf3_texts(), st.text())),
    "solution": (parse_solution, _reference_parse_solution,
                 st.one_of(solution_texts(), st.text())),
}


@pytest.mark.parametrize("kind", sorted(_PARSERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parsers_match_the_reference_reader(kind, data):
    parse, reference, texts = _PARSERS[kind]
    text = data.draw(loosened(texts))
    got, want = _outcome(parse, text), _outcome(reference, text)
    if got != want:
        loose = [t for t in text.split() if _newly_rejected(t)]
        assert got[0] is ParseError, (got, want)
        assert "expected integer" in got[1] and any(repr(t) in got[1] for t in loose)


@pytest.mark.parametrize("entries, message", [
    ("0 9223372036854775808 x", "cost 9223372036854775808 outside signed 64-bit range"),
    ("0 x 9223372036854775808", "expected integer or INF, got 'x'"),
    ("INF -9223372036854775809 1_0", "cost -9223372036854775809 outside signed 64-bit range"),
    ("INF 1_0 -9223372036854775809", "expected integer or INF, got '1_0'"),
    ("INF inf", "expected integer or INF, got 'inf'"),
    ("1" * 5000, f"expected integer or INF, got '{'1' * 5000}'"),  # int() reads 4300 digits
    ("0 " + "0" * 5000 + "1", f"expected integer or INF, got '{'0' * 5000}1'"),
], ids=["range-first", "syntax-first", "range-before-loose", "loose-before-range", "inf-case",
        "many-digits", "many-zeros"])
def test_a_bad_cost_record_is_reported_at_its_first_bad_token(entries, message):
    text = f"MINE 1\nnodes 1\nlabels {len(entries.split())}\nunary 0 {entries}\n"
    with pytest.raises(ParseError) as exc:
        parse_instance(text)
    assert str(exc.value) == f"line 4: {message}"
    if "_" not in entries:
        assert _outcome(_reference_parse_instance, text) == (ParseError, str(exc.value))


# --- integer length, whatever the interpreter's limit -------------------------

_FITS, _LONG = "0" * 639 + "1", "0" * 640 + "1"  # 640 and 641 digits, both worth 1


@pytest.mark.parametrize("parse, template, accepted, message", [
    (parse_instance, "MINE 1\nnodes 1\nlabels 2\nunary 0 0 {}\n",
     lambda got: got[0].unary[0] == (0, 1), "line 4: expected integer or INF, got '{}'"),
    (parse_instance, "MINE 1\nnodes 2\nlabels 2 2\nedge 0 {} 0 0 0 0\n",
     lambda got: got[0].edges == ((0, 1),), "line 4: expected integers, got ['0', '{}']"),
    (parse_instance, "MINE 1\nnodes 2\nids 0 {}\nlabels 2 2\n",
     lambda got: got[0].nodes == (0, 1), "line 3: expected integers, got ['0', '{}']"),
    (parse_instance, "MINE 1\nnodes 1\nlabels 2\nconstant -{}\n",
     lambda got: got[0].constant == -1, "line 4: expected integers, got ['-{}']"),
    (parse_instance, "MINE 1\nnodes 1\nlabels 2\ncoord 0 {}/1 0\n",
     lambda got: got[1].coords[0] == (1, 0), "line 4: expected int or int/int, got '{}/1'"),
    (parse_wcnf3, "p wcnf3 3 1\nw 0 {} 0\n1 -2 3 0\n",
     lambda got: got.weights == (0, 1, 0), "line 2: expected integers, got ['0', '{}', '0']"),
    (parse_solution, "0 {}\n", lambda got: got == ({0: 1}, None),
     "line 1: expected integers, got ['0', '{}']"),
    (parse_solution, "energy +{}\n", lambda got: got == ({}, 1),
     "line 1: expected integer or INF, got '+{}'"),
], ids=["cost", "edge-id", "ids", "constant", "coord", "weight", "label", "energy"])
def test_a_token_of_more_than_640_digits_is_rejected_whatever_the_int_limit(
        parse, template, accepted, message):
    # 640 digits is the least limit the interpreter accepts for int() of a
    # string (0 lifts it), so every setting reads every shorter token.
    outcomes = []
    old = sys.get_int_max_str_digits()
    try:
        for limit in (sys.int_info.str_digits_check_threshold, 0):
            sys.set_int_max_str_digits(limit)
            outcomes.append([_outcome(parse, template.format(t)) for t in (_FITS, _LONG)])
    finally:
        sys.set_int_max_str_digits(old)
    assert outcomes[0] == outcomes[1]
    (fits_kind, fits), (long_kind, long_message) = outcomes[0]
    assert fits_kind == "ok" and accepted(fits)
    assert (long_kind, long_message) == (ParseError, message.format(_LONG))


# --- whole-table conversion reads what int() reads ---------------------------

_ODD_TOKENS = {t: t for t in [
    "7", "-0", "+0", "007", "+7", "-007", "1,2", "1e3", "1.0", "0x1", "-", "--1", "inf", "NaN"]}
_ODD_TOKENS.update({"above-int64": str(I64_MAX + 1), "below-int64": str(I64_MIN - 1),
                    "signed-640-digits": "-" + _FITS})


@pytest.mark.parametrize("token", list(_ODD_TOKENS.values()), ids=list(_ODD_TOKENS))
@pytest.mark.parametrize("where", ["unary", "edge-cost", "edge-id"])
def test_table_tokens_read_as_the_per_token_reader_reads_them(token, where):
    # The unary and edge records are converted a whole table at a time; a
    # token in an unusual form, among ordinary ones, gives the result a
    # per-token reading gives.
    records = {"unary": f"unary 1 0 {token}", "edge-cost": f"edge 0 1 0 {token} 1 1",
               "edge-id": f"edge 0 {token} 0 0 0 0"}
    text = ("MINE 1\nnodes 8\nlabels 2 2 2 2 2 2 2 2\nunary 0 1 2\n"
            f"{records[where]}\nedge 2 3 5 6 7 8\nedge 4 5 0 0 0 0\n")
    assert _outcome(parse_instance, text) == _outcome(_reference_parse_instance, text)


# --- the first defect in file order wins --------------------------------------

_HEAD = "MINE 1\nnodes 3\nlabels 2 2 2\n"


@pytest.mark.parametrize("body, message", [
    ("edge 0 1 0 x 0 0\nfoo 1\n", "line 4: expected integer or INF, got 'x'"),
    ("foo 1\nedge 0 1 0 x 0 0\n", "line 4: unknown record 'foo'"),
    ("edge 0 1\nunary 0 x 0\n", "line 4: edge needs two node ids and entries"),
    ("unary 0 x 0\nedge 0 1\n", "line 4: expected integer or INF, got 'x'"),
    ("edge x 1 0 0 0 0\nunary 0 0 0\nunary 0 0 0\n", "line 4: expected integers, got ['x', '1']"),
    ("unary 0 0 0\nunary 0 0 0\nedge 0 1 0 x 0 0\n", "line 5: duplicate unary record for node 0"),
    ("unary 2 0 0\nedge 0 1 0 0 0 99999999999999999999\nlabels 2 2\n",
     "line 5: cost 99999999999999999999 outside signed 64-bit range"),
    ("unary 1 0 0\nunary 1 0 0\nnodes 3 3\n", "line 5: duplicate unary record for node 1"),
    ("unary 7 0 0\nunary 0 0\n", "line 5: unary record for unknown node 7"),
    ("unary 0 0\nunary 7 0 0\n", "line 5: node 0: unary has 1 entries, expected 2"),
    ("edge 0 1 0 0 0\nedge 1 0 0 0 0 0\n", "line 5: edge (0, 1): expected 4 entries, got 3"),
    ("edge 1 0 0 0 0 0\nedge 0 1 0 0 0 0\nedge 0 2 0 0 0\n", "line 6: duplicate edge (0, 1)"),
    ("edge 0 1 0 0 0 0\nedge 1 0 0 0 0 0\nedge 0 9 0 0 0 0\n", "line 6: duplicate edge (1, 0)"),
    ("edge 0 9 0 0 0 0\nedge 0 1 0 0 0 0\nedge 1 0 0 0 0 0\n",
     "line 6: edge (0, 9) references unknown node"),
    ("edge 2 2 0 0 0 0\nedge 2 2 0 0 0 0\n", "line 5: duplicate edge (2, 2)"),
    ("unary 0 x 0\nconstant 1\nconstant 2\n", "line 4: expected integer or INF, got 'x'"),
    ("constant 1\nconstant 2\nunary 0 x 0\n", "line 5: duplicate constant record"),
], ids=["token-before-record", "record-before-token", "short-edge-before-token",
        "token-before-short-edge", "edge-id-before-duplicate-unary",
        "duplicate-unary-before-token", "range-before-labels", "duplicate-before-nodes",
        "unknown-unary-before-length", "length-before-unknown-unary",
        "edge-length-before-duplicate", "duplicate-before-edge-length",
        "duplicate-before-unknown", "unknown-before-duplicate", "self-loop-twice",
        "token-before-repeated-constant", "repeated-constant-before-token"])
def test_the_first_defect_in_file_order_is_reported(body, message):
    # Unary and edge records are converted a whole table at a time after the
    # other records; the error is still the one a per-record reading meets
    # first.
    text = _HEAD + body
    assert _outcome(parse_instance, text) == (ParseError, message)
    assert _outcome(_reference_parse_instance, text) == (ParseError, message)


def test_a_label_count_below_one_leaves_the_error_construction_gives():
    # Tables of nodes with a count below 1 are cut as a per-record reading
    # cuts them, so construction meets the same first defect.
    for text in ("MINE 1\nnodes 2\nlabels -1 -1\nedge 0 0 5\n",
                 "MINE 1\nnodes 3\nlabels -1 -1 2\nedge 0 1 5\nedge 1 2 1 2\n",
                 "MINE 1\nnodes 3\nlabels 1 -1 -1\nedge 1 2 5\nedge 0 0 7\n"):
        assert _outcome(parse_instance, text) == _outcome(_reference_parse_instance, text)
        assert _outcome(parse_instance, text)[0] in TYPED_ERRORS


# --- whole files of perfbench's size, where tokens and tables repeat -----------

def _grid(seed, rows, cols, counts, costs):
    """A 4-neighbour grid with label counts drawn from `counts`, unary entries
    from `costs` (each row keeps one finite entry) and every edge's entries
    one of eight lists per entry count, so that tables repeat as they do in
    a grid file, and a k x m and an m x k table can share their entries."""
    rng = random.Random(seed)
    n = rows * cols
    labels = {u: rng.choice(counts) for u in range(n)}
    unary = {}
    for u, k in labels.items():
        row = [rng.choice(costs) for _ in range(k)]
        row[rng.randrange(k)] = rng.randint(0, 20)
        unary[u] = tuple(row)
    pool = {}
    pairwise = {}
    for u in range(n):
        for v in ([u + 1] if (u + 1) % cols else []) + ([u + cols] if u + cols < n else []):
            ku, kv = labels[u], labels[v]
            if ku * kv not in pool:
                pool[ku * kv] = [[rng.choice(costs) for _ in range(ku * kv)] for _ in range(8)]
            flat = rng.choice(pool[ku * kv])
            pairwise[(u, v)] = tuple(tuple(flat[a * kv:(a + 1) * kv]) for a in range(ku))
    return make_instance(labels, unary, pairwise)


def _rewritten(text, seed):
    """The same instance written otherwise: some edges as `v u` with the table
    transposed, and comment and blank lines between the records."""
    rng = random.Random(seed)
    head, *body = text.splitlines()
    labels = dict(zip(map(int, body[1].split()[1:]), map(int, body[2].split()[1:])))
    out = [head]
    for line in body:
        kw, *rest = line.split()
        if kw == "edge" and rng.random() < 0.3:
            u, v, entries = int(rest[0]), int(rest[1]), rest[2:]
            kv = labels[v]
            columns = [entries[b::kv] for b in range(kv)]
            line = f"edge {v} {u} " + " ".join(t for column in columns for t in column)
        out.append(line)
        if rng.random() < 0.05:
            out.append(rng.choice(["", "# a comment", "   ", "#edge 0 1 x"]))
    return "\n".join(out) + "\n"


_FILE_SCALE = {
    "binary-20x20": lambda: potts_grid(1, 20, 20, 2),
    "potts4-12x12": lambda: potts_grid(2, 12, 12, 4),
    "inf-and-boundary": lambda: _grid(3, 12, 12, (3,), (0, 1, -7, INF, I64_MIN, I64_MAX)),
    "mixed-labels": lambda: _grid(4, 15, 15, (1, 2, 3, 4), (0, 5, -3, INF, I64_MIN, I64_MAX)),
}


@pytest.mark.parametrize("build", list(_FILE_SCALE.values()), ids=list(_FILE_SCALE))
def test_file_scale_instances_read_as_the_reference_reads_them(build):
    instance = build()
    text = serialize_instance(instance)
    got = _outcome(parse_instance, text)
    assert got == _outcome(_reference_parse_instance, text)
    back = got[1][0]
    assert back == instance and serialize_instance(back) == text
    # An edge table written twice is one tuple, read once.
    assert len(set(map(id, back.pairwise.values()))) == len(set(back.pairwise.values()))
    rewritten = _rewritten(text, 0)
    assert _outcome(parse_instance, rewritten) == _outcome(_reference_parse_instance, rewritten)
    assert parse_instance(rewritten)[0] == instance


def test_edges_written_v_u_keep_the_other_tables_shared():
    # make_instance transposes each table object once for the edges written
    # `v u`, so every distinct table is at most two objects: as read, and
    # transposed.
    instance = potts_grid(1, 20, 20, 2)
    text = _rewritten(serialize_instance(instance), 0)
    ends = [line.split()[1:3] for line in text.splitlines() if line.startswith("edge ")]
    reversed_edges = sum(int(u) > int(v) for u, v in ends)
    assert 200 < reversed_edges < 260
    back = parse_instance(text)[0]
    assert back == instance
    tables = list(back.pairwise.values())
    assert len(set(map(id, tables))) <= 2 * len(set(tables)) == 20


# A record put fifth from the end: the error, and whether it names that
# record's line (else the file's last line, as every structural check does).
_NEAR_THE_END = {
    "loose-token": ("edge 398 399 0 1_0 3 0", "expected integer or INF, got '1_0'", True),
    "cost-2^63": ("edge 398 399 0 9223372036854775808 3 0",
                  "cost 9223372036854775808 outside signed 64-bit range", True),
    "short-edge": ("edge 398 399", "edge needs two node ids and entries", True),
    "bad-edge-id": ("edge 398 x 0 1 1 0", "expected integers, got ['398', 'x']", True),
    "inf-edge-id": ("edge INF 399 0 INF 1 0", "expected integers, got ['INF', '399']", True),
    "repeated-unary": ("unary 7 0 1", "duplicate unary record for node 7", True),
    "duplicate-edge": ("edge 1 0 0 1 1 0", "duplicate edge (1, 0)", False),
    "unknown-node": ("edge 398 400 0 1 1 0", "edge (398, 400) references unknown node", False),
    "edge-length": ("edge 398 399 0 1 1", "edge (398, 399): expected 4 entries, got 3", False),
    "unknown-unary": ("unary 401 0 1", "unary record for unknown node 401", False),
}


@pytest.mark.parametrize("record, message, at_its_line", list(_NEAR_THE_END.values()),
                         ids=list(_NEAR_THE_END))
def test_a_defect_near_the_end_of_a_long_file_names_its_own_line(record, message, at_its_line):
    lines = serialize_instance(potts_grid(5, 20, 20, 2)).splitlines()
    assert len(lines) > 1000
    lines.insert(len(lines) - 4, record)
    text = "\n".join(lines) + "\n"
    line = len(lines) - 4 if at_its_line else len(lines)
    assert _outcome(parse_instance, text) == (ParseError, f"line {line}: {message}")
    if "_" not in record:  # the reference reads 1_0 as int() does
        assert _outcome(_reference_parse_instance, text) == (ParseError, f"line {line}: {message}")
