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
  [-+]?[0-9]+ is now a ParseError.
"""

import io
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mine.cli import run_cli
from mine.costs import I64_MAX, I64_MIN, INF, CostOverflowError, check_range
from mine.fileformat import (ParseError, parse_instance, parse_solution, parse_wcnf3,
                             serialize_instance, serialize_solution, serialize_wcnf3)
from mine.generate import random_w3sat
from mine.geometry import Drawing, GeometryError
from mine.instance import InstanceError, make_instance
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
    the format's keywords over small numbers, INF, rationals and junk."""
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


def _reference_parse_instance(text):
    lines = text.splitlines()
    n = None
    ids = None
    label_counts = None
    constant = 0
    unary = {}
    coords = {}
    edges = []
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

    instance = make_instance(labels, unary, pairwise, constant)
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
            if len(tokens) != 4 or tokens[1] != "wcnf3":
                raise ParseError(line_no, "expected 'p wcnf3 <vars> <clauses>'")
            n, m = _reference_ints(tokens[2:], line_no)
        elif tokens[0] == "w":
            if n is None:
                raise ParseError(line_no, "weight line before problem line")
            weights = _reference_ints(tokens[1:], line_no)
            if len(weights) != n:
                raise ParseError(line_no, f"expected {n} weights, got {len(weights)}")
            if any(w < 0 for w in weights):
                raise ParseError(line_no, "weights must be non-negative")
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
        if tokens[0] == "energy":
            if len(tokens) != 2:
                raise ParseError(line_no, "energy takes one value")
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
    """Text shaped like a wcnf3 formula: a generated formula, or problem,
    weight and clause lines over small numbers, comments and junk."""
    if draw(st.booleans()):
        return serialize_wcnf3(random_w3sat(draw(st.integers(0, 10**6))))
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
        st.sampled_from([["energy"], [], [], ["#"]]),
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
        return "ok", parse(text)
    except Exception as exc:  # noqa: BLE001 - compared by type and message
        return type(exc), str(exc)


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
