"""Property tests for the instance parser and the CLI on fuzzed files.

Three properties, each over text hypothesis generates:

- parse_instance is total: any text gives an instance or one of the typed
  errors the CLI maps to a documented exit code (ParseError: exit 2;
  InstanceError and GeometryError, for example a self-loop, an all-INF
  unary row or two nodes on one point: exit 3);
- serialize_instance after parse_instance is the identity on the text of
  generated instances, and parsing that text gives the instance back;
- ``mine classify`` on a fuzzed file, text or raw bytes, exits 0, 2 or 3
  and lets no exception escape.
"""

import io
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mine.cli import run_cli
from mine.costs import I64_MAX, I64_MIN, INF
from mine.fileformat import ParseError, parse_instance, serialize_instance
from mine.geometry import Drawing, GeometryError
from mine.instance import InstanceError, make_instance

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
