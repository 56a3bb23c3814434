"""Text formats: instances ("MINE 1"), weighted 3-CNF, solutions, traces.

The instance format is line-oriented and canonical: sorted node ids,
sorted edges, one record per line, "INF" for +infinity, coordinates as
exact "num/den" rationals.  Serializing a parsed file reproduces it byte
for byte, which is what lets tests pin golden files.  The parser reads a
coordinate only as an integer or "int/int" (no exponent or decimal
point), and the label counts of one file may sum to at most 2^24
(`solvers.DEFAULT_BRUTE_LIMIT`); either is a ParseError otherwise.  In all
three text formats an integer token is ASCII [-+]?[0-9]+: the underscores
and non-ASCII digits int() also reads are a ParseError, and so is a cost
or weight outside signed 64-bit range, at its line.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import chain

from .costs import I64_MAX, I64_MIN, INF, Cost
from .geometry import Drawing, Point, frac_str
from .instance import EnergyInstance, Labeling, make_instance
from .reductions.trace import ReductionTrace, trace_from_json
from .reductions.wsat import W3SatTriv
from .solvers import DEFAULT_BRUTE_LIMIT

_INTEGER = re.compile(r"[-+]?[0-9]+")
_RATIONAL = re.compile(r"[-+]?[0-9]+(/[0-9]+)?")


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _records(text: str, comment: str):
    """The text's line count, and an iterator over the (line number, tokens)
    of each line that is neither blank nor a comment."""
    lines = text.splitlines()
    return len(lines), ((line_no, tokens)
                        for line_no, tokens in enumerate(map(str.split, lines), start=1)
                        if tokens and not tokens[0].startswith(comment))


def _loose(tokens: list[str]) -> bool:
    """Whether the tokens hold an underscore or a non-ASCII character.  Bar
    the whitespace around it, which split() tokens never hold, every string
    int() reads that is not ASCII [-+]?[0-9]+ has one of the two."""
    joined = "".join(tokens)
    return "_" in joined or not joined.isascii()


def _ints(tokens, line_no):
    try:
        if not _loose(tokens):
            return [int(t) for t in tokens]
    except ValueError:
        pass
    raise ParseError(line_no, f"expected integers, got {tokens}")


def _costs(tokens: list[str], line_no: int) -> tuple[Cost, ...]:
    """One record's costs, each INF or an integer in signed 64-bit range; a
    bad record is reported at its first bad token."""
    try:
        costs = tuple([INF if t == "INF" else int(t) for t in tokens])
    except ValueError:
        costs = None
    if costs is not None and not _loose(tokens):
        finite = [c for c in costs if c is not INF] if "INF" in tokens else costs
        if not finite or I64_MIN <= min(finite) and max(finite) <= I64_MAX:
            return costs
    for tok in tokens:  # the record is bad: find its first bad token
        if tok != "INF":
            try:
                value = int(tok) if _INTEGER.fullmatch(tok) else None
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                value = None
            if value is None or not I64_MIN <= value <= I64_MAX:
                break
    if value is None:
        raise ParseError(line_no, f"expected integer or INF, got {tok!r}")
    raise ParseError(line_no, f"cost {value} outside signed 64-bit range")


def _frac_token(tok: str, line_no: int) -> Fraction:
    try:
        if _RATIONAL.fullmatch(tok):
            return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        pass
    raise ParseError(line_no, f"expected int or int/int, got {tok!r}")


def parse_instance(text: str) -> tuple[EnergyInstance, Drawing | None]:
    n = None
    ids: list[int] | None = None
    label_counts: list[int] | None = None
    constant = 0
    unary: dict[int, tuple[Cost, ...]] = {}
    coords: dict[int, Point] = {}
    edges: list[tuple[int, int, tuple[Cost, ...]]] = []

    last, records = _records(text, "#")
    line_no, tokens = next(records, (1, None))
    if tokens != ["MINE", "1"]:
        raise ParseError(line_no, "missing header 'MINE 1'" if tokens is None
                         else "expected header 'MINE 1'")
    for line_no, (kw, *rest) in records:
        if kw == "nodes":
            if len(rest) != 1:
                raise ParseError(line_no, "nodes takes one count")
            n = _ints(rest, line_no)[0]
        elif kw == "ids":
            ids = _ints(rest, line_no)
        elif kw == "labels":
            label_counts = _ints(rest, line_no)
            if any(not I64_MIN <= k <= I64_MAX for k in label_counts):
                raise ParseError(line_no, "label count outside signed 64-bit range")
            if sum(k for k in label_counts if k > 0) > DEFAULT_BRUTE_LIMIT:
                raise ParseError(line_no, f"label counts add up to more than {DEFAULT_BRUTE_LIMIT}")
        elif kw == "constant":
            if len(rest) != 1:
                raise ParseError(line_no, "constant takes one integer")
            _ints(rest, line_no)  # an integer, never INF
            constant = _costs(rest, line_no)[0]
        elif kw == "unary":
            if len(rest) < 2:
                raise ParseError(line_no, "unary needs a node id and entries")
            u = _ints(rest[:1], line_no)[0]
            if u in unary:
                raise ParseError(line_no, f"duplicate unary record for node {u}")
            unary[u] = _costs(rest[1:], line_no)
        elif kw == "coord":
            if len(rest) != 3:
                raise ParseError(line_no, "coord needs a node id and two rationals")
            u = _ints(rest[:1], line_no)[0]
            if u in coords:
                raise ParseError(line_no, f"duplicate coord record for node {u}")
            coords[u] = (_frac_token(rest[1], line_no), _frac_token(rest[2], line_no))
        elif kw == "edge":
            if len(rest) < 3:
                raise ParseError(line_no, "edge needs two node ids and entries")
            u, v = _ints(rest[:2], line_no)
            edges.append((u, v, _costs(rest[2:], line_no)))
        else:
            raise ParseError(line_no, f"unknown record {kw!r}")

    if n is None:
        raise ParseError(last, "missing 'nodes' record")
    # The labels record bounds the node count by the file's length, so it is
    # checked before the default ids are built.
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
        if (u, v) in pairwise or (v, u) in pairwise:
            raise ParseError(last, f"duplicate edge ({u}, {v})")
        pairwise[(u, v)] = tuple([flat[i:i + kv] for i in range(0, len(flat), kv)])

    instance = make_instance(labels, unary, pairwise, constant)
    drawing = None
    if coords:
        if set(coords) != set(labels):
            raise ParseError(last, "coords must cover all nodes or none")
        drawing = Drawing(coords)
    return instance, drawing


def serialize_instance(instance: EnergyInstance, d: Drawing | None = None) -> str:
    out = ["MINE 1", f"nodes {len(instance.nodes)}"]
    ids = sorted(instance.nodes)
    out.append("ids " + " ".join(str(u) for u in ids))
    out.append("labels " + " ".join(str(instance.labels[u]) for u in ids))
    out.append(f"constant {instance.constant}")
    if d is not None:
        for u in ids:
            x, y = d.coords[u]
            out.append(f"coord {u} {frac_str(Fraction(x))} {frac_str(Fraction(y))}")
    for u in ids:
        out.append(f"unary {u} " + " ".join(map(str, instance.unary[u])))
    for (u, v) in instance.edges:
        entries = chain.from_iterable(instance.pairwise[(u, v)])
        out.append(f"edge {u} {v} " + " ".join(map(str, entries)))
    return "\n".join(out) + "\n"


def parse_wcnf3(text: str) -> W3SatTriv:
    n = m = None
    weights = None
    clauses = []
    last, records = _records(text, "c")
    for line_no, tokens in records:
        if tokens[0] == "p":
            if len(tokens) != 4 or tokens[1] != "wcnf3":
                raise ParseError(line_no, "expected 'p wcnf3 <vars> <clauses>'")
            n, m = _ints(tokens[2:], line_no)
        elif tokens[0] == "w":
            if n is None:
                raise ParseError(line_no, "weight line before problem line")
            weights = _ints(tokens[1:], line_no)
            if len(weights) != n:
                raise ParseError(line_no, f"expected {n} weights, got {len(weights)}")
            if any(w < 0 for w in weights):
                raise ParseError(line_no, "weights must be non-negative")
            big = [w for w in weights if w > I64_MAX]
            if big:
                raise ParseError(line_no, f"weight {big[0]} outside signed 64-bit range")
            total = sum(weights)
            if total > I64_MAX:
                raise ParseError(line_no, f"weights sum to {total}, outside signed 64-bit range")
        else:
            lits = _ints(tokens, line_no)
            if len(lits) != 4 or lits[-1] != 0:
                raise ParseError(line_no, "clause must be 3 literals plus terminating 0")
            clauses.append(tuple(lits[:3]))
    if n is None or weights is None:
        raise ParseError(last, "missing problem or weight line")
    if len(clauses) != m:
        raise ParseError(last, f"declared {m} clauses, found {len(clauses)}")
    try:
        return W3SatTriv(num_vars=n, clauses=tuple(clauses), weights=tuple(weights))
    except ValueError as exc:
        raise ParseError(last, str(exc)) from None


def serialize_wcnf3(sat: W3SatTriv) -> str:
    out = [f"p wcnf3 {sat.num_vars} {len(sat.clauses)}",
           "w " + " ".join(str(w) for w in sat.weights)]
    for clause in sat.clauses:
        out.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(out) + "\n"


def parse_solution(text: str) -> tuple[Labeling, Cost | None]:
    labeling: Labeling = {}
    energy = None
    for line_no, tokens in _records(text, "#")[1]:
        if tokens[0] == "energy":
            if len(tokens) != 2:
                raise ParseError(line_no, "energy takes one value")
            energy = _costs(tokens[1:], line_no)[0]
        else:
            if len(tokens) != 2:
                raise ParseError(line_no, "expected '<node> <label>'")
            u, a = _ints(tokens, line_no)
            if u in labeling:
                raise ParseError(line_no, f"duplicate assignment for node {u}")
            labeling[u] = a
    return labeling, energy


def serialize_solution(labeling: Labeling, energy: Cost | None = None) -> str:
    out = [f"{u} {labeling[u]}" for u in sorted(labeling)]
    if energy is not None:
        out.append(f"energy {energy}")
    return "\n".join(out) + "\n"


def write_trace(trace: ReductionTrace) -> str:
    return json.dumps(trace.to_json(), indent=2, sort_keys=True) + "\n"


def read_trace(text: str) -> ReductionTrace:
    try:
        return trace_from_json(json.loads(text))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(1, f"bad trace JSON: {exc}") from None
