"""Text formats: instances ("MINE 1"), weighted 3-CNF, solutions, traces.

The instance format is line-oriented and canonical: sorted node ids,
sorted edges, one record per line, "INF" for +infinity, coordinates as
exact "num/den" rationals.  Serializing a parsed file reproduces it byte
for byte, which is what lets tests pin golden files.  The parser reads a
coordinate only as an integer or "int/int" (no exponent or decimal
point), and the label counts of one file may sum to at most 2^24
(`solvers.DEFAULT_BRUTE_LIMIT`); either is a ParseError otherwise.  In all
three text formats an integer token is ASCII [-+]?[0-9]+ with at most 640
digits (MAX_DIGITS; a sign is not a digit, a leading zero is): the
underscores and non-ASCII digits int() also reads are a ParseError, and so
is a longer token, whatever sys.get_int_max_str_digits() allows, and a
cost or weight outside signed 64-bit range, at its line.  Each part of a
coordinate obeys the same length.

Whether a text holds an underscore or a non-ASCII character is decided
once per text; without either, int() alone checks a token.  The unary and
edge records of an instance are converted a whole table at a time after
the other records, and a bad table is read again record by record only
to name its first bad record.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import itemgetter, mul

from .costs import I64_MAX, I64_MIN, INF, Cost
from .geometry import Drawing, Point, frac_str
from .instance import EnergyInstance, Labeling, make_instance
from .reductions.trace import ReductionTrace, trace_from_json
from .reductions.wsat import W3SatTriv
from .solvers import DEFAULT_BRUTE_LIMIT

MAX_DIGITS = 640  # sys.int_info.str_digits_check_threshold, the least limit int() may have
_INTEGER = re.compile(rf"[-+]?[0-9]{{1,{MAX_DIGITS}}}")
_RATIONAL = re.compile(rf"[-+]?[0-9]{{1,{MAX_DIGITS}}}(/[0-9]{{1,{MAX_DIGITS}}})?")


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _records(text: str, comment: str) -> tuple[int, list[tuple[int, list[str]]]]:
    """The text's line count, and the (line number, tokens) of each line that
    is neither blank nor a comment (its first token starts with the
    one-character comment marker)."""
    lines = text.splitlines()
    return len(lines), [(line_no, tokens)
                        for line_no, tokens in enumerate(map(str.split, lines), start=1)
                        if tokens and tokens[0][0] != comment]


def _strict(text: str) -> bool:
    """Whether the text holds no underscore and no non-ASCII character.  Bar
    the whitespace around it, which split() tokens never hold, every string
    int() reads that is not ASCII [-+]?[0-9]+ has one of the two, so int()
    alone checks the tokens of a strict text."""
    return text.isascii() and "_" not in text


def _int_values(tokens: list[str], strict: bool) -> list[int] | None:
    """The tokens as ints, or None if one is not ASCII [-+]?[0-9]+ with at
    most MAX_DIGITS digits."""
    if strict and max(map(len, tokens), default=0) <= MAX_DIGITS:
        try:
            return list(map(int, tokens))
        except ValueError:
            return None
    return list(map(int, tokens)) if all(map(_INTEGER.fullmatch, tokens)) else None


def _cost_values(tokens: list[str], strict: bool) -> list[Cost] | None:
    """The tokens as costs, each INF or an integer in signed 64-bit range,
    or None if one is not."""
    finite = [t for t in tokens if t != "INF"] if "INF" in tokens else tokens
    values = _int_values(finite, strict)
    if values is None or values and not (I64_MIN <= min(values) and max(values) <= I64_MAX):
        return None
    if finite is tokens:
        return values
    values = iter(values)
    return [INF if t == "INF" else next(values) for t in tokens]


def _ints(tokens: list[str], line_no: int, strict: bool) -> list[int]:
    values = _int_values(tokens, strict)
    if values is None:
        raise ParseError(line_no, f"expected integers, got {tokens}")
    return values


def _costs(tokens: list[str], line_no: int, strict: bool) -> list[Cost]:
    """One record's costs; a bad record is reported at its first bad token."""
    costs = _cost_values(tokens, strict)
    if costs is not None:
        return costs
    for tok in tokens:
        if tok != "INF":
            value = int(tok) if _INTEGER.fullmatch(tok) else None
            if value is None or not I64_MIN <= value <= I64_MAX:
                break
    if value is None:
        raise ParseError(line_no, f"expected integer or INF, got {tok!r}")
    raise ParseError(line_no, f"cost {value} outside signed 64-bit range")


def _frac_token(tok: str, line_no: int) -> Fraction:
    try:
        if _RATIONAL.fullmatch(tok):
            return Fraction(tok)
    except ZeroDivisionError:
        pass
    raise ParseError(line_no, f"expected int or int/int, got {tok!r}")


def _table(records: list, ends: int, strict: bool):
    """The node ids and costs of unary (ends = 1) or edge (ends = 2)
    records, converted a whole table at a time: one list of ids per end,
    every record's costs in one list, and each record's cost count.  None
    if a record is short, a token is bad or a unary node repeats."""
    tokens = list(map(itemgetter(1), records))
    if min(map(len, tokens), default=ends + 2) < ends + 2:
        return None
    ids = [_int_values(list(map(itemgetter(i), tokens)), strict) for i in range(1, ends + 1)]
    if None in ids or ends == 1 and len(set(ids[0])) != len(ids[0]):
        return None
    entries = list(map(itemgetter(slice(ends + 1, None)), tokens))
    costs = _cost_values(list(chain.from_iterable(entries)), strict)
    if costs is None:
        return None
    return ids, costs, list(map(len, entries))


def _check_records(records: list, strict: bool) -> None:
    """Raise the ParseError of the first bad one of the unary and edge
    records, in line order: a short record, a bad node id, a repeated unary
    node or a bad cost."""
    unary = set()
    for line_no, (kw, *rest) in records:
        if kw == "unary":
            if len(rest) < 2:
                raise ParseError(line_no, "unary needs a node id and entries")
            u = _ints(rest[:1], line_no, strict)[0]
            if u in unary:
                raise ParseError(line_no, f"duplicate unary record for node {u}")
            unary.add(u)
            _costs(rest[1:], line_no, strict)
        else:
            if len(rest) < 3:
                raise ParseError(line_no, "edge needs two node ids and entries")
            _ints(rest[:2], line_no, strict)
            _costs(rest[2:], line_no, strict)


def _split(values: list, sizes: list[int]) -> list[tuple]:
    """values cut into consecutive tuples of the given sizes."""
    if sizes and sizes.count(sizes[0]) == len(sizes):
        return list(zip(*[iter(values)] * sizes[0]))
    values = iter(values)
    return [tuple(islice(values, k)) for k in sizes]


def parse_instance(text: str) -> tuple[EnergyInstance, Drawing | None]:
    strict = _strict(text)
    n = None
    ids: list[int] | None = None
    label_counts: list[int] | None = None
    constant = 0
    coords: dict[int, Point] = {}
    # Unary and edge records are set aside in the loop and converted after
    # it, a whole table at a time; on a bad file _check_records names the
    # first bad one, in line order with the other records' errors.
    unary_records: list[tuple[int, list[str]]] = []
    edge_records: list[tuple[int, list[str]]] = []

    last, records = _records(text, "#")
    if not records:
        raise ParseError(1, "missing header 'MINE 1'")
    if records[0][1] != ["MINE", "1"]:
        raise ParseError(records[0][0], "expected header 'MINE 1'")
    try:
        for record in islice(records, 1, None):
            kw = record[1][0]
            if kw == "edge":
                edge_records.append(record)
                continue
            if kw == "unary":
                unary_records.append(record)
                continue
            line_no, tokens = record
            if kw == "nodes":
                if len(tokens) != 2:
                    raise ParseError(line_no, "nodes takes one count")
                n = _ints(tokens[1:], line_no, strict)[0]
            elif kw == "ids":
                ids = _ints(tokens[1:], line_no, strict)
            elif kw == "labels":
                label_counts = _ints(tokens[1:], line_no, strict)
                if label_counts and not (I64_MIN <= min(label_counts)
                                         and max(label_counts) <= I64_MAX):
                    raise ParseError(line_no, "label count outside signed 64-bit range")
                if sum(filter((0).__lt__, label_counts)) > DEFAULT_BRUTE_LIMIT:
                    raise ParseError(line_no,
                                     f"label counts add up to more than {DEFAULT_BRUTE_LIMIT}")
            elif kw == "constant":
                if len(tokens) != 2:
                    raise ParseError(line_no, "constant takes one integer")
                _ints(tokens[1:], line_no, strict)  # an integer, never INF
                constant = _costs(tokens[1:], line_no, strict)[0]
            elif kw == "coord":
                if len(tokens) != 4:
                    raise ParseError(line_no, "coord needs a node id and two rationals")
                u = _ints(tokens[1:2], line_no, strict)[0]
                if u in coords:
                    raise ParseError(line_no, f"duplicate coord record for node {u}")
                coords[u] = (_frac_token(tokens[2], line_no), _frac_token(tokens[3], line_no))
            else:
                raise ParseError(line_no, f"unknown record {kw!r}")
    except ParseError:
        _check_records(sorted(unary_records + edge_records), strict)  # an earlier one wins
        raise
    unary_table = _table(unary_records, 1, strict)
    edge_table = _table(edge_records, 2, strict)
    if unary_table is None or edge_table is None:
        _check_records(sorted(unary_records + edge_records), strict)

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
    (nodes,), costs, sizes = unary_table
    if not (labels.keys() >= set(nodes) and sizes == list(map(labels.__getitem__, nodes))):
        for u, size in zip(nodes, sizes):
            if u not in labels:
                raise ParseError(last, f"unary record for unknown node {u}")
            if size != labels[u]:
                raise ParseError(last, f"node {u}: unary has {size} entries, expected {labels[u]}")
    unary = dict(zip(nodes, _split(costs, sizes)))
    for u in coords:
        if u not in labels:
            raise ParseError(last, f"coord record for unknown node {u}")

    (us, vs), costs, sizes = edge_table
    ends = list(zip(us, vs))
    pairs = set(ends)
    if not (labels.keys() >= set(us) and labels.keys() >= set(vs) and len(pairs) == len(ends)
            and pairs.isdisjoint(zip(vs, us))
            and sizes == list(map(mul, map(labels.__getitem__, us), map(labels.__getitem__, vs)))):
        pairs = set()  # the loop names the first defect; a self-loop has none here
        for (u, v), size in zip(ends, sizes):
            if u not in labels or v not in labels:
                raise ParseError(last, f"edge ({u}, {v}) references unknown node")
            ku, kv = labels[u], labels[v]
            if size != ku * kv:
                raise ParseError(last, f"edge ({u}, {v}): expected {ku * kv} entries, got {size}")
            if (u, v) in pairs or (v, u) in pairs:
                raise ParseError(last, f"duplicate edge ({u}, {v})")
            pairs.add((u, v))
    heights, widths = list(map(labels.__getitem__, us)), list(map(labels.__getitem__, vs))
    if min(label_counts, default=1) > 0:
        rows = _split(costs, list(chain.from_iterable(map(repeat, widths, heights))))
        tables = _split(rows, heights)
    else:  # construction rejects a count below 1; cut each record as one at a time would
        tables = [tuple(flat[i:i + kv] for i in range(0, len(flat), kv))
                  for flat, kv in zip(_split(costs, sizes), widths)]
    pairwise = dict(zip(ends, tables))

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
    strict = _strict(text)
    n = m = None
    weights = None
    clauses = []
    last, records = _records(text, "c")
    for line_no, tokens in records:
        if tokens[0] == "p":
            if len(tokens) != 4 or tokens[1] != "wcnf3":
                raise ParseError(line_no, "expected 'p wcnf3 <vars> <clauses>'")
            n, m = _ints(tokens[2:], line_no, strict)
        elif tokens[0] == "w":
            if n is None:
                raise ParseError(line_no, "weight line before problem line")
            weights = _ints(tokens[1:], line_no, strict)
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
            lits = _ints(tokens, line_no, strict)
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
    strict = _strict(text)
    labeling: Labeling = {}
    energy = None
    for line_no, tokens in _records(text, "#")[1]:
        if tokens[0] == "energy":
            if len(tokens) != 2:
                raise ParseError(line_no, "energy takes one value")
            energy = _costs(tokens[1:], line_no, strict)[0]
        else:
            if len(tokens) != 2:
                raise ParseError(line_no, "expected '<node> <label>'")
            u, a = _ints(tokens, line_no, strict)
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
        data = json.loads(text)
        if not isinstance(data, dict):
            raise TypeError(f"expected an object, got {type(data).__name__}")
        return trace_from_json(data)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(1, f"bad trace JSON: {exc}") from None
