"""Weighted 3-SAT with a trivial fallback solution, reduced to binary energies.

The forward map turns each clause into a cubic penalty worth M when the
clause fails, quadratizes every cubic monomial with one fresh auxiliary
variable, and adds the variable weights as unary terms.  The reverse map
restricts low-energy labelings and falls back to all-true otherwise; it
rebuilds the target from the formula and rejects a trace of another one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from ..costs import check_range
from ..instance import EnergyInstance, Labeling, evaluate
from ..poly import MultilinearPoly, poly, poly_add, poly_scale, quadratic_poly_to_instance
from .trace import ReductionTrace


class SatError(ValueError):
    pass


Clause = tuple[int, int, int]  # signed DIMACS-style literals, variables 1..n


@dataclass(frozen=True)
class W3SatTriv:
    num_vars: int
    clauses: tuple[Clause, ...]
    weights: tuple[int, ...]

    def __post_init__(self):
        if len(self.weights) != self.num_vars:
            raise SatError("one weight per variable required")
        if any(w < 0 for w in self.weights):
            raise SatError("weights must be non-negative")
        for clause in self.clauses:
            validate_clause(clause, self.num_vars)

    def measure(self, assignment: dict[int, bool]) -> int:
        return sum(w for i, w in enumerate(self.weights, start=1) if assignment[i])

    def satisfies(self, assignment: dict[int, bool]) -> bool:
        return all(clause_value(c, assignment) for c in self.clauses)

    def is_feasible(self, assignment: dict[int, bool]) -> bool:
        """Feasible solutions: satisfying assignments plus the trivial all-true one."""
        return self.satisfies(assignment) or all(assignment[i] for i in range(1, self.num_vars + 1))

    def all_true(self) -> dict[int, bool]:
        return {i: True for i in range(1, self.num_vars + 1)}

    def feasible_solutions(self):
        for bits in product((False, True), repeat=self.num_vars):
            assignment = dict(enumerate(bits, start=1))
            if self.is_feasible(assignment):
                yield assignment


def validate_clause(clause, num_vars: int | None = None) -> Clause:
    if len(clause) != 3:
        raise SatError(f"clause {clause} must have exactly 3 literals")
    if any(lit == 0 for lit in clause):
        raise SatError("literal 0 is not allowed")
    if len({abs(lit) for lit in clause}) != 3:
        raise SatError(f"clause {clause} repeats a variable")
    if num_vars is not None and any(abs(lit) > num_vars for lit in clause):
        raise SatError(f"clause {clause} references a variable beyond {num_vars}")
    return tuple(clause)


def clause_value(clause: Clause, assignment: dict[int, bool]) -> bool:
    return any(assignment[abs(lit)] == (lit > 0) for lit in clause)


def clause_to_poly(clause: Clause) -> MultilinearPoly:
    """Multilinear polynomial equal to the clause's 0/1 truth value.

    1 minus the product of the literals' falsity factors: (1 - x_i) for a
    positive literal, x_i for a negative one.
    """
    validate_clause(clause)
    # Product of falsity factors, expanded term by term.
    acc = poly({(): 1})
    for lit in clause:
        v = abs(lit)
        factor = poly({(): 1, (v,): -1}) if lit > 0 else poly({(v,): 1})
        acc = _poly_mul(acc, factor)
    return poly_add(poly({(): 1}), poly_scale(acc, -1))


def _poly_mul(a: MultilinearPoly, b: MultilinearPoly) -> MultilinearPoly:
    acc: dict = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            mono = ma | mb  # multilinear: x^2 = x
            acc[mono] = acc.get(mono, 0) + ca * cb
            if acc[mono] == 0:
                del acc[mono]
    return MultilinearPoly(acc)


def clause_penalty(clause: Clause, big_m: int) -> MultilinearPoly:
    """Penalty M * (1 - clause value): M when the clause fails, 0 when it holds."""
    if big_m < 1:
        raise SatError("penalty scale M must be at least 1")
    return poly_scale(poly_add(poly({(): 1}), poly_scale(clause_to_poly(clause), -1)), big_m)


def quadratize(p: MultilinearPoly, fresh_start: int) -> tuple[MultilinearPoly, tuple[int, ...]]:
    """Replace each cubic monomial with a quadratic gadget over one fresh auxiliary.

    For coefficient a on x_i x_j x_k:
      a < 0:  a * x_w (x_i + x_j + x_k - 2)
      a > 0:  a * ((x_w - 1)(x_i + x_j + x_k - 1) + x_i x_j + x_i x_k + x_j x_k)
    Minimizing over each auxiliary recovers the cubic value exactly.
    """
    if p.degree > 3:
        raise SatError("quadratize requires degree <= 3")
    out = {m: c for m, c in p.terms.items() if len(m) < 3}
    aux: list[int] = []
    fresh = fresh_start
    for mono in sorted((m for m in p.terms if len(m) == 3), key=sorted):
        a = p.terms[mono]
        i, j, k = sorted(mono)
        w = fresh
        fresh += 1
        aux.append(w)
        if a < 0:
            gadget = poly({(w, i): 1, (w, j): 1, (w, k): 1, (w,): -2})
        else:
            gadget = poly({(w, i): 1, (w, j): 1, (w, k): 1, (w,): -1,
                           (i,): -1, (j,): -1, (k,): -1, (): 1,
                           (i, j): 1, (i, k): 1, (j, k): 1})
        for m, c in poly_scale(gadget, a).terms.items():
            out[m] = out.get(m, 0) + c
            if out[m] == 0:
                del out[m]
    return MultilinearPoly(out), tuple(aux)


def w3sat_to_qpbo(sat: W3SatTriv) -> tuple[EnergyInstance, ReductionTrace]:
    """Forward map: weights as unary terms plus one quadratized clause penalty each.

    M = sum of weights (the trivial all-true solution's measure bounds the
    optimum).  One auxiliary Boolean node per clause.
    """
    m = check_range(sum(sat.weights))
    penalty_scale = max(m, 1)  # M = 0 formulas still need nonzero clause penalties
    parts = [poly({(i,): w for i, w in enumerate(sat.weights, start=1) if w})]
    aux_nodes: list[int] = []
    fresh = sat.num_vars + 1
    for clause in sat.clauses:
        quad, aux = quadratize(clause_penalty(clause, penalty_scale), fresh)
        parts.append(quad)
        aux_nodes.extend(aux)
        fresh += len(aux)
    total = poly_add(*parts)
    variables = list(range(1, sat.num_vars + 1)) + aux_nodes
    instance = quadratic_poly_to_instance(total, variables=variables)
    trace = ReductionTrace(kind="w3sat-to-qpbo",
                           original_nodes=tuple(range(1, sat.num_vars + 1)),
                           aux_nodes=tuple(aux_nodes),
                           big_m=m,
                           next_fresh_id=fresh)
    return instance, trace


# The last formula, its target and trace, and the caller's trace last found
# equal to that trace: the AP harness maps every labeling of one formula's
# target in a row, with one trace.  All four are frozen and kept alive here,
# so the same objects still match.
_memo: tuple = (None, None, None, None)


def w3sat_sigma(sat: W3SatTriv, trace: ReductionTrace, y: Labeling) -> dict[int, bool]:
    """Reverse map: restriction of y when its energy stays below M, else all-true.

    The target instance is rebuilt from sat, once per formula (a formula
    equal to the last one is compared once and shares its build); trace
    must equal the trace w3sat_to_qpbo(sat) returns, else SatError,
    compared once per trace object in a run of calls.  y is scored on that
    target by evaluate: one sum when the target's |constant| + finite_sum
    fits in int64, else the ordered, overflow-checked loop.
    """
    global _memo
    if trace.kind != "w3sat-to-qpbo":
        raise SatError("trace kind mismatch")
    last, instance, own, accepted = _memo
    if sat is not last:
        if sat != last:
            (instance, own), accepted = w3sat_to_qpbo(sat), None
        _memo = sat, instance, own, accepted
    if trace is not accepted:
        if trace != own:
            raise SatError("trace was not made from this formula")
        _memo = sat, instance, own, trace
    energy = evaluate(instance, y)
    if energy >= trace.big_m:
        return sat.all_true()
    return {i: bool(y[i]) for i in trace.original_nodes}
