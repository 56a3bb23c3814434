"""Weighted 3-SAT with a trivial fallback solution, reduced to binary energies.

The forward map turns each clause into a cubic penalty, M times the
product of its literals' falsity factors (M when the clause fails, 0 when
it holds), quadratizes every cubic monomial with one fresh auxiliary
variable, and adds the variable weights as unary terms.  The reverse map
restricts low-energy labelings and falls back to all-true otherwise; it
is bound once per formula and trace, rebuilds the target from the formula
then, and rejects a trace of another one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from ..costs import I64_MAX, I64_MIN, check_range
from ..instance import LABEL_TYPES, EnergyInstance, Labeling, check_labeling, evaluate
from ..poly import (MultilinearPoly, _from_owned, poly, poly_add, poly_scale,
                    quadratic_poly_to_instance)
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
    """Multilinear polynomial equal to the clause's 0/1 truth value: 1 minus
    its falsity product."""
    return poly_add(poly({(): 1}), _falsity(clause, -1))


def _falsity(clause: Clause, scale: int) -> MultilinearPoly:
    """scale times the product of the clause's falsity factors, (1 - x_i) for
    a positive literal and x_j for a negative one: with P and N its positive
    and negative variables, the sum over the subsets S of P of
    scale * (-1)^|S| * x_(S and N).  No two of these terms share a
    monomial, because a clause's variables are distinct."""
    validate_clause(clause)
    pos = [lit for lit in clause if lit > 0]
    neg = frozenset(-lit for lit in clause if lit < 0)
    return _from_owned({neg.union(s): -scale if r % 2 else scale
                        for r in range(len(pos) + 1) for s in combinations(pos, r)})


def clause_penalty(clause: Clause, big_m: int) -> MultilinearPoly:
    """Penalty M * (the clause's falsity product): M when the clause fails, 0 when it holds."""
    if big_m < 1:
        raise SatError("penalty scale M must be at least 1")
    return _falsity(clause, big_m)


def quadratize(p: MultilinearPoly, fresh_start: int) -> tuple[MultilinearPoly, tuple[int, ...]]:
    """Replace each cubic monomial with a quadratic gadget over one fresh auxiliary.

    For coefficient a on x_i x_j x_k:
      a < 0:  a * x_w (x_i + x_j + x_k - 2)
      a > 0:  a * ((x_w - 1)(x_i + x_j + x_k - 1) + x_i x_j + x_i x_k + x_j x_k)
    Minimizing over each auxiliary recovers the cubic value exactly.
    """
    cubics = sorted((m for m in p.terms if len(m) == 3), key=sorted)
    aux = tuple(range(fresh_start, fresh_start + len(cubics)))
    gadgets = []
    for w, mono in zip(aux, cubics):
        a = p.terms[mono]
        i, j, k = sorted(mono)
        if a < 0:
            gadget = poly({(w, i): 1, (w, j): 1, (w, k): 1, (w,): -2})
        else:
            gadget = poly({(w, i): 1, (w, j): 1, (w, k): 1, (w,): -1,
                           (i,): -1, (j,): -1, (k,): -1, (): 1,
                           (i, j): 1, (i, k): 1, (j, k): 1})
        gadgets.append(poly_scale(gadget, a))
    low = _from_owned({m: c for m, c in p.terms.items() if len(m) < 3})
    return poly_add(low, *gadgets), aux


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
    # Each coefficient of the total is an entry of the target (a linear
    # one a unary label-1 cost, a quadratic one a pairwise (1, 1) cost)
    # or its constant, so each must fit in int64.
    coefficients = total.terms.values()
    if coefficients and not (I64_MIN <= min(coefficients) and max(coefficients) <= I64_MAX):
        worst = max((c for c in coefficients if not I64_MIN <= c <= I64_MAX), key=abs)
        raise SatError(f"M = {m}, the weight sum, scales the quadratized clause penalties to "
                       f"a coefficient of {worst}; every coefficient must lie in signed "
                       f"64-bit range")
    variables = list(range(1, sat.num_vars + 1)) + aux_nodes
    instance = quadratic_poly_to_instance(total, variables=variables)
    trace = ReductionTrace(kind="w3sat-to-qpbo",
                           original_nodes=tuple(range(1, sat.num_vars + 1)),
                           aux_nodes=tuple(aux_nodes),
                           big_m=m,
                           next_fresh_id=fresh)
    return instance, trace


def w3sat_sigma(sat: W3SatTriv, trace: ReductionTrace):
    """Reverse map of one reduced formula: restriction of y when its energy
    stays below M, else all-true.

    Binding rebuilds the target from sat once and requires trace to equal
    the trace w3sat_to_qpbo(sat) returns, else SatError.  The map it
    returns, reverse(y, value=None), checks that y labels that target (the
    InstanceError check_labeling raises otherwise) and thresholds value,
    the energy of y on the target, against trace.big_m.  The value is
    trusted, not re-scored: the AP harness passes the one its oracle gave
    y.  Without a value, y is scored by evaluate.
    """
    if trace.kind != "w3sat-to-qpbo":
        raise SatError("trace kind mismatch")
    target, own = w3sat_to_qpbo(sat)
    if trace != own:
        raise SatError("trace was not made from this formula")
    keys = target.labels.keys()
    originals, threshold, all_true = trace.original_nodes, trace.big_m, sat.all_true()

    def reverse(y: Labeling, value=None) -> dict[int, bool]:
        values = y.values()
        # Every target node has 2 labels, so these are check_labeling's
        # conditions, each one C-level pass; check_labeling names the defect.
        if not (y.keys() == keys and LABEL_TYPES.issuperset(map(type, values))
                and {0, 1}.issuperset(values)):
            check_labeling(target, y)
        if value is None:
            value = evaluate(target, y)
        if value >= threshold:
            return dict(all_true)
        return {i: bool(y[i]) for i in originals}

    return reverse
