"""Brute-force verification of approximation-preserving reduction pairs.

Given a forward map pi, a reverse map sigma, and a constant alpha, this
enumerates every solution of every reduced instance and checks the AP
conditions directly: well-formed output, preserved feasibility, sigma
always lands on a feasible source solution, and the ratio transfer
R1(sigma(y)) <= 1 + alpha (R2(y) - 1).  Ratios need positive optima;
instances where either side's optimum is non-positive are flagged
"ratio-undefined" and skipped for the ratio check only.

Only fit for instances small enough to enumerate exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from ..costs import is_finite
from ..instance import EnergyInstance, Labeling, all_labelings, evaluate


@dataclass(frozen=True)
class SourceAdapter:
    """How to enumerate and score solutions of the source problem."""

    feasible_solutions: Callable
    is_feasible: Callable
    measure: Callable


def _energy_feasible(instance: EnergyInstance):
    return (x for x in all_labelings(instance) if is_finite(evaluate(instance, x)))


ENERGY_SOURCE = SourceAdapter(
    feasible_solutions=_energy_feasible,
    is_feasible=lambda inst, x: is_finite(evaluate(inst, x)),
    measure=evaluate,
)

SAT_SOURCE = SourceAdapter(
    feasible_solutions=lambda sat: sat.feasible_solutions(),
    is_feasible=lambda sat, x: sat.is_feasible(x),
    measure=lambda sat, x: sat.measure(x),
)


def default_oracle(target: EnergyInstance):
    """All (labeling, value) pairs of the target instance, by enumeration."""
    return [(y, evaluate(target, y)) for y in all_labelings(target)]


@dataclass(frozen=True)
class Counterexample:
    instance_index: int
    check: str
    solution: Labeling | None
    detail: str


@dataclass
class APReport:
    alpha: Fraction
    checked: int = 0
    ratio_undefined: list[int] = field(default_factory=list)
    counterexamples: list[Counterexample] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def verify_ap_reduction(pi, sigma, alpha, instances, oracle=None,
                        source: SourceAdapter = ENERGY_SOURCE) -> APReport:
    """Exhaustively check the AP conditions of (pi, sigma, alpha) on instances.

    pi(s) must return (target EnergyInstance, trace); sigma(s, trace, y) a
    source solution.  The oracle maps a target instance to all its
    (labeling, value) pairs.
    """
    oracle = oracle or default_oracle
    report = APReport(alpha=Fraction(alpha))
    for idx, src in enumerate(instances):
        report.checked += 1
        try:
            target, trace = pi(src)
        except Exception as exc:  # noqa: BLE001 - the report carries the failure
            report.counterexamples.append(Counterexample(idx, "well-formed", None,
                                                         f"pi raised {exc!r}"))
            continue
        if not isinstance(target, EnergyInstance):
            report.counterexamples.append(Counterexample(idx, "well-formed", None,
                                                         "pi did not return an EnergyInstance"))
            continue
        if trace.target_nodes() != set(target.nodes):
            report.counterexamples.append(Counterexample(idx, "well-formed", None,
                                                         "trace does not partition the target nodes"))
            continue

        feasible = list(source.feasible_solutions(src))
        solutions = oracle(target)
        if feasible and not solutions:
            report.counterexamples.append(Counterexample(idx, "feasibility", None,
                                                         "feasible source but empty target"))
            continue

        opt1 = min(source.measure(src, x) for x in feasible) if feasible else None
        finite_values = [val for _, val in solutions if is_finite(val)]
        opt2 = min(finite_values) if finite_values else None
        ratios_ok = opt1 is not None and opt2 is not None and opt1 > 0 and opt2 > 0
        if not ratios_ok:
            report.ratio_undefined.append(idx)

        for y, val in solutions:
            x = sigma(src, trace, y)
            if not source.is_feasible(src, x):
                report.counterexamples.append(Counterexample(idx, "sigma-feasible", dict(y),
                                                             f"sigma output {x} infeasible"))
                continue
            if ratios_ok and is_finite(val):
                r2 = Fraction(val, opt2)
                r1 = Fraction(source.measure(src, x), opt1)
                if r1 > 1 + report.alpha * (r2 - 1):
                    report.counterexamples.append(Counterexample(
                        idx, "ratio-transfer", dict(y),
                        f"R1={r1} > 1 + {report.alpha}*(R2-1) with R2={r2}"))
    return report
