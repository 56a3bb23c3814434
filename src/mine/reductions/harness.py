"""Brute-force verification of approximation-preserving reduction pairs.

Given a forward map pi, a reverse map sigma, and a constant alpha, this
enumerates every solution of every reduced instance and checks the AP
conditions directly: well-formed output, preserved feasibility, sigma
always lands on a feasible source solution, and the ratio transfer
R1(sigma(y)) <= 1 + alpha (R2(y) - 1).  Ratios need positive optima;
instances where either side's optimum is non-positive are flagged
"ratio-undefined" and skipped for the ratio check only.

Energy instances are enumerated with `scored_labelings`, which updates
each labeling's energy from the nodes that changed.  Energy instances and
weighted 3-SAT sources are enumerated only up to the brute-force bound
(`solvers.check_enumerable`, MINE_BRUTE_LIMIT): a larger one raises
SolverError before anything is enumerated.  Sigma runs once per target
labeling, but the source scores each distinct sigma output of an
instance once, so the source's feasibility and measure functions must be
pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Callable

from ..costs import is_finite
from ..instance import EnergyInstance, Labeling, evaluate, scored_labelings
from ..solvers import check_enumerable
from .wsat import W3SatTriv


@dataclass(frozen=True)
class SourceAdapter:
    """How to enumerate and score solutions of the source problem."""

    feasible_solutions: Callable
    is_feasible: Callable
    measure: Callable


def _energy_feasible(instance: EnergyInstance):
    check_enumerable(instance.labels.values())
    return (x for x, value in scored_labelings(instance) if is_finite(value))


ENERGY_SOURCE = SourceAdapter(
    feasible_solutions=_energy_feasible,
    is_feasible=lambda inst, x: is_finite(evaluate(inst, x)),
    measure=evaluate,
)


def _sat_feasible(sat: W3SatTriv):
    check_enumerable(repeat(2, sat.num_vars))
    return sat.feasible_solutions()


SAT_SOURCE = SourceAdapter(
    feasible_solutions=_sat_feasible,
    is_feasible=W3SatTriv.is_feasible,
    measure=W3SatTriv.measure,
)


def default_oracle(target: EnergyInstance):
    """All (labeling, value) pairs of the target instance, by enumeration."""
    check_enumerable(target.labels.values())
    return list(scored_labelings(target))


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
    # labelings: target labelings enumerated; sigma_calls; source_scored:
    # distinct sigma outputs the source scored
    stats: dict = field(default_factory=lambda: dict.fromkeys(
        ("labelings", "sigma_calls", "source_scored"), 0), compare=False)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def verify_ap_reduction(pi, sigma, alpha, instances, oracle=None,
                        source: SourceAdapter = ENERGY_SOURCE) -> APReport:
    """Exhaustively check the AP conditions of (pi, sigma, alpha) on instances.

    pi(s) must return (target EnergyInstance, trace); sigma(s, trace, y) a
    source solution.  The oracle maps a target instance to all its
    (labeling, value) pairs.  ``report.stats`` counts the target labelings
    enumerated, the sigma calls and the distinct sigma outputs scored.
    """
    oracle = oracle or default_oracle
    report = APReport(alpha=Fraction(alpha))
    stats = report.stats
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

        stats["labelings"] += len(solutions)
        scored = {}  # frozenset of a sigma output's items: [is_feasible, measure or None]
        for y, val in solutions:
            x = sigma(src, trace, y)
            stats["sigma_calls"] += 1
            key = frozenset(x.items())
            score = scored.get(key)
            if score is None:
                score = scored[key] = [source.is_feasible(src, x), None]
                stats["source_scored"] += 1
            if not score[0]:
                report.counterexamples.append(Counterexample(idx, "sigma-feasible", dict(y),
                                                             f"sigma output {x} infeasible"))
                continue
            if ratios_ok and is_finite(val):
                if score[1] is None:
                    score[1] = source.measure(src, x)
                r2 = Fraction(val, opt2)
                r1 = Fraction(score[1], opt1)
                if r1 > 1 + report.alpha * (r2 - 1):
                    report.counterexamples.append(Counterexample(
                        idx, "ratio-transfer", dict(y),
                        f"R1={r1} > 1 + {report.alpha}*(R2-1) with R2={r2}"))
    return report
