"""Multilinear pseudo-Boolean polynomials of degree at most 3.

Terms map a frozenset of Boolean variable ids (size 0..3) to a nonzero
integer coefficient.  Every sum of terms (poly, poly_add) goes through one
accumulator that drops the monomials whose coefficients sum to 0.
Degree-2 polynomials convert losslessly to binary energy instances;
degree-3 monomials exist solely to feed quadratization: the W3SAT
reduction's clause penalty, M times the product of the clause's three
falsity factors, always has one.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain
from types import MappingProxyType

from .instance import EnergyInstance, InstanceError, make_instance

Monomial = frozenset

MAX_DEGREE = 3


class PolyError(ValueError):
    pass


@dataclass(frozen=True)
class MultilinearPoly:
    terms: Mapping[Monomial, int] = field(default_factory=dict)

    def __post_init__(self):
        # A read-only view of a private copy: terms cannot change after the checks.
        object.__setattr__(self, "terms", _checked_view(dict(self.terms)))

    @property
    def degree(self) -> int:
        return max((len(m) for m in self.terms), default=0)

    def variables(self) -> set[int]:
        out: set[int] = set()
        for m in self.terms:
            out |= m
        return out

    def coefficient(self, variables) -> int:
        return self.terms.get(frozenset(variables), 0)

    def __repr__(self):
        parts = []
        for mono in sorted(self.terms, key=lambda m: (len(m), sorted(m))):
            coef = self.terms[mono]
            name = "*".join(f"x{v}" for v in sorted(mono)) or "1"
            parts.append(f"{coef:+d}*{name}")
        return "Poly(" + " ".join(parts) + ")" if parts else "Poly(0)"


def _checked_view(terms: dict) -> MappingProxyType:
    """A read-only view of terms, after the degree and zero checks."""
    for mono, coef in terms.items():
        if len(mono) > MAX_DEGREE:
            raise PolyError(f"monomial {set(mono)} exceeds degree {MAX_DEGREE}")
        if coef == 0:
            raise PolyError("zero coefficients must be dropped")
    return MappingProxyType(terms)


def _from_owned(terms: dict) -> MultilinearPoly:
    """MultilinearPoly(terms) without the copy, for a dict no one else holds."""
    p = object.__new__(MultilinearPoly)
    object.__setattr__(p, "terms", _checked_view(terms))
    return p


def _sum_terms(pairs) -> MultilinearPoly:
    """Sum (monomial, coefficient) pairs, dropping every monomial whose sum is 0."""
    acc: dict[Monomial, int] = {}
    for mono, coef in pairs:
        acc[mono] = acc.get(mono, 0) + coef
        if acc[mono] == 0:
            del acc[mono]
    return _from_owned(acc)


def poly(terms: dict) -> MultilinearPoly:
    """Build a polynomial from {variable tuple or id set: coefficient}, dropping zeros."""
    pairs = []
    for key, coef in terms.items():
        mono = frozenset(key)
        if len(mono) != len(tuple(key)):
            raise PolyError(f"repeated variable in monomial {key}")
        pairs.append((mono, coef))
    return _sum_terms(pairs)


def poly_add(*polys: MultilinearPoly) -> MultilinearPoly:
    return _sum_terms(chain.from_iterable(p.terms.items() for p in polys))


def poly_scale(p: MultilinearPoly, factor: int) -> MultilinearPoly:
    if factor == 0:
        return _from_owned({})
    return _from_owned({m: c * factor for m, c in p.terms.items()})


def poly_evaluate(p: MultilinearPoly, assignment: dict[int, int]) -> int:
    """Value of p at a 0/1 assignment covering all of p's variables."""
    total = 0
    for mono, coef in p.terms.items():
        value = coef
        for v in mono:
            if v not in assignment:
                raise PolyError(f"assignment missing variable {v}")
            value *= assignment[v]
        total += value
    return total


def quadratic_poly_to_instance(p: MultilinearPoly,
                               variables=None) -> EnergyInstance:
    """Represent a degree-<=2 polynomial as a binary energy instance.

    One 2-label node per variable; linear coefficients land on label 1,
    quadratic coefficients on the (1, 1) corner, the constant term in the
    instance offset.  evaluate agrees with poly_evaluate pointwise.
    """
    if p.degree > 2:
        raise PolyError("degree-3 monomial present; quadratize first")
    nodes = sorted(set(variables) if variables is not None else p.variables())
    if not set(p.variables()) <= set(nodes):
        raise PolyError("explicit variable list does not cover the polynomial")
    unary = {}
    labels = {}
    for u in nodes:
        labels[u] = 2
        unary[u] = (0, p.coefficient((u,)))
    pairwise = {}
    for mono, coef in p.terms.items():
        if len(mono) == 2:
            u, v = sorted(mono)
            pairwise[(u, v)] = ((0, 0), (0, coef))
    return make_instance(labels, unary, pairwise, constant=p.coefficient(()))
