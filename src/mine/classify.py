"""Structure/interaction detection and a complexity verdict per instance.

The verdict names the tightest class known for the instance's detected
family, with worst-case guarantee wording; it never claims per-instance
hardness.  Families we do not detect are listed explicitly in the report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import Drawing, list_crossings
from .instance import EnergyInstance
from .solvers import (is_binary, is_forest, is_metric, is_potts, is_submodular_lattice,
                      is_uniform)

UNDETECTED_FAMILIES = ("outerplanar", "bounded treewidth > 1", "permuted submodular")


@dataclass(frozen=True)
class ComplexityReport:
    forest: bool
    planar_by_drawing: bool | None  # None: no drawing supplied
    binary: bool
    uniform_k: bool
    submodular_binary: bool | None  # None: check not applicable
    submodular_lattice: bool | None
    potts: bool | None
    metric: bool | None
    verdict: str  # PO | APX | log-APX | exp-APX-complete-class | unknown
    solver: str
    guarantee: str
    undetected: tuple[str, ...] = UNDETECTED_FAMILIES

    def render(self) -> str:
        flags = [f"forest={self.forest}", f"planar-by-drawing={self.planar_by_drawing}",
                 f"binary={self.binary}", f"uniform-k={self.uniform_k}",
                 f"submodular-binary={self.submodular_binary}",
                 f"submodular-lattice={self.submodular_lattice}",
                 f"potts={self.potts}", f"metric={self.metric}"]
        lines = ["verdict: " + self.verdict,
                 "solver: " + self.solver,
                 "guarantee: " + self.guarantee,
                 "flags: " + " ".join(flags),
                 "undetected families: " + ", ".join(self.undetected)]
        return "\n".join(lines)


def classify(instance: EnergyInstance, d: Drawing | None = None) -> ComplexityReport:
    forest = is_forest(instance)
    binary = is_binary(instance)
    uniform_k = is_uniform(instance)
    finite = instance.all_finite

    planar = None
    if d is not None and d.covers(instance):
        planar = not list_crossings(instance, d)

    sub_lat = is_submodular_lattice(instance) if finite else None
    sub_bin = sub_lat if binary else None  # at k = 2 the same inequality
    potts = is_potts(instance) if (finite and uniform_k) else None
    metric = is_metric(instance) if (finite and uniform_k) else None

    if forest:
        verdict, solver = "PO", "tree"
        guarantee = "exact optimum by leaf-to-root dynamic programming on the forest"
    elif sub_bin:
        verdict, solver = "PO", "mincut"
        guarantee = "exact optimum: binary submodular energies reduce to minimum cut"
    elif sub_lat:
        verdict, solver = "PO", "elim"
        guarantee = ("lattice-submodular: polynomially solvable; solved here by "
                     "variable elimination at desk scale")
    elif potts:
        verdict, solver = "APX", "alphaexp"
        guarantee = "alpha-expansion is 2-approximate on Potts interactions (worst case)"
    elif metric:
        verdict, solver = "log-APX", "alphaexp"
        guarantee = ("metric labeling: O(log k)-approximable in the worst case; "
                     "alpha-expansion gives a constant ratio depending on the metric")
    elif planar and binary:
        verdict, solver = "unknown", "brute"
        guarantee = ("planar 2-label with general interactions: complexity open; "
                     "only enumeration offered here")
    else:
        verdict, solver = "exp-APX-complete-class", "brute"
        guarantee = ("general pairwise energies (2 labels and up, planar from 3 "
                     "labels) form an exp-APX-complete class; exact enumeration "
                     "only at desk scale")

    return ComplexityReport(forest=forest, planar_by_drawing=planar, binary=binary,
                            uniform_k=uniform_k, submodular_binary=sub_bin,
                            submodular_lattice=sub_lat, potts=potts, metric=metric,
                            verdict=verdict, solver=solver, guarantee=guarantee)
