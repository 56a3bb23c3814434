"""Exact toolkit for pairwise discrete energy minimization at desk scale."""

from .costs import INF, Cost, CostOverflowError, check_range, ext_add, is_finite
from .instance import (EnergyInstance, InstanceError, Labeling, all_labelings,
                       big_m, check_labeling, evaluate, make_instance,
                       normalize_edge, scored_labelings)
from .geometry import (Crossing, Drawing, GeneralPositionError, GeometryError,
                       circle_layout, free_radius, list_crossings, make_point,
                       validate_general_position)
from .poly import MultilinearPoly, PolyError, poly, poly_add, poly_evaluate, poly_scale
from .solvers import (FlowNetwork, SolveResult, SolverError, alpha_expansion,
                      is_binary, is_metric, is_potts, is_submodular_binary,
                      is_submodular_lattice, max_flow, min_degree_order,
                      solve_brute_force, solve_elimination, solve_submodular_qpbo,
                      solve_tree_dp)
from .classify import ComplexityReport, classify

__version__ = "0.1.0"
