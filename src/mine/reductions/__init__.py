from ..instance import all_labelings
from .trace import CrossingRecord, ReductionTrace, trace_from_json
from .wsat import (Clause, SatError, W3SatTriv, clause_penalty, clause_to_poly,
                   clause_value, quadratize, validate_clause, w3sat_sigma,
                   w3sat_to_qpbo)
from .klabel import klabel_sigma, qpbo_to_klabel
from .gadgets import (GadgetFragment, merge_fragments, relation_table,
                      split_gadget, uncross_copy_gadget)
from .planar import AUX_PER_CROSSING, PlanarizeError, planar_sigma, planarize
from .harness import (APReport, Counterexample, ENERGY_SOURCE, SAT_SOURCE,
                      SourceAdapter, default_oracle, verify_ap_reduction)

__all__ = [
    "APReport", "AUX_PER_CROSSING", "Clause", "Counterexample", "CrossingRecord",
    "ENERGY_SOURCE", "GadgetFragment", "PlanarizeError", "ReductionTrace",
    "SAT_SOURCE", "SatError", "SourceAdapter", "W3SatTriv", "all_labelings",
    "clause_penalty", "clause_to_poly", "clause_value", "default_oracle",
    "klabel_sigma", "merge_fragments", "planar_sigma", "planarize",
    "qpbo_to_klabel", "quadratize", "relation_table", "split_gadget",
    "trace_from_json", "uncross_copy_gadget", "validate_clause",
    "verify_ap_reduction", "w3sat_sigma", "w3sat_to_qpbo",
]
