"""Problem reductions, their reverse maps, and the AP-reduction harness.

Each name is imported from the module that defines it: wsat (weighted
3-SAT to binary), klabel (binary to k labels), planar with gadgets
(planarization), trace (reverse-map records) and harness (verify_ap_reduction).
"""
