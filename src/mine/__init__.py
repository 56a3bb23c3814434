"""Exact toolkit for pairwise discrete energy minimization at desk scale."""

__version__ = "0.1.0"
