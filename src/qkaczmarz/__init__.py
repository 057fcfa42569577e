"""Quantile-filtered randomized sparse Kaczmarz solvers.

Solves corrupted, noisy linear systems Ax = b for sparse solutions by
combining soft-shrinkage Bregman projections with a residual-quantile filter
that screens out suspected corruptions, in single-row and averaged-block
variants.  The theory module evaluates the spectral constants and
convergence-rate bounds that govern the methods.
"""

from . import bregman, instances, matrices, quantiles, solvers, theory

__all__ = ["bregman", "instances", "matrices", "quantiles", "solvers", "theory"]

__version__ = "0.1.0"
