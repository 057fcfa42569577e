"""Quantile-filtered randomized sparse Kaczmarz solvers.

Solves corrupted, noisy linear systems Ax = b for sparse solutions by
combining soft-shrinkage Bregman projections with a residual-quantile filter
that screens out suspected corruptions, in single-row and averaged-block
variants.  The theory module evaluates the spectral constants and
convergence-rate bounds that govern the methods.
"""

from . import bregman, instances, matrices, quantiles, solvers, theory
from .bregman import (
    bregman_distance,
    bregman_project_hyperplane,
    conjugate_value,
    exact_step,
    f_value,
    soft_shrink,
)
from .instances import GeneratorSpec, ProblemInstance, from_files, generate_gaussian
from .matrices import (
    mm_read,
    mm_write,
    normalize_rows,
    residuals,
)
from .quantiles import acceptable_set, q_quantile
from .solvers import ConvergenceTrace, IterateState, SolverConfig, median_of_trials, run
from .theory import SpectralReport, TheoremConstants, spectral_constants

__all__ = [
    "bregman",
    "instances",
    "matrices",
    "quantiles",
    "solvers",
    "theory",
    "bregman_distance",
    "bregman_project_hyperplane",
    "conjugate_value",
    "exact_step",
    "f_value",
    "soft_shrink",
    "GeneratorSpec",
    "ProblemInstance",
    "from_files",
    "generate_gaussian",
    "mm_read",
    "mm_write",
    "normalize_rows",
    "residuals",
    "acceptable_set",
    "q_quantile",
    "ConvergenceTrace",
    "IterateState",
    "SolverConfig",
    "median_of_trials",
    "run",
    "SpectralReport",
    "TheoremConstants",
    "spectral_constants",
]

__version__ = "0.1.0"
