"""Order-statistic quantiles and the acceptable-row filter.

The quantile convention follows the order-statistic definition used by
quantile-filtered Kaczmarz methods: with n values sorted ascending, the
q-quantile is y_([nq]+1) when nq is not an integer and the midpoint of
y_(nq) and y_(nq+1) when it is.  q = 1 returns the maximum (the midpoint
rule would need y_(n+1)), and a q so small that nq rounds to 0 the minimum
(it would need y_(0)).
"""

import numpy as np

from .errors import DimensionMismatch, EmptyAcceptableSet, EmptyInput

# nq within this distance of an integer is treated as integral.
_INT_TOL = 1e-9


def q_quantile(values, q):
    """Order-statistic q-quantile of a non-empty sequence, 0 < q <= 1.

    One np.partition puts the order statistic s[k] in place, with every
    smaller value left of it, so s[k-1] is the largest of those: the same
    value the full sort gives, bit for bit, without sorting.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise EmptyInput("quantile of an empty sequence")
    if not 0.0 < q <= 1.0:
        raise EmptyInput(f"q must lie in (0, 1], got {q}")
    n = values.size
    nq = n * q
    k = round(nq)
    if abs(nq - k) <= _INT_TOL * n:
        if k >= n:
            return float(values.max())
        if k == 0:
            return float(values.min())
        part = np.partition(values, k)
        return float(0.5 * (part[:k].max() + part[k]))
    k = int(nq)  # floor, nq > 0
    return float(np.partition(values, k)[k])


def acceptable_set(abs_residuals, Q, strict=False):
    """Row indices whose residual passes the quantile threshold.

    strict=False keeps residuals <= Q (single-row sampling); strict=True
    keeps residuals < Q (averaged block).  Indices come back ascending.
    """
    abs_residuals = np.asarray(abs_residuals, dtype=float)
    if Q < 0:
        raise DimensionMismatch("threshold Q must be nonnegative")
    if strict:
        idx = (abs_residuals < Q).nonzero()[0]
    else:
        idx = (abs_residuals <= Q).nonzero()[0]
    if idx.size == 0:
        raise EmptyAcceptableSet("no residual passes the quantile threshold")
    return idx
