"""Spectral constants and convergence-rate evaluators.

Computes the singular-value constants that drive the convergence theory of
quantile-filtered sparse Kaczmarz methods (extrema over row/column
submatrices), the per-theorem rate constants, and the runtime-checkable
residual-quantile inequality.

Convention: sigma_min of a submatrix means the smallest singular value of
its *compact* SVD (the min(#rows, #cols)-th one).  The variational
definition min ||Mx||/||x|| is identically zero for wide blocks, which would
zero out every minimum constant; the compact convention matches how the
bounds are applied to vectors supported on the selected columns.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    DegenerateSelection,
    MissingGroundTruth,
    ParameterOrderViolation,
    ZeroGroundTruth,
)

# Most SVDs the exact mode of spectral_constants may enumerate.
EXACT_BUDGET = 2_000_000


@dataclass(frozen=True)
class SpectralReport:
    mode: str                        # "exact" | "sampled"
    samples: int
    row_subset_size: int
    sigma_max: float
    sigma_min: float
    sigma_tilde_min: float
    sigma_q_beta_min_rowcol: float   # min over row subsets x column subsets
    sigma_q_beta_min_rows: float     # min over row subsets (all columns)


@dataclass(frozen=True)
class TheoremConstants:
    alpha: float
    kappa_tilde: float
    gamma: float
    C1: float
    C2: float
    condition2: bool
    C: float
    condition_corrupted: bool


def _compact_sigma_min(M):
    return float(np.linalg.svd(M, compute_uv=False)[-1])


def _row_subset_size(m, q, beta):
    t = int(round((q - beta) * m))
    if t < 1:
        raise DegenerateSelection("(q - beta) * m rounds below 1")
    return min(t, m)


def exact_enumeration_count(m, n, t):
    return math.comb(m, t) * (2**n - 1)


def spectral_constants(A, q, beta, mode="exact", samples=10000, seed=0):
    """Spectral report for A with row-subset size (q - beta) * m.

    Exact mode enumerates every (row subset, column subset) pair; the
    enumeration count C(m, t) * (2^n - 1) must fit EXACT_BUDGET.  Sampled mode
    draws uniform pairs instead; its minima are upper bounds on the true
    constants and the report is flagged accordingly.
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    t = _row_subset_size(m, q, beta)
    svals = np.linalg.svd(A, compute_uv=False)
    sigma_max = float(svals[0])
    sigma_min = float(svals[-1])

    if mode == "exact":
        if exact_enumeration_count(m, n, t) > EXACT_BUDGET:
            raise BudgetExceeded(
                f"exact enumeration needs {exact_enumeration_count(m, n, t)} "
                f"SVDs (> budget {EXACT_BUDGET}); use sampled mode"
            )
        tilde_min = np.inf
        for size in range(1, n + 1):
            for J in itertools.combinations(range(n), size):
                tilde_min = min(tilde_min, _compact_sigma_min(A[:, J]))
        rows_min = np.inf
        rowcol_min = np.inf
        for I in itertools.combinations(range(m), t):
            block = A[list(I)]
            rows_min = min(rows_min, _compact_sigma_min(block))
            for size in range(1, n + 1):
                for J in itertools.combinations(range(n), size):
                    rowcol_min = min(rowcol_min, _compact_sigma_min(block[:, J]))
        n_samples = 0
    elif mode == "sampled":
        rng = np.random.Generator(np.random.PCG64(seed))
        tilde_min = np.inf
        rows_min = np.inf
        rowcol_min = np.inf
        for _ in range(samples):
            J = _random_nonempty_subset(rng, n)
            tilde_min = min(tilde_min, _compact_sigma_min(A[:, J]))
            I = np.sort(rng.choice(m, size=t, replace=False))
            block = A[I]
            rows_min = min(rows_min, _compact_sigma_min(block))
            J2 = _random_nonempty_subset(rng, n)
            rowcol_min = min(rowcol_min, _compact_sigma_min(block[:, J2]))
        # The full column set is always a candidate; fold it in for free.
        rowcol_min = min(rowcol_min, rows_min)
        tilde_min = min(tilde_min, sigma_min)
        n_samples = samples
    else:
        raise ValueError(f"unknown mode {mode!r}")

    return SpectralReport(
        sigma_max=sigma_max,
        sigma_min=sigma_min,
        sigma_tilde_min=float(tilde_min),
        sigma_q_beta_min_rowcol=float(rowcol_min),
        sigma_q_beta_min_rows=float(rows_min),
        mode=mode,
        samples=n_samples,
        row_subset_size=t,
    )


def _random_nonempty_subset(rng, n):
    while True:
        mask = rng.integers(0, 2, size=n).astype(bool)
        if mask.any():
            return np.flatnonzero(mask)


def _check_order(q, beta):
    """The gap 1 - beta - q of every bound, after checking beta < q < 1 - beta."""
    if not beta < q < 1.0 - beta:
        raise ParameterOrderViolation(
            f"need beta < q < 1 - beta, got beta={beta}, q={q}"
        )
    return 1.0 - beta - q


def alpha_of(x_hat, lam):
    """|x_hat|_min / (|x_hat|_min + 2 lambda) over the support of x_hat."""
    x_hat = np.asarray(x_hat, dtype=float)
    nz = np.abs(x_hat[x_hat != 0])
    if nz.size == 0:
        raise ZeroGroundTruth("ground truth is identically zero")
    x_min = float(nz.min())
    return x_min / (x_min + 2.0 * lam)


def gamma_of(sigma_tilde_min, alpha):
    """Error-bound constant: Bregman distance <= gamma * ||Ax - b||^2."""
    return 1.0 / (sigma_tilde_min**2 * alpha)


def rask_rate(frob_norm, sigma_tilde_min, x_hat, lam):
    """Per-iteration contraction factor of plain sparse Kaczmarz.

    1 - (1/2) * (sigma_tilde_min / ||A||_F)^2 * alpha, reported unclipped.
    """
    alpha = alpha_of(x_hat, lam)
    kappa = frob_norm / sigma_tilde_min
    return 1.0 - 0.5 * alpha / kappa**2


def theorem32_constants(spectral, m, n, q, beta, alpha):
    """(C1, C2, condition) for the corrupted-and-noisy single-row theorem.

    C1 follows the theorem statement.  The appendix's closing block
    disagrees on the sigma_max / sqrt(mn) terms of C1: it has no
    sqrt(1-beta) factor in the middle term and sqrt(1-beta) instead of
    2 sqrt(1-beta) in the last one.
    """
    g = _check_order(q, beta)
    smax = spectral.sigma_max
    sqb = spectral.sigma_q_beta_min_rowcol
    lead = alpha * (q - beta) / (2.0 * q**2) * sqb**2 / m
    mid_extra = np.sqrt(1.0 - beta) * smax / np.sqrt(m * n)
    last_extra = 2.0 * np.sqrt(1.0 - beta) * smax / np.sqrt(m * n)
    mid = (2.0 * np.sqrt(beta * (1.0 - beta)) / (q * g)) * (smax**2 / m + mid_extra)
    last = (beta * (1.0 - beta) / (q * g**2)) * (smax**2 / m + last_extra)
    C1 = lead - mid - last

    C2 = (
        np.sqrt(beta) * (1.0 - beta) / (q * g)
        * (1.0 + np.sqrt(beta * (1.0 - beta)) / g)
        * np.sqrt(n / m) * smax
        + 0.5 * beta * (1.0 - beta) ** 2 / (q * g**2)
        + 0.5
    )

    lhs = (
        2.0 * np.sqrt(beta * (1.0 - beta)) / g
        * (smax + np.sqrt((1.0 - beta) * m / n))
        + beta * (1.0 - beta) / g**2
        * (smax + 2.0 * np.sqrt((1.0 - beta) * m / n))
    )
    rhs = alpha * (q - beta) / (2.0 * q) * sqb**2 / smax
    return float(C1), float(C2), bool(lhs < rhs)


def theorem33_constant(spectral, m, q, beta, alpha):
    """(C, condition) for the corruption-only single-row theorem."""
    g = _check_order(q, beta)
    smax = spectral.sigma_max
    sqb = spectral.sigma_q_beta_min_rowcol
    drift = 2.0 * np.sqrt(beta) / np.sqrt(g) + beta / g
    C = (
        (q - beta) / (2.0 * q**2 * m) * alpha * sqb**2
        - drift * smax**2 / (q * m)
    )
    lhs = 2.0 * q / (q - beta) * drift / alpha
    rhs = sqb**2 / smax**2
    return float(C), bool(lhs < rhs)


def raska_rate_corrupted(spectral, m, q, beta, gamma, w):
    """(rate, condition) for the averaged-block method, corruption only.

    rate = 1 - linear(w) + quadratic(w); the condition requires
    0 < linear(w) - quadratic(w) < 1.
    """
    g = _check_order(q, beta)
    if w < 0:
        raise ParameterOrderViolation("stepsize must be nonnegative")
    smax = spectral.sigma_max
    sqb_rows = spectral.sigma_q_beta_min_rows
    drift = np.sqrt(beta) / np.sqrt(g)
    lin = w / (gamma * q * m) * (sqb_rows**2 / smax**2 - drift)
    quad = w**2 * smax**2 / (gamma * q**2 * m**2) * (1.0 + drift) ** 2
    rate = 1.0 - lin + quad
    return float(rate), bool(0.0 < lin - quad < 1.0)


def averaged_block_coefficients(q, beta):
    """The six q,beta-only coefficients of the noisy averaged-block bound.

    Transcribed from the inner-product and squared-update groupings of the
    one-step expansion:
      c1, c2  scale the ||x - x_hat||^2 terms of the inner product,
      c4      its cross term,
      c3, c5, c6  come from half the squared dual update (quadratic in w):
      drift_x = 1 + sqrt(beta(1-beta))/(1-beta-q)  multiplies the iterate
      part, drift_r = 1 + (1-beta)sqrt(beta)/((1-beta-q)sqrt(q)) the noise
      part.
    """
    g = _check_order(q, beta)
    drift_x = 1.0 + np.sqrt(beta * (1.0 - beta)) / g
    drift_r = 1.0 + (1.0 - beta) * np.sqrt(beta) / (g * np.sqrt(q))
    c1 = 1.0 / q
    c2 = np.sqrt(beta * (1.0 - beta)) / (q * g)
    c3 = drift_x**2 / (2.0 * q**2)
    c4 = 1.0 / np.sqrt(q) + (1.0 - beta) * np.sqrt(beta) / (q * g)
    c5 = drift_x * drift_r / (2.0 * q**1.5)
    c6 = drift_r**2 / (2.0 * q)
    return c1, c2, c3, c4, c5, c6


def raska_rate_noisy(spectral, m, n, q, beta, alpha, w):
    """Noisy averaged-block bound: contraction factor, noise coefficient,
    and the vertex stepsize of the quadratic contraction.

    Returns (factor, noise_coeff, w_opt) with
      factor      = 1 - c1* w + c2* w^2,
      noise_coeff = c3* w + c4* w^2,
      w_opt       = c1* / (2 c2*).
    """
    c1, c2, c3, c4, c5, c6 = averaged_block_coefficients(q, beta)
    if w < 0:
        raise ParameterOrderViolation("stepsize must be nonnegative")
    smax = spectral.sigma_max
    st = spectral.sigma_tilde_min
    sqb_rows = spectral.sigma_q_beta_min_rows
    c1s = (
        c1 * alpha * st**2 * sqb_rows**2 / (m * smax**2)
        - c2 * alpha * st**2 / m
        - c4 * alpha * st**2 / (2.0 * np.sqrt(m * n) * smax)
    )
    c2s = (
        c3 * alpha * st**2 * smax**2 / m**2
        + c5 * alpha * st**2 * smax / (2.0 * m**1.5 * np.sqrt(n))
    )
    c3s = c4 * np.sqrt(n) * smax / (2.0 * np.sqrt(m))
    c4s = c5 * np.sqrt(n) * smax**3 / (2.0 * m**1.5) + c6 * smax**2 / m
    factor = 1.0 - c1s * w + c2s * w**2
    noise_coeff = c3s * w + c4s * w**2
    w_opt = c1s / (2.0 * c2s)
    return float(factor), float(noise_coeff), float(w_opt)


def lemma31_bound(instance, q, sigma_max):
    """Residual-quantile bound of Lemma 3.1 as a function of the iterate:

    x_k -> sqrt(1-beta)/((1-beta-q) sqrt(m)) * sigma_max * ||x_k - x_hat||
           + (1-beta)/(1-beta-q) * ||r||_inf.
    """
    if instance.x_hat is None:
        raise MissingGroundTruth("the quantile bound needs a ground truth")
    beta = instance.beta
    g = _check_order(q, beta)
    lead = np.sqrt(1.0 - beta) / (g * np.sqrt(instance.m)) * sigma_max
    noise = (1.0 - beta) / g * np.abs(instance.noise).max(initial=0.0)
    x_hat = instance.x_hat
    return lambda x_k: lead * float(np.linalg.norm(np.asarray(x_k) - x_hat)) + noise


def theorem_constants(spectral, instance, q, lam):
    """Bundle alpha, kappa, gamma and both single-row theorem constants."""
    if instance.x_hat is None:
        raise MissingGroundTruth("theorem constants need a ground truth")
    alpha = alpha_of(instance.x_hat, lam)
    frob = float(np.linalg.norm(instance.A))
    kappa = frob / spectral.sigma_tilde_min
    gamma = gamma_of(spectral.sigma_tilde_min, alpha)
    C1, C2, cond2 = theorem32_constants(
        spectral, instance.m, instance.n, q, instance.beta, alpha
    )
    C, condc = theorem33_constant(spectral, instance.m, q, instance.beta, alpha)
    return TheoremConstants(
        alpha=alpha,
        kappa_tilde=kappa,
        gamma=gamma,
        C1=C1,
        C2=C2,
        condition2=cond2,
        C=C,
        condition_corrupted=condc,
    )
