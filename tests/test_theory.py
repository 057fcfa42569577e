import math

import numpy as np
import pytest

from qkaczmarz import bregman, instances, theory
from qkaczmarz.errors import (
    BudgetExceeded,
    DegenerateSelection,
    MissingGroundTruth,
    ParameterOrderViolation,
    ZeroGroundTruth,
)

rng = np.random.default_rng(31)


def fake_report(**kw):
    base = dict(sigma_max=1.8, sigma_min=0.5, sigma_tilde_min=0.3,
                sigma_q_beta_min_rowcol=0.3, sigma_q_beta_min_rows=0.4,
                mode="exact", samples=0, row_subset_size=3)
    base.update(kw)
    return theory.SpectralReport(**base)


def brute_force_minima(A, t):
    """Bitmask oracle for the subset minima, via Gram eigenvalues."""
    m, n = A.shape

    def smin(M):
        r, c = M.shape
        G = M @ M.T if r <= c else M.T @ M
        return math.sqrt(max(float(np.linalg.eigvalsh(G)[0]), 0.0))

    tilde = min(
        smin(A[:, [j for j in range(n) if mask >> j & 1]])
        for mask in range(1, 2**n)
    )
    rows = np.inf
    rowcol = np.inf
    for rmask in range(2**m):
        idx = [i for i in range(m) if rmask >> i & 1]
        if len(idx) != t:
            continue
        block = A[idx]
        rows = min(rows, smin(block))
        for cmask in range(1, 2**n):
            cols = [j for j in range(n) if cmask >> j & 1]
            rowcol = min(rowcol, smin(block[:, cols]))
    return tilde, rowcol, rows


# -------------------------------------------------------- spectral constants

def test_spectral_identity_full_rows():
    rep = theory.spectral_constants(np.eye(3), q=1.0, beta=0.0)
    assert rep.sigma_max == pytest.approx(1.0)
    assert rep.sigma_min == pytest.approx(1.0)
    assert rep.sigma_tilde_min == pytest.approx(1.0)
    assert rep.sigma_q_beta_min_rowcol == pytest.approx(1.0)
    assert rep.sigma_q_beta_min_rows == pytest.approx(1.0)
    assert rep.row_subset_size == 3


def test_spectral_identity_partial_rows_kills_columns():
    # a strict row subset of the identity has all-zero columns, so the
    # row-and-column minimum collapses to 0 while the row-only one stays 1
    rep = theory.spectral_constants(np.eye(3), q=0.7, beta=0.0)
    assert rep.row_subset_size == 2
    assert rep.sigma_q_beta_min_rows == pytest.approx(1.0)
    assert rep.sigma_q_beta_min_rowcol == pytest.approx(0.0, abs=1e-12)


def test_spectral_sigma_max_duplicated_row():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    rep = theory.spectral_constants(A, q=1.0, beta=0.0)
    assert rep.sigma_max == pytest.approx(np.sqrt(2.0))
    assert rep.sigma_min == pytest.approx(1.0)


def test_spectral_exact_matches_bitmask_oracle():
    for trial in range(5):
        m, n = 6, 4
        A = rng.standard_normal((m, n))
        q, beta = 0.6, 0.1
        t = round((q - beta) * m)
        rep = theory.spectral_constants(A, q=q, beta=beta)
        assert rep.row_subset_size == t
        tilde, rowcol, rows = brute_force_minima(A, t)
        assert rep.sigma_tilde_min == pytest.approx(tilde, abs=1e-10)
        assert rep.sigma_q_beta_min_rowcol == pytest.approx(rowcol, abs=1e-10)
        assert rep.sigma_q_beta_min_rows == pytest.approx(rows, abs=1e-10)


def test_spectral_ordering_invariants():
    A = rng.standard_normal((7, 3))
    rep = theory.spectral_constants(A, q=0.7, beta=0.1)
    assert rep.sigma_min <= rep.sigma_max
    assert rep.sigma_tilde_min <= rep.sigma_min + 1e-12
    assert rep.sigma_q_beta_min_rowcol <= rep.sigma_q_beta_min_rows + 1e-12
    assert rep.sigma_q_beta_min_rowcol <= rep.sigma_tilde_min + 1e-12


def test_spectral_sampled_upper_bounds_exact():
    A = rng.standard_normal((8, 4))
    exact = theory.spectral_constants(A, q=0.6, beta=0.1)
    samp = theory.spectral_constants(A, q=0.6, beta=0.1, mode="sampled",
                                     samples=300, seed=1)
    assert samp.mode == "sampled" and samp.samples == 300
    assert samp.sigma_tilde_min >= exact.sigma_tilde_min - 1e-12
    assert samp.sigma_q_beta_min_rows >= exact.sigma_q_beta_min_rows - 1e-12
    assert samp.sigma_q_beta_min_rowcol >= exact.sigma_q_beta_min_rowcol - 1e-12


def test_spectral_sampled_deterministic_under_seed():
    A = rng.standard_normal((10, 4))
    a = theory.spectral_constants(A, q=0.6, beta=0.1, mode="sampled",
                                  samples=50, seed=9)
    b = theory.spectral_constants(A, q=0.6, beta=0.1, mode="sampled",
                                  samples=50, seed=9)
    assert a == b


def test_spectral_budget_exceeded():
    A = rng.standard_normal((40, 12))
    with pytest.raises(BudgetExceeded):
        theory.spectral_constants(A, q=0.5, beta=0.1)


def test_spectral_degenerate_selection():
    with pytest.raises(DegenerateSelection):
        theory.spectral_constants(np.eye(3), q=0.2, beta=0.15)


def test_enumeration_count():
    assert theory.exact_enumeration_count(6, 4, 3) == math.comb(6, 3) * 15


# ------------------------------------------------------------ basic constants

def test_alpha_examples():
    assert theory.alpha_of(np.array([2.0, 0.0, -2.0]), 1.0) == pytest.approx(0.5)
    assert theory.alpha_of(np.array([0.5, 3.0]), 0.0) == pytest.approx(1.0)
    assert 0 < theory.alpha_of(rng.standard_normal(5), 2.0) < 1


def test_alpha_zero_ground_truth():
    with pytest.raises(ZeroGroundTruth):
        theory.alpha_of(np.zeros(4), 1.0)


def test_gamma_example():
    assert theory.gamma_of(0.5, 0.5) == pytest.approx(8.0)


def test_rask_rate_pinned():
    # alpha = 2/(2+2) = 1/2, kappa^2 = 24 -> 1 - 1/96
    rate = theory.rask_rate(np.sqrt(24.0), 1.0, np.array([2.0, 0.0]), 1.0)
    assert rate == pytest.approx(1.0 - 1.0 / 96.0, rel=1e-12)


def test_rask_rate_improves_with_smaller_lambda():
    x_hat = np.array([1.0, 0.0, -3.0])
    r1 = theory.rask_rate(3.0, 0.5, x_hat, 0.1)
    r2 = theory.rask_rate(3.0, 0.5, x_hat, 2.0)
    assert r1 < r2 < 1.0


# ------------------------------------------------- single-row theorem bounds

def test_theorem32_pinned_tuple():
    rep = fake_report()
    C1, C2, cond = theory.theorem32_constants(rep, 100, 20, 0.7, 0.1, 0.5)
    assert C1 == pytest.approx(-0.6518362703395635, rel=1e-12)
    assert C2 == pytest.approx(6.0375463768650235, rel=1e-12)
    assert cond is False
    C1a, C2a, _ = theory.theorem32_constants(rep, 100, 20, 0.7, 0.1, 0.5,
                                             appendix_variant=True)
    assert C1a == pytest.approx(-0.5379546965089956, rel=1e-12)
    assert C2a == C2


def test_theorem32_beta_zero_limit():
    rep = fake_report()
    C1, C2, cond = theory.theorem32_constants(rep, 100, 20, 0.5, 0.0, 0.5)
    # no corruption: only the leading contraction term survives
    assert C1 == pytest.approx(0.5 * 0.3**2 / (2 * 0.5 * 100), rel=1e-12)
    assert C2 == pytest.approx(0.5)
    assert cond is True


def test_theorem32_c1_decreases_in_sigma_max():
    lo = theory.theorem32_constants(fake_report(sigma_max=1.2), 100, 20,
                                    0.7, 0.1, 0.5)[0]
    hi = theory.theorem32_constants(fake_report(sigma_max=2.4), 100, 20,
                                    0.7, 0.1, 0.5)[0]
    assert hi < lo


def test_theorem33_pinned_tuple():
    C, cond = theory.theorem33_constant(fake_report(), 100, 0.7, 0.1, 0.5)
    assert C == pytest.approx(-0.08832523182575874, rel=1e-12)
    assert cond is False


def test_theorem33_beta_zero_limit():
    C, cond = theory.theorem33_constant(fake_report(), 100, 0.5, 0.0, 0.5)
    assert C == pytest.approx(0.5 * 0.3**2 / (2 * 0.5 * 100), rel=1e-12)
    assert cond is True


def test_parameter_order_enforced():
    rep = fake_report()
    for q, beta in [(0.1, 0.2), (0.2, 0.2), (0.85, 0.2), (0.8, 0.2)]:
        with pytest.raises(ParameterOrderViolation):
            theory.theorem32_constants(rep, 100, 20, q, beta, 0.5)
        with pytest.raises(ParameterOrderViolation):
            theory.theorem33_constant(rep, 100, q, beta, 0.5)
        with pytest.raises(ParameterOrderViolation):
            theory.raska_rate_corrupted(rep, 100, q, beta, 4.0, 1.0)
        with pytest.raises(ParameterOrderViolation):
            theory.averaged_block_coefficients(q, beta)


# --------------------------------------------------- averaged-block theorems

def test_raska_corrupted_zero_stepsize():
    rate, cond = theory.raska_rate_corrupted(fake_report(), 100, 0.7, 0.1,
                                             4.0, 0.0)
    assert rate == pytest.approx(1.0)
    assert cond is False


def test_raska_corrupted_beta_zero_closed_form():
    rep = fake_report()
    m, q, gamma, w = 100, 0.5, 4.0, 2.0
    rate, _ = theory.raska_rate_corrupted(rep, m, q, 0.0, gamma, w)
    lin = w / (gamma * q * m) * rep.sigma_q_beta_min_rows**2 / rep.sigma_max**2
    quad = w**2 * rep.sigma_max**2 / (gamma * q**2 * m**2)
    assert rate == pytest.approx(1.0 - lin + quad, rel=1e-12)


def test_raska_corrupted_quadratic_vertex():
    # mild corruption and a well-conditioned row block give the rate an
    # interior minimum in the stepsize
    rep = fake_report(sigma_max=1.5, sigma_q_beta_min_rows=1.0)
    args = (100, 0.5, 0.01, 4.0)

    def rate(w):
        return theory.raska_rate_corrupted(rep, *args, w)[0]

    # locate the vertex by a fine scan, then verify local minimality
    ws = np.linspace(0.01, 10.0, 2001)
    w_best = ws[int(np.argmin([rate(w) for w in ws]))]
    assert 0.01 < w_best < 10.0
    assert rate(w_best) <= rate(w_best - 0.01)
    assert rate(w_best) <= rate(w_best + 0.01)
    assert rate(w_best) < 1.0
    assert theory.raska_rate_corrupted(rep, *args, w_best)[1] is True


def test_averaged_block_coefficients_beta_zero():
    c1, c2, c3, c4, c5, c6 = theory.averaged_block_coefficients(0.5, 0.0)
    q = 0.5
    assert c1 == pytest.approx(1 / q)
    assert c2 == pytest.approx(0.0)
    assert c3 == pytest.approx(1 / (2 * q**2))
    assert c4 == pytest.approx(1 / np.sqrt(q))
    assert c5 == pytest.approx(1 / (2 * q**1.5))
    assert c6 == pytest.approx(1 / (2 * q))


def test_averaged_block_coefficients_positive():
    for q, beta in [(0.5, 0.1), (0.7, 0.2), (0.4, 0.3)]:
        coeffs = theory.averaged_block_coefficients(q, beta)
        assert all(c >= 0 for c in coeffs)


def noisy_report():
    return fake_report(sigma_max=1.2, sigma_tilde_min=0.8,
                       sigma_q_beta_min_rows=1.0)


def test_raska_noisy_zero_stepsize():
    f, nc, w_opt = theory.raska_rate_noisy(noisy_report(), 20, 20, 0.5, 0.01,
                                           0.5, 0.0)
    assert f == pytest.approx(1.0)
    assert nc == pytest.approx(0.0)
    assert w_opt > 0


def test_raska_noisy_vertex_minimizes_factor():
    rep = noisy_report()

    def factor(w):
        return theory.raska_rate_noisy(rep, 20, 20, 0.5, 0.01, 0.5, w)[0]

    _, _, w_opt = theory.raska_rate_noisy(rep, 20, 20, 0.5, 0.01, 0.5, 1.0)
    assert w_opt > 0
    assert factor(w_opt) < 1.0
    assert factor(w_opt) <= factor(0.9 * w_opt) + 1e-15
    assert factor(w_opt) <= factor(1.1 * w_opt) + 1e-15


def test_raska_noisy_noise_coeff_grows_with_stepsize():
    rep = fake_report()
    ncs = [theory.raska_rate_noisy(rep, 100, 20, 0.7, 0.1, 0.5, w)[1]
           for w in (0.5, 1.0, 2.0)]
    assert ncs[0] < ncs[1] < ncs[2]


# ----------------------------------------------------- runtime quantile bound

def make_instance(**kw):
    base = dict(m=60, n=8, sparsity=3, beta=0.2, corruption_scale=20.0,
                noise_bound=0.01, seed=2)
    base.update(kw)
    return instances.generate_gaussian(instances.GeneratorSpec(**base))


def test_lemma31_check_true_and_false():
    inst = make_instance()
    sigma_max = float(np.linalg.svd(inst.A, compute_uv=False)[0])
    x = np.zeros(inst.n)
    # a tiny claimed quantile always passes; a huge one always fails
    assert theory.lemma31_check(x, inst, 0.5, 0.0, sigma_max)
    assert not theory.lemma31_check(x, inst, 0.5, 1e6, sigma_max)


def test_lemma31_bound_holds_along_the_residual_quantiles():
    from qkaczmarz import quantiles

    inst = make_instance()
    sigma_max = float(np.linalg.svd(inst.A, compute_uv=False)[0])
    for _ in range(200):
        x = inst.x_hat + rng.standard_normal(inst.n) * rng.uniform(0, 3)
        Q = quantiles.q_quantile(np.abs(inst.A @ x - inst.b_observed), 0.5)
        assert theory.lemma31_check(x, inst, 0.5, Q, sigma_max)


def test_lemma31_requires_ground_truth_and_order():
    inst = make_instance()
    sigma_max = 1.0
    with pytest.raises(ParameterOrderViolation):
        theory.lemma31_check(np.zeros(inst.n), inst, 0.1, 0.0, sigma_max)
    from dataclasses import replace

    blind = replace(inst, x_hat=None)
    with pytest.raises(MissingGroundTruth):
        theory.lemma31_check(np.zeros(inst.n), blind, 0.5, 0.0, sigma_max)


# -------------------------------------------------------- error-bound lemma

def test_bregman_distance_error_bound():
    # D(x, x_hat) <= gamma ||A x - b||^2 for dual iterates in range(A^T),
    # with x_hat itself generated from a dual vector in range(A^T)
    m, n, lam = 8, 4, 0.6
    A = rng.standard_normal((m, n))
    A = A / np.linalg.norm(A, axis=1, keepdims=True)
    x_hat_star = A.T @ rng.standard_normal(m) * 2.0
    x_hat = bregman.soft_shrink(x_hat_star, lam)
    if not x_hat.any():
        pytest.skip("degenerate draw")
    b = A @ x_hat
    rep = theory.spectral_constants(A, q=0.6, beta=0.1)
    gamma = theory.gamma_of(rep.sigma_tilde_min, theory.alpha_of(x_hat, lam))
    for _ in range(200):
        x_star = A.T @ rng.standard_normal(m) * rng.uniform(0, 4)
        x = bregman.soft_shrink(x_star, lam)
        D = bregman.bregman_distance(x, x_star, x_hat, lam)
        res = A @ x - b
        assert D <= gamma * float(res @ res) + 1e-10


# ------------------------------------------------------------------- bundle

def test_theorem_constants_bundle():
    inst = make_instance(m=8, n=3, sparsity=2, beta=0.125, seed=5)
    rep = theory.spectral_constants(inst.A, q=0.5, beta=0.125)
    tc = theory.theorem_constants(rep, inst, 0.5, 1.0)
    assert tc.alpha == pytest.approx(theory.alpha_of(inst.x_hat, 1.0))
    assert tc.kappa_tilde == pytest.approx(
        np.linalg.norm(inst.A) / rep.sigma_tilde_min
    )
    assert tc.gamma == pytest.approx(
        1.0 / (rep.sigma_tilde_min**2 * tc.alpha)
    )
    assert isinstance(tc.condition2, bool)
    assert isinstance(tc.condition_corrupted, bool)


def test_theorem_constants_bundle_needs_ground_truth():
    from dataclasses import replace

    inst = make_instance(m=8, n=3, sparsity=2, beta=0.125, seed=5)
    rep = theory.spectral_constants(inst.A, q=0.5, beta=0.125)
    with pytest.raises(MissingGroundTruth):
        theory.theorem_constants(rep, replace(inst, x_hat=None), 0.5, 1.0)
