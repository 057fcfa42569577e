import numpy as np
import pytest
from dataclasses import replace

from qkaczmarz import bregman, instances, quantiles, solvers, theory
from qkaczmarz.errors import ConfigInvalid, Diverged, EmptyAcceptableSet

rng = np.random.default_rng(21)


def toy_instance(A, b, x_hat=None, beta=0.0, noise=None):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    noise = np.zeros_like(b) if noise is None else np.asarray(noise, dtype=float)
    return instances.ProblemInstance(
        A=A, b_clean=b - noise, b_corrupt=np.zeros_like(b), noise=noise,
        b_observed=b, x_hat=None if x_hat is None else np.asarray(x_hat, float),
        beta=beta, corruption_scale=0.0,
        noise_bound=float(np.abs(noise).max(initial=0.0)), seed=0,
    )


def word_stream(seed):
    """The row-draw words run() uses for `seed`."""
    return solvers.WordStream(np.random.PCG64(seed))


def gaussian_instance(m, n, s, beta=0.0, k=0.0, noise=0.0, seed=0):
    return instances.generate_gaussian(
        instances.GeneratorSpec(m=m, n=n, sparsity=s, beta=beta,
                                corruption_scale=k, noise_bound=noise, seed=seed)
    )


# ----------------------------------------------------------- single steps

def test_single_step_hand_iteration_inexact():
    inst = toy_instance([[1.0]], [2.0])
    config = solvers.SolverConfig(method="single-row-inexact", lam=1.0,
                                  max_iters=2, seed=0)
    sampler = word_stream(0)
    st0 = solvers.zero_state(1)
    st1 = solvers.step_single(st0, inst, config, sampler)
    assert st1.x[0] == pytest.approx(1.0)  # S_1(2)
    st2 = solvers.step_single(st1, inst, config, sampler)
    assert st2.x[0] == pytest.approx(2.0)  # S_1(3)


def test_single_step_hand_iteration_exact():
    inst = toy_instance([[1.0]], [2.0])
    config = solvers.SolverConfig(method="single-row-exact", lam=1.0,
                                  max_iters=1, seed=0)
    sampler = word_stream(0)
    st1 = solvers.step_single(solvers.zero_state(1), inst, config, sampler)
    assert st1.x[0] == pytest.approx(2.0)


def test_single_step_zero_residuals_is_fixed_point():
    A, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    x = rng.standard_normal(3)
    inst = toy_instance(A, A @ x)
    config = solvers.SolverConfig(method="single-row-inexact", lam=0.0,
                                  quantile_q=0.5, max_iters=1, seed=0)
    sampler = word_stream(0)
    st = solvers.IterateState(x=x.copy(), x_star=x.copy(), k=3)
    nxt = solvers.step_single(st, inst, config, sampler)
    assert nxt.k == 4
    assert np.allclose(nxt.x, x, atol=1e-12)


def test_inexact_equals_exact_when_lambda_zero():
    inst = gaussian_instance(10, 4, 2, seed=5)
    for method in ("single-row-inexact", "single-row-exact"):
        config = solvers.SolverConfig(method=method, lam=0.0, quantile_q=0.6,
                                      max_iters=1, seed=9)
        sampler = word_stream(9)
        st = solvers.step_single(solvers.zero_state(4), inst, config, sampler)
        if method == "single-row-inexact":
            ref = st.x
        else:
            assert np.allclose(st.x, ref, atol=1e-12)


# --------------------------------------------------------- averaged block

def test_block_step_all_zero_residuals_returns_converged_state():
    # the strict filter empties on a solved system; the step reports that
    # as convergence and leaves the iterate where it is
    A = np.array([[1.0, 0.0], [0.0, 1.0]])
    x = np.array([1.0, 2.0])
    inst = toy_instance(A, A @ x)
    config = solvers.SolverConfig(method="averaged-block", lam=0.0,
                                  quantile_q=1.0, stepsize=1.0, max_iters=1)
    st = solvers.IterateState(x=x.copy(), x_star=x.copy(), k=3,
                              last_quantile=0.5, last_set_size=1)
    nxt = solvers.step_averaged_block(st, inst, config)
    assert nxt.converged and not st.converged
    assert (nxt.k, nxt.last_quantile, nxt.last_set_size) == (3, 0.5, 1)
    assert np.array_equal(nxt.x, x) and np.array_equal(nxt.x_star, x)


def test_block_run_reports_convergence_on_zero_residuals():
    # the acceptable set of an already-solved system is empty under the
    # strict filter; run() reports that as convergence, not an error
    inst = toy_instance(np.eye(2), np.zeros(2))
    config = solvers.SolverConfig(method="averaged-block", lam=0.0,
                                  quantile_q=1.0, stepsize=1.0, max_iters=50)
    state, trace = solvers.run(inst, config)
    assert state.converged
    assert np.array_equal(state.x, np.zeros(2))


def test_block_step_hand_example():
    # duplicated row; q=1 makes Q the max residual and the strict filter
    # keeps only row 0
    A = np.array([[1.0], [1.0]])
    inst = toy_instance(A, np.array([2.0, 4.0]))
    config = solvers.SolverConfig(method="averaged-block", lam=0.0,
                                  quantile_q=1.0, stepsize=1.0, max_iters=1)
    st1 = solvers.step_averaged_block(solvers.zero_state(1), inst, config)
    # |residuals| = (2, 4) -> Q = 4, T = {0}, x1 = 0 - 1*(0-2)*1 = 2
    assert st1.last_quantile == pytest.approx(4.0)
    assert st1.last_set_size == 1
    assert st1.x[0] == pytest.approx(2.0)


def test_block_strict_filter_empty_when_residuals_tie():
    A = np.array([[1.0], [1.0]])
    inst = toy_instance(A, np.array([2.0, 2.0]))
    config = solvers.SolverConfig(method="averaged-block", lam=0.0,
                                  quantile_q=1.0, stepsize=1.0, max_iters=1)
    with pytest.raises(EmptyAcceptableSet):
        solvers.step_averaged_block(solvers.zero_state(1), inst, config)


def test_block_singleton_matches_single_row_with_stepsize():
    # eta = 1 and lam = 0 reduces to one weighted row projection
    A = np.array([[1.0], [1.0]])
    inst = toy_instance(A, np.array([2.0, 4.0]))
    w = 1.7
    config = solvers.SolverConfig(method="averaged-block", lam=0.0,
                                  quantile_q=1.0, stepsize=w, max_iters=1)
    st1 = solvers.step_averaged_block(solvers.zero_state(1), inst, config)
    assert st1.x[0] == pytest.approx(w * 2.0)


@pytest.mark.parametrize("stepsize", ["1.5n"])
def test_block_step_matches_gathered_rows_formula(stepsize):
    inst = gaussian_instance(300, 40, 5, beta=0.2, k=100.0, noise=0.02, seed=5)
    m, n = inst.A.shape
    config = solvers.SolverConfig(method="averaged-block", lam=1.0,
                                  quantile_q=0.7, stepsize=stepsize, max_iters=1)
    x_star = rng.standard_normal(n)
    state = solvers.IterateState(x=bregman.soft_shrink(x_star, 1.0),
                                 x_star=x_star)
    st1 = solvers.step_averaged_block(state, inst, config)

    res = inst.A @ state.x - inst.b_observed
    T = quantiles.acceptable_set(np.abs(res), st1.last_quantile, strict=True)
    step = inst.A[T].T @ (1.5 * n * res[T]) / T.shape[0]
    assert 1 < st1.last_set_size == T.shape[0] < m
    assert np.linalg.norm((state.x_star - st1.x_star) - step) <= \
        1e-12 * np.linalg.norm(step)


# ------------------------------------------------------------------- run

@pytest.mark.parametrize("method, stepsize, iters", [
    ("single-row-inexact", 1.0, 150),
    ("single-row-exact", 1.0, 150),
    # past ~100 iterations this block run wanders at its noise floor, where
    # rounding differences grow by orders of magnitude within tens of steps
    ("averaged-block", "1.5n", 60),
])
def test_row_major_instance_gives_the_same_trace(method, stepsize, iters):
    # a hand-built instance with a row-major A takes the other paths of the
    # residual and of the block update, with the same results to rounding
    inst = gaussian_instance(400, 80, 6, beta=0.2, k=100.0, noise=0.02, seed=3)
    row_major = replace(inst, A=np.ascontiguousarray(inst.A))
    assert inst.A.flags.f_contiguous and row_major.A.flags.c_contiguous
    config = solvers.SolverConfig(method=method, lam=1.0, quantile_q=0.7,
                                  stepsize=stepsize, max_iters=iters, seed=2)
    st_f, tr_f = solvers.run(inst, config)
    st_c, tr_c = solvers.run(row_major, config)
    assert tr_f.ks == tr_c.ks and tr_f.set_size == tr_c.set_size
    for name in ("rel_error", "bregman_dist", "quantile"):
        # relative to each column's largest value: bregman_dist is a
        # difference of near-equal terms late in a run
        f, c = np.array(getattr(tr_f, name)), np.array(getattr(tr_c, name))
        assert np.abs(f - c).max() <= 1e-12 * np.abs(c).max(), name
    assert np.abs(st_f.x - st_c.x).max() <= 1e-12 * np.abs(st_c.x).max()


def test_run_raises_diverged_at_the_first_non_finite_iterate():
    # a block stepsize of 50n overflows the iterate; the NaN residuals that
    # follow must not be reported as an empty acceptable set
    inst = gaussian_instance(200, 20, 3, beta=0.2, k=10.0, seed=0)
    config = solvers.SolverConfig(method="averaged-block", quantile_q=0.7,
                                  stepsize="50n", max_iters=1000)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(Diverged) as exc:
        solvers.run(inst, config, record_bregman=False)
    assert 100 < exc.value.k < 1000
    assert f"iteration {exc.value.k}" in str(exc.value)


def test_run_single_iteration_trace():
    inst = gaussian_instance(8, 3, 2, seed=2)
    config = solvers.SolverConfig(max_iters=1, lam=1.0)
    state, trace = solvers.run(inst, config)
    assert state.k == 1
    assert trace.ks == [1]


def test_run_invalid_config():
    inst = gaussian_instance(8, 3, 2, seed=2)
    with pytest.raises(ConfigInvalid):
        solvers.run(inst, solvers.SolverConfig(max_iters=0))


@pytest.mark.parametrize("settings", [
    dict(method="averaged-block"),
    dict(method="single-row-inexact", check_quantile_bound=True),
], ids=["block", "quantile-bound"])
def test_config_without_quantile_is_refused_where_the_filter_is_needed(settings):
    # the block method averages over the filtered rows only; with no filter
    # it would drop the rows at the largest residual without saying so
    with pytest.raises(ConfigInvalid, match="quantile"):
        solvers.SolverConfig(quantile_q=None, **settings).validate()


def test_run_same_seed_identical_traces():
    inst = gaussian_instance(30, 8, 3, beta=0.2, k=10.0, seed=4)
    config = solvers.SolverConfig(method="single-row-inexact", lam=1.0,
                                  quantile_q=0.6, max_iters=500, seed=123,
                                  trace_every=50)
    _, t1 = solvers.run(inst, config)
    _, t2 = solvers.run(inst, config)
    assert t1.ks == t2.ks
    assert t1.rel_error == t2.rel_error
    assert t1.quantile == t2.quantile


def test_run_converges_to_regularized_basis_pursuit_solution():
    # Oracle: projective full-block linearized Bregman iteration on the same
    # regularized problem, run to fixed point.
    inst = gaussian_instance(20, 10, 3, seed=8)
    lam = 1.0
    A, b = inst.A, inst.b_observed
    L = np.linalg.norm(A, 2) ** 2
    x_star = np.zeros(10)
    x = np.zeros(10)
    for _ in range(1_000_000):
        res = A @ x - b
        if np.abs(res).max() < 1e-12:
            break
        x_star = x_star - A.T @ res / L
        x = bregman.soft_shrink(x_star, lam)
    oracle = x
    assert np.abs(A @ oracle - b).max() < 1e-12

    config = solvers.SolverConfig(method="single-row-inexact", lam=lam,
                                  max_iters=50_000, seed=0, trace_every=50_000)
    state, _ = solvers.run(inst, config)
    assert np.linalg.norm(state.x - oracle) / np.linalg.norm(oracle) <= 1e-3


def test_exact_variant_hyperplane_membership_each_step():
    # replay step_single's exact path with a visible sampler: each update
    # must land exactly on the chosen row's hyperplane, and the replayed
    # trajectory must match the engine bit for bit
    inst = gaussian_instance(15, 5, 2, beta=0.2, k=5.0, seed=3)
    config = solvers.SolverConfig(method="single-row-exact", lam=1.0,
                                  quantile_q=0.6, max_iters=1, seed=0)
    A, b = inst.A, inst.b_observed
    engine_words = word_stream(42)
    replay_words = word_stream(42)
    engine = solvers.zero_state(5)
    state = solvers.zero_state(5)
    for _ in range(300):
        engine = solvers.step_single(engine, inst, config, engine_words)
        abs_res = np.abs(A @ state.x - b)
        Q = quantiles.q_quantile(abs_res, 0.6)
        pool = quantiles.acceptable_set(abs_res, Q, strict=False)
        i = solvers.sample_index(replay_words, pool)
        t = bregman.exact_step(state.x_star, A[i], b[i], 1.0)
        x_star = state.x_star - t * A[i]
        state = solvers.IterateState(x=bregman.soft_shrink(x_star, 1.0),
                                     x_star=x_star, k=state.k + 1)
        assert abs(np.dot(A[i], state.x) - b[i]) < 1e-9
        assert np.array_equal(engine.x, state.x)


def test_dual_pair_invariant_after_every_step():
    inst = gaussian_instance(25, 6, 2, beta=0.2, k=20.0, seed=6)
    config = solvers.SolverConfig(method="single-row-inexact", lam=0.7,
                                  quantile_q=0.6, max_iters=1, seed=0)
    sampler = word_stream(0)
    state = solvers.zero_state(6)
    for _ in range(500):
        state = solvers.step_single(state, inst, config, sampler)
        bregman.validate_pair(state.x, state.x_star, 0.7)


def test_dual_iterate_stays_in_row_space_on_clean_data():
    inst = gaussian_instance(12, 5, 2, seed=9)
    config = solvers.SolverConfig(method="single-row-inexact", lam=1.0,
                                  max_iters=2000, seed=0, trace_every=2000)
    state, _ = solvers.run(inst, config)
    y, *_ = np.linalg.lstsq(inst.A.T, state.x_star, rcond=None)
    assert np.linalg.norm(inst.A.T @ y - state.x_star) <= 1e-8


def test_quantile_bound_runtime_check_passes():
    inst = gaussian_instance(50, 10, 3, beta=0.2, k=50.0, noise=0.01, seed=12)
    config = solvers.SolverConfig(method="single-row-inexact", lam=1.0,
                                  quantile_q=0.5, max_iters=2000, seed=0,
                                  trace_every=500, check_quantile_bound=True)
    state, _ = solvers.run(inst, config)  # raises on any violation
    assert state.k == 2000


def test_quantile_bound_is_evaluated_at_the_pre_step_iterate(monkeypatch):
    # the quantile a step records is that of |A x - b| at the iterate it
    # started from, and Lemma 3.1 bounds it by the error at that iterate
    seen = []
    lemma31_bound = theory.lemma31_bound

    def recording_bound(*args):
        bound = lemma31_bound(*args)

        def at(x):
            seen.append(x.copy())
            return bound(x)
        return at

    monkeypatch.setattr(theory, "lemma31_bound", recording_bound)
    inst = gaussian_instance(50, 10, 3, beta=0.2, k=50.0, noise=0.01, seed=12)
    config = solvers.SolverConfig(method="single-row-inexact", lam=0.1,
                                  quantile_q=0.5, max_iters=40, seed=7,
                                  check_quantile_bound=True)
    solvers.run(inst, config)
    sampler = word_stream(7)
    state = solvers.zero_state(10)
    pre_step = []
    for _ in range(40):
        pre_step.append(state.x)
        state = solvers.step_single(state, inst, config, sampler)
    assert len(seen) == len(pre_step)
    assert all(np.array_equal(a, b) for a, b in zip(seen, pre_step))


def test_stop_tol_and_exit_state():
    inst = gaussian_instance(40, 8, 3, seed=1)
    config = solvers.SolverConfig(method="single-row-inexact", lam=0.5,
                                  max_iters=100_000, seed=0, trace_every=1000,
                                  stop_tol=1e-6)
    state, trace = solvers.run(inst, config)
    assert state.converged
    assert trace.rel_error[-1] <= 1e-6
    assert state.k < 100_000


# ------------------------------------------------------------- row draws

def test_word_stream_yields_the_generator_words():
    rng_ = np.random.Generator(np.random.PCG64(17))
    words = solvers.WordStream(np.random.PCG64(17))
    for _ in range(3 * solvers._WORD_BLOCK + 1):  # three refills
        assert words.integers(0, 2**64, dtype=np.uint64) == \
            int(rng_.integers(0, 2**64, dtype=np.uint64))


class HugePool:
    """A pool of 3 * 2**62 indices: a quarter of the 64-bit words fall at
    or above the largest multiple of its size and are rejected."""
    shape = (3 * 2**62,)

    def __getitem__(self, i):
        return i


def test_sample_index_draws_the_same_rows_from_a_word_stream_or_a_generator():
    rng_ = np.random.Generator(np.random.PCG64(5))
    words = solvers.WordStream(np.random.PCG64(5))
    for pool in (HugePool(), np.arange(13), np.array([4])):
        for _ in range(300):
            assert solvers.sample_index(words, pool) == solvers.sample_index(rng_, pool)
    # both consumed the same words, rejections included
    assert words.integers(0, 2**64, dtype=np.uint64) == \
        int(rng_.integers(0, 2**64, dtype=np.uint64))


def test_word_stream_draws_whole_words_only():
    words = solvers.WordStream(np.random.PCG64(0))
    with pytest.raises(ValueError):
        words.integers(0, 10, dtype=np.uint64)


# --------------------------------------------------- reduction equivalences

def reference_quantile_rk(inst, q, n_iters, seed, stepsize=1.0):
    """Independent Quantile-RK reference: plain Euclidean projections with
    quantile screening, sharing only the sampling helper."""
    A, b = inst.A, inst.b_observed
    x = np.zeros(A.shape[1])
    sampler = word_stream(seed)
    traj = []
    for _ in range(n_iters):
        res = A @ x - b
        Q = quantiles.q_quantile(np.abs(res), q)
        pool = np.flatnonzero(np.abs(res) <= Q)
        i = solvers.sample_index(sampler, pool)
        x = x - stepsize * (np.dot(A[i], x) - b[i]) * A[i]
        traj.append(x.copy())
    return traj


def reference_rk(inst, n_iters, seed):
    A, b = inst.A, inst.b_observed
    x = np.zeros(A.shape[1])
    sampler = word_stream(seed)
    traj = []
    for _ in range(n_iters):
        i = solvers.sample_index(sampler, np.arange(A.shape[0]))
        x = x - (np.dot(A[i], x) - b[i]) * A[i]
        traj.append(x.copy())
    return traj


def collect_trajectory(inst, config, n_iters):
    sampler = word_stream(config.seed)
    state = solvers.zero_state(inst.n)
    traj = []
    for _ in range(n_iters):
        state = solvers.step_single(state, inst, config, sampler)
        traj.append(state.x.copy())
    return traj


def test_lambda_zero_quantile_on_matches_quantile_rk():
    inst = gaussian_instance(30, 8, 3, beta=0.2, k=20.0, seed=14)
    config = solvers.SolverConfig(method="single-row-inexact", lam=0.0,
                                  quantile_q=0.6, max_iters=1000, seed=99)
    ours = collect_trajectory(inst, config, 1000)
    ref = reference_quantile_rk(inst, 0.6, 1000, 99)
    for a, b_ in zip(ours, ref):
        assert np.abs(a - b_).max() <= 1e-12


def test_quantile_off_lambda_zero_matches_rk():
    inst = gaussian_instance(30, 8, 3, seed=15)
    config = solvers.SolverConfig(method="single-row-inexact", lam=0.0,
                                  quantile_q=None, max_iters=1000, seed=7)
    ours = collect_trajectory(inst, config, 1000)
    ref = reference_rk(inst, 1000, 7)
    for a, b_ in zip(ours, ref):
        assert np.abs(a - b_).max() <= 1e-12


def test_block_singleton_matches_quantile_rk_step():
    # lam = 0 and a forced singleton acceptable set: one weighted RK step
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    inst = toy_instance(A, np.array([0.5, 3.0, 3.1]))
    w = 1.7
    config = solvers.SolverConfig(method="averaged-block", lam=0.0,
                                  quantile_q=0.4, stepsize=w, max_iters=1)
    # residuals (-0.5, -3, -3.1): Q = y_(2) = 3 for q=0.4 (nq=1.2);
    # strict filter keeps only row 0
    st1 = solvers.step_averaged_block(solvers.zero_state(2), inst, config)
    assert st1.last_set_size == 1
    expected = np.zeros(2) - w * (0.0 - 0.5) * A[0]
    assert np.abs(st1.x - expected).max() <= 1e-12


# -------------------------------------------------------- median of trials

def test_median_single_trial_is_the_run():
    inst = gaussian_instance(20, 6, 2, seed=3)
    config = solvers.SolverConfig(max_iters=100, lam=1.0, seed=5, trace_every=10)
    tr = solvers.median_of_trials(lambda j: inst, config, 1)
    _, direct = solvers.run(inst, config)
    assert tr.rel_error == direct.rel_error


def test_median_even_trials_averages_the_middle_pair():
    inst = gaussian_instance(20, 6, 2, beta=0.1, k=5.0, seed=3)
    config = solvers.SolverConfig(max_iters=200, lam=1.0, quantile_q=0.7,
                                  seed=5, trace_every=200)
    tr = solvers.median_of_trials(lambda j: inst, config, 2)
    finals = [solvers.run(inst, replace(config, seed=5 + j))[1].rel_error[-1]
              for j in (0, 1)]
    assert tr.rel_error[-1] == pytest.approx(0.5 * (finals[0] + finals[1]))


def test_median_of_trials_uses_shifted_seeds():
    inst = gaussian_instance(20, 6, 2, beta=0.1, k=5.0, seed=3)
    config = solvers.SolverConfig(max_iters=200, lam=1.0, quantile_q=0.7,
                                  seed=5, trace_every=200)
    tr = solvers.median_of_trials(lambda j: inst, config, 3)
    singles = []
    for j in range(3):
        _, t = solvers.run(inst, replace(config, seed=5 + j))
        singles.append(t.rel_error[-1])
    assert tr.rel_error[-1] == pytest.approx(float(np.median(singles)))


def test_median_of_trials_holds_a_stopped_trials_last_record():
    # the exact 3x2 system stops at k = 1 (all residuals zero); the 20x2
    # instance runs all 10 iterations, so the grid is its 10 records
    toy = toy_instance([[1.0, 0.0], [0.0, 1.0], [2**-0.5, 2**-0.5]],
                       [1.0, 1.0, 2**0.5], x_hat=[1.0, 1.0])
    g = gaussian_instance(20, 2, 1, seed=4)
    config = solvers.SolverConfig(method="averaged-block", lam=0.0,
                                  quantile_q=1.0, stepsize=2.0, max_iters=10)
    tr = solvers.median_of_trials(lambda j: [toy, g][j], config, 2)
    stopped, full = (solvers.run(inst, replace(config, seed=j), record_bregman=False)[1]
                     for j, inst in enumerate([toy, g]))
    assert stopped.ks == [1] and full.ks == list(range(1, 11))
    assert tr.ks == full.ks
    assert tr.rel_error == [0.5 * (stopped.rel_error[0] + r) for r in full.rel_error]
    assert tr.set_size == [int(np.median([stopped.set_size[0], s]))
                           for s in full.set_size]


@pytest.mark.parametrize("q, trials", [(None, 4), (0.7, 3), (0.7, 4)])
def test_median_of_trials_takes_each_records_median(q, trials):
    inst = gaussian_instance(20, 6, 2, beta=0.1, k=5.0, seed=3)
    config = solvers.SolverConfig(max_iters=60, lam=1.0, quantile_q=q,
                                  seed=5, trace_every=7)
    tr = solvers.median_of_trials(lambda j: inst, config, trials)
    runs = [solvers.run(inst, replace(config, seed=5 + j), record_bregman=False)[1]
            for j in range(trials)]
    assert tr.ks == runs[0].ks and tr.bregman_dist == [None] * len(tr.ks)
    for pos in range(len(tr.ks)):
        assert tr.rel_error[pos] == float(np.median([t.rel_error[pos] for t in runs]))
        assert tr.set_size[pos] == int(np.median([t.set_size[pos] for t in runs]))
        assert tr.quantile[pos] == float(np.median([t.quantile[pos] for t in runs])) \
            or (q is None and np.isnan(tr.quantile[pos]))
