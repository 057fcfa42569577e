"""Quantile-filtered randomized sparse Kaczmarz iterations.

One engine covers the single-row method (inexact or exact dual step) and the
averaged-block method, plus every baseline obtained by switching the
single-row quantile filter off (plain randomized / sparse Kaczmarz) or by
setting lambda = 0.

A step returns the next state (x = S_lam(x*), k + 1) and mutates nothing;
the averaged-block step returns a solved state unchanged, marked converged.

Row index sampling uses rejection sampling on 64-bit words from a seeded
PCG64 stream, so identical (instance, config, seed) runs draw the same rows.
Traces repeat bit for bit for one numpy/OpenBLAS version and OpenBLAS
kernel, whatever the CPU or OpenBLAS thread count: importing the package
sets OpenBLAS to one thread, and the residual's full A @ x and the block
update's A.T @ v run in blocks on every CPU the process may use, with the
bits of one call (`matrices._dense_product`).
"""

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import bregman, matrices, quantiles, theory
from .errors import (ConfigInvalid, Diverged, EmptyAcceptableSet, MissingGroundTruth,
                     ZeroGroundTruth)

METHODS = ("single-row-inexact", "single-row-exact", "averaged-block")

_ZERO_RES_TOL = 1e-13
# words sample_index draws: integers(0, _WORD_RANGE, dtype=np.uint64)
_WORD_RANGE = 2**64
# words a WordStream draws from its bit generator at a time
_WORD_BLOCK = 256


@dataclass(frozen=True)
class SolverConfig:
    method: str = "single-row-inexact"
    lam: float = 1.0
    quantile_q: float | None = None      # None disables the quantile filter
    stepsize: float | str = 1.0          # constant w or "1.7n"
    max_iters: int = 1000
    seed: int = 0
    trace_every: int = 1
    stop_tol: float | None = None
    check_quantile_bound: bool = False   # runtime residual-quantile inequality

    def validate(self):
        if self.method not in METHODS:
            raise ConfigInvalid(f"unknown method {self.method!r}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigInvalid(f"lambda must be finite and nonnegative, got {self.lam}")
        if self.quantile_q is None:
            if self.method == "averaged-block":
                raise ConfigInvalid("the averaged-block method needs quantile_q")
            if self.check_quantile_bound:
                raise ConfigInvalid("the quantile bound check needs the quantile filter")
        elif not 0.0 < self.quantile_q <= 1.0:
            raise ConfigInvalid("quantile_q must lie in (0, 1]")
        if self.max_iters < 1:
            raise ConfigInvalid("max_iters must be >= 1")
        if self.trace_every < 1:
            raise ConfigInvalid("trace_every must be >= 1")
        if self.stop_tol is not None and not (
                math.isfinite(self.stop_tol) and self.stop_tol >= 0):
            raise ConfigInvalid(
                f"stop_tol must be finite and nonnegative, got {self.stop_tol}")
        resolve_stepsize(self.stepsize, 1)


def resolve_stepsize(stepsize, n):
    """Turn a stepsize policy into a constant w.

    Accepts a positive finite float, a numeric string, or a string like
    "1.7n" meaning coefficient times the column count ("n" alone is 1n).
    """
    scale = 1
    if isinstance(stepsize, str):
        txt = stepsize.strip()
        if txt.endswith("n"):
            scale, txt = n, txt[:-1] or "1"
        try:
            coeff = float(txt)
        except ValueError:
            raise ConfigInvalid(f"stepsize w must be a number or a number "
                                f"followed by n, got {stepsize!r}") from None
    else:
        coeff = float(stepsize)
    if not (math.isfinite(coeff) and coeff > 0):
        raise ConfigInvalid(f"stepsize w must be positive and finite, got {stepsize!r}")
    return coeff * scale


@dataclass
class IterateState:
    x: np.ndarray
    x_star: np.ndarray
    k: int = 0
    last_quantile: float = np.nan
    last_set_size: int = 0
    converged: bool = False


@dataclass
class ConvergenceTrace:
    ks: list = field(default_factory=list)
    rel_error: list = field(default_factory=list)
    bregman_dist: list = field(default_factory=list)
    quantile: list = field(default_factory=list)
    set_size: list = field(default_factory=list)
    elapsed: list = field(default_factory=list)

    def append(self, k, rel, dist, q, size, secs):
        self.ks.append(k)
        self.rel_error.append(rel)
        self.bregman_dist.append(dist)
        self.quantile.append(q)
        self.set_size.append(size)
        self.elapsed.append(secs)


def zero_state(n):
    return IterateState(x=np.zeros(n), x_star=np.zeros(n))


class WordStream:
    """The 64-bit words of a bit generator, handed out one at a time in
    stream order and drawn from it in blocks.

    `integers(0, 2**64, dtype=np.uint64)` returns the next word, the one a
    Generator over the same bit generator would return for that call, so
    sample_index takes either; a word costs a step through a list instead
    of a numpy call.  The bit generator is read ahead by up to one block.
    """

    def __init__(self, bit_generator):
        self._raw = bit_generator.random_raw
        self._words = iter(())

    def integers(self, low, high, dtype=None):
        if low != 0 or high != _WORD_RANGE:
            raise ValueError("a WordStream draws whole 64-bit words only")
        word = next(self._words, None)
        if word is None:
            self._words = iter(self._raw(_WORD_BLOCK).tolist())
            word = next(self._words)
        return word


def sample_index(sampler, pool):
    """Uniform element of `pool` via rejection sampling on 64-bit words.

    The words come from `sampler.integers(0, 2**64, dtype=np.uint64)`: run
    passes a WordStream, and a Generator over the same PCG64 state draws
    the same words, one numpy call each.
    """
    n = pool.shape[0]
    limit = (_WORD_RANGE // n) * n
    while True:
        word = int(sampler.integers(0, _WORD_RANGE, dtype=np.uint64))
        if word < limit:
            return int(pool[word % n])


def step_single(state, instance, config, sampler):
    """One single-row iteration (Algorithm-1 style), mutating nothing.

    With the quantile on: threshold at the residual q-quantile, sample
    uniformly from the acceptable set.  With it off: sample uniformly over
    all rows, skipping the residual sweep.
    """
    A, b = instance.A, instance.b_observed
    m = A.shape[0]
    if config.quantile_q is not None:
        abs_res = np.abs(matrices.support_residuals(A, state.x, b))
        Q = quantiles.q_quantile(abs_res, config.quantile_q)
        pool = quantiles.acceptable_set(abs_res, Q, strict=False)
    else:
        Q = np.nan
        pool = np.arange(m)
    i = sample_index(sampler, pool)
    # a contiguous copy of the row: A is column-major, and the dot products
    # below then sum in the same order whatever A's layout
    a_i = np.ascontiguousarray(A[i])
    if config.method == "single-row-exact":
        t = bregman.exact_step(state.x_star, a_i, b[i], config.lam)
    else:
        t = float(np.dot(a_i, state.x)) - b[i]
    x_star = state.x_star - t * a_i
    return _advance(state, x_star, config.lam, Q, pool.shape[0])


def step_averaged_block(state, instance, config):
    """One averaged-block iteration: weighted mean of row corrections.

    The acceptable set uses a strict comparison against the quantile, so it
    is empty when every residual ties.  If they all tie at zero (within
    _ZERO_RES_TOL relative to b) the system is solved: the state comes back
    unchanged, marked converged.  Any other empty set raises
    EmptyAcceptableSet.
    """
    A, b = instance.A, instance.b_observed
    res = matrices.support_residuals(A, state.x, b)
    abs_res = np.abs(res)
    Q = quantiles.q_quantile(abs_res, config.quantile_q)
    try:
        T = quantiles.acceptable_set(abs_res, Q, strict=True)
    except EmptyAcceptableSet:
        if not abs_res.max() <= _ZERO_RES_TOL * (1.0 + np.abs(b).max()):
            raise
        return replace(state, converged=True)
    eta = T.shape[0]
    w = resolve_stepsize(config.stepsize, A.shape[1])
    # scatter the weighted residuals into a zero m-vector instead of copying
    # A[T]: A.T @ v streams A once, with no gather
    v = np.zeros(A.shape[0])
    v[T] = w * res[T]
    x_star = state.x_star - matrices._dense_product(A, v, transposed=True) / eta
    return _advance(state, x_star, config.lam, Q, eta)


def _advance(state, x_star, lam, Q, set_size):
    """The state one iteration on from `state`, with x = S_lam(x*)."""
    return IterateState(bregman.soft_shrink(x_star, lam), x_star, state.k + 1,
                        Q, set_size)


def run(instance, config, record_bregman=True):
    """Iterate from x0 = x0* = 0; returns (final state, trace).

    Stops at max_iters or once the state is converged: the averaged-block
    step marks it so when all residuals are zero, and run when the relative
    error reaches stop_tol (needs x_hat).  Raises ZeroGroundTruth before the
    first iteration if x_hat is given and zero, and Diverged as soon as the
    iterate, or a relative error or Bregman distance it records, is not
    finite; the overflow on the way there is reported by that error alone,
    not by numpy warnings.  The trace records every trace_every-th
    iteration and the final one, each once.
    """
    config.validate()
    A = instance.A
    x_hat = instance.x_hat
    if config.stop_tol is not None and x_hat is None:
        raise MissingGroundTruth("stop_tol needs a ground truth")
    if x_hat is not None:
        norm_hat = float(np.linalg.norm(x_hat))
        if norm_hat == 0.0:     # every relative error divides by it
            raise ZeroGroundTruth("the ground truth x_hat has norm 0")
        f_hat = bregman.f_value(x_hat, config.lam)

    quantile_bound = None
    if config.check_quantile_bound:
        sigma_max = float(np.linalg.svd(A, compute_uv=False)[0])
        quantile_bound = theory.lemma31_bound(instance, config.quantile_q, sigma_max)

    sampler = WordStream(np.random.PCG64(config.seed))
    state = zero_state(A.shape[1])
    trace = ConvergenceTrace()
    start = time.perf_counter()

    def rel_error(x):
        # the 2-norm as np.linalg.norm computes it for a 1-D array
        d = x - x_hat
        return math.sqrt(d.dot(d)) / norm_hat

    def record(st, rel):
        dist = None
        if x_hat is not None:
            rel = rel_error(st.x) if rel is None else rel
            if record_bregman:
                dist = bregman.bregman_distance(
                    st.x, st.x_star, x_hat, config.lam, validate=False, f_y=f_hat
                )
            if not (math.isfinite(rel) and (dist is None or math.isfinite(dist))):
                raise Diverged(st.k)
        trace.append(st.k, rel, dist, st.last_quantile, st.last_set_size,
                     time.perf_counter() - start)

    with np.errstate(over="ignore", invalid="ignore"):
        while not state.converged and state.k < config.max_iters:
            if quantile_bound is not None:
                # Lemma 3.1 at the iterate whose residuals the step filters
                bound = quantile_bound(state.x)
            if config.method == "averaged-block":
                state = step_averaged_block(state, instance, config)
            else:
                state = step_single(state, instance, config, sampler)
            if not np.isfinite(state.x).all():
                raise Diverged(state.k)
            if quantile_bound is not None and not state.converged \
                    and state.last_quantile > bound + 1e-9:
                raise AssertionError(
                    f"residual quantile {state.last_quantile} exceeds bound "
                    f"{bound} at iteration {state.k}"
                )

            rel = None if config.stop_tol is None else rel_error(state.x)
            if rel is not None and rel <= config.stop_tol:
                state.converged = True
            # a zero-residual stop hands back the last iteration, which may
            # be recorded already
            if (state.converged or state.k % config.trace_every == 0
                    or state.k == config.max_iters) and (
                    not state.converged or trace.ks[-1:] != [state.k]):
                record(state, rel)
    return state, trace


def median_of_trials(instance_for_trial, config, trials):
    """Componentwise-median relative-error trace over seeded trials.

    Trial j runs with seed config.seed + j on instance_for_trial(j) (pass a
    constant function to reuse one instance).  stop_tol is ignored, so the
    trials share one trace grid, that of the trial that ran longest; an
    even trial count takes the mean of the two middle values.  A trial that
    reached the averaged-block zero-residual stop earlier counts with its
    last record at every later k: its converged state is a fixed point of
    the step.
    """
    if trials < 1:
        raise ConfigInvalid("trials must be >= 1")
    config.validate()   # before its stop_tol is dropped
    base = replace(config, stop_tol=None)
    traces = []
    for j in range(trials):
        inst = instance_for_trial(j)
        _, tr = run(inst, replace(base, seed=config.seed + j), record_bregman=False)
        traces.append(tr)
    ks = max((t.ks for t in traces), key=lambda grid: grid[-1])
    # each trial's last record at or before every k of the grid
    at = [np.searchsorted(t.ks, ks, side="right") - 1 for t in traces]
    rel, quantile, size, secs = (
        np.median([np.asarray(getattr(t, column), dtype=float)[i]
                   for t, i in zip(traces, at)], axis=0)
        for column in ("rel_error", "quantile", "set_size", "elapsed"))
    return ConvergenceTrace(list(ks), rel.tolist(), [None] * rel.size,
                            quantile.tolist(), size.astype(int).tolist(), secs.tolist())
