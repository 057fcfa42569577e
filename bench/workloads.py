"""The benchmark's workloads and the checks on their outputs.

Every workload is a closed loop in one process: trial j starts after trial
j-1 has finished.  Trial j's instance seed is derived from the workload
seed and j, so the same seed gives the same inputs.
"""

import contextlib
import csv
import functools
import io
import math
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from qkaczmarz import cli, instances, solvers

BETA, CORRUPTION, NOISE = 0.2, 100.0, 0.02
Q, LAM = 0.7, 1.0
STEPSIZE = {"quantile-raska": "1.5n"}
EXACT_ROW_TOL = 1e-12


@dataclass(frozen=True)
class Size:
    m: int
    n: int
    s: int
    methods: tuple          # ((CLI method name, iteration budget), ...)
    min_trials: int         # every run makes at least this many trials
    trace_trials: int       # ... and a traced run at least this many
    tol: float              # relative error read for solvers.iters_to_tol
    tol_method: str         # engine whose solves iters_to_tol is read from
    # (engine, budget) -> largest final relative error accepted, below 1.0,
    # the error of x = 0: 1.5 times the largest seen on the seed commit over
    # 200 instances (24 at paper width) of the workload's shape
    max_rel: dict = field(default_factory=dict)
    batch: int = 1          # instances per trial (paper-width)
    samples: int = 10       # spectral draws (cli-bundle)


def instance_seed(seed, j):
    return int(np.random.SeedSequence([seed, j]).generate_state(1)[0])


def exact_row_holds(instance, x):
    """The exact step's defining property, checked on the final iterate.

    A Bregman projection onto row i's hyperplane leaves <a_i, x> = b_i, so
    the last row used holds to rounding: on the seed commit the smallest
    |<a_i, x> - b_i| was at most 3e-18 of the largest |b_i|.  With x = 0 it
    is the smallest |b_i|, at least 1e-8 of the largest over 224 instances.
    """
    b = instance.b_observed
    return np.abs(instance.A @ x - b).min() <= EXACT_ROW_TOL * np.abs(b).max()


def engine_of(method):
    return cli.METHOD_TABLE[method][0]


def generator_spec(size, seed):
    return instances.GeneratorSpec(
        m=size.m, n=size.n, sparsity=size.s, beta=BETA,
        corruption_scale=CORRUPTION, noise_bound=NOISE, seed=seed,
    )


def solver_config(method, budget, seed, trace_every):
    return solvers.SolverConfig(
        method=engine_of(method), lam=LAM, quantile_q=Q,
        stepsize=STEPSIZE.get(method, 1.0), max_iters=budget, seed=seed,
        trace_every=trace_every,
    )


@dataclass
class Solve:
    """One call of solvers.run, summarised as it returns."""
    trial: int
    engine: str
    budget: int
    seconds: float
    iters: int
    rel_error: float
    iters_to_tol: int       # first recorded k at or below tol; budget+1 if never
    ok: bool
    traced: bool


class Recorder:
    """Samples, solves and failures of one measured loop."""

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.tracer = None      # set while a traced trial runs
        self.trial = 0
        self.trials = 0
        self.wall = 0.0
        self.setup_s = []       # one per instance built
        self.solve_s = []       # one per solve sample (see each workload)
        self.method_s = {}      # method -> seconds of one instance's solve
        # step name -> seconds, one per trial; a trial makes each of its
        # workload's steps once, checks included
        self.steps = {}
        # one per instance, first min_trials trials: the geometric mean over
        # the methods, whose errors differ by up to 100 times, so that each
        # method's relative change weighs the same
        self.rel_error = []
        self.solves = []
        self.attempted = 0
        self.failed = 0

    def report(self, what, detail=""):
        print(f"bench: trial {self.trial}: {what}\n{detail}".rstrip(), file=sys.stderr)

    def fail(self, what, detail=""):
        self.failed += 1
        self.report(what, detail)

    def step(self, name, fn, *args):
        """fn(*args) and its seconds, which are also added to step `name`."""
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            seconds = time.perf_counter() - start
            self.steps.setdefault(name, []).append(seconds)
        return result, seconds

    def add_method_s(self, method, seconds):
        self.method_s.setdefault(method, []).append(seconds)

    def keeps_rel_error(self):
        return self.trial < self.size.min_trials

    @contextlib.contextmanager
    def untraced(self):
        """Run the harness's own checks without recording spans."""
        if self.tracer is None:
            yield
            return
        self.tracer.active = False
        try:
            yield
        finally:
            self.tracer.active = True

    @contextlib.contextmanager
    def logging_solves(self):
        """Summarise every solvers.run call made while the block runs."""
        original = solvers.run
        size = self.size

        @functools.wraps(original)
        def run(instance, config, record_bregman=True):
            start = time.perf_counter()
            state, trace = original(instance, config, record_bregman)
            seconds = time.perf_counter() - start
            rels = np.array(trace.rel_error, dtype=float)
            finite = (np.isfinite(state.x).all() and np.isfinite(state.x_star).all()
                      and np.isfinite(rels).all())
            bound = size.max_rel.get((config.method, config.max_iters), math.inf)
            exact = (config.method != "single-row-exact" or state.k == 0
                     or exact_row_holds(instance, state.x))
            reached = np.flatnonzero(rels <= size.tol)
            self.solves.append(Solve(
                trial=self.trial, engine=config.method, budget=config.max_iters,
                seconds=seconds, iters=state.k,
                rel_error=float(rels[-1]),
                iters_to_tol=(trace.ks[reached[0]] if reached.size
                              else config.max_iters + 1),
                ok=bool(finite and rels[-1] <= bound and exact),
                traced=self.tracer is not None,
            ))
            return state, trace

        solvers.run = run
        try:
            yield
        finally:
            solvers.run = original

    def check_solves(self, solves, expected, what):
        """Count `expected` attempted solves; each missing or failed one fails."""
        self.attempted += expected
        for s in solves:
            if not s.ok:
                self.fail(f"{what}: {s.engine} failed its output check",
                          f"final rel_error {s.rel_error!r}")
        # a solve that raised was reported where it raised
        self.failed += expected - len(solves)
        return len(solves) == expected and all(s.ok for s in solves)


# ---------------------------------------------------------------------------
# desk-single-row: one generated instance per trial, solved by each method
# with solvers.run at the `qkaczmarz solve` defaults (trace every iteration,
# Bregman distance recorded).  A solve sample is the instance's total solve
# time over the methods.
# ---------------------------------------------------------------------------

def desk_trial(rec, j):
    size = rec.size
    seed = instance_seed(rec.seed, j)
    inst, secs = rec.step("setup", instances.generate_gaussian, generator_spec(size, seed))
    rec.setup_s.append(secs)
    first = len(rec.solves)
    for method, budget in size.methods:
        try:
            rec.step(method, solvers.run, inst,
                     solver_config(method, budget, seed, trace_every=1))
        except Exception:
            rec.report(f"{method} raised", traceback.format_exc())
    done = rec.solves[first:]
    if rec.check_solves(done, len(size.methods), "solve"):
        rec.solve_s.append(sum(s.seconds for s in done))
        for (method, _), s in zip(size.methods, done):
            rec.add_method_s(method, s.seconds)
        if rec.keeps_rel_error():
            rec.rel_error.append(statistics.geometric_mean(s.rel_error for s in done))


# ---------------------------------------------------------------------------
# paper-width: `batch` generated instances per trial, each method run over
# them by solvers.median_of_trials (the experiment presets' path: no Bregman
# record, trace_every = budget // 200).  A solve sample is one instance's
# total solve time over the methods.
# ---------------------------------------------------------------------------

def paper_trial(rec, j):
    size = rec.size
    batch = []
    for t in range(size.batch):
        spec = generator_spec(size, instance_seed(rec.seed, j * size.batch + t))
        inst, secs = rec.step(f"setup.{t}", instances.generate_gaussian, spec)
        rec.setup_s.append(secs)
        batch.append(inst)
    first = len(rec.solves)
    seed = instance_seed(rec.seed, j * size.batch)
    for method, budget in size.methods:
        config = solver_config(method, budget, seed, trace_every=max(1, budget // 200))
        try:
            rec.step(method, solvers.median_of_trials,
                     lambda t: batch[t], config, size.batch)
        except Exception:
            rec.report(f"{method} raised", traceback.format_exc())
    done = rec.solves[first:]
    if rec.check_solves(done, len(size.methods) * size.batch, "median_of_trials"):
        # solves come method by method, instance by instance within a method
        for i, (method, _) in enumerate(size.methods):
            for s in done[i * size.batch:(i + 1) * size.batch]:
                rec.add_method_s(method, s.seconds)
        for t in range(size.batch):
            per_instance = done[t::size.batch]
            rec.solve_s.append(sum(s.seconds for s in per_instance))
            if rec.keeps_rel_error():
                rec.rel_error.append(statistics.geometric_mean(s.rel_error for s in per_instance))


# ---------------------------------------------------------------------------
# cli-bundle: the file-based journey through qkaczmarz.cli.main, in process:
# generate a bundle, sampled spectral report, one solve per method from the
# bundle with a trace CSV, then experiment qbeta-grid.  A solve sample is
# one `solve` command.
# ---------------------------------------------------------------------------

def _cli(argv):
    """Run one CLI command in process; returns (exit code, seconds, output)."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main([str(a) for a in argv])
    return code, time.perf_counter() - start, out.getvalue()


def _csv_rows(path):
    with open(path) as fh:
        return [row for row in csv.reader(fh) if row and not row[0].startswith("#")]


def _same_bits(a, b):
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _bundle_matches(bundle, spec):
    loaded = instances.load_bundle(bundle)
    made = instances.generate_gaussian(spec)
    arrays = ("A", "b_clean", "b_corrupt", "noise", "b_observed", "x_hat",
              "corruption_indices")
    scalars = ("beta", "corruption_scale", "noise_bound", "seed")
    return (all(_same_bits(getattr(loaded, k), getattr(made, k)) for k in arrays)
            and all(getattr(loaded, k) == getattr(made, k) for k in scalars))


def _spectral_finite(path):
    header, values = _csv_rows(path)
    numeric = [v for k, v in zip(header, values)
               if k not in ("mode", "condition2", "condition_corrupted")]
    return all(math.isfinite(float(v)) for v in numeric)


def cli_trial(rec, j):
    size = rec.size
    seed = instance_seed(rec.seed, j)
    work = rec.workdir
    bundle = os.path.join(work, "bundle")

    def checked(what, argv, check):
        rec.attempted += 1
        first = len(rec.solves)
        try:
            code, secs, output = _cli(argv)
        except Exception:
            rec.fail(f"{what} raised", traceback.format_exc())
            return None
        solves = rec.solves[first:]
        with rec.untraced():
            try:
                ok = code == 0 and all(s.ok for s in solves) and check()
            except (OSError, ValueError):
                ok = False
                output += traceback.format_exc()
        if not ok:
            rec.fail(f"{what} failed (exit {code})", output)
            return None
        return secs, solves

    def command(what, argv, check):
        # the step's time covers the command and its checks
        return rec.step(what, checked, what, argv, check)[0]

    spec = generator_spec(size, seed)
    done = command(
        "generate",
        ["generate", "--m", size.m, "--n", size.n, "--s", size.s, "--beta", BETA,
         "--corruption", CORRUPTION, "--noise", NOISE, "--seed", seed,
         "--out", bundle],
        lambda: _bundle_matches(bundle, spec))
    if done is None:
        return
    rec.setup_s.append(done[0])

    spectral_dir = os.path.join(work, "spectral")
    command("spectral",
            ["spectral", "--instance", bundle, "--q", Q, "--sampled",
             "--samples", size.samples, "--seed", seed, "--out", spectral_dir],
            lambda: _spectral_finite(os.path.join(spectral_dir, "spectral.csv")))

    rels = []
    for method, budget in size.methods:
        trace = os.path.join(work, f"trace_{method}.csv")
        argv = ["solve", "--instance", bundle, "--method", method,
                "--iters", budget, "--seed", seed, "--trace", trace]
        if method in STEPSIZE:
            argv += ["--w", STEPSIZE[method]]
        done = command(f"solve {method}", argv,
                       lambda: len(_csv_rows(trace)) == budget + 1)
        if done is not None:
            rec.solve_s.append(done[0])
            rec.add_method_s(method, done[0])
            rels.extend(s.rel_error for s in done[1])

    qbeta_dir = os.path.join(work, "qbeta")
    command("experiment qbeta-grid",
            ["experiment", "qbeta-grid", "--trials", 1,
             "--seed", seed, "--out", qbeta_dir],
            # header plus one row per q in 0.1, ..., 1.0
            lambda: len(_csv_rows(os.path.join(qbeta_dir, "summary.csv"))) == 11)

    if len(rels) == len(size.methods) and rec.keeps_rel_error():
        rec.rel_error.append(statistics.geometric_mean(rels))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    trial: object
    full: Size
    smoke: Size
    solves_per_trial: int   # solve samples one trial adds


DESK = dict(m=2000, n=100, s=10)
PAPER = dict(m=10000, n=500, s=40)

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="desk-single-row",
            why="2000x100, cache-resident A: per-iteration stages and Python "
                "overhead of the single-row RaSK and ERaSK solves dominate",
            trial=desk_trial,
            full=Size(**DESK, methods=(("quantile-rask", 600), ("quantile-erask", 200)),
                      min_trials=100, trace_trials=10, tol=0.4,
                      tol_method="single-row-inexact",
                      max_rel={("single-row-inexact", 600): 0.7,
                               ("single-row-exact", 200): 0.8}),
            smoke=Size(m=200, n=20, s=3, methods=(("quantile-rask", 40), ("quantile-erask", 20)),
                       min_trials=2, trace_trials=2, tol=0.9,
                       tol_method="single-row-inexact"),
            solves_per_trial=1,
        ),
        Workload(
            name="paper-width",
            why="10000x500, 40 MB A streamed every iteration: residual matvec, "
                "RaSKA block update and the n=500 exact step dominate",
            trial=paper_trial,
            full=Size(**PAPER, methods=(("quantile-raska", 12), ("quantile-erask", 12)),
                      min_trials=14, trace_trials=2, tol=0.05,
                      tol_method="averaged-block", batch=3,
                      # 12 ERaSK iterations leave the error near 1.0 at
                      # n=500, so only exact_row_holds checks that solver
                      max_rel={("averaged-block", 12): 0.05}),
            smoke=Size(m=400, n=40, s=4, methods=(("quantile-raska", 4), ("quantile-erask", 4)),
                       min_trials=1, trace_trials=1, tol=0.9,
                       tol_method="averaged-block", batch=2),
            solves_per_trial=3,
        ),
        Workload(
            name="cli-bundle",
            why="file-based CLI journey: Matrix Market bundle write and reads, "
                "sampled spectral draws, trace CSVs and the trial runner",
            trial=cli_trial,
            full=Size(**DESK, methods=(("quantile-rask", 600), ("quantile-erask", 200),
                                       ("quantile-raska", 100)),
                      min_trials=8, trace_trials=2, tol=0.4,
                      tol_method="single-row-inexact",
                      max_rel={("single-row-inexact", 600): 0.7,
                               ("single-row-exact", 200): 0.8,
                               ("averaged-block", 100): 0.05}),
            smoke=Size(m=200, n=20, s=3, methods=(("quantile-rask", 20), ("quantile-erask", 10),
                                                  ("quantile-raska", 10)),
                       min_trials=1, trace_trials=1, tol=0.9,
                       tol_method="single-row-inexact", samples=2),
            solves_per_trial=3,
        ),
    )
}
