"""Command-line front end: generate | solve | experiment | spectral.

Exit codes: 0 success, 1 usage/config/IO error, 2 solve finished without
reaching --stop-tol.  Every command honours --seed and writes files
atomically, so repeated invocations are byte-identical; trace timings are
zeroed in files unless --timings is given (wall time goes to stdout).
"""

import argparse
import os
import shlex
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from . import instances, solvers, theory
from .errors import BudgetExceeded, QkzError

_FMT = "%.17g"

METHOD_TABLE = {
    # name: (engine method, quantile on, force lambda 0)
    "rk": ("single-row-inexact", False, True),
    "rask": ("single-row-inexact", False, False),
    "erask": ("single-row-exact", False, False),
    "quantile-rk": ("single-row-inexact", True, True),
    "quantile-rask": ("single-row-inexact", True, False),
    "quantile-erask": ("single-row-exact", True, False),
    "quantile-rka": ("averaged-block", True, True),
    "quantile-raska": ("averaged-block", True, False),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract reserves 2 for
    # "stop_tol not reached", so remap usage failures to exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(1) if not message else self._fail(message)

    def _fail(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(x):
    if x is None or (isinstance(x, float) and np.isnan(x)):
        return ""
    return _FMT % x


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_trace_csv(path, trace, timings=False):
    lines = ["k,rel_error,bregman_dist,quantile,set_size,elapsed_s"]
    for pos, k in enumerate(trace.ks):
        elapsed = trace.elapsed[pos] if timings else 0.0
        lines.append(
            ",".join(
                [
                    str(k),
                    _fmt(trace.rel_error[pos]),
                    _fmt(trace.bregman_dist[pos]),
                    _fmt(trace.quantile[pos]),
                    str(trace.set_size[pos]),
                    _fmt(elapsed),
                ]
            )
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def _add_common(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=".")
    p.add_argument("--config", help="key=value file; explicit flags override it")


def _add_generator_flags(p):
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--s", type=int, help="sparsity of the ground truth")
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--corruption", type=float, default=0.0,
                   help="corruption scale k: entries drawn from U(-k, k)")
    p.add_argument("--noise", type=float, default=0.0,
                   help="noise bound: entries drawn from U(-bound, bound)")


def build_parser():
    parser = _Parser(prog="qkaczmarz", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", parents=[], help="write an instance bundle")
    _add_common(g)
    _add_generator_flags(g)

    s = sub.add_parser("solve", help="run a solver, write a trace CSV")
    _add_common(s)
    _add_generator_flags(s)
    s.add_argument("--instance", help="instance bundle directory (else generate)")
    s.add_argument("--method", default="quantile-rask", choices=sorted(METHOD_TABLE))
    s.add_argument("--q", type=float, help="quantile level in (0, 1]")
    s.add_argument("--lambda", dest="lam", type=float, default=1.0)
    s.add_argument("--w", default="1.0", help="stepsize: constant or '1.7n'")
    s.add_argument("--iters", type=int, default=1000)
    s.add_argument("--trials", type=int, default=1)
    s.add_argument("--trace-every", type=int, default=1)
    s.add_argument("--stop-tol", type=float)
    s.add_argument("--timings", action="store_true",
                   help="write real wall times into the trace CSV")
    s.add_argument("--trace", default=None, help="trace CSV path")

    e = sub.add_parser("experiment", help="run a named experiment preset")
    _add_common(e)
    e.add_argument("preset", choices=["corruption-scale", "stepsize-sweep",
                                      "qbeta-grid", "method-compare", "realdata"])
    e.add_argument("--full", action="store_true",
                   help="paper-scale dimensions instead of desk-scale defaults")
    e.add_argument("--beta", type=float)
    e.add_argument("--n", help="comma-separated n values (stepsize-sweep)")
    e.add_argument("--trials", type=int)
    e.add_argument("--matrix", help="Matrix Market matrix (realdata)")
    e.add_argument("--xhat", help="Matrix Market ground truth (realdata)")
    e.add_argument("--timings", action="store_true")

    sp = sub.add_parser("spectral", help="spectral constants and rate report")
    _add_common(sp)
    sp.add_argument("--instance", required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, default=1.0)
    sp.add_argument("--sampled", action="store_true")
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--budget", type=int, default=theory.EXACT_BUDGET_DEFAULT)

    return parser


def _apply_config_file(args, parser, argv):
    if not args.config:
        return
    if not os.path.exists(args.config):
        parser._fail(f"config file {args.config!r} not found")
    explicit = {
        a.split("=", 1)[0].lstrip("-").replace("-", "_")
        for a in argv
        if a.startswith("--")
    }
    with open(args.config) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key in explicit or not hasattr(args, key):
                continue
            current = getattr(args, key)
            val = val.strip()
            if isinstance(current, bool):
                setattr(args, key, val.lower() in ("1", "true", "yes"))
            elif isinstance(current, int):
                setattr(args, key, int(val))
            elif isinstance(current, float):
                setattr(args, key, float(val))
            elif current is None:
                # unset optional flag: guess int, then float, else string
                for cast in (int, float, str):
                    try:
                        setattr(args, key, cast(val))
                        break
                    except ValueError:
                        continue
            else:
                setattr(args, key, val)


def _instance_from_args(args, parser, seed=None):
    if getattr(args, "instance", None):
        return instances.load_bundle(args.instance)
    if args.m is None or args.n is None or args.s is None:
        parser._fail("need --instance or all of --m/--n/--s")
    spec = instances.GeneratorSpec(
        m=args.m, n=args.n, sparsity=args.s, beta=args.beta,
        corruption_scale=args.corruption, noise_bound=args.noise,
        seed=args.seed if seed is None else seed,
    )
    return instances.generate_gaussian(spec)


def cmd_generate(args, parser):
    inst = _instance_from_args(args, parser)
    instances.save_bundle(inst, args.out)
    n_corrupt = inst.corruption_indices.size
    r_inf = float(np.abs(inst.noise).max(initial=0.0))
    print(f"seed={inst.seed} m={inst.m} n={inst.n} "
          f"corrupted_rows={n_corrupt} noise_inf={_fmt(r_inf)}")
    return 0


def _solver_config(args, quantile_default=0.7):
    engine, quantile_on, force_zero_lam = METHOD_TABLE[args.method]
    q = args.q if args.q is not None else (quantile_default if quantile_on else None)
    if not quantile_on:
        q = None
    return solvers.SolverConfig(
        method=engine,
        lam=0.0 if force_zero_lam else args.lam,
        quantile_q=q,
        stepsize=args.w,
        max_iters=args.iters,
        seed=args.seed,
        trace_every=args.trace_every,
        stop_tol=args.stop_tol,
    )


def cmd_solve(args, parser):
    inst = _instance_from_args(args, parser)
    config = _solver_config(args)
    start = time.perf_counter()
    if args.trials > 1:
        trace = solvers.median_of_trials(lambda j: inst, config, args.trials)
        reached = True if config.stop_tol is None else (
            trace.rel_error[-1] is not None
            and trace.rel_error[-1] <= config.stop_tol
        )
        final_rel = trace.rel_error[-1]
        iters = trace.ks[-1]
    else:
        state, trace = solvers.run(inst, config)
        reached = config.stop_tol is None or state.converged
        final_rel = trace.rel_error[-1]
        iters = state.k
    wall = time.perf_counter() - start
    path = args.trace or os.path.join(args.out, f"trace_{args.method}.csv")
    write_trace_csv(path, trace, timings=args.timings)
    print(f"method={args.method} iters={iters} "
          f"rel_error={_fmt(final_rel)} wall_s={wall:.3f} trace={path}")
    return 0 if reached else 2


# ---------------------------------------------------------------------------
# Experiment presets.  Desk-scale defaults keep the whole suite fast; --full
# restores the published dimensions (m = 10000 and 100 trials).
# ---------------------------------------------------------------------------

def _median_trace(spec_for_trial, config, trials, jobs=1):
    if jobs <= 1:
        return solvers.median_of_trials(
            lambda j: instances.generate_gaussian(spec_for_trial(j)), config, trials
        )
    base = replace(config, stop_tol=None)

    def one(j):
        inst = instances.generate_gaussian(spec_for_trial(j))
        _, tr = solvers.run(inst, replace(base, seed=config.seed + j),
                            record_bregman=False)
        return tr

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        traces = list(pool.map(one, range(trials)))
    out = solvers.ConvergenceTrace()
    for pos, k in enumerate(traces[0].ks):
        rels = np.array([t.rel_error[pos] for t in traces], dtype=float)
        out.append(k, float(np.median(rels)), None,
                   float(np.median([t.quantile[pos] for t in traces])),
                   int(np.median([t.set_size[pos] for t in traces])), 0.0)
    return out


def _summary_csv(path, header, rows):
    cmd = "# cmd: " + " ".join(shlex.quote(a) for a in sys.argv)
    lines = [cmd, ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _first_k_below(trace, level):
    for k, rel in zip(trace.ks, trace.rel_error):
        if rel is not None and rel <= level:
            return k
    return None


def cmd_experiment(args, parser):
    os.makedirs(args.out, exist_ok=True)
    full = args.full
    trials = args.trials if args.trials is not None else (100 if full else 21)
    preset = args.preset
    seed = args.seed

    if preset == "corruption-scale":
        m, n, s = (10000, 500, 40) if full else (2000, 100, 10)
        beta = args.beta if args.beta is not None else 0.2
        rows = []
        jobs = []
        for k in (1.0, 10.0, 100.0):
            for method, iters, w in (
                ("quantile-erask", 20000 if full else 8000, "1.0"),
                ("quantile-raska", 200, "1.5n"),
            ):
                jobs.append((k, method, iters, w))

        def run_point(point):
            k, method, iters, w = point
            engine, _, _ = METHOD_TABLE[method]
            config = solvers.SolverConfig(
                method=engine, lam=1.0, quantile_q=0.7, stepsize=w,
                max_iters=iters, seed=seed, trace_every=max(1, iters // 200),
            )
            spec = lambda j: instances.GeneratorSpec(
                m=m, n=n, sparsity=s, beta=beta, corruption_scale=k,
                noise_bound=0.02, seed=seed + 1000 * j,
            )
            trace = _median_trace(spec, config, trials)
            write_trace_csv(
                os.path.join(args.out, f"trace_{method}_k{int(k)}.csv"),
                trace, timings=args.timings,
            )
            return (method, k, _first_k_below(trace, 5e-2) or -1,
                    trace.rel_error[-1])

        rows = _map_jobs(run_point, jobs, args.jobs)
        _summary_csv(os.path.join(args.out, "summary.csv"),
                     ["method", "corruption_scale", "iters_to_5e-2", "final_rel_error"],
                     rows)

    elif preset == "stepsize-sweep":
        m = 10000 if full else 2000
        ns = [int(t) for t in args.n.split(",")] if args.n else (
            [100, 200, 300, 400] if full else [50, 100])
        beta = args.beta if args.beta is not None else 0.2
        coeffs = [round(0.2 * i, 1) for i in range(1, 16)]
        record_at = 20

        def run_point(point):
            n, coeff = point
            config = solvers.SolverConfig(
                method="averaged-block", lam=1.0, quantile_q=0.7,
                stepsize=f"{coeff}n", max_iters=record_at, seed=seed,
                trace_every=record_at,
            )
            spec = lambda j: instances.GeneratorSpec(
                m=m, n=n, sparsity=10, beta=beta, corruption_scale=100.0,
                noise_bound=0.0, seed=seed + 1000 * j,
            )
            trace = _median_trace(spec, config, trials)
            return (n, coeff, trace.rel_error[-1])

        rows = _map_jobs(run_point, [(n, c) for n in ns for c in coeffs], args.jobs)
        best = {}
        for n, coeff, err in rows:
            if n not in best or err < best[n][1]:
                best[n] = (coeff, err)
        out_rows = [(n, coeff, err, best[n][0]) for n, coeff, err in rows]
        _summary_csv(os.path.join(args.out, "summary.csv"),
                     ["n", "w_over_n", "rel_error_at_20", "best_w_over_n"],
                     out_rows)

    elif preset == "qbeta-grid":
        m, n = (10000, 200) if full else (2000, 100)
        beta = args.beta if args.beta is not None else 0.2
        record_at = 40

        def run_point(q):
            config = solvers.SolverConfig(
                method="averaged-block", lam=1.0, quantile_q=q,
                stepsize="1.7n", max_iters=record_at, seed=seed,
                trace_every=record_at,
            )
            spec = lambda j: instances.GeneratorSpec(
                m=m, n=n, sparsity=10, beta=beta, corruption_scale=100.0,
                noise_bound=0.02, seed=seed + 1000 * j,
            )
            trace = _median_trace(spec, config, trials)
            return (q, trace.rel_error[-1])

        grid = [round(0.1 * i, 1) for i in range(1, 11)]
        rows = _map_jobs(run_point, grid, args.jobs)
        best_q = min(rows, key=lambda r: r[1])[0]
        _summary_csv(os.path.join(args.out, "summary.csv"),
                     ["q", f"rel_error_at_{record_at}", "best_q"],
                     [(q, err, best_q) for q, err in rows])
        print(f"best_q={best_q}")

    elif preset == "method-compare":
        m, n, s = (2000, 200, 10) if full else (2000, 100, 10)
        beta = args.beta if args.beta is not None else 0.2

        def run_point(method):
            engine, _, force_zero = METHOD_TABLE[method]
            iters = 3000 if engine == "averaged-block" else 20000
            config = solvers.SolverConfig(
                method=engine, lam=0.0 if force_zero else 1.0, quantile_q=0.7,
                stepsize="1.7n" if engine == "averaged-block" else "1.0",
                max_iters=iters, seed=seed, trace_every=max(1, iters // 500),
            )
            spec = lambda j: instances.GeneratorSpec(
                m=m, n=n, sparsity=s, beta=beta, corruption_scale=100.0,
                noise_bound=0.0, seed=seed + 1000 * j,
            )
            trace = _median_trace(spec, config, trials)
            write_trace_csv(os.path.join(args.out, f"trace_{method}.csv"),
                            trace, timings=args.timings)
            return (method, _first_k_below(trace, 1e-2) or -1,
                    trace.rel_error[-1])

        rows = _map_jobs(run_point,
                         ["quantile-rka", "quantile-erask", "quantile-raska"],
                         args.jobs)
        _summary_csv(os.path.join(args.out, "summary.csv"),
                     ["method", "iters_to_1e-2", "final_rel_error"], rows)

    elif preset == "realdata":
        if not args.matrix or not args.xhat:
            parser._fail("realdata needs --matrix and --xhat")
        beta = args.beta if args.beta is not None else 0.2
        inst = instances.from_files(
            args.matrix, x_hat_path=args.xhat, beta=beta,
            corruption_scale=100.0, noise_bound=0.02, seed=seed,
        )
        rows = []
        for method in ("quantile-rka", "quantile-erask", "quantile-raska"):
            engine, _, force_zero = METHOD_TABLE[method]
            iters = 500 if engine == "averaged-block" else 20000
            config = solvers.SolverConfig(
                method=engine, lam=0.0 if force_zero else 1.0, quantile_q=0.7,
                stepsize="1.0n" if engine == "averaged-block" else "1.0",
                max_iters=iters, seed=seed, trace_every=max(1, iters // 500),
            )
            _, trace = solvers.run(inst, config)
            write_trace_csv(os.path.join(args.out, f"trace_{method}.csv"),
                            trace, timings=args.timings)
            rows.append((method, trace.rel_error[-1]))
        _summary_csv(os.path.join(args.out, "summary.csv"),
                     ["method", "final_rel_error"], rows)

    return 0


def _map_jobs(fn, points, jobs):
    if jobs <= 1:
        return [fn(p) for p in points]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, points))


def cmd_spectral(args, parser):
    inst = instances.load_bundle(args.instance)
    mode = "sampled" if args.sampled else "exact"
    try:
        report = theory.spectral_constants(
            inst.A, args.q, inst.beta, mode=mode, budget=args.budget,
            samples=args.samples, seed=args.seed,
        )
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: rerun with --sampled", file=sys.stderr)
        return 1
    pairs = [
        ("mode", report.mode),
        ("samples", report.samples),
        ("row_subset_size", report.row_subset_size),
        ("sigma_max", _fmt(report.sigma_max)),
        ("sigma_min", _fmt(report.sigma_min)),
        ("sigma_tilde_min", _fmt(report.sigma_tilde_min)),
        ("sigma_q_beta_min_rowcol", _fmt(report.sigma_q_beta_min_rowcol)),
        ("sigma_q_beta_min_rows", _fmt(report.sigma_q_beta_min_rows)),
    ]
    if inst.x_hat is not None:
        consts = theory.theorem_constants(report, inst, args.q, args.lam)
        pairs += [
            ("alpha", _fmt(consts.alpha)),
            ("kappa_tilde", _fmt(consts.kappa_tilde)),
            ("gamma", _fmt(consts.gamma)),
            ("C1", _fmt(consts.C1)),
            ("C2", _fmt(consts.C2)),
            ("condition2", str(consts.condition2_holds).lower()),
            ("C", _fmt(consts.C)),
            ("condition_corrupted", str(consts.condition_corrupted_holds).lower()),
        ]
        if not consts.condition2_holds:
            print("warning: convergence condition (noisy case) fails",
                  file=sys.stderr)
        if not consts.condition_corrupted_holds:
            print("warning: convergence condition (corrupted case) fails",
                  file=sys.stderr)
    for key, val in pairs:
        print(f"{key}={val}")
    csv_path = os.path.join(args.out, "spectral.csv")
    _summary_csv(csv_path, [k for k, _ in pairs], [tuple(v for _, v in pairs)])
    return 0


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    _apply_config_file(args, parser, argv)
    handlers = {
        "generate": cmd_generate,
        "solve": cmd_solve,
        "experiment": cmd_experiment,
        "spectral": cmd_spectral,
    }
    try:
        return handlers[args.command](args, parser)
    except QkzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
