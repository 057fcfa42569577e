"""Command-line front end: generate | solve | experiment | spectral.

Exit codes: 0 success, 1 usage/config/IO error, 2 solve finished without
reaching --stop-tol.  Every command honours --seed, so repeated invocations
are byte-identical for one numpy/OpenBLAS version, OpenBLAS kernel and BLAS
thread count; trace timings are zeroed in files unless --timings is given
(wall time goes to stdout).  Every file is written beside its target and
moved into place.
"""

import argparse
import dataclasses
import os
import shlex
import sys
import time
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from . import instances, matrices, solvers, theory
from .errors import BudgetExceeded, QkzError

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
        self._fail(message)

    def _fail(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _cell(v):
    """A value as CSV or stdout text: floats by matrices.FMT, None and NaN
    empty, booleans lowercase."""
    if isinstance(v, float):
        return "" if np.isnan(v) else matrices.FMT % v
    if v is None:
        return ""
    return str(v).lower() if isinstance(v, bool) else str(v)


def write_trace_csv(path, trace, timings=False):
    elapsed = trace.elapsed if timings else [0.0] * len(trace.ks)
    rows = zip(trace.ks, trace.rel_error, trace.bregman_dist, trace.quantile,
               trace.set_size, elapsed)
    with matrices.write_atomic(path) as fh:
        fh.write("k,rel_error,bregman_dist,quantile,set_size,elapsed_s\n")
        fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)


def _add_common(p):
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--out", default=".")
    p.add_argument("--config", help="key=value file; explicit flags override it")


def _add_generator_flags(p):
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--s", type=int, help="sparsity of the ground truth")
    p.add_argument("--beta", type=float, help="corrupted fraction (default 0)")
    p.add_argument("--corruption", type=float,
                   help="corruption scale k: entries drawn from U(-k, k) (default 0)")
    p.add_argument("--noise", type=float,
                   help="noise bound: entries drawn from U(-bound, bound) (default 0)")


_GENERATOR_FLAGS = ("m", "n", "s", "beta", "corruption", "noise")


def _int_list(text):
    return [int(t) for t in text.split(",")]


def _at_least(low):
    """argparse type of an integer >= low: counts take 1, seeds 0 (as PCG64)."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value
    return integer


def build_parser():
    parser = _Parser(prog="qkaczmarz", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

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
    s.add_argument("--trials", type=_at_least(1), default=1)
    s.add_argument("--trace-every", type=int, default=1)
    s.add_argument("--stop-tol", type=float)
    s.add_argument("--timings", action="store_true",
                   help="write real wall times into the trace CSV")
    s.add_argument("--trace", default=None, help="trace CSV path")

    e = sub.add_parser("experiment", help="run a named experiment preset")
    _add_common(e)
    e.add_argument("preset", choices=list(PRESETS))
    e.add_argument("--jobs", type=_at_least(1), default=1,
                   help="threads that run the preset's points")
    e.add_argument("--full", action="store_true",
                   help="paper-scale dimensions instead of desk-scale defaults")
    e.add_argument("--beta", type=float, default=0.2)
    e.add_argument("--n", type=_int_list,
                   help="comma-separated n values (stepsize-sweep)")
    e.add_argument("--trials", type=_at_least(1),
                   help="trials per generated point: default 21, or 100 with --full")
    e.add_argument("--matrix", help="Matrix Market matrix (realdata)")
    e.add_argument("--xhat", help="Matrix Market ground truth (realdata)")
    e.add_argument("--timings", action="store_true")

    sp = sub.add_parser("spectral", help="spectral constants and rate report")
    _add_common(sp)
    sp.add_argument("--instance", required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, default=1.0)
    sp.add_argument("--sampled", action="store_true")
    sp.add_argument("--samples", type=_at_least(1), default=10000)

    return parser


_SWITCH_WORDS = {"1": True, "true": True, "yes": True,
                 "0": False, "false": False, "no": False}


def _config_defaults(path, command, parser):
    """Defaults for `command` from a key=value file.

    A key is an option's long name or its dest (`lambda` or `lam`, with `-`
    and `_` alike); each value is converted by the option's own type.
    """
    if not os.path.exists(path):
        parser._fail(f"config file {path!r} not found")
    actions = {}
    for action in command._actions:
        if action.option_strings and action.dest != "help":
            for name in [action.dest] + [o[2:] for o in action.option_strings]:
                actions[name.replace("-", "_")] = action
    defaults = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, text = (part.strip() for part in line.partition("="))
            action = actions.get(key.replace("-", "_"))
            if action is None:
                parser._fail(f"config file {path!r}: unknown key {key!r}")
            try:
                if action.nargs == 0:   # store_true flags
                    value = _SWITCH_WORDS.get(text.lower())
                else:
                    value = (action.type or str)(text)
            except (ValueError, argparse.ArgumentTypeError):
                value = None
            if value is None or (action.choices and value not in action.choices):
                parser._fail(f"config file {path!r}: bad value {text!r} for {key!r}")
            defaults[action.dest] = value
    return defaults


_PATH_DESTS = ("out", "instance", "matrix", "xhat", "config", "trace")


def _option_dest(command, word):
    """Dest of a long option as argparse resolves it: exact or unique prefix."""
    actions = command._option_string_actions
    if word in actions:
        return actions[word].dest
    hits = {a.dest for o, a in actions.items()
            if word.startswith("--") and o.startswith(word)}
    return hits.pop() if len(hits) == 1 else None


def _command_line(command, args, argv):
    """`qkaczmarz` and argv, with path values relative to --out and without
    --jobs, so that runs into different directories or on more threads
    record the same line."""
    words = ["qkaczmarz"]
    for prev, word in zip([""] + argv, argv):
        option, eq, value = word.partition("=")
        prev_dest, dest = _option_dest(command, prev), _option_dest(command, option)
        if "jobs" in (prev_dest, dest):
            continue
        if prev_dest in _PATH_DESTS:
            word = os.path.relpath(word, args.out)
        elif eq and dest in _PATH_DESTS:
            word = f"{option}={os.path.relpath(value, args.out)}"
        words.append(word)
    return " ".join(shlex.quote(w) for w in words)


def _refuse_flags(args, parser, flags, what):
    """Exit 1 naming the first of flags that is given, from argv or a
    config file: its value is neither None nor False (0 counts as given)."""
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and value is not False:
            parser._fail(f"{what} does not read --{flag}")


def _instance_from_args(args, parser):
    if getattr(args, "instance", None):
        _refuse_flags(args, parser, _GENERATOR_FLAGS, "solve --instance")
        return instances.load_bundle(args.instance)
    if args.m is None or args.n is None or args.s is None:
        parser._fail("need --instance or all of --m/--n/--s")
    spec = instances.GeneratorSpec(
        m=args.m, n=args.n, sparsity=args.s, beta=args.beta or 0.0,
        corruption_scale=args.corruption or 0.0, noise_bound=args.noise or 0.0,
        seed=args.seed,
    )
    return instances.generate_gaussian(spec)


def cmd_generate(args, parser):
    inst = _instance_from_args(args, parser)
    instances.save_bundle(inst, args.out)
    n_corrupt = inst.corruption_indices.size
    r_inf = float(np.abs(inst.noise).max(initial=0.0))
    print(f"seed={inst.seed} m={inst.m} n={inst.n} "
          f"corrupted_rows={n_corrupt} noise_inf={_cell(r_inf)}")
    return 0


def _method_config(method, q, lam, **settings):
    """SolverConfig of a CLI method: its engine, lambda forced to 0 for the
    non-sparse methods, and no q when its quantile filter is off."""
    engine, quantile_on, force_zero_lam = METHOD_TABLE[method]
    return solvers.SolverConfig(method=engine, lam=0.0 if force_zero_lam else lam,
                                quantile_q=q if quantile_on else None, **settings)


def cmd_solve(args, parser):
    inst = _instance_from_args(args, parser)
    config = _method_config(
        args.method, 0.7 if args.q is None else args.q, args.lam, stepsize=args.w,
        max_iters=args.iters, seed=args.seed, trace_every=args.trace_every,
        stop_tol=args.stop_tol,
    )
    start = time.perf_counter()
    if args.trials > 1:
        # a block method draws no rows: its trials on one instance are one run
        block = METHOD_TABLE[args.method][0] == "averaged-block"
        trace = solvers.median_of_trials(lambda j: inst, config,
                                         1 if block else args.trials)
    else:
        _, trace = solvers.run(inst, config)
    wall = time.perf_counter() - start
    final_rel = trace.rel_error[-1]
    reached = config.stop_tol is None or (
        final_rel is not None and final_rel <= config.stop_tol)
    path = args.trace or os.path.join(args.out, f"trace_{args.method}.csv")
    write_trace_csv(path, trace, timings=args.timings)
    print(f"method={args.method} iters={trace.ks[-1]} "
          f"rel_error={_cell(final_rel)} wall_s={wall:.3f} trace={path}")
    return 0 if reached else 2


# ---------------------------------------------------------------------------
# Experiment presets.  Desk-scale defaults keep the whole suite fast; --full
# restores the published dimensions (m = 10000 and 100 trials).
# ---------------------------------------------------------------------------

# One run of a preset.  labels are its leading summary columns; shape is the
# (m, n, s, corruption, noise) of the generated instances, or None for the
# realdata file instance; records is the number of trace records per run;
# trace names the trace CSV it writes, if any; level, if set, adds the first
# k with rel_error <= level to its summary row.
Point = namedtuple("Point", "labels method iters w q shape records trace level",
                   defaults=(None, None))
# grid(full, ns) lists a preset's points; a header that ends in a best_
# column asks for the best-label step (see _append_best).  reads names the
# optional flags of _PRESET_FLAGS the preset uses; any other is refused.
Preset = namedtuple("Preset", "header grid reads")
_PRESET_FLAGS = ("full", "n", "matrix", "xhat", "trials", "timings")


def _corruption_scale(full, ns):
    m, n, s = (10000, 500, 40) if full else (2000, 100, 10)
    return [Point((method, k), method, iters, w, 0.7, (m, n, s, k, 0.02), 200,
                  f"trace_{method}_k{int(k)}.csv", 5e-2)
            for k in (1.0, 10.0, 100.0)
            for method, iters, w in (
                ("quantile-erask", 20000 if full else 8000, "1.0"),
                ("quantile-raska", 200, "1.5n"))]


def _stepsize_sweep(full, ns):
    m = 10000 if full else 2000
    ns = ns or ([100, 200, 300, 400] if full else [50, 100])
    return [Point((n, coeff), "quantile-raska", 20, f"{coeff}n", 0.7,
                  (m, n, 10, 100.0, 0.0), 1)
            for n in ns for coeff in (round(0.2 * i, 1) for i in range(1, 16))]


def _qbeta_grid(full, ns):
    m, n = (10000, 200) if full else (2000, 100)
    return [Point((q,), "quantile-raska", 40, "1.7n", q,
                  (m, n, 10, 100.0, 0.02), 1)
            for q in (round(0.1 * i, 1) for i in range(1, 11))]


def _three_methods(block_iters, block_w, shape, level):
    """Quantile-RKA, Quantile-ERaSK and Quantile-RaSKA side by side."""
    return [Point((method,), method, iters, w, 0.7, shape, 500,
                  f"trace_{method}.csv", level)
            for method, iters, w in (("quantile-rka", block_iters, block_w),
                                     ("quantile-erask", 20000, "1.0"),
                                     ("quantile-raska", block_iters, block_w))]


PRESETS = {
    "corruption-scale": Preset(("method", "corruption_scale", "iters_to_5e-2",
                                "final_rel_error"), _corruption_scale,
                               ("full", "trials", "timings")),
    "stepsize-sweep": Preset(("n", "w_over_n", "rel_error_at_20", "best_w_over_n"),
                             _stepsize_sweep, ("full", "n", "trials")),
    "qbeta-grid": Preset(("q", "rel_error_at_40", "best_q"), _qbeta_grid,
                         ("full", "trials")),
    "method-compare": Preset(
        ("method", "iters_to_1e-2", "final_rel_error"),
        lambda full, ns: _three_methods(
            3000, "1.7n", (2000, 200 if full else 100, 10, 100.0, 0.0), 1e-2),
        ("full", "trials", "timings")),
    "realdata": Preset(("method", "final_rel_error"),
                       lambda full, ns: _three_methods(500, "1.0n", None, None),
                       ("matrix", "xhat", "timings")),
}


def _summary_csv(args, name, header, rows):
    with matrices.write_atomic(os.path.join(args.out, name)) as fh:
        fh.write(f"# cmd: {args.cmd_line}\n{','.join(header)}\n")
        fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)


def _first_k_below(trace, level):
    for k, rel in zip(trace.ks, trace.rel_error):
        if rel is not None and rel <= level:
            return k
    return None


def _run_point(args, inst, trials, point):
    """Median trace over trials on generated instances, or one run on the
    file instance; writes the trace CSV and returns the summary row."""
    config = _method_config(point.method, point.q, 1.0, stepsize=point.w,
                            max_iters=point.iters, seed=args.seed,
                            trace_every=max(1, point.iters // point.records))
    if point.shape is None:
        _, trace = solvers.run(inst, config)
    else:
        m, n, s, corruption, noise = point.shape
        trace = solvers.median_of_trials(
            lambda j: instances.generate_gaussian(instances.GeneratorSpec(
                m=m, n=n, sparsity=s, beta=args.beta, corruption_scale=corruption,
                noise_bound=noise, seed=args.seed + 1000 * j,
            )),
            config, trials,
        )
    if point.trace:
        write_trace_csv(os.path.join(args.out, point.trace), trace,
                        timings=args.timings)
    row = point.labels
    if point.level is not None:
        row += (_first_k_below(trace, point.level) or -1,)
    return row + (trace.rel_error[-1],)


def _append_best(header, rows):
    """Append to each (labels..., error) row the last label of the
    lowest-error row among those sharing its other labels (first on ties),
    and print each group's best."""
    best = {}
    for row in rows:
        if row[:-2] not in best or row[-1] < best[row[:-2]][-1]:
            best[row[:-2]] = row
    for group, row in best.items():
        print(" ".join([f"{h}={v}" for h, v in zip(header, group)]
                       + [f"{header[-1]}={row[-2]}"]))
    return [row + (best[row[:-2]][-2],) for row in rows]


def cmd_experiment(args, parser):
    preset = PRESETS[args.preset]
    _refuse_flags(args, parser, [f for f in _PRESET_FLAGS if f not in preset.reads],
                  f"experiment {args.preset}")
    os.makedirs(args.out, exist_ok=True)
    inst = None
    if args.preset == "realdata":
        if not args.matrix or not args.xhat:
            parser._fail("realdata needs --matrix and --xhat")
        inst = instances.from_files(
            args.matrix, x_hat_path=args.xhat, beta=args.beta,
            corruption_scale=100.0, noise_bound=0.02, seed=args.seed,
        )
    trials = args.trials if args.trials is not None else (100 if args.full else 21)
    run_point = partial(_run_point, args, inst, trials)
    points = preset.grid(args.full, args.n)
    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(run_point, points))
    else:
        rows = [run_point(p) for p in points]
    if preset.header[-1].startswith("best_"):
        rows = _append_best(preset.header, rows)
    _summary_csv(args, "summary.csv", preset.header, rows)
    return 0


def cmd_spectral(args, parser):
    # q and lambda follow solve's rules
    solvers.SolverConfig(quantile_q=args.q, lam=args.lam).validate()
    inst = instances.load_bundle(args.instance)
    mode = "sampled" if args.sampled else "exact"
    try:
        report = theory.spectral_constants(
            inst.A, args.q, inst.beta, mode=mode, samples=args.samples,
            seed=args.seed,
        )
    except BudgetExceeded as exc:
        raise BudgetExceeded(f"{exc}\nhint: rerun with --sampled") from None
    values = dataclasses.asdict(report)
    if inst.x_hat is not None:
        values.update(dataclasses.asdict(
            theory.theorem_constants(report, inst, args.q, args.lam)))
        for key, case in (("condition2", "noisy"), ("condition_corrupted", "corrupted")):
            if not values[key]:
                print(f"warning: convergence condition ({case} case) fails",
                      file=sys.stderr)
    for key, val in values.items():
        print(f"{key}={_cell(val)}")
    _summary_csv(args, "spectral.csv", list(values), [tuple(values.values())])
    return 0


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    command = parser.commands[args.command]
    if args.config:
        # explicit flags beat the file: argparse applies them over the
        # file's values, installed as defaults
        command.set_defaults(**_config_defaults(args.config, command, parser))
        args = parser.parse_args(argv)
    args.cmd_line = _command_line(command, args, argv)
    handlers = {
        "generate": cmd_generate,
        "solve": cmd_solve,
        "experiment": cmd_experiment,
        "spectral": cmd_spectral,
    }
    try:
        return handlers[args.command](args, parser)
    except (QkzError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
