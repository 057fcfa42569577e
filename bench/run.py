#!/usr/bin/env python3
"""qkaczmarz benchmark: one workload per call, outputs checked in the same run.

    python3 bench/run.py --workload desk-single-row --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 runs
every trial twice, first untraced and then with every public function of
each module wrapped, and prints the per-layer metrics.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Lines before it give the machine facts, sample counts and every metric in a
table.  The exit code is 1 if any output check failed.  The program is
imported from src/ of the checkout this file sits in; without it the
benchmark exits 1 before measuring anything.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)
# The end-to-end metrics of BENCHMARK.json.  Solve and trial times are taken
# at the run's best: other tenants of a shared host slow its CPU by up to
# 2.5 times in phases of seconds to minutes, which only ever adds time, so
# the fastest samples of a run repeat far better than its medians.
END_TO_END = {
    "setup_s": "s",
    "solve_s.best": "s",
    "iters_per_s.best": "1/s",
    "trials_per_s.best": "1/s",
    "rel_error.p50": "ratio",
    "peak_rss_mb": "MB",
}
# Run-long statistics of the same samples: printed and kept by --out, but
# not in BENCHMARK.json, because they follow the host's phases.
RUN_AVERAGES = {
    "solve_s.p50": "s",
    "solve_s.tail": "s",
    "iters_per_s": "1/s",
    "trials_per_s": "1/s",
}


def load_program():
    """Import qkaczmarz from this checkout's src/, never from elsewhere.

    BLAS runs one thread unless OPENBLAS_NUM_THREADS is already set: on a
    small shared machine a second BLAS thread makes every kernel wait for the
    busier core, which widens the run-to-run spread.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    package = SRC / "qkaczmarz"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no program sources at {package}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import qkaczmarz
    if Path(qkaczmarz.__file__).resolve().parent != package:
        sys.exit(f"bench: qkaczmarz was imported from {qkaczmarz.__file__}, not {package}")
    return qkaczmarz


# ---------------------------------------------------------------------------
# Machine facts, recorded with every result.
# ---------------------------------------------------------------------------

def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def blas_threads():
    """The BLAS thread setting in effect, read from the environment.

    threadpoolctl is not available, so this reports what OpenBLAS read at
    start-up: OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else one thread
    per core.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return f"{var}={os.environ[var]}"
    return f"unset (OpenBLAS default: nproc={os.cpu_count()})"


def machine_facts(seed):
    # numpy is imported in functions, after load_program set the BLAS threads
    import numpy as np

    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------

def drive(workload, rec, seconds, min_trials, tracer=None):
    """Closed loop: trials until `seconds` have passed and `min_trials` ran.

    With a tracer, each trial runs twice on the same inputs, first untraced
    and then with the tracer's wrappers installed, so that both runs of the
    trial see the same machine.
    """
    start = time.perf_counter()
    j = 0
    with rec.logging_solves():
        while j < min_trials or time.perf_counter() - start < seconds:
            rec.trial = j
            workload.trial(rec, j)
            if tracer is not None:
                tracer.trial = j
                tracer.install()
                rec.tracer = tracer
                try:
                    workload.trial(rec, j)
                finally:
                    rec.tracer = None
                    tracer.uninstall()
            j += 1
    rec.trials = j
    rec.wall = time.perf_counter() - start
    return rec


def tail_percentile(min_samples):
    """Highest percentile with at least ten samples beyond it.

    Chosen from the workload's guaranteed sample count, so it is the same
    on every run of a workload, however many samples the run adds.
    """
    fits = [p for p in TAIL_PERCENTILES if min_samples * (100 - p) >= 1000]
    return max(fits, default=TAIL_PERCENTILES[0])


def iters_per_s(solves):
    seconds = sum(s.seconds for s in solves)
    return sum(s.iters for s in solves) / seconds if seconds else 0.0


def fastest_solves(solves, kinds):
    """The fastest untraced solve of each (engine, budget) in `kinds`."""
    best = {}
    for s in solves:
        kind = (s.engine, s.budget)
        if kind in kinds and not s.traced and (kind not in best
                                               or s.seconds < best[kind].seconds):
            best[kind] = s
    return list(best.values())


def sum_of_fastest(samples):
    """Sum over the keys of `samples` of the fastest of each key's seconds."""
    return sum(min(times) for times in samples.values())


def end_to_end(rec, workload, size):
    """(gated metrics, run averages, sample counts) of an untraced run."""
    import numpy as np
    from workloads import engine_of

    pct = tail_percentile(size.min_trials * workload.solves_per_trial)
    solve_s = np.array(rec.solve_s)
    tail = float(np.percentile(solve_s, pct)) if solve_s.size else float("nan")
    kinds = {(engine_of(method), budget) for method, budget in size.methods}
    metrics = {
        "setup_s": statistics.median(rec.setup_s),
        "solve_s.best": sum_of_fastest(rec.method_s),
        "iters_per_s.best": iters_per_s(fastest_solves(rec.solves, kinds)),
        "trials_per_s.best": 1.0 / sum_of_fastest(rec.steps),
        "rel_error.p50": statistics.median(rec.rel_error) if rec.rel_error else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    averages = {
        "solve_s.p50": float(np.median(solve_s)) if solve_s.size else float("nan"),
        "solve_s.tail": tail,
        "iters_per_s": iters_per_s(rec.solves),
        "trials_per_s": rec.trials / rec.wall,
    }
    samples = {
        "setup_s": len(rec.setup_s),
        "solve_s": int(solve_s.size),
        "solve_s.tail_percentile": pct,
        "solve_s.beyond_tail": int((solve_s > tail).sum()),
        "rel_error": len(rec.rel_error),
        "solves": len(rec.solves),
        "trials": rec.trials,
        "wall_s": rec.wall,
        "steps": {name: len(times) for name, times in rec.steps.items()},
    }
    return metrics, averages, samples


def per_layer(rec, tracer, size):
    import numpy as np

    metrics = tracer.metrics(rec.trials)
    traced = [s for s in rec.solves if s.traced]
    untraced = [s for s in rec.solves if not s.traced]
    tol_iters = [s.iters_to_tol for s in traced
                 if s.trial < size.trace_trials and s.engine == size.tol_method]
    metrics["solvers.iters_to_tol.p50"] = float(np.median(tol_iters)) if tol_iters else float("nan")
    metrics["trace_overhead_frac"] = 1.0 - iters_per_s(traced) / iters_per_s(untraced)
    samples = {"trials": rec.trials, "wall_s": rec.wall,
               "iters_to_tol_solves": len(tol_iters)}
    return metrics, samples


def main(argv=None):
    load_program()
    import spans
    from qkaczmarz import bregman, cli, instances, matrices, quantiles, solvers, theory
    from workloads import WORKLOADS, Recorder

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes and budgets, for testing the harness")
    parser.add_argument("--out", help="append the full result as one JSON line")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    size = workload.smoke if args.smoke else workload.full
    facts = machine_facts(args.seed)
    print("# machine " + json.dumps(facts, sort_keys=True))
    print(f"# workload {workload.name}: {workload.why}")
    print(f"# shape {size.m}x{size.n}, A = {size.m * size.n * 8 / 1e6:.1f} MB, "
          f"caches {facts['caches']}")

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch)
    try:
        # warm-up: one trial whose numbers are discarded
        drive(workload, Recorder(args.seed, size, workdir), 0.0, 1)
        if args.trace:
            tracer = spans.Tracer({"matrices": matrices, "instances": instances,
                                   "quantiles": quantiles, "bregman": bregman,
                                   "solvers": solvers, "theory": theory, "cli": cli})
            rec = drive(workload, Recorder(args.seed, size, workdir), args.seconds,
                        size.trace_trials, tracer)
            metrics, samples = per_layer(rec, tracer, size)
            averages = {}
            units = spans.per_layer_names()
            span_file = ROOT / ".bench_out" / f"spans-{workload.name}-seed{args.seed}.json"
            tracer.write_spans(str(span_file), {"workload": workload.name,
                                                "seed": args.seed, "machine": facts})
            print(f"# spans of trial 0 written to {span_file.relative_to(ROOT)}")
        else:
            rec = drive(workload, Recorder(args.seed, size, workdir), args.seconds,
                        size.min_trials)
            metrics, averages, samples = end_to_end(rec, workload, size)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_frac = rec.failed / rec.attempted if rec.attempted else 1.0
    print(f"# samples {json.dumps(samples)}")
    print(f"# {'metric':<44} {'value':>16}  unit")
    for name, unit in units.items():
        print(f"# {name:<44} {metrics[name]:>16.6g}  {unit}")
    for name, value in averages.items():
        print(f"# {name:<44} {value:>16.6g}  {RUN_AVERAGES[name]}  (run average, not gated)")
    print(f"# {'failed_frac':<44} {failed_frac:>16.6g}  ratio"
          f"  ({rec.failed} of {rec.attempted})")

    correct = rec.attempted > 0 and rec.failed == 0
    result = {
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    if args.out:
        record = dict(result, workload=workload.name, seed=args.seed,
                      seconds=args.seconds, trace=args.trace, smoke=args.smoke,
                      failed_frac=failed_frac, run_averages=averages,
                      samples=samples, machine=facts)
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
