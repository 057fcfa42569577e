"""Digest the traces and final iterates of seeded solver runs.

Prints one line per case: shape, seed, method and the sha256 of the
instance's A and b, of every trace column but `elapsed`, and of the final
x and x*.  Run it on two checkouts and compare the outputs to check that a
change keeps every bit of the solvers' results:

    PYTHONPATH=src python3 scripts/trace_digest.py > new.txt
    (cd ../parent && PYTHONPATH=src python3 scripts/trace_digest.py) > old.txt
    diff old.txt new.txt

Give both runs one BLAS thread (OPENBLAS_NUM_THREADS=1): a threaded v @ A
may sum in another order, and the 10000x500 block traces then differ.

`--quick` runs only the smallest shape.  `--cli` then runs a small CLI
journey in a temporary directory (generate; solve with every method, with
--trials, with --stop-tol and with a --config file that one flag overrides;
sampled spectral, and exact spectral on an 8x3 bundle; every experiment
preset, qbeta-grid also on two threads, realdata on the generated bundle)
and prints, per command, its exit code and the sha256 of its stdout and
stderr with `wall_s` values stripped, then the sha256 of every file the
journey wrote.  Point PYTHONPATH at another
checkout's src to digest its CLI with the same journey:

    PYTHONPATH=../parent/src python3 scripts/trace_digest.py --cli > old.txt
    PYTHONPATH=src python3 scripts/trace_digest.py --cli > new.txt
    diff old.txt new.txt

It exits 1 if a command's exit code is not the expected one.
"""

import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile

import numpy as np

from qkaczmarz import cli, instances, solvers

# (m, n, s) -> iterations per method; q = 0.7, lambda = 1, every record kept
SHAPES = {
    (200, 20, 3): {"single-row-inexact": 2000, "single-row-exact": 1000,
                   "averaged-block": 300},
    (2000, 100, 10): {"single-row-inexact": 2000, "single-row-exact": 500,
                      "averaged-block": 200},
    (10000, 500, 40): {"single-row-inexact": 300, "single-row-exact": 100,
                       "averaged-block": 50},
}
SEEDS = (1, 2, 3)
TRACE_COLUMNS = ("ks", "rel_error", "bregman_dist", "quantile", "set_size")

METHODS = ("rk", "rask", "erask", "quantile-rk", "quantile-rask",
           "quantile-erask", "quantile-rka", "quantile-raska")
GENERATE = ["--m", "200", "--n", "20", "--s", "3", "--beta", "0.2",
            "--corruption", "100", "--noise", "0.02", "--seed", "3"]
# written to run.cfg before the journey; the solve that reads it sets --iters
CONFIG = "method=quantile-erask\niters=1000\nlambda=0.5\ntrace-every=10\n"
# (name, argv, expected exit code); paths are relative to the journey's
# directory, so the outputs do not depend on where it lies
JOURNEY = (
    [("generate", ["generate", *GENERATE, "--out", "bundle"], 0)]
    + [(f"solve {method}", ["solve", "--instance", "bundle", "--method", method,
                            "--iters", "300", "--w", "1.5n", "--out", "solve"], 0)
       for method in METHODS]
    + [("solve --trials", ["solve", *GENERATE, "--method", "quantile-raska",
                           "--w", "1.5n", "--iters", "100", "--trials", "4",
                           "--trace", "solve/trials.csv"], 0),
       ("solve --stop-tol reached", ["solve", "--instance", "bundle",
                                     "--method", "quantile-rask", "--iters", "3000",
                                     "--stop-tol", "5e-2", "--trace",
                                     "solve/tol.csv"], 0),
       ("solve --stop-tol unreached", ["solve", "--instance", "bundle",
                                       "--method", "quantile-rask", "--iters", "50",
                                       "--stop-tol", "1e-9", "--trace",
                                       "solve/untol.csv"], 2),
       ("solve --config", ["solve", "--instance", "bundle", "--config", "run.cfg",
                           "--iters", "200", "--trace", "solve/config.csv"], 0),
       ("spectral --sampled", ["spectral", "--instance", "bundle", "--q", "0.7",
                               "--sampled", "--samples", "200", "--seed", "5",
                               "--out", "spectral"], 0),
       ("generate 8x3", ["generate", "--m", "8", "--n", "3", "--s", "1", "--beta",
                         "0.2", "--corruption", "10", "--seed", "4", "--out",
                         "tiny"], 0),
       ("spectral exact", ["spectral", "--instance", "tiny", "--q", "0.7",
                           "--out", "spectral-exact"], 0),
       ("experiment corruption-scale", ["experiment", "corruption-scale",
                                        "--trials", "1", "--out", "exp/cs"], 0),
       ("experiment stepsize-sweep", ["experiment", "stepsize-sweep", "--n", "20",
                                      "--trials", "2", "--out", "exp/ss"], 0),
       ("experiment qbeta-grid", ["experiment", "qbeta-grid", "--trials", "2",
                                  "--out", "exp/qb"], 0),
       ("experiment qbeta-grid --jobs 2", ["experiment", "qbeta-grid", "--trials",
                                           "1", "--jobs", "2", "--out", "exp/qb2"], 0),
       ("experiment method-compare", ["experiment", "method-compare",
                                      "--trials", "1", "--out", "exp/mc"], 0),
       ("experiment realdata", ["experiment", "realdata", "--matrix", "bundle/A.mtx",
                                "--xhat", "bundle/xhat.mtx", "--out", "exp/rd"], 0)]
)


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def text_digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def trace_cases(quick):
    shapes = list(SHAPES)[:1] if quick else list(SHAPES)
    for m, n, s in shapes:
        for seed in SEEDS:
            inst = instances.generate_gaussian(instances.GeneratorSpec(
                m=m, n=n, sparsity=s, beta=0.2, corruption_scale=100.0,
                noise_bound=0.02, seed=seed))
            data = digest(inst.A, inst.b_observed)
            for method, iters in SHAPES[m, n, s].items():
                config = solvers.SolverConfig(
                    method=method, lam=1.0, quantile_q=0.7, max_iters=iters,
                    seed=seed, stepsize="1.5n" if method == "averaged-block" else 1.0)
                state, trace = solvers.run(inst, config)
                columns = [digest(getattr(trace, c)) for c in TRACE_COLUMNS]
                print(f"{m}x{n} seed={seed} {method} data={data} "
                      f"trace={','.join(columns)} x={digest(state.x)} "
                      f"x_star={digest(state.x_star)}", flush=True)


def cli_journey():
    """Run JOURNEY in a temporary directory; returns the failed commands."""
    failed = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            with open("run.cfg", "w") as fh:
                fh.write(CONFIG)
            for name, argv, expected in JOURNEY:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                stdout = re.sub(r"wall_s=\S+", "wall_s=", out.getvalue())
                print(f"cli {name}: exit={code} "
                      f"stdout={text_digest(stdout.encode())} "
                      f"stderr={text_digest(err.getvalue().encode())}", flush=True)
                if code != expected:
                    failed.append(name)
            for root, dirs, files in os.walk("."):
                dirs.sort()
                for fname in sorted(files):
                    path = os.path.join(root, fname)
                    with open(path, "rb") as fh:
                        print(f"file {os.path.normpath(path)} "
                              f"{text_digest(fh.read())}")
        finally:
            os.chdir(home)
    return failed


def main(argv):
    trace_cases("--quick" in argv)
    if "--cli" in argv:
        failed = cli_journey()
        if failed:
            print(f"unexpected exit code: {', '.join(failed)}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
