"""Digest the traces and final iterates of seeded solver runs.

First prints one line naming what the bits depend on: the numpy version,
the BLAS library and version, the OPENBLAS_CORETYPE setting, and whether
importing qkaczmarz held OpenBLAS at one thread (`blas_threads=held`) or
found no thread setter and left the library's own count
(`blas_threads=library`).  Then one line per case: shape, seed, method and
the sha256 of the instance's A and b, of every trace column but `elapsed`,
and of the final x and x*.  Run it on two checkouts and compare
the outputs to check that a change keeps every bit of the solvers' results:

    PYTHONPATH=src python3 scripts/trace_digest.py > new.txt
    (cd ../parent && PYTHONPATH=src python3 scripts/trace_digest.py) > old.txt
    diff old.txt new.txt

The bits do not depend on OPENBLAS_NUM_THREADS, since importing qkaczmarz
sets the process's OpenBLAS to one thread.  OpenBLAS rounds differently
per CPU kernel, so the reference outputs committed beside this script,
trace_digest_full.txt and trace_digest_quick_cli.txt, are made under a
named one and regenerated with

    export OPENBLAS_CORETYPE=Haswell PYTHONPATH=src
    python3 scripts/trace_digest.py > scripts/trace_digest_full.txt
    python3 scripts/trace_digest.py --quick --cli > scripts/trace_digest_quick_cli.txt

Any x86-64 CPU with AVX2 runs that kernel; with the numpy version the first
line names, it gives the same bytes.

`--quick` runs only the smallest shape.  `--cli` then runs a small CLI
journey in a temporary directory (generate; solve with every method, with
--trials, with --stop-tol and with a --config file that one flag overrides;
sampled spectral, and exact spectral on an 8x3 bundle; every experiment
preset, qbeta-grid also on two threads, realdata on the generated bundle and
again on a copy whose A.mtx has comment lines after its size line, which
Matrix Market readers take line by line) and prints, per command, its exit
code and the sha256 of its stdout and stderr with `wall_s` values stripped,
then the sha256 of every file the journey wrote.  Before each realdata
command's line it prints the sha256 of the A and x_hat that
`instances.from_files` returned: realdata builds b from A x_hat, so a
reader that negated every value would write the same files.  Point
PYTHONPATH at another checkout's src to digest its CLI with the same
journey:

    PYTHONPATH=../parent/src python3 scripts/trace_digest.py --cli > old.txt
    PYTHONPATH=src python3 scripts/trace_digest.py --cli > new.txt
    diff old.txt new.txt

It exits 1 if a command's exit code is not the expected one, or if the two
realdata runs write files that differ.
"""

import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile

import numpy as np

from qkaczmarz import cli, instances, matrices, solvers

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
# realdata again, after the journey, on the files of COMMENTED: the paths
# relative to --out are those of the first run, so its files, `# cmd:` line
# included, must have the same bytes
COMMENTED = "commented"
REALDATA_COMMENTED = (
    "experiment realdata, comments after the size line",
    ["experiment", "realdata", "--matrix", f"{COMMENTED}/bundle/A.mtx",
     "--xhat", f"{COMMENTED}/bundle/xhat.mtx", "--out", f"{COMMENTED}/exp/rd"], 0)


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


def copy_with_comments(src, dst):
    """Copy a Matrix Market file with comment lines after its size line and
    between its entries."""
    with open(src) as fh:
        lines = fh.readlines()
    lines.insert(2, "% a comment after the size line\n")
    lines.insert(len(lines) // 2, "%\n")
    os.makedirs(os.path.dirname(dst), exist_ok=True)
    with open(dst, "w") as fh:
        fh.writelines(lines)


def run_command(name, argv):
    """Run one CLI command in process, print its digest line and return its
    exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    stdout = re.sub(r"wall_s=\S+", "wall_s=", out.getvalue())
    print(f"cli {name}: exit={code} "
          f"stdout={text_digest(stdout.encode())} "
          f"stderr={text_digest(err.getvalue().encode())}", flush=True)
    return code


def cli_journey():
    """Run JOURNEY, then REALDATA_COMMENTED, in a temporary directory;
    returns what failed."""
    home, stdout, from_files = os.getcwd(), sys.stdout, instances.from_files

    def loading(matrix_path, *args, **kwargs):
        # printed past run_command's capture, before the command's own line
        inst = from_files(matrix_path, *args, **kwargs)
        print(f"from_files {matrix_path}: A={digest(inst.A)} "
              f"x_hat={digest(inst.x_hat)}", file=stdout, flush=True)
        return inst

    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        instances.from_files = loading
        try:
            with open("run.cfg", "w") as fh:
                fh.write(CONFIG)
            failed = [name for name, argv, expected in JOURNEY
                      if run_command(name, argv) != expected]
            for fname in ("A.mtx", "xhat.mtx"):
                copy_with_comments(os.path.join("bundle", fname),
                                   os.path.join(COMMENTED, "bundle", fname))
            name, argv, expected = REALDATA_COMMENTED
            if run_command(name, argv) != expected:
                failed.append(name)
            digests = {}
            for root, dirs, files in os.walk("."):
                dirs.sort()
                for fname in sorted(files):
                    path = os.path.normpath(os.path.join(root, fname))
                    with open(path, "rb") as fh:
                        digests[path] = text_digest(fh.read())
                    print(f"file {path} {digests[path]}")
            for path, value in digests.items():
                if os.path.dirname(path) == os.path.join("exp", "rd") and \
                        digests.get(os.path.join(COMMENTED, path)) != value:
                    failed.append(f"{name}: {path} differs")
        finally:
            instances.from_files = from_files
            os.chdir(home)
    return failed


def versions():
    """The numpy and BLAS versions, the OpenBLAS kernel setting and the BLAS
    thread mode of this run."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    coretype = os.environ.get("OPENBLAS_CORETYPE", "unset")
    # setting one thread again changes nothing; it tells whether a setter exists
    threads = "held" if matrices._one_openblas_thread() else "library"
    return (f"numpy={np.__version__} blas={blas['name']} {blas['version']} "
            f"OPENBLAS_CORETYPE={coretype} blas_threads={threads}")


def main(argv):
    print(versions(), flush=True)
    trace_cases("--quick" in argv)
    if "--cli" in argv:
        failed = cli_journey()
        if failed:
            print(f"failed: {', '.join(failed)}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
