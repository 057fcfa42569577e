"""Digest the traces and final iterates of seeded solver runs.

Prints one line per case: shape, seed, method and the sha256 of the
instance's A and b, of every trace column but `elapsed`, and of the final
x and x*.  Run it on two checkouts and compare the outputs to check that a
change keeps every bit of the solvers' results:

    PYTHONPATH=src python3 scripts/trace_digest.py > new.txt
    (cd ../parent && PYTHONPATH=src python3 scripts/trace_digest.py) > old.txt
    diff old.txt new.txt

`--quick` runs only the smallest shape.
"""

import hashlib
import sys

import numpy as np

from qkaczmarz import instances, solvers

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


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def main(argv):
    shapes = list(SHAPES)[:1] if "--quick" in argv else list(SHAPES)
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


if __name__ == "__main__":
    main(sys.argv[1:])
